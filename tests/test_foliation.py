import numpy as np
import pytest

from htfoliation import foliation as fol
from htfoliation import geometry as geo
from htfoliation import models
from htfoliation.checks import frame_batch_for
from htfoliation.errors import DegenerateFrameError
from htfoliation.foliation import (Split, curvature_components,
                                   j_endomorphisms, torsion_components)
from htfoliation.geometry import MonomialCache, PolyField, bracket, sample_points


def span_splits(model):
    return [model.span_split(i) for i in range(model.span_count)]


def eval_max(field_or_poly, pts, cache=None):
    vals = field_or_poly.evaluate(pts, cache)
    return float(np.abs(vals).max())


class TestFrames:
    def test_group_frame_is_defining_basis(self, heis):
        frame = heis.adapted_frame(np.zeros(3))
        np.testing.assert_allclose(frame.horizontal,
                                   [[1, 0, 0], [0, 1, 0]], atol=1e-14)
        np.testing.assert_allclose(frame.vertical, [[0, 0, 1]], atol=1e-14)

    def test_sphere_vertical_scaling(self, s7):
        # g-unit vertical vectors are sqrt(eps) times the round-unit fields
        pts = sample_points(s7.chart, 4, 3)
        fb = s7.frame_batch(pts)
        round_norms = np.linalg.norm(fb.z, axis=2)
        np.testing.assert_allclose(round_norms, 2.0, atol=1e-12)

    def test_frame_orthonormal_in_model_metric(self, s7):
        fb = frame_batch_for(s7, 8, 4)
        gram = np.einsum("pan,pnm,pbm->pab", fb.frame, fb.metric, fb.frame)
        np.testing.assert_allclose(gram, np.broadcast_to(np.eye(7), gram.shape),
                                   atol=1e-12)

    def test_rank_deficient_horizontal_raises(self):
        heis = models.get_model("heisenberg")
        broken = fol.FoliationModel(
            "broken", "group", heis.chart, heis.n, heis.m, 1.0,
            heis.vertical_fields,
            [heis.horizontal_fields[0], heis.horizontal_fields[0]],
            generators=heis.generators)
        with pytest.raises(DegenerateFrameError):
            broken.frame_batch(np.zeros((1, 3)))


class TestProjections:
    def test_decomposition_reconstructs(self, s7):
        pts = sample_points(s7.chart, 8, 5)
        rng = np.random.default_rng(0)
        F = PolyField.constant(rng.standard_normal(8))
        pos = PolyField.position(8)
        recon = s7.pi_h(F) + s7.pi_v(F) + pos.scale(F.dot(pos))
        assert eval_max(recon - F, pts) < 1e-12

    def test_projected_parts_orthogonal(self, s7):
        pts = sample_points(s7.chart, 8, 5)
        rng = np.random.default_rng(1)
        F = PolyField.constant(rng.standard_normal(8))
        fh = s7.pi_h(F)
        for Z in s7.vertical_fields:
            assert eval_max(fh.dot(Z), pts) < 1e-12
        assert eval_max(fh.dot(PolyField.position(8)), pts) < 1e-12


class TestBottConnection:
    def test_group_horizontal_case_vanishes(self, heis_quat):
        # two-step groups: the frame connection coefficients all vanish,
        # cross-checked against a structure-constant Koszul computation
        model = heis_quat
        for a in range(model.span_count):
            for b in range(model.span_count):
                assert model.bott_entry(a, b).total(model.ambient_dim).is_zero()
        gens = model.generators
        F = model.n + model.m
        c = np.zeros((F, F, F))
        for k in range(model.m):
            c[:model.n, :model.n, model.n + k] = -gens[k]
        koszul = 0.5 * (c - np.transpose(c, (1, 2, 0)) + np.transpose(c, (2, 0, 1)))
        # Bott keeps only the like-slot projections of the Koszul values
        assert np.abs(koszul[:model.n, :model.n, :model.n]).max() == 0.0
        assert np.abs(koszul[model.n:, model.n:, model.n:]).max() == 0.0

    def test_vertical_direction_is_projected_bracket(self, s3):
        Z = s3.vertical_fields[0]
        Y = s3.horizontal_fields[1]
        pts = sample_points(s3.chart, 8, 2)
        lhs = s3.bott(Split(v=Z), Split(h=Y))
        rhs = s3.pi_h(bracket(Z, Y))
        assert eval_max(lhs - rhs, pts) < 1e-13

    @pytest.mark.parametrize("name", ["complex-hopf-s3", "heisenberg-quat"])
    def test_metric_compatibility(self, name, catalog_models):
        model = catalog_models[name]
        pts = sample_points(model.chart, 32, 6)
        cache = MonomialCache(pts)
        spans = span_splits(model)
        worst = 0.0
        for E in spans:
            Et = E.total(model.ambient_dim)
            for i, F in enumerate(spans):
                for G in spans[i:]:
                    lhs = geo.directional_derivative(Et, model.metric_poly(F, G))
                    nabF = model.bott_split(E, F)
                    nabG = model.bott_split(E, G)
                    rhs = model.metric_poly(nabF, G) + model.metric_poly(F, nabG)
                    worst = max(worst, eval_max(lhs - rhs, pts, cache))
        assert worst < 1e-9

    @pytest.mark.parametrize("name", ["complex-hopf-s3", "heisenberg-quat"])
    def test_connection_torsion_matches_bracket_formula(self, name,
                                                        catalog_models):
        # two routes: nabla_F G - nabla_G F - [F, G] versus -pi_V[h F, h G]
        model = catalog_models[name]
        pts = sample_points(model.chart, 16, 7)
        cache = MonomialCache(pts)
        spans = span_splits(model)
        worst = 0.0
        for a, F in enumerate(spans):
            for b in range(a + 1, len(spans)):
                G = spans[b]
                tor = (model.bott_split(F, G).total(model.ambient_dim)
                       - model.bott_split(G, F).total(model.ambient_dim)
                       - bracket(F.total(model.ambient_dim),
                                 G.total(model.ambient_dim)))
                formula = model.torsion_transform(F, G)
                worst = max(worst, eval_max(tor - formula, pts, cache))
        assert worst < 1e-9

    def test_splitting_is_parallel(self, s3):
        # nabla of a horizontal field stays horizontal, and conversely
        pts = sample_points(s3.chart, 8, 8)
        spans = span_splits(s3)
        for E in spans:
            for G in spans:
                out = s3.bott_split(E, G)
                if G.v is None and out.v is not None:
                    assert eval_max(out.v, pts) < 1e-13
                if G.h is None and out.h is not None:
                    assert eval_max(out.h, pts) < 1e-13


class TestTorsionAndJ:
    def test_heisenberg_torsion_value(self, heis):
        T = fol.torsion(heis, np.array([0.3, -0.2, 0.5]))
        np.testing.assert_allclose(T.components[0], [[0, -1], [1, 0]],
                                   atol=1e-14)
        assert np.abs(T.components + np.transpose(
            T.components, (0, 2, 1))).max() < 1e-14

    @pytest.mark.parametrize("name", ["heisenberg", "heisenberg-quat",
                                      "heisenberg-oct"])
    def test_group_j_matrices_recover_generators(self, name, catalog_models):
        model = catalog_models[name]
        J = fol.j_map(model, np.zeros(model.ambient_dim))
        np.testing.assert_allclose(J.components, model.generators, atol=1e-13)

    def test_j_skew_and_pairing(self, s7):
        fb = frame_batch_for(s7, 8, 4)
        comps = torsion_components(fb)
        assert np.abs(comps + np.transpose(comps, (0, 1, 3, 2))).max() < 1e-13

    def test_h_type_torsion_identity(self, s7):
        # T(X, J_Z X) = ||X||^2 Z for g-unit vertical Z
        fb = frame_batch_for(s7, 8, 4)
        T = torsion_components(fb)
        J = j_endomorphisms(fb)
        val = np.einsum("pakj,pbjk->pab", J, np.transpose(T, (0, 1, 3, 2)))
        # sum_j (J_a)_{kj->...}: contract T(x_i, J_a x_i) = sum_k J[a,k,i] T[b,i,k]
        val = np.einsum("paki,pbik->piab", J, T)
        n = s7.n
        for i in range(n):
            np.testing.assert_allclose(val[:, i], np.broadcast_to(
                np.eye(3), val[:, i].shape), atol=1e-12)

    def test_j_transform_matches_pointwise_pairing(self, s7):
        # field-level J against the component-level pairing at sample points
        fb = frame_batch_for(s7, 8, 4)
        J = j_endomorphisms(fb)
        Z = s7.vertical_fields[1]
        X = s7.horizontal_fields[2]
        out = s7.j_transform(Split(v=Z), Split(h=X)).evaluate(fb.points, fb.mono)
        # expand X(p) and round-unit Z in the adapted frame and apply J there
        xc = np.einsum("pn,pnm,pim->pi", X.evaluate(fb.points, fb.mono),
                       fb.metric, fb.x)
        zc = np.einsum("pn,pnm,pam->pa", Z.evaluate(fb.points, fb.mono),
                       fb.metric, fb.z)
        img = np.einsum("pa,paki,pi,pkn->pn", zc, J, xc, fb.x)
        np.testing.assert_allclose(out, img, atol=1e-12)


class TestEpsilonScaling:
    def test_j_rescales_inversely_torsion_fixed(self, s7):
        # against the stored (round-unit) vertical fields: J -> J/c under
        # eps -> c*eps, while T as a vertical-vector-valued map is unchanged
        c = 2.5
        other = s7.with_epsilon(c * s7.epsilon)
        pts = sample_points(s7.chart, 6, 9)
        fb1 = s7.frame_batch(pts)
        fb2 = other.frame_batch(pts)
        J1 = j_endomorphisms(fb1) / np.sqrt(s7.epsilon)
        J2 = j_endomorphisms(fb2) / np.sqrt(other.epsilon)
        np.testing.assert_allclose(J2, J1 / c, atol=1e-12)
        # the ambient vector T(x_i, x_j) = sum_a T^a_{ij} z_a is scale-free
        T1 = np.einsum("paij,pan->pijn", torsion_components(fb1), fb1.z)
        T2 = np.einsum("paij,pan->pijn", torsion_components(fb2), fb2.z)
        np.testing.assert_allclose(T1, T2, atol=1e-12)

    def test_round_trip_restores_j(self, s3):
        back = s3.with_epsilon(1.0).with_epsilon(s3.epsilon)
        pts = sample_points(s3.chart, 4, 10)
        np.testing.assert_allclose(
            j_endomorphisms(s3.frame_batch(pts)),
            j_endomorphisms(back.frame_batch(pts)), atol=1e-13)


class TestRescaledLeviCivita:
    @pytest.mark.parametrize("eps_rel", [0.25, 1.0])
    def test_metric_and_torsion_free(self, s3, eps_rel):
        # the rescaled connection must be Levi-Civita for the rescaled metric
        pts = sample_points(s3.chart, 16, 11)
        cache = MonomialCache(pts)
        spans = span_splits(s3)
        worst_metric = 0.0
        for E in spans:
            Et = E.total(s3.ambient_dim)
            for i, F in enumerate(spans):
                for G in spans[i:]:
                    lhs = geo.directional_derivative(
                        Et, s3.metric_poly(F, G, eps_scale=eps_rel))
                    rhs = (s3.metric_poly(s3.lc_variation_split(E, F, eps_rel),
                                          G, eps_scale=eps_rel)
                           + s3.metric_poly(F, s3.lc_variation_split(E, G, eps_rel),
                                            eps_scale=eps_rel))
                    worst_metric = max(worst_metric,
                                       eval_max(lhs - rhs, pts, cache))
        assert worst_metric < 1e-9


class TestGroupCurvatureFlat:
    @pytest.mark.parametrize("name", ["heisenberg-quat", "heisenberg-oct"])
    def test_bott_curvature_vanishes(self, name, catalog_models):
        # flat leaves and horizontally flat: the whole curvature tensor is 0
        model = catalog_models[name]
        fb = frame_batch_for(model, 8, 4)
        comps = curvature_components(fb, "all", "all", "all")
        assert np.abs(comps).max() < 1e-12
