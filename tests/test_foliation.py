import dataclasses
import functools
import inspect
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from htfoliation import checks, cli
from htfoliation import foliation as fol
from htfoliation import geometry as geo
from htfoliation import models
from htfoliation.checks import frame_batch_for
from htfoliation.errors import DegenerateFrameError, InvalidModelError
from htfoliation.foliation import (Split, curvature_components,
                                   j_endomorphisms, torsion_components)
from htfoliation.geometry import (MonomialCache, PointField, Polynomial,
                                  PolyField, bracket, field_jets,
                                  sample_points)
from symbolic_oracles import (from_terms, metric_poly, order2_jet,
                              span_split, symbolic_curvature,
                              symbolic_lc_curvature, symbolic_nabla_t,
                              symbolic_tables)
from test_checks import tilted_heisenberg_quat


def span_splits(model):
    return [span_split(model, i) for i in range(model.span_count)]


def connection_test_fields(model):
    """Spanning fields; on groups also f X_i and g Z_a for polynomials f, g
    with dyadic coefficients.  Every group spanning field has constant frame
    coefficients, so only these pin the connection down on general fields."""
    spans = span_splits(model)
    if model.backend != "group":
        return spans
    n = model.n
    x = [Polynomial.variable(model.ambient_dim, i) for i in range(model.ambient_dim)]
    f = 0.5 + 0.25 * x[0] - 0.75 * (x[1] * x[n])
    g = -1.0 + 0.5 * x[n + 1] + 0.125 * (x[2] * x[3])
    return (spans + [Split(h=X.scale(f)) for X in model.horizontal_fields]
            + [Split(v=Z.scale(g)) for Z in model.vertical_fields])


def eval_max(field_or_poly, pts, cache=None):
    vals = field_or_poly.evaluate(pts, cache)
    return float(np.abs(vals).max())


class TestFrames:
    def test_group_frame_is_defining_basis(self, heis):
        frame = heis.frame_batch(np.zeros(3))
        np.testing.assert_allclose(frame.x[0],
                                   [[1, 0, 0], [0, 1, 0]], atol=1e-14)
        np.testing.assert_allclose(frame.z[0], [[0, 0, 1]], atol=1e-14)

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

    def test_sphere_frame_needs_the_projected_basis(self, s5):
        # the weights of the sphere's horizontal frame are its ambient
        # coordinates, which hold for the family pi_H e_mu in order; the
        # same family in another order spans H as well, and is refused
        # instead of giving wrong components (h-type read 0.72 on it)
        order = [1, 0] + list(range(2, s5.ambient_dim))
        swapped = fol.FoliationModel(
            "swapped", "sphere", s5.chart, s5.n, s5.m, s5.epsilon,
            s5.vertical_fields, [s5.horizontal_fields[i] for i in order],
            vertical_matrices=s5.vertical_matrices)
        pts = sample_points(s5.chart, 8, 3)
        s5.frame_batch(pts)
        with pytest.raises(InvalidModelError, match="pi_H e_mu"):
            swapped.frame_batch(pts)

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
                assert symbolic_tables(model).bott(a, b).total(
                    model.ambient_dim).is_zero()
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
        lhs = s3.bott_split(Split(v=Z), Split(h=Y)).total(s3.ambient_dim)
        rhs = s3.pi_h(bracket(Z, Y))
        assert eval_max(lhs - rhs, pts) < 1e-13

    @pytest.mark.parametrize("name", ["complex-hopf-s3", "heisenberg-quat",
                                      "heisenberg-quat-mixed"])
    def test_metric_compatibility(self, name, catalog_models):
        model = catalog_models[name]
        pts = sample_points(model.chart, 32, 6)
        cache = MonomialCache(pts)
        spans = connection_test_fields(model)
        worst = 0.0
        for E in spans:
            Et = E.total(model.ambient_dim)
            for i, F in enumerate(spans):
                for G in spans[i:]:
                    lhs = geo.directional_derivative(
                        Et, metric_poly(model, F, G))
                    nabF = model.bott_split(E, F)
                    nabG = model.bott_split(E, G)
                    rhs = (metric_poly(model, nabF, G)
                           + metric_poly(model, F, nabG))
                    worst = max(worst, eval_max(lhs - rhs, pts, cache))
        assert worst < 1e-9

    @pytest.mark.parametrize("name", ["complex-hopf-s3", "heisenberg-quat",
                                      "heisenberg-quat-mixed"])
    def test_connection_torsion_matches_bracket_formula(self, name,
                                                        catalog_models):
        # two routes: nabla_F G - nabla_G F - [F, G] versus -pi_V[h F, h G]
        model = catalog_models[name]
        pts = sample_points(model.chart, 16, 7)
        cache = MonomialCache(pts)
        spans = connection_test_fields(model)
        worst = 0.0
        for a, F in enumerate(spans):
            for b in range(a + 1, len(spans)):
                G = spans[b]
                tor = (model.bott_split(F, G).total(model.ambient_dim)
                       - model.bott_split(G, F).total(model.ambient_dim)
                       - bracket(F.total(model.ambient_dim),
                                 G.total(model.ambient_dim)))
                formula = model.torsion_transform(F, G).total(model.ambient_dim)
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
        np.testing.assert_allclose(T[0], [[0, -1], [1, 0]], atol=1e-14)
        assert np.abs(T + np.transpose(T, (0, 2, 1))).max() < 1e-14

    @pytest.mark.parametrize("name", ["heisenberg", "heisenberg-quat",
                                      "heisenberg-oct"])
    def test_group_j_matrices_recover_generators(self, name, catalog_models):
        model = catalog_models[name]
        J = fol.torsion(model, np.zeros(model.ambient_dim))
        np.testing.assert_allclose(J, model.generators, atol=1e-13)

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
        cache = MonomialCache(fb.points)
        out = s7.j_transform(Split(v=Z), Split(h=X)).total(8).evaluate(
            fb.points, cache)
        # expand X(p) and round-unit Z in the adapted frame and apply J there
        xc = np.einsum("pn,pnm,pim->pi", X.evaluate(fb.points, cache),
                       fb.metric, fb.x)
        zc = np.einsum("pn,pnm,pam->pa", Z.evaluate(fb.points, cache),
                       fb.metric, fb.z)
        img = np.einsum("pa,paki,pi,pkn->pn", zc, J, xc, fb.x)
        np.testing.assert_allclose(out, img, atol=1e-12)


class TestEpsilonScaling:
    def test_j_rescales_inversely_torsion_fixed(self, s7):
        # against the stored (round-unit) vertical fields: J -> J/c under
        # eps -> c*eps, while T as a vertical-vector-valued map is unchanged
        c = 2.5
        other = models.quaternionic_hopf(1, c * s7.epsilon)
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
                        Et, metric_poly(s3, F, G, eps_scale=eps_rel))
                    rhs = (metric_poly(s3, s3.lc_variation_split(E, F, eps_rel),
                                       G, eps_scale=eps_rel)
                           + metric_poly(s3, F,
                                         s3.lc_variation_split(E, G, eps_rel),
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


class TestBaseCurvatureOracle:
    """On the Hopf models the horizontal block of the Bott curvature is the
    curvature of the base (CP^k with the Fubini-Study metric, HP^k with the
    standard one), in closed form from the frame vectors and the vertical
    structure matrices I_a, so it shares nothing with the connection engine
    but the frame.  The Bott connection does not depend on epsilon, so
    neither does the block."""

    @staticmethod
    def base_curvature(fb, I):
        """<R(X, Y) Z, U> over the horizontal frame, [p, X, Y, Z, U]:
        <Y,Z><X,U> - <X,Z><Y,U> + sum_a (<I_a Y,Z><I_a X,U>
        - <I_a X,Z><I_a Y,U> + 2 <X,I_a Y><I_a Z,U>)."""
        x = fb.x                                            # (P, n, N)
        g = np.einsum("pin,pjn->pij", x, x)
        gI = np.einsum("amn,pin,pjm->paij", I, x, x)        # <I_a x_i, x_j>
        return (np.einsum("pyz,pxu->pxyzu", g, g)
                - np.einsum("pxz,pyu->pxyzu", g, g)
                + np.einsum("payz,paxu->pxyzu", gI, gI)
                - np.einsum("paxz,payu->pxyzu", gI, gI)
                + 2 * np.einsum("payx,pazu->pxyzu", gI, gI))

    @pytest.mark.parametrize("points", [8, 32])
    @pytest.mark.parametrize("epsilon", [4.0, 1.0])
    @pytest.mark.parametrize("hopf, k", [(models.complex_hopf, 1),
                                         (models.complex_hopf, 2),
                                         (models.quaternionic_hopf, 1),
                                         (models.quaternionic_hopf, 2)])
    def test_horizontal_curvature_is_the_base_curvature(self, hopf, k,
                                                         epsilon, points):
        model = hopf(k, epsilon=epsilon)
        fb = model.frame_batch(sample_points(model.chart, points, 42))
        got = curvature_components(fb, "h", "h", "h")[..., :model.n]
        want = self.base_curvature(fb, np.asarray(model.vertical_matrices))
        assert np.abs(got - want).max() <= 1e-12


# ---------------------------------------------------------------------------
# the three-index entries against their symbolic composition

def oracle_keys(model):
    """Keys over every (horizontal | vertical) pattern of the three slots,
    with indices that vary from key to key."""
    kh, K = model.span_h_count, model.span_count
    pick = {"h": [0, kh - 1, kh // 2], "v": [kh, K - 1, kh + (K - kh) // 2]}
    return [tuple(pick[p][i % 3] for i, p in enumerate(pattern))
            for pattern in ("hhh", "hhv", "hvh", "vhh", "hvv", "vhv", "vvh",
                            "vvv")]


def ghat_scales(name):
    """Relative vertical scales at which the checks evaluate R^ghat:
    curvature-constancy at 1 / (2 kappa), check_oneill at its defaults."""
    kappa = models.get_spec(name).expected_kappa
    oneill = inspect.signature(checks.check_oneill).parameters["eps_values"]
    return sorted({*oneill.default, *([1.0 / (2.0 * kappa)] if kappa else [])})


def spanning_batch(fb):
    """A batch over ``fb``'s points whose frame fields are the spanning
    fields (identity weights) and whose metric-lowered frame is the
    identity, so that ``assemble`` keeps the values over the spanning
    indices, (P, K1, ..., N): weighting and measuring by an identity is
    exact."""
    model = fb.model
    P, N = fb.points.shape
    kh, K = model.span_h_count, model.span_count
    eye = lambda k: np.broadcast_to(np.eye(k), (P, k, k))
    jets = model.jets(MonomialCache(fb.points))
    hess = model._span_hessians.reshape(K, -1)
    blocks = ((eye(kh), slice(0, kh)), (eye(K - kh), slice(kh, K)))
    out = fol.FrameBatch(
        model, fb.points, tuple(fol._frame_parts(p, blocks) for p in jets),
        fb.metric, jets[0][:kh].swapaxes(0, 1), jets[0][kh:K].swapaxes(0, 1),
        tuple((W, hess[s]) for W, s in blocks))
    out.__dict__["_metric_frame"] = eye(N)
    return out


def frame_weights(fb):
    """The minimum-norm weights of the frame over each block of spanning
    fields, (P, n, Kh) and (P, m, m), computed apart from the batch:
    ``x = W_h V_h`` and ``z = W_v V_v`` at each point, with
    ``W = frame @ pinv(V)`` from the spanning values V."""
    model = fb.model
    values = model.jets(MonomialCache(fb.points))[0]
    kh, K = model.span_h_count, model.span_count
    pinv = lambda V: np.linalg.pinv(V.swapaxes(0, 1), rcond=1e-10)
    return fb.x @ pinv(values[:kh]), fb.z @ pinv(values[kh:K])


def expansion(fb):
    """The block-diagonal expansion of the full adapted frame over the
    spanning fields, (P, n+m, K): u_d = sum_a W[p, d, a] E_a."""
    wh, wv = frame_weights(fb)
    (P, n, kh), m = wh.shape, wv.shape[1]
    W = np.zeros((P, n + m, kh + m))
    W[:, :n, :kh] = wh
    W[:, n:, kh:] = wv
    return W


class TestJetOracle:
    """The batched three-index entries, computed from 1-jets of the two-index
    tables, reproduce the symbolic composition evaluated at the points.  The
    batch keeps frame components, so the entries are built on a copy whose
    frame contractions are identities (``spanning_batch``)."""

    @staticmethod
    def assert_close(got, want):
        scale = max(1.0, float(np.abs(want).max()))
        assert float(np.abs(got - want).max()) <= 1e-12 * scale

    @pytest.mark.parametrize("name", [s.name for s in models.catalog()])
    def test_entries_match_symbolic_composition(self, name, catalog_models):
        model = catalog_models[name]
        fb = spanning_batch(model.frame_batch(sample_points(model.chart, 3,
                                                            12)))
        every = ("hv",) * 3
        batched = {"nabla_t": model.nabla_t_entry(fb, *every),
                   "curvature": model.curvature_entry(fb, *every)}
        N = model.ambient_dim
        symbolic = {"nabla_t": lambda *k: symbolic_nabla_t(model, *k),
                    "curvature": lambda *k: symbolic_curvature(model, *k)}
        for eps_rel in ghat_scales(name):
            batched[eps_rel] = model.lc_curvature_entry(fb, eps_rel, *every)
            symbolic[eps_rel] = (lambda e: lambda *k: symbolic_lc_curvature(
                model, e, *k))(eps_rel)
        cache = MonomialCache(fb.points)
        for label, values in batched.items():
            assert values.shape == (3, *(model.span_count,) * 3,
                                    model.ambient_dim)
            for key in oracle_keys(model):
                want = symbolic[label](*key).total(N).evaluate(fb.points,
                                                               cache)
                self.assert_close(values[(slice(None),) + key], want)


def part_sum(split, attr):
    """The sum over the present parts of a Split of jets of one attribute
    (value or jacobian); 0 when both parts are zero."""
    return sum(getattr(part, attr) for part in (split.h, split.v)
               if part is not None)


class TestPairJets:
    """The two-index entries, built at a point batch over the frame blocks
    from the 2-jets of the frame fields (their weights over the spanning
    fields frozen at each point), are the 1-jets of the symbolic tables over
    the spanning fields contracted by the same weights.  The tilted
    heisenberg-quat is the group model on which D_{Z_a} E_b is not zero."""

    @pytest.mark.parametrize("name", [s.name for s in models.catalog()]
                             + ["tilted-heisenberg-quat"])
    def test_entries_are_the_jets_of_the_symbolic_tables(self, name,
                                                          catalog_models):
        if name == "tilted-heisenberg-quat":
            model, scales = tilted_heisenberg_quat(), "heisenberg-quat"
        else:
            model, scales = catalog_models[name], name
        N, kh, K = model.ambient_dim, model.span_h_count, model.span_count
        fb = model.frame_batch(sample_points(model.chart, 3, 14))
        tab = symbolic_tables(model)
        builders = {"bracket": (model.bracket_entry, tab.bracket),
                    "bott": (model.bott_entry, tab.bott),
                    "torsion": (model.torsion_entry, tab.torsion)}
        for eps_rel in ghat_scales(scales):
            builders[eps_rel] = (
                functools.partial(lc_builder, model, eps_rel),
                functools.partial(tab.lc, eps_rel))
        weights = dict(zip("hv", frame_weights(fb)))
        spans = {"h": range(kh), "v": range(kh, K)}
        cache = MonomialCache(fb.points)
        for label, (batch, symbolic) in builders.items():
            for ka, kb in itertools.product("hv", repeat=2):
                jets = batch(fol.Derivatives(fb, 1), ka, kb)
                values = batch(fol.Derivatives(fb, 0), ka, kb)
                assert all(p.order == 1 for p in (jets.h, jets.v) if p), label
                assert all(p.order == 0 for p in (values.h, values.v) if p)
                value, jacobian = field_jets(
                    [symbolic(a, b).total(N) for a in spans[ka]
                     for b in spans[kb]], cache)
                shape = (len(spans[ka]), len(spans[kb]))
                Wa, Wb = weights[ka], weights[kb]
                value = np.einsum("pia,pjb,abpn->ijpn", Wa, Wb,
                                  value.reshape(shape + value.shape[1:]))
                jacobian = np.einsum(
                    "pia,pjb,abpnk->ijpnk", Wa, Wb,
                    jacobian.reshape(shape + jacobian.shape[1:]))
                for got, want in ((part_sum(jets, "value"), value),
                                  (part_sum(jets, "jacobian"), jacobian),
                                  (part_sum(values, "value"), value)):
                    TestJetOracle.assert_close(got + np.zeros_like(want),
                                               want)


def lc_builder(model, eps_rel, D, ka, kb):
    return model.lc_entry(D, eps_rel, ka, kb)


class TestDerivativeTable:
    """The two-index entries of one three-index build are read off one
    derivative table D(a, b) = D_{E_a} E_b per block group, which builds
    each block pair once and is freed by scope: no table is alive after the
    build returns, and no live table holds a block while a formula runs.
    Its zero blocks are found by value."""

    @pytest.mark.parametrize("name", ["quaternionic-hopf-s7",
                                      "heisenberg-quat"])
    @pytest.mark.parametrize("entry", ["nabla_t", "curvature",
                                       "lc_curvature"])
    def test_one_derivative_per_block_pair(self, name, entry, catalog_models,
                                           monkeypatch):
        model = catalog_models[name]
        fb = model.frame_batch(sample_points(model.chart, 3, 17))
        along, derivatives = PointField.along, fol.Derivatives
        counted, tables = [], []

        def count(self, X):
            # a derivative of an order-2 spanning jet that keeps its 1-jet
            if self.order == 2 and min(self.keep, X.keep) >= 1:
                counted.append(self.value.shape)
            return along(self, X)

        class Recorded(derivatives):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tables.append(weakref.ref(self))
        monkeypatch.setattr(PointField, "along", count)
        monkeypatch.setattr(fol, "Derivatives", Recorded)
        every = ("hv",) * 3
        if entry == "lc_curvature":
            model.lc_curvature_entry(fb, 0.25, *every)
        else:
            getattr(model, f"{entry}_entry")(fb, *every)
        assert 0 < len(counted) <= 4, counted
        assert 0 < len(tables) <= 3
        assert all(table() is None for table in tables)

    @pytest.mark.parametrize("name", ["quaternionic-hopf-s7",
                                      "tilted-heisenberg-quat"])
    def test_no_table_holds_a_block_while_a_formula_runs(
            self, name, catalog_models, monkeypatch):
        if name == "tilted-heisenberg-quat":
            model = tilted_heisenberg_quat()
        else:
            model = catalog_models[name]
        fb = model.frame_batch(sample_points(model.chart, 3, 19))
        tables, live = [], []

        class Recorded(fol.Derivatives):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tables.append(weakref.ref(self))
        assemble = fol.FrameBatch.assemble

        def watched(self, blocks, formula, out=None):
            def run(*slots):
                res = formula(*slots)
                alive = [t for t in (table() for table in tables)
                         if t is not None]
                if any(F is not None for t in alive
                       for F in t._jets.values()):
                    live.append(slots)
                return res
            return assemble(self, blocks, run, out)
        monkeypatch.setattr(fol, "Derivatives", Recorded)
        monkeypatch.setattr(fol.FrameBatch, "assemble", watched)
        fol.nabla_t_components(fb)
        fol.curvature_components(fb)
        fol.lc_curvature_ambient(fb, 0.25)
        assert tables and live == []
        assert all(table() is None for table in tables)

    def test_zero_blocks_are_decided_by_value(self, heis_quat):
        # Z_a = d/dz_a and no spanning field depends on z, so every block
        # with a vertical field on either side is exactly zero; the tilt
        # s z_0 d/dx_0 of Z_0 makes the vertical-first blocks nonzero
        for model, zero in ((heis_quat, True), (tilted_heisenberg_quat(),
                                                False)):
            D = fol.Derivatives(
                model.frame_batch(sample_points(model.chart, 3, 18)), 1)
            assert D("h", "h") is not None
            for ka, kb in (("v", "h"), ("v", "v")):
                assert (D(ka, kb) is None) == zero, model.name


class TestSpanPartials:
    """The symbolic table of the exact partials d_j E_a, built in one
    vectorized pass (``geometry.field_partials``), equals the per-call
    partials term for term."""

    @pytest.mark.parametrize("name", [s.name for s in models.catalog()]
                             + ["tilted-heisenberg-quat"])
    def test_table_equals_per_call_partials(self, name, catalog_models):
        if name == "tilted-heisenberg-quat":
            model = tilted_heisenberg_quat()
        else:
            model = catalog_models[name]
        spans = model.horizontal_fields + model.vertical_fields
        table = model.span_partials
        assert len(table) == len(spans) * model.ambient_dim
        for (a, j), D in table.items():
            for got, c in zip(D.components, spans[a].components, strict=True):
                want = c.partial(j)
                assert np.array_equal(got.keys, want.keys)
                assert np.array_equal(got.coeffs, want.coeffs)


class TestJetProjections:
    """pi_H, pi_V and J on order-2 jets at a batch equal the 1-jets of the
    symbolic projections, and the batch never multiplies polynomials."""

    @pytest.mark.parametrize("name", ["quaternionic-hopf-s7", "heisenberg-quat",
                                      "complex-hopf-s3"])
    def test_projections_of_order_two_jets(self, name, catalog_models):
        model = catalog_models[name]
        N = model.ambient_dim
        fb = model.frame_batch(sample_points(model.chart, 4, 15))
        rng = np.random.default_rng(4)
        F = PolyField([from_terms(N, {
            tuple(int(i == k) + int(i == l) for i in range(N)):
                float(rng.integers(-3, 4))
            for k in range(N) for l in range(k, N) if rng.random() < 0.3})
            for _ in range(N)]) + PolyField.constant(rng.integers(-2, 3, N))
        f = order2_jet(F, fb.points, at=fb._fields_at)
        E = fb.fields()
        # the frame fields x_1 and z_0 against their spanning expansions,
        # with the weights frozen at each point
        wh, wv = frame_weights(fb)
        cache = MonomialCache(fb.points)
        expand = lambda W, fields: [np.einsum("pa,ap...->p...", W, part)
                                    for part in field_jets(fields, cache)]
        for got, want in (
                (model.pi_h(f), field_jets([model.pi_h(F)], cache)),
                (model.pi_v(f), field_jets([model.pi_v(F)], cache)),
                (model.pi_h(E(fol.Slot("h", 0, 1)).h[1]),
                 expand(wh[:, 1], [model.pi_h(X)
                                   for X in model.horizontal_fields])),
                (model.j_transform(Split(v=E(fol.Slot("v", 0, 1)).v[:1]),
                                   Split(h=f)).h,
                 expand(wv[:, 0], [model.j_transform(Split(v=Z),
                                                     Split(h=F)).h
                                   for Z in model.vertical_fields]))):
            value, jacobian = (np.squeeze(part) for part in want)
            assert got.order == 1
            TestJetOracle.assert_close(np.squeeze(got.value), value)
            TestJetOracle.assert_close(np.squeeze(got.jacobian), jacobian)

    def test_cubic_spanning_field_is_refused(self, heis):
        x0 = Polynomial.variable(3, 0)
        cubic = PolyField([x0 * x0 * x0] + list(heis.horizontal_fields[0]
                                                .components[1:]))
        with pytest.raises(InvalidModelError) as err:
            fol.FoliationModel("cubic", "group", heis.chart, heis.n, heis.m,
                               1.0, heis.vertical_fields,
                               [cubic, heis.horizontal_fields[1]],
                               generators=heis.generators)
        message = str(err.value)
        assert "\n" not in message and "degree 3" in message

    def test_three_index_entries_multiply_no_polynomial(self, s7, monkeypatch):
        calls = []
        mul = Polynomial.__mul__

        def counted(self, other):
            calls.append(1)
            return mul(self, other)
        monkeypatch.setattr(Polynomial, "__mul__", counted)
        monkeypatch.setattr(Polynomial, "__rmul__", counted)
        assert (Polynomial.variable(2, 0) * 2.0).n_terms == 1 and calls
        calls.clear()
        fb = s7.frame_batch(sample_points(s7.chart, 4, 16))
        every = ("hv",) * 3
        s7.nabla_t_entry(fb, *every)
        s7.curvature_entry(fb, *every)
        s7.lc_curvature_entry(fb, 0.25, *every)
        fol.torsion_components(fb)
        assert calls == []


class TestGhatTable:
    """R^ghat, built only over the vertical first keys."""

    @pytest.mark.parametrize("name", ["quaternionic-hopf-s7",
                                      "heisenberg-quat-mixed"])
    def test_vertical_first_slot_is_a_slice_of_the_full_build(
            self, name, catalog_models):
        model = catalog_models[name]
        pts = sample_points(model.chart, 4, 22)
        n = model.n
        for eps_rel in ghat_scales(name):
            label = f"lc_curvature[{round(eps_rel, 12)}]"
            entry = lambda fb, *blocks: model.lc_curvature_entry(fb, eps_rel,
                                                                 *blocks)
            fb, full = model.frame_batch(pts), model.frame_batch(pts)
            for d2, d3 in itertools.product(DOMAINS, repeat=2):
                got = fol.lc_curvature_ambient(fb, eps_rel, d2, d3)
                comps = fol._contract3(fb, label, entry, "v", d2, d3,
                                       first_only=True)
                want = fol._contract3(full, label, entry, "v", d2, d3)
                assert np.array_equal(comps, want), (d2, d3)
                assert np.array_equal(got, full.ambient(want)), (d2, d3)
            (stored,) = fb._values[label].values()
            assert np.array_equal(stored,
                                  full._values[label][("hv",) * 3][:, n:])


# ---------------------------------------------------------------------------
# the pointwise Lie derivative of the metric against its symbolic route

def lie_residuals(model, points):
    """(L_W g)(F, G) = W(g(F, G)) - g([W, F], G) - g(F, [W, G]) over every
    spanning triple, (P, K, K, K) indexed [p, W, F, G]: the symbolic route
    of the foliation-axioms check before it used 1-jets, each entry built as
    a polynomial (brackets and g(F, G) are shared) and then evaluated."""
    N = model.ambient_dim
    cache = MonomialCache(points)
    spans = span_splits(model)
    fields = [E.total(N) for E in spans]
    K = len(spans)
    brackets = [[model.split(bracket(W, F)) for F in fields] for W in fields]
    out = np.zeros((points.shape[0], K, K, K))
    for f in range(K):
        for g in range(f, K):
            metric = metric_poly(model, spans[f], spans[g])
            for w, W in enumerate(fields):
                lie = (geo.directional_derivative(W, metric)
                       - metric_poly(model, brackets[w][f], spans[g])
                       - metric_poly(model, spans[f], brackets[w][g]))
                out[:, w, f, g] = out[:, w, g, f] = lie.evaluate(points, cache)
    return out


class TestMetricLieDerivatives:
    @pytest.mark.parametrize("name", [s.name for s in models.catalog()])
    def test_every_spanning_triple_matches_symbolic(self, name,
                                                    catalog_models):
        model = catalog_models[name]
        points = sample_points(model.chart, 3, 12)
        want = lie_residuals(model, points)
        # the triples outside the checked (W, F, G) patterns are far from 0
        assert np.abs(want).max() > 0.5
        TestJetOracle.assert_close(
            model.metric_lie_derivatives(MonomialCache(points)), want)


# ---------------------------------------------------------------------------
# the contraction layer against plain einsum

DOMAINS = ("h", "v", "all")


class TestContraction:
    """``FrameBatch.assemble`` contracts each block combination by the
    expansion weights of its blocks and then by the metric-lowered frame;
    that equals one einsum over the spanning-index values with the
    block-diagonal expansion, and _contract3 and _contract2 read read-only
    views of the result."""

    @staticmethod
    def assert_close(got, want):
        assert got.shape == want.shape
        scale = max(1.0, float(np.abs(want).max()))
        assert float(np.abs(got - want).max()) <= 1e-12 * scale

    @pytest.fixture(scope="class", params=["quaternionic-hopf-s7",
                                           "heisenberg-quat-mixed"])
    def batch(self, request, catalog_models):
        model = catalog_models[request.param]
        return model.frame_batch(sample_points(model.chart, 4, 21))

    @pytest.mark.parametrize("table", ["nabla_t", "curvature"])
    def test_contract3_every_slot_domain(self, batch, table):
        entry = getattr(batch.model, f"{table}_entry")
        span = entry(spanning_batch(batch), "hv", "hv", "hv")
        W = expansion(batch)
        want = np.einsum("pia,pjb,pkc,pabcn,pnd->pijkd", W, W, W, span,
                         batch._metric_frame, optimize=True)
        for d1, d2, d3 in itertools.product(DOMAINS, repeat=3):
            got = fol._contract3(batch, table, entry, d1, d2, d3)
            s1, s2, s3 = map(batch.frame_slice, (d1, d2, d3))
            self.assert_close(got, want[:, s1, s2, s3])
            (stored,) = batch._values[table].values()
            assert np.shares_memory(got, stored)
            assert not got.flags.writeable

    def test_contract2_every_slot_domain(self, batch):
        model = batch.model
        span = range(model.span_count)
        tab = symbolic_tables(model)
        vals = np.array([[tab.torsion(a, b).total(model.ambient_dim)
                          .evaluate(batch.points) for b in span]
                         for a in span])
        W = expansion(batch)
        want = np.einsum("pia,pjb,abpn,pnd->pijd", W, W, vals,
                         batch._metric_frame, optimize=True)
        for d1, d2 in itertools.product(DOMAINS, repeat=2):
            got = fol._contract2(batch, "torsion", model.torsion_entry, d1, d2)
            s1, s2 = batch.frame_slice(d1), batch.frame_slice(d2)
            self.assert_close(got, want[:, s1, s2])
            assert not got.flags.writeable

    def test_components_and_ambient_are_inverse(self, batch):
        rng = np.random.default_rng(6)
        P, F = batch.frame.shape[:2]
        comps = rng.standard_normal((P, 3, 2, F))
        amb = batch.ambient(comps)
        self.assert_close(amb, np.einsum("pijd,pdn->pijn", comps,
                                         batch.frame))
        self.assert_close(batch.components(amb), comps)
        self.assert_close(batch.components(amb), np.einsum(
            "pijn,pnd->pijd", amb, batch._metric_frame))

    def test_three_index_is_point_major_and_contiguous(self, batch):
        model = batch.model
        values = model.curvature_entry(batch, "hv", "hv", "hv")
        assert values.shape == (4, *(model.n + model.m,) * 4)
        assert values.flags.c_contiguous and values.flags.owndata


class TestStoredComponents:
    """The batch keeps only frame components, read-only, so that readers
    take views of them."""

    def test_only_frame_components_are_stored(self, catalog_models):
        model = catalog_models["quaternionic-hopf-s11"]
        fb = model.frame_batch(sample_points(model.chart, 8, 24))
        fol.nabla_t_components(fb)
        fol.curvature_components(fb)
        stored = sum(a.nbytes for store in fb._values.values()
                     for a in store.values())
        assert (model.n + model.m, model.span_count,
                model.ambient_dim) == (11, 15, 12)
        assert stored == 2 * 8 * 11 ** 4 * 8

    def test_stored_values_are_read_only(self, heis_quat):
        fb = heis_quat.frame_batch(sample_points(heis_quat.chart, 3, 25))
        view = curvature_components(fb, "h", "all", "all")
        with pytest.raises(ValueError):
            view[0, 0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            torsion_components(fb)[:] = 0.0


class TestPointChunks:
    """Every kept entry is built over chunks of at most POINT_CHUNK points,
    each on a view batch that writes its slice of the kept array."""

    @pytest.mark.parametrize("name", ["heisenberg-quat-mixed",
                                      "quaternionic-hopf-s7"])
    def test_chunks_equal_separate_batches(self, name, catalog_models):
        # the last chunk is partial; each chunk's values are those of a
        # batch over its points alone, bit for bit
        model = catalog_models[name]
        pts = sample_points(model.chart, 2 * fol.POINT_CHUNK + 3, 26)
        readers = (torsion_components, fol.nabla_t_components,
                   curvature_components,
                   lambda fb: fol.lc_curvature_ambient(fb, 0.25))
        fb = model.frame_batch(pts)
        chunks = fol.point_chunks(len(pts))
        assert [c.stop - c.start for c in chunks] == [fol.POINT_CHUNK,
                                                      fol.POINT_CHUNK, 3]
        for read in readers:
            whole = read(fb)
            for c in chunks:
                np.testing.assert_array_equal(
                    whole[c], read(model.frame_batch(pts[c])))

    @pytest.mark.parametrize("name, read", [
        ("quaternionic-hopf-s7", curvature_components),
        ("heisenberg-oct", curvature_components),
        ("quaternionic-hopf-s11", fol.nabla_t_components)],
        ids=["quaternionic-hopf-s7", "heisenberg-oct", "quaternionic-hopf-s11"])
    def test_transient_scales_with_the_chunk(self, name, read,
                                             catalog_models):
        # the traced peak of a build above its kept array, on a batch whose
        # fields are evaluated: at 4 chunks of points it stays near that of
        # one chunk (it grew about 4x when one build ran over the whole
        # sample).  The frame Hessians of the sphere's horizontal block are
        # formed per chunk, so they are part of the transient.
        model = catalog_models[name]

        def transient(points):
            fb = model.frame_batch(sample_points(model.chart, points, 27))
            torsion_components(fb)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                kept = read(fb).base.nbytes
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - base - kept
        one, four = transient(fol.POINT_CHUNK), transient(4 * fol.POINT_CHUNK)
        assert 0 < four <= 1.5 * one, (one, four)

    @pytest.mark.parametrize("name", ["heisenberg", "heisenberg-quat",
                                      "heisenberg-quat-mixed",
                                      "heisenberg-oct"])
    def test_group_nabla_t_and_curvature_are_exactly_zero(
            self, name, catalog_models):
        # on a two-step group with left-invariant frames the torsion is
        # parallel and the Bott connection flat, so every component is an
        # exact 0.0 after a build over several chunks
        model = catalog_models[name]
        fb = model.frame_batch(sample_points(model.chart, 128, 28))
        assert 128 > fol.POINT_CHUNK
        assert not fol.nabla_t_components(fb).any()
        assert not curvature_components(fb).any()


class TestSingleEvaluation:
    """Each spanning field and the coframe are evaluated once per point
    batch, by ``FoliationModel.jets``: the frame is built from the values
    that the jets carry, and no check evaluates a polynomial again."""

    @pytest.mark.parametrize("name", ["quaternionic-hopf-s7",
                                      "heisenberg-quat"])
    def test_gram_schmidt_reads_the_jet_values(self, name, monkeypatch):
        model = models.get_model(name)
        seen, evaluated = [], []
        raw, raw_jets = fol.gram_schmidt_at, fol.FoliationModel.jets

        def record(vectors, *args, **kwargs):
            seen.append(np.array(vectors))
            return raw(vectors, *args, **kwargs)

        def jets(self, cache):
            evaluated.append(raw_jets(self, cache))
            return evaluated[-1]
        monkeypatch.setattr(fol, "gram_schmidt_at", record)
        monkeypatch.setattr(fol.FoliationModel, "jets", jets)
        model.frame_batch(sample_points(model.chart, 8, 4))
        assert len(evaluated) == 1 and len(seen) == 2
        kh, K = model.span_h_count, model.span_count
        values = evaluated[0][0]
        want = [values[:kh].swapaxes(0, 1), values[kh:K].swapaxes(0, 1)]
        by_size = lambda a: a.shape[1]
        for got, jet in zip(sorted(seen, key=by_size),
                            sorted(want, key=by_size)):
            assert np.array_equal(got, jet)

    @pytest.mark.parametrize("name", ["quaternionic-hopf-s7",
                                      "heisenberg-quat"])
    def test_checks_evaluate_no_polynomial(self, name, monkeypatch):
        spec = models.get_spec(name)
        model = models.build(spec)
        seen = []
        for owner in (Polynomial, PolyField):
            raw = owner.evaluate

            def evaluate(self, *args, _raw=raw, **kwargs):
                seen.append(type(self).__name__)
                return _raw(self, *args, **kwargs)
            monkeypatch.setattr(owner, "evaluate", evaluate)
        rows = cli.run_checks(model, cli.DEFAULT_CHECKS,
                              cli.RunConfig(points=8, heavy_points=8),
                              spec.expected_class, spec.expected_kappa)
        assert {row["status"] for row in rows} <= {"pass", "skipped"}
        assert seen == []
