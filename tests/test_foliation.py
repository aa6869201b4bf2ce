import inspect
import itertools

import numpy as np
import pytest

from htfoliation import checks
from htfoliation import foliation as fol
from htfoliation import geometry as geo
from htfoliation import models
from htfoliation.checks import frame_batch_for
from htfoliation.errors import DegenerateFrameError
from htfoliation.foliation import (Split, curvature_components,
                                   j_endomorphisms, torsion_components)
from htfoliation.geometry import (MonomialCache, Polynomial, PolyField, bracket,
                                  sample_points)
from symbolic_oracles import metric_poly


def span_splits(model):
    return [model.span_split(i) for i in range(model.span_count)]


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


# ---------------------------------------------------------------------------
# the three-index entries against their symbolic composition

def symbolic_nabla_t(model, d, a, b):
    E = model.span_split
    return (model.bott_split(E(d), model.torsion_entry(a, b))
            - model.torsion_transform(model.bott_entry(d, a), E(b))
            - model.torsion_transform(E(a), model.bott_entry(d, b)))


def symbolic_curvature(model, a, b, c):
    E = model.span_split
    return (model.bott_split(E(a), model.bott_entry(b, c))
            - model.bott_split(E(b), model.bott_entry(a, c))
            - model.bott_split(model.bracket_split_entry(a, b), E(c)))


def symbolic_lc_curvature(model, total_eps, a, b, c):
    E = model.span_split
    eps_rel = total_eps / model.epsilon
    lc = lambda i, j: model.lc_entry(total_eps, i, j)
    return (model.lc_variation_split(E(a), lc(b, c), eps_rel)
            - model.lc_variation_split(E(b), lc(a, c), eps_rel)
            - model.lc_variation_split(model.bracket_split_entry(a, b), E(c),
                                       eps_rel))


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


class TestJetOracle:
    """The batched three-index entries, computed from 1-jets of the two-index
    tables, reproduce the symbolic composition evaluated at the points."""

    @staticmethod
    def assert_close(got, want):
        scale = max(1.0, float(np.abs(want).max()))
        assert float(np.abs(got - want).max()) <= 1e-12 * scale

    @pytest.mark.parametrize("name", [s.name for s in models.catalog()])
    def test_entries_match_symbolic_composition(self, name, catalog_models):
        model = catalog_models[name]
        fb = model.frame_batch(sample_points(model.chart, 3, 12))
        span = range(model.span_count)
        batched = {"nabla_t": model.nabla_t_entry(fb, span, span, span),
                   "curvature": model.curvature_entry(fb, span, span, span)}
        symbolic = {"nabla_t": lambda *k: symbolic_nabla_t(model, *k),
                    "curvature": lambda *k: symbolic_curvature(model, *k)}
        for eps_rel in ghat_scales(name):
            total = model.epsilon * eps_rel
            batched[eps_rel] = model.lc_curvature_entry(fb, total, span, span,
                                                        span)
            symbolic[eps_rel] = (lambda t: lambda *k: symbolic_lc_curvature(
                model, t, *k))(total)
        for label, values in batched.items():
            assert values.shape == (3, *(model.span_count,) * 3,
                                    model.ambient_dim)
            for key in oracle_keys(model):
                want = symbolic[label](*key).evaluate(fb.points, fb.mono)
                self.assert_close(values[(slice(None),) + key], want)

    def test_key_ranges_in_any_order(self, s7):
        # a sub-range with horizontal and vertical keys out of order is the
        # matching slice of the full-range result
        fb = s7.frame_batch(sample_points(s7.chart, 2, 13))
        span = range(s7.span_count)
        full = s7.curvature_entry(fb, span, span, span)
        keys = ([9, 0, 7], [3, 10], [8, 1, 2, 9])
        part = s7.curvature_entry(fb, *keys)
        np.testing.assert_array_equal(part, full[:, keys[0]][:, :, keys[1]]
                                      [:, :, :, keys[2]])


class TestGhatTable:
    """The rescaled Levi-Civita table, read from the connection and torsion
    tables, and R^ghat, built only over the vertical first keys."""

    @staticmethod
    def assert_same(got, want):
        for g, w in ((got.h, want.h), (got.v, want.v)):
            assert (g is None) == (w is None)
            if g is not None:
                for a, b in zip(g.components, w.components):
                    np.testing.assert_array_equal(a.keys, b.keys)
                    np.testing.assert_array_equal(a.coeffs, b.coeffs)

    @pytest.mark.parametrize("name", [s.name for s in models.catalog()])
    def test_lc_entry_is_the_variation_formula(self, name, catalog_models):
        # keys over every (horizontal | vertical) pair of slots
        model = catalog_models[name]
        kh, K = model.span_h_count, model.span_count
        picks = sorted({0, kh // 2, kh - 1, kh, K - 1})
        for eps_rel in ghat_scales(name):
            for a, b in itertools.product(picks, repeat=2):
                self.assert_same(
                    model.lc_entry(model.epsilon * eps_rel, a, b),
                    model.lc_variation_split(model.span_split(a),
                                             model.span_split(b), eps_rel))

    @pytest.mark.parametrize("name", ["quaternionic-hopf-s7",
                                      "heisenberg-quat-mixed"])
    def test_vertical_first_slot_is_a_slice_of_the_full_build(
            self, name, catalog_models):
        model = catalog_models[name]
        pts = sample_points(model.chart, 4, 22)
        kh, span = model.span_h_count, tuple(range(model.span_count))
        for eps_rel in ghat_scales(name):
            total = model.epsilon * eps_rel
            label = f"lc_curvature[{round(total, 12)}]"
            entry = lambda fb, *keys: model.lc_curvature_entry(fb, total, *keys)
            fb, full = model.frame_batch(pts), model.frame_batch(pts)
            for d2, d3 in itertools.product(DOMAINS, repeat=2):
                got = fol.lc_curvature_ambient(fb, eps_rel, d2, d3)
                want = fol._contract3(full, label, entry, "v", d2, d3)
                assert np.array_equal(got, want), (d2, d3)
            (stored,) = fb._values[label].values()
            assert np.array_equal(stored,
                                  full._values[label][(span,) * 3][:, kh:])


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
    """_contract3, _contract2 and components, which run as chains of batched
    matmuls, agree with one einsum over the same stored values."""

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
        span = tuple(range(batch.model.span_count))
        for d1, d2, d3 in itertools.product(DOMAINS, repeat=3):
            got = fol._contract3(batch, table, entry, d1, d2, d3)
            vals = batch._values[table][(span,) * 3]
            (s1, W1), (s2, W2), (s3, W3) = map(batch.slot, (d1, d2, d3))
            want = np.einsum("pia,pjb,pkc,pabcn->pijkn", W1, W2, W3,
                             vals[:, s1, s2, s3])
            self.assert_close(got, want)
            self.assert_close(batch.components(got), np.einsum(
                "pijkn,pnd->pijkd", got, batch._metric_frame))

    def test_contract2_every_slot_domain(self, batch):
        model = batch.model
        span = range(model.span_count)
        for d1, d2 in itertools.product(DOMAINS, repeat=2):
            got = fol._contract2(batch, "torsion", model.torsion_entry, d1, d2,
                                 antisym=(0, 1))
            (s1, W1), (s2, W2) = batch.slot(d1), batch.slot(d2)
            vals = np.array([[model.torsion_entry(a, b).evaluate(batch.points)
                              for b in span[s2]] for a in span[s1]])
            want = np.einsum("pia,pjb,abpn->pijn", W1, W2, vals)
            self.assert_close(got, want)
            self.assert_close(batch.components(got), np.einsum(
                "pijn,pnd->pijd", got, batch._metric_frame))

    def test_three_index_is_point_major_and_contiguous(self, batch):
        model = batch.model
        span = range(model.span_count)
        values = model.curvature_entry(batch, span, span, span)
        assert values.shape == (4, *(model.span_count,) * 3,
                                model.ambient_dim)
        assert values.flags.c_contiguous and values.flags.owndata
