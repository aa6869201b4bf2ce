import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htfoliation import geometry as geo
from htfoliation.errors import DimensionMismatchError
from htfoliation.geometry import (AmbientChart, EUCLIDEAN, MonomialCache,
                                  Polynomial, PolyField, UNIT_SPHERE, bracket,
                                  directional_derivative, field_jets,
                                  gram_schmidt_at, sample_points)
from symbolic_oracles import (euclidean_gradient, from_terms, order2_jet,
                              sphere_moment, terms_dict)


def rand_field(n, degree, rng, density=0.4):
    """Random polynomial field with small integer coefficients (arithmetic
    on them is exact, so algebraic identities must cancel to literal zero)."""
    comps = []
    for _ in range(n):
        terms = {}
        for exps in itertools.product(range(degree + 1), repeat=n):
            if sum(exps) <= degree and rng.random() < density:
                terms[exps] = float(rng.integers(-3, 4))
        comps.append(from_terms(n, terms))
    return PolyField(comps)


class TestPolynomial:
    def test_arithmetic_and_canonical_form(self):
        x = Polynomial.variable(3, 0)
        y = Polynomial.variable(3, 1)
        f = x * x + 2 * y
        assert f.n_terms == 2
        assert (f - f).is_zero          # exact cancellation, no stored zeros
        assert f.degree() == 2
        assert (f * f).degree() == 4

    def test_partial(self):
        x = Polynomial.variable(2, 0)
        f = x * x * x
        assert terms_dict(f.partial(0)) == {(2, 0): 3.0}
        assert f.partial(1).is_zero

    def test_evaluate_matches_direct(self):
        rng = np.random.default_rng(0)
        f = rand_field(3, 3, rng).components[0]
        pts = rng.uniform(-1, 1, size=(5, 3))
        expected = np.array([
            sum(c * np.prod(p ** np.array(e)) for e, c in terms_dict(f).items())
            for p in pts])
        np.testing.assert_allclose(f.evaluate(pts), expected, atol=1e-12)

    def test_shared_cache(self):
        rng = np.random.default_rng(1)
        f = rand_field(4, 2, rng).components[0]
        pts = rng.uniform(-1, 1, size=(6, 4))
        cache = MonomialCache(pts)
        np.testing.assert_array_equal(f.evaluate(pts, cache), f.evaluate(pts))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Polynomial.variable(2, 0) * Polynomial.variable(3, 0)

    def test_packing_overflow_guard(self):
        x = Polynomial.variable(16, 0)
        f = x
        with pytest.raises(OverflowError):
            for _ in range(20):
                f = f * x


class TestDerivatives:
    def test_directional_derivative_examples(self):
        x1 = Polynomial.variable(2, 0)
        x2 = Polynomial.variable(2, 1)
        d1 = PolyField.basis(2, 0)
        assert terms_dict(directional_derivative(d1, x1 * x1)) == {(1, 0): 2.0}
        X = PolyField([Polynomial.zero(2), x1])   # x1 d/dx2
        assert terms_dict(directional_derivative(X, x2)) == {(1, 0): 1.0}

    def test_bracket_examples(self):
        d1 = PolyField.basis(3, 0)
        d2 = PolyField.basis(3, 1)
        assert bracket(d1, d2).is_zero()
        x, y = Polynomial.variable(3, 0), Polynomial.variable(3, 1)
        X = PolyField([Polynomial.constant(3, 1), Polynomial.zero(3), -0.5 * y])
        Y = PolyField([Polynomial.zero(3), Polynomial.constant(3, 1), 0.5 * x])
        br = bracket(X, Y)
        assert br.components[0].is_zero and br.components[1].is_zero
        assert terms_dict(br.components[2]) == {(0, 0, 0): 1.0}
        assert bracket(X, X).is_zero()

    def test_jacobi_identity_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            X, Y, Z = (rand_field(4, 2, rng) for _ in range(3))
            jac = (bracket(bracket(X, Y), Z) + bracket(bracket(Y, Z), X)
                   + bracket(bracket(Z, X), Y))
            assert jac.is_zero()


def one(*vectors):
    """A batch of one point holding ``vectors``: (1, k, N)."""
    return np.array(vectors, dtype=np.float64)[None]


def gram_schmidt_loop(vectors, G, tol=1e-10):
    """Modified Gram-Schmidt at one point, skipping dependent vectors: the
    basis, the expansion rows and the kept indices."""
    basis, rows, kept = [], [], []
    for j, v in enumerate(vectors):
        w, row = v.copy(), np.eye(len(vectors))[j]
        for b, brow in zip(basis, rows):
            proj = b @ G @ w
            w, row = w - proj * b, row - proj * brow
        norm2 = w @ G @ w
        if norm2 > tol ** 2 * max(v @ G @ v, 1.0):
            basis.append(w / math.sqrt(norm2))
            rows.append(row / math.sqrt(norm2))
            kept.append(j)
    return basis, rows, kept


class TestGramSchmidt:
    def test_textbook_examples(self):
        basis, _, _ = gram_schmidt_at(one([1.0, 0.0], [0.0, 2.0]), np.eye(2))
        np.testing.assert_allclose(basis[0], [[1, 0], [0, 1]], atol=1e-15)
        basis, _, _ = gram_schmidt_at(one([1.0, 1.0], [1.0, 0.0]), np.eye(2))
        r = 1 / np.sqrt(2)
        np.testing.assert_allclose(basis[0], [[r, r], [r, -r]], atol=1e-15)

    def test_degenerate_vector_is_skipped(self):
        basis, W, kept = gram_schmidt_at(one([1.0, 1.0], [1.0, 1.0 + 1e-14]),
                                         np.eye(2))
        assert kept.tolist() == [[True, False]]
        assert not basis[0, 1].any() and not W[0, 1].any()

    def test_custom_metric_and_coefficients(self):
        G = np.diag([4.0, 1.0])
        V = one([1.0, 0.0], [1.0, 1.0])
        basis, W, kept = gram_schmidt_at(V, metric=G)
        assert kept.tolist() == [[True, True]]
        for i, b in enumerate(basis[0]):
            np.testing.assert_allclose(b @ G @ b, 1.0, atol=1e-14)
            np.testing.assert_allclose(b, W[0, i] @ V[0], atol=1e-14)

    def test_batch_matches_a_loop_over_points(self):
        # in R^4, vector 2 is dependent on vectors 0 and 1 at the even
        # points, and vector 3 on vectors 0 and 2 at points 1 and 2; the last
        # vector is kept only where one of the others was dropped, so the
        # kept subsets are {0,1,3,4}, {0,1,2,4}, {0,1,4} and {0,1,2,3}
        rng = np.random.default_rng(5)
        P, N = 6, 4
        V = rng.standard_normal((P, 5, N))
        V[::2, 2] = 0.5 * V[::2, 0] - 2.0 * V[::2, 1]
        V[1:3, 3] = V[1:3, 0] + 0.25 * V[1:3, 2]
        A = rng.standard_normal((P, N, N))
        G = A @ A.transpose(0, 2, 1) + N * np.eye(N)
        basis, W, kept = gram_schmidt_at(V, metric=G)
        assert kept[0].tolist() == [True, True, False, True, True]
        assert len({tuple(row) for row in kept.tolist()}) == 4
        for p in range(P):
            want_basis, want_rows, want_kept = gram_schmidt_loop(V[p], G[p])
            assert np.flatnonzero(kept[p]).tolist() == want_kept
            assert not basis[p, ~kept[p]].any() and not W[p, ~kept[p]].any()
            np.testing.assert_allclose(basis[p, kept[p]], want_basis,
                                       rtol=0, atol=1e-14)
            np.testing.assert_allclose(W[p, kept[p]], want_rows, rtol=0,
                                       atol=1e-14)


class TestSphereMoments:
    def test_examples(self):
        assert sphere_moment(4, (1, 0, 0, 0)) == 0.0
        assert sphere_moment(4, (2, 0, 0, 0)) == 0.25
        assert sphere_moment(2, (2, 2)) == 0.125
        assert sphere_moment(2, (4, 0)) == 0.375

    def test_circle_quadrature_oracle(self):
        # the N = 2 moments against a plain trapezoid integration of
        # cos^a sin^b over the circle
        theta = np.linspace(0.0, 2 * np.pi, 20001)
        for alpha in ((2, 2), (4, 0), (2, 0), (4, 2)):
            vals = np.cos(theta) ** alpha[0] * np.sin(theta) ** alpha[1]
            numeric = np.trapezoid(vals, theta) / (2 * np.pi)
            np.testing.assert_allclose(sphere_moment(2, alpha), numeric,
                                       atol=1e-7)

    def test_norm_recursion(self):
        # multiplying by ||x||^2 = 1 on the sphere: sum_i m(alpha + 2 e_i) = m(alpha)
        for n_vars, alpha in [(3, (0, 0, 0)), (4, (2, 0, 1, 0)), (5, (2, 2, 0, 0, 0))]:
            total = sum(sphere_moment(n_vars, tuple(
                a + (2 if i == j else 0) for j, a in enumerate(alpha)))
                for i in range(n_vars))
            np.testing.assert_allclose(total, sphere_moment(n_vars, alpha),
                                       atol=1e-15)

    def test_integrate_polynomial(self):
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        val = geo.integrate_sphere(x * x * y * y)
        np.testing.assert_allclose(val, 0.125, atol=1e-15)


class TestSampling:
    def test_sphere_points_unit_norm(self):
        pts = sample_points(AmbientChart(UNIT_SPHERE, 8), 4, 1)
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() <= 1e-15

    def test_deterministic(self):
        chart = AmbientChart(UNIT_SPHERE, 5)
        np.testing.assert_array_equal(sample_points(chart, 6, 9),
                                      sample_points(chart, 6, 9))

    def test_euclidean_box(self):
        pts = sample_points(AmbientChart(EUCLIDEAN, 4), 4, 1)
        assert pts.shape == (4, 4)
        assert np.abs(pts).max() <= 1.0


@st.composite
def dyadic_fields(draw, n_vars=st.integers(1, 5)):
    """Fields with dyadic coefficients k/8 and at most six terms per
    component; exponents up to the packing cap at N = 16 (3 bits)."""
    n = draw(n_vars)
    top = 7 if n == 16 else 3
    exps = st.tuples(*[st.integers(0, top)] * n)
    coeff = st.integers(-16, 16).map(lambda k: k / 8)
    return PolyField([
        from_terms(n, draw(st.dictionaries(exps, coeff, max_size=6)))
        for _ in range(n)])


@st.composite
def dyadic_polys(draw, n_vars: int, count: int = 1):
    """``count`` polynomials in ``n_vars`` variables with dyadic coefficients
    k/8 and at most six terms; exponents up to 3, up to the packing cap 7
    at N = 16.  Sums and products of a few of them are exact."""
    top = 7 if n_vars == 16 else 3
    exps = st.tuples(*[st.integers(0, top)] * n_vars)
    coeff = st.integers(-16, 16).map(lambda k: k / 8)
    return [from_terms(n_vars, draw(st.dictionaries(exps, coeff, max_size=6)))
            for _ in range(count)]


def poly_triples():
    return st.integers(1, 4).flatmap(lambda n: dyadic_polys(n, 3))


def assert_same(p, q):
    np.testing.assert_array_equal(p.keys, q.keys)
    np.testing.assert_array_equal(p.coeffs, q.coeffs)


class TestPolynomialProperties:
    @settings(max_examples=60, deadline=None)
    @given(poly_triples())
    def test_ring_laws(self, polys):
        p, q, r = polys
        n = p.n_vars
        one, zero = Polynomial.constant(n, 1.0), Polynomial.zero(n)
        assert_same(p + q, q + p)
        assert_same((p + q) + r, p + (q + r))
        assert_same(p * q, q * p)
        assert_same((p * q) * r, p * (q * r))
        assert_same(p * (q + r), p * q + p * r)
        assert_same(p * one, p)
        assert_same(p + zero, p)
        assert (p - p).is_zero and (p * zero).is_zero

    @settings(max_examples=60, deadline=None)
    @given(poly_triples())
    def test_leibniz_rule(self, polys):
        p, q, _ = polys
        for i in range(p.n_vars):
            assert_same((p * q).partial(i),
                        p.partial(i) * q + p * q.partial(i))

    @settings(max_examples=60, deadline=None)
    @given(poly_triples())
    def test_partials_commute_on_products(self, polys):
        f = polys[0] * polys[1]
        for i, j in itertools.product(range(f.n_vars), repeat=2):
            assert_same(f.partial(i).partial(j), f.partial(j).partial(i))

    @settings(max_examples=60, deadline=None)
    @given(poly_triples(), st.integers(0, 2 ** 16))
    def test_evaluate_matches_naive(self, polys, seed):
        f = polys[0] * polys[1] + polys[2]
        pts = np.random.default_rng(seed).uniform(-1, 1, size=(3, f.n_vars))
        want = [sum(c * math.prod(float(x) ** e for x, e in zip(pt, exps))
                    for exps, c in terms_dict(f).items()) for pt in pts]
        np.testing.assert_allclose(f.evaluate(pts), want, rtol=1e-12,
                                   atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 3, 12, 16]).flatmap(dyadic_polys))
    def test_packed_keys_round_trip(self, polys):
        # the exponent moves of the spectra work on packed keys directly
        (f,) = polys
        shifts, mask = geo.exponent_shifts(f.n_vars)
        exps = f.exponents()
        assert exps.max(initial=0) <= mask
        np.testing.assert_array_equal((exps << shifts).sum(axis=1), f.keys)
        assert_same(from_terms(f.n_vars, terms_dict(f)), f)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 15), st.integers(0, 7), st.integers(0, 7))
    def test_packing_edge_overflow(self, i, a, b):
        # N = 16 packs 3 bits per variable: x_i^a x_i^b past degree 7 must
        # raise instead of carrying into the next variable's field
        power = lambda e: from_terms(
            16, {tuple(e if v == i else 0 for v in range(16)): 1.0})
        if a + b > 7:
            with pytest.raises(OverflowError):
                power(a) * power(b)
        else:
            assert terms_dict(power(a) * power(b)) == terms_dict(power(a + b))


def jet(F, pts):
    return order2_jet(F, pts, order=1)


def assert_jet_matches_partials(F, pts):
    values, jacobian = jet(F, pts)
    P, N = pts.shape
    assert values.shape == (P, N) and jacobian.shape == (P, N, N)
    for i, c in enumerate(F.components):
        np.testing.assert_allclose(values[:, i], c.evaluate(pts),
                                   rtol=1e-12, atol=1e-12)
        for j in range(N):
            np.testing.assert_allclose(jacobian[:, i, j],
                                       c.partial(j).evaluate(pts),
                                       rtol=1e-12, atol=1e-12)


class TestJets:
    @settings(max_examples=40, deadline=None)
    @given(dyadic_fields(), st.integers(1, 5), st.integers(0, 2 ** 16))
    def test_jet_is_values_and_partials(self, F, P, seed):
        pts = np.random.default_rng(seed).uniform(-1, 1, size=(P, F.n_vars))
        assert_jet_matches_partials(F, pts)

    @settings(max_examples=10, deadline=None)
    @given(dyadic_fields(n_vars=st.just(16)), st.integers(0, 2 ** 16))
    def test_packing_edge(self, F, seed):
        pts = np.random.default_rng(seed).uniform(-1, 1, size=(3, 16))
        assert_jet_matches_partials(F, pts)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 16).flatmap(lambda n: st.lists(
        dyadic_fields(n_vars=st.just(n)), min_size=1, max_size=3)))
    def test_bulk_partials_equal_per_call_partials(self, fields):
        parts = geo.field_partials(fields)
        for F, row in zip(fields, parts, strict=True):
            for j, D in enumerate(row):
                for got, c in zip(D.components, F.components, strict=True):
                    want = c.partial(j)
                    assert np.array_equal(got.keys, want.keys)
                    assert np.array_equal(got.coeffs, want.coeffs)

    @pytest.mark.parametrize("n", [1, 7, 16])
    def test_zero_and_constant_fields(self, n):
        pts = np.random.default_rng(n).uniform(-1, 1, size=(4, n))
        values, jacobian = jet(PolyField.zero(n), pts)
        assert not values.any() and not jacobian.any()
        vec = np.arange(1.0, n + 1.0) / 4
        values, jacobian = jet(PolyField.constant(vec), pts)
        np.testing.assert_array_equal(values, np.broadcast_to(vec, (4, n)))
        assert not jacobian.any()


# ---------------------------------------------------------------------------
# truncated Taylor arithmetic on point jets


def assert_jets_equal(got, want_field, pts, order):
    """``got`` has the given order and the jet of the symbolic field to it
    (the Hessian only for fields of degree <= 2)."""
    assert got.order == order
    want = order2_jet(want_field, pts)
    for g, w in ((got.value, want.value), (got.jacobian, want.jacobian),
                 (got.hessian, want.hessian))[:order + 1]:
        scale = max(1.0, float(np.abs(w).max()))
        assert float(np.abs(np.broadcast_to(g, w.shape) - w).max()) \
            <= 1e-12 * scale


class TestTaylorArithmetic:
    """PointField arithmetic on order-2 jets of degree-2 fields equals the
    jets of the symbolic results, truncated to the documented order."""

    @pytest.fixture(params=[0, 1, 2])
    def fields(self, request):
        rng = np.random.default_rng(request.param)
        pts = rng.uniform(-1, 1, size=(5, 4))
        return [rand_field(4, 2, rng, density=0.6) for _ in range(3)], pts

    def test_linear_maps_keep_order_two(self, fields):
        (F, G, _), pts = fields
        A = np.arange(16.0).reshape(4, 4) / 8 - 1
        f, g = order2_jet(F, pts), order2_jet(G, pts)
        assert_jets_equal(f + g, F + G, pts, 2)
        assert_jets_equal(f - g.scale(0.5), F - G.scale(0.5), pts, 2)
        assert_jets_equal(f.apply_matrix(A), F.apply_matrix(A), pts, 2)

    def test_products_follow_leibniz(self, fields):
        (F, G, H), pts = fields
        f, g, h = (order2_jet(X, pts) for X in (F, G, H))
        product = f.dot(g)
        poly = F.dot(G)
        np.testing.assert_allclose(product.value, poly.evaluate(pts),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            product.gradient, euclidean_gradient(poly).evaluate(pts),
            rtol=1e-12, atol=1e-12)
        jets = field_jets([H.scale(poly)], MonomialCache(pts))
        got = h.scale(product)
        assert got.order == 1
        for g_part, w in ((got.value, jets[0][0]), (got.jacobian, jets[1][0])):
            np.testing.assert_allclose(g_part, w, rtol=1e-12, atol=1e-11)

    def test_along_lowers_the_order(self, fields):
        (F, X, _), pts = fields
        got = order2_jet(F, pts).along(order2_jet(X, pts))
        jets = field_jets([directional_derivative(X, F)], MonomialCache(pts))
        assert got.order == 1
        np.testing.assert_allclose(got.value, jets[0][0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got.jacobian, jets[1][0], rtol=1e-12,
                                   atol=1e-12)
        assert got.along(order2_jet(X, pts)).order == 0
        with pytest.raises(ValueError):
            got.along(order2_jet(X, pts)).along(order2_jet(X, pts))

    def test_pointwise_matrix_uses_its_jet(self, fields):
        # A(x) = G(x) H(x)^T, known to order 1, applied to F
        (F, G, H), pts = fields
        g, h = jet(G, pts), jet(H, pts)
        A = np.einsum("pi,pj->pij", g[0], h[0])
        dA = (np.einsum("pik,pj->pikj", g[1], h[0])
              + np.einsum("pi,pjk->pikj", g[0], h[1]))
        got = order2_jet(F, pts).apply_matrix(A, dA)
        jets = field_jets([G.scale(H.dot(F))], MonomialCache(pts))
        assert got.order == 1
        np.testing.assert_allclose(got.value, jets[0][0], rtol=1e-12, atol=1e-11)
        np.testing.assert_allclose(got.jacobian, jets[1][0], rtol=1e-12,
                                   atol=1e-11)

    def test_keep_truncates_results_not_inputs(self, fields):
        (F, G, _), pts = fields
        f, g = order2_jet(F, pts, keep=0), order2_jet(G, pts)
        for got in (f + g, f.along(g), g.along(f), f.scale(f.dot(g))):
            assert got.order == 0 and got.keep == 0
        full = order2_jet(F, pts).along(g)
        np.testing.assert_array_equal(f.along(g).value, full.value)
        assert (-f).order == 2          # constant linear maps keep every part

    def test_vanishing_hessian_as_zero(self, fields):
        # a field of degree <= 1 may carry its Hessian as the scalar 0.0:
        # every operation gives what the stored zero Hessian gives
        (F, G, _), pts = fields
        linear = PolyField([from_terms(4, {e: c for e, c in
                                           terms_dict(comp).items()
                                           if sum(e) <= 1})
                            for comp in F.components])
        full = order2_jet(linear, pts)
        assert not full.hessian.any()
        bare = geo.PointField(full.value, full.jacobian, 0.0)
        g = order2_jet(G, pts)
        A = np.arange(16.0).reshape(4, 4) / 8 - 1
        for got, want in ((bare.along(g), full.along(g)),
                          (bare + g, full + g), (-bare, -full),
                          (bare.apply_matrix(A), full.apply_matrix(A)),
                          (bare[1:], full[1:])):
            assert got.order == want.order
            for a, b in zip((got.value, got.jacobian, got.hessian),
                            (want.value, want.jacobian, want.hessian)):
                if b is None:
                    assert a is None
                    continue
                np.testing.assert_allclose(np.broadcast_to(a, np.shape(b)),
                                           b, rtol=1e-13, atol=1e-13)

    def test_leading_axes_broadcast(self, fields):
        # a column of fields along a row of directions: the Hessian term of
        # along runs as one matmul over every pair
        (F, G, H), pts = fields
        stack = lambda fs: geo.PointField(
            *(np.stack([getattr(order2_jet(X, pts), a) for X in fs])
              for a in ("value", "jacobian", "hessian")))
        fs, xs = stack([F, G])[:, None], stack([G, H, F])[None, :]
        got = fs.along(xs)
        assert got.value.shape == (2, 3, 5, 4)
        for i, X in enumerate([F, G]):
            for j, Y in enumerate([G, H, F]):
                want = order2_jet(X, pts).along(order2_jet(Y, pts))
                np.testing.assert_allclose(got.jacobian[i, j], want.jacobian,
                                           rtol=1e-13, atol=1e-13)
        # fields paired with directions entry by entry take the plain route
        pairs = stack([F, G]).along(stack([G, H]))
        for i, (X, Y) in enumerate([(F, G), (G, H)]):
            want = order2_jet(X, pts).along(order2_jet(Y, pts))
            np.testing.assert_allclose(pairs.jacobian[i], want.jacobian,
                                       rtol=1e-13, atol=1e-13)


class TestPointwise:
    """``_pointwise``, the one per-point product behind ``apply_matrix`` and
    ``along`` on jets, equals the broadcast matrix-vector product, with
    contiguous row blocks."""

    @pytest.mark.parametrize("lt, pt, lx", [
        ((), 5, (3, 2)),          # a pointwise matrix with no leading axes
        ((), 5, ()),
        ((2, 1), 1, (1, 3)),      # constant Hessians (P = 1), both orders
        ((1, 3), 1, (2, 1)),
        ((), 1, ()),
        ((2, 1), 5, (1, 3)),      # per-point matrices, both orders
        ((1, 3), 5, (2, 1)),
        ((1, 3), 5, (2, 3)),      # a shared leading axis: the fallback
    ], ids=["matrix-over-fields", "matrix-one-field", "constant-T-first",
            "constant-x-first", "constant-one-field", "per-point-T-first",
            "per-point-x-first", "shared-axis-fallback"])
    def test_matches_broadcast_matvec(self, lt, pt, lx):
        rng = np.random.default_rng(10)
        P, N = 5, 4
        T = rng.standard_normal(lt + (pt, N * N, N))
        x = rng.standard_normal(lx + (P, N))
        got = geo._pointwise(T, x)
        want = (T @ x[..., None])[..., 0]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
        assert got.shape == tuple(np.broadcast_shapes(lt, lx)) + (P, N * N)
        assert got.strides[-1] == 8


def support_of(value, jacobian, hessian=None):
    """The Support of a jet read off its arrays: the coordinates of its
    nonzero values, Jacobian rows and columns over every leading entry and
    point; None when a part is not finite."""
    N = value.shape[-1]
    parts = [p for p in (value, jacobian, hessian) if isinstance(p, np.ndarray)]
    if not all(np.isfinite(p).all() for p in parts):
        return None
    nz = jacobian.reshape(-1, N, N) != 0
    return geo.Support((value.reshape(-1, N) != 0).any(axis=0),
                       nz.any(axis=(0, 2)), nz.any(axis=(0, 1)))


def sparse(rng, shape, masks):
    """An array of ``shape`` whose trailing axes are nonzero exactly on the
    product of ``masks`` (one per trailing axis), with the same pattern at
    every leading entry and point; every entry there is a random +-[0.5, 2]."""
    pattern = np.ones((), dtype=bool)
    for mask in masks:
        pattern = pattern[..., None] & mask
    out = np.zeros(shape)
    size = shape[:len(shape) - len(masks)] + (int(pattern.sum()),)
    out[..., pattern] = rng.uniform(0.5, 2.0, size) * rng.choice([-1, 1], size)
    return out


def masks(rng, count, N):
    """``count`` random coordinate masks, all empty if one is, so that a
    sparse block is empty exactly when its masks say so."""
    out = [rng.random(N) < 0.4 for _ in range(count)]
    if not all(m.any() for m in out):
        out = [np.zeros(N, dtype=bool)] * count
    return out


def plant(rng, arrays):
    """Write a NaN or an inf at a random entry of one of the arrays."""
    a = arrays[rng.integers(len(arrays))]
    a[tuple(rng.integers(s) for s in a.shape)] = rng.choice([np.nan, np.inf])


class TestSupports:
    """A jet carries where it may be nonzero (PointField.support), and a
    product none of whose parts can be nonzero is None without running.  On
    seeded random sparse jets, with partial overlaps, planted NaN and inf,
    and terms where only the Hessian is nonzero, every operation is checked
    against the same operation on the jets with their supports stripped:
    a product is None exactly when that dense product is 0.0 and finite,
    and otherwise equals it entry for entry, with a support that covers
    every nonzero entry."""

    P, N = 3, 5

    def jet(self, rng, lead, hessian=None, nan=False):
        P, N = self.P, self.N
        value = sparse(rng, lead + (P, N), [rng.random(N) < 0.4])
        jacobian = sparse(rng, lead + (P, N, N), masks(rng, 2, N))
        if hessian is None:
            hessian = rng.random() < 0.3
        if hessian:
            hessian = rng.standard_normal(lead + (P, N, N, N))
            hessian = hessian + hessian.swapaxes(-1, -2)
        else:
            hessian = 0.0
        if nan:
            plant(rng, [value, jacobian])
        return geo.PointField(value, jacobian, hessian,
                              support=support_of(value, jacobian, hessian))

    @staticmethod
    def strip(F):
        return geo.PointField(F.value, F.jacobian, F.hessian, keep=F.keep)

    @staticmethod
    def check(got, want, finite=True):
        """``got`` from jets with supports, ``want`` the dense result;
        ``finite`` when every operand is (a non-finite one runs the dense
        product, even where its NaN is in a part the product does not
        read)."""
        parts = [p for p in (want.value, want.jacobian, want.hessian)
                 if isinstance(p, np.ndarray)]
        zero = all(np.isfinite(p).all() and not p.any() for p in parts)
        if zero and finite:
            assert got is None
        if got is None:
            assert zero
            return
        assert got.order == want.order
        for g, w in zip((got.value, got.jacobian, got.hessian),
                        (want.value, want.jacobian, want.hessian)):
            if w is not None:
                np.testing.assert_array_equal(np.broadcast_to(g, np.shape(w)),
                                              w)
        s = got.support
        if s is None:
            return
        N = got.value.shape[-1]
        assert all(np.isfinite(p).all() for p in parts)
        assert not (got.value.reshape(-1, N)[:, ~s.values]).any()
        if isinstance(got.jacobian, np.ndarray):
            nz = got.jacobian.reshape(-1, N, N) != 0
            assert not nz[:, ~s.rows].any() and not nz[:, :, ~s.cols].any()

    def products(self, rng, nan):
        """(name, jets with supports -> result) of every operation, on jets
        laid out as the formulas lay them out (F along one key axis, X along
        the other), the jets, and whether the matrices and the constant are
        finite (the matrices then carry a support)."""
        P, N = self.P, self.N
        F, G = (self.jet(rng, (1, 2), nan=nan and rng.random() < 0.5)
                for _ in range(2))
        X = self.jet(rng, (2, 1), nan=nan and rng.random() < 0.5)
        A = sparse(rng, (P, N, N), masks(rng, 2, N))
        dA = sparse(rng, (P, N, N, N), masks(rng, 3, N))
        C = sparse(rng, (N, N), masks(rng, 2, N))
        if nan and rng.random() < 0.3:
            plant(rng, [A, dA, C])
        M = geo.matrix_support(A, dA)
        c = rng.choice([0.5, -2.0, np.inf]) if nan else 0.5
        return [("along", lambda F, G, X: F.along(X)),
                ("along-order-1", lambda F, G, X: F.truncated(2).along(X)),
                ("apply-pointwise", lambda F, G, X: F.apply_matrix(
                    A, dA, None if F.support is None else M)),
                ("apply-constant", lambda F, G, X: X.apply_matrix(C)),
                ("sum", lambda F, G, X: F + G),
                ("difference", lambda F, G, X: F - X),
                ("sum-along", lambda F, G, X: (F - G).along(X)),
                ("along-sum", lambda F, G, X: X.along(F + G)),
                ("placed", lambda F, G, X: F[:, ::-1]._map(
                    lambda p: p.swapaxes(0, 1)).along(-X)),
                ("scaled", lambda F, G, X: F.scale(c).along(X))
                ], (F, G, X), M is not None and c != np.inf

    @pytest.mark.parametrize("nan", [False, True], ids=["finite", "planted"])
    @np.errstate(invalid="ignore", over="ignore")
    def test_products_of_random_sparse_jets(self, nan):
        for seed in range(150):
            rng = np.random.default_rng(seed)
            ops, jets, finite = self.products(rng, nan)
            finite = finite and all(F.support is not None for F in jets)
            for name, op in ops:
                want = op(*map(self.strip, jets))
                assert want is not None, name
                try:
                    self.check(op(*jets), want, finite)
                except AssertionError as err:
                    raise AssertionError(f"seed {seed}, {name}") from err

    def test_only_the_hessian_term(self):
        # J_F cannot meet X, but F's Hessian meets X's value: the product
        # is its Hessian term alone, and runs
        rng = np.random.default_rng(3)
        P, N = self.P, self.N
        x, y = np.arange(N) < 2, np.arange(N) >= 2
        value = sparse(rng, (P, N), [y])
        F = geo.PointField(value, sparse(rng, (P, N, N), [y, y]),
                           rng.standard_normal((P, N, N, N)))
        X = geo.PointField(sparse(rng, (P, N), [x]),
                           sparse(rng, (P, N, N), [x, x]), 0.0)
        for f in (F, X):
            f.support = support_of(f.value, f.jacobian, f.hessian)
        got = F.along(X)
        self.check(got, self.strip(F).along(self.strip(X)))
        assert got is not None and not got.value.any()
        assert got.support.rows.all() and got.support.cols.all()
        F.hessian = 0.0
        assert F.along(X) is None

    @np.errstate(invalid="ignore")
    def test_a_nan_runs_the_product_it_would_skip(self):
        # the NaN sits in a column of J_F that X's value does not reach:
        # the masks alone would skip the product, and NaN * 0 is NaN
        rng = np.random.default_rng(4)
        P, N = self.P, self.N
        x, y = np.arange(N) < 2, np.arange(N) >= 2
        jacobian = sparse(rng, (P, N, N), [y, y])
        F = geo.PointField(sparse(rng, (P, N), [y]), jacobian, 0.0)
        X = geo.PointField(sparse(rng, (P, N), [x]),
                           sparse(rng, (P, N, N), [x, x]), 0.0)
        for f in (F, X):
            f.support = support_of(f.value, f.jacobian)
        assert F.along(X) is None
        jacobian[1, 3, 4] = np.nan
        F.support = support_of(F.value, F.jacobian)
        got = F.along(X)
        self.check(got, self.strip(F).along(self.strip(X)))
        assert np.isnan(got.value[1, 3]) and got.support is None
