import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htfoliation import geometry as geo
from htfoliation.errors import DegenerateFrameError, DimensionMismatchError
from htfoliation.geometry import (AmbientChart, EUCLIDEAN, MonomialCache,
                                  Polynomial, PolyField, UNIT_SPHERE, bracket,
                                  directional_derivative, field_jets,
                                  gram_schmidt_at, sample_points)
from symbolic_oracles import sphere_moment, terms_dict


def rand_field(n, degree, rng, density=0.4):
    """Random polynomial field with small integer coefficients (arithmetic
    on them is exact, so algebraic identities must cancel to literal zero)."""
    comps = []
    for _ in range(n):
        terms = {}
        for exps in itertools.product(range(degree + 1), repeat=n):
            if sum(exps) <= degree and rng.random() < density:
                terms[exps] = float(rng.integers(-3, 4))
        comps.append(Polynomial.from_dict(n, terms))
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


class TestGramSchmidt:
    def test_textbook_examples(self):
        basis = gram_schmidt_at([np.array([1.0, 0.0]), np.array([0.0, 2.0])])
        np.testing.assert_allclose(basis, [[1, 0], [0, 1]], atol=1e-15)
        basis = gram_schmidt_at([np.array([1.0, 1.0]), np.array([1.0, 0.0])])
        r = 1 / np.sqrt(2)
        np.testing.assert_allclose(basis, [[r, r], [r, -r]], atol=1e-15)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateFrameError):
            gram_schmidt_at([np.array([1.0, 1.0]), np.array([1.0, 1.0 + 1e-14])])

    def test_custom_metric_and_coefficients(self):
        G = np.diag([4.0, 1.0])
        basis, W, kept = gram_schmidt_at(
            [np.array([1.0, 0.0]), np.array([1.0, 1.0])], metric=G,
            return_coefficients=True)
        assert kept == [0, 1]
        for i, b in enumerate(basis):
            np.testing.assert_allclose(b @ G @ b, 1.0, atol=1e-14)
            np.testing.assert_allclose(
                b, W[i, 0] * np.array([1.0, 0.0]) + W[i, 1] * np.array([1.0, 1.0]),
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
        Polynomial.from_dict(n, draw(st.dictionaries(exps, coeff, max_size=6)))
        for _ in range(n)])


@st.composite
def dyadic_polys(draw, n_vars: int, count: int = 1):
    """``count`` polynomials in ``n_vars`` variables with dyadic coefficients
    k/8 and at most six terms; exponents up to 3, up to the packing cap 7
    at N = 16.  Sums and products of a few of them are exact."""
    top = 7 if n_vars == 16 else 3
    exps = st.tuples(*[st.integers(0, top)] * n_vars)
    coeff = st.integers(-16, 16).map(lambda k: k / 8)
    return [Polynomial.from_dict(n_vars,
                                 draw(st.dictionaries(exps, coeff, max_size=6)))
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
        assert_same(Polynomial.from_dict(f.n_vars, terms_dict(f)), f)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 15), st.integers(0, 7), st.integers(0, 7))
    def test_packing_edge_overflow(self, i, a, b):
        # N = 16 packs 3 bits per variable: x_i^a x_i^b past degree 7 must
        # raise instead of carrying into the next variable's field
        power = lambda e: Polynomial.from_dict(
            16, {tuple(e if v == i else 0 for v in range(16)): 1.0})
        if a + b > 7:
            with pytest.raises(OverflowError):
                power(a) * power(b)
        else:
            assert terms_dict(power(a) * power(b)) == terms_dict(power(a + b))


def assert_jet_matches_partials(F, pts):
    values, jacobian = F.jet(pts)
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

    @pytest.mark.parametrize("n", [1, 7, 16])
    def test_zero_and_constant_fields(self, n):
        pts = np.random.default_rng(n).uniform(-1, 1, size=(4, n))
        values, jacobian = PolyField.zero(n).jet(pts)
        assert not values.any() and not jacobian.any()
        vec = np.arange(1.0, n + 1.0) / 4
        values, jacobian = PolyField.constant(vec).jet(pts)
        np.testing.assert_array_equal(values, np.broadcast_to(vec, (4, n)))
        assert not jacobian.any()

    def test_chunked_sums_match(self, monkeypatch):
        # fields taken in many small groups give the one-group result
        rng = np.random.default_rng(3)
        fields = [rand_field(3, 3, rng) for _ in range(4)]
        pts = rng.uniform(-1, 1, size=(5, 3))
        whole = field_jets(fields, MonomialCache(pts))
        monkeypatch.setattr(geo, "_JET_CHUNK", 7)
        chunked = field_jets(fields, MonomialCache(pts))
        for a, b in zip(whole, chunked):
            np.testing.assert_array_equal(a, b)
        for f, F in enumerate(fields):
            np.testing.assert_array_equal(chunked[0][f], F.jet(pts)[0])
