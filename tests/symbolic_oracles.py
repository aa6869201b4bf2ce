"""Symbolic reference routes that the package replaced by pointwise ones,
and the polynomial helpers that only tests use.

Each route builds its result as exact polynomials, independently of the
code it checks: the model metric through the projections ``pi_h``/``pi_v``,
the connection tables and the three-index entries as compositions of the
connection formulas on polynomial fields, the round Laplacian through the
homogeneous decomposition, the Gamma calculus as products of polynomials,
and the spectral matrices one monomial at a time.  ``eigenpairs`` adds the
eigenfunctions that the package's spectra do not build.
"""

import itertools
import weakref

import numpy as np

from htfoliation.analysis import (_blocks, _components, _degree_block,
                                  fischer_scales, gamma_jets,
                                  sub_laplacian_poly)
from htfoliation.errors import DimensionMismatchError, InvalidModelError
from htfoliation.foliation import SPHERE, Split
from htfoliation.geometry import (UNIT_SPHERE, MonomialCache, PointField,
                                  Polynomial, PolyField,
                                  _sphere_moment_fraction, bracket,
                                  directional_derivative, euclidean_gradient,
                                  field_jets)


def terms_dict(f: Polynomial) -> dict[tuple[int, ...], float]:
    """Exponent tuple -> coefficient of every term."""
    exps = f.exponents()
    return {tuple(int(e) for e in exps[t]): float(f.coeffs[t])
            for t in range(f.n_terms)}


def homogeneous_parts(f: Polynomial) -> dict[int, Polynomial]:
    """Split into homogeneous components keyed by total degree."""
    if f.is_zero:
        return {}
    degs = f.exponents().sum(axis=1)
    return {int(d): Polynomial(f.n_vars, f.keys[degs == d], f.coeffs[degs == d])
            for d in np.unique(degs)}


def sphere_moment(n_vars: int, alpha) -> float:
    """Normalized moment (1/|S^{N-1}|) * integral of x^alpha over S^{N-1}."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != n_vars:
        raise DimensionMismatchError("multi-index length does not match n_vars")
    return float(_sphere_moment_fraction(n_vars, alpha))


def random_polynomial(n_vars: int, degree: int, rng: np.random.Generator
                      ) -> Polynomial:
    """Dense random polynomial with coefficients uniform in [-1, 1], drawn
    in lexicographic order of the exponents."""
    def exponents(n: int, budget: int) -> list[tuple[int, ...]]:
        if n == 0:
            return [()]
        return [(e,) + rest for e in range(budget + 1)
                for rest in exponents(n - 1, budget - e)]
    return Polynomial.from_dict(n_vars, {
        exps: float(rng.uniform(-1.0, 1.0))
        for exps in exponents(n_vars, degree)})


def _on_chart(model, p) -> np.ndarray:
    """The point as floats; the sphere formulas hold only at ||p|| = 1."""
    p = np.asarray(p, dtype=np.float64)
    if model.chart.kind == UNIT_SPHERE and abs(p @ p - 1.0) > 1e-12:
        raise InvalidModelError("point is not on the unit sphere")
    return p


def sub_laplacian_apply(model, f: Polynomial, p) -> float:
    """Pointwise value of the horizontal Laplacian (negative operator)."""
    return float(sub_laplacian_poly(model, f).evaluate(_on_chart(model, p)))


def gamma_calculus(model, f: Polynomial, p) -> dict[str, float]:
    """Pointwise carre-du-champ data: Gamma(f) = ||grad_H f||^2, its vertical
    companion, both iterated forms, and the horizontal Laplacian."""
    pts = _on_chart(model, p)[None]
    return {k: float(v[0, 0])
            for k, v in gamma_jets(model, [f], MonomialCache(pts)).items()}


def eigenpairs(model, degree: int) -> tuple[np.ndarray, list[Polynomial]]:
    """The spectrum of ``rayleigh_ritz`` in increasing order, with a
    homogeneous eigenfunction for each eigenvalue: one ``eigh`` per block of
    its matrices, each eigenvector mapped back from the Fischer-orthonormal
    basis x^alpha / sqrt(alpha!)."""
    N = model.ambient_dim
    lams, funcs = [], []
    for k in range(max(degree - 1, 0), degree + 1):
        keys, scale, rows, cols, vals = _degree_block(model, k)
        label = _components(keys.size, rows, cols)
        for members, A in _blocks(label, rows, cols, vals):
            lam, vecs = np.linalg.eigh(0.5 * (A + A.T))
            lams.append(lam)
            for c in (vecs / scale[members, None]).T:
                nonzero = c != 0.0
                funcs.append(Polynomial(N, keys[members][nonzero], c[nonzero]))
    lam = np.concatenate(lams)
    order = np.argsort(lam, kind="stable")
    return lam[order], [funcs[i] for i in order]


def order2_jet(F: PolyField, pts, order: int = 2, **kwargs):
    """The jet of a field of degree <= 2 at the points: with ``order=1`` its
    values (P, N) and Jacobians (P, N, N); with ``order=2`` a PointField
    (``kwargs`` passed on) that adds the constant Hessian, from the 1-jets of
    the partials."""
    value, jacobian = (a[0] for a in field_jets([F], MonomialCache(pts)))
    if order == 1:
        return value, jacobian
    partials = [PolyField([c.partial(j) for c in F.components])
                for j in range(F.n_vars)]
    hessian = field_jets(partials, MonomialCache(pts[:1]))[1]  # [j, 0, i, k]
    return PointField(value, jacobian, hessian.transpose(1, 2, 0, 3), **kwargs)


def span_split(model, idx: int) -> Split:
    """Spanning field by combined index: horizontals first, then verticals."""
    kh = model.span_h_count
    if idx < kh:
        return Split(h=model.horizontal_fields[idx])
    return Split(v=model.vertical_fields[idx - kh])


class SymbolicTables:
    """The two-index entries over a model's spanning fields as exact
    polynomial fields (Splits), each built on first use and kept: the split
    bracket, the connection, torsion and the rescaled Levi-Civita derivative
    at a total vertical scale.  The antisymmetric ones build a > b as
    -(b, a)."""

    def __init__(self, model):
        self.model = model
        self._cache: dict = {}

    def _entry(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def span(self, idx: int) -> Split:
        return span_split(self.model, idx)

    def bracket(self, a: int, b: int) -> Split:
        model, N = self.model, self.model.ambient_dim
        if a > b:
            return -self.bracket(b, a)
        return self._entry(("bracket", a, b), lambda: model.split(
            bracket(self.span(a).total(N), self.span(b).total(N))))

    def bott(self, a: int, b: int) -> Split:
        return self._entry(("bott", a, b), lambda: self.model.bott_split(
            self.span(a), self.span(b)))

    def torsion(self, a: int, b: int) -> Split:
        if a > b:
            return -self.torsion(b, a)
        return self._entry(("torsion", a, b), lambda: (
            self.model.torsion_transform(self.span(a), self.span(b))))

    def lc(self, total_eps: float, a: int, b: int) -> Split:
        eps_rel = total_eps / self.model.epsilon
        return self._entry(("lc", round(total_eps, 12), a, b), lambda: (
            self.model.lc_variation_split(self.span(a), self.span(b),
                                          eps_rel)))


_TABLES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def symbolic_tables(model) -> SymbolicTables:
    """The model's SymbolicTables, shared by every test of a session."""
    if model not in _TABLES:
        _TABLES[model] = SymbolicTables(model)
    return _TABLES[model]


def symbolic_nabla_t(model, d, a, b) -> Split:
    """(nabla_{E_d} T)(E_a, E_b) as a polynomial field."""
    tab = symbolic_tables(model)
    E = tab.span
    return (model.bott_split(E(d), tab.torsion(a, b))
            - model.torsion_transform(tab.bott(d, a), E(b))
            - model.torsion_transform(E(a), tab.bott(d, b)))


def symbolic_curvature(model, a, b, c) -> Split:
    """R(E_a, E_b) E_c as a polynomial field."""
    tab = symbolic_tables(model)
    E = tab.span
    return (model.bott_split(E(a), tab.bott(b, c))
            - model.bott_split(E(b), tab.bott(a, c))
            - model.bott_split(tab.bracket(a, b), E(c)))


def symbolic_lc_curvature(model, total_eps, a, b, c) -> Split:
    """R^ghat(E_a, E_b) E_c at the total vertical scale, as a polynomial
    field."""
    tab = symbolic_tables(model)
    E = tab.span
    eps_rel = total_eps / model.epsilon
    lc = lambda i, j: tab.lc(total_eps, i, j)
    return (model.lc_variation_split(E(a), lc(b, c), eps_rel)
            - model.lc_variation_split(E(b), lc(a, c), eps_rel)
            - model.lc_variation_split(tab.bracket(a, b), E(c), eps_rel))


def metric_poly(model, F, G, eps_scale: float = 1.0) -> Polynomial:
    """g(F, G) as a polynomial, with the vertical block scaled by
    1/(epsilon * eps_scale); eps_scale = 1 is the model metric.  Vertical
    parts are measured along the stored vertical fields."""
    Fs, Gs = model.split(F), model.split(G)
    out = Polynomial.zero(model.ambient_dim)
    if Fs.h is not None and Gs.h is not None:
        if model.backend == SPHERE:
            out = out + Fs.h.dot(Gs.h)
        else:
            for i in range(model.n):
                out = out + Fs.h.components[i] * Gs.h.components[i]
    if Fs.v is not None and Gs.v is not None:
        vf = model.vertical_coefficients(Fs.v)
        vg = model.vertical_coefficients(Gs.v)
        scale = 1.0 / (model.epsilon * eps_scale)
        for a in range(model.m):
            out = out + scale * (vf[a] * vg[a])
    return out


def sphere_laplacian(f: Polynomial, n_vars: int | None = None) -> Polynomial:
    """Laplace-Beltrami operator of the round S^{N-1} on a polynomial
    restriction: Delta_S f_k = Delta f_k - k (k + N - 2) f_k on the sphere
    for f_k homogeneous of degree k."""
    n = f.n_vars if n_vars is None else n_vars
    out = Polynomial.zero(f.n_vars)
    for k, part in homogeneous_parts(f).items():
        flat = Polynomial.zero(f.n_vars)
        for i in range(f.n_vars):
            flat = flat + part.partial(i).partial(i)
        out = out + flat - (k * (k + n - 2)) * part
    return out


def sub_laplacian(model, f: Polynomial) -> Polynomial:
    """Round Laplacian minus the vertical squares on a sphere, the sum of
    squares of the horizontal frame on a group."""
    if model.backend == SPHERE:
        out = sphere_laplacian(f, model.ambient_dim)
        for Z in model.vertical_fields:
            out = out - directional_derivative(Z, directional_derivative(Z, f))
        return out
    return Polynomial.sum_of(model.ambient_dim, [
        directional_derivative(X, directional_derivative(X, f))
        for X in model.horizontal_fields])


def horizontal_gradient(model, f: Polynomial) -> PolyField:
    if model.backend == SPHERE:
        return model.pi_h(euclidean_gradient(f))
    return PolyField.sum_of(model.ambient_dim, [
        X.scale(directional_derivative(X, f)) for X in model.horizontal_fields])


def vertical_gradient(model, f: Polynomial) -> PolyField:
    """Gradient along the leaves in the model metric; the 1/epsilon vertical
    scaling raises the coefficient by epsilon."""
    return PolyField.sum_of(model.ambient_dim, [
        Z.scale(model.epsilon * directional_derivative(Z, f))
        for Z in model.vertical_fields])


def gamma_polys(model, f: Polynomial) -> dict[str, Polynomial]:
    """Gamma, Gamma^V, Gamma_2 = L Gamma / 2 - Gamma(f, L f), its vertical
    companion and Delta_H f, as polynomials."""
    lap = sub_laplacian(model, f)
    gh, gv = horizontal_gradient(model, f), vertical_gradient(model, f)
    gamma = metric_poly(model, Split(h=gh), Split(h=gh))
    gamma_v = metric_poly(model, Split(v=gv), Split(v=gv))
    gh_lap = horizontal_gradient(model, lap)
    gv_lap = vertical_gradient(model, lap)
    gamma2 = 0.5 * sub_laplacian(model, gamma) \
        - metric_poly(model, Split(h=gh), Split(h=gh_lap))
    gamma2_v = 0.5 * sub_laplacian(model, gamma_v) \
        - metric_poly(model, Split(v=gv), Split(v=gv_lap))
    return {"gamma": gamma, "gamma_v": gamma_v, "gamma2": gamma2,
            "gamma2_v": gamma2_v, "delta_f": lap}


def degree_block_dense(model, k: int):
    """Sorted keys, Fischer scales and the dense matrix of -Delta_H on the
    homogeneous polynomials of degree k, from ``sub_laplacian_poly`` of each
    monomial with the degree-(k - 2) part lifted by ||x||^2."""
    N = model.ambient_dim
    basis = Polynomial.from_dict(N, {
        tuple(map(combo.count, range(N))): 1.0
        for combo in itertools.combinations_with_replacement(range(N), k)})
    keys = basis.keys
    scale = fischer_scales(basis.exponents().tolist())
    r2 = Polynomial.sum_of(N, [Polynomial.variable(N, i) ** 2
                               for i in range(N)])
    zero = Polynomial.zero(N)
    A = np.zeros((keys.size, keys.size))
    for col in range(keys.size):
        g = Polynomial(N, keys[col:col + 1], np.ones(1))
        parts = homogeneous_parts(sub_laplacian_poly(model, g))
        lap = parts.get(k, zero) + parts.get(k - 2, zero) * r2
        A[np.searchsorted(keys, lap.keys), col] = -lap.coeffs
    return keys, scale, A * scale[:, None] / scale[None, :]
