"""Symbolic reference routes that the package replaced by pointwise ones,
and the polynomial helpers that only tests use.

Each route builds its result as exact polynomials, independently of the
code it checks: the model metric through the projections ``pi_h``/``pi_v``,
the connection tables and the three-index entries as compositions of the
connection formulas on polynomial fields, the round Laplacian through the
homogeneous decomposition, the Gamma calculus as products of polynomials
(and, from 2-jets, as whole-sample einsums), and the spectral matrices one
monomial at a time.  ``eigenpairs`` adds the
eigenfunctions that the package's spectra do not build.
"""

import itertools
import weakref

import numpy as np

from htfoliation import models
from htfoliation.analysis import (_blocks, _components, _degree_block,
                                  affine_jets, fischer_scales,
                                  gamma_evaluator, operators,
                                  sub_laplacian_poly)
from htfoliation.clifford import build_representation
from htfoliation.errors import DimensionMismatchError, InvalidModelError
from htfoliation.foliation import SPHERE, FoliationModel, Split
from htfoliation.geometry import (UNIT_SPHERE, MonomialCache, PointField,
                                  Polynomial, PolyField, _dedup,
                                  _sphere_moment_fraction, bracket,
                                  directional_derivative, exponent_shifts,
                                  field_jets)


def terms_dict(f: Polynomial) -> dict[tuple[int, ...], float]:
    """Exponent tuple -> coefficient of every term."""
    exps = f.exponents()
    return {tuple(int(e) for e in exps[t]): float(f.coeffs[t])
            for t in range(f.n_terms)}


def from_terms(n_vars: int, terms: dict[tuple[int, ...], float]
               ) -> Polynomial:
    """The polynomial with the terms exponent tuple -> coefficient (the
    inverse of ``terms_dict``); zero coefficients are dropped."""
    shifts, _ = exponent_shifts(n_vars)
    keys = [sum(int(e) << int(s) for e, s in zip(exps, shifts))
            for exps in terms]
    return Polynomial(n_vars, *_dedup(np.array(keys, dtype=np.int64),
                                      np.array(list(terms.values()),
                                               dtype=np.float64)))


def jet_is_zero(F: PointField) -> bool:
    """Whether every stored part of a jet is 0.0 everywhere, by a scan of
    its arrays (a part held as the scalar 0.0 is)."""
    return not any(isinstance(part, np.ndarray) and part.any()
                   for part in (F.value, F.jacobian, F.hessian))


def euclidean_gradient(f: Polynomial) -> PolyField:
    return PolyField([f.partial(i) for i in range(f.n_vars)])


def poly_jets(fs, pts) -> tuple[np.ndarray, np.ndarray]:
    """The 2-jets of the polynomials ``fs`` at the points, as
    ``analysis.gamma_evaluator`` takes them: gradients (F, P, N) and Hessians
    (F, P, N, N), the 1-jets of the gradient fields."""
    return field_jets([euclidean_gradient(f) for f in fs], MonomialCache(pts))


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
    return from_terms(n_vars, {exps: float(rng.uniform(-1.0, 1.0))
                               for exps in exponents(n_vars, degree)})


def sparse_random_polynomial(n_vars: int, degree: int,
                             rng: np.random.Generator,
                             n_terms: int = 24) -> Polynomial:
    """Up to ``n_terms`` random monomials of degree <= ``degree``, each with
    a coefficient uniform in [-1, 1]."""
    terms = {}
    for _ in range(n_terms):
        exps = [0] * n_vars
        for _ in range(rng.integers(0, degree + 1)):
            exps[rng.integers(0, n_vars)] += 1
        terms[tuple(exps)] = float(rng.uniform(-1.0, 1.0))
    return from_terms(n_vars, terms)


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
    vals = gamma_evaluator(model, MonomialCache(pts))(*poly_jets([f], pts))
    return {k: float(v[0, 0]) for k, v in vals.items()}


def gamma_reference(model: FoliationModel, cache: MonomialCache):
    """The whole-sample einsum route that ``analysis.gamma_evaluator``
    replaced, with its signature.

    ``evaluate(grad, hess)``: Gamma(f), Gamma^V(f), Gamma_2(f),
    Gamma_2^V(f) and Delta_H f at the cache's points, each of shape (F, P),
    for F functions f given by their 2-jets there: gradients ``grad``
    (F, P, N) and symmetric Hessians ``hess`` (F, P, N, N).  The operators'
    jets, S, beta and Q are formed once; the commutator coefficients,
    (K, P, N, N) per field list, per call.

    With S = sum_k s_k v_k v_k^T, L = S : Hess + beta . grad, where the
    affine beta = sum_k s_k A_k v_k + b has the Jacobian
    Q = sum_k s_k A_k^2 + A_b.  For an affine T = t . grad with Jacobian
    A_T, grad(T f) = A_T^T grad f + Hess t, so Gamma(T f) needs no third
    derivative, and neither does the commutator, in which they cancel:

        [L, T] f = (A_T beta - Q t) . grad f
                   + 2 (A_T S - sum_k s_k (A_k t) v_k^T) : Hess f.
    """
    ops = operators(model)
    s = np.asarray(ops.signs)
    v, A = affine_jets(ops.fields, cache)
    b, Ab = affine_jets([ops.drift], cache)
    S = np.einsum("k,kpi,kpj->pij", s, v, v)
    beta = np.einsum("k,kij,kpj->pi", s, A, v) + b[0]
    Q = np.einsum("k,kij,kjl->il", s, A, A) + Ab[0]

    def along(grad, hess, t, At):
        """T f, Gamma(T f) and [L, T] f, each (F, K, P), for the affine
        fields of values t (K, P, N) and Jacobians At (K, N, N)."""
        Tf = np.einsum("kpi,fpi->fkp", t, grad)
        dTf = (np.einsum("kji,fpj->fkpi", At, grad)
               + np.einsum("fpij,kpj->fkpi", hess, t))
        first = (np.einsum("kij,pj->kpi", At, beta)
                 - np.einsum("ij,kpj->kpi", Q, t))
        second = (np.einsum("kil,plj->kpij", At, S)
                  - np.einsum("l,lij,kpj,lpm->kpim", s, A, t, v,
                              optimize=True))
        comm = (np.einsum("kpi,fpi->fkp", first, grad)
                + 2.0 * np.einsum("kpij,fpij->fkp", second, hess,
                                  optimize=True))
        return Tf, np.einsum("fkpi,pij,fkpj->fkp", dTf, S, dTf,
                             optimize=True), comm
    fields = ((v, A), affine_jets(ops.vertical, cache))

    def evaluate(grad, hess) -> dict[str, np.ndarray]:
        (Df, gamma_D, comm_D), (Zf, gamma_Z, comm_Z) = (
            along(grad, hess, *f) for f in fields)
        return {"gamma": np.einsum("k,fkp->fp", s, Df * Df),
                "gamma_v": ops.weight * (Zf * Zf).sum(axis=1),
                "gamma2": np.einsum("k,fkp->fp", s, Df * comm_D + gamma_D),
                "gamma2_v": ops.weight * (Zf * comm_Z + gamma_Z).sum(axis=1),
                "delta_f": (np.einsum("pi,fpi->fp", beta, grad)
                            + np.einsum("pij,fpij->fp", S, hess))}
    return evaluate


def defining_matrices(name: str) -> np.ndarray:
    """The matrices that the catalog model ``name`` is built from, formed
    by their own builders: a group's Clifford generators G_a (m, n, n) from
    ``build_representation`` with the spec's params, a sphere's vertical
    matrices A_a (m, N, N), Z_a = A_a p."""
    spec = models.get_spec(name)
    if spec.kind == "htype-group":
        params = spec.params
        return build_representation(params["m"], params["multiplicity"],
                                    params.get("chirality")).generators
    N = spec.n + spec.m + 1
    if spec.kind == "complex-hopf":
        return models._complex_structure(N)[None]
    return models._quaternion_right_blocks(N)


def degree_block(model, k: int) -> tuple[np.ndarray, ...]:
    """``_degree_block`` of degree k, from the vertical fields' affine
    jets read at the origin, as ``rayleigh_ritz`` reads them."""
    return _degree_block(model, k, affine_jets(
        model.vertical_fields, MonomialCache(np.zeros((1, model.ambient_dim)))))


def eigenpairs(model, degree: int) -> tuple[np.ndarray, list[Polynomial]]:
    """The spectrum of ``rayleigh_ritz`` in increasing order, with a
    homogeneous eigenfunction for each eigenvalue: one ``eigh`` per block of
    its matrices, each eigenvector mapped back from the Fischer-orthonormal
    basis x^alpha / sqrt(alpha!)."""
    N = model.ambient_dim
    lams, funcs = [], []
    for k in range(max(degree - 1, 0), degree + 1):
        keys, scale, rows, cols, vals = degree_block(model, k)
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
    of g_H + (1/eps_rel) g_V.  The antisymmetric ones build a > b as
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

    def lc(self, eps_rel: float, a: int, b: int) -> Split:
        return self._entry(("lc", round(eps_rel, 12), a, b), lambda: (
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


def symbolic_lc_curvature(model, eps_rel, a, b, c) -> Split:
    """R^ghat(E_a, E_b) E_c for ghat = g_H + (1/eps_rel) g_V, as a
    polynomial field."""
    tab = symbolic_tables(model)
    E = tab.span
    lc = lambda i, j: tab.lc(eps_rel, i, j)
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
    basis = from_terms(N, {
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
