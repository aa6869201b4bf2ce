"""Sub-Laplacian, carre du champ, spectra and closed-form bounds.

The horizontal structure is declared once (``operators``), as a list of
affine first-order operators D_k f = v_k . grad f, v_k(x) = A_k x + c_k,
with signs s_k, a drift b and the vertical fields Z_a with weight epsilon:

    L = sum_k s_k D_k^2 + b,      Gamma(f, g) = sum_k s_k D_k f D_k g,
    Gamma^V(f, g) = epsilon sum_a Z_a f Z_a g.

On a sphere the list is d/dx_1 .. d/dx_N (+1), the Euler field
E = sum_n x_n d/dx_n (-1) and the vertical fields (-1), with
b = -(N - 2) E: at ||x|| = 1, Delta - E^2 - (N - 2) E is the round
Laplace-Beltrami operator of the restriction of f, so L is that minus the
squares of the (round-unit, divergence-free Killing) vertical fields.
Vertical rescaling multiplies the measure by a constant, so the spectrum
does not depend on the scale.  On a group the list is the left-invariant
horizontal frame (+1) and b = 0, since its divergence correction vanishes.
The integration-by-parts identity is verified by tests rather than assumed.

``sub_laplacian_poly`` applies the list to a polynomial exactly.  The
iterated forms are evaluated at points instead (``gamma_evaluator``):

    Gamma_2(f) = sum_k s_k [D_k f [L, D_k] f + Gamma(D_k f)],
    Gamma_2^V(f) = epsilon sum_a [Z_a f [L, Z_a] f + Gamma(Z_a f)].

Every operator is affine, so the commutators are second-order operators
and all five quantities need only the 2-jet of f and the operators' 1-jets.
They run one point chunk at a time, as matmuls: the operators' forms in
grad f and Hess f over the chunk, then those forms on each 2-jet, so their
temporaries scale with the chunk.

Spectra need no integration: the vertical fields are linear, so on the
sphere the operator maps each space P_k of homogeneous polynomials to
itself (after lifting the degree-lowering part by ||x||^2).  There the
list's round part Delta - E^2 - (N - 2) E is the round Laplacian Delta_S,
in closed form (Delta lowers one exponent by two, and E is k on P_k), so
L = Delta_S - sum_a Z_a^2 and only the Z_a take moves on the packed
exponents (an affine Z sends x^alpha to sum_r alpha_r (A x + c)_r
x^(alpha-e_r)).  The exact matrix is diagonalized block by block along
the connected components of its sparsity pattern.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .checks import CheckReport, frame_batch_for
from .errors import (BoundNotApplicableError, InvalidModelError,
                     SizeLimitError, UnsupportedBackendError)
from .foliation import (SPHERE, FoliationModel, point_chunks,
                        ricci_horizontal)
from .geometry import (MonomialCache, Polynomial, PolyField,
                       directional_derivative, exponent_shifts, field_jets)


# ---------------------------------------------------------------------------
# the operator list


@dataclass(frozen=True)
class Operators:
    """The horizontal structure of a model (see the module docstring):
    D_k = ``fields[k]`` with sign ``signs[k]``, the drift b, and the vertical
    fields Z_a with weight ``weight``.  Every field is affine."""

    fields: tuple[PolyField, ...]
    signs: tuple[float, ...]
    drift: PolyField
    vertical: tuple[PolyField, ...]
    weight: float


@lru_cache(maxsize=None)
def _sphere_fields(N: int) -> tuple[tuple[PolyField, ...], PolyField]:
    """d/dx_1 .. d/dx_N and E of the sphere list in R^N, and its drift;
    shared across calls, which keeps their memoized partials."""
    euler = PolyField.position(N)
    return (tuple(PolyField.basis(N, i) for i in range(N)) + (euler,),
            euler.scale(-(N - 2.0)))


def operators(model: FoliationModel) -> Operators:
    """The model's operator list: the one place where the backends differ."""
    N = model.ambient_dim
    if model.backend == SPHERE:
        fields, drift = _sphere_fields(N)
        fields = fields + model.vertical_fields
        signs = (1.0,) * N + (-1.0,) * (1 + model.m)
    else:
        fields, signs = model.horizontal_fields, (1.0,) * model.n
        drift = PolyField.zero(N)
    return Operators(fields, signs, drift, model.vertical_fields,
                     model.epsilon)


def affine_jets(fields: Sequence[PolyField], cache: MonomialCache
                ) -> tuple[np.ndarray, np.ndarray]:
    """Values (K, P, N) at the cache's points and the constant Jacobians
    (K, N, N) of affine fields v(x) = A x + c, as compact copies, so that
    the jets of every point are not kept with them."""
    if any(c.degree() > 1 for F in fields for c in F.components):
        raise InvalidModelError("operator fields must be affine")
    values, jacobians = field_jets(fields, cache)
    return values.copy(), jacobians[:, 0].copy()


# ---------------------------------------------------------------------------
# differential operators


def sub_laplacian_poly(model: FoliationModel, f: Polynomial) -> Polynomial:
    """Horizontal Laplacian sum_k s_k D_k^2 f + b f of a polynomial, exact;
    on a sphere it is the right function at ||x|| = 1."""
    ops = operators(model)
    return Polynomial.sum_of(model.ambient_dim, [
        s * directional_derivative(D, directional_derivative(D, f))
        for s, D in zip(ops.signs, ops.fields)]
        + [directional_derivative(ops.drift, f)])


def gamma_evaluator(model: FoliationModel, cache: MonomialCache):
    """``evaluate(grad, hess)``: Gamma(f), Gamma^V(f), Gamma_2(f),
    Gamma_2^V(f) and Delta_H f at the cache's points, each of shape (F, P),
    for F functions f given by their 2-jets there: gradients ``grad``
    (F, P, N) and symmetric Hessians ``hess`` (F, P, N, N).

    With S = sum_k s_k v_k v_k^T, L = S : Hess + beta . grad, where the
    affine beta = sum_k s_k A_k v_k + b has the Jacobian
    Q = sum_k s_k A_k^2 + A_b.  For an affine T = t . grad with Jacobian
    A_T, grad(T f) = A_T^T grad f + Hess t, so D_l T f = grad f . A_T v_l
    + v_l . Hess t and Gamma(T f) = sum_l s_l (D_l T f)^2 need no third
    derivative, and neither does the commutator, in which they cancel:

        [L, T] f = (A_T beta - Q t) . grad f
                   + 2 (A_T S - sum_k s_k (A_k t) v_k^T) : Hess f.

    Q is formed once, the rest per point chunk (``point_chunks``): the
    forms linear in grad f (t, A_T v_l, the first term and beta) and in
    Hess f (the second term and S) by matmuls over the chunk, then their
    action on each trial's jet by per-point matmuls in which the trial
    axis is a stack axis, so a trial's values do not depend on the
    others.
    """
    ops = operators(model)
    s = np.asarray(ops.signs)
    (v, A), (w, Aw) = (affine_jets(f, cache) for f in (ops.fields,
                                                        ops.vertical))
    b, Ab = affine_jets([ops.drift], cache)
    K, N = A.shape[:2]
    sA = s[:, None, None] * A                                  # [l, i, j]
    Q = sA.transpose(1, 0, 2).reshape(N, K * N) @ A.reshape(K * N, N) + Ab[0]
    sA_beta = sA.transpose(0, 2, 1).reshape(K * N, N)          # [(l, j), i]
    two_sA = 2.0 * sA.transpose(2, 0, 1).reshape(N, K * N)     # [j, (l, i)]
    # both lists as one, T_k = D_1 .. D_K, Z_1 .. Z_m
    T = K + len(Aw)
    rows = np.concatenate([A, Aw]).reshape(T * N, N)           # [(k, i), j]

    def forms(c: slice):
        """The chunk's forms in grad f (P, N, R) and in Hess f
        (P, N N, T + 1), and its v (P, K, N) and t^T (P, N, T)."""
        vc = v[:, c].swapaxes(0, 1)                            # [p, l, i]
        P = len(vc)
        t = np.concatenate([v[:, c], w[:, c]])                 # [k, p, i]
        t_flat, v_flat = t.reshape(T * P, N), vc.reshape(P * K, N)
        S = (vc.swapaxes(1, 2) * s) @ vc
        beta = v_flat.reshape(P, K * N) @ sA_beta + b[0, c]
        first = ((beta @ rows.T).reshape(P, T, N)
                 - (t_flat @ Q.T).reshape(T, P, N).swapaxes(0, 1))
        Av = (v_flat @ rows.T).reshape(P, K * T, N)            # [p, (l, k), j]
        lowered = (t_flat @ two_sA).reshape(T, P, K, N)        # [k, p, l, i]
        second = rows @ (S + S) - (
            lowered.transpose(1, 0, 3, 2).reshape(P, T * N, K) @ vc)
        return (np.concatenate([t.swapaxes(0, 1), Av, first, beta[:, None]],
                               axis=1).swapaxes(1, 2),
                np.concatenate([second.reshape(P, T, N * N),
                                S.reshape(P, 1, N * N)], axis=1).swapaxes(1, 2),
                vc, t.transpose(1, 2, 0))

    def values(grad, hess, c: slice) -> tuple[np.ndarray, ...]:
        """The five quantities over the chunk's points, each (F, P)."""
        grad_forms, hess_forms, vc, tT = forms(c)
        # each trial's jet as a row vector
        lin = (grad[:, :, None] @ grad_forms)[:, :, 0]
        quad = (hess.reshape(hess.shape[:2] + (1, N * N)) @ hess_forms)[:, :, 0]
        Tf, gAv, first = np.split(lin[..., :-1], [T, T * (K + 1)], axis=-1)
        # D_l T_k f = grad f . A_k v_l + v_l . Hess t_k, [l, k]
        DTf = gAv.reshape(gAv.shape[:2] + (K, T)) + vc @ (hess @ tT)
        iterated = Tf * (first + quad[..., :-1]) + s @ (DTf * DTf)
        Tf2 = Tf * Tf
        return (Tf2[..., :K] @ s, ops.weight * Tf2[..., K:].sum(axis=-1),
                iterated[..., :K] @ s,
                ops.weight * iterated[..., K:].sum(axis=-1),
                lin[..., -1] + quad[..., -1])

    def evaluate(grad, hess) -> dict[str, np.ndarray]:
        out = np.empty((5,) + grad.shape[:2])
        for c in point_chunks(grad.shape[1]):
            out[:, :, c] = values(grad[:, c], hess[:, c], c)
        return dict(zip(("gamma", "gamma_v", "gamma2", "gamma2_v",
                         "delta_f"), out))
    return evaluate


#: trials per chunk of ``check_cd_inequality``: the Hessians drawn grow
#: with one chunk, not with ``trials``, and ``gamma_evaluator`` forms its
#: operator forms once per chunk and point chunk.  ``cd heisenberg-oct
#: --points 128 --trials 200`` on 2 vCPUs with BLAS on one thread, for
#: chunks of 5 / 10 / 20 trials: 55.9 / 58.5 / 61.7 MB peak RSS; the trials
#: take 0.32 / 0.26 / 0.23 s (median of seven in-process runs).  The
#: defaults of ``cd`` (20) and ``verify`` (10) are one chunk.
CD_TRIAL_CHUNK = 20


def check_cd_inequality(model: FoliationModel, K: float, trials: int = 20,
                        nus: Sequence[float] = (0.1, 1.0, 10.0),
                        points: int = 32, seed: int = 42,
                        tol: float = 1e-9) -> CheckReport:
    """Pointwise curvature-dimension inequality CD(K, n/4, m, n):

        Gamma_2 + nu Gamma_2^V >= (1/n)(Delta_H f)^2
            + (K - m/nu) Gamma(f) + (n/4) Gamma^V(f)

    for ``trials`` random functions f at each sample point and each nu > 0,
    given Ric_H >= K g_H (verified first).  Every term at p reads only the
    2-jet of f at p, and every 2-jet is that of a quadratic, so each trial
    is drawn as a 2-jet at every point: a standard normal gradient and the
    symmetric part of a standard normal Hessian.  The gradients of every
    trial are drawn first, then the Hessians, CD_TRIAL_CHUNK trials at a
    time, each chunk evaluated as it is drawn.  The margin is the smallest
    lhs - rhs found.
    """
    n, m = model.n, model.m
    fb = frame_batch_for(model, points, seed)
    eigmin = float(np.linalg.eigvalsh(ricci_horizontal(fb)).min())
    if K > eigmin + 1e-9:
        raise InvalidModelError(
            f"K = {K} exceeds the measured horizontal Ricci lower bound "
            f"{eigmin:.6g}")
    if trials < 1:
        raise ValueError("the CD check needs at least one trial function")
    # Philox keys are below 2**128, the largest seed included
    rng = np.random.Generator(np.random.Philox(key=(seed + 1) % 2 ** 128))
    P, N = fb.points.shape
    evaluate = gamma_evaluator(model, MonomialCache(fb.points))
    grad = rng.standard_normal((trials, P, N))
    margins = []
    for start in range(0, trials, CD_TRIAL_CHUNK):
        # one chunk's Hessians, drawn next from the stream: the same values
        # as one draw of every trial's
        g = grad[start:start + CD_TRIAL_CHUNK]
        hess = rng.standard_normal((len(g), P, N, N))
        hess += hess.transpose(0, 1, 3, 2)  # numpy buffers the overlap
        hess *= 0.5
        vals = evaluate(g, hess)
        for nu in nus:
            lhs = vals["gamma2"] + nu * vals["gamma2_v"]
            rhs = (vals["delta_f"] ** 2) / n \
                + (K - m / nu) * vals["gamma"] + (n / 4.0) * vals["gamma_v"]
            margins.append((lhs - rhs).min())
    # np.min and np.maximum propagate NaN, so a NaN margin fails instead of
    # being skipped
    margin = float(np.min(margins, initial=np.inf))
    return CheckReport.from_residual(
        "cd-inequality", np.maximum(0.0, -margin), tol, points,
        {"min_margin": margin, "K": K, "nu_values": list(nus),
         "trials": trials})


# ---------------------------------------------------------------------------
# spectra


@dataclass
class SpectrumResult:
    """Discrete spectrum of the sub-Laplacian on polynomials of bounded degree.

    The space is invariant, so the computed values are exact eigenvalues,
    not just variational bounds.  ``gram_asymmetry`` is the largest
    asymmetry of the per-degree operator matrices in the
    Fischer-orthonormal basis: rounding level when the vertical fields are
    Killing, of order one when they are not.
    """

    model_name: str
    degree: int
    eigenvalues: list[float]
    gram_asymmetry: float

    def smallest_nonzero(self) -> float:
        """The first eigenvalue above 1e-8."""
        for ev in self.eigenvalues:
            if ev > 1e-8:
                return ev
        raise ValueError("no nonzero eigenvalue in the computed window")

    def to_json(self) -> dict:
        return {"model": self.model_name, "degree": self.degree,
                "eigenvalues": self.eigenvalues,
                "gram_asymmetry": self.gram_asymmetry}

    def to_csv(self) -> str:
        lines = ["degree,eigenvalue"]
        lines += [f"{self.degree},{ev!r}" for ev in self.eigenvalues]
        return "\n".join(lines) + "\n"


def fischer_scales(exponents) -> np.ndarray:
    """sqrt(alpha!) for each exponent tuple alpha.  Each alpha! is rounded to
    a float first: an int above 2**63 (21! and up) would make numpy build an
    object array that np.sqrt rejects."""
    return np.sqrt([float(math.prod(map(math.factorial, alpha)))
                    for alpha in exponents])


def monomial_count(n_vars: int, k: int) -> int:
    """dim P_k: the number of monomials of degree k in ``n_vars`` variables."""
    return math.comb(n_vars + k - 1, k)


#: Largest dim P_k whose spectrum ``rayleigh_ritz`` computes, checked before
#: P_k is enumerated.  Every catalog sphere reaches degree 6 below it; the
#: block of P_6 of quaternionic-hopf-s11 (12376 monomials) is 340k triples,
#: built in 0.45 s.
MAX_DEGREE_MONOMIALS = 15_000
#: Largest sum of squared block sizes over the two degrees of a spectrum,
#: checked before any block is assembled.  Blocks are solved one at a time
#: and only their eigenvalues kept, so it bounds the eigensolve time (below
#: the largest block size times this sum) and the dense buffers of the
#: largest block (8 bytes per entry each).  Measured on 2 vCPUs through the
#: CLI at the largest degree each catalog sphere is admitted for (medians
#: of five runs): complex-hopf-s3 at 30 (13.6M entries, largest block 1376)
#: 2.2 s and 104 MB, complex-hopf-s5 at 13 (14.0M, 1092) 1.9 s and 86 MB,
#: quaternionic-hopf-s7 at 8 (6.6M, 835) 1.0 s and 64 MB, and
#: quaternionic-hopf-s11 at 6 (10.8M, 880) 1.5 s and 82 MB.
MAX_BLOCK_ENTRIES = 16_000_000


def _coalesce(col, key, coef):
    """Sum the terms that share a (column, monomial) pair; drop exact zeros."""
    if col.size == 0:
        return col, key, coef
    order = np.lexsort((key, col))
    col, key, coef = col[order], key[order], coef[order]
    starts = np.flatnonzero(np.r_[True, (col[1:] != col[:-1])
                                  | (key[1:] != key[:-1])])
    acc = np.add.reduceat(coef, starts)
    keep = acc != 0.0
    return col[starts][keep], key[starts][keep], acc[keep]


def _apply_affine(A: np.ndarray, c: np.ndarray, shifts: np.ndarray, mask: int,
                  col, key, coef):
    """The operator v . grad, v = A x + c, on the terms ``coef x^key`` of each
    column, by moves on the packed exponents: one pass over the nonzeros
    (r, t) of M = [A | c], with e_t = 0 for the column of c,

        x^alpha -> sum_(r, t) alpha_r M[r, t] x^(alpha - e_r + e_t).
    """
    M = np.c_[A, c]
    r, t = np.nonzero(M)
    unit = np.r_[np.int64(1) << shifts, 0]
    alpha = (key >> shifts[r, None]) & mask               # [(r, t), term]
    i, p = np.nonzero(alpha)
    return _coalesce(col[p], key[p] - unit[r[i]] + unit[t[i]],
                     coef[p] * alpha[i, p] * M[r[i], t[i]])


def _degree_block(model: FoliationModel, k: int,
                  vertical: tuple[np.ndarray, np.ndarray]
                  ) -> tuple[np.ndarray, ...]:
    """Matrix of -Delta_H = -Delta_S + Cas, Cas = -sum_a Z_a^2, on the
    homogeneous polynomials of degree k, as coalesced nonzero triples
    (rows, cols, values).

    Returns the sorted monomial keys, the Fischer scales sqrt(alpha!) and
    the triples in the orthonormal basis x^alpha / sqrt(alpha!).  The round
    part is in closed form: the coordinate fields give Delta, which moves
    x^alpha to alpha_i (alpha_i - 1) x^(alpha - 2 e_i), of degree k - 2,
    lifted by ||x||^2 = sum_j x_j^2 (the same function on the sphere), and
    the Euler field and the drift give -E^2 - (N - 2) E = -k (k + N - 2) on
    the diagonal.  The vertical fields are linear (Z_a = A_a p), so each
    Z_a^2 stays in degree k: two ``_apply_affine`` moves from the affine
    jets ``vertical`` (values, Jacobians), which a caller building several
    degrees reads once.
    """
    N = model.ambient_dim
    shifts, mask = exponent_shifts(N)
    combos = np.array(list(itertools.combinations_with_replacement(range(N), k)),
                      dtype=np.int64)
    keys = np.sort((np.int64(1) << shifts)[combos].sum(axis=1))
    alpha = (keys[:, None] >> shifts) & mask
    scale = fischer_scales(alpha.tolist())
    p, i = np.nonzero(alpha > 1)
    two = np.int64(2) << shifts
    col, key, coef = _coalesce(
        np.r_[np.arange(keys.size), np.repeat(p, N)],
        np.r_[keys, ((keys[p] - two[i])[:, None] + two).ravel()],
        np.r_[np.full(keys.size, -k * (k + N - 2.0)),
              np.repeat(alpha[p, i] * (alpha[p, i] - 1.0), N)])
    values, jacobians = vertical
    for A, c in zip(jacobians, values[:, 0]):
        term = (np.arange(keys.size), keys, np.full(keys.size, -1.0))
        for _ in range(2):
            term = _apply_affine(A, c, shifts, mask, *term)
        # a running sum, freed before each sort
        col, key, coef = map(np.concatenate, zip((col, key, coef), term))
        col, key, coef = _coalesce(col, key, coef)
    rows = np.searchsorted(keys, key)
    return keys, scale, rows, col, -coef * scale[rows] / scale[col]


def _components(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Connected components of the undirected graph on range(n) with edges
    (rows, cols), labelled by their smallest node: a union-find that hooks
    each root to the smallest label across its edges, then compresses
    paths, until every edge joins equal labels."""
    label = np.arange(n)
    while True:
        lr, lc = label[rows], label[cols]
        if np.array_equal(lr, lc):
            return label
        lo = np.minimum(lr, lc)
        np.minimum.at(label, lr, lo)
        np.minimum.at(label, lc, lo)
        while not np.array_equal(label[label], label):
            label = label[label]


def _blocks(label: np.ndarray, rows: np.ndarray, cols: np.ndarray,
            vals: np.ndarray):
    """The diagonal blocks of a sparse matrix whose symmetrized pattern has
    the component labels ``label``: (members, dense block) pairs, with the
    members in increasing order."""
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.r_[True, np.diff(label[order]) != 0])
    by_block = np.argsort(label[rows], kind="stable")
    roots, entry_roots = label[order[starts]], label[rows[by_block]]
    lo = np.searchsorted(entry_roots, roots, "left")
    hi = np.searchsorted(entry_roots, roots, "right")
    for members, a, b in zip(np.split(order, starts[1:]), lo, hi):
        e = by_block[a:b]
        block = np.zeros((members.size, members.size))
        block[np.searchsorted(members, rows[e]),
              np.searchsorted(members, cols[e])] = vals[e]
        yield members, block


def rayleigh_ritz(model: FoliationModel, degree: int) -> SpectrumResult:
    """Spectrum of -Delta_H on the polynomials of degree <= ``degree``,
    restricted to the sphere.

    That space is the direct sum of the restrictions of the homogeneous
    spaces P_degree and P_(degree - 1), each invariant because the vertical
    fields are linear.  On each the operator matrix is symmetric in the
    Fischer-orthonormal basis (Z_a is skew and ||x||^2 Delta self-adjoint),
    and splits into blocks along the connected components of its sparsity
    pattern, so one symmetric eigensolve per block gives the eigenvalues
    with multiplicities, merged in increasing order.  A degree with
    dim P_degree above ``MAX_DEGREE_MONOMIALS`` is refused before any work,
    and one whose blocks exceed ``MAX_BLOCK_ENTRIES`` before any eigensolve.
    """
    if model.backend != SPHERE:
        raise UnsupportedBackendError(
            "spectra require a compact model; the group backend is noncompact")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    N = model.ambient_dim
    size = monomial_count(N, degree)
    if size > MAX_DEGREE_MONOMIALS:
        raise SizeLimitError(
            f"degree {degree} spans {size} monomials in {N} variables, more "
            f"than the {MAX_DEGREE_MONOMIALS} a spectrum is computed for")
    vertical = affine_jets(model.vertical_fields,
                           MonomialCache(np.zeros((1, N))))
    parts, entries = [], 0
    for k in range(max(degree - 1, 0), degree + 1):
        keys, _, rows, cols, vals = _degree_block(model, k, vertical)
        label = _components(keys.size, rows, cols)
        entries += int((np.bincount(label) ** 2).sum())
        parts.append((label, rows, cols, vals))
    if entries > MAX_BLOCK_ENTRIES:
        raise SizeLimitError(
            f"degree {degree} splits into blocks with {entries} entries, "
            f"more than the {MAX_BLOCK_ENTRIES} a spectrum is computed for")
    lams, asym = [], 0.0
    for label, rows, cols, vals in parts:
        for _, A in _blocks(label, rows, cols, vals):
            asym = max(asym, float(np.abs(A - A.T).max()))
            lams.append(np.linalg.eigvalsh(0.5 * (A + A.T)))
    lam = np.sort(np.concatenate(lams))
    return SpectrumResult(model.name, degree, lam.tolist(), asym)


# ---------------------------------------------------------------------------
# closed-form diameter and first-eigenvalue bounds


@dataclass
class BoundsResult:
    n: int
    m: int
    constant: float             # the curvature input (Ricci bound or kappa)
    constant_name: str          # "K" | "kappa"
    quaternionic: bool
    diameter_bound: float
    lambda1_bound: float
    formula_used: str

    def to_json(self) -> dict:
        return {"n": self.n, "m": self.m, self.constant_name: self.constant,
                "quaternionic": self.quaternionic,
                "diameter_bound": self.diameter_bound,
                "lambda1_bound": self.lambda1_bound,
                "formula": self.formula_used}


def _float_ranks(n: int, m: int) -> tuple[float, float]:
    """The ranks as floats; integer products of ranks this large would
    overflow the float conversion inside the formulas."""
    if n < 1 or m < 1:
        raise BoundNotApplicableError("ranks must be positive")
    try:
        return float(n), float(m)
    except OverflowError:
        raise BoundNotApplicableError("ranks overflow the float range") from None


def _finite_bounds(result: BoundsResult) -> BoundsResult:
    """Reject bounds that left the float range: an infinite lambda_1 bound
    or a zero diameter bound states nothing about the inputs."""
    for value in (result.diameter_bound, result.lambda1_bound):
        if not 0.0 < value < np.inf:
            raise BoundNotApplicableError("the bounds overflow the float range")
    return result


def bounds_general(n: int, m: int, K: float) -> BoundsResult:
    """Diameter and first-eigenvalue bounds from a horizontal Ricci lower
    bound K > 0:

        diam <= 2 sqrt(3) pi sqrt((n + 4m)(n + 6m) / (n K)),
        lambda_1 >= n K / (n + 3m - 1).
    """
    if K <= 0:
        raise BoundNotApplicableError("the bounds require K > 0")
    nf, mf = _float_ranks(n, m)
    diam = 2.0 * np.sqrt(3.0) * np.pi * np.sqrt((nf + 4 * mf) * (nf + 6 * mf)
                                                / (nf * K))
    lam = nf * K / (nf + 3 * mf - 1)
    return _finite_bounds(BoundsResult(n, m, K, "K", False, float(diam),
                                       float(lam), "ricci-lower-bound"))


def bounds_clifford(n: int, m: int, kappa: float,
                    quaternionic: bool = False) -> BoundsResult:
    """Bounds in terms of the vertical Clifford structure constant kappa > 0,
    m >= 2.  Quaternionic (m = 3) branch:

        diam <= 2 sqrt(6) (pi / sqrt(kappa)) sqrt((n+12)(n+18) / (n(n+8))),
        lambda_1 >= n kappa / 2;

    otherwise:

        diam <= 4 sqrt(3) (pi / sqrt(kappa))
                 sqrt((n+4m)(n+6m) / (n(n+8(m-1)))),
        lambda_1 >= (kappa/4) n (n + 8(m-1)) / (n + 3m - 1).
    """
    if kappa <= 0:
        raise BoundNotApplicableError("the bounds require kappa > 0")
    nf, mf = _float_ranks(n, m)
    if m < 2:
        raise BoundNotApplicableError("the Clifford-form bounds require m >= 2")
    if quaternionic and m != 3:
        raise BoundNotApplicableError("quaternionic structures have m = 3")
    if quaternionic:
        diam = 2.0 * np.sqrt(6.0) * np.pi / np.sqrt(kappa) \
            * np.sqrt((nf + 12) * (nf + 18) / (nf * (nf + 8)))
        lam = nf * kappa / 2.0
        formula = "clifford-quaternionic"
    else:
        diam = 4.0 * np.sqrt(3.0) * np.pi / np.sqrt(kappa) \
            * np.sqrt((nf + 4 * mf) * (nf + 6 * mf) / (nf * (nf + 8 * (mf - 1))))
        lam = kappa * nf * (nf + 8 * (mf - 1)) / (4.0 * (nf + 3 * mf - 1))
        formula = "clifford-general"
    return _finite_bounds(BoundsResult(n, m, kappa, "kappa", quaternionic,
                                       float(diam), float(lam), formula))
