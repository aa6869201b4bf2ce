"""Sub-Laplacian, Gamma calculus, spectra and closed-form bounds.

The horizontal Laplacian is the generator of the Dirichlet form
E(u, v) = integral of <grad_H u, grad_H v> against the Riemannian measure.
On sphere models it is computed as the round Laplace-Beltrami operator minus
the squares of the (round-unit, divergence-free Killing) vertical fields;
vertical rescaling multiplies the measure by a constant, so Rayleigh
quotients and the spectrum do not depend on the scale.  On group models it
is the sum of squares of the left-invariant horizontal frame (whose
divergence correction vanishes).  Both routes stay inside exact polynomial
arithmetic, and the integration-by-parts identity is verified by tests
rather than assumed.

Spectra need no integration: the vertical fields are linear, so on the
sphere the operator maps each space of homogeneous polynomials to itself
(after lifting the degree-lowering part by ||x||^2), and its exact matrix
there is diagonalized degree by degree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .checks import CheckReport, frame_batch_for
from .errors import (BoundNotApplicableError, InvalidModelError,
                     UnsupportedBackendError)
from .foliation import SPHERE, FoliationModel, ricci_horizontal
from .geometry import (Polynomial, PolyField, directional_derivative,
                       euclidean_gradient, sphere_laplacian)


# ---------------------------------------------------------------------------
# differential operators


def sub_laplacian_poly(model: FoliationModel, f: Polynomial) -> Polynomial:
    """Horizontal Laplacian of a polynomial, as an on-chart-exact polynomial."""
    if model.backend == SPHERE:
        out = sphere_laplacian(f, model.ambient_dim)
        for Z in model.vertical_fields:
            out = out - directional_derivative(Z, directional_derivative(Z, f))
        return out
    terms = []
    for X in model.horizontal_fields:
        terms.append(directional_derivative(X, directional_derivative(X, f)))
    return Polynomial.sum_of(model.ambient_dim, terms)


def sub_laplacian_apply(model: FoliationModel, f: Polynomial, p) -> float:
    """Pointwise value of the horizontal Laplacian (negative operator)."""
    p = np.asarray(p, dtype=np.float64)
    if model.backend == SPHERE and abs(p @ p - 1.0) > 1e-12:
        raise InvalidModelError("point is not on the unit sphere")
    return float(sub_laplacian_poly(model, f).evaluate(p))


def horizontal_gradient(model: FoliationModel, f: Polynomial) -> PolyField:
    if model.backend == SPHERE:
        return model.pi_h(euclidean_gradient(f))
    return PolyField.sum_of(model.ambient_dim, [
        X.scale(directional_derivative(X, f)) for X in model.horizontal_fields])


def vertical_gradient(model: FoliationModel, f: Polynomial) -> PolyField:
    """Gradient along the leaves with respect to the model metric; the
    1/epsilon vertical scaling raises the coefficient by epsilon."""
    return PolyField.sum_of(model.ambient_dim, [
        Z.scale(model.epsilon * directional_derivative(Z, f))
        for Z in model.vertical_fields])


def _gamma_polys(model: FoliationModel, f: Polynomial) -> dict[str, Polynomial]:
    from .foliation import Split
    lap = sub_laplacian_poly(model, f)
    gh = horizontal_gradient(model, f)
    gv = vertical_gradient(model, f)
    gamma = model.metric_poly(Split(h=gh), Split(h=gh))
    gamma_v = model.metric_poly(Split(v=gv), Split(v=gv))
    gh_lap = horizontal_gradient(model, lap)
    gv_lap = vertical_gradient(model, lap)
    gamma2 = 0.5 * sub_laplacian_poly(model, gamma) \
        - model.metric_poly(Split(h=gh), Split(h=gh_lap))
    gamma2_v = 0.5 * sub_laplacian_poly(model, gamma_v) \
        - model.metric_poly(Split(v=gv), Split(v=gv_lap))
    return {"gamma": gamma, "gamma_v": gamma_v, "gamma2": gamma2,
            "gamma2_v": gamma2_v, "delta_f": lap}


def gamma_calculus(model: FoliationModel, f: Polynomial, p) -> dict[str, float]:
    """Pointwise carre-du-champ data: Gamma(f) = ||grad_H f||^2, its vertical
    companion, both iterated forms, and the horizontal Laplacian."""
    p = np.asarray(p, dtype=np.float64)
    polys = _gamma_polys(model, f)
    return {k: float(v.evaluate(p)) for k, v in polys.items()}


def random_polynomial(n_vars: int, degree: int, rng: np.random.Generator
                      ) -> Polynomial:
    """Dense random polynomial with coefficients uniform in [-1, 1]."""
    terms = {}
    for exps in itertools.product(range(degree + 1), repeat=n_vars):
        if sum(exps) <= degree:
            terms[exps] = float(rng.uniform(-1.0, 1.0))
    return Polynomial.from_dict(n_vars, terms)


def _sparse_random_polynomial(n_vars: int, degree: int,
                              rng: np.random.Generator,
                              n_terms: int = 24) -> Polynomial:
    terms = {}
    for _ in range(n_terms):
        exps = [0] * n_vars
        for _ in range(rng.integers(0, degree + 1)):
            exps[rng.integers(0, n_vars)] += 1
        terms[tuple(exps)] = float(rng.uniform(-1.0, 1.0))
    return Polynomial.from_dict(n_vars, terms)


def check_cd_inequality(model: FoliationModel, K: float,
                        fs: Sequence[Polynomial] | int = 20,
                        nus: Sequence[float] = (0.1, 1.0, 10.0),
                        points: int = 32, seed: int = 42,
                        tol: float = 1e-9,
                        verify_ricci: bool = True) -> CheckReport:
    """Pointwise curvature-dimension inequality CD(K, n/4, m, n):

        Gamma_2 + nu Gamma_2^V >= (1/n)(Delta_H f)^2
            + (K - m/nu) Gamma(f) + (n/4) Gamma^V(f)

    for every f and every nu > 0, given Ric_H >= K g_H (verified first).
    """
    n, m = model.n, model.m
    fb = frame_batch_for(model, points, seed)
    if verify_ricci:
        eigmin = float(np.linalg.eigvalsh(ricci_horizontal(fb)).min())
        if K > eigmin + 1e-9:
            raise InvalidModelError(
                f"K = {K} exceeds the measured horizontal Ricci lower bound "
                f"{eigmin:.6g}")
    if isinstance(fs, int):
        rng = np.random.Generator(np.random.Philox(key=seed + 1))
        fs = [_sparse_random_polynomial(model.ambient_dim, 3, rng)
              for _ in range(fs)]
    pts = fb.points
    cache = fb.mono
    margins = []
    for f in fs:
        polys = _gamma_polys(model, f)
        vals = {k: np.atleast_1d(v.evaluate(pts, cache))
                for k, v in polys.items()}
        for nu in nus:
            lhs = vals["gamma2"] + nu * vals["gamma2_v"]
            rhs = (vals["delta_f"] ** 2) / n \
                + (K - m / nu) * vals["gamma"] + (n / 4.0) * vals["gamma_v"]
            margins.append((lhs - rhs).min())
    # np.min propagates NaN, so a NaN margin fails instead of being skipped
    margin = float(np.min(margins, initial=np.inf))
    return CheckReport("cd-inequality", "pass" if margin >= -tol else "fail",
                       float(np.maximum(0.0, -margin)), tol, points,
                       {"min_margin": margin, "K": K, "nu_values": list(nus),
                        "trials": len(fs)})


# ---------------------------------------------------------------------------
# spectra


@dataclass
class SpectrumResult:
    """Discrete spectrum of the sub-Laplacian on polynomials of bounded degree.

    The space is invariant, so the computed values are exact eigenvalues,
    not just variational bounds; the representatives are homogeneous
    polynomials that satisfy the eigenvalue equation pointwise on the
    sphere.  ``gram_asymmetry`` is the largest asymmetry of the per-degree
    operator matrices in the Fischer-orthonormal basis: rounding level when
    the vertical fields are Killing, of order one when they are not.
    """

    model_name: str
    degree: int
    eigenvalues: list[float]
    gram_asymmetry: float
    eigenfunctions: list[Polynomial] = field(repr=False, default_factory=list)

    def smallest_nonzero(self, tol: float = 1e-8) -> float:
        for ev in self.eigenvalues:
            if ev > tol:
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


def _degree_block(model: FoliationModel, k: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Matrix of -Delta_H on the homogeneous polynomials of degree k.

    Returns the sorted monomial keys, the Fischer scales sqrt(alpha!) and
    the matrix in the orthonormal basis x^alpha / sqrt(alpha!).  The
    sphere backend's vertical fields are linear (its ``vertical_matrices``),
    so Delta_H x^alpha has parts of degree k and k - 2 only; the latter
    times ||x||^2 is the same function on the sphere.
    """
    N = model.ambient_dim
    basis = Polynomial.from_dict(N, {
        tuple(map(combo.count, range(N))): 1.0
        for combo in itertools.combinations_with_replacement(range(N), k)})
    keys = basis.keys
    scale = np.sqrt([math.prod(map(math.factorial, alpha))
                     for alpha in basis.exponents().tolist()])
    r2 = Polynomial.sum_of(N, [Polynomial.variable(N, i) ** 2
                               for i in range(N)])
    zero = Polynomial.zero(N)
    A = np.zeros((keys.size, keys.size))
    for col in range(keys.size):
        g = Polynomial(N, keys[col:col + 1], np.ones(1))
        parts = sub_laplacian_poly(model, g).homogeneous_parts()
        lap = parts.get(k, zero) + parts.get(k - 2, zero) * r2
        A[np.searchsorted(keys, lap.keys), col] = -lap.coeffs
    return keys, scale, A * scale[:, None] / scale[None, :]


def rayleigh_ritz(model: FoliationModel, degree: int) -> SpectrumResult:
    """Spectrum of -Delta_H on the polynomials of degree <= ``degree``,
    restricted to the sphere.

    That space is the direct sum of the restrictions of the homogeneous
    spaces P_degree and P_(degree - 1), each invariant because the vertical
    fields are linear.  On each the operator matrix is symmetric in the
    Fischer-orthonormal basis (Z_a is skew and ||x||^2 Delta self-adjoint),
    so one symmetric eigensolve per degree gives the eigenvalues with
    multiplicities, merged in increasing order.
    """
    if model.backend != SPHERE:
        raise UnsupportedBackendError(
            "spectra require a compact model; the group backend is noncompact")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    lams, funcs, asym = [], [], 0.0
    for k in range(max(degree - 1, 0), degree + 1):
        keys, scale, A = _degree_block(model, k)
        asym = max(asym, float(np.abs(A - A.T).max()))
        lam, vecs = np.linalg.eigh(0.5 * (A + A.T))
        lams.append(lam)
        for c in (vecs / scale[:, None]).T:
            nonzero = c != 0.0
            funcs.append(Polynomial(model.ambient_dim, keys[nonzero],
                                    c[nonzero]))
    lam = np.concatenate(lams)
    order = np.argsort(lam, kind="stable")
    return SpectrumResult(model.name, degree, [float(lam[i]) for i in order],
                          asym, [funcs[i] for i in order])


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


def bounds_general(n: int, m: int, K: float) -> BoundsResult:
    """Diameter and first-eigenvalue bounds from a horizontal Ricci lower
    bound K > 0:

        diam <= 2 sqrt(3) pi sqrt((n + 4m)(n + 6m) / (n K)),
        lambda_1 >= n K / (n + 3m - 1).
    """
    if K <= 0:
        raise BoundNotApplicableError("the bounds require K > 0")
    if n < 1 or m < 1:
        raise BoundNotApplicableError("ranks must be positive")
    diam = 2.0 * np.sqrt(3.0) * np.pi * np.sqrt((n + 4 * m) * (n + 6 * m) / (n * K))
    lam = n * K / (n + 3 * m - 1)
    return BoundsResult(n, m, K, "K", False, float(diam), float(lam),
                        "ricci-lower-bound")


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
    if n < 1 or m < 1:
        raise BoundNotApplicableError("ranks must be positive")
    if m < 2:
        raise BoundNotApplicableError("the Clifford-form bounds require m >= 2")
    if quaternionic and m != 3:
        raise BoundNotApplicableError("quaternionic structures have m = 3")
    if quaternionic:
        diam = 2.0 * np.sqrt(6.0) * np.pi / np.sqrt(kappa) \
            * np.sqrt((n + 12) * (n + 18) / (n * (n + 8)))
        lam = n * kappa / 2.0
        formula = "clifford-quaternionic"
    else:
        diam = 4.0 * np.sqrt(3.0) * np.pi / np.sqrt(kappa) \
            * np.sqrt((n + 4 * m) * (n + 6 * m) / (n * (n + 8 * (m - 1))))
        lam = kappa * n * (n + 8 * (m - 1)) / (4.0 * (n + 3 * m - 1))
        formula = "clifford-general"
    return BoundsResult(n, m, kappa, "kappa", quaternionic, float(diam),
                        float(lam), formula)
