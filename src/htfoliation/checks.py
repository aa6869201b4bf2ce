"""Verification predicates for foliation models.

Each check samples deterministic points, evaluates exact symbolic tensors
there, and reports the worst residual against a stated tolerance.  Residuals
of identities proved for these structures (Yang-Mills property, parallel
vertical Clifford derivatives, horizontal Einstein constants, curvature
constancy of the rescaled metric, the commutator and sectional-norm
identities) sit at rounding level when the model is built correctly; the
checks measure, they do not assume.

A kept tensor that is exactly zero without being read (``exact_zero``: nabla
T and R on a group) is not multiplied or reduced: each term with such a
factor is dropped, where the term's other factors are finite, so that the
residual is the one the dense arithmetic gives, NaN included.  Residuals
are combined with NaN-propagating maxima (``_worst``).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .errors import InvalidModelError, NotApplicableError
from .foliation import (FoliationModel, FrameBatch, curvature_components,
                        exact_zero, j_endomorphisms, lc_curvature_components,
                        nabla_t_components, nabla_t_frame, point_chunks,
                        ricci_horizontal, torsion_components,
                        vertical_sectional)

#: default tolerance for nested curvature pipelines
TOL_CURVATURE = 1e-9

CLASS_ORDER = ["yang-mills-only", "horizontally-parallel", "completely-parallel"]


@dataclass
class CheckReport:
    """Outcome of one verification predicate; pass iff residual <= tolerance."""

    check_name: str
    status: str
    max_residual: float
    tolerance: float
    points_tested: int
    details: dict = field(default_factory=dict)

    @classmethod
    def from_residual(cls, name: str, residual: float, tol: float,
                      points: int, details: dict | None = None) -> "CheckReport":
        residual = float(residual)
        return cls(name, "pass" if residual <= tol else "fail",
                   residual, tol, points, details or {})

    def to_json(self) -> dict:
        return {"check": self.check_name, "status": self.status,
                "max_residual": self.max_residual, "tolerance": self.tolerance,
                "points": self.points_tested, "details": self.details}

    def __str__(self):
        return (f"{self.check_name:<28} {self.status:<5} "
                f"max_residual={self.max_residual:.3e} tol={self.tolerance:.1e}")


def _worst(*residuals) -> float:
    """The largest of ``residuals``, NaN if any is NaN (the builtin max
    keeps its first argument against a NaN)."""
    return float(np.max(residuals))


def _max_abs(a: np.ndarray) -> float:
    """max |a|, without reading an exact zero."""
    return 0.0 if exact_zero(a) else float(np.abs(a).max())


def _finite(*arrays: np.ndarray) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


def frame_batch_for(model: FoliationModel, points: int, seed: int) -> FrameBatch:
    """Adapted frames over the model's deterministic sample, cached so that
    successive checks on one model share every evaluated tensor.  A cached
    batch refers to its model only weakly, so the cycle through the model's
    cache does not keep a finished model and its values alive.
    """
    tab = model._tables.setdefault("frame_batches", {})
    key = (points, seed)
    if key not in tab:
        fb = model.frame_batch(geo.sample_points(model.chart, points, seed))
        fb.model = weakref.proxy(model)
        tab[key] = fb
    return tab[key]


# ---------------------------------------------------------------------------
# structural checks


def check_foliation_axioms(model: FoliationModel, points: int = 64,
                           seed: int = 42, tol: float = TOL_CURVATURE
                           ) -> CheckReport:
    """Bundle-like and totally geodesic conditions via Lie derivatives:
    (L_Z g)(X, X') = 0 and (L_X g)(Z, Z') = 0 over spanning fields, from
    1-jets at its own sample.  It builds no adapted frame, because
    Gram-Schmidt can fail on the models it must reject."""
    cache = geo.MonomialCache(geo.sample_points(model.chart, points, seed))
    worst = _worst(*(np.abs(block).max()
                     for block in model.metric_lie_derivatives(cache)))
    return CheckReport.from_residual("foliation-axioms", worst, tol, points)


def _sym_products(J: np.ndarray) -> np.ndarray:
    """sym(J_a^T J_b) = (J_a^T J_b + J_b^T J_a) / 2 for the matrices J
    (P, m, n, n), shape (P, m, m, n, n): from one product M = J^T J per
    point over the columns of every J_a, then M plus M with a and b
    swapped."""
    P, m, n = J.shape[:3]
    cols = J.transpose(0, 2, 1, 3).reshape(P, n, m * n)    # [p, k, (a, l)]
    M = (cols.swapaxes(1, 2) @ cols).reshape(P, m, n, m, n).swapaxes(2, 3)
    return 0.5 * (M + M.swapaxes(1, 2))


def _h_type_fit(fb: FrameBatch) -> tuple[float, float, float]:
    """lambda, its spread over the points and vertical directions, and the
    largest residual of the fit sym(J_a^T J_b) = lambda delta_ab I, formed
    once per batch: ``check_parallel_clifford`` reads the fit that
    ``check_h_type`` made."""
    if "h_type_fit" not in fb.fits:
        S = _sym_products(j_endomorphisms(fb))              # (P, m, m, n, n)
        m, n = S.shape[1], S.shape[-1]
        diag_means = np.einsum("paall->pa", S) / n
        lam = float(diag_means.mean())
        target = lam * np.eye(m)[None, :, :, None, None] \
            * np.eye(n)[None, None, None, :, :]
        fb.fits["h_type_fit"] = (lam, float(np.abs(diag_means - lam).max()),
                                 float(np.abs(S - target).max()))
    return fb.fits["h_type_fit"]


def check_h_type(model: FoliationModel, points: int = 64, seed: int = 42,
                 tol: float = TOL_CURVATURE) -> CheckReport:
    """Fit the scalar in <J_Z X, J_Z Y> = lambda ||Z||^2 <X, Y> from the frame
    J matrices; pass iff lambda = 1 within tolerance and the fit is tight."""
    lam, spread, fit_residual = _h_type_fit(frame_batch_for(model, points,
                                                            seed))
    worst = _worst(fit_residual, spread, abs(lam - 1.0))
    return CheckReport.from_residual(
        "h-type", worst, tol, points,
        {"lambda": lam, "lambda_spread": spread, "fit_residual": fit_residual})


def check_yang_mills(model: FoliationModel, points: int = 64, seed: int = 42,
                     tol: float = TOL_CURVATURE) -> CheckReport:
    """Horizontal divergence of the torsion: sum_i (nabla_{x_i} T)(x_i, u)
    vanishes for every frame direction u."""
    fb = frame_batch_for(model, points, seed)
    comps = nabla_t_frame(fb, "h", "h", "all")
    worst = float(np.abs(np.einsum("piiud->pud", comps)).max())
    return CheckReport.from_residual("yang-mills", worst, tol, points)


def classify_torsion(model: FoliationModel, points: int = 32, seed: int = 42,
                     tol: float = TOL_CURVATURE) -> tuple[str, dict]:
    """Strongest parallelism class of the torsion measured on the sample."""
    fb = frame_batch_for(model, points, seed)
    nt_all = nabla_t_components(fb, "all")                 # (P, n+m, m, n, n)
    full, horiz = _max_abs(nt_all), _max_abs(nt_all[:, :model.n])
    ym = check_yang_mills(model, points, seed, tol)
    details = {"full_residual": full, "horizontal_residual": horiz,
               "yang_mills_residual": ym.max_residual}
    if full <= tol:
        return "completely-parallel", details
    if horiz <= tol:
        return "horizontally-parallel", details
    return "yang-mills-only", details


def check_torsion_class(model: FoliationModel, expected: str | None = None,
                        points: int = 32, seed: int = 42,
                        tol: float = TOL_CURVATURE) -> CheckReport:
    label, details = classify_torsion(model, points, seed, tol)
    details["class"] = label
    residual = {"completely-parallel": details["full_residual"],
                "horizontally-parallel": details["horizontal_residual"],
                "yang-mills-only": details["yang_mills_residual"]}[label]
    ok = residual <= tol
    if expected is not None:
        details["expected"] = expected
        ok = ok and CLASS_ORDER.index(label) >= CLASS_ORDER.index(expected)
    return CheckReport("torsion-class", "pass" if ok else "fail",
                       residual, tol, points, details)


def check_parallel_clifford(model: FoliationModel, points: int = 32,
                            seed: int = 42, tol: float = TOL_CURVATURE
                            ) -> CheckReport:
    """Fit (nabla_{z_a} J)_{z_b} = J_psi over grade-two Clifford coefficients.

    Requires the H-type fit and horizontally parallel torsion to hold first.
    Passes when psi = -kappa z_a . z_b for a single constant kappa across
    points and vertical pairs; for m = 1 the grade-two space is trivial and
    the check degenerates to (nabla_z J)_z = 0.
    """
    ht = check_h_type(model, points, seed, tol)
    if ht.status != "pass":
        raise InvalidModelError(
            f"model is not H-type (lambda = {ht.details['lambda']:.6g})")
    fb = frame_batch_for(model, points, seed)
    nt_v = nabla_t_components(fb, "v")                     # (P, m, m, n, n)
    horiz = _max_abs(nabla_t_components(fb, "h"))
    if horiz > tol:
        raise InvalidModelError(
            f"torsion is not horizontally parallel (residual {horiz:.3e})")
    if model.m == 1:
        return CheckReport.from_residual(
            "parallel-clifford", _max_abs(nt_v), tol, points,
            {"kappa": None, "psi": "zero"})
    worst, details = clifford_fit(j_endomorphisms(fb), nt_v)
    return CheckReport.from_residual("parallel-clifford", worst, tol, points,
                                     details)


def clifford_fit(J: np.ndarray, nt_v: np.ndarray) -> tuple[float, dict]:
    """The least-squares fit of check_parallel_clifford for m >= 2, on J
    (P, m, n, n) and nt_v (P, m, m, n, n): the worst of the fit residual, the
    largest off-blade coefficient and the spread of kappa, and the details.

    At each point the design has one column per pair c < d, the grade-two
    image J_c J_d, and the targets one column per (a, b), the endomorphism
    of (nabla_{z_a} J)_{z_b}; one stacked SVD checks the rank and solves
    every column at every point."""
    P, m, n = J.shape[:3]
    c, d = np.triu_indices(m, 1)
    design = (J[:, c] @ J[:, d]).reshape(P, c.size, n * n).transpose(0, 2, 1)
    target = nt_v.transpose(0, 1, 2, 4, 3).reshape(P, m * m, n * n)
    target = target.transpose(0, 2, 1)                    # (P, n*n, m*m)
    U, s, Vt = np.linalg.svd(design, full_matrices=False)
    if (s[:, -1] <= 1e-8).any():      # rank below the pair count somewhere
        raise InvalidModelError(
            "grade-two operator images are rank deficient; the vertical "
            "Clifford fit is not identifiable on this model")
    psi = Vt.transpose(0, 2, 1) @ ((U.transpose(0, 2, 1) @ target)
                                   / s[:, :, None])       # (P, pairs, m*m)
    worst_fit = float(np.abs(design @ psi - target).max())
    # for a != b, the coefficient of the pair {a, b} in column (a, b) is
    # -kappa when a < b and +kappa when a > b; every other one is off-blade
    pair = np.zeros((m, m), dtype=np.int64)
    pair[c, d] = pair[d, c] = np.arange(c.size)
    a, b = np.nonzero(~np.eye(m, dtype=bool))             # (a, b) row-major
    blade, column = pair[a, b], a * m + b
    on_blade = np.zeros((c.size, m * m), dtype=bool)
    on_blade[blade, column] = True
    estimates = (np.where(a < b, -1.0, 1.0) * psi[:, blade, column]).ravel()
    off_blade = float(np.abs(psi[:, ~on_blade]).max())
    kappa = float(np.mean(estimates))
    spread = float(np.abs(estimates - kappa).max())
    return _worst(worst_fit, off_blade, spread), {
        "kappa": kappa, "kappa_spread": spread, "fit_residual": worst_fit,
        "off_blade": off_blade}


@dataclass
class QuaternionicReport:
    status: str                 # quaternionic | non-quaternionic | not-applicable
    sigma_scalar: int | None    # +1 or -1 when sigma is a scalar
    dim_plus: int | None
    dim_minus: int | None
    residual: float


def _sigmas(fb: FrameBatch) -> np.ndarray:
    """sigma = J_1 J_2 J_3 at each point of the batch, (P, n, n), formed
    once per batch: ``check_einstein`` reads the one that
    ``detect_quaternionic`` made."""
    if "sigma" not in fb.fits:
        J = j_endomorphisms(fb)
        fb.fits["sigma"] = np.einsum("pij,pjk,pkl->pil", J[:, 0], J[:, 1],
                                     J[:, 2])
    return fb.fits["sigma"]


def detect_quaternionic(model: FoliationModel, points: int = 8, seed: int = 42,
                        tol: float = TOL_CURVATURE) -> QuaternionicReport:
    """For m = 3, classify sigma = J_1 J_2 J_3 as +/-Identity (quaternionic)
    or report the eigenspace split of the involution otherwise."""
    if model.m != 3:
        return QuaternionicReport("not-applicable", None, None, None, 0.0)
    sigmas = _sigmas(frame_batch_for(model, points, seed))
    n = model.n
    eye = np.eye(n)
    res_plus = float(np.abs(sigmas - eye).max())
    res_minus = float(np.abs(sigmas + eye).max())
    if res_plus <= tol:
        return QuaternionicReport("quaternionic", 1, n, 0, res_plus)
    if res_minus <= tol:
        return QuaternionicReport("quaternionic", -1, 0, n, res_minus)
    invol = float(np.abs(np.einsum("pij,pjk->pik", sigmas, sigmas) - eye).max())
    eigvals = np.linalg.eigvalsh(0.5 * (sigmas + np.transpose(sigmas, (0, 2, 1))))
    plus = int(np.round((eigvals > 0).sum(axis=1).mean()))
    return QuaternionicReport("non-quaternionic", None, plus, n - plus, invol)


def check_einstein(model: FoliationModel, points: int = 32, seed: int = 42,
                   tol: float = TOL_CURVATURE,
                   kappa: float | None = None) -> CheckReport:
    """Measured horizontal Ricci against the closed-form constant:
    kappa (n/4 + 2(m-1)) g_H for m >= 2, m != 3; kappa (n/2 + 4) g_H in the
    quaternionic m = 3 case; plus the involution term otherwise."""
    if model.m < 2:
        raise NotApplicableError("horizontal Einstein constants need m >= 2")
    if kappa is None:
        pc = check_parallel_clifford(model, points, seed, tol)
        if pc.status != "pass":
            raise InvalidModelError("vertical Clifford fit failed; no kappa")
        kappa = pc.details["kappa"]
    fb = frame_batch_for(model, points, seed)
    measured = ricci_horizontal(fb)                        # (P, n, n)
    n, m = model.n, model.m
    eye = np.eye(n)
    if m != 3:
        predicted = kappa * (n / 4.0 + 2.0 * (m - 1)) * eye[None]
        formula = "kappa*(n/4 + 2(m-1))"
    else:
        quat = detect_quaternionic(model, points, seed, tol)
        if quat.status == "quaternionic":
            predicted = kappa * (n / 2.0 + 4.0) * eye[None]
            formula = "kappa*(n/2 + 4)"
        else:
            gap = quat.dim_plus - quat.dim_minus
            predicted = (kappa * (n / 4.0 + 4.0) * eye[None]
                         + (kappa / 4.0) * gap * _sigmas(fb))
            formula = "kappa*(n/4 + 4) + kappa/4*(dim+ - dim-)*sigma"
    worst = np.abs(measured - predicted).max()
    return CheckReport.from_residual(
        "einstein-horizontal", worst, tol, points,
        {"kappa": kappa, "formula": formula,
         "measured_constant": float(measured[0, 0, 0])})


# ---------------------------------------------------------------------------
# curvature constancy and the rescaled-metric curvature formula


def check_curvature_constancy(model: FoliationModel, kappa: float,
                              points: int = 32, seed: int = 42,
                              tol: float = TOL_CURVATURE) -> CheckReport:
    """Vertical directions lie in the curvature constancy of the rescaled
    metric g_hat = g_H + 2 kappa g_V at level kappa/2:

        R^{g_hat}(V, X) Y = (kappa/2) (<X, Y>_hat V - <V, Y>_hat X).

    The curvature of g_hat is evaluated through the rescaled Levi-Civita
    connection nabla - T/2 + (J . + . J)/(2 eps) at eps = 1/(2 kappa), as
    frame components on the g-orthonormal frame (x, then z), where g_hat is
    diag(1_n, 2 kappa 1_m); so the right side is one constant array.  On a
    circle fibration (m = 1) the identity holds at every kappa (measured on
    complex-hopf-s3 and -s5 at kappa 0.5, 1, 2 and 3), so of the catalog
    only the m = 3 models show a wrong kappa.  For sphere models the report
    also records how far g_hat is from the round metric, whose Gram matrix
    on the tangent frame is the Euclidean one (zero exactly when 2 kappa
    matches the model's vertical scale).
    """
    if kappa == 0:
        raise InvalidModelError("curvature constancy requires kappa != 0")
    fb = frame_batch_for(model, points, seed)
    lhs = lc_curvature_components(fb, 1.0 / (2.0 * kappa))  # (P, m, F, F, F)
    n, m = model.n, model.m
    ghat = np.diag(np.repeat([1.0, 2.0 * kappa], [n, m]))
    eye = np.eye(n + m)
    rhs = (kappa / 2.0) * (np.einsum("bc,ad->abcd", ghat, eye[n:])
                           - np.einsum("ac,bd->abcd", ghat[n:], eye))
    worst = _worst(*(np.abs(lhs[c] - rhs).max()
                     for c in point_chunks(len(fb.points))))
    details = {"kappa": kappa, "rho": kappa / 2.0}
    if model.backend == "sphere":
        gram = fb.frame @ fb.frame.swapaxes(1, 2)
        details["ghat_round_residual"] = float(np.abs(gram - ghat).max())
    return CheckReport.from_residual("curvature-constancy", worst, tol,
                                     points, details)


#: the relative vertical scales eps at which ``check_oneill`` compares routes
ONEILL_EPS = (0.25, 1.0)


def check_oneill(model: FoliationModel, points: int = 32, seed: int = 42,
                 tol: float = TOL_CURVATURE) -> CheckReport:
    """Two-route check of the rescaled-metric curvature with one vertical
    slot, in frame components, at each eps of ``ONEILL_EPS``.

    Direct route: nested derivatives of the rescaled Levi-Civita connection.
    Closed form: -1/2 (nabla_V T)(X,Y) - 1/(2 eps) (nabla_X J)_V Y
    + 1/(4 eps) T(X, J_V Y) for horizontal X, Y; the leaf curvature
    R_V(V, X) Y when X, Y are vertical.
    """
    fb = frame_batch_for(model, points, seed)
    n = model.n
    # the closed form's terms over [p, a, i, j]: the components along x_k of
    # (nabla_{x_i} J)_{z_a} x_j, and along z_b of (nabla_{z_a} T)(x_i, x_j)
    # and of T(x_i, J_{z_a} x_j)
    nabla_j = nabla_t_components(fb, "h").transpose(0, 2, 1, 3, 4)
    nabla_t = np.moveaxis(nabla_t_components(fb, "v"), 2, 4)
    t_j = np.einsum("pakj,pbik->paijb", j_endomorphisms(fb),
                    torsion_components(fb))
    r_v = curvature_components(fb, "v", "v", "v")
    worst = 0.0
    for eps in ONEILL_EPS:
        direct_h = lc_curvature_components(fb, eps, "h", "h")  # (P, m, n, n, F)
        closed_h = np.empty_like(direct_h)
        closed_h[..., :n] = (-0.5 / eps) * nabla_j
        closed_h[..., n:] = -0.5 * nabla_t + (0.25 / eps) * t_j
        direct_v = lc_curvature_components(fb, eps, "v", "v")
        worst = _worst(worst, np.abs(direct_h - closed_h).max(),
                       np.abs(direct_v - r_v).max())
    return CheckReport.from_residual("oneill-variation", worst, tol, points,
                                     {"eps_values": list(ONEILL_EPS)})


# ---------------------------------------------------------------------------
# the identity suite


def check_lemma_identities(model: FoliationModel, points: int = 32,
                           seed: int = 42, tol: float = TOL_CURVATURE,
                           kappa: float | None = None) -> list[CheckReport]:
    """Componentwise verification of the structural identities:

    * skew-symmetry of vertical Clifford derivatives,
    * the curvature decomposition R = R_H + R_V + (nabla_. T),
    * the commutator identity [R_H(X, Y), J_Z] in its covariant form, plus
      the kappa form when a structure constant is supplied,
    * the sectional-norm identity ||(nabla_Z J)_W X||^2 = <R(Z, W) W, Z>,
    * the trace helper (nabla_{J_W X} J)_W X = (nabla_X J)_W J_W X.
    """
    fb = frame_batch_for(model, points, seed)
    n, m = model.n, model.m
    reports = []

    nt_v = nabla_t_components(fb, "v")                     # (P, m, m, n, n)
    skew = float(np.abs(nt_v + nt_v.transpose(0, 2, 1, 3, 4)).max())
    reports.append(CheckReport.from_residual("nablaJ-skew", skew, tol, points))

    # R - R_H - R_V - (nabla_W T)(U, V), W = slot 3, for U horizontal and
    # then vertical, one point chunk at a time, so that the residual exists
    # one chunk of one half at a time; R_H and R_V are the all-horizontal
    # and all-vertical blocks of R, and the nabla T term is subtracted on
    # every block; 0 - 0 where both are exact zeros
    worst = 0.0
    for domain, block in (("h", slice(None, n)), ("v", slice(n, None))):
        R = curvature_components(fb, domain, "all", "all")  # [p, u, v, w]
        if domain == "h":              # R_H(x_i, x_j) as endomorphisms
            rh_endo = R[:, :, :n, :n, :n].transpose(0, 1, 2, 4, 3)
        nt = nabla_t_frame(fb, "all", domain, "all").transpose(0, 2, 3, 1, 4)
        if exact_zero(R) and exact_zero(nt):
            continue
        for c in point_chunks(len(fb.points)):
            resid = R[c] - nt[c]
            resid[:, :, block, block] = -nt[c][:, :, block, block]
            worst = _worst(worst, np.abs(resid, out=resid).max())
    reports.append(CheckReport.from_residual(
        "curvature-decomposition", worst, tol, points))

    t_comp, J = torsion_components(fb), j_endomorphisms(fb)
    kappa_form = kappa if m >= 2 else None
    worst_cov = worst_kappa = 0.0
    for c in point_chunks(len(fb.points)):
        cov, kap = _commutator_residuals(rh_endo[c], J[c], t_comp[c],
                                         nt_v[c], kappa_form)
        worst_cov, worst_kappa = _worst(worst_cov, cov), _worst(worst_kappa,
                                                                kap)
    reports.append(CheckReport.from_residual(
        "commutator-covariant", worst_cov, tol, points))
    if kappa_form is not None:
        reports.append(CheckReport.from_residual(
            "commutator-kappa", worst_kappa, tol, points, {"kappa": kappa}))

    sect = vertical_sectional(fb)                          # (P, m, m)
    worst_sect = 0.0
    if m >= 2:
        per_i = (nt_v ** 2).sum(axis=-1)                   # (P, m, m, n)
        mask = ~np.eye(m, dtype=bool)
        worst_sect = float(np.abs((per_i - sect[..., None])[:, mask]).max())
    reports.append(CheckReport.from_residual(
        "vertical-sectional-norm", worst_sect, tol, points))

    nt_h = nabla_t_components(fb, "h")                     # (P, n, m, n, n)
    trace = 0.0
    if not (exact_zero(nt_h) and _finite(J)):
        lhs_e = np.einsum("paki,pkaij->paij", J, nt_h)
        rhs_e = np.einsum("pali,pialj->paij", J, nt_h)
        trace = float(np.abs(lhs_e - rhs_e).max())
    reports.append(CheckReport.from_residual(
        "ym-helper-trace", trace, tol, points))
    return reports


def _commutator_residuals(rh_endo: np.ndarray, J: np.ndarray,
                          t_comp: np.ndarray, nt_v: np.ndarray,
                          kappa: float | None) -> tuple[float, float]:
    """The worst residuals of [R_H(x_i, x_j), J_a] against its covariant
    form and, given ``kappa``, its kappa form (else 0.0) over a point batch:
    R_H as endomorphisms (P, n, n, n, n), J and the torsion (P, m, n, n),
    and nabla_{z_a} T (P, m, m, n, n).  One i at a time, in the layout
    [p, j, a, k, u]: R_H J_a against the J_a side by side (read through a
    transposed view), J_a R_H against them stacked, and each sum over b
    one matmul per point.  The commutator is dropped for an exact-zero R_H,
    the covariant form for an exact-zero nabla T and the kappa form for
    kappa 0, where their other factors are finite."""
    P, m, n = J.shape[:3]
    shape = (P, n, m, n, n)
    with_rh = not (exact_zero(rh_endo) and _finite(J))
    with_nt = not (exact_zero(nt_v) and _finite(J, t_comp))
    with_kappa = kappa is not None and not (kappa == 0 and _finite(J))
    beside = J.transpose(0, 2, 1, 3).reshape(P, 1, n, m * n)  # [p, k, (a, u)]
    stacked = J.reshape(P, 1, m * n, n)                       # [p, (a, k), u]
    J_b = J.reshape(P, m, n * n)

    def rows(x, *axes):             # the left factors [i, p, rows, b]
        return np.ascontiguousarray(x.transpose(*axes)).reshape(n, P, -1, m)
    if with_rh:
        rh_endo = np.ascontiguousarray(rh_endo)
    if with_nt:
        # sum_b T^b_{ij} (nabla_b J)_a + sum_b (nabla_a T)^b_{ij} J_b
        t_rows, nt_rows = rows(t_comp, 2, 0, 3, 1), rows(nt_v, 3, 0, 4, 1, 2)
        dJ = nt_v.transpose(0, 1, 2, 4, 3).reshape(P, m, -1)
    if with_kappa:
        # sum_{b != a} (J_b)_{ji} J_a J_b - (J_a J_b)_{ji} J_b
        pairs = J[:, :, None] @ J[:, None, :]      # J_a J_b, (P, m, m, n, n)
        pairs[:, np.arange(m), np.arange(m)] = 0.0            # only b != a
        j_rows, pair_rows = rows(J, 3, 0, 2, 1), rows(pairs, 4, 0, 3, 1, 2)
        pairs_ba = pairs.transpose(0, 2, 1, 3, 4).reshape(P, m, -1)
    worst_cov = worst_kappa = 0.0
    for i in range(n):
        comm = cov = kap = None
        if with_rh:
            M = rh_endo[:, i]                               # [p, j, k, u]
            comm = (stacked @ M).reshape(shape)
            right = (M @ beside).reshape(P, n, n, m, n).swapaxes(2, 3)
            np.subtract(right, comm, out=comm)              # [p, j, a, k, u]
        if with_nt:
            cov = (t_rows[i] @ dJ).reshape(shape)
            cov += (nt_rows[i] @ J_b).reshape(shape)
        if with_kappa:
            kap = (j_rows[i] @ pairs_ba).reshape(shape)
            kap -= (pair_rows[i] @ J_b).reshape(shape)
            kap *= kappa
        worst_cov = _worst(worst_cov, _residual(cov, comm))
        if kappa is not None:
            worst_kappa = _worst(worst_kappa, _residual(kap, comm))
    return worst_cov, worst_kappa


def _residual(terms: np.ndarray | None, comm: np.ndarray | None) -> float:
    """max |terms - comm|, either of them None where it is dropped."""
    if terms is None:
        return 0.0 if comm is None else float(np.abs(comm).max())
    if comm is not None:
        terms -= comm
    return float(np.abs(terms, out=terms).max())
