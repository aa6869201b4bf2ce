"""Catalog of concrete foliation models and JSON ingestion.

Group models live on R^{n+m} with coordinates (x, z) and the left-invariant
frame X_i = d/dx_i + (1/2) sum_a (A^a x)_i d/dz_a, Z_a = d/dz_a of a
two-step nilpotent group, where the A^a are the generator matrices of a
Clifford representation.  Sphere models live on S^{N-1} with linear Killing
vertical fields: Z(p) = i p for the circle fibration of complex projective
space, Z_a(p) = p e_a (right quaternion multiplication by i, j, k, acting
blockwise on coordinate 4-blocks ordered (1, i, j, k)) for the SU(2)
fibration of quaternionic projective space.

Vertical fields are stored at round-unit length and the metric scale epsilon
absorbs any normalization: the round sphere (epsilon = 1) measures
lambda = 4 in the H-type fit and becomes H-type at epsilon = 4.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
import numpy as np

from . import checks as _checks
from .clifford import (_IOTA, CliffordRepresentation, _quaternion_right_matrices,
                       build_representation)
from .errors import InvalidModelError
from .foliation import GROUP, SPHERE, FoliationModel, horizontal_part
from .geometry import (AmbientChart, EUCLIDEAN, MAX_AMBIENT_DIM, UNIT_SPHERE,
                       Polynomial, PolyField)


@dataclass(frozen=True)
class ModelSpec:
    """Catalog row: how to build a model and what to expect from it."""

    kind: str                  # htype-group | complex-hopf | quaternionic-hopf
    name: str
    n: int
    m: int
    epsilon: float
    expected_class: str        # completely-parallel | horizontally-parallel | yang-mills-only
    expected_kappa: float | None
    params: dict
    strict_htype: bool = True  # False for demonstration models meant to fail the fit

    def to_json(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# constructors


def group_model_from_matrices(generators, epsilon: float = 1.0,
                              name: str = "custom-group",
                              require_htype: bool = True) -> FoliationModel:
    """Two-step group model from skew matrices A^a; the H-type anticommutation
    relations are enforced unless ``require_htype`` is disabled (every skew
    family still yields a totally geodesic foliation)."""
    gens = np.asarray(generators, dtype=np.float64)
    if gens.ndim != 3 or gens.shape[1] != gens.shape[2]:
        raise InvalidModelError("generators must be a stack of square matrices")
    if not np.isfinite(gens).all():
        raise InvalidModelError("generators must be finite")
    m, n = gens.shape[0], gens.shape[1]
    for a in range(m):
        if np.abs(gens[a] + gens[a].T).max() > 1e-12:
            raise InvalidModelError(f"generator {a} is not skew-symmetric")
    if require_htype:
        CliffordRepresentation(m, n, gens).validate()
    N = n + m
    chart = AmbientChart(EUCLIDEAN, N)
    horizontal = []
    for i in range(n):
        comps = [Polynomial.zero(N) for _ in range(N)]
        comps[i] = Polynomial.constant(N, 1.0)
        for a in range(m):
            row = Polynomial.zero(N)
            for j in range(n):
                if gens[a][i, j] != 0.0:
                    row = row + gens[a][i, j] * Polynomial.variable(N, j)
            comps[n + a] = 0.5 * row
        horizontal.append(PolyField(comps))
    vertical = [PolyField.basis(N, n + a) for a in range(m)]
    return FoliationModel(name, GROUP, chart, n, m, epsilon,
                          vertical, horizontal)


def htype_group(rep: CliffordRepresentation, epsilon: float = 1.0,
                name: str | None = None) -> FoliationModel:
    """Heisenberg-type group model of a Clifford representation."""
    rep.validate()
    if name is None:
        name = f"htype-group-m{rep.m}-n{rep.n}"
    return group_model_from_matrices(rep.generators, epsilon, name)


def _complex_structure(N: int) -> np.ndarray:
    """Multiplication by i on R^N = C^{N/2}, coordinates paired (x, y)."""
    return np.kron(np.eye(N // 2), _IOTA)


def _quaternion_right_blocks(N: int) -> np.ndarray:
    """Right multiplication by i, j, k on R^N = H^{N/4}, blocks (1, i, j, k)."""
    return np.stack([np.kron(np.eye(N // 4), r)
                     for r in _quaternion_right_matrices()])


def _sphere_model(name: str, matrices: np.ndarray, epsilon: float) -> FoliationModel:
    m, N = matrices.shape[0], matrices.shape[1]
    chart = AmbientChart(UNIT_SPHERE, N)
    vertical = [PolyField.linear(A) for A in matrices]
    # horizontal spanning family: projections of the ambient basis (on the
    # sphere the vertical fields are their own coframe)
    position = PolyField.position(N)
    horizontal = [horizontal_part(PolyField.basis(N, mu), vertical, vertical,
                                  position) for mu in range(N)]
    return FoliationModel(name, SPHERE, chart, N - 1 - m, m, epsilon,
                          vertical, horizontal)


def complex_hopf(k: int, epsilon: float = 4.0,
                 name: str | None = None) -> FoliationModel:
    """Circle fibration of S^{2k+1} over complex projective k-space."""
    if not 1 <= k <= (MAX_AMBIENT_DIM - 2) // 2:
        raise InvalidModelError(f"k must be in 1..{(MAX_AMBIENT_DIM - 2) // 2}")
    N = 2 * k + 2
    if name is None:
        name = f"complex-hopf-s{N - 1}"
    return _sphere_model(name, _complex_structure(N)[None, :, :], epsilon)


def quaternionic_hopf(k: int, epsilon: float = 4.0,
                      name: str | None = None) -> FoliationModel:
    """SU(2) fibration of S^{4k+3} over quaternionic projective k-space."""
    if not 1 <= k <= (MAX_AMBIENT_DIM - 4) // 4:
        raise InvalidModelError(f"k must be in 1..{(MAX_AMBIENT_DIM - 4) // 4}")
    N = 4 * k + 4
    if name is None:
        name = f"quaternionic-hopf-s{N - 1}"
    return _sphere_model(name, _quaternion_right_blocks(N), epsilon)


# ---------------------------------------------------------------------------
# catalog


def catalog() -> list[ModelSpec]:
    """Built-in models with their expected torsion class and kappa.

    ``expected_kappa`` is the constant of the vertical Clifford-derivative
    structure; for the circle fibrations (m = 1) the fit itself is an empty
    statement and the listed value 2 is the curvature-constancy scale of the
    round metric.  The two ``round-*-unnormalized`` rows demonstrate the
    lambda = 4 normalization gap and are expected to fail the H-type fit.
    """
    return [
        ModelSpec("htype-group", "heisenberg", 2, 1, 1.0,
                  "completely-parallel", 0.0, {"m": 1, "multiplicity": 1}),
        ModelSpec("htype-group", "heisenberg-quat", 4, 3, 1.0,
                  "completely-parallel", 0.0, {"m": 3, "multiplicity": 1}),
        ModelSpec("htype-group", "heisenberg-quat-mixed", 8, 3, 1.0,
                  "completely-parallel", 0.0,
                  {"m": 3, "multiplicity": 2, "chirality": [1, -1]}),
        ModelSpec("htype-group", "heisenberg-oct", 8, 7, 1.0,
                  "completely-parallel", 0.0, {"m": 7, "multiplicity": 1}),
        ModelSpec("complex-hopf", "complex-hopf-s3", 2, 1, 4.0,
                  "completely-parallel", 2.0, {"k": 1}),
        ModelSpec("complex-hopf", "complex-hopf-s5", 4, 1, 4.0,
                  "completely-parallel", 2.0, {"k": 2}),
        ModelSpec("quaternionic-hopf", "quaternionic-hopf-s7", 4, 3, 4.0,
                  "horizontally-parallel", 2.0, {"k": 1}),
        ModelSpec("quaternionic-hopf", "quaternionic-hopf-s11", 8, 3, 4.0,
                  "horizontally-parallel", 2.0, {"k": 2}),
        ModelSpec("complex-hopf", "round-s3-unnormalized", 2, 1, 1.0,
                  "completely-parallel", None, {"k": 1}, strict_htype=False),
        ModelSpec("quaternionic-hopf", "round-s7-unnormalized", 4, 3, 1.0,
                  "horizontally-parallel", None, {"k": 1}, strict_htype=False),
    ]


def get_spec(name: str) -> ModelSpec:
    for spec in catalog():
        if spec.name == name:
            return spec
    raise KeyError(f"no catalog model named {name!r}")


def build(spec: ModelSpec) -> FoliationModel:
    if spec.kind == "htype-group":
        rep = build_representation(spec.params["m"],
                                   spec.params.get("multiplicity", 1),
                                   spec.params.get("chirality"))
        return htype_group(rep, spec.epsilon, name=spec.name)
    if spec.kind == "complex-hopf":
        return complex_hopf(spec.params["k"], spec.epsilon, name=spec.name)
    if spec.kind == "quaternionic-hopf":
        return quaternionic_hopf(spec.params["k"], spec.epsilon, name=spec.name)
    raise InvalidModelError(f"unknown model kind {spec.kind!r}")


def get_model(name: str) -> FoliationModel:
    return build(get_spec(name))


def load_model(obj) -> FoliationModel:
    """Build a model from its JSON description and validate it.

    Schema: {"kind": str, "name": str, "epsilon": float, "rep": {...}} for
    group kinds (``rep`` as produced by CliffordRepresentation.to_json, its
    ``m`` and ``n`` JSON integers) or {"kind": ..., "name": ..., "epsilon":
    ..., "k": int} for sphere kinds, ``epsilon`` a JSON number and ``k`` a
    JSON integer.  The foliation axioms are checked on 16 points (seed 11,
    tolerance 1e-9) before the model is accepted.
    """
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise InvalidModelError("a model description is a JSON object")
    kind = obj.get("kind")
    name = obj.get("name", kind or "model")
    epsilon = obj.get("epsilon", 1.0)
    if type(epsilon) not in (int, float):
        raise InvalidModelError("epsilon must be a JSON number")
    # a model that overflows gets non-finite generators or residuals, which
    # fail the checks below, and no floating-point warning
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "htype-group":
            rep = CliffordRepresentation.from_json(obj["rep"])
            model = group_model_from_matrices(rep.generators, epsilon, name)
        elif kind == "custom":
            # explicit skew generators; a two-step group model that need
            # not be of H-type (the fit reports whatever lambda it measures)
            model = group_model_from_matrices(obj["rep"]["generators"],
                                              epsilon, name,
                                              require_htype=False)
        elif kind in ("complex-hopf", "quaternionic-hopf"):
            if type(obj["k"]) is not int:
                raise InvalidModelError("k must be a JSON integer")
            hopf = complex_hopf if kind == "complex-hopf" else quaternionic_hopf
            model = hopf(obj["k"], epsilon, name=name)
        else:
            raise InvalidModelError(f"unknown model kind {kind!r}")
        report = _checks.check_foliation_axioms(model, points=16, seed=11,
                                                tol=1e-9)
    if report.status != "pass":
        raise InvalidModelError(
            f"model {name!r} violates the foliation axioms "
            f"(residual {report.max_residual:.3e})")
    return model
