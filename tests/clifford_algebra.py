"""Clifford-algebra elements and the algebra generated by a representation.

Reference code for the tests of ``htfoliation.clifford``, which builds only
the representations the models need.  Blade keys are strictly increasing
tuples of 0-based generator indices, the empty tuple being the scalar
blade; the product follows ``e_i e_j + e_j e_i = -2 delta_ij``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from htfoliation.clifford import CliffordRepresentation
from htfoliation.errors import DimensionMismatchError

Blade = tuple[int, ...]


class CliffordElement:
    """An element of Cl(R^m), stored as a map blade -> coefficient."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: dict[Blade, float] | None = None):
        self.m = int(m)
        clean: dict[Blade, float] = {}
        for blade, c in (coeffs or {}).items():
            blade = tuple(blade)
            if list(blade) != sorted(set(blade)):
                raise ValueError(f"blade {blade} is not a strictly increasing index set")
            if any(i < 0 or i >= m for i in blade):
                raise ValueError(f"blade {blade} out of range for m={m}")
            if c != 0.0:
                clean[blade] = float(c)
        self.coeffs = clean

    @classmethod
    def scalar(cls, m: int, value: float) -> "CliffordElement":
        return cls(m, {(): value})

    @classmethod
    def generator(cls, m: int, index: int) -> "CliffordElement":
        return cls(m, {(index,): 1.0})

    @classmethod
    def from_vector(cls, vec) -> "CliffordElement":
        vec = np.asarray(vec, dtype=np.float64)
        return cls(vec.size, {(i,): v for i, v in enumerate(vec) if v != 0.0})

    def grades(self) -> set[int]:
        return {len(b) for b in self.coeffs}

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = CliffordElement.scalar(self.m, other)
        if self.m != other.m:
            raise DimensionMismatchError("elements of different Clifford algebras")
        out = dict(self.coeffs)
        for b, c in other.coeffs.items():
            out[b] = out.get(b, 0.0) + c
        return CliffordElement(self.m, out)

    __radd__ = __add__

    def __neg__(self):
        return CliffordElement(self.m, {b: -c for b, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = CliffordElement.scalar(self.m, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return CliffordElement(self.m, {b: c * other for b, c in self.coeffs.items()})
        return geometric_product(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return geometric_product(other, self)

    def approx_eq(self, other, tol: float = 1e-12) -> bool:
        return (self - other).max_abs_coeff() <= tol

    def __repr__(self):
        if not self.coeffs:
            return "CliffordElement(0)"
        parts = []
        for blade in sorted(self.coeffs, key=lambda b: (len(b), b)):
            name = "1" if not blade else "e" + "e".join(str(i) for i in blade)
            parts.append(f"{self.coeffs[blade]:g}*{name}")
        return "CliffordElement(" + " + ".join(parts) + ")"


def _blade_product(a: Blade, b: Blade) -> tuple[Blade, int]:
    """Multiply basis blades under e_i e_i = -1 and anticommuting generators."""
    seq = list(a)
    sign = 1
    for x in b:
        greater = sum(1 for y in seq if y > x)
        sign *= (-1) ** greater
        if x in seq:
            seq.remove(x)
            sign = -sign
        else:
            seq.append(x)
            seq.sort()
    return tuple(seq), sign


def geometric_product(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    """Bilinear associative product with e_i e_j + e_j e_i = -2 delta_ij."""
    if a.m != b.m:
        raise DimensionMismatchError(
            f"cannot multiply elements with m={a.m} and m={b.m}")
    out: dict[Blade, float] = {}
    for ba, ca in a.coeffs.items():
        for bb, cb in b.coeffs.items():
            blade, sign = _blade_product(ba, bb)
            out[blade] = out.get(blade, 0.0) + sign * ca * cb
    return CliffordElement(a.m, out)


def wedge_to_cl2(z1, z2) -> CliffordElement:
    """Image of z1 ^ z2 under the identification z1 ^ z2 -> z1.z2 + <z1, z2>."""
    z1 = np.asarray(z1, dtype=np.float64)
    z2 = np.asarray(z2, dtype=np.float64)
    if z1.size != z2.size:
        raise DimensionMismatchError("vectors of different lengths")
    elem = geometric_product(CliffordElement.from_vector(z1),
                             CliffordElement.from_vector(z2))
    return elem + float(z1 @ z2)


def represent(rep: CliffordRepresentation, a: CliffordElement) -> np.ndarray:
    """Algebra homomorphism Cl(R^m) -> End(R^n); the scalar 1 maps to Identity."""
    if a.m != rep.m:
        raise DimensionMismatchError(
            f"element has m={a.m} but representation has m={rep.m}")
    out = np.zeros((rep.n, rep.n))
    for blade, c in a.coeffs.items():
        mat = np.eye(rep.n)
        for i in blade:
            mat = mat @ rep.generators[i]
        out += c * mat
    return out


def minimal_dimension(m: int) -> int:
    """Smallest n admitting m anticommuting skew complex structures on R^n."""
    if m < 1:
        raise ValueError("m must be >= 1")
    base = [2, 4, 4, 8, 8, 8, 8, 16]
    if m <= 8:
        return base[m - 1]
    return 16 * minimal_dimension(m - 8)


@dataclass(frozen=True)
class JAlgebraReport:
    """Bracket structure of the operator family {J_1 .. J_m}."""

    lie_dimension: int
    closed_under_bracket: bool
    sigma_scalar: int | None  # +1/-1 when J_1 J_2 J_3 = +/-Identity (m = 3 only)


def _span_rank(mats: list[np.ndarray], tol: float = 1e-9) -> int:
    flat = np.stack([m.ravel() for m in mats])
    return int(np.linalg.matrix_rank(flat, tol=tol))


def analyze_j_algebra(rep: CliffordRepresentation, tol: float = 1e-9) -> JAlgebraReport:
    """Dimension of the Lie algebra generated by the J matrices under commutators.

    For the structures built here the outcome is either 3 (the generators
    already close, quaternionic case), or dim so(m+1) = m(m+1)/2, or 1 when
    m = 1.  Also reports, for m = 3, whether the ordered product of the three
    generators is a scalar +/-Identity.
    """
    gens = [rep.generators[i] for i in range(rep.m)]
    basis = list(gens)
    rank = _span_rank(basis, tol)
    closed = None
    while True:
        brackets = []
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                brackets.append(basis[i] @ basis[j] - basis[j] @ basis[i])
        new_rank = _span_rank(basis + brackets, tol)
        if closed is None:
            closed = (new_rank == rank)
        if new_rank == rank:
            break
        # keep only an independent extension to bound the basis size
        pool = basis + brackets
        flat = np.stack([m.ravel() for m in pool])
        q, r = np.linalg.qr(flat.T)
        keep = np.abs(np.diag(r)) > tol * max(1.0, np.abs(r).max())
        basis = [pool[i] for i in np.nonzero(keep)[0]]
        rank = new_rank

    sigma_scalar = None
    if rep.m == 3:
        sigma = rep.generators[0] @ rep.generators[1] @ rep.generators[2]
        if np.abs(sigma - np.eye(rep.n)).max() <= tol:
            sigma_scalar = 1
        elif np.abs(sigma + np.eye(rep.n)).max() <= tol:
            sigma_scalar = -1
    return JAlgebraReport(rank, bool(closed), sigma_scalar)
