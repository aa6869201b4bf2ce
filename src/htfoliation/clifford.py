"""Real Clifford algebras with negative-definite generators and their matrix modules.

Conventions fixed here and relied on everywhere else:

* generator relation ``e_i . e_j + e_j . e_i = -2 delta_ij`` (so v.v = -||v||^2),
  matching skew generators with square -Identity on the module side;
* blade keys are strictly increasing tuples of 0-based generator indices,
  the empty tuple being the scalar blade;
* for m = 3 mod 4 two inequivalent irreducible modules exist; the block
  tagged ``+`` is normalized so that the volume element J_1 ... J_m equals
  +Identity, and the ``-`` block is the same module with the first generator
  negated (volume element -Identity).

All generator matrices produced here have integer entries, so the relation
checks below them are exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError

Blade = tuple[int, ...]


# ---------------------------------------------------------------------------
# elements


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

    def grade(self, k: int) -> "CliffordElement":
        return CliffordElement(self.m, {b: c for b, c in self.coeffs.items()
                                        if len(b) == k})

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


# ---------------------------------------------------------------------------
# representations


@dataclass(frozen=True)
class CliffordRepresentation:
    """m anticommuting skew-symmetric matrices acting on R^n."""

    m: int
    n: int
    generators: np.ndarray  # (m, n, n)

    def validate(self, tol: float = 1e-12) -> None:
        gens = self.generators
        if gens.shape != (self.m, self.n, self.n):
            raise DimensionMismatchError("generator array has wrong shape")
        eye = np.eye(self.n)
        for i in range(self.m):
            if np.abs(gens[i] + gens[i].T).max() > tol:
                raise ValueError(f"generator {i} is not skew-symmetric")
            for j in range(i, self.m):
                anti = gens[i] @ gens[j] + gens[j] @ gens[i]
                target = -2.0 * eye if i == j else 0.0
                if np.abs(anti - target).max() > tol:
                    raise ValueError(
                        f"generators {i},{j} violate the anticommutation relation")

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n,
                "generators": [g.tolist() for g in self.generators]}

    @classmethod
    def from_json(cls, obj: dict | str, tol: float = 1e-12) -> "CliffordRepresentation":
        if isinstance(obj, str):
            obj = json.loads(obj)
        rep = cls(int(obj["m"]), int(obj["n"]),
                  np.asarray(obj["generators"], dtype=np.float64))
        rep.validate(tol)
        return rep


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


# ---------------------------------------------------------------------------
# construction of irreducible modules

_IOTA = np.array([[0.0, -1.0], [1.0, 0.0]])      # rotation by pi/2, iota^2 = -I
_TAU = np.array([[1.0, 0.0], [0.0, -1.0]])       # reflection, tau^2 = I
_SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]])     # swap, sigma1^2 = I


def _quaternion_right_matrices() -> np.ndarray:
    """Right multiplication by i, j, k on R^4 = H with basis (1, i, j, k).

    These anticommute, are skew, and their ordered product is +Identity.
    """
    ri = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], float)
    rj = np.array([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]], float)
    rk = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], float)
    return np.stack([ri, rj, rk])


@lru_cache(maxsize=1)
def _octonion_left_matrices() -> np.ndarray:
    """Left multiplication by the seven imaginary octonion units on R^8.

    The multiplication table is the cyclic Fano convention with triples
    (i, i+1, i+3) mod 7 on 1-based imaginary indices.
    """
    triples = [(1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7),
               (5, 6, 1), (6, 7, 2), (7, 1, 3)]
    table = np.zeros((8, 8, 8))          # e_a e_b = sum_c table[a,b,c] e_c
    table[0, :, :] = np.eye(8)
    table[:, 0, :] = np.eye(8)
    for a in range(1, 8):
        table[a, a, 0] = -1.0
    for (a, b, c) in triples:
        for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
            table[x, y, z] = 1.0
            table[y, x, z] = -1.0
    mats = np.zeros((7, 8, 8))
    for a in range(1, 8):
        mats[a - 1] = table[a].T         # column b of L_a is e_a * e_b
    return mats


def minimal_dimension(m: int) -> int:
    """Smallest n admitting m anticommuting skew complex structures on R^n."""
    if m < 1:
        raise ValueError("m must be >= 1")
    base = [2, 4, 4, 8, 8, 8, 8, 16]
    if m <= 8:
        return base[m - 1]
    return 16 * minimal_dimension(m - 8)


def _irreducible_generators(m: int) -> np.ndarray:
    """One irreducible m-generator system on R^{d(m)}; for m = 3 mod 4 the
    volume element J_1 ... J_m is normalized to +Identity."""
    if m == 1:
        gens = _IOTA[None, :, :].copy()
    elif m <= 3:
        gens = _quaternion_right_matrices()[:m].copy()
    elif m <= 7:
        gens = _octonion_left_matrices()[:m].copy()
    elif m == 8:
        oct7 = _octonion_left_matrices()
        gens = np.stack([np.kron(oct7[i], _TAU) for i in range(7)]
                        + [np.kron(np.eye(8), _IOTA)])
    else:
        inner = _irreducible_generators(m - 8)
        eight = _irreducible_generators(8)
        omega = np.eye(16)
        for g in eight:
            omega = omega @ g
        d = inner.shape[1]
        gens = np.stack([np.kron(g, omega) for g in inner]
                        + [np.kron(np.eye(d), g) for g in eight])
    if m % 4 == 3:
        vol = np.eye(gens.shape[1])
        for g in gens:
            vol = vol @ g
        if vol[0, 0] < 0:
            gens[0] = -gens[0]
    return gens


def build_representation(m: int, multiplicity: int = 1,
                         chirality_pattern=None) -> CliffordRepresentation:
    """Block-diagonal sum of irreducible modules, n = multiplicity * d(m).

    ``chirality_pattern`` is a sequence of +1/-1 per block and is meaningful
    only for m = 3 mod 4 (where two inequivalent irreducibles exist, told
    apart by the sign of the volume element J_1 ... J_m); it is ignored
    otherwise.  Default pattern is all +1.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if multiplicity < 1:
        raise ValueError("multiplicity must be >= 1")
    if chirality_pattern is None:
        chirality_pattern = [1] * multiplicity
    chirality_pattern = [int(np.sign(s)) or 1 for s in chirality_pattern]
    if len(chirality_pattern) != multiplicity:
        raise ValueError("chirality pattern length must equal multiplicity")
    base = _irreducible_generators(m)
    d = base.shape[1]
    n = multiplicity * d
    gens = np.zeros((m, n, n))
    for b, sign in enumerate(chirality_pattern):
        block = base.copy()
        if m % 4 == 3 and sign < 0:
            block[0] = -block[0]
        sl = slice(b * d, (b + 1) * d)
        gens[:, sl, sl] = block
    rep = CliffordRepresentation(m, n, gens)
    rep.validate()
    return rep


# ---------------------------------------------------------------------------
# structure of the generated algebra


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
