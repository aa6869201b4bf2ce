"""Real Clifford algebras with negative-definite generators and their matrix modules.

Conventions fixed here and relied on everywhere else:

* generator relation ``e_i . e_j + e_j . e_i = -2 delta_ij`` (so v.v = -||v||^2),
  matching skew generators with square -Identity on the module side;
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
            # written as ``not <=`` so that a NaN fails the bound
            if not np.abs(gens[i] + gens[i].T).max() <= tol:
                raise ValueError(f"generator {i} is not skew-symmetric")
            for j in range(i, self.m):
                anti = gens[i] @ gens[j] + gens[j] @ gens[i]
                target = -2.0 * eye if i == j else 0.0
                if not np.abs(anti - target).max() <= tol:
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


# ---------------------------------------------------------------------------
# construction of irreducible modules

_IOTA = np.array([[0.0, -1.0], [1.0, 0.0]])      # rotation by pi/2, iota^2 = -I
_TAU = np.array([[1.0, 0.0], [0.0, -1.0]])       # reflection, tau^2 = I


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
