"""Exact polynomial vector-field calculus on flat charts and round spheres.

Everything downstream (connections, torsion, curvature) is built from
polynomial maps R^N -> R^N treated as vector fields on an ambient chart,
so that every derivative is computed symbolically and is exact up to
floating-point rounding of the coefficients.  On the unit-sphere chart the
convention is: projector formulas replace ||p||^2 by the constant 1, which
keeps all field transformers polynomial; the resulting expressions agree
with the true geometric objects at points with ||p|| = 1 and for tangent
directions, which is the only place they are ever evaluated.

Monomials are packed into single int64 keys (a fixed number of bits per
variable) so that sums, products and derivatives stay vectorized numpy
operations.  All structure constants in this package are dyadic rationals,
hence cancellation to exact zero actually occurs.

At a point batch, fields are known through their jets (PointField), whose
arithmetic is pointwise linear algebra.  Its per-point matrix-vector
products all run through one kernel, ``_pointwise``, which applies a
matrix to every leading entry of a batch of fields in one matmul.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatchError

EUCLIDEAN = "euclidean"
UNIT_SPHERE = "unit-sphere"

#: largest ambient dimension representable by the packed-exponent engine
MAX_AMBIENT_DIM = 16


def _packing_bits(n_vars: int) -> int:
    if not 1 <= n_vars <= MAX_AMBIENT_DIM:
        raise ValueError(f"ambient dimension must be in 1..{MAX_AMBIENT_DIM}, got {n_vars}")
    return min(15, 63 // n_vars)


def exponent_shifts(n_vars: int) -> tuple[np.ndarray, int]:
    """Bit offset of each variable's exponent in a packed key, and the mask
    of one exponent field: exponent i of ``key`` is
    ``(key >> shifts[i]) & mask``, and adding ``1 << shifts[i]`` multiplies
    the monomial by x_i."""
    bits = _packing_bits(n_vars)
    return bits * np.arange(n_vars, dtype=np.int64), (1 << bits) - 1


def _dedup(keys: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort by key, merge duplicates, drop exact-zero coefficients."""
    if keys.size == 0:
        return keys, coeffs
    if keys.size == 1:
        if coeffs[0] == 0.0:
            return keys[:0], coeffs[:0]
        return keys, coeffs
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    c = coeffs[order]
    starts = np.empty(k.size, dtype=bool)
    starts[0] = True
    np.not_equal(k[1:], k[:-1], out=starts[1:])
    idx = np.flatnonzero(starts)
    uniq = k[idx]
    acc = np.add.reduceat(c, idx)
    mask = acc != 0.0
    return uniq[mask], acc[mask]


class Polynomial:
    """A real polynomial in ``n_vars`` variables, stored in canonical form.

    Terms are kept as parallel arrays ``keys`` (packed exponents, strictly
    increasing) and ``coeffs`` (nonzero floats).  The empty term list is the
    zero polynomial.
    """

    __slots__ = ("n_vars", "_bits", "keys", "coeffs", "_degbound", "_partials")

    def __init__(self, n_vars: int, keys: np.ndarray | None = None,
                 coeffs: np.ndarray | None = None,
                 _degbound: int | None = None):
        self.n_vars = int(n_vars)
        self._bits = _packing_bits(self.n_vars)
        if keys is None:
            keys = np.empty(0, dtype=np.int64)
            coeffs = np.empty(0, dtype=np.float64)
        self.keys = keys
        self.coeffs = coeffs
        # upper bound on per-variable degrees, propagated through arithmetic
        # so the packing-overflow guard does not need to decode exponents
        self._degbound = _degbound
        self._partials = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n_vars: int) -> "Polynomial":
        return cls(n_vars)

    @classmethod
    def constant(cls, n_vars: int, value: float) -> "Polynomial":
        if value == 0.0:
            return cls(n_vars)
        return cls(n_vars, np.array([0], dtype=np.int64),
                   np.array([float(value)]))

    @classmethod
    def variable(cls, n_vars: int, index: int) -> "Polynomial":
        if not 0 <= index < n_vars:
            raise IndexError(f"variable index {index} out of range")
        bits = _packing_bits(n_vars)
        return cls(n_vars, np.array([1 << (bits * index)], dtype=np.int64),
                   np.array([1.0]))

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.keys.size == 0

    @property
    def n_terms(self) -> int:
        return self.keys.size

    def exponents(self) -> np.ndarray:
        """Decode packed keys into an (n_terms, n_vars) exponent array."""
        shifts, mask = exponent_shifts(self.n_vars)
        return ((self.keys[:, None] >> shifts[None, :]) & mask).astype(np.int64)

    def max_var_degrees(self) -> np.ndarray:
        if self.is_zero:
            return np.zeros(self.n_vars, dtype=np.int64)
        return self.exponents().max(axis=0)

    def _bound(self) -> int:
        if self._degbound is None:
            self._degbound = 0 if self.is_zero else int(self.max_var_degrees().max())
        return self._degbound

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if self.is_zero:
            return -1
        return int(self.exponents().sum(axis=1).max())

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.n_vars != other.n_vars:
            raise DimensionMismatchError(
                f"polynomials in {self.n_vars} and {other.n_vars} variables")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.n_vars, other)
        self._check(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        k, c = _dedup(np.concatenate([self.keys, other.keys]),
                      np.concatenate([self.coeffs, other.coeffs]))
        return Polynomial(self.n_vars, k, c,
                          max(self._bound(), other._bound()))

    __radd__ = __add__

    @classmethod
    def sum_of(cls, n_vars: int, polys) -> "Polynomial":
        """Sum of many polynomials with a single merge pass."""
        polys = [p for p in polys if not p.is_zero]
        if not polys:
            return cls(n_vars)
        if len(polys) == 1:
            return polys[0]
        k, c = _dedup(np.concatenate([p.keys for p in polys]),
                      np.concatenate([p.coeffs for p in polys]))
        return cls(n_vars, k, c, max(p._bound() for p in polys))

    def __neg__(self):
        return Polynomial(self.n_vars, self.keys, -self.coeffs, self._degbound)

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.n_vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            if other == 0.0:
                return Polynomial(self.n_vars)
            return Polynomial(self.n_vars, self.keys, self.coeffs * float(other),
                              self._degbound)
        self._check(other)
        if self.is_zero or other.is_zero:
            return Polynomial(self.n_vars)
        cap = (1 << self._bits) - 1
        md = self._bound() + other._bound()
        if md > cap:
            raise OverflowError("product exceeds packable per-variable degree")
        # single-term factors keep the key order strictly increasing
        if other.n_terms == 1:
            return Polynomial(self.n_vars, self.keys + other.keys[0],
                              self.coeffs * other.coeffs[0], md)
        if self.n_terms == 1:
            return Polynomial(self.n_vars, other.keys + self.keys[0],
                              other.coeffs * self.coeffs[0], md)
        keys = (self.keys[:, None] + other.keys[None, :]).ravel()
        coeffs = (self.coeffs[:, None] * other.coeffs[None, :]).ravel()
        k, c = _dedup(keys, coeffs)
        return Polynomial(self.n_vars, k, c, md)

    __rmul__ = __mul__

    def __pow__(self, power: int):
        if power < 0:
            raise ValueError("negative powers not supported")
        out = Polynomial.constant(self.n_vars, 1.0)
        for _ in range(power):
            out = out * self
        return out

    def partial(self, index: int) -> "Polynomial":
        """Exact partial derivative with respect to variable ``index``;
        memoized per instance (long-lived fields are differentiated often)."""
        if not 0 <= index < self.n_vars:
            raise IndexError(index)
        if self._partials is None:
            self._partials = [None] * self.n_vars
        cached = self._partials[index]
        if cached is not None:
            return cached
        if self.is_zero:
            out = Polynomial(self.n_vars)
        else:
            shift = self._bits * index
            mask = (1 << self._bits) - 1
            exp = (self.keys >> shift) & mask
            sel = exp > 0
            keys = self.keys[sel] - (np.int64(1) << shift)
            coeffs = self.coeffs[sel] * exp[sel]
            out = Polynomial(self.n_vars, keys, coeffs, self._degbound)
        self._partials[index] = out
        return out

    # -- evaluation --------------------------------------------------------

    def evaluate(self, points, cache: "MonomialCache | None" = None):
        """Evaluate at ``points`` of shape (P, n_vars) or a single (n_vars,).

        Passing a :class:`MonomialCache` built on the same point batch lets
        many polynomials share its power tables.
        """
        pts = np.asarray(points, dtype=np.float64)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        if pts.shape[1] != self.n_vars:
            raise DimensionMismatchError("point dimension mismatch")
        if self.is_zero:
            vals = np.zeros(pts.shape[0])
        else:
            if cache is None:
                cache = MonomialCache(pts)
            cols = cache.columns(self.keys, self.n_vars, self._bits)
            vals = cols @ self.coeffs
        return float(vals[0]) if single else vals

    # -- presentation ------------------------------------------------------

    def to_string(self) -> str:
        """Canonical rendering in increasing packed-key order, the
        variables named x0, x1, ..."""
        if self.is_zero:
            return "0"
        exps = self.exponents()
        pieces = []
        for t in range(self.n_terms):
            factors = [f"x{i}^{e}" if e > 1 else f"x{i}"
                       for i, e in enumerate(exps[t]) if e > 0]
            mono = "*".join(factors) if factors else "1"
            pieces.append(f"{self.coeffs[t]:g}*{mono}")
        return " + ".join(pieces)

    def __repr__(self):
        s = self.to_string()
        if len(s) > 60:
            s = s[:57] + "..."
        return f"Polynomial({self.n_vars} vars, {self.n_terms} terms: {s})"


class MonomialCache:
    """Monomial columns over a fixed point batch, as products of
    per-variable power tables that are grown lazily and shared by every
    call."""

    def __init__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        self.points = pts
        self._powers: list[np.ndarray] = [
            np.ones((pts.shape[0], 1)) for _ in range(pts.shape[1])]

    def _grow(self, var: int, degree: int) -> None:
        table = self._powers[var]
        have = table.shape[1] - 1
        if degree <= have:
            return
        cols = [table]
        last = table[:, -1]
        for _ in range(degree - have):
            last = last * self.points[:, var]
            cols.append(last[:, None])
        self._powers[var] = np.concatenate(cols, axis=1)

    def columns(self, keys: np.ndarray, n_vars: int, bits: int) -> np.ndarray:
        """The values (P, len(keys)) of the monomials with packed ``keys``."""
        shifts = bits * np.arange(n_vars, dtype=np.int64)
        exps = (keys[:, None] >> shifts[None, :]) & ((1 << bits) - 1)
        out = np.ones((self.points.shape[0], keys.size))
        for v in range(n_vars):
            ev = exps[:, v]
            top = int(ev.max(initial=0))
            if top == 0:
                continue
            self._grow(v, top)
            out *= self._powers[v][:, ev]
        return out


class PolyField:
    """A polynomial map R^N -> R^N used as a vector field on an ambient chart."""

    __slots__ = ("n_vars", "components")

    def __init__(self, components: Sequence[Polynomial]):
        components = tuple(components)
        if not components:
            raise ValueError("a field needs at least one component")
        n = components[0].n_vars
        for c in components:
            if c.n_vars != n:
                raise DimensionMismatchError("mixed-dimension components")
        if len(components) != n:
            raise DimensionMismatchError(
                f"{len(components)} components for {n} ambient variables")
        self.n_vars = n
        self.components = components

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n_vars: int) -> "PolyField":
        return cls([Polynomial.zero(n_vars)] * n_vars)

    @classmethod
    def constant(cls, vector) -> "PolyField":
        vec = np.asarray(vector, dtype=np.float64)
        n = vec.size
        return cls([Polynomial.constant(n, v) for v in vec])

    @classmethod
    def basis(cls, n_vars: int, index: int) -> "PolyField":
        comps = [Polynomial.zero(n_vars) for _ in range(n_vars)]
        comps[index] = Polynomial.constant(n_vars, 1.0)
        return cls(comps)

    @classmethod
    def position(cls, n_vars: int) -> "PolyField":
        """The identity map p -> p (the radial field)."""
        return cls([Polynomial.variable(n_vars, i) for i in range(n_vars)])

    @classmethod
    def linear(cls, matrix) -> "PolyField":
        """The field p -> A p for a square matrix A."""
        A = np.asarray(matrix, dtype=np.float64)
        n = A.shape[0]
        comps = []
        for i in range(n):
            poly = Polynomial.zero(n)
            for j in range(n):
                if A[i, j] != 0.0:
                    poly = poly + A[i, j] * Polynomial.variable(n, j)
            comps.append(poly)
        return cls(comps)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "PolyField") -> "PolyField":
        return PolyField([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "PolyField") -> "PolyField":
        return PolyField([a - b for a, b in zip(self.components, other.components)])

    def __neg__(self) -> "PolyField":
        return PolyField([-a for a in self.components])

    def scale(self, s) -> "PolyField":
        """Multiply every component by a scalar or a Polynomial."""
        return PolyField([c if c.is_zero else c * s for c in self.components])

    @classmethod
    def sum_of(cls, n_vars: int, fields) -> "PolyField":
        fields = list(fields)
        if not fields:
            return cls.zero(n_vars)
        return cls([Polynomial.sum_of(n_vars, [f.components[i] for f in fields])
                    for i in range(n_vars)])

    def dot(self, other: "PolyField") -> Polynomial:
        """Euclidean pairing of components (ambient inner product)."""
        return Polynomial.sum_of(self.n_vars,
                                 [a * b for a, b in
                                  zip(self.components, other.components)
                                  if not (a.is_zero or b.is_zero)])

    def apply_matrix(self, matrix) -> "PolyField":
        """Componentwise linear map F -> A F."""
        A = np.asarray(matrix, dtype=np.float64)
        return PolyField([
            Polynomial.sum_of(self.n_vars,
                              [A[i, j] * self.components[j]
                               for j in range(self.n_vars) if A[i, j] != 0.0])
            for i in range(self.n_vars)])

    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def evaluate(self, points, cache: MonomialCache | None = None) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        if cache is None:
            cache = MonomialCache(pts)
        out = np.stack([c.evaluate(pts, cache) for c in self.components], axis=1)
        return out[0] if single else out

    def __repr__(self):
        return f"PolyField({self.n_vars} vars)"


def _partial_terms(fields: Sequence[PolyField]):
    """Every term of every component of ``fields``, decoded at once: keys,
    coefficients and owners ``f * N + i`` (component i of field f), then the
    terms of the partials of those components (exact: a coefficient times
    an exponent) with their owners and the variable j of each."""
    N = fields[0].n_vars
    shifts, mask = exponent_shifts(N)
    comps = [c for f in fields for c in f.components]
    keys = np.concatenate([c.keys for c in comps])
    coeffs = np.concatenate([c.coeffs for c in comps])
    owner = np.repeat(np.arange(len(comps)), [c.n_terms for c in comps])
    exps = (keys[:, None] >> shifts[None, :]) & mask
    t, j = np.nonzero(exps)
    return ((keys, coeffs, owner),
            (keys[t] - (np.int64(1) << shifts[j]), coeffs[t] * exps[t, j],
             owner[t], j))


def field_jets(fields: Sequence[PolyField], cache: MonomialCache
               ) -> tuple[np.ndarray, np.ndarray]:
    """Order-1 jets of many fields at the cache's points: values (F, P, N)
    and Jacobians (F, P, N, N), ``jacobians[f, p, i, j] = d_j F_f^i (p)``.

    Every term of every component contributes its value and its partials,
    so all the monomials needed come from one ``MonomialCache.columns``
    call; the contributions are then summed per output in key order."""
    P = cache.points.shape[0]
    F = len(fields)
    N = fields[0].n_vars
    (keys, coeffs, owner), (d_keys, d_coeffs, d_owner, j) = \
        _partial_terms(fields)
    # outputs: F * N values, then F * N * N partials (row-major f, i, j)
    entry_keys = np.concatenate([keys, d_keys])
    entry_coeffs = np.concatenate([coeffs, d_coeffs])
    entry_out = np.concatenate([owner, F * N + d_owner * N + j])
    order = np.argsort(entry_out, kind="stable")
    entry_keys, entry_coeffs, entry_out = (
        entry_keys[order], entry_coeffs[order], entry_out[order])
    uniq, col = np.unique(entry_keys, return_inverse=True)
    flat = np.zeros((P, F * N * (N + 1)))
    starts = np.flatnonzero(np.diff(entry_out, prepend=-1))
    if starts.size:
        prods = cache.columns(uniq, N, _packing_bits(N))[:, col] * entry_coeffs
        flat[:, entry_out[starts]] = np.add.reduceat(prods, starts, axis=1)
    values = flat[:, :F * N].reshape(P, F, N).transpose(1, 0, 2)
    jacobians = flat[:, F * N:].reshape(P, F, N, N).transpose(1, 0, 2, 3)
    return values, jacobians


def field_partials(fields: Sequence[PolyField]) -> list[list[PolyField]]:
    """The exact partials d_j F of many fields, ``[f][j]``, in one pass: the
    terms of each partial (f, j, i) are cut out of one stable sort, so they
    keep the key order of their component and equal
    ``F.components[i].partial(j)``."""
    F, N = len(fields), fields[0].n_vars
    _, (keys, coeffs, owner, j) = _partial_terms(fields)
    # owner = f * N + i, so (f, j, i) is numbered (f * N + j) * N + i
    out = (owner - owner % N + j) * N + owner % N
    order = np.argsort(out, kind="stable")
    keys, coeffs = keys[order], coeffs[order]
    cuts = np.searchsorted(out[order], np.arange(F * N * N + 1))
    polys = [Polynomial(N, keys[a:b], coeffs[a:b])
             for a, b in zip(cuts[:-1], cuts[1:])]
    return [[PolyField(polys[(f * N + j) * N:(f * N + j + 1) * N])
             for j in range(N)] for f in range(F)]


class PointScalar:
    """A function known at a point batch through its order-1 jet: ``value``
    (..., P) and ``gradient`` (..., P, N), or None for an order-0 jet.  It is
    what ``PointField.dot`` returns and what ``PointField.scale`` takes, as
    Polynomial is for PolyField."""

    __slots__ = ("value", "gradient")

    def __init__(self, value: np.ndarray, gradient: np.ndarray | None = None):
        self.value = value
        self.gradient = gradient


class Support(NamedTuple):
    """Where a jet with finite parts may be nonzero (``PointField.support``;
    a jet with a non-finite part carries None): boolean masks (N,) of the
    coordinates j where some value F^j, some Jacobian row d F^j or some
    column d_j F is not 0.0, over every leading entry and point."""

    values: np.ndarray
    rows: np.ndarray
    cols: np.ndarray


class MatrixSupport(NamedTuple):
    """Where finite matrices A and their 1-jet dA (``PointField.
    apply_matrix``) may be nonzero: the rows and columns of A, and the rows
    i, directions k and columns j of ``dA[..., i, k, j]``."""

    rows: np.ndarray
    cols: np.ndarray
    d_rows: np.ndarray
    d_dirs: np.ndarray
    d_cols: np.ndarray


def matrix_support(A: np.ndarray, dA: np.ndarray | None = None
                   ) -> MatrixSupport | None:
    """The support of matrices A (..., N, N) and of their 1-jet dA
    (..., N, N, N), read off their entries (no dA: nothing in its masks);
    None when a part is not finite."""
    if not (np.isfinite(A).all() and (dA is None or np.isfinite(dA).all())):
        return None
    N = A.shape[-1]
    # the union over the leading axes first, then the small masks
    nz = (A != 0).reshape(-1, N, N).any(axis=0)
    d_nz = (np.zeros((N, N, N), dtype=bool) if dA is None
            else (dA != 0).reshape(-1, N, N, N).any(axis=0))
    return MatrixSupport(nz.any(axis=1), nz.any(axis=0),
                         d_nz.any(axis=(1, 2)), d_nz.any(axis=(0, 2)),
                         d_nz.any(axis=(0, 1)))


def _meet(a: np.ndarray, b: np.ndarray) -> bool:
    return bool((a & b).any())


class PointField:
    """A vector field known at a point batch through its jet of order <= 2.

    ``value`` has shape (..., P, N), ``jacobian`` (..., P, N, N) with
    ``jacobian[..., i, j] = d_j F^i``, and ``hessian`` (..., P, N, N, N) with
    ``hessian[..., i, j, k] = d_j d_k F^i``, where P may be 1 for a Hessian
    that does not depend on the point, or the scalar 0.0 for a Jacobian or
    a Hessian known to vanish, which no arithmetic stores or multiplies.
    Leading axes index a batch of fields and broadcast in arithmetic.  It
    offers the field operations that the connection formulas use, so those
    formulas run unchanged on symbolic fields and on jets; where they give
    a jet that is exactly zero, a product or a projection may give None.

    The arithmetic is truncated Taylor arithmetic (Griewank and Walther,
    *Evaluating Derivatives*, ch. 13): a sum or a product has the lowest
    order of its operands, products follow the Leibniz rule, and a
    derivative ``along`` a field lowers the order by one.  Products with
    pointwise scalars and matrices, which are known to order 1, stop at
    order 1.  ``keep`` caps the order that sums, products and derivatives
    compute, for results of which only lower orders are read; linear maps
    with constant coefficients keep every part.  ``at`` is whatever the
    creator attaches about the points (the foliation engine: its model's
    fields there); arithmetic carries it.

    ``support`` (a Support, or None for unknown or for a jet with a
    non-finite part, which skips all of this) is where the value and the
    Jacobian may be nonzero.  It propagates as
    the sparsity pattern does in forward-mode differentiation (Griewank
    and Walther, ch. 7):
    - linear maps on the leading axes (selection, placement, negation,
      constant scaling) keep it; scaling by a non-finite constant gives None;
    - a sum or a difference takes the union, None if either operand has
      None;
    - ``F.along(X)`` has a value only if the columns of J_F meet the values
      of X, on the rows of J_F, and a Jacobian J_F J_X only if those
      columns meet the rows of J_X; a Hessian term (a Hessian array and a
      value of X) makes the Jacobian full;
    - ``apply_matrix`` follows the same rules for A, A J_F and dA . F, with
      the matrices' support (MatrixSupport);
    - scaling by a PointScalar gives None.
    A product of operands with supports runs only the parts that can be
    nonzero (a Jacobian that cannot is the scalar 0.0), and a product none
    of whose parts can be is None without running.  An operand without one,
    a non-finite one included, runs the dense product, so that a NaN
    propagates.
    """

    __slots__ = ("value", "jacobian", "hessian", "at", "keep", "support")

    def __init__(self, value: np.ndarray, jacobian: np.ndarray | None = None,
                 hessian: np.ndarray | None = None, at=None, keep: int = 2,
                 support: Support | None = None):
        self.value = value
        self.jacobian = jacobian
        self.hessian = None if jacobian is None else hessian
        self.at = at
        self.keep = keep
        self.support = support

    @property
    def order(self) -> int:
        return 0 if self.jacobian is None else 1 if self.hessian is None else 2

    def _new(self, value, jacobian=None, hessian=None, keep=None,
             support=None) -> "PointField":
        return PointField(value, jacobian, hessian, self.at,
                          self.keep if keep is None else keep, support)

    def _map(self, fn) -> "PointField":
        """Apply one linear map to every stored part (a vanishing part stays
        0.0), keeping the support."""
        return self._new(*(fn(part) if isinstance(part, np.ndarray) else part
                           for part in (self.value, self.jacobian,
                                        self.hessian)), support=self.support)

    def truncated(self, keep: int) -> "PointField":
        """This jet to order 1, with its support, computing at most order
        ``keep`` in what follows."""
        return PointField(self.value, self.jacobian, None, self.at, keep,
                          self.support)

    def __getitem__(self, index) -> "PointField":
        """Select fields along the leading axes."""
        return self._map(lambda part: part[index])

    def _combine(self, other: "PointField", op) -> "PointField":
        keep = min(self.keep, other.keep)
        order = min(self.order, other.order, keep)
        pairs = zip((self.value, self.jacobian, self.hessian),
                    (other.value, other.jacobian, other.hessian))
        s, t = self.support, other.support
        support = None if s is None or t is None else Support(
            s.values | t.values, s.rows | t.rows, s.cols | t.cols)
        return self._new(*(_sum(a, b, op)
                           for a, b in list(pairs)[:order + 1]),
                         keep=keep, support=support)

    def __add__(self, other: "PointField") -> "PointField":
        return self._combine(other, np.add)

    def __sub__(self, other: "PointField") -> "PointField":
        return self._combine(other, np.subtract)

    def __neg__(self) -> "PointField":
        return self._map(np.negative)

    def scale(self, s) -> "PointField":
        """Multiply by a constant or by a PointScalar (Leibniz rule)."""
        if not isinstance(s, PointScalar):
            out = self._map(lambda part: part * s)
            if not np.isfinite(s):
                out.support = None
            return out
        value = self.value * s.value[..., None]
        if min(self.order, self.keep) < 1 or s.gradient is None:
            return self._new(value)
        term = self.value[..., :, None] * s.gradient[..., None, :]
        if not isinstance(self.jacobian, np.ndarray):
            return self._new(value, term)
        jacobian = self.jacobian * s.value[..., None, None]
        jacobian += term
        return self._new(value, jacobian)

    @classmethod
    def sum_of(cls, n_vars: int, fields) -> "PointField | None":
        """The sum of the fields, None for none."""
        fields = list(fields)
        if not fields:
            return None
        out = fields[0]
        for f in fields[1:]:
            out = out + f
        return out

    def dot(self, other: "PointField") -> PointScalar:
        """Pointwise Euclidean pairing, a scalar jet of order <= 1."""
        value = np.einsum("...n,...n->...", self.value, other.value)
        if min(self.order, other.order, self.keep, other.keep) < 1:
            return PointScalar(value)
        grad = 0.0
        for a, b in ((self, other), (other, self)):
            if isinstance(a.jacobian, np.ndarray):
                grad = _sum(grad, b.value[..., None, :] @ a.jacobian, np.add)
        if not isinstance(grad, np.ndarray):
            grad = np.zeros(value.shape + (1, self.value.shape[-1]))
        return PointScalar(value, grad[..., 0, :])

    def apply_matrix(self, matrix, jacobian=None,
                     support: MatrixSupport | None = None
                     ) -> "PointField | None":
        """F -> A F for a constant matrix A (N, N), or for pointwise matrices
        A (P, N, N) known through their 1-jet, given as ``jacobian``
        (P, N, N, N) with ``jacobian[p, i, k, j] = d_k A^i_j``, and their
        ``support`` (None for unknown; a constant matrix's is read off it).
        None where the product is exactly zero (see PointField)."""
        A = np.asarray(matrix, dtype=np.float64)
        if jacobian is not None:
            jet = min(self.order, self.keep) >= 1
            run, support = _plan(support, self.support, jet)
            if not any(run):
                return None
            value, out = self._apply(A, jacobian, A.shape[:-1], run, jet)
            return self._new(value, out, support=support)
        if self.support is not None:
            support = matrix_support(A)
        run, out = _plan(support, self.support, self.jacobian is not None)
        # A H: the Hessian's own support is not kept, so it runs whenever A
        # has a nonzero column
        H = self.hessian
        if isinstance(H, np.ndarray):
            H = ((A @ H.reshape(H.shape[:-2] + (-1,))).reshape(H.shape)
                 if out is None or support.cols.any() else 0.0)
        if not (any(run) or isinstance(H, np.ndarray)):
            return None
        J = self.jacobian
        if J is not None:
            J = A @ J if run[1] and isinstance(J, np.ndarray) else 0.0
        return self._new(self.value @ A.T if run[0]
                         else np.zeros_like(self.value), J, H, support=out)

    def along(self, X: "PointField") -> "PointField | None":
        """The derivative D_X F, one order below F (and no higher than X);
        None where it is exactly zero (see PointField)."""
        if self.jacobian is None:
            raise ValueError("an order-0 jet cannot be differentiated")
        keep = min(self.keep, X.keep)
        jet = min(self.order - 1, X.order, keep) >= 1
        # sum_j H[..., i, k, j] x_j = sum_j H[..., i, j, k] x_j, since
        # Hessians are symmetric: H is the 1-jet of J_F as apply_matrix
        # reads it
        H, s = self.hessian, self.support
        if s is not None and X.support is not None:
            full = np.full(len(s.rows), isinstance(H, np.ndarray))
            s = MatrixSupport(s.rows, s.cols, full, full, full)
        run, support = _plan(s, X.support, jet)
        if not any(run):
            return None
        value, out = X._apply(self.jacobian, H, self.value.shape, run, jet)
        return self._new(value, out, keep=keep, support=support)

    def _apply(self, M, dM, lead: tuple, run: tuple, jet: bool):
        """The value M x and, when ``jet``, the Jacobian M J_x + dM . x,
        with ``(dM . x)[..., i, k] = sum_j dM[..., i, k, j] x^j``, of
        pointwise matrices M (..., P, R, N) with their 1-jet dM
        (..., P, R, N, N) applied to this jet x, running only the parts
        ``run`` (``_plan``) and multiplying no part that is the scalar 0.0:
        a value that is not run is zeros of the broadcast of ``lead`` and
        x's value, a Jacobian 0.0."""
        if run[0] and isinstance(M, np.ndarray):
            value = _pointwise(M, self.value)
        else:
            value = np.zeros(np.broadcast_shapes(lead, self.value.shape))
        if not jet:
            return value, None
        out = 0.0
        if run[1] and isinstance(M, np.ndarray) and isinstance(
                self.jacobian, np.ndarray):
            out = M @ self.jacobian
        if run[2] and isinstance(dM, np.ndarray):
            N = dM.shape[-1]
            term = _pointwise(dM.reshape(dM.shape[:-3] + (N * N, N)),
                              self.value).reshape(value.shape + (N,))
            if isinstance(out, np.ndarray):
                out += term
            else:
                out = term
        return value, out

    def __repr__(self):
        return f"PointField({self.value.shape}, order {self.order})"


def _sum(a, b, op):
    """``op(a, b)``, np.add or np.subtract, of jet parts of which either may
    be the scalar 0.0."""
    if isinstance(b, np.ndarray):
        if isinstance(a, np.ndarray):
            return op(a, b)
        return -b if op is np.subtract else b
    return a


#: ``_plan`` of a product that runs dense: every part, no support (the
#: Jacobian's terms run only when it is computed)
_DENSE = ((True, True, True), None)


def _plan(m: MatrixSupport | None, s: Support | None, jet: bool
          ) -> tuple[tuple[bool, bool, bool], Support | None]:
    """Which parts of a product A F can be nonzero, for matrices A with
    their 1-jet dA (support ``m``) and a jet F (support ``s``): the value
    A F, then the terms A J_F and dA . F of the Jacobian when ``jet``; and
    the product's support.  Every part, with no support, unless both
    supports are known."""
    if m is None or s is None:
        return _DENSE
    run = (_meet(m.cols, s.values), jet and _meet(m.cols, s.rows),
           jet and _meet(m.d_cols, s.values))
    none = np.zeros(len(m.rows), dtype=bool)
    return run, Support(m.rows if run[0] else none,
                        (m.rows if run[1] else none)
                        | (m.d_rows if run[2] else none),
                        (s.cols if run[1] else none)
                        | (m.d_dirs if run[2] else none))


def _pointwise(T: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j T[..., p, r, j] x[..., p, j], shape (..., P, R): per-point
    matrices T (..., P, R, N), or one the same at every point
    (..., 1, R, N), applied to the vectors x (..., P, N).

    When the leading shapes broadcast as an outer product (no axis longer
    than 1 in both), every leading entry of x goes through one matmul per
    point and leading entry of T, in place of a matrix-vector product per
    pair of entries and point; otherwise the broadcast matmul runs.  T is
    read in place, never copied or broadcast over the points, and the
    result is a view of the matmul's output, each row block R contiguous."""
    lt, lx = T.shape[:-3], x.shape[:-2]
    d = max(len(lt), len(lx))
    lt, lx = (1,) * (d - len(lt)) + lt, (1,) * (d - len(lx)) + lx
    if any(a > 1 and b > 1 for a, b in zip(lt, lx)):
        return (T @ x[..., None])[..., 0]
    P, N = x.shape[-2:]
    R = T.shape[-2]
    out = (np.moveaxis(x, -2, 0).reshape(P, -1, N)
           @ T.reshape(lt + T.shape[-3:]).swapaxes(-1, -2))
    out = out.reshape(lt + (P,) + lx + (R,))
    # interleave the leading axes of T and x, then the point and row axes
    order = [ax for k in range(d) for ax in (k, d + 1 + k)] + [d, 2 * d + 1]
    return out.transpose(order).reshape(
        tuple(a * b for a, b in zip(lt, lx)) + (P, R))


@dataclass(frozen=True)
class AmbientChart:
    """Either flat R^N or the unit sphere S^{N-1} inside R^N."""

    kind: str
    n_vars: int

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, UNIT_SPHERE):
            raise ValueError(f"unknown chart kind {self.kind!r}")
        _packing_bits(self.n_vars)
        if self.kind == UNIT_SPHERE and self.n_vars < 2:
            raise ValueError("unit-sphere chart needs ambient dimension >= 2")


# ---------------------------------------------------------------------------
# differential operators


def directional_derivative(X, f):
    """Exact derivative D_X f = sum_i X^i d_i f for f a Polynomial or
    PolyField, or for f a PointField with Jacobians (see PointField.along,
    which gives None for a derivative that is exactly zero)."""
    if isinstance(f, PointField):
        return f.along(X)
    if isinstance(f, PolyField):
        if f.n_vars != X.n_vars:
            raise DimensionMismatchError("field dimensions differ")
        return PolyField([directional_derivative(X, c) for c in f.components])
    if f.n_vars != X.n_vars:
        raise DimensionMismatchError("field and function dimensions differ")
    return Polynomial.sum_of(f.n_vars,
                             [xi * f.partial(i)
                              for i, xi in enumerate(X.components)
                              if not xi.is_zero])


def bracket(X: PolyField, Y: PolyField) -> PolyField:
    """Lie bracket [X, Y] = D_X Y - D_Y X, exact; on jets, either derivative
    may be None (zero), and so may the bracket."""
    a, b = directional_derivative(X, Y), directional_derivative(Y, X)
    if b is None:
        return a
    return -b if a is None else a - b


# ---------------------------------------------------------------------------
# pointwise linear algebra


#: relative size below which a vector counts as dependent on its predecessors
GRAM_SCHMIDT_TOL = 1e-10


def gram_schmidt_at(vectors, metric):
    """Orthonormalize ``vectors`` (P, k, N) at each of P points against a
    bilinear form, deterministically, in one vectorized pass over the points.

    ``metric`` is one (N, N) matrix or one per point (P, N, N).  Returns the basis (P, k, N), the expansion coefficients W
    (P, k, k) with basis[p, i] = sum_j W[p, i, j] * vectors[p, j], and the
    kept mask (P, k).  A vector that is near-dependent on its predecessors at
    a point (within ``GRAM_SCHMIDT_TOL``) is skipped there: its rows of the
    basis and of W are zero and its kept entry is False.  Each point gets the
    arithmetic of a loop over that point alone, since a zero row projects
    nothing out of the later vectors.
    """
    V = np.asarray(vectors, dtype=np.float64)
    P, k, N = V.shape
    G = np.broadcast_to(np.asarray(metric, dtype=np.float64), (P, N, N))

    def inner(u, v):
        return ((u[:, None, :] @ G) @ v[:, :, None])[:, 0, 0]

    basis = np.zeros((P, k, N))
    W = np.zeros((P, k, k))
    kept = np.zeros((P, k), dtype=bool)
    for j in range(k):
        w = V[:, j]
        row = np.zeros((P, k))
        row[:, j] = 1.0
        for i in range(j):
            proj = inner(basis[:, i], w)[:, None]
            w = w - proj * basis[:, i]
            row = row - proj * W[:, i]
        norm2 = inner(w, w)
        kept[:, j] = ok = norm2 > (GRAM_SCHMIDT_TOL ** 2) * np.maximum(
            inner(V[:, j], V[:, j]), 1.0)
        nrm = np.sqrt(np.where(ok, norm2, 1.0))[:, None]
        basis[ok, j] = (w / nrm)[ok]
        W[ok, j] = (row / nrm)[ok]
    return basis, W, kept


# ---------------------------------------------------------------------------
# exact sphere quadrature


@lru_cache(maxsize=None)
def _double_factorial(k: int) -> int:
    if k <= 0:
        return 1
    return k * _double_factorial(k - 2)


@lru_cache(maxsize=None)
def _sphere_moment_fraction(n_vars: int, alpha: tuple[int, ...]) -> Fraction:
    """Normalized moment (1/|S^{N-1}|) * integral of x^alpha over S^{N-1},
    exact by the double-factorial product formula; zero whenever an
    exponent is odd."""
    if any(a % 2 == 1 for a in alpha):
        return Fraction(0)
    total = sum(alpha)
    num = 1
    for a in alpha:
        num *= _double_factorial(a - 1)
    den = 1
    for k in range(total // 2):
        den *= n_vars + 2 * k
    return Fraction(num, den)


def integrate_sphere(poly: Polynomial) -> float:
    """Exact normalized integral of a polynomial over the unit sphere."""
    if poly.is_zero:
        return 0.0
    exps = poly.exponents()
    total = Fraction(0)
    for t in range(poly.n_terms):
        mom = _sphere_moment_fraction(poly.n_vars, tuple(int(e) for e in exps[t]))
        if mom:
            total += Fraction(poly.coeffs[t]) * mom
    return float(total)


# ---------------------------------------------------------------------------
# reproducible sampling


def sample_points(chart: AmbientChart, count: int, seed: int) -> np.ndarray:
    """Deterministic pseudo-random points on the chart.

    Uses the counter-based Philox generator so reports are reproducible
    bit-for-bit from the seed.  Sphere points are normalized to within
    1e-15 of unit length; Euclidean points are uniform in [-1, 1]^N.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=seed))
    if chart.kind == EUCLIDEAN:
        return rng.uniform(-1.0, 1.0, size=(count, chart.n_vars))
    pts = rng.standard_normal(size=(count, chart.n_vars))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts
