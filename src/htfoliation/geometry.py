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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

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

    def to_string(self, names: Sequence[str] | None = None) -> str:
        """Canonical rendering in increasing packed-key order."""
        if self.is_zero:
            return "0"
        if names is None:
            names = [f"x{i}" for i in range(self.n_vars)]
        exps = self.exponents()
        pieces = []
        for t in range(self.n_terms):
            factors = [f"{names[i]}^{e}" if e > 1 else names[i]
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


class PointField:
    """A vector field known at a point batch through its jet of order <= 2.

    ``value`` has shape (..., P, N), ``jacobian`` (..., P, N, N) with
    ``jacobian[..., i, j] = d_j F^i``, and ``hessian`` (..., P, N, N, N) with
    ``hessian[..., i, j, k] = d_j d_k F^i``, where P may be 1 for a Hessian
    that does not depend on the point, or the scalar 0.0 for a Hessian known
    to vanish, which no arithmetic stores or multiplies.  Leading axes index
    a batch of fields and broadcast in arithmetic.  It offers the field
    operations that the connection formulas use, so those formulas run
    unchanged on symbolic fields and on jets.

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
    """

    __slots__ = ("value", "jacobian", "hessian", "at", "keep")

    def __init__(self, value: np.ndarray, jacobian: np.ndarray | None = None,
                 hessian: np.ndarray | None = None, at=None, keep: int = 2):
        self.value = value
        self.jacobian = jacobian
        self.hessian = None if jacobian is None else hessian
        self.at = at
        self.keep = keep

    @property
    def order(self) -> int:
        return 0 if self.jacobian is None else 1 if self.hessian is None else 2

    def _new(self, value, jacobian=None, hessian=None,
             keep=None) -> "PointField":
        return PointField(value, jacobian, hessian, self.at,
                          self.keep if keep is None else keep)

    def _map(self, fn) -> "PointField":
        """Apply one linear map to every stored part (a vanishing Hessian
        stays 0.0)."""
        return self._new(*(fn(part) if isinstance(part, np.ndarray) else part
                           for part in (self.value, self.jacobian,
                                        self.hessian)))

    def __getitem__(self, index) -> "PointField":
        """Select fields along the leading axes."""
        return self._map(lambda part: part[index])

    def _combine(self, other: "PointField", op) -> "PointField":
        keep = min(self.keep, other.keep)
        order = min(self.order, other.order, keep)
        pairs = zip((self.value, self.jacobian, self.hessian),
                    (other.value, other.jacobian, other.hessian))
        return self._new(*(op(a, b) for a, b in list(pairs)[:order + 1]),
                         keep=keep)

    def __add__(self, other: "PointField") -> "PointField":
        return self._combine(other, np.add)

    def __sub__(self, other: "PointField") -> "PointField":
        return self._combine(other, np.subtract)

    def __neg__(self) -> "PointField":
        return self._map(np.negative)

    def scale(self, s) -> "PointField":
        """Multiply by a constant or by a PointScalar (Leibniz rule)."""
        if not isinstance(s, PointScalar):
            return self._map(lambda part: part * s)
        value = self.value * s.value[..., None]
        if min(self.order, self.keep) < 1 or s.gradient is None:
            return self._new(value)
        jacobian = self.jacobian * s.value[..., None, None]
        jacobian += self.value[..., :, None] * s.gradient[..., None, :]
        return self._new(value, jacobian)

    @classmethod
    def sum_of(cls, n_vars: int, fields) -> "PointField":
        fields = list(fields)
        out = fields[0]
        for f in fields[1:]:
            out = out + f
        return out

    def dot(self, other: "PointField") -> PointScalar:
        """Pointwise Euclidean pairing, a scalar jet of order <= 1."""
        value = np.einsum("...n,...n->...", self.value, other.value)
        if min(self.order, other.order, self.keep, other.keep) < 1:
            return PointScalar(value)
        grad = ((other.value[..., None, :] @ self.jacobian)
                + (self.value[..., None, :] @ other.jacobian))[..., 0, :]
        return PointScalar(value, grad)

    def apply_matrix(self, matrix, jacobian=None) -> "PointField":
        """F -> A F for a constant matrix A (N, N), or for pointwise matrices
        A (P, N, N) known through their 1-jet, given as ``jacobian``
        (P, N, N, N) with ``jacobian[p, i, k, j] = d_k A^i_j``."""
        A = np.asarray(matrix, dtype=np.float64)
        if jacobian is None:
            hessian = self.hessian
            if isinstance(hessian, np.ndarray):
                flat = hessian.reshape(hessian.shape[:-2] + (-1,))
                hessian = (A @ flat).reshape(hessian.shape)
            return self._new(self.value @ A.T, None if self.jacobian is None
                             else A @ self.jacobian, hessian)
        value = (A @ self.value[..., None])[..., 0]
        if min(self.order, self.keep) < 1:
            return self._new(value)
        out = A @ self.jacobian
        out += _per_point(jacobian, self.value)
        return self._new(value, out)

    def along(self, X: "PointField") -> "PointField":
        """The derivative D_X F, one order below F (and no higher than X)."""
        if self.jacobian is None:
            raise ValueError("an order-0 jet cannot be differentiated")
        keep = min(self.keep, X.keep)
        value = (self.jacobian @ X.value[..., None])[..., 0]
        if min(self.order - 1, X.order, keep) < 1:
            return self._new(value, keep=keep)
        out = self.jacobian @ X.jacobian
        if isinstance(self.hessian, np.ndarray):
            out += _hessian_along(self.hessian, X.value)
        return self._new(value, out, keep=keep)

    def is_zero(self) -> bool:
        return not any(isinstance(part, np.ndarray) and part.any() for part
                       in (self.value, self.jacobian, self.hessian))

    def __repr__(self):
        return f"PointField({self.value.shape}, order {self.order})"


def _per_point(T: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j T[p, a, k, j] x[..., p, j], shape (..., P, N, N): one matmul per
    point over every leading entry of x, in place of a matrix-vector product
    per entry.  The point axis leads the matmul, so each (N, N) block of the
    result is contiguous (``strides[-2:] == (8N, 8)``) and adding it into a
    point-major jet streams through memory."""
    P, N = x.shape[-2:]
    xt = x.reshape(-1, P, N).transpose(1, 0, 2)              # (P, L, N)
    out = xt @ T.reshape(P, -1, N).transpose(0, 2, 1)        # (P, L, N*N)
    return out.transpose(1, 0, 2).reshape(x.shape[:-2] + T.shape[:-1])


def _hessian_along(H: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j H[..., i, k, j] x[..., p, j] = sum_j H[..., i, j, k] x[..., p, j]
    (Hessians are symmetric), shape (..., P, N, N), for per-point Hessians
    (..., P, N, N, N) or one the same at every point (..., 1, N, N, N).
    When the leading shapes broadcast as an outer product, every leading
    entry of x is applied in one matmul per point; the points lead it, so
    each (N, N) block of the result is contiguous."""
    lh, lx = H.shape[:-4], x.shape[:-2]
    P, N = x.shape[-2:]
    if len(lh) != len(lx) or any(a > 1 and b > 1 for a, b in zip(lh, lx)):
        return (H @ x[..., None, :, None])[..., 0]
    d = len(lh)
    rows = np.moveaxis(np.broadcast_to(H, lh + (P, N, N, N)), -4, 0)
    out = (np.moveaxis(x, -2, 0).reshape(P, -1, N)
           @ rows.reshape(P, -1, N).transpose(0, 2, 1))
    out = out.reshape((P,) + lx + lh + (N, N))
    # interleave the leading axes of H and x, then the point and (i, k) axes
    order = [ax for k in range(d) for ax in (1 + d + k, 1 + k)]
    order += [0, 2 * d + 1, 2 * d + 2]
    return out.transpose(order).reshape(
        tuple(a * b for a, b in zip(lh, lx)) + (P, N, N))


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
    PolyField, or for f a PointField with Jacobians (see PointField.along)."""
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
    """Lie bracket [X, Y] = D_X Y - D_Y X, exact."""
    return directional_derivative(X, Y) - directional_derivative(Y, X)


# ---------------------------------------------------------------------------
# pointwise linear algebra


#: relative size below which a vector counts as dependent on its predecessors
GRAM_SCHMIDT_TOL = 1e-10


def gram_schmidt_at(vectors, metric=None):
    """Orthonormalize ``vectors`` (P, k, N) at each of P points against a
    bilinear form, deterministically, in one vectorized pass over the points.

    ``metric`` may be None (Euclidean), one (N, N) matrix or one per point
    (P, N, N).  Returns the basis (P, k, N), the expansion coefficients W
    (P, k, k) with basis[p, i] = sum_j W[p, i, j] * vectors[p, j], and the
    kept mask (P, k).  A vector that is near-dependent on its predecessors at
    a point (within ``GRAM_SCHMIDT_TOL``) is skipped there: its rows of the
    basis and of W are zero and its kept entry is False.  Each point gets the
    arithmetic of a loop over that point alone, since a zero row projects
    nothing out of the later vectors.
    """
    V = np.asarray(vectors, dtype=np.float64)
    P, k, N = V.shape
    G = np.broadcast_to(np.eye(N) if metric is None
                        else np.asarray(metric, dtype=np.float64), (P, N, N))

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
