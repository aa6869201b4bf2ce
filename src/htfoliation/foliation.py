"""Tensor engine for totally geodesic foliations with bundle-like metric.

A :class:`FoliationModel` carries a vertical distribution (spanned by named
polynomial fields), a horizontal spanning family, and a vertical metric scale
``epsilon``: the model metric is g = g_H + (1/epsilon) g0_V where g0 is the
backend's base metric (the round sphere metric, or the left-invariant metric
making the defining group frame orthonormal).

The canonical metric connection preserving both distributions ("Bott
connection" below) is assembled case-wise:

    nabla_X Y = pi_H(D_X Y)           X, Y horizontal
    nabla_Z Y = pi_H([Z, Y])          Z vertical, Y horizontal
    nabla_X W = pi_V([X, W])          X horizontal, W vertical
    nabla_Z W = pi_V(D_Z W)           Z, W vertical

with D the flat ambient derivative.  The like-slot cases are the projected
Levi-Civita derivative of g0, and D may stand in for it on both backends:
on the sphere the two differ by a normal term, on a two-step group by terms
that pi_H kills (X, Y horizontal) or that vanish (Z, W vertical).  Both
cases are scale-invariant in epsilon, so a single connection serves the
whole canonical-variation family; this is exploited by sharing symbolic
tables across vertical rescalings of one model.

Everything pointwise is obtained by evaluating table entries over the
spanning fields and contracting with adapted-frame expansion coefficients;
tensoriality of torsion, covariant derivatives and curvature in every slot
makes the spanning-field extensions legitimate.

The formulas (projections, the connection, torsion, J and the rescaled
Levi-Civita connection) are written once, against a few field operations
that both symbolic fields (PolyField) and point jets (PointField) provide.
The two-index entries (brackets, the connection, torsion, the rescaled
Levi-Civita derivative) are built symbolically and shared by a model family.
Each three-index entry (nabla T and both curvatures) applies one more
derivative to a two-index entry or a spanning field and then only pointwise
linear algebra, so it is computed at a point batch from the exact order-1
jets (values and Jacobians) of those entries: the same numbers as
evaluating its symbolic composition, up to rounding.  It is built for every
key at once and kept only as values in the batch (FrameBatch.eval_entry).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (DegenerateFrameError, DimensionMismatchError,
                     InvalidModelError)
from .geometry import (AmbientChart, MonomialCache, Polynomial, PolyField,
                       PointField, bracket, directional_derivative,
                       field_jets, gram_schmidt_at)

GROUP = "group"
SPHERE = "sphere"


class Split:
    """A vector field kept as (horizontal part, vertical part).

    Either part may be None (meaning zero).  Keeping fields split avoids
    re-projecting pure fields, which would inflate polynomial degrees.  The
    parts are PolyFields, or PointFields of one point batch.
    """

    __slots__ = ("h", "v")

    def __init__(self, h=None, v=None):
        self.h = None if (h is not None and h.is_zero()) else h
        self.v = None if (v is not None and v.is_zero()) else v

    def total(self, n_vars: int) -> PolyField:
        if self.h is None and self.v is None:
            return PolyField.zero(n_vars)
        if self.h is None:
            return self.v
        if self.v is None:
            return self.h
        return self.h + self.v

    def __neg__(self) -> "Split":
        return Split(None if self.h is None else -self.h,
                     None if self.v is None else -self.v)

    def __add__(self, other: "Split") -> "Split":
        def _merge(a, b):
            if a is None:
                return b
            if b is None:
                return a
            return a + b
        return Split(_merge(self.h, other.h), _merge(self.v, other.v))

    def __sub__(self, other: "Split") -> "Split":
        return self + (-other)

    def scale(self, s: float) -> "Split":
        return Split(None if self.h is None else self.h.scale(s),
                     None if self.v is None else self.v.scale(s))

    def __getitem__(self, index) -> "Split":
        """Select along the leading axes of PointField parts."""
        return Split(None if self.h is None else self.h[index],
                     None if self.v is None else self.v[index])

    def evaluate(self, points, cache: MonomialCache | None = None) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        out = np.zeros_like(pts)
        if self.h is not None:
            out += self.h.evaluate(pts, cache)
        if self.v is not None:
            out += self.v.evaluate(pts, cache)
        return out


@dataclass
class AdaptedFrameAt:
    """Orthonormal adapted frame at a point, with spanning-field expansions.

    ``horizontal[i] = sum_k h_coefficients[i, k] * horizontal_fields[k](point)``
    and likewise for the vertical block; the expansions are what make
    pointwise tensor contraction against the symbolic tables possible.
    """

    point: np.ndarray
    horizontal: np.ndarray        # (n, N)
    vertical: np.ndarray          # (m, N)
    h_coefficients: np.ndarray    # (n, Kh)
    v_coefficients: np.ndarray    # (m, Kv)


@dataclass
class TensorAtPoint:
    """Component array of a named tensor in the adapted frame at one point."""

    kind: str
    components: np.ndarray


class FoliationModel:
    """A foliated model space on a Euclidean or unit-sphere ambient chart."""

    def __init__(self, name: str, backend: str, chart: AmbientChart,
                 n: int, m: int, epsilon: float,
                 vertical_fields: Sequence[PolyField],
                 horizontal_fields: Sequence[PolyField],
                 generators: np.ndarray | None = None,
                 vertical_matrices: np.ndarray | None = None,
                 _tables: dict | None = None):
        if backend not in (GROUP, SPHERE):
            raise InvalidModelError(f"unknown backend {backend!r}")
        if epsilon <= 0:
            raise InvalidModelError("epsilon must be positive")
        N = chart.n_vars
        expected = n + m if backend == GROUP else n + m + 1
        if N != expected:
            raise InvalidModelError(
                f"ambient dimension {N} inconsistent with (n={n}, m={m}) on {backend}")
        if len(vertical_fields) != m:
            raise InvalidModelError("vertical field count must equal m")
        self.name = name
        self.backend = backend
        self.chart = chart
        self.n = n
        self.m = m
        self.epsilon = float(epsilon)
        self.vertical_fields = tuple(vertical_fields)
        self.horizontal_fields = tuple(horizontal_fields)
        self.generators = generators          # group backend: (m, n, n)
        self.vertical_matrices = vertical_matrices  # sphere backend: (m, N, N)
        if backend == GROUP and generators is None:
            raise InvalidModelError("group backend needs generator matrices")
        if backend == SPHERE and vertical_matrices is None:
            raise InvalidModelError("sphere backend needs vertical matrices")
        # epsilon-independent symbolic tables, shareable across variations
        self._tables = _tables if _tables is not None else {}

    # -- basic structure -----------------------------------------------------

    @property
    def ambient_dim(self) -> int:
        return self.chart.n_vars

    @property
    def span_h_count(self) -> int:
        return len(self.horizontal_fields)

    @property
    def span_count(self) -> int:
        return len(self.horizontal_fields) + self.m

    def span_split(self, idx: int) -> Split:
        """Spanning field by combined index: horizontals first, then verticals."""
        kh = self.span_h_count
        if idx < kh:
            return Split(h=self.horizontal_fields[idx])
        return Split(v=self.vertical_fields[idx - kh])

    def with_epsilon(self, epsilon: float) -> "FoliationModel":
        """Same fields, new vertical metric scale (the canonical variation);
        symbolic tables are shared because the underlying connection does not
        depend on the scale.  Frame J matrices against the stored vertical
        fields rescale by epsilon_old / epsilon_new."""
        if epsilon <= 0:
            raise InvalidModelError("epsilon must be positive")
        return FoliationModel(self.name, self.backend, self.chart, self.n,
                              self.m, epsilon, self.vertical_fields,
                              self.horizontal_fields, self.generators,
                              self.vertical_matrices, _tables=self._tables)

    # -- projections and metric ----------------------------------------------

    @cached_property
    def _symbolic_fields(self) -> tuple:
        """The vertical fields, the coframe dual to them and the position
        field, which the formulas below combine with their arguments.

        The coframe measures vertical parts in the base metric (exact
        on-chart): on the sphere it is the round-orthonormal vertical fields
        themselves; on a group theta^a(F) = F^{n+a} - sum_i F^i X_i^{n+a},
        which relies on X_i^j = delta_ij and Z_a = d/dz_a, as built by
        ``group_model_from_matrices``."""
        N = self.ambient_dim
        coframe = self.vertical_fields
        if self.backend == GROUP:
            n = self.n
            coframe = tuple(
                PolyField([-self.horizontal_fields[i].components[n + a]
                           for i in range(n)]
                          + [Polynomial.constant(N, float(j == n + a))
                             for j in range(n, N)])
                for a in range(self.m))
        return self.vertical_fields, coframe, PolyField.position(N)

    def _fields(self, F) -> tuple:
        """(vertical fields, coframe, position) in the representation of F:
        symbolic, or at the points of a jet (FrameBatch.model_fields)."""
        if not isinstance(F, PointField):
            return self._symbolic_fields
        jet = lambda value: PointField(value, at=F.at)
        vertical, coframe, position = F.at
        return [jet(Z) for Z in vertical], [jet(t) for t in coframe], jet(position)

    def vertical_coefficients(self, F) -> list:
        """Coefficients of the vertical part along the stored vertical fields,
        measured in the base metric (exact on-chart)."""
        return [F.dot(theta) for theta in self._fields(F)[1]]

    def pi_v(self, F):
        vertical = self._fields(F)[0]
        return type(F).sum_of(self.ambient_dim, [
            Z.scale(c) for c, Z in zip(self.vertical_coefficients(F), vertical)])

    def pi_h(self, F):
        terms = [F, (-self.pi_v(F))]
        if self.backend == SPHERE:
            pos = self._fields(F)[2]
            terms.append(-pos.scale(F.dot(pos)))
        return type(F).sum_of(self.ambient_dim, terms)

    def split(self, F) -> Split:
        if isinstance(F, Split):
            return F
        return Split(h=self.pi_h(F), v=self.pi_v(F))

    def metric_matrices(self, points, eps_scale: float = 1.0) -> np.ndarray:
        """Pointwise Gram matrices of g_H + g_V / (epsilon * eps_scale), with
        g_V = sum_a theta^a (x) theta^a over the coframe and g_H = I - p p^T
        - g_V on the sphere, the first n coordinates on a group."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        theta = np.stack([t.evaluate(pts) for t in self._symbolic_fields[1]], 1)
        gv = np.einsum("pan,pam->pnm", theta, theta)
        w = 1.0 / (self.epsilon * eps_scale)
        if self.backend == SPHERE:
            pp = np.einsum("pn,pm->pnm", pts, pts)
            return np.eye(pts.shape[1])[None] - pp - gv + w * gv
        G = w * gv
        G[:, :self.n, :self.n] += np.eye(self.n)
        return G

    def metric_lie_derivatives(self, cache: MonomialCache) -> np.ndarray:
        """(L_W g)(F, G) = (D_W g)(F, G) + g(D_F W, G) + g(F, D_G W) at the
        cache's points for every spanning triple, (P, K, K, K) indexed
        [p, W, F, G], from 1-jets.  It is a form plus its transpose in (F, G),
        since d_k g = h_k + h_k^T with h_k from the coframe (and -e_k p^T on
        the sphere)."""
        theta, dtheta = field_jets(self._symbolic_fields[1], cache)
        h = np.einsum("apnk,apm->pnmk", dtheta, theta)   # half of d_k g_V
        if self.backend == GROUP:
            h = h / self.epsilon
        else:                           # g = I - p p^T + (1/epsilon - 1) g_V
            h = (1.0 / self.epsilon - 1.0) * h - np.einsum(
                "nk,pm->pnmk", np.eye(self.ambient_dim), cache.points)
        val, jac = field_jets(self.horizontal_fields + self.vertical_fields, cache)
        g_val = np.einsum("pnm,gpm->gpn", self.metric_matrices(cache.points), val)
        half = (np.einsum("pnmk,wpk,fpn,gpm->pwfg", h, val, val, val, optimize=True)
                + np.einsum("wpij,fpj,gpi->pwfg", jac, val, g_val, optimize=True))
        return half + half.transpose(0, 1, 3, 2)

    # -- connections -----------------------------------------------------------
    #
    # These take Splits (or fields, which are split first) of one kind:
    # symbolic, or order-1 jets at a point batch.

    def bott_split(self, F, G) -> Split:
        """The case-wise metric connection preserving both distributions.

        The like-slot cases project the flat ambient derivative once: on the
        sphere pi_H and pi_V also remove the normal direction (p . A p = 0
        for skew A); on a group pi_H removes the d/dz_a terms by which it
        differs from nabla^g0 on horizontal fields."""
        Fs, Gs = self.split(F), self.split(G)
        h_part = None
        v_part = None
        if Fs.h is not None and Gs.h is not None:
            h_part = self.pi_h(directional_derivative(Fs.h, Gs.h))
        if Fs.v is not None and Gs.h is not None:
            term = self.pi_h(bracket(Fs.v, Gs.h))
            h_part = term if h_part is None else h_part + term
        if Fs.h is not None and Gs.v is not None:
            v_part = self.pi_v(bracket(Fs.h, Gs.v))
        if Fs.v is not None and Gs.v is not None:
            term = self.pi_v(directional_derivative(Fs.v, Gs.v))
            v_part = term if v_part is None else v_part + term
        return Split(h=h_part, v=v_part)

    def bott(self, F, G) -> PolyField:
        return self.bott_split(F, G).total(self.ambient_dim)

    def torsion_transform(self, F, G) -> Split:
        """T(F, G) = -pi_V([pi_H F, pi_H G]); vertical-valued and tensorial."""
        Fs, Gs = self.split(F), self.split(G)
        if Fs.h is None or Gs.h is None:
            return Split()
        return Split(v=-self.pi_v(bracket(Fs.h, Gs.h)))

    @cached_property
    def _j_matrices(self) -> np.ndarray:
        """B_a with J(Z_a, X) = pi_H(B_a X) / epsilon for horizontal X.

        Sphere: for round-orthonormal linear vertical fields Z_a = A_a p one
        has <Z_a, T(X, Y)>_0 = 2 <A_a X, Y>, so B_a = 2 A_a.  Group: the
        horizontal coordinates of J(Z_a, X) are G_a^T applied to those of X,
        and pi_H lifts them to sum_j c_j X_j, so B_a is G_a^T padded by
        zeros."""
        if self.backend == SPHERE:
            return 2.0 * np.asarray(self.vertical_matrices, dtype=np.float64)
        n, N = self.n, self.ambient_dim
        B = np.zeros((self.m, N, N))
        B[:, :n, :n] = np.transpose(self.generators, (0, 2, 1))
        return B

    def j_transform(self, W, X) -> Split:
        """The horizontal endomorphism dual to torsion, as a field transformer:
        <j_transform(W, X), Y>_H = g_V(pi_V W, T(pi_H X, Y)) for horizontal Y."""
        Ws, Xs = self.split(W), self.split(X)
        if Ws.v is None or Xs.h is None:
            return Split()
        wc = self.vertical_coefficients(Ws.v)
        return Split(h=self.pi_h(type(Xs.h).sum_of(self.ambient_dim, [
            Xs.h.apply_matrix(B).scale(c * (1.0 / self.epsilon))
            for c, B in zip(wc, self._j_matrices)])))

    def lc_variation_split(self, F, G, eps_rel: float) -> Split:
        """Levi-Civita connection of g_eps = g_H + (1/eps_rel) g_V, with g the
        model metric: nabla^{g_eps}_F G = nabla_F G - T(F,G)/2
        + (J_F G + J_G F)/(2 eps_rel)."""
        Fs, Gs = self.split(F), self.split(G)
        return (self.bott_split(Fs, Gs)
                + self.torsion_transform(Fs, Gs).scale(-0.5)
                + (self.j_transform(Fs, Gs)
                   + self.j_transform(Gs, Fs)).scale(0.5 / eps_rel))

    # -- two-index tables over the spanning fields (symbolic) ----------------
    #
    # The antisymmetric ones (brackets, torsion) build a > b as -(b, a).

    def _table(self, name: str) -> dict:
        return self._tables.setdefault(name, {})

    def bracket_entry(self, a: int, b: int) -> PolyField:
        tab = self._table("bracket")
        if (a, b) not in tab:
            tab[(a, b)] = (-self.bracket_entry(b, a) if a > b else
                           bracket(self.span_split(a).total(self.ambient_dim),
                                   self.span_split(b).total(self.ambient_dim)))
        return tab[(a, b)]

    def bracket_split_entry(self, a: int, b: int) -> Split:
        tab = self._table("bracket_split")
        if (a, b) not in tab:
            tab[(a, b)] = self.split(self.bracket_entry(a, b))
        return tab[(a, b)]

    def bott_entry(self, a: int, b: int) -> Split:
        tab = self._table("bott")
        if (a, b) not in tab:
            tab[(a, b)] = self.bott_split(self.span_split(a), self.span_split(b))
        return tab[(a, b)]

    def torsion_entry(self, a: int, b: int) -> Split:
        tab = self._table("torsion")
        if (a, b) not in tab:
            tab[(a, b)] = (-self.torsion_entry(b, a) if a > b else
                           self.torsion_transform(self.span_split(a),
                                                  self.span_split(b)))
        return tab[(a, b)]

    def lc_entry(self, total_eps: float, a: int, b: int) -> Split:
        """First rescaled-metric derivative table; keyed by the total vertical
        scale so canonical-variation copies of one model share entries.
        ``lc_variation_split`` on the spanning fields, with its connection
        and torsion terms read from their tables."""
        tab = self._table("lc")
        key = (round(total_eps, 12), a, b)
        if key not in tab:
            eps_rel = total_eps / self.epsilon
            Ea, Eb = self.span_split(a), self.span_split(b)
            tab[key] = (self.bott_entry(a, b)
                        + self.torsion_entry(a, b).scale(-0.5)
                        + (self.j_transform(Ea, Eb)
                           + self.j_transform(Eb, Ea)).scale(0.5 / eps_rel))
        return tab[key]

    # -- three-index entries at a point batch, from 1-jets -------------------
    #
    # Each returns point values of shape (P, K1, K2, K3, N) for all keys of
    # three ranges of spanning indices.  E, and the two-index tables, are
    # order-1 jets indexed by spanning indices (_Jets).

    def nabla_t_entry(self, fb: "FrameBatch", d, a, b) -> np.ndarray:
        """(nabla_{E_d} T)(E_a, E_b), vertical-valued."""
        E, T, C = (_Jets(fb, self.span_split), _Jets(fb, self.torsion_entry),
                   _Jets(fb, self.bott_entry))
        return fb.three_index((d, a, b), lambda d, a, b: (
            self.bott_split(E[d], T[a, b])
            - self.torsion_transform(C[d, a], E[b])
            - self.torsion_transform(E[a], C[d, b])))

    def curvature_entry(self, fb: "FrameBatch", a, b, c) -> np.ndarray:
        """R(E_a, E_b) E_c with R(U, V) = [nabla_U, nabla_V] - nabla_{[U,V]}."""
        E, C, S = (_Jets(fb, self.span_split), _Jets(fb, self.bott_entry),
                   _Jets(fb, self.bracket_split_entry))
        return fb.three_index((a, b, c), lambda a, b, c: (
            self.bott_split(E[a], C[b, c])
            - self.bott_split(E[b], C[a, c])
            - self.bott_split(S[a, b], E[c])))

    def lc_curvature_entry(self, fb: "FrameBatch", total_eps: float,
                           a, b, c) -> np.ndarray:
        """Curvature of the Levi-Civita connection of the rescaled metric."""
        eps_rel = total_eps / self.epsilon
        E, S = _Jets(fb, self.span_split), _Jets(fb, self.bracket_split_entry)
        L = _Jets(fb, lambda i, j: self.lc_entry(total_eps, i, j))
        return fb.three_index((a, b, c), lambda a, b, c: (
            self.lc_variation_split(E[a], L[b, c], eps_rel)
            - self.lc_variation_split(E[b], L[a, c], eps_rel)
            - self.lc_variation_split(S[a, b], E[c], eps_rel)))

    # -- frames ----------------------------------------------------------------

    def adapted_frame(self, p) -> AdaptedFrameAt:
        fb = self.frame_batch(np.atleast_2d(np.asarray(p, dtype=np.float64)))
        return AdaptedFrameAt(fb.points[0], fb.x[0], fb.z[0], fb.wh[0], fb.wv[0])

    def frame_batch(self, points) -> "FrameBatch":
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        P, N = pts.shape
        if N != self.ambient_dim:
            raise DimensionMismatchError("points have wrong ambient dimension")
        G = self.metric_matrices(pts)
        mono = MonomialCache(pts)
        hvals = np.stack([F.evaluate(pts, mono) for F in self.horizontal_fields],
                         axis=1)                        # (P, Kh, N)
        zvals = np.stack([Z.evaluate(pts, mono) for Z in self.vertical_fields],
                         axis=1)                        # (P, m, N)
        x = np.zeros((P, self.n, N))
        z = np.zeros((P, self.m, N))
        wh = np.zeros((P, self.n, self.span_h_count))
        wv = np.zeros((P, self.m, self.m))
        for p_idx in range(P):
            zb, wvp, kept = gram_schmidt_at(list(zvals[p_idx]), metric=G[p_idx],
                                            return_coefficients=True)
            if len(zb) != self.m:
                raise DegenerateFrameError(
                    f"vertical span degenerate at point {p_idx}")
            xb, whp, kept_h = gram_schmidt_at(list(hvals[p_idx]), metric=G[p_idx],
                                              allow_dependent=True,
                                              return_coefficients=True)
            if len(xb) != self.n:
                raise DegenerateFrameError(
                    f"horizontal span has rank {len(xb)}, expected {self.n}, at point {p_idx}")
            z[p_idx] = np.stack(zb)
            x[p_idx] = np.stack(xb)
            wv[p_idx] = wvp
            wh[p_idx] = whp
        return FrameBatch(self, pts, mono, G, x, z, wh, wv)


@dataclass
class FrameBatch:
    """Adapted frames over a point batch plus shared evaluation caches."""

    model: FoliationModel
    points: np.ndarray
    mono: MonomialCache
    metric: np.ndarray   # (P, N, N)
    x: np.ndarray        # (P, n, N)
    z: np.ndarray        # (P, m, N)
    wh: np.ndarray       # (P, n, Kh)
    wv: np.ndarray       # (P, m, m)
    _values: dict = field(default_factory=dict)

    @property
    def frame(self) -> np.ndarray:
        return np.concatenate([self.x, self.z], axis=1)

    @cached_property
    def _metric_frame(self) -> np.ndarray:
        """g(., u_d) as covectors: (P, N, n+m)."""
        return np.einsum("pnm,pdm->pnd", self.metric, self.frame)

    def components(self, ambient: np.ndarray) -> np.ndarray:
        """Measure trailing ambient vectors against the full adapted frame:
        one matmul per point of the (rows, N) flattened ambient values."""
        P, N = self.points.shape
        flat = ambient.reshape(P, -1, N) @ self._metric_frame
        return flat.reshape(ambient.shape[:-1] + (flat.shape[-1],))

    def slot(self, domain: str) -> tuple[slice, np.ndarray]:
        """Spanning indices and expansion weights for a contraction slot."""
        model = self.model
        kh = model.span_h_count
        P = self.points.shape[0]
        if domain == "h":
            return slice(0, kh), self.wh
        if domain == "v":
            return slice(kh, kh + model.m), self.wv
        if domain == "all":
            W = np.zeros((P, model.n + model.m, kh + model.m))
            W[:, :model.n, :kh] = self.wh
            W[:, model.n:, kh:] = self.wv
            return slice(0, kh + model.m), W
        raise ValueError(f"unknown slot domain {domain!r}")

    def eval_entry(self, name: str, key: tuple, builder,
                   antisym: tuple[int, int] | None = None) -> np.ndarray:
        """Point values ``builder(*key)`` over this batch, built lazily.

        ``antisym`` names two key positions in which the table is known to be
        antisymmetric; keys are then canonicalized, so the builder is called
        at most once per batch for each entry, and only with the first of
        the two positions below the second.
        """
        store = self._values.setdefault(name, {})
        if key in store:
            return store[key]
        if antisym is not None:
            i, j = antisym
            if key[i] == key[j]:
                out = np.zeros_like(self.points)
                store[key] = out
                return out
            if key[i] > key[j]:
                swapped = list(key)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                out = -self.eval_entry(name, tuple(swapped), builder, antisym)
                store[key] = out
                return out
        out = builder(*key)
        store[key] = out
        return out

    # -- jets ------------------------------------------------------------------

    @cached_property
    def model_fields(self) -> tuple:
        """Values of the model's vertical fields (m, P, N), their coframe
        (m, P, N) and the position field (P, N) at the points: the ``at`` of
        every jet of this batch, which the formulas combine with jets."""
        vertical, coframe, position = self.model._symbolic_fields
        at = lambda fields: np.stack([F.evaluate(self.points, self.mono)
                                      for F in fields])
        return at(vertical), at(coframe), at([position])[0]

    def three_index(self, keys, formula) -> np.ndarray:
        """Point values of ``formula(a, b, c) -> Split`` over three ranges of
        spanning indices, as a C-contiguous (P, K1, K2, K3, N) array.

        The formula runs once per first key and per horizontal or vertical
        block of the other two, with b a column and c a row of indices, so
        that every Split part is a pure block and no transient array
        outgrows one block of a two-index table's jets."""
        k1, k2, k3 = (np.asarray(k, dtype=np.int64) for k in keys)
        P, N = self.points.shape
        kh = self.model.span_h_count
        blocks = lambda k: [pos for pos in (np.flatnonzero(k < kh),
                                            np.flatnonzero(k >= kh)) if pos.size]
        out = np.zeros((P, k1.size, k2.size, k3.size, N))
        for i, a in enumerate(k1):
            for s2 in blocks(k2):
                for s3 in blocks(k3):
                    res = formula(a, k2[s2][:, None], k3[s3][None, :])
                    for part in (res.h, res.v):
                        if part is not None:     # (B2, B3, P, N)
                            out[:, i, s2[:, None], s3] += np.moveaxis(
                                part.value, 2, 0)
        return out


class _Jets:
    """Order-1 jets at a batch's points of a Split-valued entry with one or
    two spanning indices (a spanning field, or a two-index table), evaluated
    lazily per horizontal or vertical block of keys and selected with numpy
    indexing (ints or broadcasting index arrays, each within one block)."""

    def __init__(self, fb: FrameBatch, entry):
        self.fb = fb
        self.entry = entry
        self._blocks: dict[tuple, Split] = {}

    def _block(self, index) -> tuple[str, object]:
        """("h" | "v", index within that block) of spanning indices."""
        kh = self.fb.model.span_h_count
        arr = np.asarray(index)
        if (arr < kh).all():
            return "h", index
        if (arr >= kh).all():
            return "v", index - kh
        raise ValueError("indices mix horizontal and vertical spanning fields")

    def __getitem__(self, index) -> Split:
        if not isinstance(index, tuple):
            index = (index,)
        blocks, local = zip(*(self._block(i) for i in index))
        if blocks not in self._blocks:
            self._blocks[blocks] = self._evaluate(blocks)
        return self._blocks[blocks][local]

    def _evaluate(self, blocks: tuple) -> Split:
        fb = self.fb
        kh, K = fb.model.span_h_count, fb.model.span_count
        ranges = [range(kh) if b == "h" else range(kh, K) for b in blocks]
        entries = [self.entry(*key) for key in itertools.product(*ranges)]
        shape = tuple(len(r) for r in ranges)
        return Split(h=self._part([e.h for e in entries], shape),
                     v=self._part([e.v for e in entries], shape))

    def _part(self, fields: list, shape: tuple) -> PointField | None:
        present = [i for i, f in enumerate(fields) if f is not None]
        if not present:
            return None
        P, N = self.fb.points.shape
        jets = field_jets([fields[i] for i in present], self.fb.mono)
        if len(present) < len(fields):          # absent parts are zero jets
            padded = [np.zeros((len(fields),) + a.shape[1:]) for a in jets]
            for full, a in zip(padded, jets):
                full[present] = a
            jets = padded
        value, jacobian = jets
        return PointField(value.reshape(shape + (P, N)),
                          jacobian.reshape(shape + (P, N, N)),
                          self.fb.model_fields)


# ---------------------------------------------------------------------------
# batched tensor evaluation


def _contract3(fb: FrameBatch, name: str, entry_fn, d1: str, d2: str,
               d3: str, first_only: bool = False) -> np.ndarray:
    """A three-index entry, evaluated once per batch over all spanning
    indices by ``entry_fn(fb, keys1, keys2, keys3)`` (with ``first_only``,
    over those of the domain ``d1`` in the first slot), contracted with the
    adapted-frame expansions of the slot domains; returns ambient vectors
    (P, f1, f2, f3, N).

    One batched matmul per slot, each on a view of the previous result
    that selects the slot's spanning range along a leading axis, so the
    stored values are never copied."""
    span = tuple(range(fb.model.span_count))
    (s1, W1), (s2, W2), (s3, W3) = fb.slot(d1), fb.slot(d2), fb.slot(d3)
    keys1 = span[s1] if first_only else span
    vals = fb.eval_entry(name, (keys1, span, span),
                         lambda *keys: entry_fn(fb, *keys))
    if first_only:
        s1 = slice(None)
    P, K, N = vals.shape[0], vals.shape[2], vals.shape[-1]
    f1, f2 = W1.shape[1], W2.shape[1]
    out = W1 @ vals[:, s1].reshape(P, -1, K * K * N)      # (P, f1, K*K*N)
    out = W2[:, None] @ out.reshape(P, f1, K, K * N)[:, :, s2]
    out = W3[:, None, None] @ out.reshape(P, f1, f2, K, N)[:, :, :, s3]
    return out                                            # (P, f1, f2, f3, N)


def _contract2(fb: FrameBatch, name: str, entry_fn, d1: str, d2: str,
               antisym: tuple[int, int] | None = None) -> np.ndarray:
    (s1, W1), (s2, W2) = fb.slot(d1), fb.slot(d2)
    span = range(fb.model.span_count)
    evaluate = lambda a, b: entry_fn(a, b).evaluate(fb.points, fb.mono)
    vals = np.array([[fb.eval_entry(name, (a, b), evaluate, antisym)
                      for b in span[s2]] for a in span[s1]])    # (K1, K2, P, N)
    K1, K2, P, N = vals.shape
    out = W1 @ np.moveaxis(vals, 2, 0).reshape(P, K1, K2 * N)
    return W2[:, None] @ out.reshape(P, -1, K2, N)      # (P, f1, f2, N)


def torsion_components(fb: FrameBatch) -> np.ndarray:
    """T^a_{ij} = g(T(x_i, x_j), z_a); antisymmetric in (i, j); shape (P,m,n,n)."""
    model = fb.model
    amb = _contract2(fb, "torsion", model.torsion_entry, "h", "h", antisym=(0, 1))
    comps = fb.components(amb)                     # (P, n, n, n+m)
    return np.transpose(comps[..., model.n:], (0, 3, 1, 2))


def j_endomorphisms(fb: FrameBatch) -> np.ndarray:
    """Matrices of the torsion endomorphisms J_{z_a} acting on horizontal
    frame coefficients (column i holds the image of x_i); built from torsion
    by the defining pairing, shape (P, m, n, n)."""
    return np.transpose(torsion_components(fb), (0, 1, 3, 2))


def nabla_t_components(fb: FrameBatch, directions: str = "all") -> np.ndarray:
    """(nabla_{u_d} T)(x_i, x_j) components along z_a: shape (P, D, m, n, n)."""
    model = fb.model
    amb = _contract3(fb, "nabla_t", model.nabla_t_entry, directions, "h", "h")
    comps = fb.components(amb)                     # (P, D, n, n, n+m)
    return np.transpose(comps[..., model.n:], (0, 1, 4, 2, 3))


def curvature_components(fb: FrameBatch, d1: str = "all", d2: str = "all",
                         d3: str = "all") -> np.ndarray:
    """<R(u_a, u_b) u_c, u_d> over the requested slot domains;
    shape (P, f1, f2, f3, n+m)."""
    amb = _contract3(fb, "curvature", fb.model.curvature_entry, d1, d2, d3)
    return fb.components(amb)


def lc_curvature_ambient(fb: FrameBatch, eps_rel: float, d2: str = "all",
                         d3: str = "all") -> np.ndarray:
    """Ambient values of R^ghat(z_a, u_b) u_c, the Levi-Civita curvature of
    the rescaled metric ghat = g_H + (1/eps_rel) g_V with a vertical first
    slot, over the slot domains d2 and d3; shape (P, m, f2, f3, N).  Every
    reader needs only that first slot, so the entry is built and kept only
    over the vertical first keys."""
    model = fb.model
    total = model.epsilon * eps_rel
    entry = lambda fb, a, b, c: model.lc_curvature_entry(fb, total, a, b, c)
    return _contract3(fb, f"lc_curvature[{round(total, 12)}]", entry, "v",
                      d2, d3, first_only=True)


def ricci_horizontal(fb: FrameBatch) -> np.ndarray:
    """Ric_H(x_i, x_j) = sum_l <R(x_l, x_i) x_j, x_l>; shape (P, n, n)."""
    comps = curvature_components(fb, "h", "h", "h")    # (P, n, n, n, n+m)
    n = fb.model.n
    return np.einsum("plijl->pij", comps[..., :n])


def vertical_sectional(fb: FrameBatch) -> np.ndarray:
    """<R(z_a, z_b) z_b, z_a> for the g-orthonormal vertical frame; (P, m, m)."""
    comps = curvature_components(fb, "v", "v", "v")    # (P, m, m, m, n+m)
    n, m = fb.model.n, fb.model.m
    vpart = comps[..., n:]
    return np.einsum("pabba->pab", vpart)


# ---------------------------------------------------------------------------
# single-point operation wrappers


def torsion(model: FoliationModel, p) -> TensorAtPoint:
    fb = model.frame_batch(np.atleast_2d(np.asarray(p, dtype=np.float64)))
    return TensorAtPoint("torsion", torsion_components(fb)[0])


def j_map(model: FoliationModel, p) -> TensorAtPoint:
    """Frame matrices (J_{z_a})_{ij} = <J_{z_a} x_i, x_j>, which by the
    defining pairing coincide with the torsion component arrays."""
    fb = model.frame_batch(np.atleast_2d(np.asarray(p, dtype=np.float64)))
    return TensorAtPoint("J", torsion_components(fb)[0])


def ricci_h(model: FoliationModel, p) -> TensorAtPoint:
    fb = model.frame_batch(np.atleast_2d(np.asarray(p, dtype=np.float64)))
    return TensorAtPoint("ricci_h", ricci_horizontal(fb)[0])
