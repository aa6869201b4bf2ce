"""Tensor engine for totally geodesic foliations with bundle-like metric.

A :class:`FoliationModel` carries a vertical distribution (spanned by named
polynomial fields), a horizontal spanning family, and a vertical metric scale
``epsilon``: the model metric is g = g_H + (1/epsilon) g0_V where g0 is the
backend's base metric (the round sphere metric, or the left-invariant metric
making the defining group frame orthonormal).

The canonical metric connection preserving both distributions ("Bott
connection" below) is assembled case-wise:

    nabla_X Y = pi_H(nabla^g0_X Y)    X, Y horizontal
    nabla_Z Y = pi_H([Z, Y])          Z vertical, Y horizontal
    nabla_X W = pi_V([X, W])          X horizontal, W vertical
    nabla_Z W = pi_V(nabla^g0_Z W)    Z, W vertical

The two metric cases are scale-invariant in epsilon (projected Koszul terms
only ever pair like slots), so a single base connection serves the whole
canonical-variation family; this is exploited by sharing symbolic tables
across vertical rescalings of one model.

Everything pointwise is obtained by evaluating table entries over the
spanning fields and contracting with adapted-frame expansion coefficients;
tensoriality of torsion, covariant derivatives and curvature in every slot
makes the spanning-field extensions legitimate.  The two-index entries
(brackets, the connection, torsion, the rescaled Levi-Civita derivative) are
kept symbolically and shared by a model family; each three-index entry
(nabla T and both curvatures) is built once per point batch and kept only as
its evaluated values (FrameBatch.eval_entry).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import geometry as geo
from .errors import (DegenerateFrameError, DimensionMismatchError,
                     InvalidModelError)
from .geometry import (AmbientChart, MonomialCache, Polynomial, PolyField,
                       bracket, directional_derivative, gram_schmidt_at)

GROUP = "group"
SPHERE = "sphere"


class Split:
    """A vector field kept as (horizontal part, vertical part).

    Either part may be None (meaning zero).  Keeping fields split avoids
    re-projecting pure fields, which would inflate polynomial degrees.
    """

    __slots__ = ("h", "v")

    def __init__(self, h: PolyField | None = None, v: PolyField | None = None):
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
        if backend == GROUP:
            self._group_gamma = self._koszul_table()

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

    def vertical_coefficients(self, F: PolyField) -> list[Polynomial]:
        """Coefficients of the vertical part along the stored vertical fields,
        measured in the base metric (exact on-chart)."""
        N = self.ambient_dim
        if self.backend == SPHERE:
            return [F.dot(Z) for Z in self.vertical_fields]
        n = self.n
        out = []
        for a in range(self.m):
            Aa = self.generators[a]
            terms = [F.components[n + a]]
            for i in range(n):
                row = Polynomial.sum_of(N, [
                    Aa[i, j] * Polynomial.variable(N, j)
                    for j in range(n) if Aa[i, j] != 0.0])
                terms.append(-0.5 * (F.components[i] * row))
            out.append(Polynomial.sum_of(N, terms))
        return out

    def pi_v(self, F: PolyField) -> PolyField:
        coeffs = self.vertical_coefficients(F)
        return PolyField.sum_of(self.ambient_dim,
                                [Z.scale(c) for c, Z in
                                 zip(coeffs, self.vertical_fields)
                                 if not c.is_zero])

    def pi_h(self, F: PolyField) -> PolyField:
        terms = [F, (-self.pi_v(F))]
        if self.backend == SPHERE:
            pos = PolyField.position(self.ambient_dim)
            terms.append(-pos.scale(F.dot(pos)))
        return PolyField.sum_of(self.ambient_dim, terms)

    def split(self, F) -> Split:
        if isinstance(F, Split):
            return F
        return Split(h=self.pi_h(F), v=self.pi_v(F))

    def metric_poly(self, F, G, eps_scale: float = 1.0) -> Polynomial:
        """g(F, G) as a polynomial, with the vertical block scaled by
        1/(epsilon * eps_scale); eps_scale = 1 is the model metric."""
        Fs, Gs = self.split(F), self.split(G)
        out = Polynomial.zero(self.ambient_dim)
        if Fs.h is not None and Gs.h is not None:
            if self.backend == SPHERE:
                out = out + Fs.h.dot(Gs.h)
            else:
                for i in range(self.n):
                    out = out + Fs.h.components[i] * Gs.h.components[i]
        if Fs.v is not None and Gs.v is not None:
            vf = self.vertical_coefficients(Fs.v)
            vg = self.vertical_coefficients(Gs.v)
            scale = 1.0 / (self.epsilon * eps_scale)
            for a in range(self.m):
                out = out + scale * (vf[a] * vg[a])
        return out

    def metric_matrices(self, points, eps_scale: float = 1.0) -> np.ndarray:
        """Pointwise Gram matrices of the (possibly rescaled) model metric."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        P, N = pts.shape
        w = 1.0 / (self.epsilon * eps_scale)
        if self.backend == SPHERE:
            zvals = np.stack([Z.evaluate(pts) for Z in self.vertical_fields], axis=1)
            piv = np.einsum("pan,pam->pnm", zvals, zvals)
            G = np.eye(N)[None] - np.einsum("pn,pm->pnm", pts, pts) - piv + w * piv
            return G
        n, m = self.n, self.m
        theta_v = np.zeros((P, m, N))
        for a in range(m):
            theta_v[:, a, :n] = -0.5 * pts[:, :n] @ self.generators[a].T
            theta_v[:, a, n + a] = 1.0
        G = np.zeros((P, N, N))
        G[:, :n, :n] = np.eye(n)[None]
        G += w * np.einsum("pan,pam->pnm", theta_v, theta_v)
        return G

    # -- connections -----------------------------------------------------------

    def _koszul_table(self) -> np.ndarray:
        """Constant frame connection coefficients of the base left-invariant
        metric: Gamma[alpha, beta, gamma] = <nabla_{E_a} E_b, E_c>."""
        n, m = self.n, self.m
        F = n + m
        c = np.zeros((F, F, F))
        for a in range(m):
            c[:n, :n, n + a] = -self.generators[a]
        return 0.5 * (c - np.transpose(c, (1, 2, 0)) + np.transpose(c, (2, 0, 1)))

    def _group_frame_field(self, alpha: int) -> PolyField:
        if alpha < self.n:
            return self.horizontal_fields[alpha]
        return self.vertical_fields[alpha - self.n]

    def frame_coefficients(self, F: PolyField) -> list[Polynomial]:
        """Group backend: coefficients of F over the left-invariant frame."""
        horiz = [F.components[i] for i in range(self.n)]
        return horiz + self.vertical_coefficients(F)

    def base_levi_civita(self, X: PolyField, Y: PolyField) -> PolyField:
        """Levi-Civita derivative of the base metric (round or left-invariant)."""
        if self.backend == SPHERE:
            return geo.levi_civita(self.chart, X, Y)
        coeff_y = self.frame_coefficients(Y)
        coeff_x = self.frame_coefficients(X)
        terms = []
        for beta, gy in enumerate(coeff_y):
            if gy.is_zero:
                continue
            terms.append(self._group_frame_field(beta).scale(
                directional_derivative(X, gy)))
            for alpha, fx in enumerate(coeff_x):
                if fx.is_zero:
                    continue
                gam = self._group_gamma[alpha, beta]
                for gamma_idx in np.nonzero(gam)[0]:
                    terms.append(self._group_frame_field(int(gamma_idx)).scale(
                        (fx * gy) * float(gam[gamma_idx])))
        return PolyField.sum_of(self.ambient_dim, terms)

    def bott_split(self, F, G) -> Split:
        """The case-wise metric connection preserving both distributions.

        On the sphere backend the Levi-Civita tangential projection is
        subsumed by pi_H (which also removes the normal direction) and by
        pi_V (which kills normal components exactly, since p . A p = 0 for
        skew A), so the raw ambient derivative is projected only once.
        """
        Fs, Gs = self.split(F), self.split(G)
        h_part = None
        v_part = None
        if Fs.h is not None and Gs.h is not None:
            if self.backend == SPHERE:
                h_part = self.pi_h(directional_derivative(Fs.h, Gs.h))
            else:
                h_part = self.pi_h(self.base_levi_civita(Fs.h, Gs.h))
        if Fs.v is not None and Gs.h is not None:
            term = self.pi_h(bracket(Fs.v, Gs.h))
            h_part = term if h_part is None else h_part + term
        if Fs.h is not None and Gs.v is not None:
            v_part = self.pi_v(bracket(Fs.h, Gs.v))
        if Fs.v is not None and Gs.v is not None:
            if self.backend == SPHERE:
                term = self.pi_v(directional_derivative(Fs.v, Gs.v))
            else:
                term = self.pi_v(self.base_levi_civita(Fs.v, Gs.v))
            v_part = term if v_part is None else v_part + term
        return Split(h=h_part, v=v_part)

    def bott(self, F, G) -> PolyField:
        return self.bott_split(F, G).total(self.ambient_dim)

    def torsion_transform(self, F, G) -> PolyField:
        """T(F, G) = -pi_V([pi_H F, pi_H G]); vertical-valued and tensorial."""
        Fs, Gs = self.split(F), self.split(G)
        if Fs.h is None or Gs.h is None:
            return PolyField.zero(self.ambient_dim)
        return -self.pi_v(bracket(Fs.h, Gs.h))

    def j_transform(self, W, X) -> PolyField:
        """The horizontal endomorphism dual to torsion, as a field transformer:
        <j_transform(W, X), Y>_H = g_V(pi_V W, T(pi_H X, Y)) for horizontal Y.

        Sphere backend: for round-orthonormal linear vertical fields Z_a = A_a p
        one has <Z_a, T(X, Y)>_0 = 2 <A_a X, Y>, hence the closed form below.
        """
        Ws, Xs = self.split(W), self.split(X)
        if Ws.v is None or Xs.h is None:
            return PolyField.zero(self.ambient_dim)
        wc = self.vertical_coefficients(Ws.v)
        N = self.ambient_dim
        if self.backend == SPHERE:
            terms = []
            for a in range(self.m):
                if wc[a].is_zero:
                    continue
                img = self.pi_h(Xs.h.apply_matrix(self.vertical_matrices[a]))
                terms.append(img.scale(wc[a] * (2.0 / self.epsilon)))
            return PolyField.sum_of(N, terms)
        xh = [Xs.h.components[i] for i in range(self.n)]
        terms = []
        for j in range(self.n):
            cj = Polynomial.sum_of(N, [
                (self.generators[a][i, j] / self.epsilon) * (wc[a] * xh[i])
                for a in range(self.m) if not wc[a].is_zero
                for i in range(self.n)
                if self.generators[a][i, j] != 0.0 and not xh[i].is_zero])
            if not cj.is_zero:
                terms.append(self.horizontal_fields[j].scale(cj))
        return PolyField.sum_of(N, terms)

    def lc_variation_split(self, F, G, eps_rel: float) -> Split:
        """Levi-Civita connection of g_eps = g_H + (1/eps_rel) g_V, with g the
        model metric: nabla^{g_eps}_F G = nabla_F G - T(F,G)/2
        + (J_F G + J_G F)/(2 eps_rel)."""
        Fs, Gs = self.split(F), self.split(G)
        out = self.bott_split(Fs, Gs)
        t = self.torsion_transform(Fs, Gs)
        if not t.is_zero():
            out = out + Split(v=t.scale(-0.5))
        jfg = self.j_transform(Fs, Gs)
        jgf = self.j_transform(Gs, Fs)
        jsum = jfg + jgf
        if not jsum.is_zero():
            out = out + Split(h=jsum.scale(0.5 / eps_rel))
        return out

    # -- table entries over the spanning fields ------------------------------
    #
    # Antisymmetric entries are built only for a < b: FrameBatch.eval_entry
    # canonicalizes every key first.  Two-index entries are kept symbolically
    # because every three-index entry reuses them.

    def _table(self, name: str) -> dict:
        return self._tables.setdefault(name, {})

    def bracket_entry(self, a: int, b: int) -> PolyField:
        tab = self._table("bracket")
        if (a, b) not in tab:
            tab[(a, b)] = bracket(self.span_split(a).total(self.ambient_dim),
                                  self.span_split(b).total(self.ambient_dim))
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
            tab[(a, b)] = Split(v=self.torsion_transform(self.span_split(a),
                                                         self.span_split(b)))
        return tab[(a, b)]

    def nabla_t_entry(self, d: int, a: int, b: int) -> Split:
        """(nabla_{E_d} T)(E_a, E_b), vertical-valued."""
        Ed = self.span_split(d)
        return Split(v=(
            self.bott_split(Ed, self.torsion_entry(a, b)).total(self.ambient_dim)
            - self.torsion_transform(self.bott_entry(d, a), self.span_split(b))
            - self.torsion_transform(self.span_split(a), self.bott_entry(d, b))))

    def curvature_entry(self, a: int, b: int, c: int) -> Split:
        """R(E_a, E_b) E_c with R(U, V) = [nabla_U, nabla_V] - nabla_{[U,V]}."""
        Ea, Eb = self.span_split(a), self.span_split(b)
        return (self.bott_split(Ea, self.bott_entry(b, c))
                + (-self.bott_split(Eb, self.bott_entry(a, c)))
                + (-self.bott_split(self.bracket_split_entry(a, b),
                                    self.span_split(c))))

    def lc_entry(self, total_eps: float, a: int, b: int) -> Split:
        """First rescaled-metric derivative table; keyed by the total vertical
        scale so canonical-variation copies of one model share entries."""
        tab = self._table("lc")
        key = (round(total_eps, 12), a, b)
        if key not in tab:
            eps_rel = total_eps / self.epsilon
            tab[key] = self.lc_variation_split(self.span_split(a),
                                               self.span_split(b), eps_rel)
        return tab[key]

    def lc_curvature_entry(self, total_eps: float, a: int, b: int, c: int) -> Split:
        """Curvature of the Levi-Civita connection of the rescaled metric."""
        eps_rel = total_eps / self.epsilon
        Ea, Eb = self.span_split(a), self.span_split(b)
        return (
            self.lc_variation_split(Ea, self.lc_entry(total_eps, b, c), eps_rel)
            + (-self.lc_variation_split(Eb, self.lc_entry(total_eps, a, c), eps_rel))
            + (-self.lc_variation_split(self.bracket_split_entry(a, b),
                                        self.span_split(c), eps_rel)))

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
                    f"horizontal span has rank {len(xb)} < {self.n} at point {p_idx}")
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

    def components(self, ambient: np.ndarray) -> np.ndarray:
        """Measure trailing ambient vectors against the full adapted frame."""
        return np.einsum("p...n,pnm,pdm->p...d", ambient, self.metric, self.frame)

    def slot(self, domain: str) -> tuple[list[int], np.ndarray]:
        """Spanning indices and expansion weights for a contraction slot."""
        model = self.model
        kh = model.span_h_count
        P = self.points.shape[0]
        if domain == "h":
            return list(range(kh)), self.wh
        if domain == "v":
            return list(range(kh, kh + model.m)), self.wv
        if domain == "all":
            W = np.zeros((P, model.n + model.m, kh + model.m))
            W[:, :model.n, :kh] = self.wh
            W[:, model.n:, kh:] = self.wv
            return list(range(kh + model.m)), W
        raise ValueError(f"unknown slot domain {domain!r}")

    def eval_entry(self, name: str, key: tuple, builder,
                   antisym: tuple[int, int] | None = None) -> np.ndarray:
        """Evaluated table entry over this batch, built lazily.

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
        out = builder(*key).evaluate(self.points, self.mono)
        store[key] = out
        return out


# ---------------------------------------------------------------------------
# batched tensor evaluation


def _contract3(fb: FrameBatch, name: str, entry_fn, d1: str, d2: str, d3: str,
               antisym: tuple[int, int] | None = None) -> np.ndarray:
    """Evaluate a 3-slot tensor table over slot domains and contract with the
    adapted-frame expansions; returns ambient vectors (P, f1, f2, f3, N)."""
    idx1, W1 = fb.slot(d1)
    idx2, W2 = fb.slot(d2)
    idx3, W3 = fb.slot(d3)
    P, N = fb.points.shape
    f3 = W3.shape[1]
    M = np.zeros((len(idx1), len(idx2), P, f3, N))
    for ia, a in enumerate(idx1):
        for ib, b in enumerate(idx2):
            vals = np.stack([fb.eval_entry(name, (a, b, c), entry_fn, antisym)
                             for c in idx3], axis=0)      # (K3, P, N)
            M[ia, ib] = np.einsum("pkc,cpn->pkn", W3, vals)
    M2 = np.einsum("pia,abpkn->bpikn", W1, M)
    return np.einsum("pjb,bpikn->pijkn", W2, M2)


def _contract2(fb: FrameBatch, name: str, entry_fn, d1: str, d2: str,
               antisym: tuple[int, int] | None = None) -> np.ndarray:
    idx1, W1 = fb.slot(d1)
    idx2, W2 = fb.slot(d2)
    P, N = fb.points.shape
    vals = np.zeros((len(idx1), len(idx2), P, N))
    for ia, a in enumerate(idx1):
        for ib, b in enumerate(idx2):
            vals[ia, ib] = fb.eval_entry(name, (a, b), entry_fn, antisym)
    M = np.einsum("pjb,abpn->apjn", W2, vals)
    return np.einsum("pia,apjn->pijn", W1, M)


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
    amb = _contract3(fb, "nabla_t", model.nabla_t_entry, directions, "h", "h",
                     antisym=(1, 2))
    comps = fb.components(amb)                     # (P, D, n, n, n+m)
    return np.transpose(comps[..., model.n:], (0, 1, 4, 2, 3))


def curvature_components(fb: FrameBatch, d1: str = "all", d2: str = "all",
                         d3: str = "all") -> np.ndarray:
    """<R(u_a, u_b) u_c, u_d> over the requested slot domains;
    shape (P, f1, f2, f3, n+m)."""
    amb = _contract3(fb, "curvature", fb.model.curvature_entry, d1, d2, d3,
                     antisym=(0, 1))
    return fb.components(amb)


def lc_curvature_ambient(fb: FrameBatch, eps_rel: float, d1: str = "v",
                         d2: str = "all", d3: str = "all") -> np.ndarray:
    """Ambient values of the Levi-Civita curvature of the rescaled metric
    g_H + (1/eps_rel) g_V; shape (P, f1, f2, f3, N)."""
    model = fb.model
    total = model.epsilon * eps_rel
    entry = lambda a, b, c: model.lc_curvature_entry(total, a, b, c)
    return _contract3(fb, f"lc_curvature[{round(total, 12)}]", entry, d1, d2, d3,
                      antisym=(0, 1))


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
