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
whole canonical-variation family.

Everything pointwise is evaluated on the adapted frame, the form in which
every identity is stated.  At each point the frame fields are fixed
combinations x_i = sum_mu W_{i,mu} E_mu of the spanning fields, with the
weights W frozen there (the minimum-norm ones, so that no weight amplifies
rounding).  Every formula is R-multilinear in its field arguments and
pointwise on jets, so the formulas run on the jets of these frozen-weight
fields give the frame components directly; no C^infinity-linearity is
needed, because W is constant within each point's arithmetic.

The formulas (projections, the connection, torsion, J and the rescaled
Levi-Civita connection) are written once, against a few field operations
that both symbolic fields (PolyField) and point jets (PointField) provide.
Every spanning field is a polynomial of degree <= 2, so its order-2 jet at a
point batch is exact and cheap: values and Jacobians at the points, and one
point-independent Hessian from the exact partials d_j E_a, the model's only
symbolic table.  The values and Jacobians, with the coframe's, come from one
evaluation per batch (FoliationModel.jets); the adapted frame is built from
the same values, and the frame fields' values and Jacobians replace the
horizontal spanning ones (one matmul per point).  Their Hessians are formed
per chunk of points, and not at all for a block whose spanning Hessians are
exactly zero (every block of a group, and the sphere's vertical one).  A
two-index entry (the split bracket, the connection, torsion, the rescaled
Levi-Civita derivative) applies one derivative to frame fields, so the
formulas give it as an order-1 jet at the batch.  A three-index entry
(nabla T and both curvatures) applies one more derivative to a two-index
entry or a frame field and then only pointwise linear algebra, so the
formulas give its values from those order-1 jets.  Only the three-index
entries and the torsion values are kept, in the batch
(FrameBatch.eval_entry), as frame components: the key slots are frame
fields already, so only the value is measured against the frame as the
entry is built (FrameBatch.assemble), and every reader takes a read-only
view of the kept array.

Entries are addressed by blocks: "h" for the horizontal frame fields x_i,
"v" for the vertical ones z_a, horizontals first.  A two-index entry is built
over two whole blocks; a three-index entry over one block string per slot
("hv", or "v" for R^ghat, which is read only with a vertical first slot),
by running its formula once per block triple on slots (Slot: a block and
its axis), which place whole blocks of jets as views.  Both equal the
symbolic compositions up to rounding.

Every two-index entry is a projection of the derivative table
D(a, b) = D_{E_a} E_b (Derivatives), in the cases of ``bott_split``: the
bracket is D(a, b) - D(b, a), with D(b, a) read as a transposed view.  A
block pair whose parts are all exactly 0.0 is stored as None, so no
projection or formula term runs on it; on a group that is every pair but
hh.  A three-index build (PairBuild) makes one table per block group
({h, h}, {h, v}, {v, v}) when its formula first reads a two-index entry of
that group, and builds every declared entry of the group from it at once.
The torsion values, a two-index entry kept on its own, read one table per
block pair.

Every formula is pointwise, so every kept entry is built over consecutive
chunks of at most POINT_CHUNK points (FrameBatch.chunks): each chunk runs
the formulas on a view batch and adds its components into its slice of the
one kept zero array, so a build's transient scales with the chunk, not with
the sample, and a block that is exactly zero is never written.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (DegenerateFrameError, DimensionMismatchError,
                     InvalidModelError)
from .geometry import (AmbientChart, MonomialCache, Polynomial, PolyField,
                       PointField, bracket, directional_derivative,
                       field_jets, field_partials, gram_schmidt_at)

#: highest polynomial degree of a spanning field: it makes Hessians constant
MAX_SPAN_DEGREE = 2

GROUP = "group"
SPHERE = "sphere"

#: points per chunk of an entry build (FrameBatch.chunks), and of the
#: readers that reduce full-sample temporaries.  Peak RSS of ``verify`` on
#: 2 vCPUs with BLAS on one thread, for chunks of 8 / 16 / 32 / 64 points
#: (unchunked in brackets): ``--all --points 32`` 62 / 72 / 93 / 93 MB (93),
#: the four groups at 128 points 72 / 73 / 73 / 88 MB (118), and
#: quaternionic-hopf-s11 at 128 points 96 / 97 / 123 / 157 MB (235) and at
#: 256 points 152 / 151 / 155 / 194 MB (435), with wall times within
#: run-to-run noise of each other.
POINT_CHUNK = 16


def point_chunks(count: int) -> list[slice]:
    """Consecutive slices of at most POINT_CHUNK of ``count`` points."""
    return [slice(s, min(s + POINT_CHUNK, count))
            for s in range(0, count, POINT_CHUNK)]


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

    def _merge(self, other: "Split", op, lone) -> "Split":
        """Combine part by part: ``op(a, b)``, or ``lone(b)`` for b alone."""
        def merge(a, b):
            if b is None:
                return a
            return lone(b) if a is None else op(a, b)
        return Split(merge(self.h, other.h), merge(self.v, other.v))

    def __add__(self, other: "Split") -> "Split":
        return self._merge(other, lambda a, b: a + b, lambda b: b)

    def __sub__(self, other: "Split") -> "Split":
        return self._merge(other, lambda a, b: a - b, lambda b: -b)

    def scale(self, s: float) -> "Split":
        return Split(None if self.h is None else self.h.scale(s),
                     None if self.v is None else self.v.scale(s))


def vertical_part(F: PolyField, vertical, coframe) -> PolyField:
    """sum_a Z_a theta^a(F): the part of F along the vertical fields Z_a,
    measured by the coframe theta^a dual to them."""
    return PolyField.sum_of(F.n_vars, [Z.scale(F.dot(theta))
                                       for Z, theta in zip(vertical, coframe)])


def horizontal_part(F: PolyField, vertical, coframe,
                    position: PolyField | None = None) -> PolyField:
    """F minus its vertical part and, given the position field p of the
    unit sphere, minus its normal part <F, p> p."""
    terms = [F, -vertical_part(F, vertical, coframe)]
    if position is not None:
        terms.append(-position.scale(F.dot(position)))
    return PolyField.sum_of(F.n_vars, terms)


class FoliationModel:
    """A foliated model space on a Euclidean or unit-sphere ambient chart.

    On the sphere the horizontal spanning fields are the projections
    pi_H e_mu of the ambient basis, in order (as ``models`` builds them):
    the frame weights rely on it, and ``frame_batch`` refuses another
    family."""

    def __init__(self, name: str, backend: str, chart: AmbientChart,
                 n: int, m: int, epsilon: float,
                 vertical_fields: Sequence[PolyField],
                 horizontal_fields: Sequence[PolyField],
                 generators: np.ndarray | None = None,
                 vertical_matrices: np.ndarray | None = None):
        if backend not in (GROUP, SPHERE):
            raise InvalidModelError(f"unknown backend {backend!r}")
        if not 0 < epsilon < np.inf:
            raise InvalidModelError(
                f"epsilon must be positive and finite, not {epsilon!r}")
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
        for i, F in enumerate(self.horizontal_fields + self.vertical_fields):
            keys = np.concatenate([c.keys for c in F.components])
            degree = Polynomial(N, keys, np.ones(keys.size)).degree()
            if degree > MAX_SPAN_DEGREE:
                raise InvalidModelError(
                    f"spanning field {i} of {name!r} has degree {degree}; "
                    f"the jet engine needs degree <= {MAX_SPAN_DEGREE}")
        # the symbolic table (span_partials) and the cached frame batches
        self._tables = {}

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

    @property
    def span_partials(self) -> dict:
        """The exact partials d_j E_a of the spanning fields (horizontals
        first, then verticals), keyed (a, j): the one symbolic table, built
        on first use."""
        tab = self._tables.get("span_partials")
        if tab is None:
            parts = field_partials(self.horizontal_fields
                                   + self.vertical_fields)
            tab = self._tables["span_partials"] = {
                (a, j): F for a, row in enumerate(parts)
                for j, F in enumerate(row)}
        return tab

    @cached_property
    def _span_hessians(self) -> np.ndarray:
        """The Hessians of the spanning fields, (K, N, N, N) with
        ``[a, i, j, k] = d_j d_k E_a^i``, the same at every point: the
        Jacobians of the exact partials (of degree <= 1) at one point."""
        N, K = self.ambient_dim, self.span_count
        partials = self.span_partials
        hess = field_jets([partials[a, j] for a in range(K) for j in range(N)],
                          MonomialCache(np.zeros((1, N))))[1]
        # hess[a * N + j, 0, i, k] = d_k d_j E_a^i
        return np.ascontiguousarray(
            hess.reshape(K, N, N, N).transpose(0, 2, 1, 3))

    # -- projections and metric ----------------------------------------------

    @cached_property
    def _symbolic_fields(self) -> tuple:
        """The vertical fields, the coframe dual to them and the position
        field, which the projections combine with their arguments.

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

    def vertical_coefficients(self, F) -> list:
        """Coefficients of the vertical part along the stored vertical fields,
        measured in the base metric (exact on-chart): Polynomials, or scalar
        jets at the points of a jet."""
        coframe = (F.at.coframe if isinstance(F, PointField)
                   else self._symbolic_fields[1])
        return [F.dot(theta) for theta in coframe]

    def pi_v(self, F):
        """The vertical part, along the stored vertical fields; on a jet, one
        pointwise projector matrix with its 1-jet (``FieldsAt``)."""
        if isinstance(F, PointField):
            return F.apply_matrix(*F.at.pi_v)
        return vertical_part(F, *self._symbolic_fields[:2])

    def pi_h(self, F):
        """The horizontal part (tangent to the sphere on that backend); on a
        jet, one pointwise projector matrix with its 1-jet."""
        if isinstance(F, PointField):
            return F.apply_matrix(*F.at.pi_h)
        vertical, coframe, position = self._symbolic_fields
        return horizontal_part(F, vertical, coframe,
                               position if self.backend == SPHERE else None)

    def split(self, F) -> Split:
        if isinstance(F, Split):
            return F
        return Split(h=self.pi_h(F), v=self.pi_v(F))

    def jets(self, cache: MonomialCache) -> tuple[np.ndarray, np.ndarray]:
        """Order-1 jets at the cache's points of the spanning fields
        (horizontals first, then verticals) and then of the coframe, from one
        ``field_jets`` call: values (K + m, P, N) and Jacobians
        (K + m, P, N, N).  Every reader at a point batch (the frame, the
        metric, the spanning jets, the projections) takes its fields from
        this one evaluation."""
        return field_jets(self.horizontal_fields + self.vertical_fields
                          + self._symbolic_fields[1], cache)

    def metric_matrices(self, points, coframe: np.ndarray,
                        eps_scale: float = 1.0) -> np.ndarray:
        """Pointwise Gram matrices of g_H + g_V / (epsilon * eps_scale), with
        g_V = sum_a theta^a (x) theta^a over the coframe values (m, P, N) at
        ``points`` (P, N), and g_H = I - p p^T - g_V on the sphere, the first
        n coordinates on a group."""
        gv = np.einsum("apn,apm->pnm", coframe, coframe)
        w = 1.0 / (self.epsilon * eps_scale)
        if self.backend == SPHERE:
            pp = np.einsum("pn,pm->pnm", points, points)
            return np.eye(points.shape[1])[None] - pp - gv + w * gv
        G = w * gv
        G[:, :self.n, :self.n] += np.eye(self.n)
        return G

    def metric_lie_derivatives(self, cache: MonomialCache) -> np.ndarray:
        """(L_W g)(F, G) = (D_W g)(F, G) + g(D_F W, G) + g(F, D_G W) at the
        cache's points for every spanning triple, (P, K, K, K) indexed
        [p, W, F, G], from 1-jets.  It is a form plus its transpose in (F, G),
        since d_k g = h_k + h_k^T with h_k from the coframe (and -e_k p^T on
        the sphere)."""
        values, jacobians = self.jets(cache)
        K = self.span_count
        val, jac, theta = values[:K], jacobians[:K], values[K:]
        h = np.einsum("apnk,apm->pnmk", jacobians[K:], theta)  # half of d_k g_V
        if self.backend == GROUP:
            h = h / self.epsilon
        else:                           # g = I - p p^T + (1/epsilon - 1) g_V
            h = (1.0 / self.epsilon - 1.0) * h - np.einsum(
                "nk,pm->pnmk", np.eye(self.ambient_dim), cache.points)
        g_val = np.einsum("pnm,gpm->gpn",
                          self.metric_matrices(cache.points, theta), val)
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

    def torsion_transform(self, F, G) -> Split:
        """T(F, G) = -pi_V([pi_H F, pi_H G]) = pi_V([pi_H G, pi_H F]);
        vertical-valued and tensorial."""
        Fs, Gs = self.split(F), self.split(G)
        if Fs.h is None or Gs.h is None:
            return Split()
        return Split(v=self.pi_v(bracket(Gs.h, Fs.h)))

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
            Xs.h.apply_matrix(B / self.epsilon).scale(c)
            for c, B in zip(wc, self._j_matrices)])))

    def lc_variation_split(self, F, G, eps_rel: float) -> Split:
        """Levi-Civita connection of g_eps = g_H + (1/eps_rel) g_V, with g the
        model metric: nabla^{g_eps}_F G = nabla_F G - T(F,G)/2
        + (J_F G + J_G F)/(2 eps_rel)."""
        Fs, Gs = self.split(F), self.split(G)
        return self._lc(Fs, Gs, eps_rel, self.bott_split(Fs, Gs),
                        self.torsion_transform(Fs, Gs))

    def _lc(self, Fs: Split, Gs: Split, eps_rel: float, bott: Split,
            torsion: Split) -> Split:
        """``lc_variation_split`` given nabla_F G and T(F, G)."""
        return (bott + torsion.scale(-0.5)
                + (self.j_transform(Fs, Gs)
                   + self.j_transform(Gs, Fs)).scale(0.5 / eps_rel))

    # -- two-index entries at a point batch, from 2-jets ---------------------
    #
    # Each takes a derivative table D (Derivatives) and the blocks ("h" or
    # "v") of its two slots, and returns the entry over the whole blocks,
    # laid out by (a, b), as a Split of jets: order-1 jets, or values only
    # on a table of ``keep=0`` (see PointField).  Each reads D(a, b) =
    # D_{E_a} E_b in the cases of ``bott_split`` and projects it; a block of
    # D that is exactly zero is None there, and no projection runs on it.

    def bracket_entry(self, D: "Derivatives", ka: str, kb: str) -> Split:
        """[E_a, E_b] = D(a, b) - D(b, a), split."""
        F = _minus(D(ka, kb), D.back(ka, kb))
        return Split() if F is None else self.split(F)

    def bott_entry(self, D: "Derivatives", ka: str, kb: str) -> Split:
        """``bott_split`` of E_a and E_b: D(a, b) for like blocks, the
        bracket for mixed ones, projected onto the block of b."""
        F = D(ka, kb) if ka == kb else _minus(D(ka, kb), D.back(ka, kb))
        return self._onto(kb, F)

    def torsion_entry(self, D: "Derivatives", ka: str, kb: str) -> Split:
        """``torsion_transform`` of E_a and E_b: [E_b, E_a] projected
        vertically on two horizontal blocks, else zero."""
        if ka == "v" or kb == "v":
            return Split()
        return self._onto("v", _minus(D.back(ka, kb), D(ka, kb)))

    def lc_entry(self, D: "Derivatives", eps_rel: float, ka: str,
                 kb: str) -> Split:
        """The Levi-Civita derivative of g_H + (1/eps_rel) g_V."""
        a, b = _pair(ka, kb)
        return self._lc(D.E(a), D.E(b), eps_rel, self.bott_entry(D, ka, kb),
                        self.torsion_entry(D, ka, kb))

    def _onto(self, kind: str, F: PointField | None) -> Split:
        """pi_H F or pi_V F, for ``kind`` "h" or "v"."""
        if F is None:
            return Split()
        return Split(h=self.pi_h(F)) if kind == "h" else Split(v=self.pi_v(F))

    # -- three-index entries at a point batch, from 1-jets -------------------
    #
    # Each takes one block string per slot ("hv" for every frame index,
    # "v" for the vertical ones only) and returns the frame components over
    # the frame vectors of those blocks, (P, F1, F2, F3, n+m) (see
    # FrameBatch.assemble), added into ``out`` when it is given.  The
    # formula runs on slots (Slot), once per block triple.  It reads the
    # frame fields and the two-index entries as jets truncated to values
    # (keep 0), so it computes no derivative that it does not use.  The
    # two-index entries are declared with the key slots they are read at
    # (PairBuild).

    def nabla_t_entry(self, fb: "FrameBatch", d, a, b,
                      out: np.ndarray | None = None) -> np.ndarray:
        """(nabla_{E_d} T)(E_a, E_b), vertical-valued."""
        E, build = fb.fields(keep=0), PairBuild(fb, (d, a, b))
        C = build.pairs(self.bott_entry, (0, 1), (0, 2))
        T = build.pairs(self.torsion_entry, (1, 2))
        return fb.assemble((d, a, b), lambda d, a, b: (
            self.bott_split(E(d), T(a, b))
            - self.torsion_transform(C(d, a), E(b))
            - self.torsion_transform(E(a), C(d, b))), out)

    def curvature_entry(self, fb: "FrameBatch", a, b, c,
                        out: np.ndarray | None = None) -> np.ndarray:
        """R(E_a, E_b) E_c with R(U, V) = [nabla_U, nabla_V] - nabla_{[U,V]}."""
        E, build = fb.fields(keep=0), PairBuild(fb, (a, b, c))
        C = build.pairs(self.bott_entry, (1, 2), (0, 2))
        S = build.pairs(self.bracket_entry, (0, 1))
        return fb.assemble((a, b, c), lambda a, b, c: (
            self.bott_split(E(a), C(b, c))
            - self.bott_split(E(b), C(a, c))
            - self.bott_split(S(a, b), E(c))), out)

    def lc_curvature_entry(self, fb: "FrameBatch", eps_rel: float,
                           a, b, c, out: np.ndarray | None = None
                           ) -> np.ndarray:
        """Curvature of the Levi-Civita connection of g_H + (1/eps_rel) g_V."""
        E, build = fb.fields(keep=0), PairBuild(fb, (a, b, c))
        L = build.pairs(lambda D, ka, kb: self.lc_entry(D, eps_rel, ka, kb),
                        (1, 2), (0, 2))
        S = build.pairs(self.bracket_entry, (0, 1))
        return fb.assemble((a, b, c), lambda a, b, c: (
            self.lc_variation_split(E(a), L(b, c), eps_rel)
            - self.lc_variation_split(E(b), L(a, c), eps_rel)
            - self.lc_variation_split(S(a, b), E(c), eps_rel)), out)

    # -- frames ----------------------------------------------------------------

    def frame_batch(self, points) -> "FrameBatch":
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        P, N = pts.shape
        if N != self.ambient_dim:
            raise DimensionMismatchError("points have wrong ambient dimension")
        jets = self.jets(MonomialCache(pts))
        values, K, kh = jets[0], self.span_count, self.span_h_count
        G = self.metric_matrices(pts, values[K:])
        # the metric on the chart's tangent space: on the sphere, on p^perp
        # (adding p p^T puts the eigenvalue 1 along p)
        T = G
        if self.backend == SPHERE:
            pp = np.einsum("pn,pm->pnm", pts, pts)
            T = (np.eye(N) - pp) @ G @ (np.eye(N) - pp) + pp
        lowest = np.linalg.eigvalsh(T)[:, 0]
        # one pass per block; the first point where the metric is not
        # positive definite or either block falls short of its rank is
        # reported, the metric first, then the vertical block
        z, wv, kept_v = gram_schmidt_at(values[kh:K].swapaxes(0, 1), G)
        xb, whb, kept = gram_schmidt_at(values[:kh].swapaxes(0, 1), G)
        rank_v, rank_h = kept_v.sum(axis=1), kept.sum(axis=1)
        bad = np.flatnonzero((lowest <= 0) | (rank_v != self.m)
                             | (rank_h != self.n))
        if bad.size:
            p = bad[0]
            if lowest[p] <= 0:
                raise InvalidModelError(
                    f"metric is not positive definite at point {p}: smallest "
                    f"eigenvalue {lowest[p]:.3e} on the tangent space")
            block, rank, want = (("vertical", rank_v[p], self.m)
                                 if rank_v[p] != self.m
                                 else ("horizontal", rank_h[p], self.n))
            raise DegenerateFrameError(f"{block} span has rank {rank}, "
                                       f"expected {want}, at point {p}")
        x = xb[kept].reshape(P, self.n, N)
        # the minimum-norm weights of x over the horizontal spanning fields:
        # on the sphere those are the rows of pi_H, a Parseval frame of H, so
        # the weights are the ambient coordinates of x, each at most 1; on a
        # group the fields are a basis and the weights unique
        wh = x if self.backend == SPHERE else whb[kept].reshape(P, self.n, kh)
        hess = self._span_hessians.reshape(K, -1)
        blocks = ((wh, slice(0, kh)), (wv, slice(kh, K)))
        jets = tuple(_frame_parts(part, blocks) for part in jets)
        # the frame fields' values are the frame only for valid weights
        if not np.abs(jets[0][:self.n] - x.swapaxes(0, 1)).max() <= 1e-9:
            raise InvalidModelError("horizontal spanning fields on the sphere "
                                    "must be the projections pi_H e_mu")
        return FrameBatch(self, pts, jets, G, x, z, tuple(
            (W, hess[s]) if hess[s].any() else None for W, s in blocks))


def _frame_parts(part: np.ndarray, blocks) -> np.ndarray:
    """The values (F, P, N) or Jacobians (F, P, N, N) of the frame fields
    from those of the spanning fields and the coframe (``FoliationModel.
    jets``): for each block ``(W, s)``, ``W (P, f, B) @ part[s]`` (one matmul
    per point), then everything from the last block on as it is (the
    vertical spanning fields and the coframe), laid out point-major."""
    F, P = part.shape[:2]
    flat = part.reshape(F, P, -1).swapaxes(0, 1)             # (P, F, L)
    out = np.concatenate([W @ flat[:, s] for W, s in blocks]
                         + [flat[:, blocks[-1][1].start:]], axis=1)
    return out.swapaxes(0, 1).reshape((-1,) + part.shape[1:])


@dataclass
class FrameBatch:
    """Adapted frames over a point batch, the jets there of the frame fields
    and of the model's vertical fields and coframe, and the evaluated-value
    cache.

    ``jets`` holds values (n + 3m, P, N) and Jacobians (n + 3m, P, N, N) of
    the frame fields x_i = sum_mu W_{i,mu} E_mu and z_a (the weights W frozen
    at each point), then of the vertical spanning fields and the coframe.
    ``hessians`` holds, per block ("h", "v"), None where the block's
    spanning fields have Hessians that are exactly zero, else the weights
    (P, f, B) and the spanning Hessians (B, N^3) whose product is the frame
    Hessians, formed per chunk (``_frame_hessians``)."""

    model: FoliationModel
    points: np.ndarray
    jets: tuple[np.ndarray, np.ndarray]
    metric: np.ndarray   # (P, N, N)
    x: np.ndarray        # (P, n, N)
    z: np.ndarray        # (P, m, N)
    hessians: tuple
    _values: dict = field(default_factory=dict)

    @cached_property
    def frame(self) -> np.ndarray:
        """The adapted frame (x, then z) as ambient vectors: (P, n+m, N)."""
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

    def ambient(self, components: np.ndarray) -> np.ndarray:
        """The ambient vectors sum_d c_d u_d of trailing frame components:
        one matmul per point, the inverse of ``components``."""
        P = self.points.shape[0]
        flat = components.reshape(P, -1, components.shape[-1]) @ self.frame
        return flat.reshape(components.shape[:-1] + (flat.shape[-1],))

    @property
    def _sizes(self) -> dict[str, int]:
        """The number of frame fields of each block."""
        return {"h": self.x.shape[1], "v": self.z.shape[1]}

    def frame_slice(self, domain: str) -> slice:
        """The frame indices of a slot domain: "h" (x_i), "v" (z_a) or
        "all" (a KeyError for any other), along a slot of an entry stored
        over both blocks."""
        n, m = self._sizes.values()
        return dict(h=slice(0, n), v=slice(n, n + m),
                    all=slice(0, n + m))[domain]

    def eval_entry(self, name: str, key: tuple, builder,
                   antisym: tuple[int, int] | None = None) -> np.ndarray:
        """Point values ``builder(*key)`` over this batch, built lazily and
        stored read-only, since readers take views of them.

        ``antisym`` names two key positions in which the table is known to be
        antisymmetric; keys are then canonicalized, so the builder is called
        at most once per batch for each entry, and only with the first of
        the two positions below the second.
        """
        store = self._values.setdefault(name, {})
        if key in store:
            return store[key]
        if antisym is not None and key[antisym[0]] == key[antisym[1]]:
            out = np.zeros_like(self.points)
        elif antisym is not None and key[antisym[0]] > key[antisym[1]]:
            i, j = antisym
            swapped = list(key)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            out = -self.eval_entry(name, tuple(swapped), builder, antisym)
        else:
            out = builder(*key)
        out.flags.writeable = False
        store[key] = out
        return out

    # -- jets ------------------------------------------------------------------

    @cached_property
    def _fields_at(self) -> "FieldsAt":
        """The model's coframe and projections at the points, from the
        1-jets of its vertical fields and coframe: pi_V = sum_a Z_a theta^a,
        and pi_H = I - pi_V (- p p^T on the sphere)."""
        N, m = self.points.shape[1], self.z.shape[1]
        (z, t), (dz, dt) = ((part[-2 * m:-m], part[-m:]) for part in self.jets)
        pv = np.einsum("api,apj->pij", z, t)
        dpv = (np.einsum("apik,apj->pikj", dz, t)            # [p, i, k, j]
               + np.einsum("api,apjk->pikj", z, dt))
        ph, dph = np.eye(N) - pv, -dpv
        if self.model.backend == SPHERE:
            p, eye = self.points, np.eye(N)
            ph -= p[:, :, None] * p[:, None, :]
            dph -= (eye[None, :, :, None] * p[:, None, None, :]
                    + p[:, :, None, None] * eye[None, None])
        return FieldsAt(tuple(PointField(t[a], dt[a]) for a in range(len(t))),
                        (pv, dpv), (ph, dph))

    @cached_property
    def _frame_hessians(self) -> tuple:
        """The Hessians of the frame fields of each block, (f, P, N, N, N),
        with their weights frozen: one matmul ``W @ d^2 E`` over this
        batch's points, or 0.0 for a block whose spanning Hessians are
        exactly zero."""
        P, N = self.points.shape
        return tuple(0.0 if f is None else (
            f[0].reshape(-1, f[0].shape[2]) @ f[1]).reshape(
                P, -1, N, N, N).swapaxes(0, 1) for f in self.hessians)

    def chunks(self):
        """``(c, view)`` for the consecutive point slices ``c`` of
        ``point_chunks``: a batch over ``points[c]`` whose arrays, jets and
        metric-lowered frame are this batch's, sliced along the point axis,
        so no field is evaluated again.  Each view forms the projections
        and the frame Hessians of its own points only (``_fields_at``,
        ``_frame_hessians``), so no array of those over the sample is
        kept."""
        for c in point_chunks(len(self.points)):
            view = FrameBatch(self.model, self.points[c],
                              tuple(part[:, c] for part in self.jets),
                              self.metric[c], self.x[c], self.z[c],
                              tuple(None if f is None else (f[0][c], f[1])
                                    for f in self.hessians))
            view.__dict__["_metric_frame"] = self._metric_frame[c]
            yield c, view

    def fields(self, keep: int = 2):
        """The frame fields as Splits of order-2 jets (of order 1 with
        ``keep`` 0, which reads no Hessian): ``E(slot)`` for the whole block
        of a Slot, placed along its axis.  ``keep`` truncates what formulas
        compute from them (see PointField)."""
        (value, jac), (n, m) = self.jets, self._sizes.values()
        hessians = self._frame_hessians if keep else (None, None)
        h, v = (PointField(value[s], jac[s], hess, self._fields_at, keep)
                for s, hess in zip((slice(0, n), slice(n, n + m)), hessians))

        def E(slot: Slot) -> Split:
            if slot.block == "h":
                return Split(_place(h, slot), None)
            return Split(None, _place(v, slot))
        return E

    def zeros(self, blocks) -> np.ndarray:
        """A zero array of frame components over one block string per key
        axis (see ``assemble``), (P, F1, ..., F), its sizes read off the
        frame and the metric-lowered frame."""
        size = self._sizes
        return np.zeros((len(self.points),
                         *(sum(size[k] for k in s) for s in blocks),
                         self._metric_frame.shape[-1]))

    def assemble(self, blocks, formula,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Frame components of ``formula(*slots) -> Split`` over one block
        string per key axis ("h", "v" or "hv": the frame fields of those
        blocks, x_i for "h" and z_a for "v", horizontals first), added into
        ``out`` (a new ``zeros`` array when None) and returned, the last
        axis holding the n+m frame components of the value.

        The formula runs once per combination of the blocks, on one Slot per
        axis, so that every Split part is a pure block and whole blocks of
        jets are read as views.  Only the combinations whose formula has a
        part are written, so the pages of a zero block are never touched.
        The key slots are frame fields already, so only the value is
        measured (``components``)."""
        P, N = self.points.shape
        size = self._sizes
        if out is None:
            out = self.zeros(blocks)
        for kinds in itertools.product(*blocks):
            res = formula(*(Slot(k, axis, len(blocks))
                            for axis, k in enumerate(kinds)))
            parts = [part.value for part in (res.h, res.v) if part is not None]
            if not parts:
                continue
            value = parts[0] if len(parts) == 1 else parts[0] + parts[1]
            lead = tuple(size[k] for k in kinds)
            at = [slice(None)]
            for s, k in zip(blocks, kinds):
                start = sum(size[b] for b in s[:s.index(k)])
                at.append(slice(start, start + size[k]))
            out[tuple(at)] += self.components(
                np.moveaxis(np.broadcast_to(value, lead + (P, N)), -2, 0))
        return out


class Slot(NamedTuple):
    """One key axis of a formula: the block ("h" or "v") of frame indices
    that it runs over, its position, and the number of key axes."""

    block: str
    axis: int
    rank: int


@dataclass(frozen=True)
class FieldsAt:
    """The model's fields at a batch's points, which the formulas combine
    with the jets there (``PointField.at``): the coframe as order-1 jets, and
    pi_V and pi_H as pointwise matrices with their 1-jets, the arguments of
    ``PointField.apply_matrix``."""

    coframe: tuple[PointField, ...]
    pi_v: tuple[np.ndarray, np.ndarray]
    pi_h: tuple[np.ndarray, np.ndarray]


class Derivatives:
    """The derivative table D(a, b) = D_{E_a} E_b of the frame fields at a
    batch's points, which every two-index entry is read off: ``D(ka, kb)``
    over the whole blocks ka and kb ("h" or "v"), as a jet laid out by
    (a, b), or None where it is zero.

    Each block pair is one derivative of order-2 jets, of order 1 (values
    only with ``keep=0``), built on first use.  A block whose parts are all
    exactly 0.0 is stored as None: on a group every block but hh, since
    Z_a = d/dz_a is constant and no frame field depends on z.
    """

    def __init__(self, fb: FrameBatch, keep: int):
        self.E = fb.fields(keep)
        self._n_vars = fb.model.ambient_dim
        self._jets: dict[tuple[str, str], PointField | None] = {}

    def __call__(self, ka: str, kb: str) -> PointField | None:
        if (ka, kb) not in self._jets:
            a, b = _pair(ka, kb)
            N = self._n_vars
            F = self.E(b).total(N).along(self.E(a).total(N))
            self._jets[ka, kb] = None if F.is_zero() else F
        return self._jets[ka, kb]

    def back(self, ka: str, kb: str) -> PointField | None:
        """D(b, a), laid out by (a, b): a transposed view."""
        F = self(kb, ka)
        return None if F is None else F._map(lambda part: part.swapaxes(0, 1))


class PairBuild:
    """One three-index build over one block string per key axis: the
    two-index entries that its formula reads, and their derivative tables.

    ``pairs`` declares an entry with the key slot pairs it is read at, and
    returns ``S(a, b)`` for two Slots, a placed view of the entry over their
    whole blocks, kept as jets truncated to values (keep 0).  The block
    pairs of the declared entries fall into three groups, {h, h}, {h, v} and
    {v, v}.  When the formula first reads a pair of a group, every declared
    entry of the group is built from one derivative table."""

    def __init__(self, fb: FrameBatch, blocks):
        self._fb = fb
        self._kinds = blocks
        self._groups: dict[str, list] = {}

    def pairs(self, entry, *slots):
        """``entry(D, ka, kb) -> Split``, read at the key slot pairs
        ``slots`` of the build."""
        built: dict[tuple[str, str], list] = {}
        for ka, kb in sorted({(x, y) for i, j in slots
                              for x in self._kinds[i]
                              for y in self._kinds[j]}):
            self._groups.setdefault(_group(ka, kb), []).append(
                (entry, built, ka, kb))

        def S(a: Slot, b: Slot) -> Split:
            if (a.block, b.block) not in built:
                self._build(_group(a.block, b.block))
            return Split(*(None if f is None else _place(f, a, b)
                           for f in built[a.block, b.block]))
        return S

    def _build(self, group: str) -> None:
        D = Derivatives(self._fb, 1)
        for entry, built, ka, kb in self._groups.pop(group):
            res = entry(D, ka, kb)
            built[ka, kb] = [None if f is None else
                             PointField(f.value, f.jacobian, None, f.at, 0)
                             for f in (res.h, res.v)]


def _minus(F: PointField | None, G: PointField | None) -> PointField | None:
    """F - G for jets of which either may be None (zero)."""
    if G is None:
        return F
    return -G if F is None else F - G


def _pair(ka: str, kb: str) -> tuple[Slot, Slot]:
    """The slots of a two-index entry over the blocks ka and kb."""
    return Slot(ka, 0, 2), Slot(kb, 1, 2)


def _group(ka: str, kb: str) -> str:
    """The block group of a block pair: "hh", "hv" or "vv"."""
    return "".join(sorted(ka + kb))


def _place(field: PointField, *slots: Slot) -> PointField:
    """A jet laid out by the whole blocks of ``slots``, in their order, as a
    view laid out by their axes, of length 1 along every other key axis."""
    lead = len(slots)
    order = sorted(range(lead), key=lambda k: slots[k].axis)
    shape = [1] * slots[0].rank
    for slot, n in zip(slots, field.value.shape):
        shape[slot.axis] = n
    return field._map(lambda part: part.transpose(
        order + list(range(lead, part.ndim))).reshape(
            tuple(shape) + part.shape[lead:]))


# ---------------------------------------------------------------------------
# batched tensor evaluation


def _chunked(fb: FrameBatch, entry_fn):
    """The builder of a kept entry for ``FrameBatch.eval_entry``: one zero
    array over the key's block strings, into whose slice ``out`` over each
    chunk ``entry_fn(view, *blocks, out)`` adds the components of the chunk
    view (``FrameBatch.chunks``)."""
    def build(*blocks):
        out = fb.zeros(blocks)
        for c, view in fb.chunks():
            entry_fn(view, *blocks, out[c])
        return out
    return build


def _contract3(fb: FrameBatch, name: str, entry_fn, d1: str, d2: str,
               d3: str, first_only: bool = False) -> np.ndarray:
    """Frame components of a three-index entry over the slot domains d1, d2
    and d3 ("h", "v" or "all"): a read-only view (P, f1, f2, f3, n+m) of the
    components built once per batch over every frame index (with
    ``first_only``, over the blocks of ``d1`` in the first slot only), one
    point chunk at a time by ``entry_fn(view, blocks1, blocks2, blocks3,
    out)`` (see ``_chunked``)."""
    first = {"all": "hv"}.get(d1, d1) if first_only else "hv"
    vals = fb.eval_entry(name, (first, "hv", "hv"), _chunked(fb, entry_fn))
    s1 = slice(None) if first_only else fb.frame_slice(d1)
    return vals[:, s1, fb.frame_slice(d2), fb.frame_slice(d3)]


def _contract2(fb: FrameBatch, name: str, entry_fn, d1: str,
               d2: str) -> np.ndarray:
    """Frame components of a two-index entry ``entry_fn(D, ka, kb)`` over
    the slot domains d1 and d2: a read-only view (P, f1, f2, n+m) of the
    components built once per batch over every frame index, one point
    chunk at a time, each block pair read off its own derivative table of
    values (keep 0)."""
    def chunk(view, first, second, out):
        view.assemble((first, second), lambda a, b: entry_fn(
            Derivatives(view, 0), a.block, b.block), out)
    vals = fb.eval_entry(name, ("hv", "hv"), _chunked(fb, chunk))
    return vals[:, fb.frame_slice(d1), fb.frame_slice(d2)]


def torsion_components(fb: FrameBatch) -> np.ndarray:
    """T^a_{ij} = g(T(x_i, x_j), z_a); antisymmetric in (i, j); shape
    (P, m, n, n), a view of the torsion components kept in the batch."""
    comps = _contract2(fb, "torsion", fb.model.torsion_entry, "h", "h")
    return np.moveaxis(comps[..., fb.model.n:], 3, 1)


def j_endomorphisms(fb: FrameBatch) -> np.ndarray:
    """Matrices of the torsion endomorphisms J_{z_a} acting on horizontal
    frame coefficients (column i holds the image of x_i); built from torsion
    by the defining pairing, shape (P, m, n, n)."""
    return np.transpose(torsion_components(fb), (0, 1, 3, 2))


def nabla_t_components(fb: FrameBatch, directions: str = "all") -> np.ndarray:
    """(nabla_{u_d} T)(x_i, x_j) components along z_a: shape (P, D, m, n, n),
    a view."""
    model = fb.model
    comps = _contract3(fb, "nabla_t", model.nabla_t_entry, directions, "h",
                       "h")                        # (P, D, n, n, n+m)
    return np.moveaxis(comps[..., model.n:], 4, 2)


def curvature_components(fb: FrameBatch, d1: str = "all", d2: str = "all",
                         d3: str = "all") -> np.ndarray:
    """<R(u_a, u_b) u_c, u_d> over the requested slot domains;
    shape (P, f1, f2, f3, n+m), a view."""
    return _contract3(fb, "curvature", fb.model.curvature_entry, d1, d2, d3)


def lc_curvature_ambient(fb: FrameBatch, eps_rel: float, d2: str = "all",
                         d3: str = "all") -> np.ndarray:
    """Ambient values of R^ghat(z_a, u_b) u_c, the Levi-Civita curvature of
    the rescaled metric ghat = g_H + (1/eps_rel) g_V with a vertical first
    slot, over the slot domains d2 and d3; shape (P, m, f2, f3, N), from its
    frame components.  Every reader needs only that first slot, so the entry
    is built and kept only over the vertical first keys."""
    model = fb.model
    entry = lambda fb, a, b, c, out: model.lc_curvature_entry(
        fb, eps_rel, a, b, c, out)
    return fb.ambient(_contract3(fb, f"lc_curvature[{round(eps_rel, 12)}]",
                                 entry, "v", d2, d3, first_only=True))


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
# single points


def torsion(model: FoliationModel, p) -> np.ndarray:
    """T^a_{ij} at one point, (m, n, n); by the defining pairing these are
    also the frame matrices (J_{z_a})_{ij} = <J_{z_a} x_i, x_j>."""
    return torsion_components(model.frame_batch(p))[0]


def ricci_h(model: FoliationModel, p) -> np.ndarray:
    """Ric_H(x_i, x_j) at one point, (n, n)."""
    return ricci_horizontal(model.frame_batch(p))[0]
