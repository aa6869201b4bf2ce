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
horizontal spanning ones (one matmul per point).  The jet arithmetic runs
its per-point products through geometry's one kernel, and the projections'
sums over the vertical index are one matmul per point (_pair_sum).  The
frame fields' Hessians are formed per chunk of points, and not at all for a
block whose spanning Hessians are exactly zero (every block of a group, and
the sphere's vertical one).  A two-index entry (the split bracket, the
connection, torsion, the rescaled Levi-Civita derivative) applies one
derivative to frame fields, so the formulas give it as an order-1 jet at
the batch.  A three-index entry (nabla T and both curvatures) applies one
more derivative to a two-index entry or a frame field and then only
pointwise linear algebra, so the formulas give its values from those
order-1 jets.  Only the three-index
entries and the torsion values are kept, in the batch
(FrameBatch.eval_entry), as frame components: the key slots are frame
fields already, so only the value is measured against the frame as the
entry is built (FrameBatch.assemble), and every reader takes a read-only
view of the kept array.  Frame components are all that the readers give
out (nabla_t_frame, curvature_components, lc_curvature_components and
the views of them): no reader turns them back into ambient vectors, the
checks compare them with closed forms on the same frame, and only this
module knows the entry names, the builders and the batch's jet layout.

Entries are addressed by blocks: "h" for the horizontal frame fields x_i,
"v" for the vertical ones z_a, horizontals first.  A two-index entry is built
over two whole blocks; a three-index entry over one block string per slot
("hv", or "v" for R^ghat, which is read only with a vertical first slot),
by running its formula once per block triple on slots (Slot: a block and
its axis), which place whole blocks of jets as views.  Both equal the
symbolic compositions up to rounding.

Every two-index entry is read off the derivative table D(a, b) =
D_{E_a} E_b (Derivatives) as signed transposes of the projections V = pi_V F
and H = pi_H F of its block group's field F: D(k, k) for hh and vv, the
bracket G = D(h, v) - D(v, h)^T for hv.  F and each of its projections
are formed at their first read, so a projection that no entry reads is
never formed.  The frame fields carry
the coordinate supports of their blocks (PointField.support, read off each
chunk's jets once), which the jet arithmetic propagates: a block of D, a
projection or a formula product whose factors cannot meet is None without
running (on a group every block of D but hh, and every product of nabla T
and R past the table), so no formula term runs on it.  No jet is scanned
for zero: a part that cancels to 0.0 is carried as a dense zero.  A
sphere's blocks are full and carry no support.  A three-index build over
one chunk makes one table, and forms each two-index entry from it once per
block pair, when its formula first reads that pair (_pairs); the torsion
values read one table per point chunk.

Every formula is pointwise, so every kept entry is built over consecutive
chunks of at most POINT_CHUNK points (FrameBatch.chunks): each chunk runs
the formulas on a view batch and adds its components into its slice of the
kept array, so a build's transient scales with the chunk, not with the
sample, and a block that is exactly zero is never written.  The kept array
is allocated at the first write; an entry that no chunk writes (nabla T and
R on a group) is kept as a read-only zero with every stride 0, which holds
one element, and so is every view that the readers take of it.
``exact_zero`` recognises those, so that the checks drop the terms they
are a factor of.  Which products a chunk's formulas run is decided by its
supports (those of its frame blocks and of pi_V and pi_H, read off once
per batch, chunk by chunk) and by the batch's constants, so a chunk whose
supports equal those of an earlier chunk that wrote nothing is skipped
(_chunked): on a group nabla T and R run one chunk per batch.  A chunk
with an unknown or non-finite support runs dense and is never skipped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (DegenerateFrameError, DimensionMismatchError,
                     InvalidModelError)
from .geometry import (AmbientChart, MonomialCache, Polynomial, PolyField,
                       PointField, Support, _pointwise, bracket,
                       directional_derivative, field_jets, field_partials,
                       gram_schmidt_at, matrix_support)

#: highest polynomial degree of a spanning field: it makes Hessians constant
MAX_SPAN_DEGREE = 2

GROUP = "group"
SPHERE = "sphere"

#: points per chunk of an entry build (FrameBatch.chunks), and of the
#: readers that reduce full-sample temporaries.  ``verify`` on 2 vCPUs with
#: BLAS on one thread, for chunks of 8 / 16 / 32 points: peak RSS of the
#: process (two runs each, which agree within 1 MB) and the fastest of
#: three in-process runs (three rounds each, spread 0.2-0.6 s):
#:
#:   ``--all --points 32``                     57 / 62 / 74 MB
#:                                             0.55-0.82 / 0.47-0.71 /
#:                                             0.51-0.64 s
#:   ``quaternionic-hopf-s11 --points 256``    145 / 146 / 145 MB
#:                                             1.34-1.91 / 1.29-1.65 /
#:                                             1.71-1.92 s
#:
#: Chunks of 8 peak lowest but ran slower than 16 on ``--all`` in each
#: round.
POINT_CHUNK = 16


def point_chunks(count: int) -> list[slice]:
    """Consecutive slices of at most POINT_CHUNK of ``count`` points."""
    return [slice(s, min(s + POINT_CHUNK, count))
            for s in range(0, count, POINT_CHUNK)]


class Split:
    """A vector field kept as (horizontal part, vertical part).

    Either part may be None (meaning zero); a part is kept as given, and
    never scanned for zero.  Keeping fields split avoids re-projecting pure
    fields, which would inflate polynomial degrees.  The parts are
    PolyFields, or PointFields of one point batch.
    """

    __slots__ = ("h", "v")

    def __init__(self, h=None, v=None):
        self.h = h
        self.v = v

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
        pointwise projector matrix with its 1-jet (``FieldsAt``), and None
        (no part) for a jet that is None, or whose projection cannot be
        nonzero (see PointField)."""
        if F is None:
            return None
        if isinstance(F, PointField):
            return F.apply_matrix(*F.at.pi_v)
        return vertical_part(F, *self._symbolic_fields[:2])

    def pi_h(self, F):
        """The horizontal part (tangent to the sphere on that backend); on a
        jet, one pointwise projector matrix with its 1-jet, and None as for
        ``pi_v``."""
        if F is None:
            return None
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

    def metric_matrices(self, points, coframe: np.ndarray) -> np.ndarray:
        """Pointwise Gram matrices of the model metric g_H + g_V / epsilon,
        with g_V = sum_a theta^a (x) theta^a over the coframe values (m, P, N)
        at ``points`` (P, N), and g_H = I - p p^T - g_V on the sphere, the
        first n coordinates on a group."""
        gv = np.einsum("apn,apm->pnm", coframe, coframe)
        w = 1.0 / self.epsilon
        if self.backend == SPHERE:
            pp = np.einsum("pn,pm->pnm", points, points)
            return np.eye(points.shape[1])[None] - pp - gv + w * gv
        G = w * gv
        G[:, :self.n, :self.n] += np.eye(self.n)
        return G

    def metric_lie_derivatives(self, cache: MonomialCache) -> tuple:
        """The blocks (L_Z g)(X, X') and (L_X g)(Z, Z') of (L_W g)(F, G) =
        (D_W g)(F, G) + g(D_F W, G) + g(F, D_G W) at the cache's points, over
        the vertical spanning fields Z and the horizontal ones X: (P, m, kh,
        kh) and (P, kh, m, m), indexed [p, W, F, G], from 1-jets.  Each is
        B_W(F, G) + B_W(G, F) for the form B_W = h . W + (D W)^T g, since
        d_k g = h_k + h_k^T with h_k from the coframe (and -e_k p^T on the
        sphere)."""
        values, jacobians = self.jets(cache)
        (P, N), K, kh = cache.points.shape, self.span_count, self.span_h_count
        val, jac, theta = values[:K], jacobians[:K], values[K:]
        h = _pair_sum(theta, jacobians[K:])  # half of d_k g_V, [p, m, n, k]
        if self.backend == GROUP:
            h = h / self.epsilon
        else:                           # g = I - p p^T + (1/epsilon - 1) g_V
            h = (1.0 / self.epsilon - 1.0) * h - (
                cache.points[:, :, None, None] * np.eye(N))
        form = (_pointwise(h.reshape(P, N * N, N), val)
                .reshape(K, P, N, N).swapaxes(2, 3)
                + jac.swapaxes(2, 3) @ self.metric_matrices(cache.points, theta))
        F, V, H = val.swapaxes(0, 1), slice(kh, K), slice(0, kh)
        halves = ((F[:, f] @ form[w] @ F[:, f].swapaxes(1, 2)).swapaxes(0, 1)
                  for w, f in ((V, H), (H, V)))       # [p, W, F, G]
        return tuple(half + half.transpose(0, 1, 3, 2) for half in halves)

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
            h_part = _plus(h_part, self.pi_h(bracket(Fs.v, Gs.h)))
        if Fs.h is not None and Gs.v is not None:
            v_part = self.pi_v(bracket(Fs.h, Gs.v))
        if Fs.v is not None and Gs.v is not None:
            v_part = _plus(v_part, self.pi_v(directional_derivative(Fs.v,
                                                                    Gs.v)))
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
        terms = (Xs.h.apply_matrix(B / self.epsilon)
                 for B in self._j_matrices)
        return Split(h=self.pi_h(type(Xs.h).sum_of(self.ambient_dim, [
            F.scale(c) for c, F in zip(wc, terms) if F is not None])))

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
    # on a table of ``keep=0`` (see PointField), read off ``D.part`` in the
    # cases of ``bott_split``.

    def bracket_entry(self, D: "Derivatives", ka: str, kb: str) -> Split:
        """[E_a, E_b] = D(a, b) - D(b, a), split: the group's field is
        the bracket on mixed blocks, and D(a, b) on like ones."""
        h, v = D.part("h", ka, kb), D.part("v", ka, kb)
        if ka != kb:
            return Split(h, v)
        return Split(_minus(h, _swap(h)), _minus(v, _swap(v)))

    def bott_entry(self, D: "Derivatives", ka: str, kb: str) -> Split:
        """``bott_split`` of E_a and E_b: D(a, b) for like blocks, the
        bracket for mixed ones, projected onto the block of b."""
        part = D.part(kb, ka, kb)
        return Split(part, None) if kb == "h" else Split(None, part)

    def torsion_entry(self, D: "Derivatives", ka: str, kb: str) -> Split:
        """``torsion_transform`` of E_a and E_b: [E_b, E_a] projected
        vertically on two horizontal blocks, else zero."""
        if ka == "v" or kb == "v":
            return Split()
        v = D.part("v", ka, kb)
        return Split(None, _minus(_swap(v), v))

    def lc_entry(self, D: "Derivatives", eps_rel: float, ka: str,
                 kb: str) -> Split:
        """The Levi-Civita derivative of g_H + (1/eps_rel) g_V."""
        a, b = _pair(ka, kb)
        return self._lc(D.E(a), D.E(b), eps_rel, self.bott_entry(D, ka, kb),
                        self.torsion_entry(D, ka, kb))

    # -- three-index entries at a point batch, from 1-jets -------------------
    #
    # Each takes one block string per slot ("hv" for every frame index,
    # "v" for the vertical ones only) and returns the frame components over
    # the frame vectors of those blocks, (P, F1, F2, F3, n+m), or adds them
    # into the array that ``out()`` returns (see FrameBatch.assemble).  The
    # formula runs on slots (Slot), once per block triple.  It reads the
    # frame fields and the two-index entries as jets truncated to values
    # (keep 0), so it computes no derivative that it does not use.  The
    # two-index entries are formed from one derivative table per build, each
    # block pair at its first read (_pairs).

    def nabla_t_entry(self, fb: "FrameBatch", d, a, b,
                      out: Callable | None = None) -> np.ndarray | None:
        """(nabla_{E_d} T)(E_a, E_b), vertical-valued."""
        E, D = fb.fields(keep=0), Derivatives(fb, 1)
        C, T = _pairs(D, self.bott_entry), _pairs(D, self.torsion_entry)
        return fb.assemble((d, a, b), lambda d, a, b: (
            self.bott_split(E(d), T(a, b))
            - self.torsion_transform(C(d, a), E(b))
            - self.torsion_transform(E(a), C(d, b))), out)

    def curvature_entry(self, fb: "FrameBatch", a, b, c,
                        out: Callable | None = None) -> np.ndarray | None:
        """R(E_a, E_b) E_c with R(U, V) = [nabla_U, nabla_V] - nabla_{[U,V]}."""
        E, D = fb.fields(keep=0), Derivatives(fb, 1)
        C, S = _pairs(D, self.bott_entry), _pairs(D, self.bracket_entry)
        return fb.assemble((a, b, c), lambda a, b, c: (
            self.bott_split(E(a), C(b, c))
            - self.bott_split(E(b), C(a, c))
            - self.bott_split(S(a, b), E(c))), out)

    def lc_curvature_entry(self, fb: "FrameBatch", eps_rel: float,
                           a, b, c, out: Callable | None = None
                           ) -> np.ndarray | None:
        """Curvature of the Levi-Civita connection of g_H + (1/eps_rel) g_V."""
        E, D = fb.fields(keep=0), Derivatives(fb, 1)
        L = _pairs(D, lambda D, ka, kb: self.lc_entry(D, eps_rel, ka, kb))
        S = _pairs(D, self.bracket_entry)
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


def _jet_supports(fb: "FrameBatch", starts: list[int]) -> list[dict]:
    """Per run of points beginning at ``starts`` and per block of frame
    fields, the Support of its jets: whether they are finite, and the
    coordinates j where some value, Jacobian row d F^j or column d_j F is
    not 0.0; None for a block whose masks are full."""
    out = [{} for _ in starts]
    for block in "hv":
        value, jac = (part[fb.frame_slice(block)] for part in fb.jets)
        # a sum is finite only if every term is
        finite = np.isfinite(np.add.reduceat(
            value.sum(axis=(0, 2)) + jac.sum(axis=(0, 2, 3)), starts))
        values = np.logical_or.reduceat((value != 0).any(axis=0), starts)
        nonzero = np.logical_or.reduceat((jac != 0).any(axis=0), starts)
        for d, ok, *masks in zip(out, finite, values, nonzero.any(axis=2),
                                 nonzero.any(axis=1)):
            d[block] = (None if all(mask.all() for mask in masks)
                        else Support(bool(ok), *masks))
    return out


def _support_key(supports: dict) -> bytes | None:
    """The masks of a chunk's supports (``FrameBatch._supports``), which
    with the batch's constants (the Hessians' presence, the constant
    J-matrices, the block structure) decide every product that its formulas
    run; None when one is unknown or not finite, since its products then
    run dense."""
    if any(s is None or not s.finite for s in supports.values()):
        return None
    return np.concatenate([mask for s in supports.values()
                           for mask in s[1:]]).tobytes()


def _pair_sum(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """sum_a U[a, p, r...] V[a, p, c...], shape (P, r..., c...), as one
    matmul per point, [p, r, a] @ [p, a, c]: the pointwise products of the
    vertical fields and the coframe, whose leading axis a is short."""
    m, P = U.shape[:2]
    out = (U.reshape(m, P, -1).transpose(1, 2, 0)
           @ V.reshape(m, P, -1).swapaxes(0, 1))
    return out.reshape((P,) + U.shape[2:] + V.shape[2:])


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
    and of the model's vertical fields and coframe, the evaluated-value
    cache and the checks' fits made over the batch (``fits``).

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
    fits: dict = field(default_factory=dict)

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
        stored read-only, since readers take views of them; a builder may
        return a zero-strided zero (``zeros``), whose views ``exact_zero``
        recognises.

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
    def _projections(self) -> tuple:
        """pi_V = sum_a Z_a theta^a and pi_H = I - pi_V (- p p^T on the
        sphere) at the points, each as matrices (P, N, N) with their 1-jet
        (P, N, N, N), ``[p, i, k, j] = d_k A^i_j``, from the 1-jets of the
        vertical fields and the coframe."""
        N, m = self.points.shape[1], self.z.shape[1]
        (z, t), (dz, dt) = ((part[-2 * m:-m], part[-m:]) for part in self.jets)
        pv = _pair_sum(z, t)
        dpv = _pair_sum(dz, t) + _pair_sum(z, dt).swapaxes(2, 3)  # [p, i, k, j]
        ph, dph = np.eye(N) - pv, -dpv
        if self.model.backend == SPHERE:
            p, eye = self.points, np.eye(N)
            ph -= p[:, :, None] * p[:, None, :]
            dph -= (eye[None, :, :, None] * p[:, None, None, :]
                    + p[:, :, None, None] * eye[None, None])
        return (pv, dpv), (ph, dph)

    @cached_property
    def _fields_at(self) -> "FieldsAt":
        """The model's coframe at the points, from the 1-jets of its
        coframe, and its projections there (``_projections``) with their
        supports (``_supports``)."""
        m, supports = self.z.shape[1], self._supports
        t, dt = (part[-m:] for part in self.jets)
        return FieldsAt(tuple(PointField(t[a], dt[a]) for a in range(m)),
                        *(A + (supports[k],) for A, k in zip(
                            self._projections, ("pi_v", "pi_h"))))

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

    @cached_property
    def _supports(self) -> dict:
        """The supports of this batch's blocks of frame fields ("h", "v";
        ``_jet_supports``) and, when a block carries one, the MatrixSupports
        of its projections ("pi_v", "pi_h"; else None).  A chunk view
        takes its chunk's dict (``_chunk_supports``) and adds the
        projections' to it in place when they are missing, so that they
        are read once per chunk, off the matrices that its first view forms
        for its own build."""
        supports = (self.__dict__.pop("_chunk", None)
                    or _jet_supports(self, [0])[0])
        if "pi_v" not in supports:
            tracked = supports["h"] is not None or supports["v"] is not None
            supports["pi_v"], supports["pi_h"] = (
                (matrix_support(*A) for A in self._projections) if tracked
                else (None, None))
        return supports

    @cached_property
    def _chunk_supports(self) -> list[dict]:
        """``_supports`` of every chunk of ``chunks``, formed once per
        batch: the blocks' for every chunk at once, the projections' by
        the first view of each chunk that reads them."""
        return _jet_supports(self, [c.start for c in point_chunks(
            len(self.points))])

    def chunks(self):
        """``(c, view)`` for the consecutive point slices ``c`` of
        ``point_chunks``: a batch over ``points[c]`` whose arrays, jets and
        metric-lowered frame are this batch's, sliced along the point axis,
        so no field is evaluated again, and whose supports are its chunk's
        (``_chunk_supports``).  Each view forms the projections and the
        frame Hessians of its own points only (``_projections``,
        ``_frame_hessians``), so no array of those over the sample is
        kept.  Only ``_chunked`` iterates the views."""
        for c, supports in zip(point_chunks(len(self.points)),
                               self._chunk_supports):
            view = FrameBatch(self.model, self.points[c],
                              tuple(part[:, c] for part in self.jets),
                              self.metric[c], self.x[c], self.z[c],
                              tuple(None if f is None else (f[0][c], f[1])
                                    for f in self.hessians))
            view.__dict__["_metric_frame"] = self._metric_frame[c]
            view.__dict__["_chunk"] = supports
            yield c, view

    def fields(self, keep: int = 2):
        """The frame fields as Splits of order-2 jets (of order 1 with
        ``keep`` 0, which reads no Hessian): ``E(slot)`` for the whole block
        of a Slot, placed along its axis, with the block's support.  ``keep``
        truncates what formulas compute from them (see PointField)."""
        (value, jac), (n, m) = self.jets, self._sizes.values()
        hessians = self._frame_hessians if keep else (None, None)
        h, v = (PointField(value[s], jac[s], hess, self._fields_at, keep,
                           self._supports[k])
                for k, s, hess in zip("hv", (slice(0, n), slice(n, n + m)),
                                      hessians))

        def E(slot: Slot) -> Split:
            if slot.block == "h":
                return Split(_place(h, slot), None)
            return Split(None, _place(v, slot))
        return E

    def zeros(self, blocks) -> np.ndarray:
        """The zero of frame components over one block string per key axis
        (see ``assemble``), (P, F1, ..., F), its sizes read off the frame and
        the metric-lowered frame: a read-only broadcast of one 0.0, every
        stride 0 (``exact_zero``), which ``copy()`` makes dense."""
        size = self._sizes
        return np.broadcast_to(np.zeros((), self.points.dtype), (
            len(self.points), *(sum(size[k] for k in s) for s in blocks),
            self._metric_frame.shape[-1]))

    def assemble(self, blocks, formula,
                 out: Callable | None = None) -> np.ndarray | None:
        """Frame components of ``formula(*slots) -> Split`` over one block
        string per key axis ("h", "v" or "hv": the frame fields of those
        blocks, x_i for "h" and z_a for "v", horizontals first), the last
        axis holding the n+m frame components of the value: added into the
        array that ``out()`` returns, called at the first write only, and
        returned (None when nothing is written); without ``out``, into a new
        dense zero array.

        The formula runs once per combination of the blocks, on one Slot per
        axis, so that every Split part is a pure block and whole blocks of
        jets are read as views.  Only the combinations whose formula has a
        part are written, so the pages of a zero block are never touched.
        The key slots are frame fields already, so only the value is
        measured (``components``)."""
        P, N = self.points.shape
        size = self._sizes
        target = None if out else self.zeros(blocks).copy()
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
            if target is None:
                target = out()
            target[tuple(at)] += self.components(
                np.moveaxis(np.broadcast_to(value, lead + (P, N)), -2, 0))
        return target


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
    pi_V and pi_H as pointwise matrices with their 1-jets and supports (or
    None), the arguments of ``PointField.apply_matrix``."""

    coframe: tuple[PointField, ...]
    pi_v: tuple
    pi_h: tuple


class Derivatives:
    """The derivative table D(a, b) = D_{E_a} E_b of the frame fields at a
    batch's points: ``D(ka, kb)`` over the whole blocks ka and kb, a jet
    laid out by (a, b) of order 1 (values only with ``keep=0``), or None
    where its factors cannot meet (on a group every block but hh; see
    PointField).  The entries read the projections of the block groups'
    fields (``part``).  One table serves a three-index build over one chunk,
    or a two-index one, and is freed when that build returns.
    """

    def __init__(self, fb: FrameBatch, keep: int):
        self.E = fb.fields(keep)
        self._fb = fb
        self._fields: dict[str, PointField | None] = {}
        self._parts: dict[tuple[str, str], PointField | None] = {}

    def __call__(self, ka: str, kb: str) -> PointField | None:
        a, b = _pair(ka, kb)
        N = self._fb.model.ambient_dim
        return self.E(b).total(N).along(self.E(a).total(N))

    def part(self, kind: str, ka: str, kb: str) -> PointField | None:
        """pi_V (``kind`` "v") or pi_H ("h") of the group field F, laid out
        by (a, b), or None where the supports rule it out.  F and each of
        its projections are formed at their first read; the projections
        are kept with the table, and F until both are formed."""
        group = ka + kb
        key = kind, group
        if key not in self._parts:
            if (ka, kb) == ("v", "h"):       # [E_v, E_h] = -[E_h, E_v]^T
                self._parts[key] = _neg(_swap(self.part(kind, "h", "v")))
            else:
                if group not in self._fields:
                    self._fields[group] = (
                        _minus(self("h", "v"), _swap(self("v", "h")))
                        if group == "hv" else self(ka, kb))
                model = self._fb.model
                project = model.pi_h if kind == "h" else model.pi_v
                self._parts[key] = project(self._fields[group])
                if all((k, group) in self._parts for k in "hv"):
                    del self._fields[group]     # no projection needs F
        return self._parts[key]


def _pairs(D: Derivatives, entry) -> Callable[[Slot, Slot], Split]:
    """``S(a, b)`` for two Slots: ``entry(D, ka, kb) -> Split`` over their
    whole blocks, formed once per block pair at its first read, truncated
    to values (keep 0) and placed along their axes as a view."""
    built: dict[tuple[str, str], list] = {}

    def S(a: Slot, b: Slot) -> Split:
        key = a.block, b.block
        if key not in built:
            res = entry(D, *key)
            built[key] = [None if f is None else f.truncated(0)
                          for f in (res.h, res.v)]
        return Split(*(None if f is None else _place(f, a, b)
                       for f in built[key]))
    return S


def _plus(F, G):
    """F + G for fields or jets of which either may be None (zero)."""
    if G is None:
        return F
    return G if F is None else F + G


def _minus(F: PointField | None, G: PointField | None) -> PointField | None:
    """F - G for jets of which either may be None (zero)."""
    if G is None:
        return F
    return -G if F is None else F - G


def _neg(F: PointField | None) -> PointField | None:
    return None if F is None else -F


def _swap(F: PointField | None) -> PointField | None:
    """F laid out by (b, a), as a view."""
    return None if F is None else F._map(lambda part: part.swapaxes(0, 1))


def _pair(ka: str, kb: str) -> tuple[Slot, Slot]:
    """The slots of a two-index entry over the blocks ka and kb."""
    return Slot(ka, 0, 2), Slot(kb, 1, 2)


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
    """The builder of a kept entry for ``FrameBatch.eval_entry``: over each
    chunk view (``FrameBatch.chunks``) ``entry_fn(view, *blocks, out)``
    adds the components of the view into ``out()``, its slice of the kept
    array.  That array is the zero-strided ``FrameBatch.zeros`` until a
    chunk first writes, and a dense copy of it from then on.  A chunk whose
    supports (``_support_key``) equal those of an earlier chunk of the
    build that wrote nothing is skipped, since its formulas would run no
    product that the earlier chunk did not, and write nothing either."""
    def build(*blocks):
        kept, silent, writes = fb.zeros(blocks), set(), []

        def written(c: slice) -> np.ndarray:
            nonlocal kept
            writes.append(c)
            if exact_zero(kept):
                kept = kept.copy()
            return kept[c]
        for c, view in fb.chunks():
            key = _support_key(view._supports)
            if key in silent:
                continue
            before = len(writes)
            entry_fn(view, *blocks, partial(written, c))
            if len(writes) == before and key is not None:
                silent.add(key)
        return kept
    return build


def exact_zero(a: np.ndarray) -> bool:
    """Whether ``a`` is known to be 0.0 everywhere without reading it: it is
    not empty and every stride is 0, so it holds one element, which is 0.0.
    True for a kept entry that no chunk writes and every view of it; False
    for a dense zero, on which a reader takes its dense route."""
    return a.size > 0 and not any(a.strides) and bool(a.flat[0] == 0.0)


def _contract3(fb: FrameBatch, name: str, entry_fn, d1: str, d2: str,
               d3: str) -> np.ndarray:
    """Frame components of a three-index entry over the slot domains d1, d2
    and d3 ("h", "v" or "all"): a read-only view (P, f1, f2, f3, n+m) of the
    components built once per batch over every frame index, one point chunk
    at a time by ``entry_fn(view, blocks1, blocks2, blocks3, out)`` (see
    ``_chunked``)."""
    vals = fb.eval_entry(name, ("hv",) * 3, _chunked(fb, entry_fn))
    return vals[:, fb.frame_slice(d1), fb.frame_slice(d2), fb.frame_slice(d3)]


def _contract2(fb: FrameBatch, name: str, entry_fn, d1: str,
               d2: str) -> np.ndarray:
    """Frame components of a two-index entry ``entry_fn(D, ka, kb)`` over
    the slot domains d1 and d2: a read-only view (P, f1, f2, n+m) of the
    components built once per batch over every frame index, one point
    chunk at a time, each read off one derivative table of values (keep 0)
    per chunk."""
    def chunk(view, first, second, out):
        D = Derivatives(view, 0)
        view.assemble((first, second),
                      lambda a, b: entry_fn(D, a.block, b.block), out)
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


def nabla_t_frame(fb: FrameBatch, d1: str = "all", d2: str = "all",
                  d3: str = "all") -> np.ndarray:
    """<(nabla_{u_a} T)(u_b, u_c), u_d> over the requested slot domains;
    shape (P, f1, f2, f3, n+m), a view."""
    return _contract3(fb, "nabla_t", fb.model.nabla_t_entry, d1, d2, d3)


def nabla_t_components(fb: FrameBatch, directions: str = "all") -> np.ndarray:
    """(nabla_{u_d} T)(x_i, x_j) components along z_a: shape (P, D, m, n, n),
    a view."""
    comps = nabla_t_frame(fb, directions, "h", "h")    # (P, D, n, n, n+m)
    return np.moveaxis(comps[..., fb.model.n:], 4, 2)


def curvature_components(fb: FrameBatch, d1: str = "all", d2: str = "all",
                         d3: str = "all") -> np.ndarray:
    """<R(u_a, u_b) u_c, u_d> over the requested slot domains;
    shape (P, f1, f2, f3, n+m), a view."""
    return _contract3(fb, "curvature", fb.model.curvature_entry, d1, d2, d3)


def lc_curvature_components(fb: FrameBatch, eps_rel: float, d2: str = "all",
                            d3: str = "all") -> np.ndarray:
    """<R^ghat(z_a, u_b) u_c, u_d>, the Levi-Civita curvature of the rescaled
    metric ghat = g_H + (1/eps_rel) g_V with a vertical first slot, over the
    slot domains d2 and d3; shape (P, m, f2, f3, n+m), a view.  Every reader
    needs only that first slot, so the entry is built and kept only over the
    vertical first keys."""
    model = fb.model
    entry = lambda view, *blocks: model.lc_curvature_entry(view, eps_rel,
                                                           *blocks)
    vals = fb.eval_entry(f"lc_curvature[{round(eps_rel, 12)}]",
                         ("v", "hv", "hv"), _chunked(fb, entry))
    return vals[:, :, fb.frame_slice(d2), fb.frame_slice(d3)]


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
