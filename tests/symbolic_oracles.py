"""Symbolic reference routes that the package replaced by pointwise ones.

Each builds its result as exact polynomials, independently of the code it
checks: the model metric through the projections ``pi_h``/``pi_v``, the
round Laplacian through the homogeneous decomposition, the Gamma
calculus as products of polynomials, and the spectral matrices one
monomial at a time.
"""

import itertools

import numpy as np

from htfoliation.analysis import fischer_scales, sub_laplacian_poly
from htfoliation.foliation import SPHERE, Split
from htfoliation.geometry import (Polynomial, PolyField, directional_derivative,
                                  euclidean_gradient)


def metric_poly(model, F, G, eps_scale: float = 1.0) -> Polynomial:
    """g(F, G) as a polynomial, with the vertical block scaled by
    1/(epsilon * eps_scale); eps_scale = 1 is the model metric.  Vertical
    parts are measured along the stored vertical fields."""
    Fs, Gs = model.split(F), model.split(G)
    out = Polynomial.zero(model.ambient_dim)
    if Fs.h is not None and Gs.h is not None:
        if model.backend == SPHERE:
            out = out + Fs.h.dot(Gs.h)
        else:
            for i in range(model.n):
                out = out + Fs.h.components[i] * Gs.h.components[i]
    if Fs.v is not None and Gs.v is not None:
        vf = model.vertical_coefficients(Fs.v)
        vg = model.vertical_coefficients(Gs.v)
        scale = 1.0 / (model.epsilon * eps_scale)
        for a in range(model.m):
            out = out + scale * (vf[a] * vg[a])
    return out


def sphere_laplacian(f: Polynomial, n_vars: int | None = None) -> Polynomial:
    """Laplace-Beltrami operator of the round S^{N-1} on a polynomial
    restriction: Delta_S f_k = Delta f_k - k (k + N - 2) f_k on the sphere
    for f_k homogeneous of degree k."""
    n = f.n_vars if n_vars is None else n_vars
    out = Polynomial.zero(f.n_vars)
    for k, part in f.homogeneous_parts().items():
        flat = Polynomial.zero(f.n_vars)
        for i in range(f.n_vars):
            flat = flat + part.partial(i).partial(i)
        out = out + flat - (k * (k + n - 2)) * part
    return out


def sub_laplacian(model, f: Polynomial) -> Polynomial:
    """Round Laplacian minus the vertical squares on a sphere, the sum of
    squares of the horizontal frame on a group."""
    if model.backend == SPHERE:
        out = sphere_laplacian(f, model.ambient_dim)
        for Z in model.vertical_fields:
            out = out - directional_derivative(Z, directional_derivative(Z, f))
        return out
    return Polynomial.sum_of(model.ambient_dim, [
        directional_derivative(X, directional_derivative(X, f))
        for X in model.horizontal_fields])


def horizontal_gradient(model, f: Polynomial) -> PolyField:
    if model.backend == SPHERE:
        return model.pi_h(euclidean_gradient(f))
    return PolyField.sum_of(model.ambient_dim, [
        X.scale(directional_derivative(X, f)) for X in model.horizontal_fields])


def vertical_gradient(model, f: Polynomial) -> PolyField:
    """Gradient along the leaves in the model metric; the 1/epsilon vertical
    scaling raises the coefficient by epsilon."""
    return PolyField.sum_of(model.ambient_dim, [
        Z.scale(model.epsilon * directional_derivative(Z, f))
        for Z in model.vertical_fields])


def gamma_polys(model, f: Polynomial) -> dict[str, Polynomial]:
    """Gamma, Gamma^V, Gamma_2 = L Gamma / 2 - Gamma(f, L f), its vertical
    companion and Delta_H f, as polynomials."""
    lap = sub_laplacian(model, f)
    gh, gv = horizontal_gradient(model, f), vertical_gradient(model, f)
    gamma = metric_poly(model, Split(h=gh), Split(h=gh))
    gamma_v = metric_poly(model, Split(v=gv), Split(v=gv))
    gh_lap = horizontal_gradient(model, lap)
    gv_lap = vertical_gradient(model, lap)
    gamma2 = 0.5 * sub_laplacian(model, gamma) \
        - metric_poly(model, Split(h=gh), Split(h=gh_lap))
    gamma2_v = 0.5 * sub_laplacian(model, gamma_v) \
        - metric_poly(model, Split(v=gv), Split(v=gv_lap))
    return {"gamma": gamma, "gamma_v": gamma_v, "gamma2": gamma2,
            "gamma2_v": gamma2_v, "delta_f": lap}


def degree_block_dense(model, k: int):
    """Sorted keys, Fischer scales and the dense matrix of -Delta_H on the
    homogeneous polynomials of degree k, from ``sub_laplacian_poly`` of each
    monomial with the degree-(k - 2) part lifted by ||x||^2."""
    N = model.ambient_dim
    basis = Polynomial.from_dict(N, {
        tuple(map(combo.count, range(N))): 1.0
        for combo in itertools.combinations_with_replacement(range(N), k)})
    keys = basis.keys
    scale = fischer_scales(basis.exponents().tolist())
    r2 = Polynomial.sum_of(N, [Polynomial.variable(N, i) ** 2
                               for i in range(N)])
    zero = Polynomial.zero(N)
    A = np.zeros((keys.size, keys.size))
    for col in range(keys.size):
        g = Polynomial(N, keys[col:col + 1], np.ones(1))
        parts = sub_laplacian_poly(model, g).homogeneous_parts()
        lap = parts.get(k, zero) + parts.get(k - 2, zero) * r2
        A[np.searchsorted(keys, lap.keys), col] = -lap.coeffs
    return keys, scale, A * scale[:, None] / scale[None, :]
