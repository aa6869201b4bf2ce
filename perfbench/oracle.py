"""Closed-form sub-Laplacian spectra of the Hopf fibrations.

Independent of the package's symbolic pipeline: only integer formulas from
representation theory (Baudoin and Wang, sub-Laplacians of the CR sphere and
of the quaternionic Hopf fibration).  Polynomials of degree <= d restricted
to the sphere span the harmonics H_k, k <= d, so a spectrum at degree d lists
the eigenvalues of every H_k with multiplicity.
"""

from __future__ import annotations

from math import comb, prod


def complex_hopf_spectrum(n: int, degree: int) -> list[int]:
    """S^{2n+1} -> CP^n: 4pq + 2n(p+q) on H_{p,q}, p + q <= degree,
    with multiplicity dim H_{p,q} of the bidegree-(p, q) harmonics on C^{n+1}."""
    d = n + 1
    out = []
    for p in range(degree + 1):
        for q in range(degree + 1 - p):
            mult = ((p + q + d - 1) * comb(p + d - 2, p) * comb(q + d - 2, q)
                    // (d - 1))
            out += [4 * p * q + 2 * n * (p + q)] * mult
    return sorted(out)


def sp_dimension(weight: tuple[int, ...]) -> int:
    """Weyl dimension formula for the irreducible Sp(r) representation with
    highest weight ``weight`` (non-increasing, r entries)."""
    r = len(weight)
    rho = [r - i for i in range(r)]
    lam = [w + p for w, p in zip(weight, rho)]
    num = prod(lam) * prod(lam[i] ** 2 - lam[j] ** 2
                           for i in range(r) for j in range(i + 1, r))
    den = prod(rho) * prod(rho[i] ** 2 - rho[j] ** 2
                           for i in range(r) for j in range(i + 1, r))
    return num // den


def quaternionic_hopf_spectrum(n: int, degree: int) -> list[int]:
    """S^{4n+3} -> HP^n: k(k + 4n + 2) - 4j(j+1) on the spin-j part of H_k,
    j = k/2, k/2 - 1, ... >= 0.

    Under Sp(n+1) x Sp(1), H_k splits as the sum over i <= k/2 of
    V_{(k-i, i, 0, ...)} (x) V_{k-2i}; the Sp(1) factor has spin
    j = (k - 2i)/2 and dimension 2j + 1.
    """
    r = n + 1
    out = []
    for k in range(degree + 1):
        for i in range(k // 2 + 1):
            if i > 0 and r < 2:
                continue
            spin2 = k - 2 * i                       # 2j
            weight = (k - i, i) + (0,) * (r - 2) if r >= 2 else (k,)
            mult = sp_dimension(weight) * (spin2 + 1)
            out += [k * (k + 4 * n + 2) - spin2 * (spin2 + 2)] * mult
    return sorted(out)

