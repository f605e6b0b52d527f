"""Scalar reference transforms: one frequency per call, in the float
arithmetic of the original per-frequency code.  Oracles for the array
``ft_m``, for the odd pair's ``ft_g`` (its Poisson-mixture sigma-sum
against the shifted-frequency series of the same transform) and for the
batched explicit formula.

The lattice sums take the library's ``hurwitz_zeta``, the zeta of the
array code: at alpha = 1/2 they cancel as xi -> delta (and as xi -> 0 for
m >= 1), so a zeta that differs in the last bit moves the transform by
far more than the 1e-13 these oracles are compared within.  The zeta
itself is checked against scipy and mpmath in ``test_numkit.py``."""

import math

import numpy as np

from szeta.numkit import hurwitz_zeta
from szeta.odd_extremal import _SERIES_TOL


def scalar_ft_m(pair, sign, xi):
    """Closed-form Poisson-pair transform at one frequency."""
    b, d = pair.beta, pair.delta
    axi = abs(xi)
    if axi > d:
        return 0.0
    w = 2.0 * math.pi * b * (d - axi)
    return math.pi * (math.exp(w) - math.exp(-w)) / pair._denom(sign)


def _B(pair, u):
    if u < 1.0:
        un, wn = pair._sigma_grid
        return float(np.dot(
            wn, np.exp(-2 * math.pi * u * un) - math.exp(-2 * math.pi * u)))
    return _B_poly(pair, u) + _B_exp(pair, u)


def _B_poly(pair, u):
    c = 2.0 * math.pi * u
    return (math.factorial(2 * pair.m)
            * math.exp(-c * (pair.alpha - 0.5)) / c ** (2 * pair.m + 1))


def _B_exp(pair, u):
    c = 2.0 * math.pi * u
    L = 1.5 - pair.alpha
    f2m = math.factorial(2 * pair.m)
    s = sum(f2m / math.factorial(2 * pair.m + 1 - j)
            * L ** (2 * pair.m + 1 - j) / c ** j
            for j in range(2 * pair.m + 2))
    return -math.exp(-c) * s


def _lattice_sum(s, xi, d, alternating):
    q = xi / d
    if s == 1:
        if alternating:
            return math.pi / math.sin(math.pi * q) / d
        return math.pi / math.tan(math.pi * q) / d
    zeta = hurwitz_zeta
    sgn = (-1.0) ** s
    if not alternating:
        return (zeta(s, q) + sgn * zeta(s, 1.0 - q)) / d ** s
    even = zeta(s, q / 2) + sgn * zeta(s, 1.0 - q / 2)
    odd = zeta(s, (q + 1.0) / 2) + sgn * zeta(s, (1.0 - q) / 2)
    return (even - odd) / (2.0 * d) ** s


def f_integral(pair):
    """Integral of the odd pair's target over the real line (closed
    form)."""
    return (math.pi * (1.5 - pair.alpha) ** (2 * pair.m + 2)
            / ((2 * pair.m + 1) * (2 * pair.m + 2)))


def _series(term, tail):
    total, k = 0.0, 0
    while True:
        total += term(k)
        k += 1
        if tail(k) <= _SERIES_TOL:
            return total


def scalar_ft_g(pair, sign, xi):
    """Odd-pair transform at one frequency: the shifted-frequency pair
    series summed term by term until its tail bound is <= _SERIES_TOL.
    Returns 0 for |xi| >= delta (the series has a 0/0 at xi = delta for
    alpha = 1/2)."""
    xi = abs(float(xi))
    d = pair.delta
    if xi >= d:
        return 0.0
    if xi == 0.0:
        gap = pair.l1_gap_odd(sign)
        return f_integral(pair) + (gap if sign == "+" else -gap)
    alt = (sign == "-")
    beta2 = 2.0 * math.pi * (pair.alpha - 0.5)

    if pair.alpha == 0.5:
        s1, s2 = 2 * pair.m + 1, 2 * pair.m + 2
        cpoly = 0.5 * math.factorial(2 * pair.m) / (2 * math.pi) ** s1
        lat = (_lattice_sum(s1, xi, d, alt) / d
               + (d - xi) / d * _lattice_sum(s2, xi, d, alt))

        def term(k):
            sgn = -1.0 if (alt and k % 2) else 1.0
            u1, u2 = xi + k * d, (k + 2) * d - xi
            return 0.5 * sgn * (k + 1) * (_B_exp(pair, u1) / u1
                                          - _B_exp(pair, u2) / u2)

        def tail(K):
            u = xi + K * d
            return (K + 2) * abs(_B_exp(pair, u)) / u / (
                1.0 - math.exp(-2 * math.pi * d))

        return cpoly * lat + _series(term, tail)

    def term(k):
        sgn = -1.0 if (alt and k % 2) else 1.0
        u1, u2 = xi + k * d, (k + 2) * d - xi
        return 0.5 * sgn * (k + 1) * (_B(pair, u1) / u1 - _B(pair, u2) / u2)

    def tail(K):
        u, v = xi + K * d, (K + 2) * d - xi
        tb = (K + 1) * (_B_poly(pair, u) / u + _B_poly(pair, v) / v)
        q = math.exp(-beta2 * d) * (K + 2) / (K + 1)
        return math.inf if q >= 1.0 else tb / (1.0 - q)

    return _series(term, tail)
