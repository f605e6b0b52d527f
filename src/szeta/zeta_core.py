"""Zeta machinery: zeta(s), zeta'/zeta, direct S_{n,alpha}(t), zero tables.

S_{n,alpha}(t) is the n-th iterated antiderivative (in t) of the argument
of zeta along the vertical line Re s = alpha, normalized so that
S_{-1,alpha}(t) = (1/pi) Re zeta'/zeta(alpha + it).  The direct evaluation
route works on the horizontal ray from alpha + it to the truncation
point sigma = 40: for n = 0 it starts the argument at Im 2^-s there
(log zeta(s) = 2^-s up to 8.3e-20) and tracks it continuously leftward;
for n >= 1 it integrates zeta'/zeta over the ray and bounds the tail
beyond.  zeta refuses heights |t| > 10^6, whose Euler-Maclaurin sum
would pass about 100 MB.  The alternative route (sums over zero
ordinates) lives in the explicit-formula module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .numkit import (_BERN, AccuracyError, DomainError, ResourceError,
                     quad_adaptive)


class ZeroTableError(ValueError):
    """Malformed zero-ordinate file (parse or ordering problem)."""


class ConditioningError(RuntimeError):
    """Evaluation point too close to a zero or pole of zeta."""


@dataclass(frozen=True)
class ZeroTable:
    """Ascending positive ordinates of zeros on the critical line.

    ``_cache`` holds what explicit_formula derives per table, so it lives
    exactly as long as the table: per delta (_zero_phases) the cosine
    and sine of 2 pi delta gamma, 16 B per ordinate (32 KB for the
    bundled 2000), and nothing else."""

    ordinates: np.ndarray
    precision: float
    source: str
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        o = self.ordinates
        if len(o) == 0:
            raise ZeroTableError("zero table is empty")
        if self.precision <= 0:
            raise ZeroTableError("precision must be > 0")
        if o[0] <= 14.0:
            raise ZeroTableError(
                f"first ordinate {o[0]} is not > 14 (first zero ~14.13)")
        if np.any(np.diff(o) <= 0):
            k = int(np.nonzero(np.diff(o) <= 0)[0][0])
            raise ZeroTableError(
                f"ordinates not strictly ascending at index {k + 1}")

    def __len__(self):
        return len(self.ordinates)


@dataclass(frozen=True)
class SnValue:
    """One evaluation of S_{n,alpha}(t) with its provenance and error."""

    n: int
    alpha: float
    t: float
    value: float
    method: str  # "direct" or "zero_sum"
    est_error: float

    def __post_init__(self):
        if self.method not in ("direct", "zero_sum"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.est_error < 0:
            raise ValueError("est_error must be >= 0")


def load_zeros(path, precision: float = 1e-9,
               source: str | None = None) -> ZeroTable:
    """Parse an ASCII table of zero ordinates (one per line, '#' comments)."""
    vals = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.split("#", 1)[0].strip()
            if not s:
                continue
            try:
                v = float(s)
            except ValueError:
                raise ZeroTableError(f"{path}: line {lineno}: "
                                     f"cannot parse {s!r}") from None
            if v <= 0:
                raise ZeroTableError(
                    f"{path}: line {lineno}: non-positive ordinate {v}")
            if vals and v <= vals[-1]:
                raise ZeroTableError(
                    f"{path}: line {lineno}: ordering violation "
                    f"({v} after {vals[-1]})")
            vals.append(v)
    if not vals:
        raise ZeroTableError(f"{path}: no ordinates found")
    return ZeroTable(ordinates=np.array(vals), precision=precision,
                     source=source or str(path))


def bundled_zeros() -> ZeroTable:
    """The first 2000 ordinates, shipped with the package."""
    from importlib import resources
    path = resources.files("szeta.data") / "zeros2000.txt"
    return load_zeros(str(path), source="bundled")


# ---------------------------------------------------------------------------
# Euler-Maclaurin zeta and its logarithmic derivative
# ---------------------------------------------------------------------------

# B_2, B_4, ..., B_12
_B2K = _BERN[:6]
_ZETA_MAX_TERMS = 2_000_000


def _zeta_em(s: complex):
    """(zeta(s), zeta'(s)) by Euler-Maclaurin with 12th-order tail, over
    max(20, ceil(2|t|)) direct terms of 48 bytes each at peak; past
    _ZETA_MAX_TERMS (|t| > 10^6, about 100 MB) it raises ResourceError
    before allocating anything."""
    N = max(20, int(math.ceil(2.0 * abs(s.imag))))
    if N > _ZETA_MAX_TERMS:
        raise ResourceError(
            f"zeta at height |t| = {abs(s.imag):.6g} needs {N:.3g} "
            f"Euler-Maclaurin terms, over the limit of {_ZETA_MAX_TERMS}")
    n = np.arange(1, N, dtype=np.float64)
    logn = np.log(n)
    npow = np.exp(-s * logn)
    z = complex(np.sum(npow))
    zp = complex(-np.sum(logn * npow))
    logN = math.log(N)
    Nms = cmath.exp(-s * logN)
    # N^{-s}/2 + N^{1-s}/(s-1)
    z += 0.5 * Nms + Nms * N / (s - 1.0)
    zp += -0.5 * logN * Nms + Nms * N * (-logN / (s - 1.0)
                                         - 1.0 / (s - 1.0) ** 2)
    # sum_k B_2k/(2k)! * (s)(s+1)...(s+2k-2) * N^{-s-2k+1}
    for k, b in enumerate(_B2K, start=1):
        js = [s + j for j in range(2 * k - 1)]
        P = 1.0 + 0.0j
        for f in js:
            P *= f
        Psum = P * sum(1.0 / f for f in js)
        c = b / math.factorial(2 * k)
        Npow = cmath.exp(-(s + 2 * k - 1) * logN)
        z += c * P * Npow
        zp += c * Npow * (Psum - P * logN)
    return z, zp


def zeta(s: complex) -> complex:
    """zeta(s) for Re s > 0, s != 1 (Euler-Maclaurin)."""
    s = complex(s)
    if s.real <= 0:
        raise DomainError("zeta: Re s must be > 0")
    if abs(s - 1.0) < 1e-8:
        raise DomainError("zeta: s too close to the pole at 1")
    return _zeta_em(s)[0]


def zeta_logderiv(s: complex) -> complex:
    """zeta'/zeta(s), Euler-Maclaurin for both zeta and zeta'."""
    s = complex(s)
    z, zp = _zeta_em(s)
    if abs(z) < 1e-6:
        raise ConditioningError(f"zeta({s}) ~ {abs(z):.2e}: too close "
                                "to a zero for a stable quotient")
    return zp / z


# ---------------------------------------------------------------------------
# direct S_{n,alpha}
# ---------------------------------------------------------------------------

_SIGMA_TRUNC = 40.0


def _im_log_zeta(alpha: float, t: float) -> float:
    """Im log zeta(alpha+it) by continuous tracking from sigma = _SIGMA_TRUNC.

    The walk starts from arg = Im 2^-s at sigma = 40, where
    |log zeta(s) - 2^-s| <= sum_{n>=3} n^-40 < 8.3e-20, and follows the
    argument leftward along the horizontal segment with interval halving
    until each step rotates by < pi/2.
    """
    s0 = complex(_SIGMA_TRUNC, t)
    arg = (2.0 ** -s0).imag
    sig_from = _SIGMA_TRUNC
    z_from = zeta(s0)
    stack = [alpha]
    while stack:
        sig_to = stack[-1]
        z_to = zeta(complex(sig_to, t)) if abs(
            complex(sig_to, t) - 1) > 1e-8 else zeta(complex(sig_to + 1e-7, t))
        dphi = cmath.phase(z_to / z_from)
        if abs(dphi) < 0.5 * math.pi:
            arg += dphi
            z_from = z_to
            sig_from = sig_to
            stack.pop()
        else:
            if abs(sig_to - sig_from) < 1e-12:
                raise AccuracyError(
                    f"argument tracking stalled at sigma={sig_from}", arg)
            stack.append(0.5 * (sig_from + sig_to))
    return arg


def s_n_direct(n: int, alpha: float, t: float,
               zeros: ZeroTable | None = None) -> SnValue:
    """S_{n,alpha}(t) from the zeta side ('direct' route).

    n = -1 is (1/pi) Re zeta'/zeta(alpha+it); n = 0 uses continuous
    argument tracking from sigma = 40; n >= 1 integrates
    (sigma-alpha)^n zeta'/zeta over the horizontal ray, truncated at
    sigma = 40 with a Dirichlet tail bound.  If a zero table is supplied
    and t sits within 1e-6 of an ordinate, the two-sided average of
    t +/- 1e-6 is returned.
    """
    if n < -1:
        raise DomainError("n must be >= -1")
    if not 0.5 <= alpha <= 4.0:
        raise DomainError(f"alpha must lie in [1/2, 4], got {alpha}")
    if t <= 0:
        raise DomainError("t must be > 0")
    if zeros is not None:
        o = zeros.ordinates
        i = int(np.searchsorted(o, t))
        near = min((abs(t - o[j]) for j in (max(i - 1, 0),
                                            min(i, len(o) - 1))))
        if near < 1e-6:
            lo = s_n_direct(n, alpha, t - 1e-6)
            hi = s_n_direct(n, alpha, t + 1e-6)
            return SnValue(n=n, alpha=alpha, t=t,
                           value=0.5 * (lo.value + hi.value),
                           method="direct",
                           est_error=lo.est_error + hi.est_error)

    if n == -1:
        val = zeta_logderiv(complex(alpha, t)).real / math.pi
        return SnValue(n=-1, alpha=alpha, t=t, value=val, method="direct",
                       est_error=1e-10)
    if n == 0:
        val = _im_log_zeta(alpha, t) / math.pi
        return SnValue(n=0, alpha=alpha, t=t, value=val, method="direct",
                       est_error=1e-9)
    # n >= 1: -(1/pi) Im{ (i^n/n!) integral (sigma-alpha)^n zz(sigma+it) }
    coef = 1j ** n / math.factorial(n)

    def integrand(sig: float) -> float:
        zz = zeta_logderiv(complex(sig, t))
        return (coef * (sig - alpha) ** n * zz).imag

    val = -quad_adaptive(integrand, alpha, _SIGMA_TRUNC, 1e-10) / math.pi
    # tail: |zeta'/zeta(sigma+it)| <= -zeta'/zeta(sigma) <= 1.2 log2 2^-sigma
    tail = (1.5 * _SIGMA_TRUNC ** n / math.factorial(n)
            * 2.0 ** (-_SIGMA_TRUNC)) / math.pi
    return SnValue(n=n, alpha=alpha, t=t, value=val, method="direct",
                   est_error=1e-9 + tail)


def smooth_count(t: float) -> float:
    """1 + theta(t)/pi, theta through its t^-3 term (Edwards 1974):
    (t/2pi)log(t/2pi) - t/2pi + 7/8 + 1/(48 pi t) + 7/(5760 pi t^3);
    the next term, 31/(80640 pi t^5), is below 1.3e-11 for t >= 25."""
    x = t / (2.0 * math.pi)
    return (x * math.log(x) - x + 7.0 / 8
            + (1.0 / 48 + 7.0 / (5760 * t * t)) / (math.pi * t))


def count_zeros(t: float, table: ZeroTable):
    """(N(t), S(t)) from a zero table.

    N(t) counts ordinates <= t with half weight inside the declared
    precision window of t; S(t) is recovered by subtracting the smooth
    main term.
    """
    o = table.ordinates
    if t > o[-1]:
        raise DomainError(f"t={t} beyond table range (last ordinate {o[-1]})")
    below = float(np.count_nonzero(o < t - table.precision))
    half = float(np.count_nonzero(np.abs(o - t) <= table.precision))
    N_t = below + 0.5 * half
    return N_t, N_t - smooth_count(t)
