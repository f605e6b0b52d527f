"""Bound constants and envelopes for S_n along vertical lines.

Provides the closed-form constants C+-_{n,alpha}(t) (polylogarithm-based
for odd n, square-root interpolation combinations for even n), their
critical-line limits, the interpolation optimizer that produces the even-n
constants, uniform bound envelopes with their error scales, and a
report-only comparison of measured S_n values against those envelopes.

All envelopes hold only asymptotically, with unquantified constants in
their error terms; comparisons against measured values are therefore
consistency observations with an explicit slack factor, never assertions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .numkit import DomainError, Sign, _check_sign, hurwitz_zeta, polylog_H
from .zeta_core import ZeroTable, s_n_direct


def _loglog(t: float) -> float:
    if t <= 1.0 or math.log(t) <= 1.0:
        raise DomainError(f"log log t undefined or too small at t = {t}")
    return math.log(math.log(t))


def _check_region(alpha: float, t: float, c: float) -> float:
    """log log t, after checking the envelopes' region
    log log t >= 4, (1-alpha)^2 log log t >= c."""
    llt = _loglog(t)
    if llt < 4.0:
        raise DomainError(
            f"region violated: log log t = {llt:.6g} < 4 at t = {t}")
    if (1.0 - alpha) ** 2 * llt < c:
        raise DomainError(
            f"region violated: (1-alpha)^2 log log t = "
            f"{(1.0 - alpha) ** 2 * llt:.6g} < c = {c}")
    return llt


# ---------------------------------------------------------------------------
# the constants C+-_{n,alpha}(t)
# ---------------------------------------------------------------------------

def c_odd(n: int, alpha: float, t: float, sign: Sign) -> float:
    """C_{n,alpha}(t) for odd n >= -1 and t > e:

      (1/(2^{n+1} pi)) * (H_{n+1}(s (log t)^{1-2 alpha})
                          + (2 alpha - 1)/(alpha (1-alpha)))

    with argument sign s = +(-1)^{(n+1)/2} for '+' and the opposite for
    '-'.  alpha = 1/2 is accepted and evaluates the closed form at
    H_{n+1}(+-1) (which diverges for n = -1, '+'; the domain error from
    the polylogarithm propagates).  The region log log t >= 4 of the
    envelopes is checked by their callers (``_check_region``), not here.
    """
    _check_sign(sign)
    if n < -1 or n % 2 == 0:
        raise DomainError(f"n must be odd and >= -1, got {n}")
    if not 0.5 <= alpha < 1.0:
        raise DomainError(f"alpha must lie in [1/2, 1), got {alpha}")
    if not t > math.e:
        raise DomainError(f"t must exceed e, got {t}")
    s = (-1.0) ** ((n + 1) // 2)
    if sign == "-":
        s = -s
    y = math.log(t) ** (1.0 - 2.0 * alpha)
    shift = (2.0 * alpha - 1.0) / (alpha * (1.0 - alpha))
    return (polylog_H(n + 1, s * y) + shift) / (2.0 ** (n + 1) * math.pi)


def _adjacent_odd(n: int, alpha: float, t: float) -> tuple:
    """(C+_{n+1}, C-_{n+1}, C+_{n-1}, C-_{n-1}) around even n >= 0; at
    n = 0 the interpolation uses C-_{-1} alone and C+_{-1} is None."""
    if n < 0 or n % 2 == 1:
        raise DomainError(f"n must be even and >= 0, got {n}")
    return (c_odd(n + 1, alpha, t, "+"), c_odd(n + 1, alpha, t, "-"),
            c_odd(n - 1, alpha, t, "+") if n else None,
            c_odd(n - 1, alpha, t, "-"))


def c_even(n: int, alpha: float, t: float) -> float:
    """C_{n,alpha}(t) for even n >= 0 (one value for both signs):

      n = 0:  sqrt(2 (C+_1 + C-_1) C-_{-1})
      n >= 2: sqrt(2 (C+_{n+1} + C-_{n+1}) C+_{n-1} C-_{n-1}
                   / (C+_{n-1} + C-_{n-1})).
    """
    cpa, cma, cpb, cmb = _adjacent_odd(n, alpha, t)
    if n == 0:
        return math.sqrt(2.0 * (cpa + cma) * cmb)
    return math.sqrt(2.0 * (cpa + cma) * cpb * cmb / (cpb + cmb))


def c_n(n: int, alpha: float, t: float, sign: Sign) -> float:
    """Dispatch to c_odd / c_even by parity (the even constant does not
    depend on the sign)."""
    _check_sign(sign)
    if n % 2 == 0 and n >= 0:
        return c_even(n, alpha, t)
    return c_odd(n, alpha, t, sign)


def theorem1_constant(n: int, sign: Sign) -> float:
    """Critical-line limit constants C_n (alpha -> 1/2):

      n = 0: 1/4 for both signs;
      n = 4k+1: C- = zeta(n+1)/(pi 2^{n+1}), C+ = (1 - 2^{-n}) C-;
      n = 4k+3: the same two values with the signs swapped;
      even n >= 2: (sqrt2/(pi 2^{n+1})) * sqrt((1-2^{-n-2})(1-2^{-n+1})
                   zeta(n) zeta(n+2)/(1-2^{-n})), both signs.
    """
    _check_sign(sign)
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if n == 0:
        return 0.25
    if n % 2 == 0:
        zn, zn2 = hurwitz_zeta(n, 1.0), hurwitz_zeta(n + 2, 1.0)
        return (math.sqrt(2.0) / (math.pi * 2.0 ** (n + 1))
                * math.sqrt((1.0 - 2.0 ** (-n - 2)) * (1.0 - 2.0 ** (-n + 1))
                            * zn * zn2 / (1.0 - 2.0 ** (-n))))
    base = hurwitz_zeta(n + 1, 1.0) / (math.pi * 2.0 ** (n + 1))
    damp = 1.0 - 2.0 ** (-n)
    if n % 4 == 1:
        return base if sign == "-" else damp * base
    return base if sign == "+" else damp * base


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundEnvelope:
    """Two-sided main-term envelope for S_n at (alpha, t) with error scales.

    ``ell`` is (log t)^{2-2 alpha}/(log log t)^{n+1}; ``err_scale`` is the
    larger of the one-sided scales (they differ only for n = -1, where the
    upper one carries 1/(alpha - 1/2) and the lower one (alpha - 1/2)).
    """

    n: int
    alpha: float
    t: float
    c: float
    lower_main: float
    upper_main: float
    ell: float
    err_scale: float
    err_scale_lower: float
    err_scale_upper: float

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("c must be > 0")
        if self.ell <= 0 or self.err_scale <= 0:
            raise ValueError("ell and err_scale must be > 0")
        if not self.lower_main <= 0.0 <= self.upper_main:
            raise ValueError("main terms must bracket 0")


def envelope(n: int, alpha: float, t: float, c: float) -> BoundEnvelope:
    """Uniform bound envelope for S_n in the region
    (1-alpha)^2 log log t >= c, log log t >= 4."""
    _check_region(alpha, t, c)
    return _envelope_terms(n, alpha, t, c)


def _envelope_terms(n: int, alpha: float, t: float,
                    c: float) -> BoundEnvelope:
    """Envelope formulas without the region guard (report-only path)."""
    if n < -1:
        raise DomainError(f"n must be >= -1, got {n}")
    if not 0.5 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (1/2, 1), got {alpha}")
    lt = math.log(t)
    llt = _loglog(t)
    pw = lt ** (2.0 - 2.0 * alpha)
    ell = pw / llt ** (n + 1)
    c_hi = c_n(n, alpha, t, "+")
    c_lo = c_n(n, alpha, t, "-") if n % 2 else c_hi
    if n == -1:
        base = pw / ((1.0 - alpha) ** 2 * llt)
        err_lo = (alpha - 0.5) * base
        err_hi = base / (alpha - 0.5)
    else:
        err_lo = err_hi = pw / ((1.0 - alpha) ** 2 * llt ** (n + 2))
    return BoundEnvelope(n=n, alpha=alpha, t=t, c=c,
                         lower_main=-c_lo * ell, upper_main=c_hi * ell,
                         ell=ell, err_scale=max(err_lo, err_hi),
                         err_scale_lower=err_lo, err_scale_upper=err_hi)


# ---------------------------------------------------------------------------
# interpolation optimizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterpParams:
    """Optimal convex weights (a, b) and step parameter lambda used to
    produce the even-index constants from the adjacent odd-index ones."""

    a: float
    b: float
    lam: float
    nu: float

    def __post_init__(self):
        if not (0.0 <= self.a <= 1.0 and 0.0 <= self.b <= 1.0):
            raise ValueError("a, b must lie in [0, 1]")
        if abs(self.a + self.b - 1.0) > 1e-12:
            raise ValueError("a + b must equal 1")
        if not 0.5 - 1e-9 <= self.lam <= 2.0 + 1e-9:
            raise ValueError(f"lambda = {self.lam} outside [1/2, 2]")


def interp_params(n: int, alpha: float, t: float) -> InterpParams:
    """Optimizer output for even n: weights a = x/(1+x), b = 1/(1+x) with
    x = C+_{n-1}/C-_{n-1} and the bracket-minimizing lambda
    sqrt(2 (C+_{n+1} + C-_{n+1}) (C+_{n-1} + C-_{n-1})
         / (C+_{n-1} C-_{n-1})); for n = 0 the weights degenerate to
    (0, 1) and lambda = sqrt(2 (C+_1 + C-_1)/C-_{-1})."""
    llt = _check_region(alpha, t, 0.0)
    cpa, cma, cpb, cmb = _adjacent_odd(n, alpha, t)
    if n == 0:
        lam = math.sqrt(2.0 * (cpa + cma) / cmb)
        return InterpParams(a=0.0, b=1.0, lam=lam, nu=lam / llt)
    x = cpb / cmb
    lam = math.sqrt(2.0 * (cpa + cma) * (cpb + cmb) / (cpb * cmb))
    return InterpParams(a=x / (1.0 + x), b=1.0 / (1.0 + x),
                        lam=lam, nu=lam / llt)


# ---------------------------------------------------------------------------
# report-only envelope comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvelopeCheck:
    """Observed S_n value against the envelope band widened by
    slack * err_scale on each side.  Report-only: ``inside`` flags the
    outcome, nothing is thrown on violation."""

    envelope: BoundEnvelope
    observed: float
    observed_method: str
    slack: float
    band_lower: float
    band_upper: float
    inside: bool
    region_ok: bool = True


def check_envelope(n: int, alpha: float, t: float, c: float,
                   zeros: Optional[ZeroTable] = None,
                   slack: float = 10.0) -> EnvelopeCheck:
    """Compare S_n measured by the direct route against the envelope band
    [lower_main - slack*err_lo, upper_main + slack*err_hi].

    Report-only by contract: a violated region does not raise, it only
    clears ``region_ok`` in the report (desk-scale t rarely reaches the
    asymptotic region, yet the comparison is still informative).
    """
    region_ok = True
    try:
        _check_region(alpha, t, c)
    except DomainError:
        region_ok = False
    env = _envelope_terms(n, alpha, t, c)
    observed = s_n_direct(n, alpha, t, zeros=zeros)
    lo = env.lower_main - slack * env.err_scale_lower
    hi = env.upper_main + slack * env.err_scale_upper
    return EnvelopeCheck(envelope=env, observed=observed.value,
                         observed_method=observed.method, slack=slack,
                         band_lower=lo, band_upper=hi,
                         inside=lo <= observed.value <= hi,
                         region_ok=region_ok)
