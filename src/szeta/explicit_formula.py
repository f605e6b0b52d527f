"""Explicit-formula evaluation, prime-power sums, zero-sum representations
of S_n, and asymptotic integral/sum oracles.

The central operation compares the two sides of the Guinand-Weil explicit
formula for the bandlimited extremal kernels: the sum over zeta zeros of a
shifted kernel against the archimedean terms, a digamma integral, and a
von Mangoldt prime-power sum weighted by the kernel's Fourier transform.
Because both kernel families have compactly supported transforms, the prime
sum is finite and exact; the only truncation is the zero sum, whose tail is
bounded by the zero-counting density times the kernel's real-line envelope.

The digamma integral is evaluated on the Fourier side.  Writing
phi(xi) = e^{-pi xi}/(1 - e^{-4 pi xi}) = 1/(4 pi xi) + phi_reg(xi) for the
summed Laplace weights of the poles of psi(1/4 + ix/2), one gets for any
even L1 kernel K with transform Khat supported in [-delta, delta]:

  (1/2pi) int K(t-x) Re psi(1/4 + ix/2) dx
    = (1/2pi) [ -Khat(0) (gamma_E + log(4 pi delta))
                - int_0^delta (Khat(xi) cos(2 pi xi t) - Khat(0))/xi dxi
                - 4 pi int_0^delta Khat(xi) cos(2 pi xi t) phi_reg(xi) dxi ].

This requires Khat continuous at 0 and trades an integrand with logarithmic
growth over the whole line for two smooth integrals on [0, delta].  The
archimedean term takes the same transform values, for Khat also real:

  K(t+i/2) + K(t-i/2) = 4 int_0^delta Khat(xi) cosh(pi xi) cos(2 pi xi t) dxi.

Only cos(2 pi xi t) depends on t.  Written as 1 - 2 sin^2(pi xi t), it
splits both integrals into a t-independent constant and a weighted sum of
sin^2(pi xi t), which has no cancellation near xi = 0.  So each (kernel,
sign) needs one grid per panel count npan = 16 2^k, the smallest with
npan >= 2 |t| delta (no Gauss panel wider than half a period of the
cosine); a Mangoldt table keeps it, 192 npan bytes, and a call costs one
sine per node and one matrix-vector product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Protocol

import numpy as np

from .numkit import (DomainError, MangoldtTable, Sign, _check_sign,
                     gauss_panels, quad_adaptive, sieve_mangoldt,
                     sum_tail_bounded)
from .odd_extremal import OddExtremalPair
from .zeta_core import SnValue, ZeroTable, ZeroTableError

EULER_GAMMA = 0.5772156649015328606


class Kernel(Protocol):
    """A bandlimited majorant ('+') / minorant ('-') pair of exponential
    type 2 pi delta, as gw_evaluate and the CLI use it; ``formula`` names
    how ``real``, ``ft`` and ``l1_gap`` are computed.  ``ft_error`` bounds
    |ft - transform| at each xi: 0 for the Poisson closed forms; for the
    odd pair the stated budget of its sigma-sum.  ``real`` is a closed
    form for the Poisson pair and, for the odd pair, the sigma-mixture
    of Poisson pairs, checked within 1e-13 of a 30-digit mpmath
    evaluation; neither builds interpolation nodes.
    Kernels are hashable, and equal kernels have equal transforms: a
    Mangoldt table keys its cached prime side (_prime_side) and its
    digamma and archimedean grids (_gamma_integral) on them, and a
    GwReport holds its kernel rather than a copy of describe()."""

    delta: float
    formula: Mapping[str, str]
    ft_error: float

    def describe(self) -> dict:
        """Family name and parameters, in a fixed key order."""

    def target(self, x: np.ndarray) -> np.ndarray:
        """The function the pair brackets."""

    def real(self, sign: Sign, x: np.ndarray) -> np.ndarray:
        """Values at real points x, as a 1-D array."""

    def ft(self, sign: Sign, xi: float | np.ndarray) -> float | np.ndarray:
        """Fourier transform at each xi, supported in [-delta, delta]:
        an array for an array xi, a float for a scalar xi."""

    def l1_gap(self, sign: Sign) -> float:
        """L1 distance between the pair member and the target."""

    def tail_envelope(self, sign: Sign) -> float:
        """K with |real(sign, x)| <= K/x^2 on the real axis: exact for
        the Poisson pair, calibrated on samples of ``real`` for the odd
        pair."""


# ---------------------------------------------------------------------------
# report types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class GwReport:
    """Both sides of the explicit formula for one (kernel, sign, t).

    ``kernel`` is the kernel object itself (its describe() gives the
    family and parameters), and ``residual`` is computed from the
    components, so a kept report holds eleven fields: about 300 B."""

    t: float
    delta: float
    kernel: Kernel
    sign: Sign
    zero_side: float
    zero_tail_bound: float
    arch_terms: float
    gamma_integral: float
    log_pi_term: float
    prime_sum: float
    prime_tail_bound: float

    def __post_init__(self):
        if self.zero_tail_bound < 0 or self.prime_tail_bound < 0:
            raise ValueError("tail bounds must be >= 0")

    @property
    def residual(self) -> float:
        """Zero side minus the prime side (arch - log pi + digamma -
        primes): the truncation residual."""
        return self.zero_side - (self.arch_terms - self.log_pi_term
                                 + self.gamma_integral - self.prime_sum)


@dataclass(frozen=True)
class AsymptoticCheck:
    """Direct value of an integral/sum against its main term and error scale."""

    id: str
    params: dict
    direct: float
    main_term: float
    error_scale: float

    def __post_init__(self):
        if self.error_scale <= 0:
            raise ValueError("error_scale must be > 0")

    @property
    def deviation_multiple(self) -> float:
        """|direct - main_term| as a multiple of error_scale."""
        return abs(self.direct - self.main_term) / self.error_scale


# ---------------------------------------------------------------------------
# digamma integral on the Fourier side
# ---------------------------------------------------------------------------

def _phi_reg(xi: np.ndarray) -> np.ndarray:
    """e^{-pi xi}/(1-e^{-4 pi xi}) - 1/(4 pi xi), regular part, xi > 0.

    Taylor series in y = 4 pi xi near 0 where the two singular pieces
    cancel catastrophically: phi_reg = 1/4 - y/96 - y^2/128 + O(y^3).
    """
    xi = np.asarray(xi, dtype=np.float64)
    y = 4.0 * math.pi * xi
    small = y < 1e-3
    ys = np.where(small, y, 1.0)
    taylor = 0.25 - ys / 96.0 - ys * ys / 128.0
    yb = np.where(small, 1.0, y)
    direct = (np.exp(-0.25 * yb) / (-np.expm1(-yb))) - 1.0 / yb
    return np.where(small, taylor, direct)


def _gamma_grid(kernel: Kernel, sign: Sign, npan: int):
    """pi xi on npan 8-point Gauss-Legendre panels of [0, delta], the
    (2, 8 npan) weights of sin^2(pi xi t) and the two constants of
    _gamma_integral.

    With q = sin^2(pi xi t), the digamma integral is gamma0 + sum w[0] q,
    w[0] = wq ft (1/xi + 4 pi phi_reg)/pi, and the archimedean term is
    arch0 + sum w[1] q, w[1] = -8 wq ft cosh(pi xi).  gamma0 keeps the
    (ft - ft0)/xi form of the module docstring."""
    delta = kernel.delta
    ft0 = kernel.ft(sign, 0.0)
    xi, wq = gauss_panels(np.linspace(0.0, delta, npan + 1), 8)
    ft = kernel.ft(sign, xi)
    reg = _phi_reg(xi)
    cosh = np.cosh(math.pi * xi)
    wft = wq * ft
    gamma0 = (-ft0 * (EULER_GAMMA + math.log(4.0 * math.pi * delta))
              - float(np.dot(wq, (ft - ft0) / xi))
              - 4.0 * math.pi * float(np.dot(wft, reg))) / (2.0 * math.pi)
    arch0 = 4.0 * float(np.dot(wft, cosh))
    w = np.stack([wft * (1.0 / xi + 4.0 * math.pi * reg) / math.pi,
                  -8.0 * wft * cosh])
    return math.pi * xi, w, gamma0, arch0


def _gamma_integral(kernel: Kernel, sign: Sign, t: float,
                    cache: Optional[dict] = None) -> tuple[float, float]:
    """(1/2pi) int K(t-x) Re psi(1/4+ix/2) dx via the Fourier-side formula,
    and the archimedean term 2 Re K(t+i/2) on the same nodes.

    Composite Gauss-Legendre panels no wider than half the period 1/t of
    the cosine factor: npan = 16 2^k, the smallest with npan >= 2 |t|
    delta, so t of one octave share one grid (_gamma_grid).  ``cache``
    (a Mangoldt table's) keeps each grid under (kernel, sign, npan), 192
    npan bytes: 172 KB per (kernel, sign) for npan = 128, 256 and 512, 3
    MiB at delta = 2.9, t = 2400.  Without it the grid is built and
    dropped; the bits are the same.  A call then computes sin^2(pi xi t)
    on the nodes and one matrix-vector product.

    Errors up to ft_error move the archimedean term by up to 4 ft_error
    sinh(pi delta)/pi, 7e-11 at delta = 1.5 for the odd pair; no report
    field.
    """
    need = math.ceil(2.0 * max(abs(t), 1.0) * kernel.delta)
    npan = max(16, 1 << (need - 1).bit_length())
    key = (kernel, sign, npan)
    if cache is None:
        cache = {}
    if key not in cache:
        cache[key] = _gamma_grid(kernel, sign, npan)
    pxi, w, gamma0, arch0 = cache[key]
    q = np.multiply(pxi, t)
    np.sin(q, out=q)
    np.square(q, out=q)
    dg, da = w @ q
    return gamma0 + float(dg), arch0 + float(da)


# ---------------------------------------------------------------------------
# zero-sum tail bound
# ---------------------------------------------------------------------------

def _density_tail(t_shift: float, t0: float) -> float:
    """int_{t0}^inf log(u/2pi)/(u - t_shift)^2 du in closed form.

    Valid for t_shift < t0 (t_shift may be negative).  Integration by
    parts gives log(t0/2pi)/(t0-s) + (1/s) log(t0/(t0-s)) with the s -> 0
    limit 1/t0.
    """
    s = t_shift
    if s >= t0:
        raise DomainError("tail start must exceed the shift")
    lead = math.log(t0 / (2.0 * math.pi)) / (t0 - s)
    if abs(s) < 1e-12 * t0:
        return lead + 1.0 / t0
    return lead - math.log1p(-s / t0) / s


def _zero_tail_bound(env_k: float, t: float, t0: float) -> float:
    """Bound on the dropped zero-sum tail beyond the last ordinate t0.

    Uses |kernel(x)| <= env_k/x^2, the zero-counting density
    log(u/2pi)/(2pi) du, conjugate symmetry (both tails), and a factor-2
    safety margin for the oscillating part of the counting function.
    """
    per_line = env_k / (2.0 * math.pi) * (_density_tail(t, t0)
                                          + _density_tail(-t, t0))
    return 2.0 * 2.0 * per_line


# ---------------------------------------------------------------------------
# prime-power sum
# ---------------------------------------------------------------------------

def prime_sum(kernel: Kernel, sign: Sign, t: float,
              table: MangoldtTable) -> float:
    """(1/pi) sum over prime powers n of Lambda(n) n^{-1/2}
    kernel.ft(sign, log n / 2pi) cos(t log n); finite since the transform
    vanishes beyond delta (i.e. for n > e^{2 pi delta}).  The transform
    is evaluated once per table (_prime_side)."""
    limit = math.exp(2.0 * math.pi * kernel.delta)
    if table.limit < limit:
        raise DomainError(
            f"Mangoldt table limit {table.limit} below required "
            f"e^(2 pi delta) = {limit:.1f}")
    logn, wft, _, _ = _prime_side(kernel, sign, table)
    # w ft cos(t log n) in one work array, with the bits of the product
    c = np.multiply(t, logn)
    np.cos(c, out=c)
    c *= wft
    return float(np.sum(c)) / math.pi


def _prime_side(kernel: Kernel, sign: Sign, table: MangoldtTable):
    """log n and the weighted transform Lambda(n) n^{-1/2} ft(log n / 2pi)
    over the prime powers n <= e^{2 pi kernel.delta}, and two report
    terms: log_pi_term = ft(0) log(pi)/2pi and prime_tail_bound =
    ft_error (1/pi) sum Lambda(n) n^{-1/2}, the prime sum with every
    transform value replaced by its error bound.

    Only the cosine of the prime sum depends on t, so all four are kept
    in ``table._cache``, one entry per (kernel, sign): 8 B per prime
    power, for as long as the table lives, and kept reports share the
    two floats."""
    key = (kernel, sign)
    if key not in table._cache:
        logn, xi, w = table.prime_powers
        k = int(np.searchsorted(xi, kernel.delta, side="right"))
        log_pi = kernel.ft(sign, 0.0) * math.log(math.pi) / (2.0 * math.pi)
        wsum = float(np.sum(w[:k])) / math.pi
        table._cache[key] = (logn[:k], w[:k] * kernel.ft(sign, xi[:k]),
                             log_pi, kernel.ft_error * wsum)
    return table._cache[key]


# ---------------------------------------------------------------------------
# explicit-formula evaluation
# ---------------------------------------------------------------------------

def gw_evaluate(kernel: Kernel, sign: Sign, t: float, delta: float,
                zeros: ZeroTable,
                mangoldt: Optional[MangoldtTable] = None) -> GwReport:
    """Evaluate both sides of the explicit formula for the shifted kernel
    x -> kernel(t - x) and report the truncation residual.

    ``delta`` must match kernel.delta, which every stage reads; a
    prebuilt Mangoldt table may be supplied to amortize sieving across
    calls (prime_sum rejects one shorter than e^{2 pi delta}).  Such a
    table also keeps, per (kernel, sign), the prime side's weighted
    transform Lambda(n) n^{-1/2} ft(log n / 2pi), log_pi_term and
    prime_tail_bound, so a later call computes only the cosines and its
    reports share those two floats: 8 B per prime power n <= e^{2 pi
    delta} (12 KB at delta = 1.5, 36 MiB at delta = 2.9).  It keeps
    the digamma and archimedean grid of each power-of-two panel count
    too, 192 npan bytes per (kernel, sign, npan), so a later call at t
    of a kept octave computes only sin^2(pi xi t) (_gamma_integral).
    Both are freed with the table.  The archimedean term's budget 4
    ft_error sinh(pi delta)/pi is not a report field.
    """
    _check_sign(sign)
    gam = np.asarray(zeros.ordinates)
    if abs(delta - kernel.delta) > 1e-12:
        raise DomainError(
            f"delta {delta} does not match kernel delta {kernel.delta}")
    t0 = float(gam[-1])
    if t >= t0:
        raise ZeroTableError(
            f"t = {t} not covered by the zero table (last ordinate {t0})")
    if mangoldt is None:
        mangoldt = sieve_mangoldt(
            int(math.ceil(math.exp(2.0 * math.pi * kernel.delta))))

    ztail = _zero_tail_bound(kernel.tail_envelope(sign), t, t0)
    zvals = kernel.real(sign, np.concatenate([t - gam, t + gam]))
    zero_side = float(np.sum(zvals[:len(gam)] + zvals[len(gam):]))

    gamma_int, arch = _gamma_integral(kernel, sign, t, mangoldt._cache)
    psum = prime_sum(kernel, sign, t, mangoldt)
    _, _, log_pi, ptail = _prime_side(kernel, sign, mangoldt)

    return GwReport(t=t, delta=delta, kernel=kernel, sign=sign,
                    zero_side=zero_side, zero_tail_bound=ztail,
                    arch_terms=arch, gamma_integral=gamma_int,
                    log_pi_term=log_pi, prime_sum=psum,
                    prime_tail_bound=ptail)


# ---------------------------------------------------------------------------
# zero-sum representations of S_n
# ---------------------------------------------------------------------------

def _tail_const(fvec: Callable[[np.ndarray], np.ndarray], power: int) -> float:
    """Calibrated C with |f(x)| <= C/|x|^power for |x| >= 20 (factor-2
    safety over the sampled maximum on [20, 200])."""
    x = np.linspace(20.0, 200.0, 361)
    return 2.0 * float(np.max(np.abs(fvec(x)) * x ** power))


def _density_tail_p3(t_shift: float, t0: float) -> float:
    """Upper bound for int_{t0}^inf log(u/2pi)/(u - t_shift)^3 du."""
    s = t_shift
    return (math.log(t0 / (2.0 * math.pi)) / (2.0 * (t0 - s) ** 2)
            + 1.0 / (2.0 * t0 * (t0 - s)))


def rep_sum(n: int, alpha: float, t: float, zeros: ZeroTable) -> SnValue:
    """S_n at (alpha, t) assembled from a sum over zero ordinates.

    n = -1 uses the Poisson kernel at beta = alpha - 1/2 together with a
    -(1/2pi) log(t/2pi) term; even n = 2m sums the odd companion function;
    odd n = 2m+1 sums the even target function plus an explicit
    (3/2-alpha)^{2m+2} log t leading term.  The even/odd n >= 0 cases
    carry an unquantified O(1) offset; est_error reports only the
    zero-sum truncation bound.
    """
    if n < -1:
        raise DomainError("n must be >= -1")
    if not 0.5 <= alpha < 1.0:
        raise DomainError(f"alpha must lie in [1/2, 1), got {alpha}")
    if t < 2.0:
        raise DomainError(f"t must be >= 2, got {t}")
    if n == -1 and alpha == 0.5:
        raise DomainError("n = -1 requires alpha > 1/2")
    gam = np.asarray(zeros.ordinates)
    if gam[-1] < t + 10.0:
        raise ZeroTableError(
            f"insufficient zero coverage near t = {t}: table ends at "
            f"{gam[-1]}")
    t0 = float(gam[-1])
    dens2 = _density_tail(t, t0) + _density_tail(-t, t0)

    if n == -1:
        beta = alpha - 0.5
        h = beta / (beta ** 2 + (t - gam) ** 2) \
            + beta / (beta ** 2 + (t + gam) ** 2)
        value = (-math.log(t / (2.0 * math.pi)) / (2.0 * math.pi)
                 + float(np.sum(h)) / math.pi)
        # |h_beta(x)| <= beta/x^2; factor 2 for counting-function wiggle
        tail = 2.0 * beta / (2.0 * math.pi ** 2) * dens2
        return SnValue(n=n, alpha=alpha, t=t, value=value,
                       method="zero_sum", est_error=tail)

    m, odd_index = divmod(n, 2)
    pair = OddExtremalPair(m=m, alpha=alpha, delta=1.0)
    sgn_m = (-1.0) ** m
    if odd_index == 0:
        f = pair.f_even_vec
        coeff = sgn_m / (math.pi * math.factorial(2 * m))
        zsum = float(np.sum(f(t - gam) + f(t + gam)))
        c3 = _tail_const(f, 3)
        dens3 = _density_tail_p3(t, t0) + _density_tail_p3(-t, t0)
        tail = 2.0 * abs(coeff) * c3 / (2.0 * math.pi) * dens3
        return SnValue(n=n, alpha=alpha, t=t, value=coeff * zsum,
                       method="zero_sum", est_error=tail)
    f = pair.f_odd_vec
    lead = (sgn_m / (2.0 * math.pi * math.factorial(2 * m + 2))
            * (1.5 - alpha) ** (2 * m + 2) * math.log(t))
    coeff = -sgn_m / (math.pi * math.factorial(2 * m))
    zsum = float(np.sum(f(t - gam) + f(t + gam)))
    c2 = _tail_const(f, 2)
    tail = 2.0 * abs(coeff) * c2 / (2.0 * math.pi) * dens2
    return SnValue(n=n, alpha=alpha, t=t, value=lead + coeff * zsum,
                   method="zero_sum", est_error=tail)


def rep_band(rep: SnValue) -> float:
    """Allowed |zero sum - direct| for a rep_sum value: truncation bound
    + 0.05 for n = -1, 5.0 (unquantified O(1) offset) for n >= 0."""
    return (0.05 + rep.est_error) if rep.n == -1 else 5.0


# ---------------------------------------------------------------------------
# asymptotic oracles (integrals and sieved sums vs. their main terms)
# ---------------------------------------------------------------------------

def _req(params: Mapping, *names):
    out = []
    for name in names:
        if name not in params:
            raise DomainError(f"missing parameter {name!r}")
        out.append(params[name])
    return out


def _check_alpha_x(alpha: float, x: float, c: Optional[float],
                   strict_half: bool = False) -> None:
    lo_ok = alpha > 0.5 if strict_half else alpha >= 0.5
    if not (lo_ok and alpha < 1.0):
        raise DomainError(f"alpha = {alpha} outside range")
    if x < 3.0:
        raise DomainError(f"x must be >= 3, got {x}")
    if c is not None and (1.0 - alpha) ** 2 * math.log(x) < c:
        raise DomainError(
            f"region violated: (1-alpha)^2 log x = "
            f"{(1.0 - alpha) ** 2 * math.log(x):.6g} < c = {c}")


def _mangoldt_arrays(x: float):
    table = sieve_mangoldt(int(math.floor(x)))
    return table.n, table.lam


# Calibrated deviation-multiple bands (multiples of the displayed error
# scale), keyed by (id, m).  The displayed error scales suppress the
# (2m+2)!-sized coefficients of the next-order terms, so at desk-scale x
# the measured multiples for the m=1 cases sit far above 10 even though
# the ratio to the main term behaves; the bands below are measured
# envelopes with ~30% headroom, and the selftest's monotone-ratio checks
# at m=0 cover the "improving with x" requirement where the asymptotics
# are already in regime.
APPENDIX_BANDS = {("A1", 0): 20.0, ("A1", 1): 2200.0,
                  ("A2", 0): 20.0, ("A2", 1): 2200.0,
                  ("A3", 0): 10.0, ("A3", 1): 10.0,
                  ("B1", 0): 25.0, ("B1", 1): 4000.0,
                  ("B2", 0): 10.0, ("B2", 1): 10.0}


def _appendix_tol(main: float) -> float:
    """Quadrature tolerance of the integral items A1-A3: 1e-10, relative
    to the main term once that exceeds 1.  An absolute 1e-10 is below the
    rounding floor of an integral above about 1e4 (A3 at x = 1e8)."""
    return 1e-10 * max(1.0, abs(main))


def _main_term(alpha: float, x: float, p: int) -> float:
    """x^(1-alpha)/((1-alpha) (log x)^p), the main term of A1 and B1."""
    return x ** (1 - alpha) / ((1 - alpha) * math.log(x) ** p)


def _error_scale(alpha: float, x: float, p: int) -> float:
    """x^(1-alpha)/((1-alpha)^2 (log x)^(p+1)): the error scale of A1, B1
    and B2, and the bound of A5 and B3."""
    return x ** (1 - alpha) / ((1 - alpha) ** 2 * math.log(x) ** (p + 1))


def _q_series(q: float, c: Callable[[int], float],
              c_bound: Callable[[int], float], tol: float) -> float:
    """sum over k >= 1 of (k+1) q^k |c(k)|, 0 < q < 1, to an absolute tol
    (sum_tail_bounded), where c_bound(K) >= |c(k)| for every k >= K.  The
    tail from K is then at most c_bound(K) q^K sum_{j>=0} (K+1+j) q^j =
    c_bound(K) q^K ((K+1)/(1-q) + q/(1-q)^2): a proved bound."""
    def tail(j):  # the terms k >= K = j + 1
        K = j + 1
        return c_bound(K) * q ** K * ((K + 1) / (1 - q) + q / (1 - q) ** 2)
    return sum_tail_bounded(
        lambda j: (j + 2) * q ** (j + 1) * abs(c(j + 1)), tail, tol).value


def appendix_asymptotic(id: str, params: Mapping) -> AsymptoticCheck:
    """Evaluate one of the asymptotic facts: the direct quantity (adaptive
    quadrature for integral items A1-A3, exact sieve for sum items B1-B4),
    its closed-form main term, and the error scale it is asserted against.

    For the pure-inequality items (A4, A5, B3) the main term is the bound
    itself (A4) or zero with the bound as error scale (A5, B3).  A5 and B3
    are series in q = x^(1/2 - alpha), summed until a proved tail bound is
    below 1e-15 (A5) or 1e-13 (B3) times that scale (_q_series), so they
    need alpha > 1/2.
    """
    params = dict(params)
    pid = id.upper()
    if pid == "A1":
        m, alpha, x = _req(params, "m", "alpha", "x")
        _check_alpha_x(alpha, x, params.get("c"))
        p = 2 * m + 2
        main = _main_term(alpha, x, p)
        direct = quad_adaptive(
            lambda u: u ** (-alpha) * math.log(u) ** (-p), 2.0, x,
            tol=_appendix_tol(main))
        return AsymptoticCheck(id=pid, params=params, direct=direct,
                               main_term=main,
                               error_scale=_error_scale(alpha, x, p))
    if pid == "A2":
        m, k, alpha, x = _req(params, "m", "k", "alpha", "x")
        if k < 1:
            raise DomainError("k must be >= 1")
        _check_alpha_x(alpha, x, params.get("c"))
        p = 2 * m + 2
        lx = math.log(x)
        main = (x ** (1 - alpha) / ((1 - alpha) * ((k + 1) * lx) ** p)
                - 2.0 ** (1 - alpha)
                / ((1 - alpha) * (k * lx + math.log(2.0)) ** p))
        direct = quad_adaptive(
            lambda u: u ** (-alpha) * (k * lx + math.log(u)) ** (-p),
            2.0, x, tol=_appendix_tol(main))
        err = (x ** (1 - alpha)
               / ((1 - alpha) ** 2 * ((k + 1) * lx) ** (p + 1)))
        return AsymptoticCheck(id=pid, params=params, direct=direct,
                               main_term=main, error_scale=err)
    if pid == "A3":
        m, k, alpha, x = _req(params, "m", "k", "alpha", "x")
        if k < 0:
            raise DomainError("k must be >= 0")
        _check_alpha_x(alpha, x, None)
        p = 2 * m + 2
        lx = math.log(x)
        main = (x ** alpha / (alpha * ((k + 1) * lx) ** p)
                - 2.0 ** alpha
                / (alpha * ((k + 2) * lx - math.log(2.0)) ** p))
        direct = quad_adaptive(
            lambda u: u ** (alpha - 1) * ((k + 2) * lx - math.log(u)) ** (-p),
            2.0, x, tol=_appendix_tol(main))
        err = x ** alpha / (((k + 1) * lx) ** (p + 1))
        return AsymptoticCheck(id=pid, params=params, direct=direct,
                               main_term=main, error_scale=err)
    if pid == "A4":
        alpha, x = _req(params, "alpha", "x")
        _check_alpha_x(alpha, x, None, strict_half=True)
        direct = 1.0 / (x ** (alpha - 0.5) - 1.0)
        main = 1.0 / ((alpha - 0.5) * math.log(x))
        return AsymptoticCheck(id=pid, params=params, direct=direct,
                               main_term=main, error_scale=main)
    if pid == "A5":
        m, alpha, x = _req(params, "m", "alpha", "x")
        # the tail bound of _q_series needs q < 1
        _check_alpha_x(alpha, x, None, strict_half=True)
        p = 2 * m + 2
        lx = math.log(x)
        l2 = math.log(2.0)
        q = x ** (-(alpha - 0.5))
        bound = _error_scale(alpha, x, p)

        def left(k):
            return 2.0 ** alpha / (x ** (2 * alpha - 1)
                                   * ((k + 2) * lx - l2) ** p)

        def right(k):
            return 2.0 ** (1 - alpha) / ((k * lx + l2) ** p)

        # both parts are positive and decrease in k
        total = _q_series(q, lambda k: left(k) - right(k),
                          lambda k: left(k) + right(k), 1e-15 * bound)
        return AsymptoticCheck(id=pid, params=params, direct=total,
                               main_term=0.0, error_scale=bound)
    if pid == "B1":
        m, alpha, x = _req(params, "m", "alpha", "x")
        _check_alpha_x(alpha, x, params.get("c"))
        p = 2 * m + 2
        n, lam = _mangoldt_arrays(x)
        direct = float(np.sum(lam / (n ** alpha * np.log(n) ** p)))
        return AsymptoticCheck(id=pid, params=params, direct=direct,
                               main_term=_main_term(alpha, x, p),
                               error_scale=_error_scale(alpha, x, p))
    if pid == "B2":
        m, alpha, x = _req(params, "m", "alpha", "x")
        _check_alpha_x(alpha, x, params.get("c"))
        p = 2 * m + 2
        lx = math.log(x)
        n, lam = _mangoldt_arrays(x)
        direct = float(np.sum(
            lam / (n ** (1 - alpha) * (2 * lx - np.log(n)) ** p))
        ) / x ** (2 * alpha - 1)
        return AsymptoticCheck(id=pid, params=params, direct=direct,
                               main_term=x ** (1 - alpha) / (alpha * lx ** p),
                               error_scale=_error_scale(alpha, x, p))
    if pid == "B3":
        m, alpha, x = _req(params, "m", "alpha", "x")
        # the tail bound of _q_series needs q < 1
        _check_alpha_x(alpha, x, params.get("c"), strict_half=True)
        p = 2 * m + 2
        lx = math.log(x)
        n, lam = _mangoldt_arrays(x)
        logn = np.log(n)
        w_left = lam / n ** alpha
        w_right = lam * n ** (alpha - 1) / x ** (2 * alpha - 1)
        q = x ** (-(alpha - 0.5))
        bound = _error_scale(alpha, x, p)
        # log 2 <= log n <= log x bounds each prime sum by its weights'
        s_left, s_right = float(np.sum(w_left)), float(np.sum(w_right))
        l2 = math.log(2.0)
        total = _q_series(
            q, lambda k: float(np.sum(w_left / (k * lx + logn) ** p
                                      - w_right / ((k + 2) * lx - logn) ** p)),
            lambda k: (s_left / (k * lx + l2) ** p
                       + s_right / ((k + 1) * lx) ** p), 1e-13 * bound)
        return AsymptoticCheck(id=pid, params=params, direct=total,
                               main_term=0.0, error_scale=bound)
    if pid == "B4":
        beta, x = _req(params, "beta", "x")
        if not 0.0 <= beta < 0.5:
            raise DomainError(f"beta must lie in [0, 1/2), got {beta}")
        if x < 3.0:
            raise DomainError(f"x must be >= 3, got {x}")
        n, lam = _mangoldt_arrays(x)
        direct = float(np.sum(
            lam / np.sqrt(n) * ((x / n) ** beta - (n / x) ** beta)))
        main = ((2.0 * beta * math.sqrt(x)
                 - 2.0 ** (0.5 - beta) * x ** beta * (0.5 + beta) ** 2
                 + 2.0 ** (0.5 + beta) * x ** (-beta) * (0.5 - beta) ** 2)
                / (0.25 - beta * beta))
        err = max(beta * x ** beta * math.log(x) ** 4, 1e-30)
        return AsymptoticCheck(id=pid, params=params, direct=direct,
                               main_term=main, error_scale=err)
    raise DomainError(f"unknown asymptotic id {id!r}")
