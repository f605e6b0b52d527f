"""Explicit-formula evaluation, prime-power sums, zero-sum representations
of S_n, and asymptotic integral/sum oracles.

The central operation compares the two sides of the Guinand-Weil explicit
formula for the bandlimited extremal kernels: the sum over zeta zeros of a
shifted kernel against the archimedean terms, a digamma integral, and a
von Mangoldt prime-power sum weighted by the kernel's Fourier transform.
Because both kernel families have compactly supported transforms, the prime
sum is finite and exact; the only truncation is the zero sum, whose tail is
bounded by the zero-counting density times the kernel's real-line envelope.

Both kernel families are Poisson mixtures: real(sign, x) = sum h_u(x) (a +
b cos(2 pi delta x)), h_u(x) = u/(u^2 + x^2), over the members (u, a, b) of
Kernel.poisson_mixture(sign).  So the two terms that need the kernel off
the real line are closed forms summed over the members (_gamma_integral).
With D(K) = (1/2pi) int K(t - x) Re psi(1/4 + ix/2) dx, D(h_u) is the
harmonic extension of Re psi(1/4 - iz/2), as h_u/pi is the Poisson kernel
of the upper half-plane.  For h_u cos(2 pi delta .) the contour closes
upward on e^{2 pi i delta (x - t)}, through x = t + iu and, in the half
psi(1/4 + ix/2)/2 of Re psi, the poles x = i y_k, y_k = 2k + 1/2, each of
residue 2i; as |h_u(t - iy)| <= u/(y^2 - u^2), the poles k >= 3 add less
than 5e-20 sum |b| for delta >= 1 and u <= 1:

  D(h_u) = (1/2) Re psi(1/4 + u/2 + it/2),
  D(h_u cos) = (1/2) Re[e^{-2 pi delta u} (psi(1/4 + u/2 + it/2)
               + psi(1/4 - u/2 + it/2))/2 - 2 e^{-2 pi i delta t}
               sum_{k>=0} e^{-2 pi delta y_k} h_u(t - i y_k)],
  K(t+i/2) + K(t-i/2) = 2 Re sum h_u(z) (a + b cos(2 pi delta z)), z = t+i/2.

The zero side sum_gamma K(t - gamma) + K(t + gamma) reads the kernel
through Kernel.real_parts: K = f + A sin^2(pi delta x) ('+') or f - A
cos^2(pi delta x) ('-'), so with A-+ = A(t -+ gamma), c = cos(2 pi delta
gamma), s = sin(2 pi delta gamma) and theta = 2 pi delta t,

  sum A trig = (1/2) [sum (A- + A+) -+ (cos theta sum c (A- + A+)
               + sin theta sum s (A- - A+))]

(trig = sin^2 or cos^2), two dot products and no trigonometric call per
zero (_zero_side).  The table keeps c and s per delta (_zero_phases),
from delta gamma less its nearest integer, reduced exactly
(numkit.frac_product), and each call reduces delta t the same way.  The
zeros within _NEAR = 4 of |t| (the sum is even in t) stay out of the
phases: they take A sin^2(pi r) with r reduced to the nearest node as
real reduces it, since A may grow like 1/|t - gamma| there (the odd
pair at alpha = 1/2) and (1 -+ cos)/2 would lose its digits.
"""

from __future__ import annotations

import cmath
import math
import struct
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Protocol

import numpy as np

from .numkit import (DomainError, MangoldtTable, Sign, _check_sign,
                     digamma, frac_product, quad_adaptive, sieve_mangoldt,
                     sum_tail_bounded, trig_sq)
from .odd_extremal import OddExtremalPair
from .zeta_core import SnValue, ZeroTable, ZeroTableError


class Kernel(Protocol):
    """A bandlimited majorant ('+') / minorant ('-') pair of exponential
    type 2 pi delta, as gw_evaluate and the CLI use it; ``formula`` names
    how ``real``, ``ft`` and ``l1_gap`` are computed.  ``ft_error`` bounds
    |ft - transform| at each xi: 0 for the Poisson closed forms; for the
    odd pair the stated budget of its sigma-sum.  ``real`` is a closed
    form for the Poisson pair and, for the odd pair, the sigma-mixture
    of Poisson pairs, checked within 1e-13 of a 30-digit mpmath
    evaluation; neither builds interpolation nodes.  ``real_parts``
    splits ``real`` into the parts the zero side sums without a
    trigonometric call per zero; ``poisson_mixture`` gives the digamma
    and archimedean terms in closed form.
    Kernels are hashable, and equal kernels have equal transforms: a
    Mangoldt table keys its cached prime side (_prime_side) on them, and
    a GwReport holds its kernel rather than a copy of describe()."""

    delta: float
    formula: Mapping[str, str]
    ft_error: float

    def describe(self) -> dict:
        """Family name and parameters, in a fixed key order."""

    def target(self, x: np.ndarray) -> np.ndarray:
        """The function the pair brackets."""

    def real(self, sign: Sign, x: np.ndarray) -> np.ndarray:
        """Values at real points x, as a 1-D array."""

    def real_parts(self, sign: Sign, x: np.ndarray) -> tuple:
        """(f, A), 1-D arrays at real points x: real = f + A sin^2(pi
        delta x) ('+') or f - A cos^2(pi delta x) ('-')."""

    def ft(self, sign: Sign, xi: float | np.ndarray) -> float | np.ndarray:
        """Fourier transform at each xi, supported in [-delta, delta]:
        an array for an array xi, a float for a scalar xi."""

    def l1_gap(self, sign: Sign) -> float:
        """L1 distance between the pair member and the target."""

    def tail_envelope(self, sign: Sign) -> float:
        """K with |real(sign, x)| <= K/x^2 on the real axis, proved: in
        closed form for the Poisson pair, and for the odd pair from the
        first moments of its Poisson sigma-mixture."""

    def poisson_mixture(self, sign: Sign) -> tuple:
        """(u, a, b), 0 < u <= 1: real = sum h_u (a + b cos(2 pi delta x))."""


# ---------------------------------------------------------------------------
# report types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class GwConstants:
    """The two report terms that do not depend on t: log_pi_term =
    ft(0) log(pi)/2pi and prime_tail_bound.  One per (kernel, sign) on a
    Mangoldt table, kept in its prime-side entry (_prime_side) and
    shared by the reports made with that table."""

    log_pi_term: float
    prime_tail_bound: float


# a report's five t-dependent terms, in the order they are packed
_TERM_NAMES = ("zero_side", "zero_tail_bound", "arch_terms",
               "gamma_integral", "prime_sum")
_TERMS = struct.Struct("5d")


def _term(i: int) -> property:
    return property(lambda rep: _TERMS.unpack(rep.terms)[i],
                    doc=f"{_TERM_NAMES[i]}, read off ``terms``.")


@dataclass(frozen=True, slots=True)
class GwReport:
    """Both sides of the explicit formula for one (kernel, sign, t).

    ``kernel`` is the kernel object itself (its describe() gives the
    family and parameters).  The five terms that depend on t are packed
    as doubles in ``terms`` and read back as properties, so a kept report
    is one 72 B object and one 73 B bytes object (tracemalloc), where
    five float fields took 225 B: perfbench's gw_sweep keeps every
    report.  log_pi_term and prime_tail_bound live in the shared
    GwConstants."""

    t: float
    kernel: Kernel
    sign: Sign
    constants: GwConstants
    terms: bytes

    zero_side = _term(0)
    zero_tail_bound = _term(1)
    arch_terms = _term(2)
    gamma_integral = _term(3)
    prime_sum = _term(4)

    def __post_init__(self):
        if self.zero_tail_bound < 0 or self.prime_tail_bound < 0:
            raise ValueError("tail bounds must be >= 0")

    @property
    def delta(self) -> float:
        return self.kernel.delta

    @property
    def log_pi_term(self) -> float:
        return self.constants.log_pi_term

    @property
    def prime_tail_bound(self) -> float:
        return self.constants.prime_tail_bound

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
# digamma integral and archimedean term of a Poisson mixture
# ---------------------------------------------------------------------------

# i y_k at the poles y_k = 2k + 1/2, k < 3, of the residue series (the rest
# adds < 5e-20 sum |b|), and the +-u/2 of psi's arguments 1/4 +- u/2 + it/2
_POLES = 1j * np.array([[0.5], [2.5], [4.5]])
_HALVES = np.array([[0.5], [-0.5]])


def _gamma_integral(kernel: Kernel, sign: Sign,
                    t: float) -> tuple[float, float]:
    """(1/2pi) int K(t-x) Re psi(1/4+ix/2) dx and 2 Re K(t+i/2) for K =
    real(sign, .), the module docstring's closed forms summed over the
    members, each member's digamma part first: a psi+ and b e (psi+ +
    psi-)/2 nearly cancel where b is large (the odd pair as u -> 0).  The
    phase is taken from delta t less its nearest integer; an error e in it
    moves the arch term by up to 2 e sinh(pi delta) |sum b h_u(t+i/2)|."""
    u, a, b = kernel.poisson_mixture(sign)
    d = kernel.delta
    pp, pm = digamma(_HALVES * u + (0.25 + 0.5j * t)).real
    e = np.exp(-2.0 * math.pi * d * u)
    h = u / (u * u + (t + _POLES) ** 2)
    H = h @ b
    r = d * t - round(d * t)
    q = math.exp(-4.0 * math.pi * d)  # e^{-2 pi delta y_k} = e^{-pi delta} q^k
    res = math.exp(-math.pi * d) * complex(H[0] + q * (H[1] + q * H[2]))
    gamma = (0.5 * float(np.sum(a * pp + 0.5 * b * e * (pp + pm)))
             - (cmath.exp(-2j * math.pi * r) * res.conjugate()).real)
    cos_z = cmath.cos(complex(2.0 * math.pi * r, math.pi * d))
    return gamma, float(2.0 * (np.dot(h[0], a) + cos_z * H[0]).real)


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

    The proved |kernel(x)| <= env_k/x^2 (Kernel.tail_envelope) against
    the zero-counting density log(u/2pi)/(2pi) du on u > t0, summed over
    both shifts, x = t - u and x = t + u: that is the whole dropped part
    of the zero side.  The remaining factor 2 is a margin, not proved,
    for the counting function's oscillating part S(u) = O(log u), which
    the smooth density leaves out.
    """
    smooth = env_k / (2.0 * math.pi) * (_density_tail(t, t0)
                                        + _density_tail(-t, t0))
    return 2.0 * smooth


# ---------------------------------------------------------------------------
# zero side
# ---------------------------------------------------------------------------

# zeros within this distance of |t| take A trig directly (module docstring)
_NEAR = 4.0


def _zero_phases(zeros: ZeroTable, delta: float) -> tuple:
    """cos and sin of 2 pi delta gamma over the ordinates, from delta
    gamma less its nearest integer (frac_product); kept in
    ``zeros._cache`` per delta, 16 B per ordinate."""
    key = ("phases", delta)
    hit = zeros._cache.get(key)
    if hit is None:
        r = 2.0 * math.pi * frac_product(delta, np.asarray(zeros.ordinates))
        hit = zeros._cache[key] = (np.cos(r), np.sin(r))
    return hit


def _zero_side(kernel: Kernel, sign: Sign, t: float,
               zeros: ZeroTable) -> float:
    """sum over the ordinates gamma of real(sign, t - gamma) + real(sign,
    t + gamma): f summed, A trig from the phases except on the zeros
    within _NEAR of |t| (module docstring)."""
    gam = np.asarray(zeros.ordinates)
    n = len(gam)
    s = abs(t)
    d = kernel.delta
    x = np.empty(2 * n)
    np.subtract(s, gam, out=x[:n])
    np.add(s, gam, out=x[n:])
    f, a = kernel.real_parts(sign, x)
    am, ap = a[:n], a[n:]
    lo, hi = gam.searchsorted((s - _NEAR, s + _NEAR))
    near = float(am[lo:hi] @ trig_sq(sign, d * x[lo:hi]))
    both, diff = am + ap, am - ap
    both[lo:hi] = ap[lo:hi]
    np.negative(ap[lo:hi], out=diff[lo:hi])
    c, sn = _zero_phases(zeros, d)
    theta = 2.0 * math.pi * float(frac_product(d, s))
    osc = (math.cos(theta) * float(c @ both)
           + math.sin(theta) * float(sn @ diff))
    total = float(both.sum())
    if sign == "+":
        return float(f.sum()) + (near + 0.5 * (total - osc))
    return float(f.sum()) - (near + 0.5 * (total + osc))


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
    logn, wft, _ = _prime_side(kernel, sign, table)
    # w ft cos(t log n) in one work array, with the bits of the product
    c = np.multiply(t, logn)
    np.cos(c, out=c)
    c *= wft
    return float(np.sum(c)) / math.pi


def _prime_side(kernel: Kernel, sign: Sign, table: MangoldtTable):
    """log n and the weighted transform Lambda(n) n^{-1/2} ft(log n / 2pi)
    over the prime powers n <= e^{2 pi kernel.delta}, and the report's
    GwConstants, with log_pi_term = ft(0) log(pi)/2pi and
    prime_tail_bound = ft_error (1/pi) sum Lambda(n) n^{-1/2}, the prime
    sum with every transform value replaced by its error bound.

    Only the cosine of the prime sum depends on t, so all three are kept
    in ``table._cache``, one entry per (kernel, sign): 8 B per prime
    power, for as long as the table lives, and kept reports share the
    constants."""
    key = (kernel, sign)
    if key not in table._cache:
        logn, xi, w = table.prime_powers
        k = int(np.searchsorted(xi, kernel.delta, side="right"))
        log_pi = kernel.ft(sign, 0.0) * math.log(math.pi) / (2.0 * math.pi)
        wsum = float(np.sum(w[:k])) / math.pi
        table._cache[key] = (logn[:k], w[:k] * kernel.ft(sign, xi[:k]),
                             GwConstants(log_pi, kernel.ft_error * wsum))
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
    transform Lambda(n) n^{-1/2} ft(log n / 2pi) and the GwConstants
    that its reports share, so a later call computes only the cosines:
    8 B per prime power n <= e^{2 pi delta} (12 KB at delta = 1.5, 36
    MiB at delta = 2.9), freed with the table.  The zero table keeps,
    per delta, the phases of its ordinates (_zero_phases).  The digamma
    integral and the archimedean term are closed forms in the kernel's
    Poisson mixture (_gamma_integral), the same cost at any t, and keep
    nothing.
    """
    _check_sign(sign)
    if abs(delta - kernel.delta) > 1e-12:
        raise DomainError(
            f"delta {delta} does not match kernel delta {kernel.delta}")
    t0 = float(zeros.ordinates[-1])
    if abs(t) >= t0:  # the zero side is even in t
        raise ZeroTableError(
            f"t = {t} not covered by the zero table (last ordinate {t0})")
    if mangoldt is None:
        mangoldt = sieve_mangoldt(
            int(math.ceil(math.exp(2.0 * math.pi * kernel.delta))))

    ztail = _zero_tail_bound(kernel.tail_envelope(sign), t, t0)
    zero_side = _zero_side(kernel, sign, t, zeros)
    gamma_int, arch = _gamma_integral(kernel, sign, t)
    psum = prime_sum(kernel, sign, t, mangoldt)
    return GwReport(t, kernel, sign, _prime_side(kernel, sign, mangoldt)[2],
                    _TERMS.pack(zero_side, ztail, arch, gamma_int, psum))


# ---------------------------------------------------------------------------
# zero-sum representations of S_n
# ---------------------------------------------------------------------------

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
    zero-sum truncation bound, with a factor 2 for the counting
    function's wiggle.  Its decay constants are proved: h_beta(x) <=
    beta/x^2, and with nu0 = int rho u, the first moment of the target's
    Poisson mixture (odd_extremal), f <= nu0/x^2 and |fe| <= 2 nu0/|x|^3.
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
    nu0 = float(pair._mixture_terms()[1][0, 0])
    sgn_m = (-1.0) ** m
    if odd_index == 0:
        f = pair.f_even_vec
        coeff = sgn_m / (math.pi * math.factorial(2 * m))
        zsum = float(np.sum(f(t - gam) + f(t + gam)))
        dens3 = _density_tail_p3(t, t0) + _density_tail_p3(-t, t0)
        tail = 2.0 * abs(coeff) * 2.0 * nu0 / (2.0 * math.pi) * dens3
        return SnValue(n=n, alpha=alpha, t=t, value=coeff * zsum,
                       method="zero_sum", est_error=tail)
    f = pair.f_odd_vec
    lead = (sgn_m / (2.0 * math.pi * math.factorial(2 * m + 2))
            * (1.5 - alpha) ** (2 * m + 2) * math.log(t))
    coeff = -sgn_m / (math.pi * math.factorial(2 * m))
    zsum = float(np.sum(f(t - gam) + f(t + gam)))
    tail = 2.0 * abs(coeff) * nu0 / (2.0 * math.pi) * dens2
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
