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
PoissonMixture.poisson_mixture(sign).  So the two terms that need the
kernel off the real line are closed forms summed over the members
(_gamma_integral).
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

As u -> 1/2 and t -> 0, psi(1/4 - u/2 + it/2) = psi(w + 1) - 1/w and the
k = 0 term, h_u(t - i/2) = -u/(2w (u + 1/2 + it)), near the pole w = 0;
with s = -2w, the -1/w in e^{-2 pi delta u} psi/2 and the k = 0 term join
to -e^{-pi delta} e^{-2 pi i delta t} [1/(u + 1/2 + it) - expm1(-2 pi
delta s)/s], which does not cancel.  The arch term sums the entire W u F+
F- per member (poisson_extremal.mixture_at), F+- = sin(pi delta (z +-
iu))/(z +- iu), W = -2b = w/sinh^2 or w/cosh^2 of pi u delta: on the
real axis W h_u (sinh^2(pi u delta) + sin^2(pi delta x)), the member's
g, with no pole to cancel at z = +-iu.  Each F is within (6 + 4|p|) eps,
p its reduced argument (the rounding of p magnified by |p cot p|), so the
arch term is within 2 (n + 12 + 8 max |p|) eps sum |W u F+ F-| over the n
members, at the phase delta t reduced exactly (numkit.frac_product).

The zero side sum_gamma K(t - gamma) + K(t + gamma) reads the kernel
through PoissonMixture.real_parts: K = f + A sin^2(pi delta x) ('+') or
f - A cos^2(pi delta x) ('-'), so with A-+ = A(t -+ gamma), c = cos(2 pi
delta gamma), s = sin(2 pi delta gamma) and theta = 2 pi delta t,

  sum A trig = (1/2) [sum (A- + A+) -+ (cos theta sum c (A- + A+)
               + sin theta sum s (A- - A+))]

(trig = sin^2 or cos^2), two dot products and no trigonometric call per
zero (_zero_side).  The table keeps, per delta, r = delta gamma less its
nearest integer (numkit.frac_product) with c and s from it (_zero_phases),
and each call reduces delta |t| the same way.  The zeros within _NEAR = 4
of |t| (the sum is even in t) stay out of c and s: they take A trig from
frac(delta |t|) - r (numkit.trig_sq), since A may grow like 1/|t - gamma|
there (the odd pair at alpha = 1/2) and (1 -+ cos)/2 would lose its digits.
"""

from __future__ import annotations

import cmath
import math
import struct
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from .numkit import (DomainError, MangoldtTable, Sign, _check_sign,
                     digamma, frac_product, quad_adaptive, sieve_mangoldt,
                     sum_tail_bounded, trig_sq)
from .odd_extremal import OddExtremalPair
from .poisson_extremal import (PoissonExtremalPair, PoissonMixture,
                               arch_products, mixture_at)
from .zeta_core import SnValue, ZeroTable, ZeroTableError


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
    kernel: PoissonMixture
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

# -i y_k at the poles y_k = 2k + 1/2, k = 1, 2, of the residue series (k =
# 0 is joined to psi, k >= 3 adds < 5e-20 sum |b|), and psi's arguments
# 1/4 + u/2 + it/2 and w + 1 = 5/4 - u/2 + it/2
_POLES = -1j * np.array([[2.5], [4.5]])
_HALVES, _QUARTERS = np.array([[0.5], [-0.5]]), np.array([[0.25], [1.25]])
# the key of the sign-free terms: the bits of t
_T_BITS = struct.Struct("d")


def _sign_free_terms(kernel: PoissonMixture, u: np.ndarray,
                     t: float) -> tuple:
    """(Re psi+, D, F+ F-) over the members u at t, the part of
    _gamma_integral that no sign's weights (a, b) enter: Re psi+ = Re
    psi(1/4 + u/2 + it/2), D = e (Re psi+ + Re psi(w + 1))/2 + Re J with
    e = e^{-2 pi delta u} and J the residues, and the arch products at t
    + i/2 (poisson_extremal.arch_products).

    The callers evaluate both signs at one t, so the terms are kept in
    ``kernel._cache["sign_free"]``, one entry deep and keyed on the bits
    of t: two floats and one complex per member, 32 B (31 KB for the 976
    members of the odd pair at alpha = 1/2).  A thread reads the entry
    once, so a concurrent replacement cannot mix two values of t."""
    key = _T_BITS.pack(t)
    hit = kernel._cache.get("sign_free")
    if hit is None or hit[0] != key:
        d = kernel.delta
        r = float(frac_product(d, t))  # e^{-2 pi i delta t} = e^{-2 pi i r}
        pp, pw = digamma(_HALVES * u + (_QUARTERS + 0.5j * t)).real
        e = np.exp(-2.0 * math.pi * d * u)
        # e^{-2 pi delta y_k} = e^{-pi delta} q^k
        q = math.exp(-4.0 * math.pi * d)
        # J per member: the residues, psi(w)'s -1/w joined to the first one
        h = u / (u * u + (t + _POLES) ** 2)
        v = u - 0.5
        J = np.expm1(v * (-2.0 * math.pi * d) + 2j * math.pi * r)
        J /= v - 1j * t
        J -= 1.0 / (u + (0.5 + 1j * t)) + 2.0 * q * (h[0] + q * h[1])
        J *= math.exp(-math.pi * d) * cmath.exp(-2j * math.pi * r)
        # pp is a view of both complex psi rows: keep a copy of it alone
        hit = kernel._cache["sign_free"] = (
            key, pp.copy(), 0.5 * e * (pp + pw) + J.real,
            arch_products(u, d, complex(t, 0.5)))
    return hit[1:]


def _gamma_integral(kernel: PoissonMixture, sign: Sign,
                    t: float) -> tuple[float, float]:
    """(1/2pi) int K(t-x) Re psi(1/4+ix/2) dx and 2 Re K(t+i/2) for K =
    real(sign, .), the module docstring's closed forms summed over the
    members, each member's digamma part first: a psi+ and b e (psi+ +
    psi-)/2 nearly cancel where b is large (the odd pair as u -> 0).
    Only the weights (a, b) depend on the sign (_sign_free_terms)."""
    u, a, b = kernel.poisson_mixture(sign)
    pp, D, products = _sign_free_terms(kernel, u, t)
    gamma = 0.5 * float(np.sum(a * pp + b * D))
    arch = mixture_at(u, b, kernel.delta, complex(t, 0.5), products)
    return gamma, 2.0 * arch.real


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

    The proved |kernel(x)| <= env_k/x^2 (PoissonMixture.tail_envelope)
    against the zero-counting density log(u/2pi)/(2pi) du on u > t0,
    summed over both shifts, x = t - u and x = t + u: that is the whole
    dropped part of the zero side.  The remaining factor 2 is a margin,
    not proved, for the counting function's oscillating part S(u) =
    O(log u), which the smooth density leaves out.
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
    """r = delta gamma less its nearest integer (frac_product) over the
    ordinates, and cos and sin of 2 pi r; kept in ``zeros._cache`` per
    delta, 24 B per ordinate."""
    key = ("phases", delta)
    hit = zeros._cache.get(key)
    if hit is None:
        r = frac_product(delta, np.asarray(zeros.ordinates))
        w = 2.0 * math.pi * r
        hit = zeros._cache[key] = (r, np.cos(w), np.sin(w))
    return hit


def _zero_side(kernel: PoissonMixture, sign: Sign, t: float,
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
    r, c, sn = _zero_phases(zeros, d)
    rs = float(frac_product(d, s))
    near = float(am[lo:hi] @ trig_sq(sign, rs - r[lo:hi]))
    both, diff = am + ap, am - ap
    both[lo:hi] = ap[lo:hi]
    np.negative(ap[lo:hi], out=diff[lo:hi])
    theta = 2.0 * math.pi * rs
    osc = (math.cos(theta) * float(c @ both)
           + math.sin(theta) * float(sn @ diff))
    total = float(both.sum())
    if sign == "+":
        return float(f.sum()) + (near + 0.5 * (total - osc))
    return float(f.sum()) - (near + 0.5 * (total + osc))


# ---------------------------------------------------------------------------
# prime-power sum
# ---------------------------------------------------------------------------

def prime_sum(kernel: PoissonMixture, sign: Sign, t: float,
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


def _prime_side(kernel: PoissonMixture, sign: Sign, table: MangoldtTable):
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

def gw_evaluate(kernel: PoissonMixture, sign: Sign, t: float, delta: float,
                zeros: ZeroTable,
                mangoldt: Optional[MangoldtTable] = None) -> GwReport:
    """Evaluate both sides of the explicit formula for the shifted kernel
    x -> kernel(t - x) and report the truncation residual.

    The kernel is a PoissonMixture, or any hashable object, equal ones
    with equal transforms, with the members read here: ``delta``,
    ``real_parts``, ``ft``, ``ft_error``, ``tail_envelope``,
    ``poisson_mixture`` and a ``_cache`` dict.

    ``delta`` must match kernel.delta, which every stage reads; a
    prebuilt Mangoldt table may be supplied to amortize sieving across
    calls (prime_sum rejects one shorter than e^{2 pi delta}).  Such a
    table also keeps what the reports of a (kernel, sign) share
    (_prime_side), so a later call computes only the cosines.  The zero
    table keeps, per delta, the reduced phases of its ordinates, 24 B
    each (_zero_phases).  The digamma integral and the archimedean term
    are closed forms in the kernel's Poisson mixture (_gamma_integral),
    the same cost at any t.  Their sign-free part, two floats and one
    complex per member (31 KB for the 976 members of the odd pair at
    alpha = 1/2), is kept in the kernel's ``_cache`` for the most recent
    t alone, so the second sign at one t computes only the two sums over
    its weights (_sign_free_terms).
    """
    _check_sign(sign)
    if abs(delta - kernel.delta) > 1e-12:
        raise DomainError(
            f"delta {delta} does not match kernel delta {kernel.delta}")
    t0 = float(zeros.ordinates[-1])
    if not abs(t) < t0:  # the zero side is even in t
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
    Poisson mixture (the minorant's tail envelope, poisson_extremal), f
    <= nu0/x^2 and |fe| <= 2 nu0/|x|^3.
    """
    if n < -1:
        raise DomainError("n must be >= -1")
    if not 0.5 <= alpha < 1.0:
        raise DomainError(f"alpha must lie in [1/2, 1), got {alpha}")
    if not t >= 2.0:
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
        h = PoissonExtremalPair(beta, 1.0).target
        value = (-math.log(t / (2.0 * math.pi)) / (2.0 * math.pi)
                 + float(np.sum(h(t - gam) + h(t + gam))) / math.pi)
        # |h_beta(x)| <= beta/x^2; factor 2 for counting-function wiggle
        tail = 2.0 * beta / (2.0 * math.pi ** 2) * dens2
        return SnValue(n=n, alpha=alpha, t=t, value=value,
                       method="zero_sum", est_error=tail)

    m, odd_index = divmod(n, 2)
    pair = OddExtremalPair(m=m, alpha=alpha, delta=1.0)
    nu0 = pair.tail_envelope("-")
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
    """Allowed |zero sum - direct| for a rep_sum value: 5.0 (unquantified
    O(1) offset) for n >= 0; for n = -1 the truncation bound plus the lead
    term's error |-(1/2pi) log(t/2pi) - E/pi| = |log(t/2)/2 - Re 1/(s - 1)
    - Re psi(s/2 + 1)/2|/pi, s = alpha + it, with E = Re zeta'/zeta(s) -
    sum_rho Re 1/(s - rho) by Hadamard's product."""
    if rep.n != -1:
        return 5.0
    s = complex(rep.alpha, rep.t)
    e = (0.5 * math.log(0.5 * rep.t) - (1.0 / (s - 1.0)).real
         - 0.5 * float(digamma(0.5 * s + 1.0).real))
    return rep.est_error + abs(e) / math.pi


# ---------------------------------------------------------------------------
# asymptotic oracles (integrals and sieved sums vs. their main terms)
# ---------------------------------------------------------------------------

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
_APPENDIX_BANDS = {("A1", 0): 20.0, ("A1", 1): 2200.0,
                   ("A2", 0): 20.0, ("A2", 1): 2200.0,
                   ("A3", 0): 10.0, ("A3", 1): 10.0,
                   ("B1", 0): 25.0, ("B1", 1): 4000.0,
                   ("B2", 0): 10.0, ("B2", 1): 10.0}
APPENDIX_SLACK = 10.0  # the band of every other (id, m)


# the parameters each item reads, in the order verify appendix names
# the missing ones; a region constant c is optional
APPENDIX_PARAMS = {"A1": ("m", "alpha", "x"), "A2": ("m", "k", "alpha", "x"),
                   "A3": ("m", "k", "alpha", "x"), "A4": ("alpha", "x"),
                   "A5": ("m", "alpha", "x"), "B1": ("m", "alpha", "x"),
                   "B2": ("m", "alpha", "x"), "B3": ("m", "alpha", "x"),
                   "B4": ("beta", "x")}
# the items whose region (1-alpha)^2 log x >= c is checked when c is
# given; those that need alpha > 1/2 (A4 divides by alpha - 1/2, and the
# tail bound of _q_series needs q = x^(1/2 - alpha) < 1); the least k
_CHECKS_C = frozenset(("A1", "A2", "B1", "B2", "B3"))
_ALPHA_ABOVE_HALF = frozenset(("A4", "A5", "B3"))
_LEAST_K = {"A2": 1, "A3": 0}


def appendix_band(id: str, m: Optional[int] = None,
                  slack: Optional[float] = None) -> float:
    """The band of item ``id`` at ``m`` (None reads as 0), or ``slack``
    (APPENDIX_SLACK when None) where none is calibrated; a slack for a
    calibrated (id, m) raises ValueError naming its band."""
    band = _APPENDIX_BANDS.get((id, m or 0))
    if band is not None and slack is not None:
        raise ValueError(f"{id} at m={m or 0} has the calibrated band "
                         f"{band:g}, which a slack does not replace")
    return band or (APPENDIX_SLACK if slack is None else slack)


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
    below 1e-15 (A5) or 1e-13 (B3) times that scale (_q_series).

    The inputs are checked in one place, from the declarations next to
    APPENDIX_PARAMS: the parameters the item reads, k against _LEAST_K,
    alpha in [1/2, 1) (in (1/2, 1) for _ALPHA_ABOVE_HALF) or B4's beta in
    [0, 1/2), x finite and >= 3, then c for _CHECKS_C.  The check's
    ``params`` keep, in the order given, the parameters the item reads
    and c; others are dropped.
    """
    pid = id.upper()
    names = APPENDIX_PARAMS.get(pid)
    if names is None:
        raise DomainError(f"unknown asymptotic id {id!r}")
    for name in names:
        if name not in params:
            raise DomainError(f"missing parameter {name!r}")
    params = {k: v for k, v in params.items() if k in names or k == "c"}
    alpha, beta, x, k, c = map(params.get, ("alpha", "beta", "x", "k", "c"))
    if pid in _LEAST_K and k < _LEAST_K[pid]:
        raise DomainError(f"k must be >= {_LEAST_K[pid]}")
    if pid == "B4":
        if not 0.0 <= beta < 0.5:
            raise DomainError(f"beta must lie in [0, 1/2), got {beta}")
    elif not 0.5 <= alpha < 1.0 or alpha == 0.5 and pid in _ALPHA_ABOVE_HALF:
        raise DomainError(f"alpha = {alpha} outside range")
    if not 3.0 <= x < math.inf:
        raise DomainError(f"x must be finite and >= 3, got {x}")
    lx = math.log(x)
    if pid in _CHECKS_C and c is not None and not c <= (1.0 - alpha) ** 2 * lx:
        raise DomainError(f"region violated: (1-alpha)^2 log x = "
                          f"{(1.0 - alpha) ** 2 * lx:.6g} < c = {c}")
    p = 2 * params.get("m", 0) + 2  # A4 and B4 read no m
    if pid == "A1":
        main = _main_term(alpha, x, p)
        direct = quad_adaptive(
            lambda u: u ** (-alpha) * math.log(u) ** (-p), 2.0, x,
            tol=_appendix_tol(main))
        err = _error_scale(alpha, x, p)
    elif pid == "A2":
        main = (x ** (1 - alpha) / ((1 - alpha) * ((k + 1) * lx) ** p)
                - 2.0 ** (1 - alpha)
                / ((1 - alpha) * (k * lx + math.log(2.0)) ** p))
        direct = quad_adaptive(
            lambda u: u ** (-alpha) * (k * lx + math.log(u)) ** (-p),
            2.0, x, tol=_appendix_tol(main))
        err = (x ** (1 - alpha)
               / ((1 - alpha) ** 2 * ((k + 1) * lx) ** (p + 1)))
    elif pid == "A3":
        main = (x ** alpha / (alpha * ((k + 1) * lx) ** p)
                - 2.0 ** alpha
                / (alpha * ((k + 2) * lx - math.log(2.0)) ** p))
        direct = quad_adaptive(
            lambda u: u ** (alpha - 1) * ((k + 2) * lx - math.log(u)) ** (-p),
            2.0, x, tol=_appendix_tol(main))
        err = x ** alpha / (((k + 1) * lx) ** (p + 1))
    elif pid == "A4":
        direct = 1.0 / (x ** (alpha - 0.5) - 1.0)
        main = err = 1.0 / ((alpha - 0.5) * lx)
    elif pid == "A5":
        l2 = math.log(2.0)
        q = x ** (-(alpha - 0.5))
        err = _error_scale(alpha, x, p)

        def left(k):
            return 2.0 ** alpha / (x ** (2 * alpha - 1)
                                   * ((k + 2) * lx - l2) ** p)

        def right(k):
            return 2.0 ** (1 - alpha) / ((k * lx + l2) ** p)

        # both parts are positive and decrease in k
        direct = _q_series(q, lambda k: left(k) - right(k),
                           lambda k: left(k) + right(k), 1e-15 * err)
        main = 0.0
    elif pid == "B1":
        n, lam = _mangoldt_arrays(x)
        direct = float(np.sum(lam / (n ** alpha * np.log(n) ** p)))
        main, err = _main_term(alpha, x, p), _error_scale(alpha, x, p)
    elif pid == "B2":
        n, lam = _mangoldt_arrays(x)
        direct = float(np.sum(
            lam / (n ** (1 - alpha) * (2 * lx - np.log(n)) ** p))
        ) / x ** (2 * alpha - 1)
        main = x ** (1 - alpha) / (alpha * lx ** p)
        err = _error_scale(alpha, x, p)
    elif pid == "B3":
        n, lam = _mangoldt_arrays(x)
        logn = np.log(n)
        w_left = lam / n ** alpha
        w_right = lam * n ** (alpha - 1) / x ** (2 * alpha - 1)
        q = x ** (-(alpha - 0.5))
        err = _error_scale(alpha, x, p)
        # log 2 <= log n <= log x bounds each prime sum by its weights'
        s_left, s_right = float(np.sum(w_left)), float(np.sum(w_right))
        l2 = math.log(2.0)
        direct = _q_series(
            q, lambda k: float(np.sum(w_left / (k * lx + logn) ** p
                                      - w_right / ((k + 2) * lx - logn) ** p)),
            lambda k: (s_left / (k * lx + l2) ** p
                       + s_right / ((k + 1) * lx) ** p), 1e-13 * err)
        main = 0.0
    else:  # B4
        n, lam = _mangoldt_arrays(x)
        direct = float(np.sum(
            lam / np.sqrt(n) * ((x / n) ** beta - (n / x) ** beta)))
        main = ((2.0 * beta * math.sqrt(x)
                 - 2.0 ** (0.5 - beta) * x ** beta * (0.5 + beta) ** 2
                 + 2.0 ** (0.5 + beta) * x ** (-beta) * (0.5 - beta) ** 2)
                / (0.25 - beta * beta))
        err = max(beta * x ** beta * lx ** 4, 1e-30)
    return AsymptoticCheck(id=pid, params=params, direct=direct,
                           main_term=main, error_scale=err)
