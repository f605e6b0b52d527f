"""Numerical substrate: special functions, sieves, quadrature, series summation.

Everything downstream (kernel construction, explicit-formula checks, bound
envelopes) is built on the handful of primitives in this module:

* ``polylog_H``      -- the shifted polylogarithm H_n(x) = sum_k x^k/(k+1)^n
* ``hurwitz_zeta``   -- zeta(s, q) at integer s >= 2, q > 0, elementwise in q
* ``digamma``        -- psi(z) at complex z, elementwise
* ``frac_product``   -- a x less its nearest integer, from the exact product
* ``trig_sq``        -- sin^2 or cos^2 of pi w, reduced exactly to a node
* ``sieve_mangoldt`` -- the prime powers n <= X with their exact von Mangoldt
  values, by the sieve of Eratosthenes
* ``quad_adaptive``  -- adaptive Gauss-Kronrod quadrature on finite ranges
* ``gauss_panels``   -- composite Gauss-Legendre nodes and weights
* ``sum_tail_bounded`` -- series summation with caller-supplied tail majorant

All operations are pure.  A MangoldtTable's arrays are not written after
the sieve; its ``prime_powers`` and ``_cache`` are filled on first use and
without a lock, so threads sharing a table may compute an entry twice, with
the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np


class DomainError(ValueError):
    """Input outside an operation's mathematical domain."""


Sign = str  # "+" (majorant) or "-" (minorant)


def _check_sign(sign: Sign) -> None:
    if sign not in ("+", "-"):
        raise DomainError(f"sign must be '+' or '-', got {sign!r}")


class ResourceError(RuntimeError):
    """Requested table or computation exceeds the configured resource limit."""


class AccuracyError(RuntimeError):
    """Requested tolerance was not reached; carries the best estimate."""

    def __init__(self, message: str, best: float):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class SeriesResult:
    """Partial sum of an infinite series plus a bound on the dropped tail."""

    value: float
    tail_bound: float
    terms_used: int

    def __post_init__(self):
        if self.tail_bound < 0:
            raise ValueError("tail_bound must be >= 0")
        if self.terms_used < 1:
            raise ValueError("terms_used must be >= 1")


@dataclass(frozen=True, eq=False)
class MangoldtTable:
    """The prime powers 2 <= n <= limit, ascending (int64), and their
    von Mangoldt values Lambda(n) = log p (float64).

    ``prime_powers`` is computed on first use.  ``_cache`` holds what
    explicit_formula derives per kernel, so it lives exactly as long as
    the table: per (kernel, sign) the prime side (_prime_side), 8 bytes
    per prime power n <= e^{2 pi delta} (12 KB at delta = 1.5, 36 MiB at
    delta = 2.9), and the GwConstants that every report of that kernel
    and sign shares (two floats), and nothing else.  Tables compare and hash by identity.
    """

    limit: int
    n: np.ndarray
    lam: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    @cached_property
    def prime_powers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """log n, log n/2pi, Lambda(n)/sqrt(n) for prime powers n ascending."""
        logn = np.log(self.n)
        return logn, logn / (2.0 * math.pi), self.lam / np.sqrt(self.n)


# ---------------------------------------------------------------------------
# polylogarithm H_n(x) = sum_{k>=0} x^k / (k+1)^n
# ---------------------------------------------------------------------------

def _dilog(x: float) -> float:
    """Real dilogarithm Li_2(x) for -1 <= x <= 1, abs error ~1e-16.

    Series on |x| <= 1/2, reflection formulas otherwise so the series
    argument always stays small.
    """
    if x == 1.0:
        return math.pi ** 2 / 6.0
    if x == -1.0:
        return -math.pi ** 2 / 12.0
    if x > 0.5:
        # Li2(x) + Li2(1-x) = pi^2/6 - log(x)log(1-x)
        return math.pi ** 2 / 6.0 - math.log(x) * math.log1p(-x) - _dilog(1.0 - x)
    if x < -0.5:
        # Li2(x) = -Li2(x/(x-1)) - (1/2) log^2(1-x)
        return -_dilog(x / (x - 1.0)) - 0.5 * math.log1p(-x) ** 2
    # direct series sum x^k/k^2; the argument is always |x| <= 1/2 here,
    # so ~60 terms reach 1e-18
    total = 0.0
    p = x
    k = 1
    while k < 200:
        t = p / (k * k)
        total += t
        if abs(t) < 1e-18:
            break
        p *= x
        k += 1
    return total


def polylog_H(n: int, x: float) -> float:
    """H_n(x) = sum_{k>=0} x^k/(k+1)^n for |x| <= 1 (x < 1 required if n <= 1).

    Absolute error <= 1e-14.  Closed forms are used for n <= 2 (geometric,
    logarithm, dilogarithm); n >= 3 is summed directly in blocks with an
    integral tail bound.
    """
    if n < 0:
        raise DomainError("polylog order n must be >= 0")
    if abs(x) > 1:
        raise DomainError(f"|x| must be <= 1, got {x}")
    if n <= 1 and x == 1.0:
        raise DomainError(f"H_{n}(1) diverges")
    if x == 0.0:
        return 1.0
    if n == 0:
        return 1.0 / (1.0 - x)
    if n == 1:
        return -math.log1p(-x) / x
    if n == 2:
        return _dilog(x) / x
    # n >= 3: sum_{k>=0} x^k/(k+1)^n = (1/x) sum_{j>=1} x^j/j^n.
    # Tail over j > K is bounded by min(geometric, integral) below.
    # Blocks of 128, 128, 256, ..., 32 768 terms, then of 65 536: np.sum
    # adds pairwise, so the total after 65 536 k terms has the bits of k
    # blocks of 65 536, where the tail test runs.  The sum stops sooner
    # only where every later term is exactly 0 (x^j < 2^-1060, so x^j/j^n
    # underflows): after 1 024 terms at |x| = 0.45, with the same bits.
    total = 0.0
    block = 128
    j0 = 1
    ax = abs(x)
    while True:
        j = np.arange(j0, j0 + block, dtype=np.float64)
        powers = ax ** j
        if x < 0:
            powers = powers * np.where(np.arange(j0, j0 + block) % 2 == 0,
                                       1.0, -1.0)
        total += float(np.sum(powers / j ** n))
        j0 += block
        block = min(j0 - 1, 65536)
        if ax ** j0 < 2.0 ** -1060:
            break
        if (j0 - 1) % 65536:
            continue
        tail_int = 1.0 / ((n - 1) * (j0 - 1) ** (n - 1))
        if ax < 1.0:
            tail_geo = ax ** j0 / ((1.0 - ax) * j0 ** n)
            tail = min(tail_int, tail_geo)
        else:
            tail = tail_int
        if tail <= 1e-14:
            break
        if j0 > 2 * 10 ** 8:
            raise AccuracyError("polylog_H tail did not reach 1e-14", total / x)
    return total / x


# ---------------------------------------------------------------------------
# Hurwitz zeta(s, q)
# ---------------------------------------------------------------------------

# Bernoulli numbers B_2 .. B_16: the Euler-Maclaurin tails of hurwitz_zeta
# and zeta_core._zeta_em, and Stirling's series of digamma
_BERN = [1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30,
         5.0 / 66, -691.0 / 2730, 7.0 / 6, -3617.0 / 510]

# B_2j/(2j), j = 1..8: Stirling's series of digamma in powers of 1/w^2
_STIRLING = np.array(_BERN, dtype=np.complex128) / np.arange(2, 17, 2)

# terms of hurwitz_zeta summed directly before the Euler-Maclaurin tail
_HZ_DIRECT = 12


def hurwitz_zeta(s: int, q: float | np.ndarray) -> float | np.ndarray:
    """zeta(s, q) = sum_{k>=0} (q+k)^-s for integer s >= 2 and finite q >
    0, elementwise (a float for a scalar q); zeta(s) = hurwitz_zeta(s, 1).

    Euler-Maclaurin: the first N = _HZ_DIRECT terms are summed directly,
    and with x = q + N the rest is

        x^(1-s)/(s-1) + x^-s/2 + sum_{j=1..M} B_2j/(2j)! (s)_(2j-1) x^(1-s-2j)

    over the M = 8 Bernoulli numbers of _BERN, where (s)_r is the rising
    factorial.  Its remainder is at most 4 (s)_2M x^(1-s-2M) /
    ((2 pi)^2M (s+2M-1)) (Johansson, Numer. Algorithms 69 (2015),
    Theorem 1), which only shrinks as q grows: at most 6.4e-18 (s = 2, q
    -> 0), and times q^s >= 1/zeta(s, q) below 4.3e-18 for s <= 17.
    """
    if int(s) != s or s < 2:
        raise DomainError(f"s must be an integer >= 2, got {s}")
    s = int(s)
    q = np.asarray(q, dtype=np.float64)
    if not np.all((q > 0.0) & (q < np.inf)):
        raise DomainError("q must be finite and > 0")
    x = q + _HZ_DIRECT
    xs = x ** -s
    total = 0.0
    for j in range(len(_BERN), 0, -1):  # every sum runs smallest first
        rising = math.prod(range(s, s + 2 * j - 1))
        total = total + (_BERN[j - 1] / math.factorial(2 * j) * rising
                         * xs * x ** (1 - 2 * j))
    total = total + 0.5 * xs + x * xs / (s - 1)
    for k in range(_HZ_DIRECT - 1, -1, -1):
        total = total + (q + k) ** -s
    return float(total) if total.ndim == 0 else total


# ---------------------------------------------------------------------------
# digamma psi(z) at complex z
# ---------------------------------------------------------------------------

def digamma(z: complex | np.ndarray) -> np.ndarray:
    """psi(z) = Gamma'(z)/Gamma(z) at complex z off the poles 0, -1, ...,
    elementwise: psi(z) = psi(w) - sum_{k<n} 1/(z + k), w = z + n, with the
    fewest n >= 0 giving Re w >= sqrt(max(100 - (Im z)^2, 0)) - 1/2, so
    |w| >= 9.5 and Re w >= -1/2, and Stirling's series on _BERN, psi(w) =
    log w - 1/(2w) - sum_{j<=8} B_2j/(2j w^2j) + R.  |R| <= sec^19(ph w/2)
    |B_18|/(18 |w|^18) (DLMF 5.11(ii)): 3.6e-15 at most, at w = -1/2 +
    10i, and 7.7e-18 on the real axis, against |psi(w)| >= 2.2.  The
    reciprocals are subtracted with two-sum compensation: psi near 1 is a
    difference of terms three times its size."""
    z = np.asarray(z, dtype=np.complex128)
    x, y = z.real, z.imag
    n = top = 0  # what the rule gives where every |y| >= 10 and x >= -1/2
    if np.abs(y).min(initial=10.0) < 10.0 or x.min(initial=0.0) < -0.5:
        n = np.maximum(np.ceil(np.sqrt(np.maximum(100.0 - y * y, 0.0))
                               - 0.5 - x), 0.0)
        top = int(n.max())
    w = z + n if top else z
    # r, r^2, ..., r^8 for r = 1/w^2, against the series' coefficients
    r = np.repeat((1.0 / (w * w))[None], len(_STIRLING), axis=0)
    s = _STIRLING @ np.multiply.accumulate(r).reshape(len(_STIRLING), -1)
    hi, lo = np.log(w), -0.5 / w - s.reshape(z.shape)
    for k in range(top - 1, -1, -1):
        term = np.where(k < n, -1.0 / (z + k), 0.0)
        total = hi + term
        back = total - hi
        lo += (hi - (total - back)) + (term - back)
        hi = total
    return hi + lo


# ---------------------------------------------------------------------------
# phases reduced to the nearest integer
# ---------------------------------------------------------------------------

_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into halves


def _split(v):
    c = _SPLIT * v
    hi = c - (c - v)
    return hi, v - hi


def frac_product(a: float, x):
    """a x less its nearest integer, in [-1/2, 1/2] within one rounding,
    elementwise in x, for |a x| < 1e300: Dekker's two-product writes a x
    = p + e exactly (Veltkamp's split), and (p - round(p)) + e, which e
    carries past 1/2 once |p| >= 2^52, is reduced once more, exactly;
    fl(a x) alone would lose up to ulp(a x)/2, 2.3e-13 at a x = 2^41."""
    a_hi, a_lo = _split(a)
    x_hi, x_lo = _split(x)
    p = a * x
    e = ((a_hi * x_hi - p) + a_hi * x_lo + a_lo * x_hi) + a_lo * x_lo
    r = (p - np.rint(p)) + e
    return r - np.rint(r)


def trig_sq(sign: Sign, w: np.ndarray) -> np.ndarray:
    """sin^2(pi w) ('+') or cos^2(pi w) ('-'), as sin^2(pi r) with r = w
    less its nearest integer ('+') or half-integer ('-'): the subtraction
    is exact, so the value is 0 to the bit at those nodes."""
    r = w - (np.rint(w) if sign == "+" else np.floor(w) + 0.5)
    r *= math.pi
    np.sin(r, out=r)
    return np.square(r, out=r)


# ---------------------------------------------------------------------------
# von Mangoldt sieve
# ---------------------------------------------------------------------------

# largest sieve limit: a bool per integer while sieving, then 16 bytes
# per prime power (40 with prime_powers); 0.28 GB peak at 10^8
_SIEVE_LIMIT = 10 ** 8


def sieve_mangoldt(X: int) -> MangoldtTable:
    """Exact Lambda(n) for the prime powers n <= X: Eratosthenes, then
    the powers p^k (k >= 2) marked in the same array."""
    if X < 2:
        raise DomainError("sieve limit must be >= 2")
    if X > _SIEVE_LIMIT:
        raise ResourceError(
            f"sieve limit {X} exceeds memory limit {_SIEVE_LIMIT}")
    is_pp = np.ones(X + 1, dtype=bool)  # prime, then prime power
    is_pp[:2] = False
    for p in range(2, int(math.isqrt(X)) + 1):
        if is_pp[p]:
            is_pp[p * p::p] = False
    powers = {}  # p^k -> p for k >= 2
    for p in np.flatnonzero(is_pp[:math.isqrt(X) + 1]).tolist():
        q = p * p
        while q <= X:
            powers[q] = p
            q *= p
    is_pp[list(powers)] = True
    n = np.flatnonzero(is_pp).astype(np.int64, copy=False)
    del is_pp
    lam = np.log(n.astype(np.float64))
    lam[np.searchsorted(n, list(powers))] = [math.log(p)
                                             for p in powers.values()]
    return MangoldtTable(limit=X, n=n, lam=lam)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

# QUADPACK's qk15 rule on [-1, 1]: the 15 Kronrod nodes in ascending order
# (every second one, 0 included, is a 7-point Gauss node) with the Kronrod
# weights, and the Gauss weights placed at the Gauss nodes
_XK15 = (0.991455371120812639206854697526329,
         0.949107912342758524526189684047851,
         0.864864423359769072789712788640926,
         0.741531185599394439863864773280788,
         0.586087235467691130294144845693013,
         0.405845151377397166906606412076961,
         0.207784955007898467600689403773245)
_WK15 = (0.022935322010529224963732008058970,
         0.063092092629978553290700663189204,
         0.104790010322250183839876322541518,
         0.140653259715525918745189590510238,
         0.169004726639267902826583426598550,
         0.190350578064785409913256402421014,
         0.204432940075298892414161999234649,
         0.209482141084727828012999174891714)
_WG7 = (0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327)
_GK_NODES = np.array([-x for x in _XK15] + [0.0] + list(_XK15[::-1]))
_GK_WK = np.array(_WK15 + _WK15[-2::-1])
_GK_WG = np.zeros(15)
_GK_WG[1::2] = _WG7 + _WG7[-2::-1]
# subdivision budget of quad_adaptive
_QUAD_INTERVALS = 400
_EPS = np.finfo(np.float64).eps


def _gk15(f: Callable[[float], float], a: float, b: float):
    """(K15 value, error estimate) of the integral of f over [a, b], with
    QUADPACK's qk15 estimate: |K15 - G7| scaled by (200 |K15 - G7| /
    resasc)^1.5, and never below 50 eps times the integral of |f|."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fv = np.array([f(x) for x in (c + h * _GK_NODES).tolist()],
                  dtype=np.float64)
    resk = _GK_WK @ fv
    diff = abs((resk - _GK_WG @ fv) * h)
    resabs = abs(h) * (_GK_WK @ np.abs(fv))
    resasc = abs(h) * (_GK_WK @ np.abs(fv - 0.5 * resk))
    err = diff
    if resasc != 0.0 and diff != 0.0:
        err = resasc * min(1.0, (200.0 * diff / resasc) ** 1.5)
    return float(resk * h), float(max(err, 50.0 * _EPS * resabs))


def quad_adaptive(f: Callable[[float], float], a: float, b: float,
                  tol: float = 1e-10) -> float:
    """Integral of f over the finite interval [a, b], returned only when
    its estimated absolute error is <= tol.

    Global adaptive bisection with the Gauss-Kronrod G7-K15 pair, as in
    QUADPACK's QAG: the interval with the largest error estimate is
    halved until the estimates sum to <= tol.  f is called on one float
    at a time.  Raises DomainError for a non-finite endpoint, and
    AccuracyError, carrying the best estimate, when the estimates still
    sum to more than tol at _QUAD_INTERVALS intervals, when an interval
    is too narrow to halve, or when f returns a non-finite value.
    """
    if not tol > 0:
        raise DomainError("tol must be > 0")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"endpoints must be finite, got [{a}, {b}]")
    ends = [(a, b)]
    val, err = _gk15(f, a, b)
    vals, errs = [val], [err]
    while True:
        total, total_err = math.fsum(vals), math.fsum(errs)
        if not math.isfinite(total + total_err):
            raise AccuracyError("integrand is not finite on the range", total)
        if total_err <= tol:
            return total
        if len(ends) >= _QUAD_INTERVALS:
            raise AccuracyError(
                f"quadrature error estimate {total_err:.3e} exceeds tol "
                f"{tol:.3e} after {_QUAD_INTERVALS} intervals", total)
        i = errs.index(max(errs))
        lo, hi = ends[i]
        mid = 0.5 * (lo + hi)
        if not min(lo, hi) < mid < max(lo, hi):
            raise AccuracyError(
                f"quadrature error estimate {total_err:.3e} exceeds tol "
                f"{tol:.3e} on an interval too narrow to halve", total)
        ends[i] = (lo, mid)
        vals[i], errs[i] = _gk15(f, lo, mid)
        ends.append((mid, hi))
        val, err = _gk15(f, mid, hi)
        vals.append(val)
        errs.append(err)


def gauss_panels(edges, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on each panel between
    consecutive edges, ascending or descending, panel by panel.  The
    rule on [-1, 1] is leggauss(n), one eigenvalue solve of size n per
    call."""
    gx, gw = np.polynomial.legendre.leggauss(n)
    e = np.asarray(edges, dtype=np.float64)[:, None]
    half = 0.5 * np.abs(np.diff(e, axis=0))
    return (0.5 * (e[1:] + e[:-1]) + half * gx).ravel(), (half * gw).ravel()


# ---------------------------------------------------------------------------
# tail-bounded series summation
# ---------------------------------------------------------------------------

_MAX_TERMS = 200_000


def sum_tail_bounded(term: Callable[[int], float],
                     tail_bound: Callable[[int], float],
                     tol: float) -> SeriesResult:
    """Sum term(k) for k >= 0 until tail_bound(K) <= tol.

    ``tail_bound(K)`` must majorize |sum_{k>=K} term(k)|; that is the
    caller's contract.  ``tail_bound`` of the result is the stopping
    bound.  At least one term is always consumed; after _MAX_TERMS terms
    the sum gives up with AccuracyError.
    """
    if tol <= 0:
        raise DomainError("tol must be > 0")
    total = float(term(0))
    k = 1
    while not (tb := float(tail_bound(k))) <= tol:
        if k >= _MAX_TERMS:
            raise AccuracyError(
                f"series tail bound {tb:.3e} still above "
                f"tol {tol:.3e} after {_MAX_TERMS} terms", total)
        total += float(term(k))
        k += 1
    return SeriesResult(value=total, tail_bound=tb, terms_used=k)
