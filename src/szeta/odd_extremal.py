"""Extremal bandlimited pair for the odd-index target family.

The target is the even, nonnegative function

    f(x) = (1/2) * integral over sigma in [alpha, 3/2] of
           (sigma - alpha)^{2m} * log((1 + x^2) / ((sigma - 1/2)^2 + x^2))

together with its companion odd function (minus its derivative)

    fe(x) = integral of (sigma - alpha)^{2m} *
            (x/((sigma-1/2)^2 + x^2) - x/(1 + x^2)).

A majorant g+ and minorant g- of exponential type 2*pi*delta interpolate
F(x) = f(x/delta) and its derivative at the integers (majorant) or the
half-integers (minorant), scaled back by g(z) = G(delta*z).  With a0 =
alpha - 1/2, u = sigma - 1/2 and h_u(x) = u/(u^2 + x^2), the target is
the mixture f = int rho(u) h_u du of Poisson kernels with density

    rho(u) = (u - a0)^{2m+1}/(2m+1) on [a0, 1],

so the pair is served as that mixture of Poisson pairs
(poisson_extremal.PoissonMixture): a Gauss rule for the u-integral on
dyadic panels toward u = 0 (_sigma_grid), with rho in its weights.
f_odd_vec and f_even_vec sum the log form above on the same grid.

The interpolation series
------------------------
g_real and the node caches below evaluate the same pair as the
interpolation series of F(x) = f(x/delta): the real-axis reference that
perfbench's odd_grid workload and the tests read.
The series over the 2N+1 lattice nodes nu,

    g(w) = sin^2(pi w)/pi^2 * sum_nu [F(nu)/(w-nu)^2 + F'(nu)/(w-nu)],

is split at the node nu_i nearest to w = nu_i + r, |r| <= 1/2.  The K =
_NEAR_NODES = 4 nodes on each side of nu_i are summed directly, and nu_i
itself through a guarded sinc.  Every farther node nu_{i+j}, |j| > K,
contributes a power series in r/j with |r/j| <= 1/10, so the far field is
a polynomial sum_p c_p[i] r^p with P = _FAR_TERMS = 17 coefficients

    c_p[i] = sum_{|j| > K} (p+1) F_{i+j}/j^{p+2} - F'_{i+j}/j^{p+1};

the dropped powers are below 10^-17 relative.  These are P lattice
correlations, computed with numpy.fft in O(P N log N) and kept only on
the nodes |k| <= N//2: every budget has N >= 2R + 20, so no window of
budget N picks a nearest node outside them.  Those outputs need lattice
offsets up to N + N//2, so transforms of length _fft_len(3N + 2) do not
alias them.  Each point then costs O(K + P).

Caches live in the pair's ``_cache``: the mixture's weights and moments,
and the sign-free digamma and arch terms at the most recent t
(poisson_extremal); one node set per sign, grown outward when a larger
budget N is needed; the far-field coefficients of the most recent N per
sign.  A point's sigma-integrals (f, fe, A+-, ghat) have the same bits
in any batch, and every call reads exactly the slice |nu| <= N of its
own budget N, which depends on the evaluation window alone, so results
do not depend on earlier calls.  A budget is the smallest
2^a 3^b number, from a first candidate set by the window, that passes
the tail test, so it never decreases as the window grows, and windows
of one budget share its far-field coefficients.  A budget whose node
data would exceed _NODE_MEMORY bytes raises ResourceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numkit import (DomainError, ResourceError, Sign, _check_sign,
                     gauss_panels)
from .poisson_extremal import PoissonMixture, mixture_at

# g_real's truncation tolerance: the absolute tail of the interpolation series
_SERIES_TOL = 1e-12
# g_real: nodes summed directly on each side of the nearest one, and the
# number of far-field polynomial coefficients; |r/j| <= 1/10 in the far
# field, so the dropped powers are below 10^-17 relative
_NEAR_NODES = 4
_FAR_TERMS = 17
# budget per lattice node of one sign's node data: 3 node values, 17
# far-field coefficients on half the nodes and the far-field FFT's work
# arrays (length L = 1.52-1.69 per node) peak at 206-214 B per node
# (tracemalloc, N >= 2^15); budgets needing more than _NODE_MEMORY bytes
# at 368 B per node fail early instead of exhausting memory
_BYTES_PER_NODE = 368
_NODE_MEMORY = 1 << 30


@dataclass(frozen=True)
class OddExtremalPair(PoissonMixture):
    """Parameters (m, alpha, delta) of the odd-family extremal pair: the
    rho-mixture of Poisson pairs on the sigma grid (module docstring)."""

    m: int
    alpha: float
    delta: float
    _cache: dict = field(default_factory=dict, repr=False, compare=False)
    formula = {"real": "poisson_mixture", "ft": "poisson_mixture",
               "l1_gap": "closed_sigma_integral"}
    # the sigma-sum transform's stated error budget: ft is within 2e-15
    # of a 30-digit mpmath quadrature of the same integral
    ft_error = 1e-12

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 0:
            raise DomainError(f"m must be an integer >= 0, got {self.m!r}")
        if not 0.5 <= self.alpha < 1.0:
            raise DomainError(f"alpha must lie in [1/2, 1), got {self.alpha}")
        if self.delta < 1.0:
            raise DomainError(f"delta must be >= 1, got {self.delta}")

    # ------------------------------------------------------------------
    # sigma-integral quadrature grid (dyadic panels toward sigma = 1/2)
    # ------------------------------------------------------------------

    @cached_property
    def _sigma_grid(self) -> tuple:
        """Gauss-Legendre nodes/weights for integrals in u = sigma - 1/2.

        The integrands are analytic in u with singularities on the
        imaginary axis (at u = +/- ix), so panels are refined dyadically
        toward u = 0; each panel then sees the singularity at a distance
        comparable to its own length and 16-point Gauss is near exact.
        Weights already include the (sigma - alpha)^{2m} factor.
        """
        a0 = self.alpha - 0.5
        # dyadic breakpoints 1 > 1/2 > 1/4 > ... down to a0 (or 1e-18)
        floor = max(a0, 1e-18)
        bps = [1.0]
        while bps[-1] / 2 > floor:
            bps.append(bps[-1] / 2)
        bps += [floor, 0.0] if a0 < 1e-18 else [floor]
        u, w = gauss_panels(bps, 16)
        return u, w * (u - a0) ** (2 * self.m)

    def _members(self) -> tuple:
        """The sigma grid with weights rho(u) du: the grid's weights
        times (u - a0)/(2m + 1)."""
        u, w = self._sigma_grid
        return u, w * (u - (self.alpha - 0.5)) / (2 * self.m + 1)

    # ------------------------------------------------------------------
    # target functions in log form
    # ------------------------------------------------------------------

    def f_odd_vec(self, x: np.ndarray) -> np.ndarray:
        """Vectorized f(x), the even, nonnegative target; absolute error
        ~1e-15."""
        return -0.5 * self._sigma_sum(_log_quotient, x,
                                      self._sigma_grid[1])[0]

    def f_even_vec(self, x: np.ndarray) -> np.ndarray:
        """Vectorized fe(x), the companion odd function -f'(x)."""
        return self._sigma_sum(_even_integrand, x, self._sigma_grid[1])[0]

    # ------------------------------------------------------------------
    # interpolation series for g+/g-
    # ------------------------------------------------------------------

    def _nodes(self, sign: Sign, N: int):
        """Nodes nu with F(nu) = f(nu/delta) and F'(nu) = -fe(nu/delta)/delta
        on the slice |k| <= N, nu = k ('+') or nu = k + 1/2 ('-').

        One node set per sign is kept; a larger N computes only the new
        outer nodes.  Node values are those of a one-point call
        (_sigma_sum), so every slice equals a fresh build of its own N.
        """
        key = ("nodes", sign)
        built = self._cache.get(key)
        if built is None or N > built[0]:
            if built is None:
                k = np.arange(-N, N + 1)
            else:  # only the nodes outside the built slice
                Nb = built[0]
                k = np.concatenate([np.arange(-N, -Nb),
                                    np.arange(Nb + 1, N + 1)])
            nu = k + (0.0 if sign == "+" else 0.5)
            F = self.f_odd_vec(nu / self.delta)
            Fp = -self.f_even_vec(nu / self.delta) / self.delta
            if built is not None:
                cut = N - built[0]  # new nodes left of the built slice
                nu, F, Fp = (np.concatenate([new[:cut], old, new[cut:]])
                             for new, old in zip((nu, F, Fp), built[1:]))
            elif sign == "+":
                Fp[N] = 0.0  # derivative weight dropped at the origin node
            built = (N, nu, F, Fp)
            self._cache[key] = built
        lo = built[0] - N
        return tuple(a[lo:lo + 2 * N + 1] for a in built[1:])

    def _budget(self, sign: Sign, R: float) -> int:
        """Node budget meeting _SERIES_TOL for |w| <= R (w = delta*x).

        At least 10*delta nodes.  The dense floor ~20 nodes per unit x
        serves small arguments; for large R it is capped at 2R + 2000
        (nodes must only outrun the evaluation window, the tail test
        below does the rest).  The first candidate N is rounded up to a
        2^a 3^b number (_fft_len), and the search then tries each larger
        2^a 3^b number in turn, so the budget is the smallest fast
        transform length from there that passes the tail test.  The tail
        test reads only the slice |nu| <= N, so the budget depends on R
        alone; since the first candidate grows with R and a budget
        passing for a window passes for every smaller one, it never
        decreases as R grows.  Raises
        ResourceError, before any node is built, when the node data of a
        budget would exceed _NODE_MEMORY bytes: for R > 707 588 at delta
        <= 9.98, and from at most R > 708 578 at larger delta (windows
        that large pass at their first candidate).
        """
        dense = min(int(math.ceil(50 + 20 * R / self.delta)),
                    int(math.ceil(2 * R)) + 2000)
        d = self.delta
        N = _fft_len(max(int(math.ceil(10 * d)), dense,
                         int(math.ceil(2 * R + 20))))
        while True:
            if (2 * N + 1) * _BYTES_PER_NODE > _NODE_MEMORY:
                raise ResourceError(
                    f"interpolation series for |delta*x| <= {R:.6g} needs "
                    f"{2 * N + 1} nodes, over the node memory limit of "
                    f"{_NODE_MEMORY >> 20} MiB")
            # decay envelopes |F| <= CF d^2/(d^2+nu^2) and
            # |F'| <= CFp d^3/(d^3+|nu|^3) on the slice |k| <= N
            nu, F, Fp = self._nodes(sign, N)
            v = np.abs(nu)
            CF = float(np.max(np.abs(F) * (d * d + v * v) / (d * d)))
            CFp = float(np.max(np.abs(Fp) * (d ** 3 + v * v * v) / d ** 3))
            tail = (2 * CF * d * d / ((N - R) ** 2 * N)
                    + CFp * d ** 3 / N ** 3) / math.pi ** 2
            if tail <= _SERIES_TOL:
                return N
            N = _fft_len(N + 1)

    def g_eval(self, sign: Sign, z: complex) -> complex:
        """g+ ('+') or g- ('-') at complex z (poisson_extremal.mixture_at)."""
        u, _, b = self.poisson_mixture(sign)
        return mixture_at(u, b, self.delta, z)

    def _far_field(self, sign: Sign, N: int) -> np.ndarray:
        """Far-field coefficients c_p[i], shape (_FAR_TERMS, 2M+1), on the
        nodes |k| <= M = N//2 of the slice |k| <= N (see the module
        docstring): the only nodes a window of budget N can pick as
        nearest.  Cached for the most recent N of each sign."""
        key = ("far", sign)
        hit = self._cache.get(key)
        if hit is not None and hit[0] == N:
            return hit[1]
        _, F, Fp = self._nodes(sign, N)
        M = N // 2
        # correlations with 1/j^q, |j| > _NEAR_NODES, as circular
        # convolutions with h(e) = 1/(-e)^q; the kept outputs i = N-M..N+M
        # read offsets |e| <= N + M, which do not alias for L >= 3N + 2
        L = _fft_len(3 * N + 2)
        Fh, Fph = np.fft.rfft(F, L), np.fft.rfft(Fp, L)
        e = np.arange(L, dtype=np.float64)
        e[(L + 1) // 2:] -= L  # signed offsets, exact integers
        inv = np.zeros(L)
        np.divide(-1.0, e, out=inv, where=np.abs(e) > _NEAR_NODES)
        kern = inv.copy()
        prev = np.fft.rfft(kern)  # q = p + 1
        c = np.empty((_FAR_TERMS, 2 * M + 1))
        for p in range(_FAR_TERMS):
            kern *= inv
            cur = np.fft.rfft(kern)  # q = p + 2
            c[p] = np.fft.irfft((p + 1) * Fh * cur - Fph * prev,
                                L)[N - M:N + M + 1]
            prev = cur
        self._cache[key] = (N, c)
        return c

    def g_real(self, sign: Sign, x: np.ndarray) -> np.ndarray:
        """Majorant ('+') or minorant ('-') values at real points x.

        Each w = delta*x is split at its nearest node: the 2*_NEAR_NODES+1
        = 9 nearest nodes are summed directly (the nearest one through a
        guarded sinc within 1e-4 of it, the others with one reciprocal
        1/(r - j) each), and the rest through the _FAR_TERMS-term
        far-field polynomial of the module docstring, read at the nearest
        node's column of _far_field.  The node budget N comes from max |w|
        and _SERIES_TOL; a call costs O(N log N) for the far-field
        coefficients of a new N plus O(_NEAR_NODES + _FAR_TERMS) per
        point, in O(N) memory and six arrays of len(x), the output
        included.  Raises ResourceError when N would exceed the node
        memory limit (|delta*x| > 7.08e5).
        """
        _check_sign(sign)
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        r = self.delta * x
        N = self._budget(sign, float(np.max(np.abs(r))) if len(r) else 0.0)
        nu, F, Fp = self._nodes(sign, N)
        c = self._far_field(sign, N)
        near = np.round(r) if sign == "+" else np.floor(r) + 0.5
        r -= near  # w - near, in place
        # one index array, first into c's columns, the nodes |k| <= N//2,
        # which hold every nearest node; then shifted for the near field
        near -= nu[0] + (N - N // 2)
        idx = near.astype(np.intp)
        del near
        # Horner's rule and the near field in place, each gather taken
        # into one buffer ('clip' takes without a buffer of its own; the
        # indices are in range: |nu_i| <= R + 1/2 and N >= 2R + 20)
        buf, buf2, d = np.empty_like(r), np.empty_like(r), np.empty_like(r)
        acc = c[-1].take(idx, mode="clip")
        for p in range(_FAR_TERMS - 2, -1, -1):
            acc *= r
            acc += c[p].take(idx, out=buf, mode="clip")
        # from here idx is i - K for the nearest node's slice index i, and
        # F[i + j] is F[K + j:][idx]: no index array per offset j
        K = _NEAR_NODES
        idx += N - N // 2 - K
        for j in range(-K, K + 1):
            if j:
                np.subtract(r, j, out=d)
                np.divide(1.0, d, out=d)
                F[K + j:].take(idx, out=buf, mode="clip")
                buf *= d
                buf += Fp[K + j:].take(idx, out=buf2, mode="clip")
                buf *= d
                acc += buf
        tiny = np.abs(r, out=d) < 1e-4
        acc_tiny = acc[tiny]
        # the nearest node: acc + F0/r^2 + Fp0/r, with r = 1 where tiny
        np.copyto(d, r)
        d[tiny] = 1.0
        F[K:].take(idx, out=buf, mode="clip")
        buf /= np.square(d, out=buf2)
        acc += buf
        Fp[K:].take(idx, out=buf, mode="clip")
        buf /= d
        acc += buf
        # S2 = (sin(pi r)/pi)^2
        np.multiply(math.pi, r, out=d)
        np.sin(d, out=d)
        d /= math.pi
        np.square(d, out=d)
        acc *= d
        if len(acc_tiny):
            rt, it = r[tiny], idx[tiny] + K
            acc[tiny] = (d[tiny] * acc_tiny
                         + (F[it] + Fp[it] * rt) * _sinc2(rt))
        return acc

    # ------------------------------------------------------------------
    # kernel interface: PoissonMixture's, and its older names here, in
    # the class's own namespace, where perfbench's tracer looks them up
    # ------------------------------------------------------------------

    ft_g = PoissonMixture.ft
    l1_gap_odd = PoissonMixture.l1_gap
    decay_envelope_const = PoissonMixture.tail_envelope

    def describe(self) -> dict:
        return {"family": "odd", "m": self.m, "alpha": self.alpha,
                "delta": self.delta}


def _log_quotient(u, x):
    """log((u^2+x^2)/(1+x^2)) by two cancellation-free routes: log1p(arg)
    for small |arg| (large x), direct log quotient when u^2 + x^2 is small
    (arg near -1).  Works in place, to allocate fewer block-sized
    temporaries."""
    u2 = u ** 2
    x2 = x ** 2
    direct = u2 + x2
    np.log(direct, out=direct)
    direct -= np.log1p(x2)
    arg = (u2 - 1.0) / (1.0 + x2)
    use_log1p = arg > -0.5
    np.maximum(arg, -1.0 + 1e-16, out=arg)
    np.log1p(arg, out=arg)
    np.copyto(direct, arg, where=use_log1p)
    return direct


def _even_integrand(u, x):
    """x (1-u^2)/((u^2+x^2)(1+x^2)), the sigma-integrand of fe."""
    u2 = u ** 2
    x2 = x ** 2
    return x * (1.0 - u2) / ((u2 + x2) * (1.0 + x2))


def _sinc2(r):
    """(sin(pi r)/(pi r))^2 with Taylor fallback near r = 0; elementwise
    on arrays."""
    small = np.abs(r) < 1e-6
    p2 = (math.pi * r) ** 2
    pr = math.pi * np.where(small, 1.0, r)
    s = np.sin(pr) / pr
    return np.where(small, 1.0 - p2 / 3.0 + 2.0 * p2 * p2 / 45.0, s * s)


def _fft_len(n: int) -> int:
    """Smallest 2^a 3^b >= n, a fast transform length for numpy.fft."""
    best, p3 = 1 << (n - 1).bit_length(), 1
    while p3 < best:
        best = min(best, p3 << (-(-n // p3) - 1).bit_length())
        p3 *= 3
    return best

