"""Reference computations made apart from the library.

Everything here is written from the paper's formulas with numpy, scipy
and mpmath primitives; nothing calls szeta.  The workloads compare the
library's outputs against these after the timed part of a run.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import scipy.integrate


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------

def mangoldt(limit: int) -> np.ndarray:
    """Lambda(n) for 0 <= n <= limit (Eratosthenes, then prime powers)."""
    prime = np.ones(limit + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if prime[p]:
            prime[p * p::p] = False
    lam = np.zeros(limit + 1)
    for p in np.flatnonzero(prime):
        p = int(p)
        lp = math.log(p)
        pk = p
        while pk <= limit:
            lam[pk] = lp
            pk *= p
    return lam


def prime_powers(limit: int):
    """(n, Lambda(n)) over the prime powers n <= limit, as float arrays."""
    lam = mangoldt(limit)
    n = np.flatnonzero(lam)
    return n.astype(np.float64), lam[n]


# ---------------------------------------------------------------------------
# Poisson-kernel extremal pair (closed forms of the paper)
# ---------------------------------------------------------------------------

def _poisson_scale(sign: str, beta: float, delta: float) -> float:
    """(e^a -/+ e^-a)^2 with a = pi beta delta, as 4 sinh^2 / 4 cosh^2."""
    a = math.pi * beta * delta
    return 4.0 * (math.sinh(a) if sign == "+" else math.cosh(a)) ** 2


def poisson_target(beta: float, x):
    return beta / (beta * beta + np.square(x))


def poisson_value(sign: str, beta: float, delta: float, x):
    """m+/-(x) = h(x) (2 cosh(2 pi beta delta) - 2 cos(2 pi delta x)) / D."""
    x = np.asarray(x, dtype=np.float64)
    num = 2.0 * math.cosh(2.0 * math.pi * beta * delta) \
        - 2.0 * np.cos(2.0 * math.pi * delta * x)
    return poisson_target(beta, x) * num / _poisson_scale(sign, beta, delta)


def poisson_ft(sign: str, beta: float, delta: float, xi):
    """Fourier transform 2 pi sinh(2 pi beta (delta - |xi|)) / D, 0 past delta."""
    axi = np.abs(np.asarray(xi, dtype=np.float64))
    w = 2.0 * math.pi * beta * np.maximum(delta - axi, 0.0)
    val = 2.0 * math.pi * np.sinh(w) / _poisson_scale(sign, beta, delta)
    return np.where(axi <= delta, val, 0.0)


def poisson_l1(sign: str, beta: float, delta: float) -> float:
    q = math.exp(-2.0 * math.pi * beta * delta)
    return 2.0 * math.pi * q / (1.0 - q if sign == "+" else 1.0 + q)


def prime_sum(ft_values, t: float, n: np.ndarray, lam: np.ndarray) -> float:
    """(1/pi) sum_n Lambda(n) n^{-1/2} Khat(log n / 2 pi) cos(t log n)."""
    logn = np.log(n)
    return float(np.sum(lam / np.sqrt(n) * ft_values * np.cos(t * logn))) \
        / math.pi


# ---------------------------------------------------------------------------
# odd-family target
# ---------------------------------------------------------------------------

def odd_target(m: int, alpha: float, x: np.ndarray) -> np.ndarray:
    """f(x) = 1/2 int_{alpha}^{3/2} (s-alpha)^{2m} log((1+x^2)/((s-1/2)^2+x^2)) ds.

    Adaptive vector quadrature in u = s - 1/2 with the logarithm written
    as log1p((1-u^2)/(u^2+x^2)), which has no cancellation at large x.
    """
    x2 = np.square(np.asarray(x, dtype=np.float64))
    a0 = alpha - 0.5

    def integrand(u):
        return (u - a0) ** (2 * m) * np.log1p((1.0 - u * u) / (u * u + x2))

    val, _ = scipy.integrate.quad_vec(integrand, a0, 1.0, epsabs=1e-15,
                                      epsrel=1e-13, limit=20000)
    return 0.5 * val


def odd_target_integral(m: int, alpha: float) -> float:
    """int f over the real line: pi (3/2-alpha)^{2m+2} / ((2m+1)(2m+2))."""
    return (math.pi * (1.5 - alpha) ** (2 * m + 2)
            / ((2 * m + 1) * (2 * m + 2)))


# ---------------------------------------------------------------------------
# window quadrature for int over the real line of an even function
# ---------------------------------------------------------------------------

class WindowGrid:
    """Gauss-Legendre panels of width 1/(4 delta) on [s, X], plus [0, s].

    The evaluation grid of the odd-pair workload.  ``integral`` returns
    int over the real line of an even function sampled on it.  A
    function with a 1/x^2 tail and oscillations of period dividing
    10/delta is handled by averaging the running integral over windows
    of exactly 10/delta (the oscillating part averages out), at five
    stations, and extrapolating the averages to T = infinity with a
    cubic in 1/T.
    """

    ORDER = 8
    PANELS_PER_WINDOW = 40
    STATIONS = (0.55, 0.66, 0.77, 0.88, 1.0)

    def __init__(self, delta: float, offset: float, X: float = 120.0):
        self.width = 0.25 / delta
        if not 0.0 <= offset < self.width:
            raise ValueError("offset must lie in [0, panel width)")
        self.n = int(math.ceil(X / self.width))
        gx, gw = np.polynomial.legendre.leggauss(self.ORDER)
        self.edges = offset + self.width * np.arange(self.n + 1)
        mids = 0.5 * (self.edges[1:] + self.edges[:-1])
        self.nodes2d = mids[:, None] + 0.5 * self.width * gx[None, :]
        self.points = self.nodes2d.ravel()
        self.weights = 0.5 * self.width * gw
        # [0, offset] is one extra Gauss panel
        self.head_points = 0.5 * offset * (gx + 1.0)
        self.head_weights = 0.5 * offset * gw

    def integral(self, vals: np.ndarray, head_vals: np.ndarray) -> float:
        v = vals.reshape(self.n, self.ORDER)
        head = float(head_vals @ self.head_weights)
        pan = v @ self.weights
        # int over a panel of (right edge - x) f(x): increments of the
        # second antiderivative
        pan2 = ((self.edges[1:, None] - self.nodes2d) * v
                @ self.weights)
        P = head + np.concatenate([[0.0], np.cumsum(pan)])
        Q = np.concatenate([[0.0], np.cumsum(P[:-1] * self.width + pan2)])
        k = self.PANELS_PER_WINDOW
        T, A = [], []
        for frac in self.STATIONS:
            j1 = min(k * int(round(frac * self.n / k)), self.n)
            j0 = j1 - k
            A.append((Q[j1] - Q[j0]) / (self.edges[j1] - self.edges[j0]))
            T.append(0.5 * (self.edges[j0] + self.edges[j1]))
        T = np.asarray(T)
        M = np.vander(1.0 / T, 4, increasing=True)
        coef = np.linalg.lstsq(M, np.asarray(A), rcond=None)[0]
        return 2.0 * float(coef[0])


# ---------------------------------------------------------------------------
# bound envelopes (mpmath polylogarithm)
# ---------------------------------------------------------------------------

def _H(n: int, x) -> mpmath.mpf:
    """H_n(x) = sum_k x^k/(k+1)^n = Li_n(x)/x."""
    x = mpmath.mpf(x)
    if x == 0:
        return mpmath.mpf(1)
    return mpmath.polylog(n, x) / x


def c_odd(n: int, alpha: float, t: float, sign: str) -> mpmath.mpf:
    s = (-1) ** ((n + 1) // 2) * (1 if sign == "+" else -1)
    y = mpmath.log(t) ** (1 - 2 * mpmath.mpf(alpha))
    shift = (2 * mpmath.mpf(alpha) - 1) / (alpha * (1 - mpmath.mpf(alpha)))
    return (_H(n + 1, s * y) + shift) / (2 ** (n + 1) * mpmath.pi)


def c_n(n: int, alpha: float, t: float, sign: str) -> mpmath.mpf:
    if n % 2 or n < 0:
        return c_odd(n, alpha, t, sign)
    if n == 0:
        return mpmath.sqrt(2 * (c_odd(1, alpha, t, "+") + c_odd(1, alpha, t, "-"))
                           * c_odd(-1, alpha, t, "-"))
    pa, ma = c_odd(n + 1, alpha, t, "+"), c_odd(n + 1, alpha, t, "-")
    pb, mb = c_odd(n - 1, alpha, t, "+"), c_odd(n - 1, alpha, t, "-")
    return mpmath.sqrt(2 * (pa + ma) * pb * mb / (pb + mb))


def envelope_main(n: int, alpha: float, t: float):
    """(lower_main, upper_main) = (-C-_n ell, C+_n ell),
    ell = (log t)^{2-2 alpha} / (log log t)^{n+1}."""
    lt = mpmath.log(t)
    ell = lt ** (2 - 2 * mpmath.mpf(alpha)) / mpmath.log(lt) ** (n + 1)
    return (float(-c_n(n, alpha, t, "-") * ell),
            float(c_n(n, alpha, t, "+") * ell))


# ---------------------------------------------------------------------------
# zeta-side values
# ---------------------------------------------------------------------------

def load_ordinates(path: str) -> np.ndarray:
    return np.loadtxt(path, comments="#")


def s_minus1_zero_sum(alpha: float, t: float, gam: np.ndarray) -> float:
    """-(1/2pi) log(t/2pi) + (1/pi) sum_gamma h_beta(t-gamma)+h_beta(t+gamma)."""
    beta = alpha - 0.5
    h = poisson_target(beta, t - gam) + poisson_target(beta, t + gam)
    return -math.log(t / (2.0 * math.pi)) / (2.0 * math.pi) \
        + float(np.sum(h)) / math.pi


def s_minus1_direct(alpha: float, t: float) -> float:
    """(1/pi) Re zeta'/zeta(alpha + it)."""
    s = mpmath.mpc(alpha, t)
    return float(mpmath.re(mpmath.zeta(s, 1, 1) / mpmath.zeta(s))
                 / mpmath.pi)


# ---------------------------------------------------------------------------
# asymptotic displays (appendix items)
# ---------------------------------------------------------------------------

def appendix_direct(pid: str, params: dict) -> float:
    """Direct value of an appendix item from the benchmark's own sieve
    (B items) or mpmath quadrature (A1)."""
    x = params["x"]
    if pid == "A1":
        alpha, p = params["alpha"], 2 * params["m"] + 2
        return float(mpmath.quad(
            lambda u: u ** (-alpha) * mpmath.log(u) ** (-p), [2, 10, 100, x]))
    n, lam = prime_powers(int(math.floor(x)))
    if pid == "B1":
        alpha, p = params["alpha"], 2 * params["m"] + 2
        return float(np.sum(lam / (n ** alpha * np.log(n) ** p)))
    if pid == "B3":
        alpha, p = params["alpha"], 2 * params["m"] + 2
        lx, logn = math.log(x), np.log(n)
        left = lam / n ** alpha
        right = lam * n ** (alpha - 1) / x ** (2 * alpha - 1)
        q = x ** (0.5 - alpha)
        total, k = 0.0, 1
        while True:
            inner = float(np.sum(left / (k * lx + logn) ** p)
                          - np.sum(right / ((k + 2) * lx - logn) ** p))
            term = (k + 1) * q ** k * abs(inner)
            total += term
            if term < 1e-17 * total:
                return total
            k += 1
    if pid == "B4":
        beta = params["beta"]
        return float(np.sum(lam / np.sqrt(n)
                            * ((x / n) ** beta - (n / x) ** beta)))
    raise ValueError(f"no reference for {pid}")
