"""Extremal bandlimited pairs that are mixtures of Poisson pairs.

For beta > 0 and delta >= 1 the extremal majorant ('+') and minorant
('-') of exponential type 2 pi delta of the Poisson kernel h_beta(x) =
beta/(beta^2 + x^2) are

    m+(x) = h_beta(x) (1 + sin^2(pi delta x)/sinh^2(pi beta delta)),
    m-(x) = h_beta(x) (1 - cos^2(pi delta x)/cosh^2(pi beta delta)),

which interpolate h_beta at the integers ('+') or the half-integers
('-') over delta.  A mixture of them at members u with weights w >= 0
(Carneiro, Littmann and Vaaler, Trans. AMS 365 (2013)) brackets the
mixture f = sum w h_u of Poisson kernels at the same nodes:

    g+-(x) = f(x) +- trig(x) A+-(x),
    A+-(x) = sum w h_u(x) / {sinh^2, cosh^2}(pi u delta),

with trig = sin^2(pi r) and r = delta x minus its nearest node, reduced
exactly, so g equals f bit for bit at every node; g+ - f and f - g- are
trig times a positive sum, so the pair brackets f by construction.  The
Poisson pair is the one member u = beta with weight 1; the odd-index
pair (odd_extremal) is a Gauss rule for a density in u.  Every constant
of the pair is the same sum of the members' closed forms:

    ghat+-(xi) = (pi/2) sum w sinh(2 pi u (delta - |xi|))
                 / {sinh^2, cosh^2}(pi u delta)
               = pi sum w e^{-2 pi u |xi|} (1 - e^{-4 pi u s})
                 / (1 -/+ e^{-2 pi u delta})^2,  s = delta - |xi| >= 0,

the L1 gap sum w 2 pi q/(1 -/+ q), q = e^{-2 pi u delta}, and the proved
tail envelope |g+-(x)| <= K+-/x^2 with K- = sum w u and K+ = K- + sum w
u/sinh^2(pi u delta).  All of them go through exp and expm1, so they
neither overflow nor cancel as u delta -> 0, down to the members u ~
1e-19 of the odd pair at alpha = 1/2; for the Poisson pair ft, l1_gap
and tail_envelope are within 1e-15 relative of 40-digit mpmath on beta
in [1e-4, 0.499], and real within 1e-15 max(|real|, target) at the
exact product delta x (numkit.frac_product).

real and target evaluate f and A+- by one routine (_mixture): a sum over
the members along one row per point.  A mixture of more than _MOMENTS
members takes |x| >= _SERIES_FROM = 4 from the series 1/(u^2 + x^2) =
sum_k (-u^2)^k / x^(2k+2) instead, whose ratio u^2/x^2 <= 1/16 for u <=
1 makes _MOMENTS = 14 terms in y = 1/x^2 exact to (1/16)^14 ~ 1e-17
relative; the moments sum w u^(2k+1) {1, 1/sinh^2, 1/cosh^2} are kept per
pair.  A point costs O(1) at any x and has the same bits in any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numkit import DomainError, Sign, _check_sign, frac_product, trig_sq

# the member sums run over blocks of about this many (member x point)
# elements: 128 kB temporaries, under glibc's default 128 KiB mmap
# threshold, so every block reuses heap pages instead of mapping and
# faulting in fresh ones; the row-wise sums make the values independent
# of the block size
_SIGMA_BLOCK = 16_000
# real and target: member sums for |x| < _SERIES_FROM, and _MOMENTS terms
# of the moment series in y = 1/x^2 beyond, for mixtures of more than
# _MOMENTS members (module docstring)
_SERIES_FROM = 4.0
_MOMENTS = 14


class PoissonMixture:
    """An explicit_formula.Kernel on top of a mixture of Poisson pairs
    (module docstring), read off one hook, _members.  A subclass is a
    frozen dataclass with a ``delta`` field and a ``_cache`` dict that
    is left out of its hash and equality.  The dict keeps the members,
    weights and moments ("mixture", _mixture_terms) and, one entry deep,
    explicit_formula's sign-free digamma and arch terms at the most
    recent t ("sign_free", 32 B per member)."""

    def _members(self) -> tuple:
        """(u, w): the members u > 0 and their weights, 1-D arrays."""
        raise NotImplementedError

    def _mixture_terms(self) -> tuple:
        """(u, W, M): the members, their weights W, shape (3, n), and the
        signed moments M, shape (3, _MOMENTS), of f, A+ and A-, kept per
        pair.

        W is w times 1, 1/sinh^2 and 1/cosh^2 of pi u delta, and M[:, k]
        is (-1)^k sum W u^(2k+1).  1/sinh^2(a) = 4 e^{-2a}/expm1(-2a)^2
        neither overflows nor cancels, also at u ~ 1e-19."""
        hit = self._cache.get("mixture")
        if hit is None:
            u, w = self._members()
            c = -2.0 * math.pi * self.delta * u
            e = np.exp(c)
            W = np.stack([w, 4.0 * w * e / np.expm1(c) ** 2,
                          4.0 * w * e / (1.0 + e) ** 2])
            k = np.arange(_MOMENTS)
            M = (W @ u[:, None] ** (2 * k + 1)) * (-1.0) ** k
            hit = self._cache["mixture"] = (u, W, M)
        return hit

    def _sigma_sum(self, integrand, x, *ws) -> list:
        """sum over the members of w * integrand(u, x) along one row per
        x, one array per weight row w, in blocks of about _SIGMA_BLOCK
        elements: the same bits in any batch (a matrix product's bits can
        depend on the batch).  One member is one product."""
        u = self._mixture_terms()[0]
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if len(u) == 1:
            h = integrand(float(u[0]), x)
            return [h * float(w[0]) for w in ws]
        out = [np.empty(len(x)) for _ in ws]
        block = max(1, _SIGMA_BLOCK // len(u))
        for i0 in range(0, len(x), block):
            H = integrand(u, x[i0:i0 + block, None])
            for o, w in zip(out, ws):
                o[i0:i0 + block] = np.einsum("ji,i->j", H, w)
        return out

    def _mixture(self, x: np.ndarray, rows: list) -> list:
        """The sums of ``rows`` of W (0: f, 1: A+, 2: A-) at real points
        x, one array each.

        For more than _MOMENTS members, the moment series y (M[i, 0] +
        M[i, 1] y + ...) in y = 1/x^2 by Horner's rule, elementwise (one
        row at a time: scalar coefficients run twice as fast as a
        broadcast column), and then, for |x| < _SERIES_FROM, the row-wise
        member sums in its place; for fewer, the member sums at every x.
        A point has the same bits in any batch."""
        u, W, M = self._mixture_terms()
        ws = [W[i] for i in rows]
        if len(u) <= _MOMENTS:
            return self._sigma_sum(_poisson, x, *ws)
        y = 1.0 / np.maximum(np.square(x), _SERIES_FROM ** 2)
        near = np.flatnonzero(np.abs(x) < _SERIES_FROM)
        out = []
        for i in rows:
            v = M[i, -1] * y
            for c in M[i, -2::-1]:
                v += c
                v *= y
            out.append(v)
        if len(near):
            for v, s in zip(out, self._sigma_sum(_poisson, x[near], *ws)):
                v[near] = s
        return out

    # -- kernel interface --------------------------------------------------

    def target(self, x: np.ndarray) -> np.ndarray:
        """f(x) from the mixture, the routine of ``real``, so real equals
        target bit for bit at every node."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        return self._mixture(x, [0])[0]

    def real(self, sign: Sign, x: np.ndarray) -> np.ndarray:
        """g+ ('+') or g- ('-') at real points x: f +- sin^2(pi r) A+-,
        with r = delta x minus its nearest node, from the exact product
        (numkit.frac_product, then numkit.trig_sq)."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        f, a = self.real_parts(sign, x)
        a = a * trig_sq(sign, frac_product(self.delta, x))
        return f + a if sign == "+" else f - a

    def real_parts(self, sign: Sign, x: np.ndarray) -> tuple:
        """(f, A+-) at real points x, the rows of _mixture: real = f +
        A+ sin^2(pi delta x) ('+') or f - A- cos^2(pi delta x) ('-')."""
        _check_sign(sign)
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        return tuple(self._mixture(x, [0, 1] if sign == "+" else [0, 2]))

    def ft(self, sign: Sign, xi: float | np.ndarray) -> float | np.ndarray:
        """Fourier transform at each xi (a float for a scalar xi), even in
        xi and identically 0 for |xi| >= delta: the second form of ghat
        in the module docstring, '+' with 1 - e as -expm1, '-' with 1 +
        e; s = 0 gives exactly 0.  A member sum: the same bits in any
        batch."""
        _check_sign(sign)
        u, W, _ = self._mixture_terms()
        d = self.delta
        c = -2.0 * math.pi * u
        den = (np.expm1(c * d) ** 2 if sign == "+"
               else (1.0 + np.exp(c * d)) ** 2)
        w = math.pi * W[0] / den
        axi = np.minimum(np.abs(np.asarray(xi, dtype=np.float64)), d)
        out = self._sigma_sum(lambda u, x: np.exp(-2.0 * math.pi * u * x)
                              * -np.expm1(-4.0 * math.pi * u * (d - x)),
                              axi.ravel(), w)[0]
        return float(out[0]) if axi.ndim == 0 else out.reshape(axi.shape)

    def l1_gap(self, sign: Sign) -> float:
        """L1 distance between g and the target: the mixture of the
        members' gaps 2 pi q/(1 -/+ q), q = e^{-2 pi u delta}, with 1 - q
        as -expm1.  Each member's gap has one sign (g+ - f and f - g- are
        sums of nonnegative members), so the gaps add."""
        _check_sign(sign)
        u, W, _ = self._mixture_terms()
        c = -2.0 * math.pi * self.delta * u
        q = np.exp(c)
        den = -np.expm1(c) if sign == "+" else 1.0 + q
        return 2.0 * math.pi * float(np.dot(W[0], q / den))

    def tail_envelope(self, sign: Sign) -> float:
        """K with |g(x)| <= K/x^2 on the real axis, proved: K- = sum w u
        = M[0, 0] and K+ = K- + sum w u/sinh^2(pi u delta) = M[0, 0] +
        M[1, 0] (_mixture_terms).

        0 <= h_u(x) <= u/x^2 gives f <= K-/x^2 and A+ <= M[1, 0]/x^2, so
        0 <= g+ = f + trig A+ <= K+/x^2; A- <= f gives 0 <= f - A- <= g-
        <= f.  Sharp: x^2 g+ tends to K+ where trig = 1, and x^2 g- to
        K- at the nodes."""
        _check_sign(sign)
        M = self._mixture_terms()[2]
        return float(M[0, 0] + M[1, 0]) if sign == "+" else float(M[0, 0])

    def poisson_mixture(self, sign: Sign) -> tuple:
        """(u, a, b): real = sum h_u (a + b cos(2 pi delta x)), from g =
        f +- trig A with trig = (1 -+ cos)/2."""
        _check_sign(sign)
        u, W, _ = self._mixture_terms()
        b = -0.5 * W[1 if sign == "+" else 2]
        return u, W[0] - b if sign == "+" else W[0] + b, b


@dataclass(frozen=True)
class PoissonExtremalPair(PoissonMixture):
    """Parameters (beta, delta) of the extremal pair for beta/(beta^2 +
    x^2): the one-member mixture u = beta."""

    beta: float
    delta: float
    _cache: dict = field(default_factory=dict, repr=False, compare=False)
    formula = {"real": "closed_form", "ft": "closed_form",
               "l1_gap": "closed_form"}
    ft_error = 0.0

    def __post_init__(self):
        if not 0.0 < self.beta < 0.5:
            raise DomainError(f"beta must lie in (0, 1/2), got {self.beta}")
        if self.delta < 1.0:
            raise DomainError(f"delta must be >= 1, got {self.delta}")

    def _members(self) -> tuple:
        return np.array([self.beta]), np.array([1.0])

    # PoissonMixture.ft under its older name, in the class's own
    # namespace, where perfbench's tracer looks it up
    ft_m = PoissonMixture.ft

    def describe(self) -> dict:
        return {"family": "poisson", "beta": self.beta, "delta": self.delta}

    # -- references: selftest check 1 and the tests -----------------------

    def _denom(self, sign: Sign) -> float:
        """(e^{pi b d} -/+ e^{-pi b d})^2."""
        a = math.pi * self.beta * self.delta
        if sign == "+":
            return (math.exp(a) - math.exp(-a)) ** 2
        return (math.exp(a) + math.exp(-a)) ** 2

    def m_real(self, sign: Sign, x: np.ndarray) -> np.ndarray:
        """h_beta (e^{2a} + e^{-2a} - 2 cos(2 pi delta x))/(e^a -/+
        e^{-a})^2, a = pi beta delta: the pair in another closed form,
        with cos(2 pi delta x) unreduced, so up to ulp(delta x) off in
        the phase."""
        _check_sign(sign)
        b, d = self.beta, self.delta
        x = np.asarray(x, dtype=np.float64)
        a = 2.0 * math.pi * b * d
        num = math.exp(a) + math.exp(-a) - 2.0 * np.cos(2.0 * math.pi * d * x)
        return (b / (b * b + x * x)) * num / self._denom(sign)


def _poisson(u, x):
    """h_u(x) = u/(u^2 + x^2), the member term of f and A+-."""
    d = u * u + np.square(x)
    return np.divide(u, d, out=d)


def arch_products(u, delta: float, z: complex) -> np.ndarray:
    """F+ F- per member u at complex z, F+- = sin(pi delta (z +- iu))/(z
    +- iu): the sign-free factor of mixture_at.  delta Re z is reduced to
    its nearest integer, whose signs cancel in F+ F-, by frac_product; F
    = pi delta at z +- iu = 0."""
    z, n = complex(z), len(u)
    s = np.concatenate([u, -u])
    s += z.imag  # Im(z +- iu)
    w = s * 1j
    w += z.real  # z +- iu
    F = s * (1j * math.pi * delta)
    F += math.pi * float(frac_product(delta, z.real))
    np.sin(F, out=F)
    if z.real == 0.0 and not s.all():
        F[s == 0.0], w[s == 0.0] = math.pi * delta, 1.0
    F /= w
    return F[:n] * F[n:]


def mixture_at(u, b, delta: float, z: complex,
               products: np.ndarray | None = None) -> complex:
    """sum h_u (a + b cos(2 pi delta .)) at complex z over the members (u,
    a, b) of poisson_mixture, from (u, b): the entire W u F+ F-, W = -2b
    (explicit_formula's module docstring), with F+ F- from arch_products,
    or ``products`` where the caller keeps arch_products(u, delta, z)."""
    if products is None:
        products = arch_products(u, delta, z)
    return -2.0 * complex(np.dot(b * u, products))
