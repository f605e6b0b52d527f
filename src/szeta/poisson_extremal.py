"""Extremal bandlimited majorant/minorant pair for the Poisson kernel.

For 0 < beta < 1/2 and delta >= 1 this module evaluates the unique entire
functions m+ (majorant) and m- (minorant) of exponential type 2*pi*delta
that bracket h(x) = beta/(beta^2 + x^2) pointwise while minimizing the L1
distance.  Their Fourier transforms are supported on [-delta, delta] and
known in closed form, as are the L1 gaps; everything here is exact
arithmetic on those closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkit import DomainError, Sign, _check_sign, from_parts


@dataclass(frozen=True)
class PoissonExtremalPair:
    """Parameters (beta, delta) of the extremal pair for beta/(beta^2+x^2);
    an explicit_formula.Kernel on top of real_parts and ft_m alone."""

    beta: float
    delta: float
    formula = {"real": "closed_form", "ft": "closed_form",
               "l1_gap": "closed_form"}
    ft_error = 0.0

    def __post_init__(self):
        if not 0.0 < self.beta < 0.5:
            raise DomainError(f"beta must lie in (0, 1/2), got {self.beta}")
        if self.delta < 1.0:
            raise DomainError(f"delta must be >= 1, got {self.delta}")

    # -- target kernel -----------------------------------------------------

    def target(self, x):
        """Poisson kernel beta/(beta^2 + x^2); accepts scalars or arrays."""
        b = self.beta
        x = np.asarray(x, dtype=np.float64)
        return b / (b * b + x * x)

    # -- denominator (e^{pi b d} -/+ e^{-pi b d})^2 -----------------------

    def _denom(self, sign: Sign) -> float:
        a = math.pi * self.beta * self.delta
        if sign == "+":
            return (math.exp(a) - math.exp(-a)) ** 2
        return (math.exp(a) + math.exp(-a)) ** 2

    # -- extremal functions ------------------------------------------------

    def m_real(self, sign: Sign, x: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on the real axis (no singularities there),
        with cos(2 pi delta x) unreduced, so up to ulp(delta x) off in the
        phase.  A reference only, for selftest check 1 and the tests: the
        pair is served by real and real_parts, which do not call it."""
        _check_sign(sign)
        b, d = self.beta, self.delta
        x = np.asarray(x, dtype=np.float64)
        a = 2.0 * math.pi * b * d
        num = math.exp(a) + math.exp(-a) - 2.0 * np.cos(2.0 * math.pi * d * x)
        return (b / (b * b + x * x)) * num / self._denom(sign)

    # -- Fourier transform -------------------------------------------------

    def ft_m(self, sign: Sign, xi: float | np.ndarray) -> float | np.ndarray:
        """Closed-form Fourier transform at each xi (a float for a scalar
        xi); identically 0 for |xi| > delta."""
        _check_sign(sign)
        b, d = self.beta, self.delta
        axi = np.abs(np.asarray(xi, dtype=np.float64))
        w = 2.0 * math.pi * b * (d - np.minimum(axi, d))  # no overflow
        out = np.where(axi > d, 0.0,
                       math.pi * (np.exp(w) - np.exp(-w)) / self._denom(sign))
        return float(out) if out.ndim == 0 else out

    # -- L1 gaps -----------------------------------------------------------

    def l1_gap(self, sign: Sign) -> float:
        """Exact L1 distance to the Poisson kernel (majorant or minorant)."""
        _check_sign(sign)
        q = math.exp(-2.0 * math.pi * self.beta * self.delta)
        if sign == "+":
            return 2.0 * math.pi * q / (1.0 - q)
        return 2.0 * math.pi * q / (1.0 + q)

    # -- kernel interface --------------------------------------------------

    def describe(self) -> dict:
        return {"family": "poisson", "beta": self.beta, "delta": self.delta}

    def real(self, sign: Sign, x) -> np.ndarray:
        """m_real from real_parts, with the phase reduced exactly to the
        nearest node (numkit.trig_sq): within a few ulps at any x, where
        m_real's cos(2 pi delta x) loses up to ulp(delta x)."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        return from_parts(sign, self.delta * x, *self.real_parts(sign, x))

    def real_parts(self, sign: Sign, x) -> tuple:
        """(f, A) with f = h_beta, A = h_beta/sinh^2(pi beta delta) ('+')
        or h_beta/cosh^2(pi beta delta) ('-'): m_real = f + A sin^2(pi
        delta x) ('+') or f - A cos^2(pi delta x) ('-'), as (e^{2a} +
        e^{-2a} - 2 cos 2c)/(e^a -+ e^{-a})^2 = 1 + sin^2 c/sinh^2 a or 1
        - cos^2 c/cosh^2 a with a = pi beta delta, c = pi delta x."""
        _check_sign(sign)
        f = np.atleast_1d(self.target(x))
        return f, f * (4.0 / self._denom(sign))

    def ft(self, sign: Sign, xi: float | np.ndarray) -> float | np.ndarray:
        return self.ft_m(sign, xi)

    def poisson_mixture(self, sign: Sign) -> tuple:
        """One member, u = beta: m_real = h_u (a + b cos(2 pi delta x))."""
        _check_sign(sign)
        c = 2.0 * math.pi * self.beta * self.delta
        D = self._denom(sign)
        return tuple(np.array([[self.beta], [(math.exp(c) + math.exp(-c)) / D],
                               [-2.0 / D]]))

    def tail_envelope(self, sign: Sign) -> float:
        """K with |m_sign(x)| <= K/x^2 on the real axis, exactly.

        |m| <= h * ((e^a + e^-a)/(e^a -/+ e^-a))^2 with a = pi b d, and
        h(x) <= b/x^2, so K = b * coth^2(a) ('+') or b ('-').
        """
        _check_sign(sign)
        a = math.pi * self.beta * self.delta
        if sign == "+":
            ratio = ((math.exp(a) + math.exp(-a))
                     / (math.exp(a) - math.exp(-a))) ** 2
        else:
            ratio = 1.0
        return self.beta * ratio

