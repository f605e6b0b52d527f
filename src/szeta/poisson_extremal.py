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

from .numkit import DomainError, Sign, _check_sign


@dataclass(frozen=True)
class PoissonExtremalPair:
    """Parameters (beta, delta) of the extremal pair for beta/(beta^2+x^2);
    an explicit_formula.Kernel on top of m_real and ft_m alone."""

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
        """Vectorized evaluation on the real axis (no singularities there)."""
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
        return np.atleast_1d(self.m_real(sign, x))

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

