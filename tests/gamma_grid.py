"""The explicit formula's digamma integral and archimedean term on the
Fourier side, summed on composite Gauss panels: an oracle for the closed
forms of ``explicit_formula._gamma_integral``, built from the kernel's
transform alone.

Writing phi(xi) = e^{-pi xi}/(1 - e^{-4 pi xi}) = 1/(4 pi xi) + phi_reg(xi)
for the summed Laplace weights of the poles of psi(1/4 + ix/2), one gets
for any even L1 kernel K whose transform Khat is supported in [-delta,
delta] and continuous at 0:

  (1/2pi) int K(t-x) Re psi(1/4 + ix/2) dx
    = (1/2pi) [ -Khat(0) (gamma_E + log(4 pi delta))
                - int_0^delta (Khat(xi) cos(2 pi xi t) - Khat(0))/xi dxi
                - 4 pi int_0^delta Khat(xi) cos(2 pi xi t) phi_reg(xi) dxi ],

and, for Khat also real,

  K(t+i/2) + K(t-i/2) = 4 int_0^delta Khat(xi) cosh(pi xi) cos(2 pi xi t) dxi.

cos(2 pi xi t) = 1 - 2 sin^2(pi xi t) splits both into a t-independent
constant and a weighted sum of sin^2(pi xi t), on npan 8-point Gauss panels
of [0, delta], npan = 16 2^k the smallest with npan >= 2 max(|t|, 1) delta
(no panel wider than half a period of the cosine)."""

import math

import numpy as np

from szeta.numkit import gauss_panels

EULER_GAMMA = 0.5772156649015328606


def phi_reg(xi):
    """e^{-pi xi}/(1-e^{-4 pi xi}) - 1/(4 pi xi), regular part, xi > 0;
    the Taylor series 1/4 - y/96 - y^2/128 in y = 4 pi xi near 0, where the
    two singular pieces cancel."""
    y = 4.0 * math.pi * np.asarray(xi, dtype=np.float64)
    small = y < 1e-3
    ys = np.where(small, y, 1.0)
    taylor = 0.25 - ys / 96.0 - ys * ys / 128.0
    yb = np.where(small, 1.0, y)
    direct = (np.exp(-0.25 * yb) / (-np.expm1(-yb))) - 1.0 / yb
    return np.where(small, taylor, direct)


def grid_level(t, delta):
    """2 max(|t|, 1) delta panels rounded up to 16 2^k."""
    need = math.ceil(2.0 * max(abs(t), 1.0) * delta)
    return max(16, 1 << (need - 1).bit_length())


def on_grid(kernel, sign, t, npan=None):
    """(digamma integral, arch) summed on npan panels (by default
    grid_level's), and the scale of their rounding: |constant| + sum |w q|
    per term."""
    delta = kernel.delta
    npan = grid_level(t, delta) if npan is None else npan
    ft0 = kernel.ft(sign, 0.0)
    xi, wq = gauss_panels(np.linspace(0.0, delta, npan + 1), 8)
    ft = kernel.ft(sign, xi)
    reg = phi_reg(xi)
    cosh = np.cosh(math.pi * xi)
    wft = wq * ft
    gamma0 = (-ft0 * (EULER_GAMMA + math.log(4.0 * math.pi * delta))
              - float(np.dot(wq, (ft - ft0) / xi))
              - 4.0 * math.pi * float(np.dot(wft, reg))) / (2.0 * math.pi)
    arch0 = 4.0 * float(np.dot(wft, cosh))
    w = np.stack([wft * (1.0 / xi + 4.0 * math.pi * reg) / math.pi,
                  -8.0 * wft * cosh])
    wq2 = w * np.sin(math.pi * xi * t) ** 2
    const = np.array([gamma0, arch0])
    return const + wq2.sum(axis=1), np.abs(const) + np.abs(wq2).sum(axis=1)
