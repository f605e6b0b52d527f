"""Acceptance self-test suite.

Each ``check_*`` function exercises one pillar of the library against an
independent oracle (closed forms vs. the interpolation formula or
adaptive quadrature, zero-sum identities vs. sieve sums, limits vs.
special-value constants) and returns a :class:`CheckResult`.  ``run_all``
executes the whole suite; the CLI ``selftest`` subcommand is a thin
wrapper around it.  Every value meets its band in ``_Check.band``, which
fails a value above it, or NaN.  The bands, by check:

1. majorization and nodes 0; ``m_real`` 5e-13 relative; ``ft`` the
   interpolation oracle's tolerance (at most 5.1e-14); ``l1``
   ``poisson_l1``'s (at most 1.6e-14); ``ft_out`` 0.
2. majorization 0; nodes 3e-14; ``ft`` and ``l1`` the interpolation
   oracle's tolerance (at most 7.0e-15); ``ft_out`` 0; ``inverse`` 1e-13
   relative to the target; ``inverse_far`` 1e-14.
3. residual: the zero and prime tail bounds plus 1e-5; arch 2 _ARCH_TOL =
   2e-14, the quadrature oracle's tolerance carried (odd_arch_oracle).
4. 1e-6 relative.  5. 1e-10.  6. ``ef.appendix_band``; A4 its bound times
   1 + 1e-12; the B1, B2 and B4 main-term ratios improve with x.
7. ``ef.rep_band``.  8. lambda in [1/2, 2]; split and plug-back 1e-12
   relative.  9. the two routes 1e-6; |S| below its cap.

The interpolation-formula oracle
--------------------------------
Both pairs interpolate f and f' at the nodes y/delta, y = n + c, c = 0
('+') or 1/2 ('-'), so Vaaler's formula (Bull. AMS 12 (1985), Theorem
9) gives their transforms at tau = |xi|/delta <= 1 (``interpolation_ft``)

    delta ghat(xi) = (1 - tau) sum_y F(y) cos 2 pi y tau
                     - (1/pi) sum_{y > 0} F'(y) sin 2 pi y tau,

F(y) = f(y/delta), F'(y) = f'(y/delta)/delta; ghat is exactly 0 past
delta (``ft_out``), and the L1 gaps are +-(ghat(0) - pi mu_0), the
Poisson pair's summed exactly (``poisson_l1``).  Nodes n <= N = ceil(20
delta) are summed directly, the phase y tau mod 1 exact; beyond, x > 20
and f(x) = sum_k (-1)^k mu_{2k+1} x^{-2k-2}, mu_p = int rho u^p du
(beta^p, or ``odd_moment``), to the K = 7 terms with (delta/(N+1))^2K <=
1e-16; at tau = p/q the tails are Hurwitz zetas over the q residues, s
<= 17, kept per (delta, sign, tau).  Stated error: the alternating
series' first omitted terms (below 1e-21 here), plus 16 eps per unit of
sum |F| + |F'|/pi, summed exactly (math.fsum): node values within 8.6
eps of 30-digit quadrature at every node of check 2's 24 pairs, both
signs (worst m = 0, alpha = 1/2; at most 6.8 eps elsewhere), and the
Poisson pair's within 3.1 eps at check 1's; cosines and sines of the
exact phases within 1.4 eps (40-digit mpmath); the products and factors
w and 1/pi within 1.5 eps: 11.5 eps in all; the tails' zetas within 2
eps (hurwitz_zeta against 100-digit mpmath).  ``inverse`` ties ``real``
to ``ft`` off the nodes: real(x) = 2 int_0^delta ghat cos 2 pi x xi dxi
on 16-point Gauss panels, at least ceil(2 pi delta X) + 64 nodes, X the
largest x read: at every grid point |x| < 4 within 3.6e-15 target, and
at every 16th beyond, to 120, within 2.0e-15 (``inverse_far``).
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from typing import Optional

import numpy as np

from . import bounds as bd
from . import explicit_formula as ef
from . import zeta_core as zc
from .numkit import (_EPS, Sign, frac_product, gauss_panels, hurwitz_zeta,
                     quad_adaptive, sieve_mangoldt)
from .odd_extremal import OddExtremalPair
from .poisson_extremal import PoissonExtremalPair


# ---------------------------------------------------------------------------
# result plumbing
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    """Outcome of one acceptance check."""

    name: str
    passed: bool
    runtime: float
    details: dict = field(default_factory=dict)


class _Check:
    """One running check: its clock, its failures and, per key, the worst
    value met (0 when every value is negative)."""

    def __init__(self, name: str):
        self.name = name
        self.t0 = time.perf_counter()
        self.failures: list[str] = []
        self.worst: dict[str, float] = {}

    def band(self, key: str, tag: str, value: float, limit: float) -> float:
        """Record ``value`` under ``key``; fail if it exceeds ``limit`` or
        is NaN."""
        self.worst[key] = max(self.worst.get(key, 0.0), value)
        if not value <= limit:
            self.failures.append(f"{key} {tag}: {value:.2e} > {limit:.2e}")
        return value

    def result(self, **details) -> CheckResult:
        if self.failures:
            details["failures"] = self.failures
        return CheckResult(name=self.name, passed=not self.failures,
                           runtime=time.perf_counter() - self.t0,
                           details=details)


# ---------------------------------------------------------------------------
# the interpolation-formula oracle
# ---------------------------------------------------------------------------

# the oracle's truncation and rounding tolerances (module docstring)
_ORACLE_TRUNC = 1e-16
_ORACLE_ROUND = 16


def _oracle_size(delta: float) -> tuple[int, int]:
    """(N, K): nodes n <= N are summed directly, so the tail's x exceed 20,
    and K is the fewest moment terms with (delta/(N+1))^2K <= _ORACLE_TRUNC."""
    N = math.ceil(20 * delta)
    return N, math.ceil(math.log(_ORACLE_TRUNC)
                        / (2.0 * math.log(delta / (N + 1))))


def _phase(m: np.ndarray, tau: Fraction) -> np.ndarray:
    """2 pi (y tau mod 1) at y = m/2, exact until the last two roundings."""
    q2 = 2 * tau.denominator
    return 2.0 * math.pi * ((m * tau.numerator) % q2 / q2)


@cache
def _tail_sums(delta: float, sign: Sign, tau: Fraction) -> np.ndarray:
    """Rows (C, S, A, B), k = 0..K: delta^(2k+2) sum over the nodes y > N
    + c of y^-(2k+2) cos 2 pi y tau, y^-(2k+3) sin 2 pi y tau, y^-(2k+2)
    and y^-(2k+3); at tau = p/q, y = N + 1 + c + r + q i, r < q, has the
    phase of r, so a sum is q^-s sum_r phase_r zeta(s, (N + 1 + c + r)/q)."""
    N, K = _oracle_size(delta)
    q = tau.denominator
    m = 2 * (N + 1 + np.arange(q)) + (sign == "-")  # 2y, one per residue
    ph = _phase(m, tau)
    a = np.append(m / (2.0 * q), m[0] / 2.0)  # the residues, y = N + 1 + c
    rows = np.empty((4, K + 1))
    for k in range(K + 1):
        s = 2 * k + 2
        z, z1 = hurwitz_zeta(s, a), hurwitz_zeta(s + 1, a)
        scale = (delta / q) ** s
        rows[:, k] = (scale * np.dot(np.cos(ph), z[:-1]),
                      scale / q * np.dot(np.sin(ph), z1[:-1]),
                      delta ** s * z[-1], delta ** s * z1[-1])
    rows.flags.writeable = False  # one array for every caller
    return rows


def interpolation_ft(f, mu, delta: float, sign: Sign,
                     taus: tuple) -> list[tuple[float, float]]:
    """(ghat(tau delta), tolerance) for each tau in taus (Fractions in [0,
    1]) of the pair that interpolates f and f' at the nodes (n + c)/delta
    (module docstring): f(x) gives (f, f') at an array of x, and mu(p) is
    int rho u^p du."""
    N, K = _oracle_size(delta)
    m = 2 * np.arange(N + 1) + (sign == "-")  # 2y, y >= 0
    F, Fp = f(m / (2.0 * delta))
    F, Fp = F * np.where(m == 0, 1.0, 2.0), Fp / delta  # F at y and -y
    mus = np.array([mu(2 * k + 1) for k in range(K + 1)])
    k = np.arange(K)
    cF = 2.0 * (-1.0) ** k * mus[:K]  # tails of F at y and -y
    cFp = (-1.0) ** (k + 1) * (2 * k + 2) * mus[:K]
    out = []
    for tau in taus:
        ph = _phase(m, tau)
        C, S, A, B = _tail_sums(delta, sign, tau)
        w = float(1 - tau)
        terms = np.concatenate([w * F * np.cos(ph), w * cF * C[:K],
                                Fp * np.sin(ph) / -math.pi,
                                cFp * S[:K] / -math.pi])
        size = (w * (np.sum(np.abs(F)) + np.abs(cF) @ A[:K])
                + (np.sum(np.abs(Fp)) + np.abs(cFp) @ B[:K]) / math.pi)
        trunc = mus[K] * (2.0 * w * A[K] + (2 * K + 2) * B[K] / math.pi)
        out.append((math.fsum(terms) / delta,
                    (trunc + _ORACLE_ROUND * _EPS * size) / delta))
    return out


def odd_moment(pair: OddExtremalPair, p: int) -> float:
    """int rho u^p du of the odd pair, rho = (u - a0)^n/n on [a0, 1], n = 2m
    + 1: sum_j C(p, j) a0^(p-j) L^(n+j+1)/(n (n+j+1)), L = 1 - a0."""
    a0, n, L = pair.alpha - 0.5, 2 * pair.m + 1, 1.5 - pair.alpha
    return sum(math.comb(p, j) * a0 ** (p - j) * L ** (n + j + 1)
               / (n + j + 1) for j in range(p + 1)) / n


def poisson_l1(beta: float, delta: float, sign: Sign) -> tuple[float, float]:
    """(L1 gap, tolerance) of the Poisson pair, +-(ghat(0) - pi), by the
    formula at tau = 0: the node sum, of b/(b^2 + y^2), b = beta delta,
    over |y| <= N, less pi, exact (Fractions; pi to 3e-33), plus the tail,
    interpolation_ft from zero node values, rounded once: no cancellation,
    so the band scales with the gap (1.3e-3 at b = 1.35, '-').  Tolerance:
    the tail's, and 4 eps per unit of |gap| + 1e-16 for that rounding and
    the served gap's (within 2.6 eps of 40-digit mpmath in check 1)."""
    b, c = Fraction(beta) * Fraction(delta), int(sign == "-")
    (tail, tol), = interpolation_ft(lambda x: (0 * x, 0 * x),
                                    partial(pow, beta), delta, sign,
                                    (Fraction(0),))
    gap = (1 - 2 * c) * float(sum(
        (2 - (n + c == 0)) * b / (b * b + Fraction(2 * n + c, 2) ** 2)
        for n in range(_oracle_size(delta)[0] + 1)) + Fraction(tail)
        - Fraction(math.pi) - Fraction(1.2246467991473532e-16))
    return gap, tol + 4 * _EPS * (abs(gap) + 1e-16)


# ---------------------------------------------------------------------------
# 1-2. extremal pairs
# ---------------------------------------------------------------------------

def _majorization_and_nodes(c: _Check, pair, sign: str, tag: str,
                            x: np.ndarray, fx: np.ndarray, nodes: np.ndarray,
                            target, node_band: float) -> np.ndarray:
    """Majorization of ``real`` at x over the target values fx (band 0:
    real - target is trig times a positive term), and ``real`` against
    ``target`` at ``nodes``; returns ``real`` at x."""
    gv = pair.real(sign, x)
    s = 1.0 if sign == "+" else -1.0
    c.band("maj", tag, -float(np.min(s * (gv - fx))), 0.0)
    c.band("node", tag, float(np.max(np.abs(pair.real(sign, nodes)
                                            - target(nodes)))), node_band)
    return gv


# check 1-2 frequencies xi = tau delta: tau = 0 for the L1 gap, two inside
# the band for ft, and 1.2 outside, where ft is exactly 0 (ft_out)
_TAUS = (Fraction(0), Fraction(3, 10), Fraction(7, 10))


def _fourier_side(c: _Check, pair, sign: Sign, tag: str, f, mu,
                  gap: Optional[tuple[float, float]] = None) -> None:
    """The served ft against interpolation_ft from f and f' at the nodes,
    and exactly 0 past the band; l1_gap against gap, (value, tolerance),
    by default +-(ghat(0) - pi mu(0)), inside ghat(0)'s tolerance."""
    (g0, tol0), *inside = interpolation_ft(f, mu, pair.delta, sign, _TAUS)
    s = 1.0 if sign == "+" else -1.0
    value, tol = gap or (s * (g0 - math.pi * mu(0)), tol0)
    c.band("l1", tag, abs(value - pair.l1_gap(sign)), tol)
    xis = np.array([float(t) for t in _TAUS[1:]] + [1.2]) * pair.delta
    served = pair.ft(sign, xis)
    for (v, tol), xi, ft in zip(inside, xis, served):
        c.band("ft", f"{tag} xi={xi}", abs(v - ft), tol)
    c.band("ft_out", f"{tag} xi={xis[-1]}", abs(served[-1]), 0.0)


def check_poisson_suite() -> CheckResult:
    """Majorization and node interpolation of ``real``, ``real`` against
    m_real, and ``ft`` and ``l1_gap`` against the interpolation formula."""
    c = _Check("poisson_suite")
    xgrid = np.linspace(-40.0, 40.0, 10001)
    k = np.arange(0, 20, dtype=np.float64)
    for beta in (0.05, 0.15, 0.3, 0.45):
        for delta in (1.0, 1.5, 3.0):
            p = PoissonExtremalPair(beta=beta, delta=delta)
            h = p.target(xgrid)
            for sign in "+-":
                tag = f"beta={beta} delta={delta} sign={sign}"
                # nodes: integers/delta ('+') or half-integers/delta
                # ('-'), where real equals the target bit for bit
                nodes = (k if sign == "+" else k + 0.5) / delta
                gv = _majorization_and_nodes(c, p, sign, tag, xgrid, h,
                                             nodes, p.target, 0.0)
                # m_real, another form of the pair whose cos(2 pi delta
                # x) is unreduced: within 5e-13 relative (worst 1.2e-13)
                c.band("ref", tag,
                       float(np.max(np.abs(p.m_real(sign, xgrid) - gv)
                                    / np.maximum(np.abs(gv), h))), 5e-13)
                _fourier_side(c, p, sign, tag, lambda x, b=beta: (
                    b / (b * b + x * x), -2.0 * b * x / (b * b + x * x) ** 2),
                    lambda n, b=beta: b ** n, poisson_l1(beta, delta, sign))
    return c.result(worst=c.worst)


def check_odd_suite() -> CheckResult:
    """Majorization and node interpolation of ``real`` against f_odd_vec,
    ``ft`` and ``l1_gap`` against the interpolation formula from f_odd_vec
    and f_even_vec at the nodes, and ``real`` against the inverse transform
    of ``ft`` on the whole grid."""
    c = _Check("odd_suite")
    k = np.arange(1, 13, dtype=np.float64)
    grids = {}
    for delta in (1.0, 2.0):
        # 8-point Gauss panels of width 1/(4 delta) on [0, 120], none on a
        # node, n below 4; the inverse reads every point below 4 and every
        # 16th beyond, on 16-point panels of [0, delta] with at least
        # ceil(2 pi delta X) + 64 nodes, X the largest point it reads
        x = gauss_panels(np.linspace(0.0, 120.0, int(480 * delta) + 1), 8)[0]
        n = int(np.searchsorted(x, 4.0))
        xs = np.concatenate([x[:n], x[n::16]])
        panels = math.ceil((math.ceil(2 * math.pi * delta * xs[-1]) + 64) / 16)
        xi, w = gauss_panels(np.linspace(0.0, delta, panels + 1), 16)
        grids[delta] = (x, n, xi,
                        2.0 * w * np.cos(2 * math.pi * np.outer(xs, xi)))
    for m in (0, 1, 2):
        for alpha in (0.5, 0.6, 0.75, 0.9):
            for delta, (x, n, xi, cosines) in grids.items():
                pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
                fv = pair.f_odd_vec(x)
                for sign in "+-":
                    tag = f"m={m} alpha={alpha} delta={delta} sign={sign}"
                    # mixture and log forms of f agree at the nodes to 3.3e-16
                    nodes = (k if sign == "+" else k - 0.5) / delta
                    gv = _majorization_and_nodes(c, pair, sign, tag, x, fv,
                                                 nodes, pair.f_odd_vec, 3e-14)
                    _fourier_side(c, pair, sign, tag, lambda x, p=pair: (
                        p.f_odd_vec(x), -p.f_even_vec(x)),
                        partial(odd_moment, pair))
                    # real(x) = 2 int_0^delta ghat(xi) cos(2 pi x xi) dxi,
                    # relative to the target below 4, absolute beyond
                    inv = cosines @ pair.ft(sign, xi)
                    c.band("inverse", tag, float(np.max(
                        np.abs(gv[:n] - inv[:n]) / fv[:n])), 1e-13)
                    c.band("inverse_far", tag, float(np.max(
                        np.abs(gv[n::16] - inv[n:]))), 1e-14)
    return c.result(worst=c.worst)


# ---------------------------------------------------------------------------
# 3. explicit-formula identity
# ---------------------------------------------------------------------------

# check 3's arch oracle tolerance; its band is twice it, the rest for the
# served sum's rounding (explicit_formula's docstring), < 1e-17 there
_ARCH_TOL = 1e-14


def odd_arch_oracle(pair: OddExtremalPair, sign: str,
                    t: float) -> tuple[float, float]:
    """2 Re K(t + i/2) for the odd pair, and its tolerance: quad_adaptive
    over u in [a0, 1] of rho(u) 2 Re h_u(z) (a + b cos(2 pi delta z)), z =
    t + i/2, a = 1 -+ b and b = -1/(2 {sinh^2, cosh^2}(pi u delta)) as in
    poisson_mixture per unit weight, with delta t reduced exactly
    (frac_product): no sigma grid, no product form."""
    a0, n, d = pair.alpha - 0.5, 2 * pair.m + 1, pair.delta
    z, s = complex(t, 0.5), -1.0 if sign == "+" else 1.0
    c = cmath.cos(2.0 * math.pi * (frac_product(d, t) + 0.5j * d)) + s
    trig = math.sinh if sign == "+" else math.cosh

    def f(u):  # rho(u) 2 Re h_u(z) (1 + b (cos + s)), a = 1 + b s
        b = -0.5 / trig(math.pi * u * d) ** 2
        return (u - a0) ** n / n * 2.0 * (u / (u * u + z * z)
                                          * (1.0 + b * c)).real
    return quad_adaptive(f, a0, 1.0, _ARCH_TOL), _ARCH_TOL


def check_explicit_formula(zeros: Optional[zc.ZeroTable] = None) \
        -> CheckResult:
    """Explicit-formula residuals within their tails; the odd pair's arch
    term against quadrature in u (odd_arch_oracle)."""
    c = _Check("explicit_formula")
    zeros = zc.bundled_zeros() if zeros is None else zeros
    reports = []
    table = sieve_mangoldt(int(math.ceil(math.exp(4 * math.pi))) + 1)
    for t, delta in ((50.0, 1.5), (100.0, 2.0)):
        kernels = (("poisson", PoissonExtremalPair(beta=0.25, delta=delta)),
                   ("odd", OddExtremalPair(m=0, alpha=0.75, delta=delta)))
        for kname, kernel in kernels:
            for sign in ("+", "-"):
                rep = ef.gw_evaluate(kernel, sign, t, delta, zeros,
                                     mangoldt=table)
                band = rep.zero_tail_bound + rep.prime_tail_bound + 1e-5
                row = {"kernel": kname, "sign": sign, "t": t,
                       "delta": delta, "residual": rep.residual, "band": band}
                reports.append(row)
                tag = f"{kname} {sign} t={t} delta={delta}"
                c.band("residual", tag, abs(rep.residual), band)
                if kname == "odd":
                    ref, tol = odd_arch_oracle(kernel, sign, t)
                    row.update(arch_diff=rep.arch_terms - ref,
                               arch_band=2 * tol)
                    c.band("arch", tag, abs(row["arch_diff"]), 2 * tol)
    return c.result(reports=reports)


# ---------------------------------------------------------------------------
# 4. limit recovery of the closed-form constants
# ---------------------------------------------------------------------------

def check_theorem1_limits() -> CheckResult:
    """c_n at alpha just above 1/2 vs. the exact half-line constants."""
    c = _Check("theorem1_limits")
    t = math.exp(math.exp(4.0))
    alpha = 0.5 + 1e-9
    rels = {}
    for n in (0, 1, 2, 3, 4, 5, 7):
        for sign in ("+", "-"):
            lim = bd.c_n(n, alpha, t, sign)
            ref = bd.theorem1_constant(n, sign)
            rels[f"n={n}{sign}"] = c.band("rel", f"n={n} sign={sign}",
                                          abs(lim - ref) / abs(ref), 1e-6)
    return c.result(rel_errors=rels)


# ---------------------------------------------------------------------------
# 5. half-line log-modulus integral identity
# ---------------------------------------------------------------------------

def check_corollary_integral() -> CheckResult:
    """Quadrature of the sigma-integral vs. its closed form."""
    c = _Check("corollary_integral")
    diffs = {}
    for t in (1e6, 1e12):
        L = math.log(t)

        def integrand(sig: float) -> float:
            return L ** (2 - 2 * sig) / (1.0 + L ** (1 - 2 * sig))

        num = quad_adaptive(integrand, 0.5, 1.0, 1e-13)
        closed = (math.log(2.0) / 2.0 * L / math.log(L)
                  - L * math.log1p(1.0 / L) / (2.0 * math.log(L)))
        diffs[f"t={t:g}"] = c.band("diff", f"t={t:g}", abs(num - closed),
                                   1e-10)
    return c.result(diffs=diffs)


# ---------------------------------------------------------------------------
# 6. asymptotic displays vs. direct evaluation
# ---------------------------------------------------------------------------

def check_appendix() -> CheckResult:
    """Integral/sieve displays against their main terms and bounds."""
    c = _Check("appendix")
    summary = {}
    for x in (1e5, 1e6):
        for alpha in (0.7, 0.8):
            for m in (0, 1):
                for aid in ("A1", "A2", "A3"):
                    chk = ef.appendix_asymptotic(
                        aid, {"x": x, "alpha": alpha, "m": m, "k": 1})
                    tag = f"x={x:g} a={alpha} m={m}"
                    summary[f"{aid} {tag}"] = c.band(
                        aid, tag, chk.deviation_multiple,
                        ef.appendix_band(aid, m))
            tag = f"x={x:g} a={alpha}"
            # A4: exact inequality (alpha > 1/2 branch)
            chk = ef.appendix_asymptotic("A4", {"x": x, "alpha": alpha})
            summary[f"A4 {tag}"] = chk.direct - chk.main_term
            c.band("A4", tag, chk.direct, chk.main_term * (1 + 1e-12))
            # A5: sum below its displayed bound times the default band
            chk = ef.appendix_asymptotic("A5", {"x": x, "alpha": alpha,
                                                "m": 0})
            summary[f"A5 {tag}"] = c.band("A5", tag, chk.deviation_multiple,
                                          ef.appendix_band("A5"))
    # B-family: sieve sums, improvement tracked through growing x
    ratio_track = {"B1": [], "B2": [], "B4": []}
    for x in (1e4, 1e5, 1e6):
        for aid, m in (("B1", 0), ("B1", 1), ("B2", 0)):
            chk = ef.appendix_asymptotic(aid, {"x": x, "alpha": 0.7,
                                               "m": m, "k": 1})
            tag = f"x={x:g} m={m}"
            summary[f"{aid} {tag}"] = c.band(
                aid, tag, chk.deviation_multiple, ef.appendix_band(aid, m))
            if m == 0:
                ratio_track[aid].append(
                    abs(chk.direct / chk.main_term - 1.0))
        for aid, params in (("B3", {"alpha": 0.7, "m": 0}),
                            ("B4", {"beta": 0.25})):
            chk = ef.appendix_asymptotic(aid, {"x": x, **params})
            summary[f"{aid} x={x:g}"] = c.band(
                aid, f"x={x:g}", chk.deviation_multiple,
                ef.appendix_band(aid))
        ratio_track["B4"].append(abs(chk.direct / chk.main_term - 1.0))
    for aid, seq in ratio_track.items():
        summary[f"{aid} ratio path"] = seq
        if not seq[-1] < seq[0]:
            c.failures.append(f"{aid}: main-term ratio not improving "
                              f"{seq}")
    return c.result(summary=summary)


# ---------------------------------------------------------------------------
# 7. representation-lemma consistency
# ---------------------------------------------------------------------------

def check_representation(zeros: Optional[zc.ZeroTable] = None) \
        -> CheckResult:
    """Zero-sum representation vs. the direct route, within bands."""
    c = _Check("representation")
    zeros = zc.bundled_zeros() if zeros is None else zeros
    rows = []
    for n, alpha, t in ((-1, 0.75, 100.0), (1, 0.6, 100.0),
                        (0, 0.6, 100.0)):
        rep = ef.rep_sum(n, alpha, t, zeros)
        direct = zc.s_n_direct(n, alpha, t, zeros)
        diff = rep.value - direct.value
        band = ef.rep_band(rep)
        rows.append({"n": n, "alpha": alpha, "t": t, "diff": diff,
                     "band": band})
        c.band("diff", f"n={n} alpha={alpha} t={t}", abs(diff), band)
    return c.result(rows=rows)


# ---------------------------------------------------------------------------
# 8. interpolation-optimizer identities
# ---------------------------------------------------------------------------

def check_interpolation() -> CheckResult:
    """lambda range and exact plug-back of the optimized bracket."""
    c = _Check("interpolation")
    lams = []
    for n in (0, 2, 4):
        for alpha in (0.6, 0.75):
            for t in (math.exp(math.exp(4.0)), math.exp(math.exp(5.0))):
                tag = f"n={n} alpha={alpha} t={t:g}"
                ip = bd.interp_params(n, alpha, t)
                lams.append(ip.lam)
                if not 0.5 <= ip.lam <= 2.0:
                    c.failures.append(f"lambda out of range {tag}: {ip.lam}")
                cp, cm = (bd.c_odd(n + 1, alpha, t, s) for s in "+-")
                if n == 0:
                    ch = bd.c_odd(-1, alpha, t, "-")
                else:
                    lowp, lowm = (bd.c_odd(n - 1, alpha, t, s) for s in "+-")
                    ch = ip.a * lowm  # == ip.b * lowp at the optimum
                    c.band("split", tag, abs(ip.a * lowm - ip.b * lowp),
                           1e-12 * lowp)
                bracket = (cp + cm) / ip.lam + ch * ip.lam / 2.0
                target = bd.c_even(n, alpha, t)
                c.band("plug-back", tag, abs(bracket - target),
                       1e-12 * abs(target))
    return c.result(lam_range=[min(lams), max(lams)])


# ---------------------------------------------------------------------------
# 9. argument-function cross-route
# ---------------------------------------------------------------------------

def check_count_cross_route(zeros: Optional[zc.ZeroTable] = None) \
        -> CheckResult:
    """Counting-function route vs. direct argument, plus the size cap."""
    c = _Check("count_cross_route")
    zeros = zc.bundled_zeros() if zeros is None else zeros
    rows = []
    for t in (25.3, 40.2, 55.7, 70.4, 95.1):
        _, s_count = zc.count_zeros(t, zeros)
        s_direct = zc.s_n_direct(0, 0.5, t).value
        cap = (0.25 * math.log(t) / math.log(math.log(t))
               + 5.0 * math.log(t) / math.log(math.log(t)) ** 2)
        rows.append({"t": t, "s_count": s_count, "s_direct": s_direct,
                     "cap": cap})
        c.band("routes", f"t={t}", abs(s_count - s_direct), 1e-6)
        if abs(s_count) >= cap:
            c.failures.append(f"t={t}: |S|={abs(s_count):.3f} >= "
                              f"cap {cap:.3f}")
    return c.result(rows=rows)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_all(zeros: Optional[zc.ZeroTable] = None) -> list[CheckResult]:
    """Run the full acceptance suite on one zero table (None: the bundled
    one), shared by every check that reads zeros."""
    zeros = zc.bundled_zeros() if zeros is None else zeros
    return [
        check_poisson_suite(),
        check_odd_suite(),
        check_explicit_formula(zeros),
        check_theorem1_limits(),
        check_corollary_integral(),
        check_appendix(),
        check_representation(zeros),
        check_interpolation(),
        check_count_cross_route(zeros),
    ]
