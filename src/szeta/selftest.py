"""Acceptance self-test suite.

Each ``check_*`` function exercises one pillar of the library against an
independent oracle (closed forms vs. adaptive/oscillatory quadrature,
zero-sum identities vs. sieve sums, limits vs. special-value constants)
and returns a :class:`CheckResult`.  ``run_all`` executes the whole
suite; the CLI ``selftest`` subcommand is a thin wrapper around it.
Every value meets its band in ``_Check.band``, which fails a value above
it, or NaN.  The bands, by check:

1. majorization and nodes 0; ``m_real`` 5e-13 relative; ``l1`` and ``ft``
   the oracles' quadrature tolerances (``_cos_integral``) over D.
2. majorization 0; nodes 3e-14; derivative 1e-4; ``ft`` and ``ft_out``
   1e-6, ``l1`` 1e-7 (window quadrature); ``series`` _SERIES_TOL.
3. residual: the zero and prime tail bounds plus 1e-5; arch 2 _ARCH_TOL =
   2e-14, the quadrature oracle's tolerance carried (odd_arch_oracle).
4. 1e-6 relative.  5. 1e-10.  6. ``ef.appendix_band``; A4 its bound times
   1 + 1e-12; the B1, B2 and B4 main-term ratios improve with x.
7. ``ef.rep_band``.  8. lambda in [1/2, 2]; split and plug-back 1e-12
   relative.  9. the two routes 1e-6; |S| below its cap.

Numerical Fourier-side oracles
------------------------------
Two quadrature oracles are used for kernels whose tails decay only like
1/x^2 (so plain adaptive quadrature of the oscillatory integrand is
hopeless):

* Poisson-family integrands factor as b/(b^2+x^2) times cosines, so
  they are split into cosine transforms of b/(b^2+x^2).  Each is adaptive
  quadrature over a whole number of periods plus the tail beyond, which
  repeated integration by parts gives to about 1e-17.
* The odd family has no such factorization; :class:`WindowedLine`
  integrates panel-by-panel to X = 120, forms *exact* averages of the
  cumulative integral over windows of length 10/delta (one full period
  of every oscillation present, so oscillatory parts cancel exactly),
  and extrapolates the window averages in 1/T to T = infinity.  The
  windows are centred at 5 stations; a cubic fit in 1/T leaves ~1e-7
  absolute error, comfortably inside the tolerances below.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import bounds as bd
from . import explicit_formula as ef
from . import zeta_core as zc
from .numkit import frac_product, quad_adaptive, sieve_mangoldt
from .odd_extremal import _SERIES_TOL, OddExtremalPair
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
# quadrature oracles
# ---------------------------------------------------------------------------

# _cos_integral: periods of cos(w x) by quadrature, integrations by parts
_COS_PERIODS = 8
_COS_PARTS = 10
_COS_TOL = 1e-13  # the tolerance of each quadrature


def _cos_integral(b: float, w: float) -> tuple[float, float]:
    """int_0^inf b/(b^2+x^2) cos(w x) dx for b > 0, w >= 0, and its
    tolerance: _COS_TOL, or 2 _COS_TOL for w = 0 (two quadratures).

    quad_adaptive on [0, X], X = n = _COS_PERIODS periods of cos(w x),
    then the tail.  With f = b/(b^2+x^2) = Im 1/(x - ib), whose k-th
    derivative is Im (-1)^k k!/(x - ib)^(k+1), K = _COS_PARTS integrations
    by parts over [X, inf), where cos(w X) = 1 and sin(w X) = 0, give

        sum_{j=1..K} (-1)^j f^(2j-1)(X) / w^(2j),

    with a remainder of at most w^(-2K) int_X^inf |f^(2K)| <=
    (2K-1)!/(w X)^(2K) = (2K-1)!/(2 pi n)^(2K), 1.1e-17.  For w = 0 the
    tail int_X^inf f dx becomes int_0^(1/X) b/(1 + b^2 u^2) du under
    u = 1/x, and X = 1.
    """
    def f(x):
        return b / (b * b + x * x)
    if w == 0.0:
        return (quad_adaptive(f, 0.0, 1.0, _COS_TOL)
                + quad_adaptive(lambda u: b / (1.0 + b * b * u * u),
                                0.0, 1.0, _COS_TOL)), 2 * _COS_TOL
    X = _COS_PERIODS * 2.0 * math.pi / w
    head = quad_adaptive(lambda x: f(x) * math.cos(w * x), 0.0, X, _COS_TOL)
    z = complex(X, -b)
    tail = sum((-1) ** j * (-math.factorial(2 * j - 1)
                            / z ** (2 * j)).imag / w ** (2 * j)
               for j in range(1, _COS_PARTS + 1))
    return head + tail, _COS_TOL


def poisson_ft_oracle(pair: PoissonExtremalPair, sign: str,
                      xi: float) -> tuple[float, float]:
    """Numerical full-line Fourier integral of the extremal function, and
    its tolerance carried from the cosine integrals'.

    m(x)cos(2 pi xi x) expands over cos(2 pi xi x), cos(2 pi (d+xi) x)
    and cos(2 pi (d-xi) x) against the smooth factor b/(b^2+x^2); each
    piece is a cosine transform, ``_cos_integral``.
    """
    b, d = pair.beta, pair.delta
    D = pair._denom(sign)
    a = 2.0 * math.pi * b * d
    C = math.exp(a) + math.exp(-a)
    (i0, e0), (i1, e1), (i2, e2) = (
        _cos_integral(b, 2 * math.pi * w) for w in (xi, d + xi, abs(d - xi)))
    return 2.0 * ((C * i0 - i1 - i2) / D), 2.0 * (C * e0 + e1 + e2) / D


def poisson_l1_oracle(pair: PoissonExtremalPair,
                      sign: str) -> tuple[float, float]:
    """Numerical L1 gap |m - h| via the same cosine decomposition, and its
    tolerance."""
    b, d = pair.beta, pair.delta
    i0, e0 = _cos_integral(b, 0.0)
    ic, ec = _cos_integral(b, 2 * math.pi * d)
    s = -1.0 if sign == "+" else 1.0
    D = pair._denom(sign)
    return 4.0 * (i0 + s * ic) / D, 4.0 * (e0 + ec) / D


class WindowedLine:
    """Window-averaged half-line quadrature with 1/T extrapolation.

    Samples a fixed Gauss-Legendre grid on [0, X] once; any integrand
    evaluated on those nodes can then be reduced to int_0^inf via exact
    continuous averages of the cumulative integral over period-matched
    windows and a least-squares fit in 1/T.  Even integrands only:
    callers double the result.
    """

    def __init__(self, delta: float, X: float = 120.0):
        self.w = 0.25 / delta
        self.npw = 40  # window length 10/delta = one period of all modes
        self.n = int(math.ceil(X / self.w))
        gx, gw = np.polynomial.legendre.leggauss(8)
        self.edges = np.arange(self.n + 1) * self.w
        mid = 0.5 * (self.edges[1:] + self.edges[:-1])
        half = self.w / 2.0
        self.nodes2d = mid[:, None] + half * gx[None, :]
        self.nodes = self.nodes2d.ravel()
        self.wq = half * gw

    def integral(self, vals: np.ndarray) -> float:
        """2 * int_0^inf of the even function sampled at self.nodes."""
        v = vals.reshape(self.n, 8)
        pan = v @ self.wq
        # second antiderivative increments: int over panel of (edge-x)f
        pan2 = ((self.edges[1:, None] - self.nodes2d) * v
                * self.wq[None, :]).sum(axis=1)
        P = np.concatenate([[0.0], np.cumsum(pan)])
        Q = np.concatenate([[0.0], np.cumsum(P[:-1] * self.w + pan2)])
        A, Ts = [], []
        for frac in (0.55, 0.66, 0.77, 0.88, 1.0):
            # window edges snapped to the common period grid so the
            # residual oscillation has the same phase at every station
            # and is absorbed by the smooth 1/T fit
            j1 = min(self.npw * int(round(frac * self.n / self.npw)),
                     self.n)
            j0 = j1 - self.npw
            width = self.edges[j1] - self.edges[j0]
            A.append((Q[j1] - Q[j0]) / width)
            Ts.append(0.5 * (self.edges[j0] + self.edges[j1]))
        A = np.asarray(A)
        Ts = np.asarray(Ts)
        M = np.vstack([np.ones_like(Ts), 1 / Ts, Ts ** -2.0,
                       Ts ** -3.0]).T
        coef, *_ = np.linalg.lstsq(M, A, rcond=None)
        return 2.0 * coef[0]


# ---------------------------------------------------------------------------
# 1-2. extremal pairs
# ---------------------------------------------------------------------------

def _majorization_and_nodes(c: _Check, pair, sign: str, tag: str,
                            x: np.ndarray, fx: np.ndarray,
                            nodes: np.ndarray, target,
                            node_band: float) -> np.ndarray:
    """Majorization of ``real`` at x over the target values fx (band 0:
    real - target is trig times a positive term), and ``real`` against
    ``target`` at ``nodes``; returns ``real`` at x."""
    gv = pair.real(sign, x)
    s = 1.0 if sign == "+" else -1.0
    c.band("maj", tag, -float(np.min(s * (gv - fx))), 0.0)
    c.band("node", tag, float(np.max(np.abs(pair.real(sign, nodes)
                                            - target(nodes)))), node_band)
    return gv


def check_poisson_suite() -> CheckResult:
    """Majorization and node interpolation of the served values
    (``real``), ``real`` against the reference m_real, and the closed
    forms against quadrature."""
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
                l1, tol = poisson_l1_oracle(p, sign)
                c.band("l1", tag, abs(l1 - p.l1_gap(sign)), tol)
                for q in (0.3, 0.7, 1.2):
                    xi = q * delta
                    ft, tol = poisson_ft_oracle(p, sign, xi)
                    c.band("ft", f"{tag} xi={xi}",
                           abs(ft - p.ft_m(sign, xi)), tol)
    return c.result(worst=c.worst)


def check_odd_suite() -> CheckResult:
    """Odd-family majorization, interpolation, FT and L1 cross-checks of
    the served values (``real``) against the log-form target f_odd_vec
    and window quadrature, and of ``real`` against the interpolation
    series g_real."""
    c = _Check("odd_suite")
    windows: dict[float, WindowedLine] = {}
    k = np.arange(1, 13, dtype=np.float64)
    h = 1e-3
    for m in (0, 1, 2):
        for alpha in (0.5, 0.6, 0.75, 0.9):
            for delta in (1.0, 2.0):
                pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
                W = windows.setdefault(delta, WindowedLine(delta))
                fv = pair.f_odd_vec(W.nodes)
                for sign in "+-":
                    tag = f"m={m} alpha={alpha} delta={delta} sign={sign}"
                    # at the nodes the mixture and log forms of f agree
                    # to 3.3e-16
                    nodes = (k if sign == "+" else k - 0.5) / delta
                    gv = _majorization_and_nodes(c, pair, sign, tag, W.nodes,
                                                 fv, nodes, pair.f_odd_vec,
                                                 3e-14)
                    # derivative at nodes: f' = -f_even, vs. central
                    # difference of g (origin skipped for '+')
                    dn = nodes[:3]
                    gd = (pair.real(sign, dn + h)
                          - pair.real(sign, dn - h)) / (2 * h)
                    c.band("deriv", tag, float(np.max(np.abs(
                        gd + pair.f_even_vec(dn)))), 1e-4)
                    # ft_g is exactly 0 beyond the support (ft_out)
                    xis = np.array([0.3, 0.7, 1.2]) * delta
                    for xi, ft in zip(xis, pair.ft_g(sign, xis)):
                        cv = np.cos(2 * math.pi * xi * W.nodes)
                        c.band("ft" if xi < delta else "ft_out",
                               f"{tag} xi={xi}",
                               abs(W.integral(gv * cv) - ft), 1e-6)
                    c.band("l1", tag, abs(W.integral(np.abs(gv - fv))
                                          - pair.l1_gap_odd(sign)), 1e-7)
    # the served mixture against the interpolation series, an independent
    # construction of the same pair, within the series' own tolerance,
    # on one pair per delta whose sigma grid is short (32 nodes), since
    # the series builds its nodes from sigma-sums
    for delta, W in windows.items():
        pair = OddExtremalPair(m=0, alpha=0.75, delta=delta)
        for sign in "+-":
            c.band("series", f"delta={delta} sign={sign}",
                   float(np.max(np.abs(pair.real(sign, W.nodes)
                                       - pair.g_real(sign, W.nodes)))),
                   _SERIES_TOL)
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
    if zeros is None:
        zeros = zc.bundled_zeros()
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
    if zeros is None:
        zeros = zc.bundled_zeros()
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
    lam_range = [math.inf, -math.inf]
    for n in (0, 2, 4):
        for alpha in (0.6, 0.75):
            for t in (math.exp(math.exp(4.0)), math.exp(math.exp(5.0))):
                tag = f"n={n} alpha={alpha} t={t:g}"
                ip = bd.interp_params(n, alpha, t)
                lam_range = [min(lam_range[0], ip.lam),
                             max(lam_range[1], ip.lam)]
                if not 0.5 <= ip.lam <= 2.0:
                    c.failures.append(f"lambda out of range {tag}: "
                                      f"{ip.lam}")
                cp = bd.c_odd(n + 1, alpha, t, "+")
                cm = bd.c_odd(n + 1, alpha, t, "-")
                if n == 0:
                    ch = bd.c_odd(-1, alpha, t, "-")
                else:
                    lowp = bd.c_odd(n - 1, alpha, t, "+")
                    lowm = bd.c_odd(n - 1, alpha, t, "-")
                    ch = ip.a * lowm  # == ip.b * lowp at the optimum
                    c.band("split", tag, abs(ip.a * lowm - ip.b * lowp),
                           1e-12 * lowp)
                bracket = (cp + cm) / ip.lam + ch * ip.lam / 2.0
                target = bd.c_even(n, alpha, t)
                c.band("plug-back", tag, abs(bracket - target),
                       1e-12 * abs(target))
    return c.result(lam_range=lam_range)


# ---------------------------------------------------------------------------
# 9. argument-function cross-route
# ---------------------------------------------------------------------------

def check_count_cross_route(zeros: Optional[zc.ZeroTable] = None) \
        -> CheckResult:
    """Counting-function route vs. direct argument, plus the size cap."""
    c = _Check("count_cross_route")
    if zeros is None:
        zeros = zc.bundled_zeros()
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
    if zeros is None:
        zeros = zc.bundled_zeros()
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
