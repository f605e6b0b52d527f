"""Acceptance self-test suite.

Each ``check_*`` function exercises one pillar of the library against an
independent oracle (closed forms vs. adaptive/oscillatory quadrature,
zero-sum identities vs. sieve sums, limits vs. special-value constants)
and returns a :class:`CheckResult`.  ``run_all`` executes the whole
suite; the CLI ``selftest`` subcommand is a thin wrapper around it.

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

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import bounds as bd
from . import explicit_formula as ef
from . import zeta_core as zc
from .numkit import quad_adaptive, sieve_mangoldt
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


def _result(name: str, t0: float, failures: list, **details) -> CheckResult:
    details = dict(details)
    if failures:
        details["failures"] = failures
    return CheckResult(name=name, passed=not failures,
                       runtime=time.perf_counter() - t0, details=details)


# ---------------------------------------------------------------------------
# quadrature oracles
# ---------------------------------------------------------------------------

# _cos_integral: periods of cos(w x) by quadrature, integrations by parts
_COS_PERIODS = 8
_COS_PARTS = 10


def _cos_integral(b: float, w: float) -> float:
    """int_0^inf b/(b^2+x^2) cos(w x) dx for b > 0, w >= 0, to about 1e-13.

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
        return (quad_adaptive(f, 0.0, 1.0, 1e-13)
                + quad_adaptive(lambda u: b / (1.0 + b * b * u * u),
                                0.0, 1.0, 1e-13))
    X = _COS_PERIODS * 2.0 * math.pi / w
    head = quad_adaptive(lambda x: f(x) * math.cos(w * x), 0.0, X, 1e-13)
    z = complex(X, -b)
    tail = sum((-1) ** j * (-math.factorial(2 * j - 1)
                            / z ** (2 * j)).imag / w ** (2 * j)
               for j in range(1, _COS_PARTS + 1))
    return head + tail


def poisson_ft_oracle(pair: PoissonExtremalPair, sign: str,
                      xi: float) -> float:
    """Numerical full-line Fourier integral of the extremal function.

    m(x)cos(2 pi xi x) expands over cos(2 pi xi x), cos(2 pi (d+xi) x)
    and cos(2 pi (d-xi) x) against the smooth factor b/(b^2+x^2); each
    piece is a cosine transform, ``_cos_integral``.
    """
    b, d = pair.beta, pair.delta
    D = pair._denom(sign)
    a = 2.0 * math.pi * b * d
    C = math.exp(a) + math.exp(-a)
    val = (C * _cos_integral(b, 2 * math.pi * xi)
           - _cos_integral(b, 2 * math.pi * (d + xi))
           - _cos_integral(b, 2 * math.pi * abs(d - xi))) / D
    return 2.0 * val


def poisson_l1_oracle(pair: PoissonExtremalPair, sign: str) -> float:
    """Numerical L1 gap |m - h| via the same cosine decomposition."""
    b, d = pair.beta, pair.delta
    i0 = _cos_integral(b, 0.0)
    ic = _cos_integral(b, 2 * math.pi * d)
    s = -1.0 if sign == "+" else 1.0
    return 4.0 * (i0 + s * ic) / pair._denom(sign)


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
# 1. Poisson extremal suite
# ---------------------------------------------------------------------------

def check_poisson_suite() -> CheckResult:
    """Majorization, node interpolation, and closed forms vs. quadrature."""
    t0 = time.perf_counter()
    failures = []
    betas = (0.05, 0.15, 0.3, 0.45)
    deltas = (1.0, 1.5, 3.0)
    xgrid = np.linspace(-40.0, 40.0, 10001)
    worst = {"maj": 0.0, "node": 0.0, "l1": 0.0, "ft": 0.0}
    for beta in betas:
        for delta in deltas:
            p = PoissonExtremalPair(beta=beta, delta=delta)
            h = p.target(xgrid)
            for sign, s in (("+", 1.0), ("-", -1.0)):
                tag = f"beta={beta} delta={delta} sign={sign}"
                viol = float(np.min(s * (p.m_real(sign, xgrid) - h)))
                worst["maj"] = max(worst["maj"], -viol)
                if viol < -1e-12:
                    failures.append(f"majorization {tag}: {viol:.2e}")
                # interpolation nodes: integers/delta ('+') or
                # half-integers/delta ('-'), where the gap vanishes
                k = np.arange(0, 20, dtype=np.float64)
                nodes = (k if sign == "+" else k + 0.5) / delta
                nd = float(np.max(np.abs(p.m_real(sign, nodes)
                                         - p.target(nodes))))
                worst["node"] = max(worst["node"], nd)
                if nd > 1e-10:
                    failures.append(f"nodes {tag}: {nd:.2e}")
                dl1 = abs(poisson_l1_oracle(p, sign) - p.l1_gap(sign))
                worst["l1"] = max(worst["l1"], dl1)
                if dl1 > 1e-8:
                    failures.append(f"l1 {tag}: {dl1:.2e}")
                for q in (0.3, 0.7, 1.2):
                    xi = q * delta
                    dft = abs(poisson_ft_oracle(p, sign, xi)
                              - p.ft_m(sign, xi))
                    worst["ft"] = max(worst["ft"], dft)
                    if dft > 1e-7:
                        failures.append(f"ft {tag} xi={xi}: {dft:.2e}")
    return _result("poisson_suite", t0, failures, worst=worst)


# ---------------------------------------------------------------------------
# 2. odd extremal suite
# ---------------------------------------------------------------------------

def check_odd_suite() -> CheckResult:
    """Odd-family majorization, interpolation, FT and L1 cross-checks of
    the served values (``real``) against the log-form target f_odd_vec
    and window quadrature, and of ``real`` against the interpolation
    series g_real."""
    t0 = time.perf_counter()
    failures = []
    worst = {"maj": 0.0, "node": 0.0, "deriv": 0.0, "ft": 0.0,
             "ft_out": 0.0, "l1": 0.0, "series": 0.0}
    windows: dict[float, WindowedLine] = {}
    for m in (0, 1, 2):
        for alpha in (0.5, 0.6, 0.75, 0.9):
            for delta in (1.0, 2.0):
                pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
                W = windows.setdefault(delta, WindowedLine(delta))
                fv = pair.f_odd_vec(W.nodes)
                k = np.arange(1, 13, dtype=np.float64)
                h = 1e-3
                for sign, s in (("+", 1.0), ("-", -1.0)):
                    tag = f"m={m} alpha={alpha} delta={delta} sign={sign}"
                    gv = pair.real(sign, W.nodes)
                    viol = float(np.min(s * (gv - fv)))
                    worst["maj"] = max(worst["maj"], -viol)
                    if viol < -1e-9:
                        failures.append(f"majorization {tag}: {viol:.2e}")
                    nodes = (k if sign == "+" else k - 0.5) / delta
                    nd = float(np.max(np.abs(pair.real(sign, nodes)
                                             - pair.f_odd_vec(nodes))))
                    worst["node"] = max(worst["node"], nd)
                    if nd > 1e-8:
                        failures.append(f"nodes {tag}: {nd:.2e}")
                    # derivative at nodes: f' = -f_even, vs. central
                    # difference of g (origin skipped for '+')
                    dn = nodes[:3]
                    gd = (pair.real(sign, dn + h)
                          - pair.real(sign, dn - h)) / (2 * h)
                    dd = float(np.max(np.abs(gd + pair.f_even_vec(dn))))
                    worst["deriv"] = max(worst["deriv"], dd)
                    if dd > 1e-4:
                        failures.append(f"deriv {tag}: {dd:.2e}")
                    xis = np.array([0.3, 0.7]) * delta
                    for xi, ft in zip(xis, pair.ft_g(sign, xis)):
                        cv = np.cos(2 * math.pi * xi * W.nodes)
                        dft = abs(W.integral(gv * cv) - ft)
                        worst["ft"] = max(worst["ft"], dft)
                        if dft > 1e-6:
                            failures.append(
                                f"ft {tag} xi={xi}: {dft:.2e}")
                    xi = 1.2 * delta
                    cv = np.cos(2 * math.pi * xi * W.nodes)
                    dout = abs(W.integral(gv * cv))
                    worst["ft_out"] = max(worst["ft_out"], dout)
                    if dout > 1e-6:
                        failures.append(f"ft beyond support {tag}: "
                                        f"{dout:.2e}")
                    dl1 = abs(W.integral(np.abs(gv - fv))
                              - pair.l1_gap_odd(sign))
                    worst["l1"] = max(worst["l1"], dl1)
                    if dl1 > 1e-7:
                        failures.append(f"l1 {tag}: {dl1:.2e}")
    # the served mixture against the interpolation series, an independent
    # construction of the same pair, within the series' own tolerance,
    # on one pair per delta whose sigma grid is short (32 nodes), since
    # the series builds its nodes from sigma-sums
    for delta, W in windows.items():
        pair = OddExtremalPair(m=0, alpha=0.75, delta=delta)
        for sign in "+-":
            ds = float(np.max(np.abs(pair.real(sign, W.nodes)
                                     - pair.g_real(sign, W.nodes))))
            worst["series"] = max(worst["series"], ds)
            if ds > _SERIES_TOL:
                failures.append(f"series delta={delta} sign={sign}: "
                                f"{ds:.2e}")
    return _result("odd_suite", t0, failures, worst=worst)


# ---------------------------------------------------------------------------
# 3. explicit-formula identity
# ---------------------------------------------------------------------------

def check_explicit_formula(zeros: Optional[zc.ZeroTable] = None) \
        -> CheckResult:
    """Explicit-formula residuals within their tails; odd arch vs g_eval."""
    t0 = time.perf_counter()
    if zeros is None:
        zeros = zc.bundled_zeros()
    failures = []
    reports = []
    table = sieve_mangoldt(int(math.ceil(math.exp(4 * math.pi))) + 1)
    for t, delta in ((50.0, 1.5), (100.0, 2.0)):
        # 2 Re of one g_eval value, and the ft errors under the cosh weight
        arch_band = 2 * _SERIES_TOL * (1 + 2 / math.pi
                                       * math.sinh(math.pi * delta))
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
                if abs(rep.residual) > band:
                    failures.append(
                        f"{kname} {sign} t={t} delta={delta}: "
                        f"|{rep.residual:.2e}| > {band:.2e}")
                if kname == "odd":
                    g = kernel.g_eval(sign, complex(t, 0.5)).real
                    row.update(arch_diff=rep.arch_terms - 2.0 * g,
                               arch_band=arch_band)
                    if abs(row["arch_diff"]) > arch_band:
                        failures.append(f"arch: {row}")
    return _result("explicit_formula", t0, failures, reports=reports)


# ---------------------------------------------------------------------------
# 4. limit recovery of the closed-form constants
# ---------------------------------------------------------------------------

def check_theorem1_limits() -> CheckResult:
    """c_n at alpha just above 1/2 vs. the exact half-line constants."""
    t0 = time.perf_counter()
    failures = []
    t = math.exp(math.exp(4.0))
    alpha = 0.5 + 1e-9
    rels = {}
    for n in (0, 1, 2, 3, 4, 5, 7):
        for sign in ("+", "-"):
            lim = bd.c_n(n, alpha, t, sign)
            ref = bd.theorem1_constant(n, sign)
            rel = abs(lim - ref) / abs(ref)
            rels[f"n={n}{sign}"] = rel
            if rel > 1e-6:
                failures.append(f"n={n} sign={sign}: rel {rel:.2e}")
    return _result("theorem1_limits", t0, failures, rel_errors=rels)


# ---------------------------------------------------------------------------
# 5. half-line log-modulus integral identity
# ---------------------------------------------------------------------------

def check_corollary_integral() -> CheckResult:
    """Quadrature of the sigma-integral vs. its closed form."""
    t0 = time.perf_counter()
    failures = []
    diffs = {}
    for t in (1e6, 1e12):
        L = math.log(t)

        def integrand(sig: float) -> float:
            return L ** (2 - 2 * sig) / (1.0 + L ** (1 - 2 * sig))

        num = quad_adaptive(integrand, 0.5, 1.0, 1e-13)
        closed = (math.log(2.0) / 2.0 * L / math.log(L)
                  - L * math.log1p(1.0 / L) / (2.0 * math.log(L)))
        diffs[f"t={t:g}"] = abs(num - closed)
        if abs(num - closed) > 1e-10:
            failures.append(f"t={t:g}: {abs(num - closed):.2e}")
    return _result("corollary_integral", t0, failures, diffs=diffs)


# ---------------------------------------------------------------------------
# 6. asymptotic displays vs. direct evaluation
# ---------------------------------------------------------------------------

def check_appendix() -> CheckResult:
    """Integral/sieve displays against their main terms and bounds."""
    t0 = time.perf_counter()
    failures = []
    summary = {}

    def record(key, chk, band):
        dev = chk.deviation_multiple
        summary[key] = dev
        if dev > band:
            failures.append(f"{key}: deviation {dev:.1f} > band {band}")

    for x in (1e5, 1e6):
        for alpha in (0.7, 0.8):
            for m in (0, 1):
                for aid in ("A1", "A2", "A3"):
                    params = {"x": x, "alpha": alpha, "m": m}
                    if aid in ("A2", "A3"):
                        params["k"] = 1
                    chk = ef.appendix_asymptotic(aid, params)
                    record(f"{aid} x={x:g} a={alpha} m={m}", chk,
                           ef.APPENDIX_BANDS[(aid, m)])
            # A4: exact inequality (alpha > 1/2 branch)
            chk = ef.appendix_asymptotic("A4", {"x": x, "alpha": alpha})
            summary[f"A4 x={x:g} a={alpha}"] = chk.direct - chk.main_term
            if chk.direct > chk.main_term * (1 + 1e-12):
                failures.append(f"A4 x={x:g} a={alpha}: "
                                f"{chk.direct} > {chk.main_term}")
            # A5: sum below 10x its displayed bound
            chk = ef.appendix_asymptotic("A5", {"x": x, "alpha": alpha,
                                                "m": 0})
            record(f"A5 x={x:g} a={alpha}", chk, 10.0)
    # B-family: sieve sums, improvement tracked through growing x
    ratio_track = {"B1": [], "B2": [], "B4": []}
    for x in (1e4, 1e5, 1e6):
        for aid, m in (("B1", 0), ("B1", 1), ("B2", 0)):
            chk = ef.appendix_asymptotic(aid, {"x": x, "alpha": 0.7,
                                               "m": m, "k": 1})
            record(f"{aid} x={x:g} m={m}", chk,
                   ef.APPENDIX_BANDS[(aid, m)])
            if m == 0:
                ratio_track[aid].append(
                    abs(chk.direct / chk.main_term - 1.0))
        chk = ef.appendix_asymptotic("B3", {"x": x, "alpha": 0.7, "m": 0})
        record(f"B3 x={x:g}", chk, 10.0)
        chk = ef.appendix_asymptotic("B4", {"x": x, "beta": 0.25})
        record(f"B4 x={x:g}", chk, 10.0)
        ratio_track["B4"].append(abs(chk.direct / chk.main_term - 1.0))
    for aid, seq in ratio_track.items():
        summary[f"{aid} ratio path"] = seq
        if not seq[-1] < seq[0]:
            failures.append(f"{aid}: main-term ratio not improving "
                            f"{seq}")
    return _result("appendix", t0, failures, summary=summary)


# ---------------------------------------------------------------------------
# 7. representation-lemma consistency
# ---------------------------------------------------------------------------

def check_representation(zeros: Optional[zc.ZeroTable] = None) \
        -> CheckResult:
    """Zero-sum representation vs. the direct route, within bands."""
    t0 = time.perf_counter()
    if zeros is None:
        zeros = zc.bundled_zeros()
    failures = []
    rows = []
    for n, alpha, t in ((-1, 0.75, 100.0), (1, 0.6, 100.0),
                        (0, 0.6, 100.0)):
        rep = ef.rep_sum(n, alpha, t, zeros)
        direct = zc.s_n_direct(n, alpha, t, zeros)
        diff = rep.value - direct.value
        band = ef.rep_band(rep)
        rows.append({"n": n, "alpha": alpha, "t": t, "diff": diff,
                     "band": band})
        if abs(diff) > band:
            failures.append(f"n={n} alpha={alpha} t={t}: "
                            f"|{diff:.3e}| > {band:.3e}")
    return _result("representation", t0, failures, rows=rows)


# ---------------------------------------------------------------------------
# 8. interpolation-optimizer identities
# ---------------------------------------------------------------------------

def check_interpolation() -> CheckResult:
    """lambda range and exact plug-back of the optimized bracket."""
    t0 = time.perf_counter()
    failures = []
    lam_range = [math.inf, -math.inf]
    for n in (0, 2, 4):
        for alpha in (0.6, 0.75):
            for t in (math.exp(math.exp(4.0)), math.exp(math.exp(5.0))):
                ip = bd.interp_params(n, alpha, t)
                lam_range = [min(lam_range[0], ip.lam),
                             max(lam_range[1], ip.lam)]
                if not 0.5 <= ip.lam <= 2.0:
                    failures.append(f"lambda out of range n={n} "
                                    f"alpha={alpha}: {ip.lam}")
                if n == 0:
                    cp = bd.c_odd(1, alpha, t, "+")
                    cm = bd.c_odd(1, alpha, t, "-")
                    ch = bd.c_odd(-1, alpha, t, "-")
                    bracket = (cp + cm) / ip.lam + ch * ip.lam / 2.0
                else:
                    cp = bd.c_odd(n + 1, alpha, t, "+")
                    cm = bd.c_odd(n + 1, alpha, t, "-")
                    lowp = bd.c_odd(n - 1, alpha, t, "+")
                    lowm = bd.c_odd(n - 1, alpha, t, "-")
                    ch = ip.a * lowm  # == ip.b * lowp at the optimum
                    if abs(ip.a * lowm - ip.b * lowp) > 1e-12 * lowp:
                        failures.append(f"equalized split broken n={n} "
                                        f"alpha={alpha} t={t:g}")
                    bracket = (cp + cm) / ip.lam + ch * ip.lam / 2.0
                target = bd.c_even(n, alpha, t)
                if abs(bracket - target) > 1e-12 * abs(target):
                    failures.append(f"plug-back n={n} alpha={alpha} "
                                    f"t={t:g}: {bracket - target:.2e}")
    return _result("interpolation", t0, failures, lam_range=lam_range)


# ---------------------------------------------------------------------------
# 9. argument-function cross-route
# ---------------------------------------------------------------------------

def check_count_cross_route(zeros: Optional[zc.ZeroTable] = None) \
        -> CheckResult:
    """Counting-function route vs. direct argument, plus the size cap."""
    t0 = time.perf_counter()
    if zeros is None:
        zeros = zc.bundled_zeros()
    failures = []
    rows = []
    for t in (25.3, 40.2, 55.7, 70.4, 95.1):
        _, s_count = zc.count_zeros(t, zeros)
        s_direct = zc.s_n_direct(0, 0.5, t).value
        diff = s_count - s_direct
        cap = (0.25 * math.log(t) / math.log(math.log(t))
               + 5.0 * math.log(t) / math.log(math.log(t)) ** 2)
        rows.append({"t": t, "s_count": s_count, "s_direct": s_direct,
                     "cap": cap})
        if abs(diff) > 1e-6:
            failures.append(f"t={t}: routes differ by {diff:.3e}")
        if abs(s_count) >= cap:
            failures.append(f"t={t}: |S|={abs(s_count):.3f} >= "
                            f"cap {cap:.3f}")
    return _result("count_cross_route", t0, failures, rows=rows)


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
