"""The three workloads: inputs, one round of operations, output checks.

A round is a fixed list of operations whose inputs come from the seeded
generator; ``run.py`` repeats whole rounds, so every run attempts the
same mix.  Outputs are kept and checked by ``check`` after the timed
part, against ``oracles`` or against properties the method must have.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

import oracles
from prepare import GW_DELTA, ROOT, ZEROS_PATH

HERE = os.path.dirname(os.path.abspath(__file__))


class Recorder:
    """Attempted and failed operation counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, label: str, fn, *args):
        """Run one operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failing operation is data, not a crash
            self.failed += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# gw_sweep
# ---------------------------------------------------------------------------

class GwSweep:
    """Explicit formula over a t-grid with warm Poisson and odd kernels.

    The traffic of scripts/gw_residuals.py: delta = 1.5, Poisson
    beta = 0.25 and odd (m = 0, alpha = 0.75), the bundled zero table
    and one sieve.  At each t of the grid 30, 50, ..., 150 both kernels
    are evaluated with both signs, in the script's order.  The seed
    jitters every t by up to JITTER.
    """

    BETA, M, ALPHA = 0.25, 0, 0.75
    T_GRID = 30.0 + 20.0 * np.arange(7)
    JITTER = 4.0
    CALLS = (("poisson", "+"), ("poisson", "-"), ("odd", "+"), ("odd", "-"))
    in_children = False

    def __init__(self, state: dict, rng):
        from szeta.odd_extremal import OddExtremalPair
        from szeta.poisson_extremal import PoissonExtremalPair
        self.rng = rng
        self.zeros = state["zeros"]
        self.mangoldt = state["mangoldt"]
        self.kernels = {
            "poisson": PoissonExtremalPair(beta=self.BETA, delta=GW_DELTA),
            "odd": OddExtremalPair(m=self.M, alpha=self.ALPHA,
                                   delta=GW_DELTA),
        }
        self.reports: list = []

    def _eval(self, family, sign, t):
        from szeta import explicit_formula as ef
        return ef.gw_evaluate(self.kernels[family], sign, t, GW_DELTA,
                              self.zeros, mangoldt=self.mangoldt)

    def warm_up(self) -> None:
        """Fill the kernels' caches at the largest t a round can draw, so
        every timed call uses the same node set."""
        for family, sign in self.CALLS:
            self._eval(family, sign, float(self.T_GRID[-1] + self.JITTER))

    def round(self, rec: Recorder) -> None:
        ts = self.T_GRID + self.rng.uniform(-self.JITTER, self.JITTER,
                                            len(self.T_GRID))
        for t in map(float, ts):
            for family, sign in self.CALLS:
                rep = rec.op(f"gw_evaluate {family}{sign} t={t}", self._eval,
                             family, sign, t)
                if rep is not None:
                    self.reports.append((family, sign, t, rep))

    def check(self) -> list[str]:
        bad = []
        ref = PoissonGwReference()
        for family, sign, t, rep in self.reports:
            tag = f"{family}{sign} t={t:.4f}"
            budget = rep.zero_tail_bound + rep.prime_tail_bound
            if not abs(rep.residual) <= budget:
                bad.append(f"{tag}: |residual| {abs(rep.residual):.3e} "
                           f"> truncation budget {budget:.3e}")
            if family == "poisson":
                bad += [f"{tag}: {p}" for p in ref.problems(
                    sign, self.BETA, t, rep.prime_sum, rep.zero_side)]
        return bad


class PoissonGwReference:
    """Prime sum and zero side of the Poisson explicit formula at
    delta = GW_DELTA, from the benchmark's own sieve, the closed-form
    kernel and transform, and the zero table."""

    def __init__(self):
        n, lam = oracles.prime_powers(
            int(math.ceil(math.exp(2.0 * math.pi * GW_DELTA))) + 1)
        xi = np.log(n) / (2.0 * math.pi)
        keep = xi <= GW_DELTA
        self.n, self.lam, self.xi = n[keep], lam[keep], xi[keep]
        self.gam = oracles.load_ordinates(ZEROS_PATH)

    def problems(self, sign: str, beta: float, t: float, prime_sum: float,
                 zero_side: float) -> list:
        bad = []
        ft = oracles.poisson_ft(sign, beta, GW_DELTA, self.xi)
        ps = oracles.prime_sum(ft, t, self.n, self.lam)
        if not _close(prime_sum, ps, 1e-12, 1e-12):
            bad.append(f"prime sum {prime_sum!r} != reference {ps!r}")
        zs = float(np.sum(
            oracles.poisson_value(sign, beta, GW_DELTA, t - self.gam)
            + oracles.poisson_value(sign, beta, GW_DELTA, t + self.gam)))
        if not _close(zero_side, zs, 1e-12, 1e-12):
            bad.append(f"zero side {zero_side!r} != reference {zs!r}")
        return bad


# ---------------------------------------------------------------------------
# odd_grid
# ---------------------------------------------------------------------------

class OddGrid:
    """Fresh odd-family pairs evaluated on the window-quadrature grid.

    PAIRS is a balanced half of the product m in {0,1,2}, alpha in
    {0.5, 0.75, 0.9}, delta in {1, 2}: every (m, alpha) once, delta
    alternating.  The full product takes about a minute per round.  The
    seed jitters the grid offset, the interpolation nodes sampled and
    the transform frequencies (multiples of delta/10, so the windows of
    the reference quadrature span whole periods).
    """

    PAIRS = ((0, 0.5, 1.0), (0, 0.75, 2.0), (0, 0.9, 1.0),
             (1, 0.5, 2.0), (1, 0.75, 1.0), (1, 0.9, 2.0),
             (2, 0.5, 1.0), (2, 0.75, 2.0), (2, 0.9, 1.0))
    IN_BAND = np.arange(2, 9) / 10.0
    OUT_OF_BAND = np.arange(11, 16) / 10.0
    N_NODES = 12
    in_children = False

    def __init__(self, state: dict, rng):
        self.rng = rng
        self.results: list = []

    def warm_up(self) -> None:
        pass

    def _inputs(self, delta: float) -> dict:
        grid = oracles.WindowGrid(delta, self.rng.uniform(0.0, 0.25 / delta))
        k0 = int(self.rng.integers(1, 9))
        qs = np.concatenate([self.rng.choice(self.IN_BAND, 2, replace=False),
                             self.rng.choice(self.OUT_OF_BAND, 1)])
        return {"grid": grid,
                "x": np.concatenate([grid.points, grid.head_points]),
                "k": np.arange(k0, k0 + self.N_NODES, dtype=np.float64),
                "xi": qs * delta}

    @staticmethod
    def _pair(m, alpha, delta, inp) -> dict:
        from szeta.odd_extremal import OddExtremalPair
        pair = OddExtremalPair(m=m, alpha=alpha, delta=delta)
        out = {}
        for sign in "+-":
            nodes = (inp["k"] if sign == "+" else inp["k"] - 0.5) / delta
            out[sign] = {
                "grid": pair.g_real(sign, inp["x"]),
                "nodes": pair.g_real(sign, nodes),
                "ft": [pair.ft_g(sign, xi) for xi in inp["xi"]],
                "l1": pair.l1_gap_odd(sign),
            }
        return out

    def round(self, rec: Recorder) -> None:
        for m, alpha, delta in self.PAIRS:
            inp = self._inputs(delta)
            out = rec.op(f"pair m={m} alpha={alpha} delta={delta}",
                         self._pair, m, alpha, delta, inp)
            if out is not None:
                self.results.append(((m, alpha, delta), inp, out))

    def check(self) -> list[str]:
        bad = []
        for (m, alpha, delta), inp, out in self.results:
            grid, x = inp["grid"], inp["x"]
            f = oracles.odd_target(m, alpha, x)
            cos = [np.cos(2.0 * math.pi * xi * x) for xi in inp["xi"]]
            n_pts = len(grid.points)

            def quad(v):
                return grid.integral(v[:n_pts], v[n_pts:])

            for sign, s in (("+", 1.0), ("-", -1.0)):
                tag = f"m={m} alpha={alpha} delta={delta} {sign}"
                r = out[sign]
                gap = s * (r["grid"] - f)
                if gap.min() < -1e-9:
                    bad.append(f"{tag}: bracket violated by {gap.min():.2e}")
                nodes = (inp["k"] if sign == "+" else inp["k"] - 0.5) / delta
                nd = np.max(np.abs(r["nodes"]
                                   - oracles.odd_target(m, alpha, nodes)))
                if nd > 1e-12:
                    bad.append(f"{tag}: g != f at nodes by {nd:.2e}")
                for xi, c, ft in zip(inp["xi"], cos, r["ft"]):
                    q = quad(r["grid"] * c)
                    if xi > delta and ft != 0.0:
                        bad.append(f"{tag}: ft_g({xi:g}) = {ft!r} beyond delta")
                    if abs(q - ft) > 1e-6:
                        bad.append(f"{tag}: ft_g({xi:g}) = {ft!r}, "
                                   f"quadrature {q!r}")
                q = quad(gap)
                if abs(q - r["l1"]) > 1e-7:
                    bad.append(f"{tag}: L1 gap {r['l1']!r}, quadrature {q!r}")
        return bad


# ---------------------------------------------------------------------------
# cli_calls
# ---------------------------------------------------------------------------

RUNNER = os.path.join(HERE, "cli_runner.py")

EXIT_OK, EXIT_BAND, EXIT_USAGE, EXIT_REGION, EXIT_ZEROS = 0, 1, 2, 3, 4


def _json(res) -> dict:
    return json.loads(res["stdout"])


def _check_envelope_fields(d: dict, n: int, alpha: float, t: float) -> list:
    lo, hi = oracles.envelope_main(n, alpha, t)
    bad = []
    if not _close(d["lower_main"], lo, 1e-12):
        bad.append(f"lower_main {d['lower_main']!r} != {lo!r}")
    if not _close(d["upper_main"], hi, 1e-12):
        bad.append(f"upper_main {d['upper_main']!r} != {hi!r}")
    return bad


class CliCalls:
    """A fixed list of 24 ``szeta`` calls, one fresh process at a time.

    Every documented exit code (0 to 4) is exercised.  ``extremal odd
    --eval`` fails every time (TypeError under numpy 2.x); it stays in
    the list, on fixed inputs, and is counted as failed.  The seed
    jitters t, x and xi of the other calls inside ranges where each
    verification lands inside its band.
    """

    BETA, M, ALPHA, DELTA = 0.25, 0, 0.75, 1.5
    in_children = True  # each call sets itself up in its own process

    def __init__(self, state: dict, rng):
        self.rng = rng
        self.env = {k: v for k, v in os.environ.items()
                    if k != "PERFBENCH_TRACE_OUT"}
        self.results: list = []
        self.unrepeatable: list = []
        self.gam = None
        self.poisson_ref = None
        self.trace_dir = None  # set by run.py for the traced round

    def warm_up(self) -> None:
        pass

    def _cases(self) -> list:
        u = self.rng.uniform
        tb = float(f"{10 ** u(30.0, 31.0):.6e}")
        ab = round(u(0.6, 0.8), 4)
        t_rep = round(u(95.0, 105.0), 4)
        t_env = round(u(95.0, 105.0), 4)
        xa = float(round(u(1e5, 1.3e5)))
        xi_p, x_p, xi_o = (round(u(0.1, 1.4), 4), round(u(0.05, 3.0), 4),
                           round(u(0.1, 1.4), 4))
        t_gw = round(u(30.0, 150.0), 4)
        pois = ["extremal", "poisson", "--beta", "0.25", "--delta", "1.5"]
        odd = ["extremal", "odd", "--m", "0", "--alpha", "0.75",
               "--delta", "1.5"]
        rep1 = ["verify", "rep", "--n", "1", "--alpha", "0.6",
                "--t", str(t_rep)]
        app = ["verify", "appendix", "--x", str(xa)]
        return [
            ("bound", ["bound", "--n", "1", "--alpha", str(ab), "--t", str(tb),
                       "--c", "0.1"], EXIT_OK, self._bound_point),
            ("bound_sweep", ["bound", "--n", "2", "--t", str(tb), "--c", "0.1",
                             "--sweep", "alpha:0.6:0.8:0.05"], EXIT_OK,
             self._bound_sweep),
            ("bound_n-1", ["bound", "--n", "-1", "--alpha", str(ab), "--t",
                           str(tb), "--c", "0.1"], EXIT_OK, self._bound_point),
            ("bound_region", ["bound", "--n", "1", "--alpha", str(ab), "--t",
                              str(round(u(50.0, 500.0), 3))], EXIT_REGION,
             self._region),
            ("bound_usage", ["bound", "--n", "1", "--t", str(tb)], EXIT_USAGE,
             None),
            ("poisson_l1", pois + ["--l1"], EXIT_OK, self._poisson),
            ("poisson_ft", pois + ["--ft", str(xi_p)], EXIT_OK, self._poisson),
            ("poisson_eval", pois + ["--eval", str(x_p)], EXIT_OK,
             self._poisson),
            ("odd_ft", odd + ["--ft", str(xi_o)], EXIT_OK, self._odd),
            ("odd_l1", odd + ["--l1"], EXIT_OK, self._odd),
            ("odd_ft0_l1", odd + ["--ft", "0", "--l1"], EXIT_OK, self._odd),
            ("odd_eval", odd + ["--eval", "0.3"], EXIT_OK, self._odd),
            ("verify_gw", ["verify", "gw", "--kernel", "poisson", "--beta",
                            "0.25", "--delta", "1.5", "--t", str(t_gw)],
             EXIT_OK, self._gw),
            ("rep_n-1", ["verify", "rep", "--n", "-1", "--alpha", "0.75",
                         "--t", str(t_rep)], EXIT_OK, self._rep),
            ("rep_n0", ["verify", "rep", "--n", "0", "--alpha", "0.6",
                        "--t", str(t_rep)], EXIT_OK, self._rep),
            ("rep_n1", rep1, EXIT_OK, self._rep),
            ("rep_n1_again", rep1, EXIT_OK, None),
            ("rep_no_zeros", rep1 + ["--zeros", "perfbench/no-such-zeros.txt"],
             EXIT_ZEROS, None),
            ("appendix_A1", app + ["--id", "A1", "--alpha", "0.7", "--m", "0"],
             EXIT_OK, self._appendix),
            ("appendix_B1", app + ["--id", "B1", "--alpha", "0.7", "--m", "0"],
             EXIT_OK, self._appendix),
            ("appendix_B3", app + ["--id", "B3", "--alpha", "0.7", "--m", "0"],
             EXIT_OK, self._appendix),
            ("appendix_B4", app + ["--id", "B4", "--beta", "0.25"], EXIT_OK,
             self._appendix),
            ("appendix_B4_tight", app + ["--id", "B4", "--beta", "0.25",
                                         "--slack", "1e-12"], EXIT_BAND,
             self._appendix),
            ("envelope", ["verify", "envelope", "--n", "1", "--alpha", "0.75",
                          "--t", str(t_env), "--with-observed"], EXIT_OK,
             self._envelope),
        ]

    def _call(self, label: str, argv: list, expect: int, n: int) -> dict:
        env = self.env
        if self.trace_dir is not None:
            env = dict(env, PERFBENCH_TRACE_OUT=os.path.join(
                self.trace_dir, f"cli-{n:03d}-{label}.json"))
        proc = subprocess.run([sys.executable, RUNNER, *argv], cwd=ROOT,
                              env=env, capture_output=True, timeout=150)
        if proc.returncode != expect:
            last = proc.stderr.decode(errors="replace").strip()
            last = last.splitlines()[-1] if last else ""
            raise RuntimeError(f"{label} exited {proc.returncode}, expected "
                               f"{expect}: {last}")
        return {"stdout": proc.stdout.decode(), "stderr":
                proc.stderr.decode(errors="replace")}

    def round(self, rec: Recorder) -> None:
        outputs = {}
        for label, argv, expect, checker in self._cases():
            res = rec.op(label, self._call, label, argv, expect,
                         rec.attempted)
            if res is None:
                continue
            res.update(label=label, argv=argv)
            outputs[label] = res["stdout"]
            if checker is not None:
                self.results.append((checker, res))
        if outputs.get("rep_n1") != outputs.get("rep_n1_again"):
            self.unrepeatable.append("rep_n1")

    def check(self) -> list[str]:
        bad = [f"{call}: stdout differs on an identical invocation"
               for call in self.unrepeatable]
        for checker, res in self.results:
            try:
                problems = checker(res)
            except (ValueError, KeyError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            bad.extend(f"{res['label']} {' '.join(res['argv'])}: {p}"
                       for p in problems)
        return bad

    # -- per-call checks -------------------------------------------------

    @staticmethod
    def _arg(res, flag):
        return res["argv"][res["argv"].index(flag) + 1]

    def _bound_point(self, res) -> list:
        n, alpha, t = (int(self._arg(res, "--n")),
                       float(self._arg(res, "--alpha")),
                       float(self._arg(res, "--t")))
        return _check_envelope_fields(_json(res), n, alpha, t)

    def _bound_sweep(self, res) -> list:
        n, t = int(self._arg(res, "--n")), float(self._arg(res, "--t"))
        rows = list(csv.DictReader(io.StringIO(res["stdout"])))
        alphas = [float(r["alpha"]) for r in rows]
        if not np.allclose(alphas, [0.6, 0.65, 0.7, 0.75, 0.8], atol=1e-12):
            return [f"alpha column {alphas}"]
        bad = []
        for r in rows:
            d = {k: float(r[k]) for k in ("lower_main", "upper_main")}
            bad += _check_envelope_fields(d, n, float(r["alpha"]), t)
        return bad

    @staticmethod
    def _region(res) -> list:
        return [] if "log log t" in res["stderr"] else [
            "region violation does not name the inequality"]

    def _poisson(self, res) -> list:
        d, b, dl = _json(res), self.BETA, self.DELTA
        want = {}
        if "l1_majorant" in d:
            want = {"l1_majorant": oracles.poisson_l1("+", b, dl),
                    "l1_minorant": oracles.poisson_l1("-", b, dl)}
        elif "xi" in d:
            want = {"ft_majorant": float(oracles.poisson_ft("+", b, dl, d["xi"])),
                    "ft_minorant": float(oracles.poisson_ft("-", b, dl, d["xi"]))}
        elif "x" in d:
            x = d["x"]
            want = {"target": float(oracles.poisson_target(b, x)),
                    "majorant": float(oracles.poisson_value("+", b, dl, x)),
                    "minorant": float(oracles.poisson_value("-", b, dl, x))}
        if not want:
            return ["no known fields"]
        return [f"{k} {d[k]!r} != {v!r}" for k, v in want.items()
                if not _close(d[k], v, 1e-12, 1e-15)]

    def _odd(self, res) -> list:
        d = _json(res)
        bad = []
        if "x" in d:  # --eval: minorant <= target <= majorant
            f = float(oracles.odd_target(self.M, self.ALPHA, [d["x"]])[0])
            if not _close(d["target"], f, 1e-12, 1e-14):
                bad.append(f"target {d['target']!r} != {f!r}")
            if not d["minorant"] <= d["target"] <= d["majorant"]:
                bad.append("target not bracketed")
        if "xi" in d:
            vals = (d["ft_majorant"], d["ft_minorant"])
            if not all(map(math.isfinite, vals)):
                bad.append("ft not finite")
            if d["xi"] > self.DELTA and vals != (0.0, 0.0):
                bad.append("ft nonzero past delta")
        if "l1_majorant" in d:
            if not (d["l1_majorant"] > 0 and d["l1_minorant"] > 0):
                bad.append("L1 gaps not positive")
            if d.get("xi") == 0.0:  # g+/- integrates to int f +/- its L1 gap
                total = oracles.odd_target_integral(self.M, self.ALPHA)
                for key, want in (
                        ("ft_majorant", total + d["l1_majorant"]),
                        ("ft_minorant", total - d["l1_minorant"])):
                    if not _close(d[key], want, 1e-12):
                        bad.append(f"{key} {d[key]!r} != {want!r}")
        return bad

    def _gw(self, res) -> list:
        d = _json(res)
        bad = [] if d["within_band"] is True else ["outside band"]
        budget = d["zero_tail_bound"] + d["prime_tail_bound"]
        if not abs(d["residual"]) <= budget:
            bad.append(f"|residual| {abs(d['residual']):.3e} > truncation "
                       f"budget {budget:.3e}")
        if self.poisson_ref is None:
            self.poisson_ref = PoissonGwReference()
        return bad + self.poisson_ref.problems(
            d["sign"], d["kernel"]["beta"], d["t"], d["prime_sum"],
            d["zero_side"])

    def _rep(self, res) -> list:
        d = _json(res)
        bad = [] if d["within_band"] is True else ["outside band"]
        if not _close(d["difference"], d["zero_sum"] - d["direct"], 1e-12,
                      1e-15):
            bad.append("difference != zero_sum - direct")
        if d["n"] == -1:
            if self.gam is None:
                self.gam = oracles.load_ordinates(ZEROS_PATH)
            zs = oracles.s_minus1_zero_sum(d["alpha"], d["t"], self.gam)
            if not _close(d["zero_sum"], zs, 1e-12, 1e-15):
                bad.append(f"zero_sum {d['zero_sum']!r} != {zs!r}")
            direct = oracles.s_minus1_direct(d["alpha"], d["t"])
            if abs(d["direct"] - direct) > 1e-9:
                bad.append(f"direct {d['direct']!r} != mpmath {direct!r}")
        return bad

    def _appendix(self, res) -> list:
        d = _json(res)
        pid, params = d["id"], d["params"]
        bad = []
        ref = oracles.appendix_direct(pid, params)
        rel = 1e-9 if pid.startswith("A") else 1e-11
        if not _close(d["direct"], ref, rel, 1e-300):
            bad.append(f"direct {d['direct']!r} != reference {ref!r}")
        tight = "--slack" in res["argv"]
        if d["within_band"] is tight:
            bad.append(f"within_band is {d['within_band']}")
        return bad

    def _envelope(self, res) -> list:
        d = _json(res)
        e = d["envelope"]
        bad = _check_envelope_fields(e, e["n"], e["alpha"], e["t"])
        if not d["band_lower"] <= d["band_upper"]:
            bad.append("empty band")
        return bad


WORKLOADS = {"gw_sweep": GwSweep, "odd_grid": OddGrid, "cli_calls": CliCalls}
