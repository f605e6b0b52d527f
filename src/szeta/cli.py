"""Command-line surface.

Subcommands
-----------
extremal  evaluate kernels, Fourier transforms and L1 gaps
bound     envelope constants, single point or CSV sweep over alpha
verify    explicit-formula / representation / asymptotic / envelope runs
selftest  the full acceptance suite

Exit codes: 0 success (verify: within band), 1 verification outside its
band or selftest failure, 2 usage error (including an unknown config key,
a config line that is not key=value, an unreadable --config file, a
malformed --sweep, a negative or non-finite --slack, a --slack for an
appendix item with a calibrated band, an option that the verify gw
kernel, the verify appendix item or verify envelope without
--with-observed does not read, or one that the appendix item reads and
is not given), 3 parameter-region violation (a non-finite parameter
included), t beyond the zero table, a resource limit, or zeta too close
to a zero (DomainError, ZeroTableError, ResourceError and
ConditioningError, mapped in ``main``), 4 missing or malformed zeros
file.

Output is deterministic: JSON fields appear in fixed insertion order
and every float is rendered with 15 significant digits in scientific
notation, so identical flags produce byte-identical output.  --output
text prints the same fields, one key: value line per leaf, a nested
field as parent.key.  extremal's ``formula`` maps each quantity it
prints (real, ft, l1_gap) to how the pair computes it.

The commands that read a zero table (verify gw, verify rep, verify
envelope --with-observed, selftest) also read a key=value config file:
--config PATH, or ./szeta.cfg when present.  Its one key is
``zeros_path``; --zeros takes precedence.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import asdict
from typing import NoReturn

import numpy as np

from . import bounds as bd
from . import explicit_formula as ef
from . import zeta_core as zc
from .numkit import DomainError, ResourceError
from .odd_extremal import OddExtremalPair
from .poisson_extremal import PoissonExtremalPair, PoissonMixture

EXIT_OK = 0
EXIT_BAND = 1
EXIT_USAGE = 2
EXIT_REGION = 3
EXIT_ZEROS = 4


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _jfloat(v: float) -> str:
    if v != v:
        return '"nan"'
    if v in (math.inf, -math.inf):
        return f'"{v}"'
    return f"{v:.14e}"


def dumps(obj, _ind: str = "") -> str:
    """JSON with fixed field order and %.14e float formatting."""
    pad = _ind + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f'{pad}"{k}": {dumps(v, pad)}' for k, v in obj.items())
        return "{\n" + ",\n".join(items) + "\n" + _ind + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = (f"{pad}{dumps(v, pad)}" for v in obj)
        return "[\n" + ",\n".join(items) + "\n" + _ind + "]"
    if isinstance(obj, (bool, np.bool_)) or obj is None:
        return {True: "true", False: "false", None: "null"}[obj]
    if isinstance(obj, (float, np.floating)):
        return _jfloat(float(obj))
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _text_lines(obj: dict, prefix: str = ""):
    """One key: value line per leaf of obj, a nested key as parent.key."""
    for k, v in obj.items():
        if isinstance(v, dict):
            yield from _text_lines(v, f"{prefix}{k}.")
        else:
            yield f"{prefix}{k}: {_jfloat(v) if isinstance(v, float) else v}"


def _emit(obj: dict, output: str | None) -> None:
    """Print obj as JSON (--output json, the default) or as key: value
    lines (--output text)."""
    if output != "text":
        print(dumps(obj))
    else:
        for line in _text_lines(obj):
            print(line)


# ---------------------------------------------------------------------------
# configuration / zero-table resolution
# ---------------------------------------------------------------------------

def _usage_error(msg: str) -> NoReturn:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(EXIT_USAGE)


def _zeros_path(args) -> str | None:
    """--zeros, else zeros_path= from the config file (--config, or
    ./szeta.cfg if it exists), else None (the bundled table).  The file
    is checked even when --zeros is given: an unreadable --config file
    or any key other than zeros_path is a usage error."""
    name = args.config or "szeta.cfg"
    try:
        with open(name) as fh:
            lines = fh.readlines()
    except OSError as exc:
        if args.config:
            _usage_error(f"cannot read config file {name}: {exc.strerror}")
        lines = []
    from_file = None
    for num, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            _usage_error(f"{name} line {num}: expected key=value, "
                         f"got '{line}'")
        k, v = line.split("=", 1)
        if k.strip() != "zeros_path":
            _usage_error(f"unknown config key '{k.strip()}' in {name} "
                         f"(the only key is zeros_path)")
        from_file = v.strip()
    return args.zeros or from_file


def _load_zeros(path: str | None) -> zc.ZeroTable:
    if path is None:
        return zc.bundled_zeros()
    try:
        return zc.load_zeros(path)
    except OSError:
        print(f"error: zeros file not found: {path}", file=sys.stderr)
    except zc.ZeroTableError as exc:
        print(f"error: malformed zeros file: {exc}", file=sys.stderr)
    sys.exit(EXIT_ZEROS)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# each family's pair and its options besides --delta, typed from their
# defaults: extremal requires them, verify gw fills them for its --kernel
_FAMILIES = {"poisson": (PoissonExtremalPair, {"beta": 0.25}),
             "odd": (OddExtremalPair, {"m": 0, "alpha": 0.75})}


def _pair(family: str, args) -> PoissonMixture:
    """The extremal pair of ``family`` with the parameters in ``args``."""
    cls, options = _FAMILIES[family]
    return cls(**{key: getattr(args, key) for key in options},
               delta=args.delta)


def cmd_extremal(args) -> int:
    pair = _pair(args.family, args)
    out = pair.describe()
    formula = {}  # how each printed quantity is computed
    if args.eval is not None:
        x = np.array([args.eval])
        out["x"] = args.eval
        out["target"] = float(pair.target(x)[0])
        out["majorant"] = float(pair.real("+", x)[0])
        out["minorant"] = float(pair.real("-", x)[0])
        formula["real"] = pair.formula["real"]
    if args.ft is not None:
        out["xi"] = args.ft
        out["ft_majorant"] = pair.ft("+", args.ft)
        out["ft_minorant"] = pair.ft("-", args.ft)
        formula["ft"] = pair.formula["ft"]
    if args.l1:
        out["l1_majorant"] = pair.l1_gap("+")
        out["l1_minorant"] = pair.l1_gap("-")
        formula["l1_gap"] = pair.formula["l1_gap"]
    if formula:
        out["formula"] = formula
    _emit(out, args.output)
    return EXIT_OK


# the BoundEnvelope fields of one bound --sweep row
_CSV_COLS = ("n", "alpha", "t", "lower_main", "upper_main", "ell", "err_scale")


# most rows of one bound --sweep
_SWEEP_ROWS = 10_000


def _sweep_alphas(spec: str) -> list[float]:
    """LO, LO + STEP, ... up to HI for --sweep alpha:LO:HI:STEP; any other
    spec, non-finite numbers, STEP <= 0, LO > HI or more than _SWEEP_ROWS
    rows is a usage error."""
    name, *nums = spec.split(":")
    try:
        lo, hi, step = map(float, nums)
    except ValueError:
        _usage_error(f"--sweep must be alpha:LO:HI:STEP, got '{spec}'")
    if name != "alpha":
        _usage_error(f"only alpha sweeps are supported, got '{name}'")
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or lo > hi:
        _usage_error(f"--sweep needs finite LO <= HI and STEP > 0, "
                     f"got '{spec}'")
    alphas = []
    a = lo
    while a <= hi + 1e-12:
        if len(alphas) == _SWEEP_ROWS:
            _usage_error(f"--sweep '{spec}' has more than "
                         f"{_SWEEP_ROWS} rows")
        alphas.append(round(a, 12))
        a += step
    return alphas


def cmd_bound(args) -> int:
    if not args.sweep:
        env = bd.envelope(args.n, args.alpha, args.t, args.c)
        _emit(asdict(env), args.output)
        return EXIT_OK
    if args.output is not None:
        _usage_error("--sweep always writes CSV; it takes no --output")
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_CSV_COLS)
    for a in _sweep_alphas(args.sweep):
        env = bd.envelope(args.n, a, args.t, args.c)
        w.writerow([_jfloat(v).strip('"') if isinstance(v, float) else v
                    for v in (getattr(env, k) for k in _CSV_COLS)])
    sys.stdout.write(buf.getvalue())
    return EXIT_OK


# the GwReport terms that `verify gw` prints, in order, before its band
_GW_KEYS = ("t", "delta", "kernel", "sign", "zero_side", "zero_tail_bound",
           "arch_terms", "gamma_integral", "log_pi_term", "prime_sum",
           "prime_tail_bound", "residual")


def _verify_gw(args) -> int:
    unread = [f"--{key}" for family, (_, options) in _FAMILIES.items()
              if family != args.kernel for key in options
              if getattr(args, key) is not None]
    if unread:
        _usage_error(f"{', '.join(unread)} not read by --kernel "
                     f"{args.kernel}")
    for key, default in _FAMILIES[args.kernel][1].items():
        if getattr(args, key) is None:
            setattr(args, key, default)
    if not math.isfinite(args.tol) or args.tol <= 0:
        _usage_error("tol must be finite and > 0")
    zeros = _load_zeros(_zeros_path(args))
    rep = ef.gw_evaluate(_pair(args.kernel, args), args.sign, args.t,
                         args.delta, zeros)
    out = {key: getattr(rep, key) for key in _GW_KEYS}
    out["kernel"] = rep.kernel.describe()
    out["band"] = out["zero_tail_bound"] + out["prime_tail_bound"] + args.tol
    out["within_band"] = abs(out["residual"]) <= out["band"]
    _emit(out, args.output)
    return EXIT_OK if out["within_band"] else EXIT_BAND


def _verify_rep(args) -> int:
    zeros = _load_zeros(_zeros_path(args))
    rep = ef.rep_sum(args.n, args.alpha, args.t, zeros)
    direct = zc.s_n_direct(args.n, args.alpha, args.t, zeros)
    band = ef.rep_band(rep)
    out = {"n": args.n, "alpha": args.alpha, "t": args.t,
           "zero_sum": rep.value, "direct": direct.value,
           "difference": rep.value - direct.value, "band": band,
           "within_band": abs(rep.value - direct.value) <= band}
    _emit(out, args.output)
    return EXIT_OK if out["within_band"] else EXIT_BAND


def _check_slack(slack: float | None) -> None:
    if slack is not None and not 0.0 <= slack < math.inf:
        _usage_error("slack must be finite and >= 0")


def _verify_appendix(args) -> int:
    params = {"x": args.x}
    for key in ("alpha", "m", "k", "beta"):
        if (v := getattr(args, key)) is not None:
            params[key] = v
    unread = [f"--{key}" for key in params
              if key not in ef.APPENDIX_PARAMS[args.id]]
    if unread:
        _usage_error(f"{', '.join(unread)} not read by --id {args.id}")
    missing = [f"--{key}" for key in ef.APPENDIX_PARAMS[args.id]
               if key not in params]
    if missing:
        _usage_error(f"{', '.join(missing)} required by --id {args.id}")
    _check_slack(args.slack)
    try:
        band = ef.appendix_band(args.id, args.m, args.slack)
    except ValueError as exc:
        _usage_error(f"--slack: {exc}")
    chk = ef.appendix_asymptotic(args.id, params)
    out = asdict(chk)
    out["deviation_multiple"] = chk.deviation_multiple
    out["band"] = band
    out["within_band"] = chk.deviation_multiple <= band
    _emit(out, args.output)
    return EXIT_OK if out["within_band"] else EXIT_BAND


def _verify_envelope(args) -> int:
    unread = [f"--{key}" for key in ("zeros", "config")
              if not args.with_observed and getattr(args, key) is not None]
    if unread:
        _usage_error(f"{', '.join(unread)} not read without --with-observed")
    _check_slack(args.slack)
    zeros = _load_zeros(_zeros_path(args)) if args.with_observed else None
    chk = bd.check_envelope(args.n, args.alpha, args.t, args.c,
                            zeros=zeros, slack=args.slack)
    _emit(asdict(chk), args.output)
    return EXIT_OK  # report-only by contract


def cmd_verify(args) -> int:
    return {"gw": _verify_gw, "rep": _verify_rep,
            "appendix": _verify_appendix,
            "envelope": _verify_envelope}[args.what](args)


def cmd_selftest(args) -> int:
    from . import selftest as stst
    results = stst.run_all(_load_zeros(_zeros_path(args)))
    if args.json:
        print(dumps({"checks": [asdict(r) for r in results],
                     "passed": all(r.passed for r in results)}))
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            print(f"{mark} {r.name} ({r.runtime:.1f}s)")
            if not r.passed:
                for f in r.details.get("failures", []):
                    print(f"     {f}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_BAND


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _output_flag(p):
    # None (no flag) prints JSON; bound --sweep rejects an explicit flag
    p.add_argument("--output", choices=("json", "text"), default=None)


def _zeros_flags(p):
    p.add_argument("--zeros", help="path to a zero-ordinate table")
    p.add_argument("--config",
                   help="key=value file with zeros_path (default ./szeta.cfg)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="szeta",
        description="Extremal bandlimited kernels, explicit-formula "
                    "verification, and bound envelopes.")
    sub = ap.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("extremal", help="evaluate extremal pairs")
    exsub = ex.add_subparsers(dest="family", required=True)
    for fam, (_, options) in _FAMILIES.items():
        p = exsub.add_parser(fam)
        for key, default in options.items():
            p.add_argument(f"--{key}", type=type(default), required=True)
        p.add_argument("--delta", type=float, required=True)
        p.add_argument("--eval", type=float)
        p.add_argument("--ft", type=float)
        p.add_argument("--l1", action="store_true")
        _output_flag(p)
        p.set_defaults(func=cmd_extremal)

    b = sub.add_parser("bound", help="bound envelopes")
    b.add_argument("--n", type=int, required=True)
    alpha = b.add_mutually_exclusive_group(required=True)
    alpha.add_argument("--alpha", type=float)
    alpha.add_argument("--sweep", help="alpha:lo:hi:step")
    b.add_argument("--t", type=float, required=True)
    b.add_argument("--c", type=float, default=1.0)
    _output_flag(b)
    b.set_defaults(func=cmd_bound)

    v = sub.add_parser("verify", help="run a verification")
    vsub = v.add_subparsers(dest="what", required=True)
    g = vsub.add_parser("gw")
    g.add_argument("--kernel", choices=tuple(_FAMILIES), required=True)
    for _, options in _FAMILIES.values():
        for key, default in options.items():
            g.add_argument(f"--{key}", type=type(default))
    g.add_argument("--delta", type=float, required=True)
    g.add_argument("--sign", choices=("+", "-"), default="+")
    g.add_argument("--t", type=float, required=True)
    g.add_argument("--tol", type=float, default=1e-5)
    _output_flag(g)
    _zeros_flags(g)
    r = vsub.add_parser("rep")
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--alpha", type=float, required=True)
    r.add_argument("--t", type=float, required=True)
    _output_flag(r)
    _zeros_flags(r)
    a = vsub.add_parser("appendix")
    a.add_argument("--id", required=True,
                   choices=("A1", "A2", "A3", "A4", "A5",
                            "B1", "B2", "B3", "B4"))
    a.add_argument("--x", type=float, required=True)
    a.add_argument("--alpha", type=float)
    a.add_argument("--m", type=int)
    a.add_argument("--k", type=int)
    a.add_argument("--beta", type=float)
    a.add_argument("--slack", type=float)
    _output_flag(a)
    e = vsub.add_parser("envelope")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--alpha", type=float, required=True)
    e.add_argument("--t", type=float, required=True)
    e.add_argument("--c", type=float, default=1.0)
    e.add_argument("--with-observed", action="store_true",
                   help="load the zero table; it is used only when t lies "
                   "within 1e-6 of an ordinate, where S_n is averaged over "
                   "t +/- 1e-6 (the observed value is always printed)")
    e.add_argument("--slack", type=float, default=10.0)
    _output_flag(e)
    _zeros_flags(e)
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("selftest", help="run the acceptance suite")
    s.add_argument("--json", action="store_true")
    _zeros_flags(s)
    s.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        msg = f"region violation: {exc}"
    except zc.ZeroTableError as exc:
        msg = f"outside the zero table: {exc}"
    except ResourceError as exc:
        msg = f"resource limit: {exc}"
    except zc.ConditioningError as exc:
        msg = f"ill-conditioned: {exc}"
    print(msg, file=sys.stderr)
    return EXIT_REGION


if __name__ == "__main__":
    sys.exit(main())
