"""Span recording around the public functions of the szeta modules.

The tracer wraps functions and methods from outside the library: it
replaces each target in every loaded ``szeta.*`` module namespace (or on
its class, for methods) with a wrapper that records one span per call --
name, parent span, start and end -- plus counts read from the call's
arguments and return value.  Nothing inside ``src/`` is edited.

Spans are kept in memory and written out as JSON by the caller when the
run ends.  Each thread keeps its own span stack, so calls made from
worker threads get a parent only within that thread.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict


def _size(x) -> int:
    import numpy as np
    return int(np.size(x))


def _points(args, kwargs, out):
    """Number of evaluation points: the array argument after ``sign``."""
    x = args[2] if len(args) > 2 else kwargs.get("x")
    return {"points": _size(x)}


def _vec_points(args, kwargs, out):
    x = args[1] if len(args) > 1 else kwargs.get("x")
    return {"points": _size(x)}


def _series_terms(args, kwargs, out):
    return {"terms": out.terms_used}


def _residual(args, kwargs, out):
    return {"residual_max": abs(out.residual)}


def combine(totals: dict, more: dict) -> None:
    """Add ``more`` into ``totals``: sums, except maxima for *_max keys."""
    for key, v in more.items():
        old = totals.get(key, 0)
        totals[key] = max(old, v) if key.endswith("_max") else old + v


# (module, class or None, attribute, count extractor or None).  Names in
# the report take the form <module>.<attribute>.<what>.
TARGETS = (
    ("odd_extremal", "OddExtremalPair", "g_real", _points),
    ("odd_extremal", "OddExtremalPair", "f_odd_vec", _vec_points),
    ("odd_extremal", "OddExtremalPair", "f_even_vec", _vec_points),
    ("odd_extremal", "OddExtremalPair", "ft_g", None),
    ("odd_extremal", "OddExtremalPair", "g_eval", None),
    ("odd_extremal", "OddExtremalPair", "decay_envelope_const", None),
    ("odd_extremal", "OddExtremalPair", "l1_gap_odd", None),
    ("poisson_extremal", "PoissonExtremalPair", "m_real", _points),
    ("poisson_extremal", "PoissonExtremalPair", "ft_m", None),
    ("explicit_formula", None, "gw_evaluate", _residual),
    ("explicit_formula", None, "prime_sum", None),
    ("explicit_formula", None, "_gamma_integral", None),
    ("explicit_formula", None, "rep_sum", None),
    ("explicit_formula", None, "appendix_asymptotic", None),
    ("numkit", None, "sieve_mangoldt", None),
    ("numkit", None, "quad_adaptive", None),
    ("numkit", None, "sum_tail_bounded", _series_terms),
    ("numkit", None, "polylog_H", None),
    ("zeta_core", None, "load_zeros", None),
    ("zeta_core", None, "s_n_direct", None),
    ("zeta_core", None, "zeta_logderiv", None),
    ("zeta_core", None, "zeta", None),
    ("bounds", None, "envelope", None),
    ("bounds", None, "check_envelope", None),
    ("bounds", None, "c_n", None),
)


class Tracer:
    """Install wrappers, collect spans and counts, then restore."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (id, parent id or -1, name idx, t0, t1)
        self.counts: dict = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, name: str, fn, count):
        name_idx = len(self.names)
        self.names.append(name)
        spans, counts, ids, stack_of = (self.spans, self.counts, self._ids,
                                        self._stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name_idx, t0, t1))
            if count is not None:
                combine(counts, {f"{name}.{what}": v for what, v
                                 in count(args, kwargs, out).items()})
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every target in the loaded szeta modules."""
        mods = {k[len("szeta."):]: m for k, m in sys.modules.items()
                if k.startswith("szeta.") and m is not None}
        for modname, clsname, attr, count in TARGETS:
            name = f"{modname}.{attr}"
            if modname not in mods:
                continue
            if clsname is not None:
                cls = getattr(mods[modname], clsname)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(name, orig, count))
                self._patched.append((cls, attr, orig))
                continue
            orig = getattr(mods[modname], attr)
            wrapped = self._wrap(name, orig, count)
            # functions imported by name live in several namespaces
            for mod in mods.values():
                if mod.__dict__.get(attr) is orig:
                    setattr(mod, attr, wrapped)
                    self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def summary(self) -> dict:
        """Per-name self time, call counts and the recorded counts.

        Self time is a span's duration minus the durations of its direct
        children; children nest inside their parent and run one at a
        time in the parent's thread, so their sum is the time they cover.
        """
        child = defaultdict(float)
        for sid, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = defaultdict(float)
        for sid, _, idx, t0, t1 in self.spans:
            name = self.names[idx]
            out[f"{name}.self_s"] += (t1 - t0) - child[sid]
            out[f"{name}.calls"] += 1
        out = dict(out)
        combine(out, self.counts)
        return out

    def to_json(self) -> dict:
        """Spans as columns; times in seconds from the first span's start,
        ``name`` indexes ``names`` and ``parent`` is -1 for a root."""
        ids, parents, names, starts, ends = (zip(*self.spans) if self.spans
                                             else ((),) * 5)
        base = min(starts, default=0.0)
        return {
            "names": list(self.names),
            "spans": {"id": list(ids), "parent": list(parents),
                      "name": list(names),
                      "start_s": [round(t - base, 9) for t in starts],
                      "end_s": [round(t - base, 9) for t in ends]},
            "counts": dict(self.counts),
        }
