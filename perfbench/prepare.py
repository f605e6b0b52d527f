"""Set-up of each workload: imports, zero-table load and sieve.

``python3 perfbench/prepare.py <workload>`` runs one set-up in a fresh
process and prints its wall time in seconds; ``run.py`` starts several
such probes per run and reports their median as ``setup_s``.  The same
functions give ``run.py`` its in-process state, so the probe times
exactly the set-up the workload uses.

This module imports nothing heavy at load time: the timed set-up
includes the import of numpy, scipy and szeta.
"""

from __future__ import annotations

import math
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ZEROS_PATH = os.path.join(SRC, "szeta", "data", "zeros2000.txt")

GW_DELTA = 1.5


def use_source_tree() -> None:
    """Import szeta from this checkout's ``src``, or exit with code 2."""
    if not os.path.isdir(os.path.join(SRC, "szeta")):
        sys.stderr.write(f"perfbench: no szeta package under {SRC}\n")
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def prepare_gw_sweep() -> dict:
    """Explicit-formula modules, the bundled zero table and one sieve."""
    from szeta import explicit_formula  # noqa: F401
    from szeta.numkit import sieve_mangoldt
    from szeta.zeta_core import load_zeros
    zeros = load_zeros(ZEROS_PATH, source="bundled")
    table = sieve_mangoldt(
        int(math.ceil(math.exp(2.0 * math.pi * GW_DELTA))) + 1)
    return {"zeros": zeros, "mangoldt": table}


def prepare_odd_grid() -> dict:
    from szeta import odd_extremal  # noqa: F401
    return {}


def prepare_cli_calls() -> dict:
    """What every CLI call pays before its command: import and zeros."""
    import szeta.cli  # noqa: F401
    from szeta.zeta_core import load_zeros
    return {"zeros": load_zeros(ZEROS_PATH, source="bundled")}


PREPARE = {
    "gw_sweep": prepare_gw_sweep,
    "odd_grid": prepare_odd_grid,
    "cli_calls": prepare_cli_calls,
}


if __name__ == "__main__":
    t0 = time.perf_counter()
    use_source_tree()
    PREPARE[sys.argv[1]]()
    print(repr(time.perf_counter() - t0))
