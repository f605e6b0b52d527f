"""Run one ``szeta`` command in a fresh process, as the console script does.

    python3 perfbench/cli_runner.py <szeta arguments...>

Behaves like ``szeta <arguments>``: same stdout, stderr and exit code.
When PERFBENCH_TRACE_OUT names a file, the library calls are traced and
the file receives JSON with ``import_s`` (time to import szeta.cli),
``command_s`` (time inside szeta.cli.main) and the spans.
"""

import os
import sys
import time

t_start = time.perf_counter()

from prepare import use_source_tree  # noqa: E402

use_source_tree()
import szeta.cli  # noqa: E402

t_imported = time.perf_counter()


def _main() -> int:
    out_path = os.environ.get("PERFBENCH_TRACE_OUT")
    if not out_path:
        return szeta.cli.main(sys.argv[1:])
    import json
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        return szeta.cli.main(sys.argv[1:])
    finally:
        t1 = time.perf_counter()
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump({"import_s": t_imported - t_start,
                       "command_s": t1 - t0,
                       "summary": tracer.summary(),
                       "trace": tracer.to_json()}, fh)


if __name__ == "__main__":
    sys.exit(_main())
