"""Run one treeasym CLI command in this process with the benchmark's wrappers installed.

Usage: python3 perfbench/cli_child.py <treeasym arguments...>

Used by traced ``cli-cold`` runs.  Exits with the CLI's exit code.  The last
stderr line is ``PERFBENCH-TRACE`` followed by the recorded spans as JSON;
the ``cli.main`` span carries the kernels cache hits and misses of the call.
"""

import json
import sys

from layers import cache_totals, patch_points
from program import import_treeasym
from spans import Tracer, installed
from workloads import TRACE_MARKER


def main(argv) -> int:
    ta = import_treeasym()
    tracer = Tracer()
    hits0, misses0 = cache_totals(ta.kernels)

    def note(args, kwargs, result):
        hits, misses = cache_totals(ta.kernels)
        return {"cache_hits": hits - hits0, "cache_misses": misses - misses0}

    cli_main = tracer.wrap("cli.main", ta.cli.main, note)
    try:
        with installed(tracer, patch_points(ta)):
            return cli_main(argv)
    finally:
        sys.stdout.flush()
        print(TRACE_MARKER + json.dumps(tracer.records()), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
