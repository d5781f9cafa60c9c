"""Peak memory of a workload's jobs alone.

    python3 bench/memory.py < jobs.json

Reads a JSON list of `netfence` argument lists from stdin, runs each once
in this interpreter through `netfence.cli.main` with its output captured
and discarded, and prints one JSON object: the exit codes and this
process's `ru_maxrss` in KiB.  Nothing else runs here, so the figure
covers the interpreter, netfence's imports and the jobs, and none of the
benchmark's inputs, checks or oracles.  `netfence` must be importable.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys

import netfence.cli as cli


def main():
    codes = []
    for argv in json.load(sys.stdin):
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        codes.append(code)
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"codes": codes, "maxrss_kib": maxrss}))


if __name__ == "__main__":
    main()
