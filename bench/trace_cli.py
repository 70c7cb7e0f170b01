"""Run ``tubeke.cli.main`` with the benchmark's tracer installed.

Usage: BENCH_TRACE_OUT=spans.json BENCH_OP=<op id> python3 bench/trace_cli.py <tubeke args>

Used only by the traced cold_cli runs.  The spans, counters and error
counts of the call are written to $BENCH_TRACE_OUT when main returns.
"""

import os
import sys

from tracer import Tracer

import tubeke.cli

if __name__ == "__main__":
    tracer = Tracer()
    tracer.op = os.environ["BENCH_OP"]
    tracer.install()
    try:
        code = tubeke.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(os.environ["BENCH_TRACE_OUT"])
    sys.exit(code)
