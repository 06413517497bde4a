"""Run the treecensus CLI with spans recorded (the traced run's CLI calls).

Usage: BENCH_SPANS=FILE [BENCH_CALL=ID] python3 cli_traced.py ARGS...
behaves as ``python3 -m treecensus.cli ARGS...`` and writes the spans of
the call to FILE when it ends.
"""

import os
import sys

import tracer
import treecensus.cli


def main() -> int:
    recorder = tracer.install(tracer.Recorder(os.environ.get("BENCH_CALL")))
    try:
        return treecensus.cli.main(sys.argv[1:])
    finally:
        recorder.dump(os.environ["BENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
