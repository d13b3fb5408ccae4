"""Run one ``repro`` command line with the benchmark's layer spans.

Usage::

    python3 perfbench/traced.py TRACE.json ARG...

is ``python -m repro ARG...`` with :func:`instrument.install` applied
first; when the command returns (``repro serve`` returns on SIGINT) the
spans are written to ``TRACE.json`` as Chrome trace events and the
process exits with the command's status.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

from instrument import install  # noqa: E402
from tracing import Tracer  # noqa: E402


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    trace_path, command = argv[0], argv[1:]
    tracer = Tracer()
    as_root = install(tracer)
    import repro.__main__ as cli

    try:
        return as_root(cli.main)(command)
    finally:
        tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
