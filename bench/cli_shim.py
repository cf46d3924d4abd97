"""Run one ``krom`` command with tracing, for the traced pass of the cli workload.

Usage: python bench/cli_shim.py SPANS_FILE KROM_ARGS...

Behaves like ``python -m krom KROM_ARGS...`` (same stdout and exit code),
and writes the spans recorded inside the process to SPANS_FILE as JSON.
Interpreter start and ``import krom`` happen before the ``cli.main`` span.
"""

import json
import sys

import krom.cli

from tracing import Tracer, install


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    code = krom.cli.main(argv)
    sys.stdout.flush()
    with open(spans_file, "w") as f:
        json.dump(tracer.spans, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
