"""Run one finslerlab CLI command with the tracer installed.

    python perfbench/trace_child.py <counters.json> <cli arguments...>

Exits with the command's exit code after writing the tracer's counters
and spans to ``<counters.json>``.  The traced ``cli-cold`` pass runs each
command this way instead of ``python -m finslerlab.cli``.
"""

import json
import sys

import tracing
from finslerlab import cli

if __name__ == "__main__":
    tracer = tracing.Tracer().install()
    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
    with open(sys.argv[1], "w") as fh:
        json.dump(tracer.dump(), fh)
    sys.exit(code)
