"""The hintlock command line with the benchmark's tracer installed.

    python -X importtime perfbench/cli_child.py TRACE_FILE COMMAND [ARGS...]

Runs `hintlock.cli.main(COMMAND ARGS...)` exactly as the `hintlock` console
script would, then writes the spans to TRACE_FILE.  Only traced cli-cold
runs start this; untraced runs start `python -m hintlock.cli` directly.
"""

import sys
from pathlib import Path

import hintlock.cli  # an import statement, so that -X importtime reports the package
from tracing import Tracer


def main() -> int:
    trace_file, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return hintlock.cli.main(argv)
    finally:
        tracer.uninstall()
        trace_file.write_text(tracer.dump())


if __name__ == "__main__":
    sys.exit(main())
