"""Run one koszulhh subcommand in this fresh interpreter.

    python3 child.py META_FD TRACE ARGV...

Writes to file descriptor META_FD one JSON line as soon as ``koszulhh.cli``
is imported (the import time and the module path), and with TRACE=1 a second
line at exit with the per-layer counters of the traced run.  The report goes
to stdout and the exit code is the CLI's.
"""

import sys
import time

import koszulhh.cli

imported = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402


def main() -> int:
    meta = os.fdopen(int(sys.argv[1]), "w")
    traced = sys.argv[2] == "1"
    meta.write(json.dumps({"imported": imported, "module": koszulhh.cli.__file__}) + "\n")
    meta.flush()
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        # looked up after install, so the traced main is the one called
        return koszulhh.cli.main(sys.argv[3:])
    finally:
        if tracer is not None:
            meta.write(json.dumps(tracer.report()) + "\n")
        meta.close()


if __name__ == "__main__":
    sys.exit(main())
