"""Record the mathematical fields of every reference job into reference.json.

    python3 perfbench/record_reference.py

Run it only at a commit whose answers are trusted: the gate compares later
commits against what it writes.  Each job runs through the same child as the
benchmark, and a job that exits nonzero aborts the recording.
"""

import json
import sys
import time

import run
import workloads


def main() -> int:
    reference = {}
    for line in workloads.reference_lines():
        code, out, err, *_ = run.spawn(run.child_cmd(line.split(), False), time.monotonic() + 600)
        if code != 0:
            print(f"{line}: exit code {code}\n{err.decode()}", file=sys.stderr)
            return 1
        reference[line] = workloads.math_fields(json.loads(out))
        print(f"recorded {line}", flush=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
