#!/usr/bin/env python3
"""Record the outputs of every workload's fixed reference case.

    python3 perfbench/record_reference.py

Run from the root of a checkout of the commit whose outputs are the
reference; it rewrites ``perfbench/reference.json``. Every benchmark run
compares its reference case with these values, so re-record only when a
change of the program's results is intended, and say so in the change.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import deconf.io  # noqa: E402

import workloads  # noqa: E402


def main():
    workdir = HERE.parent / ".perfbench_out" / "record-reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        recorded = {name: wl.record_reference(deconf, workdir)
                    for name, wl in workloads.WORKLOADS.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
