#!/usr/bin/env python3
"""Add the digests of benchmark runs to perfbench/reference.json.

    python3 perfbench/run.py --workload fixture-code --seed 0 --seconds 20 \\
        | python3 perfbench/make_reference.py

Reads run output on stdin (or from the files named as arguments) and stores
each report's digest and chi summaries under its ``workload/seed/seconds``
key.  Only runs whose oracle checks passed are taken, and a key that is
already present must agree.  Feed it runs of a version whose outputs are
trusted: the reference is what later runs are checked against.
"""
from __future__ import annotations

import fileinput
import json
import sys
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def main() -> int:
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    added = 0
    for line in fileinput.input():
        if not line.startswith('{"report"'):
            continue
        rep = json.loads(line)["report"]
        if rep["failed_checks"]:
            print(f"skip {rep['key']}: failed {rep['failed_checks']}",
                  file=sys.stderr)
            continue
        entry = {"digest": rep["digest"], "approx": rep["approx"]}
        old = refs.get(rep["key"])
        if old is not None and old["digest"] != entry["digest"]:
            print(f"error: {rep['key']} disagrees with the stored reference",
                  file=sys.stderr)
            return 1
        if old is None:
            refs[rep["key"]] = entry
            added += 1
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"{added} added, {len(refs)} in {REFERENCE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
