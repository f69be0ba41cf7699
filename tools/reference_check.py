#!/usr/bin/env python3
"""Rerun the keys of perfbench/reference.json and report which still match.

    python3 tools/reference_check.py                    # all keys
    python3 tools/reference_check.py stadium-code/0/20 fixture-code/0/2

For every ``workload/seed/seconds`` key of ``perfbench/reference.json``, or
for the keys given as arguments, runs
``perfbench/run.py --workload <w> --seed <s> --seconds <t> --trace 0`` in
the working tree, one run after the other, and prints the key with the
``reference`` field of the run's report: ``match`` when the run's digest
and approximate outputs are the reference's, ``mismatch`` when they are
not, ``absent`` when the reference has no entry, or ``error`` when run.py
printed no result (its stderr goes to stderr).  The last line lists every
key that is not ``match`` and the tool exits 1, or says that all match and
it exits 0.  A key that the reference file does not hold is refused before
any run.  Nothing is written: the reference is only read.

All 63 keys take about 2 minutes on a 2-core Xeon with Python 3.11.7 and
numpy 2.4 (measured: 124 s, each 20-second key in about 2 s of wall time).

Standard library only; run it from anywhere inside the checkout.
"""
from __future__ import annotations

import argparse
import json
import sys

from bench_pairs import ROOT, run_once

REFERENCE = ROOT / "perfbench" / "reference.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("keys", nargs="*", metavar="workload/seed/seconds",
                    help="keys of perfbench/reference.json (default: all)")
    args = ap.parse_args(argv)
    known = json.loads(REFERENCE.read_text())
    keys = args.keys or list(known)
    unknown = [key for key in keys if key not in known]
    if unknown:
        ap.error(f"not keys of perfbench/reference.json: {', '.join(unknown)}")
    failed = []
    for n, key in enumerate(keys, 1):
        workload, seed, seconds = key.split("/")
        try:
            record, _ = run_once(ROOT, workload, int(seed), 0, seconds)
            reference = record["reference"]
        except RuntimeError as err:
            print(err, file=sys.stderr)
            reference = "error"
        print(f"[{n}/{len(keys)}] {key}: {reference}", flush=True)
        if reference != "match":
            failed.append(f"{key} ({reference})")
    if failed:
        print("not match: " + ", ".join(failed))
        return 1
    print(f"all {len(keys)} keys match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
