#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Checks, from the root of a checkout:
- every workload, plain and traced, exits 0 and prints exactly the metrics
  BENCHMARK.json names for that mode, each with its unit, with correct=true
  and a digest that matches reference.json;
- failure accounting: the fourth tame window of stadium seed 11 (sample 643)
  raises a raw ValueError in coding, which is recorded by class and does
  not escape;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result;
- the host clock scales a stretch of work by the reference probe time over
  the median of the probes around it.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# (workload, seed, seconds) small enough to run in seconds
CASES = (("stadium-code", 11, 1), ("fixture-code", 0, 2), ("flower-chi", 0, 1))


def bench(cwd: Path, workload: str, seed: int, seconds: float, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_runs(spec: dict) -> list[str]:
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for workload, seed, seconds in CASES:
            tag = f"{workload} seed {seed} --trace {trace}"
            proc = bench(ROOT, workload, seed, seconds, trace)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append(f"{tag}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            report = json.loads(lines[-2])["report"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metric names or units differ: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: not correct: {report['failed_checks']}")
            if report["reference"] != "match":
                problems.append(f"{tag}: digest {report['reference']}")
            print(f"ok   {tag}: attempted {result['attempted']}")
    return problems


def check_failure_accounting() -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import workloads as w
    from pesin_coder.coding import coarse_grain

    table = w.build_stadium()
    p = table.liouville_sample(np.random.default_rng(11), 644)[643]
    rec = w.Record()
    window = w.front_end(rec, table, p, w.STADIUM_SIDE, w.STADIUM_CHI,
                         *w.STADIUM_WINDOW)
    if window is None:
        return ["stadium seed 11 sample 643 is no longer a tame window"]
    alphabet = coarse_grain([window], w.CFG, w.CONSTS)
    w.code_window(rec, alphabet, window, -w.STADIUM_WINDOW[0])
    problems = []
    if rec.rejected != {"ValueError": 1} or rec.failed_ops != 1:
        problems.append(f"expected one ValueError, got {dict(rec.rejected)}")
    elif not rec.errors or rec.errors[0]["class"] != "ValueError":
        problems.append("the ValueError is not listed with its frame")
    else:
        print(f"ok   failure accounting: {rec.errors[0]['message']}")
    return problems


def check_bare_directory() -> list[str]:
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, tmp / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(tmp, *CASES[1], 0)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, "
                f"stdout {proc.stdout[-200:]!r}"]
    print(f"ok   bare directory: exit {proc.returncode}")
    return []


def check_clock() -> list[str]:
    sys.path.insert(0, str(HERE))
    from hostclock import REF_PROBE_S, Clock

    clock = Clock()
    # probes of 2, 2 and 4 reference times with one reference time of work
    # between each pair: both stretches scale by 1/2, the median's ratio
    for start, dur in ((0.0, 2.0), (1.0 + 2.0, 2.0), (3.0 + 3.0, 4.0)):
        clock.starts.append(start * REF_PROBE_S)
        clock.ends.append((start + dur) * REF_PROBE_S)
        clock.durations.append(dur * REF_PROBE_S)
    half = clock.normalised(2.0 * REF_PROBE_S, 3.0 * REF_PROBE_S)
    total = clock.normalised_total()
    if not (abs(half - REF_PROBE_S / 2) < 1e-15
            and abs(total - REF_PROBE_S) < 1e-15):
        return [f"host clock: got {half}, {total}"]
    print("ok   host clock normalisation")
    return []


def main() -> int:
    os.chdir(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_clock() + check_bare_directory() + check_runs(spec) + \
        check_failure_accounting()
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
