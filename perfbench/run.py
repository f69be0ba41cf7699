#!/usr/bin/env python3
"""Benchmark of the pesin_coder pipeline on three seeded workloads.

    python3 perfbench/run.py --workload stadium-code --seed 0 --seconds 20 --trace 0

Runs from the root of a checkout and imports the package from its ``src``.
One process, one caller, one BLAS thread.  The work is drawn from --seed and
sized from --seconds (about that long on the reference host).

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
the same work twice, untraced and then with every layer wrapped, and prints
the per-layer metrics plus the tracing overhead.

Every run checks its outputs: oracle checks on the results, and a digest
compared with perfbench/reference.json when the reference holds this
(workload, seed, seconds).  The second-to-last stdout line is a JSON report
(host fingerprint, calibration loop, funnel, digest); the last line is the
result.  The exit code is 0 only when every check passed.
"""
from __future__ import annotations

import os
import sys

# one BLAS thread; must be set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from hostclock import Clock  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import pesin_coder from this checkout's src, or exit with code 2."""
    if not (SRC / "pesin_coder" / "__init__.py").is_file():
        print(f"error: {SRC} holds no pesin_coder package", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import pesin_coder
    if Path(pesin_coder.__file__).resolve().parent != SRC / "pesin_coder":
        print(f"error: pesin_coder imported from {pesin_coder.__file__}",
              file=sys.stderr)
        sys.exit(2)


def calibration_s() -> float:
    """A fixed pure-Python loop; its time tracks host speed drift."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def fingerprint() -> dict:
    import scipy
    from pesin_coder import accel
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "have_numba": accel.HAVE_NUMBA,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def time_setup(wl) -> tuple[list[float], list[float], object]:
    """Per-build set-up times, normalised and raw, one per rep of batched
    builds, with a host probe before each rep."""
    clock = Clock()
    spans = []
    table = None
    for _ in range(wl.setup_reps):
        t0 = clock.unit_start()
        for _ in range(wl.setup_batch):
            table = wl.build()
        spans.append((t0, time.perf_counter()))
    clock.probe()
    return ([clock.normalised(*s) / wl.setup_batch for s in spans],
            [(t1 - t0) / wl.setup_batch for t0, t1 in spans], table)


def run_pass(wl, table, seed, seconds, rec) -> float:
    """Run the fixed work; its normalised time, probes left out."""
    rec.clock.probe()
    wl.run(table, seed, seconds, rec)
    rec.clock.probe()
    return rec.clock.normalised_total()


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(setup_times, rec, run_s) -> dict:
    sample_ms, op_ms = rec.sample_ms(), rec.op_ms()
    front_s = sum(sample_ms) / 1e3
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (run_s, "s"),
        "sample_ms.p50": (percentile(sample_ms, 50), "ms"),
        "sample_ms.p90": (percentile(sample_ms, 90), "ms"),
        "op_ms.p50": (percentile(op_ms, 50), "ms"),
        "orbit_steps_per_s": (rec.steps / front_s if front_s else 0.0, "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def funnel_metrics(rec, rejection_classes) -> dict:
    f = rec.funnel
    out = {f"funnel.{k}": (v, "count") for k, v in f.items()}
    for name in rejection_classes:
        out[f"funnel.rejected.{name}"] = (rec.rejected.get(name, 0), "count")
    out["funnel.rejected.other"] = (
        sum(v for k, v in rec.rejected.items()
            if k not in rejection_classes), "count")
    out["funnel.tame_per_sample"] = (
        f["tame_windows"] / f["samples"] if f["samples"] else 0.0, "ratio")
    out["funnel.shadowed_per_window"] = (
        f["shadowed"] / f["coding_attempts"] if f["coding_attempts"] else 0.0,
        "ratio")
    out["funnel.failed_frac"] = (
        rec.failed_ops / rec.op_attempts if rec.op_attempts else 0.0, "ratio")
    return out


def main(argv=None) -> int:
    import_package()
    import workloads
    from tracer import Tracer

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    wl = workloads.WORKLOADS[args.workload]
    calib = [calibration_s()]
    rec = workloads.Record()
    raw = {}
    if args.trace:
        plain = workloads.Record()
        plain_run_s = run_pass(wl, wl.build(), args.seed, args.seconds, plain)
        with Tracer() as tracer:
            run_s = run_pass(wl, wl.build(), args.seed, args.seconds, rec)
        rec.failed_checks += plain.failed_checks
        rec.check("traced outputs equal untraced outputs",
                  rec.digest() == plain.digest() and rec.approx == plain.approx)
        metrics = tracer.metrics()
        metrics.update(funnel_metrics(rec, workloads.REJECTION_CLASSES))
        metrics["trace.untraced_run_s"] = (plain_run_s, "s")
        metrics["trace.traced_run_s"] = (run_s, "s")
        metrics["trace.overhead_s"] = (run_s - plain_run_s, "s")
    else:
        setup_times, setup_raw, table = time_setup(wl)
        run_s = run_pass(wl, table, args.seed, args.seconds, rec)
        metrics = end_to_end(setup_times, rec, run_s)
        raw["setup_s"] = statistics.median(setup_raw)
    calib.append(calibration_s())
    raw.update({
        "run_s": rec.clock.raw_total(),
        "sample_ms.p50": percentile(
            [(t1 - t0) * 1e3 for t0, t1 in rec.sample_spans], 50),
        "op_ms.p50": percentile(
            [(t1 - t0) * 1e3 for t0, t1 in rec.op_spans], 50),
        "host_speed": rec.clock.speed(), "probes": len(rec.clock.durations)})

    key = f"{args.workload}/{args.seed}/{args.seconds:g}"
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    want = refs.get(key)
    if want is None:
        reference = "absent"
    elif want["digest"] == rec.digest() and \
            workloads.approx_match(rec.approx, want["approx"]):
        reference = "match"
    else:
        reference = "mismatch"
    correct = not rec.failed_checks and reference != "mismatch"
    failed = rec.ops if reference == "mismatch" else \
        min(rec.ops, len(rec.failed_checks))
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "key": key,
        "fingerprint": fingerprint(), "calibration_s": calib, "raw": raw,
        "digest": rec.digest(), "approx": rec.approx,
        "reference": reference, "failed_checks": rec.failed_checks,
        "funnel": dict(rec.funnel), "rejected": dict(rec.rejected),
        "errors": rec.errors, "outputs": rec.outputs,
    }
    result = {
        "correct": correct, "attempted": rec.ops, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
