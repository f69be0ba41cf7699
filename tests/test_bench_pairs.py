"""The benchmark-pair tool's schedule, file layout, summary and exports,
on canned run records and a scratch repository (no benchmark run)."""
from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def record(workload: str, seed: int, trace: int, **values) -> dict:
    """A run record as run.py's result line gives it."""
    return {"reference": "match", "seconds": 20, "seed": seed,
            "trace": trace, "workload": workload,
            "result": {"attempted": 10, "correct": True, "failed": 0,
                       "metrics": {k.replace("__", "."): {"unit": "", "value": v}
                                   for k, v in values.items()}}}


def test_schedule_alternates_the_first_side():
    plan = bench_pairs.schedule(["a", "b"], [0, 1], 0, "b", [10])
    assert [(w, s, t) for w, s, t, _ in plan] == [
        ("a", 0, 0), ("b", 0, 0), ("a", 1, 0), ("b", 1, 0),
        ("a", 0, 1), ("b", 0, 1), ("b", 10, 0)]
    assert [first for *_, first in plan] == [True, False] * 3 + [True]


def test_schedule_without_a_claim_runs_no_extra_seeds():
    plan = bench_pairs.schedule(["a", "b"], [0, 1], 0, None, [10, 11])
    assert [(w, s, t) for w, s, t, _ in plan] == [
        ("a", 0, 0), ("b", 0, 0), ("a", 1, 0), ("b", 1, 0),
        ("a", 0, 1), ("b", 0, 1)]


def test_protocol_says_whether_a_gain_is_claimed():
    earlier = json.loads((ROOT / "BENCH_32_before.json").read_text())
    workloads = ["stadium-code", "fixture-code", "flower-chi"]
    claimed = bench_pairs.protocol_text(
        "ea76cd46afadf5a354303262095109f3f314774b", workloads,
        ("stadium-code", "sample_ms.p50"))
    assert claimed == earlier["protocol"]
    plain = bench_pairs.protocol_text("HEAD", workloads, None)
    assert plain.endswith("traced seed-0 pair of each workload; no gain is "
                          "claimed")
    assert "10-14" not in plain


def test_bench_file_has_the_schema_of_earlier_files():
    out = bench_pairs.bench_file([], {"nproc": 2}, "p", "w")
    earlier = json.loads((ROOT / "BENCH_28_before.json").read_text())
    assert set(out) == set(earlier)
    assert out["command"] == earlier["command"]
    assert set(record("x", 0, 0)) == set(earlier["runs"][0])


def test_summary_on_canned_records():
    # the change lowers setup_s on 9 of 10 stadium pairs by far more than
    # the parent's spread, and raises orbit_steps_per_s on 3 of 10 flower
    # pairs; traced runs are left out
    before = [record("stadium-code", s, 0, setup_s=0.014 + 0.0002 * s)
              for s in range(10)]
    after = [record("stadium-code", s, 0,
                    setup_s=0.0065 if s else 0.02) for s in range(10)]
    before += [record("flower-chi", s, 0, orbit_steps_per_s=100.0)
               for s in range(10)]
    after += [record("flower-chi", s, 0,
                     orbit_steps_per_s=101.0 if s < 3 else 99.0)
              for s in range(10)]
    before.append(record("stadium-code", 0, 1, setup_s=1.0))
    after.append(record("stadium-code", 0, 1, setup_s=0.0))
    lines = bench_pairs.summary(before, after, METRICS,
                                ("stadium-code", "setup_s"))
    rows = {tuple(line.split()[:2]): line.split() for line in lines[1:-2]}
    assert set(rows) == {("flower-chi", "orbit_steps_per_s"),
                         ("stadium-code", "setup_s")}
    assert rows["stadium-code", "setup_s"][-1] == "9/10"
    # parent quartiles of 0.014 + 0.0002 s over s = 0..9, then the change's
    assert rows["stadium-code", "setup_s"][2:7:2] == ["0.01445", "0.0149",
                                                      "0.01535"]
    assert rows["stadium-code", "setup_s"][7:12:2] == ["0.0065"] * 3
    assert rows["flower-chi", "orbit_steps_per_s"][-1] == "3/10"
    assert lines[-2].startswith("claim stadium-code setup_s: won 9/10")
    assert lines[-2].endswith(": holds")
    assert lines[-1] == "worse than the bound: none"
    # a 9/10 win inside the parent's spread is no gain
    close = [record("stadium-code", s, 0,
                    setup_s=0.0137 + 0.0002 * s if s else 0.02)
             for s in range(10)]
    verdict = bench_pairs.summary(before, close, METRICS,
                                  ("stadium-code", "setup_s"))[-2]
    assert "won 9/10" in verdict and verdict.endswith("does not hold")


def test_summary_without_a_claim_prints_no_verdict():
    # the rows and the marks are those of a claimed run; no verdict line
    before = [record("flower-chi", s, 0, peak_rss_mb=10.0) for s in range(10)]
    after = [record("flower-chi", s, 0, peak_rss_mb=11.5) for s in range(10)]
    claimed = bench_pairs.summary(before, after, METRICS,
                                  ("flower-chi", "peak_rss_mb"))
    lines = bench_pairs.summary(before, after, METRICS, None)
    assert lines == claimed[:-2] + claimed[-1:]
    assert not any(line.startswith("claim") for line in lines)
    assert lines[-1] == ("worse than the bound: flower-chi peak_rss_mb "
                         "(15.0% worse)")


def test_summary_marks_a_change_worse_than_the_bound():
    # peak_rss_mb may grow by 10% of the parent median: 11.5 MB on a parent
    # median of 10 MB is marked, 10.5 MB on fixture-code is not; a metric
    # that is better higher is marked when it falls by more than its bound
    before = [record(w, s, 0, peak_rss_mb=10.0, orbit_steps_per_s=100.0)
              for w in ("flower-chi", "fixture-code") for s in range(10)]
    after = [record("flower-chi", s, 0, peak_rss_mb=11.5,
                    orbit_steps_per_s=70.0) for s in range(10)]
    after += [record("fixture-code", s, 0, peak_rss_mb=10.5,
                     orbit_steps_per_s=90.0) for s in range(10)]
    lines = bench_pairs.summary(before, after, METRICS,
                                ("flower-chi", "peak_rss_mb"))
    rows = {tuple(line.split()[:2]): line for line in lines[1:-2]}
    assert rows["flower-chi", "peak_rss_mb"].endswith(
        " 0/10 worse by 15.0% > bound 10%")
    assert rows["flower-chi", "orbit_steps_per_s"].endswith(
        " 0/10 worse by 30.0% > bound 24%")
    assert rows["fixture-code", "peak_rss_mb"].endswith(" 0/10")
    assert rows["fixture-code", "orbit_steps_per_s"].endswith(" 0/10")
    assert lines[-1] == ("worse than the bound: flower-chi orbit_steps_per_s "
                         "(30.0% worse), flower-chi peak_rss_mb (15.0% worse)")


def test_both_sides_export_their_files(tmp_path):
    # the parent side gets the committed files, the change side the working
    # tree as git add -A would stage it: an edit, a new file, no ignored one
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    (repo / "pkg" / "a.py").write_text("x = 1\n")
    (repo / ".gitignore").write_text("*.log\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(repo)]
    subprocess.run(git[:-2] + ["init", "-q", str(repo)], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "c"], check=True)
    (repo / "pkg" / "a.py").write_text("x = 2\n")
    (repo / "pkg" / "new.py").write_text("y = 3\n")
    (repo / "run.log").write_text("ignored\n")
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    bench_pairs.export_revision(repo, "HEAD", parent)
    bench_pairs.export_worktree(repo, change)

    def files(root):
        return {str(p.relative_to(root)): p.read_text()
                for p in root.rglob("*") if p.is_file()}

    assert files(parent) == {".gitignore": "*.log\n", "pkg/a.py": "x = 1\n"}
    assert files(change) == {".gitignore": "*.log\n", "pkg/a.py": "x = 2\n",
                             "pkg/new.py": "y = 3\n"}
