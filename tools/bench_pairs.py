#!/usr/bin/env python3
"""Alternating benchmark pairs of a parent revision and the working tree.

    python3 tools/bench_pairs.py --parent HEAD --pr 29 \\
        [--claim stadium-code:setup_s] --what "with ..."

Exports the committed files of the parent revision with ``git archive``
into ``parent`` and the working tree into ``change``, two directories of
one temporary directory, which is removed on exit, error included.  The
working tree's export holds what ``git add -A`` would stage: the tracked
files as they are on disk, uncommitted edits included, and the untracked
files that are not ignored.  Both sides so run from paths of one length,
since ``peak_rss_mb`` has read up to 0.5 MB apart on copies of one tree
under different directory names.  Then it runs
``perfbench/run.py --seconds 20`` in each export, always in the same order
of work:

  * for each of seeds 0-9 in turn, one pair of each workload of
    ``BENCHMARK.json``;
  * one traced seed-0 pair of each workload;
  * with ``--claim``, one pair of the claimed workload for each of seeds
    10-14, the seeds not run while the change was written.

Without ``--claim`` no gain is claimed, and the protocol text says so.

Within a pair the two sides run one after the other, and the side that
runs first switches from pair to pair, so a drift of the host's speed falls
on both.  The run records go to ``BENCH_<pr>_before.json`` and
``BENCH_<pr>_after.json`` at the root of the working tree, each a JSON
object with ``command``, ``host`` (the fingerprint the runs report),
``protocol``, ``runs`` (per run: ``reference``, ``result`` -- the last
stdout line of ``run.py`` --, ``seconds``, ``seed``, ``trace`` and
``workload``) and ``what``.

Last, per workload and end-to-end metric of ``BENCHMARK.json``, it prints
both sides' median and quartiles over the untraced pairs, and the pairs the
change won.  A row whose change median is worse than the parent median by
more than the metric's ``bound`` (a fraction of the parent median) ends in
a mark with both numbers.  With a claim it also prints whether the
change won at least 9 pairs in 10 of the claimed metric and moved its
median by more than the distance between the parent's quartiles.  The
last line names the marked rows, or says that there are none.

Standard library only; run it from anywhere inside the checkout.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = "perfbench/run.py"
SECONDS = 20
SEEDS = range(10)
TRACED_SEED = 0
EXTRA_SEEDS = range(10, 15)
COMMAND = (f"python3 {RUN} --workload <w> --seed <s> --seconds {SECONDS} "
           f"--trace <t>")
# a claimed gain needs this share of pairs won
WIN_SHARE = 0.9


def schedule(workloads, seeds, traced_seed, claim_workload, extra_seeds):
    """The runs of both sides, in order: (workload, seed, trace, parent
    first) per pair, the first side switching from pair to pair.  The
    extra seeds run only for a claimed workload (not None)."""
    pairs = [(w, s, 0) for s in seeds for w in workloads]
    pairs += [(w, traced_seed, 1) for w in workloads]
    if claim_workload is not None:
        pairs += [(claim_workload, s, 0) for s in extra_seeds]
    return [(w, s, t, k % 2 == 0) for k, (w, s, t) in enumerate(pairs)]


def run_once(checkout: Path, workload: str, seed: int, trace: int,
             seconds) -> tuple[dict, dict]:
    """One run.py run in checkout: its run record and host fingerprint."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{RUN} in {checkout} printed no result "
                           f"(exit {proc.returncode}): {proc.stderr[-2000:]}")
    report = json.loads(lines[-2])["report"]
    record = {"reference": report["reference"],
              "result": json.loads(lines[-1]), "seconds": seconds,
              "seed": seed, "trace": trace, "workload": workload}
    return record, report["fingerprint"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def paired_values(before: list[dict], after: list[dict], workload: str,
                  metric: str) -> list[tuple[float, float]]:
    """(parent, change) values of metric over the untraced pairs of
    workload, matched by seed."""
    def values(runs):
        return {r["seed"]: r["result"]["metrics"][metric]["value"]
                for r in runs if r["workload"] == workload
                and r["trace"] == 0 and metric in r["result"]["metrics"]}
    b, a = values(before), values(after)
    return [(b[s], a[s]) for s in sorted(b) if s in a]


def summary(before: list[dict], after: list[dict], metrics: list[dict],
            claim: tuple[str, str] | None) -> list[str]:
    """The printed comparison: per workload and metric, both medians and
    quartiles, the pairs the change won and, on a change median worse than
    the parent's by more than the metric's bound, a mark; then the claim's
    verdict, if there is a claim, and last the marked rows."""
    lines = [f"{'workload':<14}{'metric':<19}{'parent q1 / med / q3':>33}"
             f"{'change q1 / med / q3':>33}{'won':>7}"]
    verdict = None
    marked = []
    workloads = sorted({r["workload"] for r in before + after})
    for workload in workloads:
        for m in metrics:
            pairs = paired_values(before, after, workload, m["name"])
            if not pairs:
                continue
            lower = m["better"] == "lower"
            won = sum((a < b) if lower else (a > b) for b, a in pairs)
            qb = quartiles([b for b, _ in pairs])
            qa = quartiles([a for _, a in pairs])
            worse = (qa[1] - qb[1] if lower else qb[1] - qa[1]) / qb[1]
            mark = ""
            if worse > m["bound"]:
                mark = f" worse by {worse:.1%} > bound {m['bound']:.0%}"
                marked.append(f"{workload} {m['name']} ({worse:.1%} worse)")
            lines.append(
                f"{workload:<14}{m['name']:<19}"
                f" {' / '.join(f'{v:.4g}' for v in qb):>32}"
                f" {' / '.join(f'{v:.4g}' for v in qa):>32}"
                f" {f'{won}/{len(pairs)}':>6}{mark}")
            if claim == (workload, m["name"]):
                gain = (qb[1] - qa[1]) if lower else (qa[1] - qb[1])
                ok = won >= WIN_SHARE * len(pairs) and gain > qb[2] - qb[0]
                verdict = (f"claim {workload} {m['name']}: won {won}/"
                           f"{len(pairs)}, median moved {gain:.4g} "
                           f"against the parent's quartile distance "
                           f"{qb[2] - qb[0]:.4g}: "
                           f"{'holds' if ok else 'does not hold'}")
    if claim is not None:
        lines.append(verdict or f"claim {claim[0]} {claim[1]}: no pairs")
    lines.append("worse than the bound: " + (", ".join(marked) or "none"))
    return lines


def protocol_text(parent: str, workloads: list[str],
                  claim: tuple[str, str] | None) -> str:
    """The protocol field of both run files."""
    text = (f"parent ({parent}) and change run alternately, the first of "
            f"each pair switching sides from pair to pair; for each seed 0-9 "
            f"in turn one pair of each workload ({', '.join(workloads)}), "
            f"then one traced seed-{TRACED_SEED} pair of each workload")
    if claim is None:
        return text + "; no gain is claimed"
    return (text + f", then one {claim[0]} pair for each of seeds 10-14, "
            f"seeds not run while the change was written; the claimed gain "
            f"is {claim[0]} {claim[1]}")


def bench_file(runs: list[dict], host: dict, protocol: str,
               what: str) -> dict:
    return {"command": COMMAND, "host": host, "protocol": protocol,
            "runs": runs, "what": what}


def export_revision(root: Path, rev: str, dest: Path):
    """The committed files of rev in the repository at root, written under
    dest by git archive."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=root, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def export_worktree(root: Path, dest: Path):
    """The files of the working tree at root that ``git add -A`` would
    stage, copied under dest: tracked files as they are on disk (one
    deleted from disk is left out) and untracked files that are not
    ignored."""
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, capture_output=True, check=True).stdout.decode().split("\0")
    for name in dict.fromkeys(filter(None, names)):
        src = root / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True,
                    help="the revision on the before side")
    ap.add_argument("--pr", required=True,
                    help="n of the BENCH_<n>_*.json files written")
    ap.add_argument("--claim",
                    help="workload:metric of the claimed gain, if any")
    ap.add_argument("--what", required=True,
                    help="what the change side holds, for the after file")
    args = ap.parse_args(argv)
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    plan = schedule(workloads, SEEDS, TRACED_SEED, claim and claim[0],
                    EXTRA_SEEDS)
    protocol = protocol_text(args.parent, workloads, claim)
    runs = {True: [], False: []}  # parent side, change side
    host = {}
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    checkouts = {True: tmp / "parent", False: tmp / "change"}  # one length
    try:
        for checkout in checkouts.values():
            checkout.mkdir()
        export_revision(ROOT, args.parent, checkouts[True])
        export_worktree(ROOT, checkouts[False])
        for k, (workload, seed, trace, parent_first) in enumerate(plan):
            for parent in (parent_first, not parent_first):
                record, host = run_once(checkouts[parent], workload, seed,
                                        trace, SECONDS)
                runs[parent].append(record)
                print(f"[{k + 1}/{len(plan)}] "
                      f"{'parent' if parent else 'change'} {workload} seed "
                      f"{seed} trace {trace}: reference "
                      f"{record['reference']}, correct "
                      f"{record['result']['correct']}",
                      file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = "perfbench/run.py result lines (the last stdout line of each run)"
    for parent, tag, what in ((True, "before", f"{lines} at the parent commit"),
                              (False, "after", f"{lines} {args.what}")):
        (ROOT / f"BENCH_{args.pr}_{tag}.json").write_text(json.dumps(
            bench_file(runs[parent], host, protocol, what),
            indent=1, sort_keys=True) + "\n")
    print("\n".join(summary(runs[True], runs[False], bench["end_to_end"],
                            claim)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
