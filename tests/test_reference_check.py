"""The reference-check tool's keys, report and exit status, on canned run
records (no benchmark run)."""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))  # as running the tool as a script does
import reference_check  # noqa: E402

KEYS = list(json.loads((ROOT / "perfbench" / "reference.json").read_text()))


def canned_runs(monkeypatch, references: dict) -> list:
    """Replace the tool's run.py runs by records whose reference field is
    references[key], or by run.py's failure where that is None; return the
    list of runs asked for."""
    calls = []

    def run_once(checkout, workload, seed, trace, seconds):
        key = f"{workload}/{seed}/{seconds}"
        calls.append((checkout, key, trace))
        if references[key] is None:
            raise RuntimeError("perfbench/run.py printed no result")
        return {"reference": references[key], "seconds": seconds,
                "seed": seed, "trace": trace, "workload": workload}, {}

    monkeypatch.setattr(reference_check, "run_once", run_once)
    return calls


def test_every_key_by_default(monkeypatch, capsys):
    calls = canned_runs(monkeypatch, dict.fromkeys(KEYS, "match"))
    assert reference_check.main([]) == 0
    assert calls == [(ROOT, key, 0) for key in KEYS]
    out = capsys.readouterr().out.splitlines()
    assert len(KEYS) == 63
    assert out[0] == f"[1/63] {KEYS[0]}: match"
    assert out[-1] == "all 63 keys match"


def test_lists_every_key_that_does_not_match(monkeypatch, capsys):
    references = {"stadium-code/0/20": "match",
                  "fixture-code/0/2": "mismatch",
                  "flower-chi/0/1": "absent", "stadium-code/11/1": None}
    calls = canned_runs(monkeypatch, references)
    assert reference_check.main(list(references)) == 1
    assert [key for _, key, _ in calls] == list(references)
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    assert out[:4] == ["[1/4] stadium-code/0/20: match",
                       "[2/4] fixture-code/0/2: mismatch",
                       "[3/4] flower-chi/0/1: absent",
                       "[4/4] stadium-code/11/1: error"]
    assert out[-1] == ("not match: fixture-code/0/2 (mismatch), "
                       "flower-chi/0/1 (absent), stadium-code/11/1 (error)")
    assert "printed no result" in captured.err


def test_refuses_keys_the_reference_does_not_hold(monkeypatch, capsys):
    calls = canned_runs(monkeypatch, {})
    with pytest.raises(SystemExit) as exit_:
        reference_check.main(["stadium-code/0/20", "stadium-code/0/7"])
    assert exit_.value.code == 2
    assert calls == []
    assert "not keys of perfbench/reference.json: stadium-code/0/7" \
        in capsys.readouterr().err
