"""Self-test of the ledger harness (not part of tier-1; takes ~2 min).

    python3 benchmarks/ledger/test_ledger.py
    PYTHONPATH=src python3 -m pytest benchmarks/ledger/test_ledger.py

Checks the harness, not the program: names agree with BENCHMARK.json,
serial ledger rows sum to wall, the journal cut leaves a resumable file,
span parent links are acyclic, and unknown stage or span names never
raise.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
#: short runs: the self-test checks structure, not speed
SECONDS = 4.0
SERIAL = "fig7-fpm-serial"

_traced = {}


def traced_run() -> dict:
    """One traced child of the serial fpm workload, shared by the tests."""
    if not _traced:
        run.build()
        _traced.update(run.run_child(
            "run", SERIAL, seed=workloads.DEFAULT_SEED, seconds=SECONDS,
            trace=1))
    return _traced


def test_names_are_valid_and_unique():
    spec = run.load_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] \
        + [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(n) for n in names), names
    assert len(set(names)) == len(names)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == ["benchmarks/ledger"]
    assert spec["run_seconds"] == workloads.NOMINAL_SECONDS
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}


def _driver_metrics(trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", SERIAL,
         "--seed", "11", "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result["metrics"]


def test_driver_output_names_equal_benchmark_json():
    spec = run.load_spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        metrics = _driver_metrics(trace)
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        assert {n: m["unit"] for n, m in metrics.items()} == wanted


def test_serial_rows_sum_to_wall():
    out = traced_run()
    layer = out["layer"]
    rows = sum(layer["ledger." + r] for r in ledger.ROWS) \
        + layer["ledger.other_s"]
    assert abs(rows - out["wall_s"]) <= 0.01 * out["wall_s"]
    assert 0.0 <= layer["ledger.unattributed_frac"] < 0.5
    assert layer["ledger.execute_s"] > 0.0
    assert layer["inject.campaign.trial_gap_samples"] > 0


def test_span_parents_are_acyclic():
    spans = traced_run()["spans"]
    assert ledger.parents_acyclic(spans)
    assert {s["run"] for s in spans} == {spans[0]["run"]}
    looped = [dict(spans[0], parent=1), dict(spans[1], parent=0)]
    assert not ledger.parents_acyclic(looped)


def test_fold_tolerates_unknown_names():
    spans = [
        {"id": 0, "name": "run", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "import", "start": 0.0, "end": 1.0, "parent": 0},
        {"id": 2, "name": "mystery", "start": 1.0, "end": 2.0, "parent": 0},
    ]
    call = {
        "kind": "campaign", "start": 2.0, "end": 9.0, "ticks": [4.0, 7.0],
        "stage_totals": {"tier2_codegen": 0.5, "teleport": 1.0},
        "trial_stages": {0: {"execute": 2.0, "teleport": 0.5},
                         1: {"execute": 2.5, "teleport": 0.5}},
        "trace": {"order": [0, 1],
                  "spans": {0: {"classify": 0.1, "warp": 9.0},
                            1: {"classify": 0.1}}},
    }
    out = ledger.fold(spans, [call], wall=10.0)
    assert out["ledger.position_s"] == 1.0       # the unknown stage key
    assert out["ledger.execute_s"] == 4.5
    assert out["ledger.tier2_codegen_s"] == 0.5  # all of it the driver's
    assert abs(out["ledger.first_trial_s"] - (4.0 - 0.5 - 2.6)) < 1e-9
    rows = sum(out["ledger." + r] for r in ledger.ROWS)
    assert abs(rows + out["ledger.other_s"] - 10.0) < 1e-9
    assert out["inject.campaign.trial_gap_samples"] == 1


def test_journal_cut_leaves_a_resumable_file():
    import repro
    from repro.inject.journal import journal_science_hash, read_journal_ex

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "j.jsonl"
        repro.run_campaign("matvec", 12, mode="fpm", seed=5,
                           journal=str(path))
        whole = journal_science_hash(path)
        assert ledger.cut_journal(path, 7) == 7
        _, trials, recovery = read_journal_ex(path)
        assert sorted(trials) == sorted(trials)[:7] and len(trials) == 7
        assert recovery.dropped == 0 and not recovery.torn_tail
        frames = [line for line in path.read_bytes().splitlines()
                  if line.startswith(b"T ")]
        assert len(frames) == 7
        resumed = repro.resume_campaign(str(path))
        assert resumed.health.resumed_trials == 7
        assert journal_science_hash(path) == whole


def test_campaign_seeds_follow_the_seed():
    a = workloads.campaign_seed(1, SERIAL, "amg")
    assert a == workloads.campaign_seed(1, SERIAL, "amg")
    assert a != workloads.campaign_seed(2, SERIAL, "amg")
    assert a != workloads.campaign_seed(1, SERIAL, "mcb")
    w = workloads.WORKLOADS["amg-remote-resume"].scaled(5.0)
    assert w.trials % 2 == 0 and w.resumed == w.trials // 2


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
