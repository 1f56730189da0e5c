"""The benchmark ledger's layer probes still reach every layer they time.

``benchmarks/ledger/probes.py`` calls public functions of every layer
and swallows a probe's exception, so that a moved layer only drops its
rows: the end-to-end run still exits 0, but its result line lacks
``per_layer`` metrics and the benchmark reads it as malformed.  This
test runs the probes on one small app and fails where the benchmark
would only go quiet.  A change that renames or removes an API a probe
calls (for example the ``SnapshotStore`` deletion ROADMAP item 4 plans)
first edits ``probes.py`` in a benchmark change of its own.
"""

import json
import math
import sys
import time
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger"


@pytest.fixture()
def ledger_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(LEDGER))
    import ledger
    import probes
    yield ledger, probes
    for name in ("ledger", "probes", "workloads"):
        sys.modules.pop(name, None)


def test_every_probe_runs_and_names_a_declared_row(ledger_modules,
                                                   monkeypatch, tmp_path):
    ledger, probes = ledger_modules
    monkeypatch.setattr(probes, "APPS", ("mcb",))
    monkeypatch.setattr(probes, "SHADOW_OPS", 2_000)
    monkeypatch.setattr(probes, "JOURNAL_FRAMES", 24)
    clock = ledger.HostClock(time.time()).start()
    try:
        out = probes.run_all(ledger.SpanLog("probe-test", clock), tmp_path)
    finally:
        clock.stop()
    assert out["skipped"] == {}
    layer = out["layer"]
    assert layer
    assert all(math.isfinite(v) for v in layer.values()), layer
    declared = {row["name"] for row in json.loads(
        (LEDGER.parents[1] / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(layer) <= declared, set(layer) - declared
