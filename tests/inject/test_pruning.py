"""Convergence pruning: pruned campaigns are bit-identical to full runs.

The pruning contract has two halves:

* *Equivalence* — a campaign with pruning on matches one with pruning
  off (``snapshot_stride=0``: no golden fingerprints to converge on)
  trial-for-trial (outcomes, fractions, series, CML streams, fitted
  propagation models, journals).  Pruning is a pure wall-clock
  optimisation; it must never be observable in the science.
* *Soundness* — only trials whose corrupted state genuinely healed can
  be pruned, so a pruned trial can only classify as Vanished / ONA (or
  CO under blackbox).  A trial that is still going to diverge — e.g. a
  corrupted register that never touched memory, leaving CML at zero the
  whole run — must never match a golden fingerprint.

Both halves are the equivalence oracle's (``tests/integration/oracle.py``),
which this corpus pins; ``test_oracle.py`` draws apps, modes and strides.
"""

import json

import numpy as np
import pytest

from repro.analysis import campaign_to_json, render_health_summary
from repro.apps import get_app
from repro.api import Session
from repro.core.config import RunConfig
from repro.inject import PreparedApp, run_campaign, trial_results_equal
from repro.inject import campaign as campaign_mod
from repro.inject.engine import resume_campaign
from repro.models import fit_cml_stream
from repro.obs import ObserveConfig
from tests.integration.oracle import AMG_SMALL, MINIFE_SMALL, Config, check


@pytest.fixture(autouse=True)
def fresh_cache(monkeypatch):
    """Isolate the prepared-app cache (and its verified flags) per test."""
    monkeypatch.setattr(campaign_mod, "_PREPARED_CACHE",
                        type(campaign_mod._PREPARED_CACHE)())


#: the acceptance corpus: each mode, pruned at its app's stride
CORPUS = [
    Config("amg", "taint", True, 256, False, "serial", False, 8, 5),
    Config("minife", "blackbox", True, 256, False, "serial", False, 12, 2025),
    Config("matvec", "fpm", True, 150, False, "serial", False, 16, 2025),
]


def _pair(app, params, mode, trials, stride, seed=2025, **kw):
    """One (pruned, unpruned) campaign pair, prepared cache shared."""
    keep = mode != "blackbox"
    on = run_campaign(app, trials, mode=mode, seed=seed, params=params,
                      keep_series=keep, snapshot_stride=stride, **kw)
    off = run_campaign(app, trials, mode=mode, seed=seed, params=params,
                       keep_series=keep, snapshot_stride=0, **kw)
    return on, off


def test_fuzz_corpus_bit_identity_and_soundness():
    """The acceptance gate: pruned campaigns agree with unpruned cold
    ones on everything, and every pruned trial lands in its mode's
    masked classes (:func:`tests.integration.oracle.check`)."""
    pruned = sum(check(c).health.pruned_trials for c in CORPUS)
    assert pruned > 0, "corpus never exercised a pruned splice"


REGONLY_SRC = """
// A register-resident accumulator: `total` never lands in memory until
// the final emit, so a fault that corrupts it leaves every shadow table
// empty (CML == 0 for the entire run) while the world is permanently
// diverged from golden.  The cheap CML preconditions for pruning all
// pass; only the state digest (which covers register files) can notice
// the divergence — the historical false-prune hazard pinned here.
func main(rank: int, size: int) {
    var total: int = 0;
    for (var i: int = 0; i < 300; i += 1) {
        total += (i * 7 + rank) % 13;
    }
    mark_iteration();
    emiti(total);
}
"""


def test_register_only_divergence_is_never_pruned():
    s = Session.from_source(
        REGONLY_SRC, name="regonly_prune",
        config=RunConfig(nranks=2, quantum=64))
    on = s.campaign(trials=80, seed=7, snapshot_stride=64)
    off = s.campaign(trials=80, seed=7, snapshot_stride=0)
    silent_wrong = 0
    for a, b in zip(on.trials, off.trials):
        assert trial_results_equal(a, b)
        if a.outcome in ("WO", "PEX", "C"):
            assert a.pruned_at_cycle is None
        if a.outcome == "WO" and a.peak_cml == 0:
            silent_wrong += 1
    # the hazardous window must actually occur in this corpus: wrong
    # output with a shadow table that stayed empty the whole run
    assert silent_wrong > 0, \
        "no trial diverged with CML pinned at 0; hazard not exercised"


def test_cml_streams_and_fitted_models_identical(tmp_path):
    on_cfg = ObserveConfig(trace=str(tmp_path / "on.jsonl"))
    off_cfg = ObserveConfig(trace=str(tmp_path / "off.jsonl"))
    on = run_campaign("amg", 40, mode="fpm", seed=5, params=AMG_SMALL,
                      snapshot_stride=256, observe=on_cfg)
    campaign_mod._PREPARED_CACHE.clear()
    off = run_campaign("amg", 40, mode="fpm", seed=5, params=AMG_SMALL,
                       snapshot_stride=0, observe=off_cfg)
    assert any(t.pruned_at_cycle is not None for t in on.trials)
    compared = 0
    for i, (a, b) in enumerate(zip(on.trials, off.trials)):
        if a.cml_stream is None:
            assert b.cml_stream is None
            continue
        assert np.array_equal(a.cml_stream, b.cml_stream), \
            f"trial {i} stream differs under pruning"
        if a.ever_contaminated and len(a.cml_stream) >= 3:
            fa, fb = fit_cml_stream(a.cml_stream), fit_cml_stream(b.cml_stream)
            assert (fa.n, fa.slope, fa.intercept, fa.breakpoint, fa.r2) == \
                (fb.n, fb.slope, fb.intercept, fb.breakpoint, fb.r2)
            compared += 1
    assert compared > 0


def test_journaled_resume_preserves_pruning(tmp_path):
    path = tmp_path / "pruned.jsonl"
    full = run_campaign("amg", 30, mode="fpm", seed=11, params=AMG_SMALL,
                        snapshot_stride=256, journal=str(path))
    assert any(t.pruned_at_cycle is not None for t in full.trials)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["snapshot_stride"] == 256
    # interrupt: keep header + first 8 trials
    path.write_text("\n".join(lines[:9]) + "\n")
    resumed = resume_campaign(path)
    assert resumed.health.resumed_trials == 8
    full_d = json.loads(campaign_to_json(full))
    res_d = json.loads(campaign_to_json(resumed))
    for t in full_d["trials"] + res_d["trials"]:
        t.pop("stage_timings", None)
    assert res_d["trials"] == full_d["trials"]


def test_artifacts_carry_fingerprints(tmp_path):
    spec = get_app("matvec")
    first = PreparedApp(spec, "fpm", snapshot_stride=150,
                        artifact_dir=tmp_path)
    assert first.fingerprints is not None and len(first.fingerprints) > 0
    second = PreparedApp(spec, "fpm", snapshot_stride=150,
                         artifact_dir=tmp_path)
    fp = second.fingerprints
    assert fp is not None
    assert fp.digests == first.fingerprints.digests
    assert fp.quick == first.fingerprints.quick
    assert fp.final_cycles == first.fingerprints.final_cycles
    assert fp.final_outputs == first.fingerprints.final_outputs


def test_pruning_identical_through_shared_artifacts(tmp_path):
    base_on, base_off = _pair("amg", AMG_SMALL, "fpm", 25, 256, seed=13)
    campaign_mod._PREPARED_CACHE.clear()
    run_campaign("amg", 25, mode="fpm", seed=13, params=AMG_SMALL,
                 keep_series=True, snapshot_stride=256,
                 artifact_dir=str(tmp_path))  # profiles + saves artifact
    campaign_mod._PREPARED_CACHE.clear()
    via_art = run_campaign("amg", 25, mode="fpm", seed=13, params=AMG_SMALL,
                           keep_series=True, snapshot_stride=256,
                           artifact_dir=str(tmp_path))  # loads artifact
    for a, b in zip(base_on.trials, via_art.trials):
        assert trial_results_equal(a, b)
    assert [t.pruned_at_cycle for t in via_art.trials] == \
        [t.pruned_at_cycle for t in base_on.trials]
    for a, b in zip(base_on.trials, base_off.trials):
        assert trial_results_equal(a, b)


def test_pool_workers_prune_identically():
    serial = run_campaign("amg", 24, mode="fpm", seed=17, params=AMG_SMALL,
                          snapshot_stride=256, workers=1)
    pooled = run_campaign("amg", 24, mode="fpm", seed=17, params=AMG_SMALL,
                          snapshot_stride=256, workers=2)
    for a, b in zip(serial.trials, pooled.trials):
        assert trial_results_equal(a, b)
        assert a.pruned_at_cycle == b.pruned_at_cycle


def test_health_and_summary_report_pruning():
    on, off = _pair("minife", MINIFE_SMALL, "fpm", 30, 256, seed=19)
    n_pruned = sum(1 for t in on.trials if t.pruned_at_cycle is not None)
    assert n_pruned > 0
    assert on.health.pruned_trials == n_pruned
    assert on.health.pruned_cycles > 0
    summary = render_health_summary(on.health, [])
    assert "pruned" in summary
    assert str(n_pruned) in summary
    assert off.health.pruned_trials == 0
    assert "pruned" not in render_health_summary(off.health, [])


def test_env_escape_hatch_disables_pruning(monkeypatch):
    # stride 0 captures no fingerprints: the one way to run unpruned
    monkeypatch.setenv("REPRO_SNAPSHOT_STRIDE", "0")
    c = run_campaign("minife", 20, mode="fpm", seed=19, params=MINIFE_SMALL)
    assert all(t.pruned_at_cycle is None for t in c.trials)
    assert c.health.pruned_trials == 0


def test_snapshot_stride_zero_cli_flag_runs_unpruned(tmp_path, capsys):
    from repro.cli import main
    out = tmp_path / "c.json"
    assert main(["campaign", "matvec", "--trials", "4", "--mode", "fpm",
                 "--snapshot-stride", "0", "--save-json", str(out)]) == 0
    from repro.analysis import load_campaign
    c = load_campaign(out)
    assert all(t.pruned_at_cycle is None for t in c.trials)


def test_pruned_at_cycle_round_trips_json():
    on, _ = _pair("minife", MINIFE_SMALL, "fpm", 20, 256, seed=23)
    from repro.analysis import campaign_from_json
    back = campaign_from_json(campaign_to_json(on))
    assert [t.pruned_at_cycle for t in back.trials] == \
        [t.pruned_at_cycle for t in on.trials]
