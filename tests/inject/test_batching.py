"""Bucket scheduling and per-trial stage timings.

Fork-epoch buckets reorder *execution* only — results are stored by
trial index, and all randomness is drawn up front — so campaigns must be
bit-identical serial or pooled, fresh or resumed.
"""

import pytest

from repro.analysis import campaign_from_json, campaign_to_json
from repro.analysis.report import render_health_summary
from repro.inject import run_campaign, trial_results_equal
from repro.inject import campaign as campaign_mod
from repro.inject.engine import resume_campaign


@pytest.fixture(autouse=True)
def fresh_cache(monkeypatch):
    monkeypatch.setattr(campaign_mod, "_PREPARED_CACHE",
                        type(campaign_mod._PREPARED_CACHE)())


class TestCampaignIdentity:
    def test_batched_pool_equals_serial(self, tmp_path):
        serial = run_campaign("matvec", trials=16, mode="blackbox", seed=8,
                              snapshot_stride=150,
                              artifact_dir=str(tmp_path))
        pooled = run_campaign("matvec", trials=16, mode="blackbox", seed=8,
                              workers=2, snapshot_stride=150,
                              executor="pool", artifact_dir=str(tmp_path))
        assert pooled.effective_workers == 2
        for a, b in zip(serial.trials, pooled.trials):
            assert trial_results_equal(a, b)

    def test_resume_with_batching_is_bit_identical(self, tmp_path):
        path = tmp_path / "b.jsonl"
        full = run_campaign("matvec", trials=12, mode="blackbox", seed=5,
                            journal=str(path), snapshot_stride=150)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:6]) + "\n")
        campaign_mod._PREPARED_CACHE.clear()
        resumed = resume_campaign(path)
        assert resumed.health.resumed_trials == 5
        for a, b in zip(full.trials, resumed.trials):
            assert trial_results_equal(a, b)


class TestStageTimings:
    def test_trials_carry_stage_timings(self):
        c = run_campaign("matvec", trials=6, mode="blackbox", seed=3,
                         snapshot_stride=150)
        for t in c.trials:
            assert t.stage_timings is not None
            # forked trials add a fork_advance stage on top of the
            # base set
            assert {"artifact_load", "execute"} <= set(t.stage_timings) <= {
                "artifact_load", "execute", "fork_advance",
                "tier2_codegen"}
            assert all(v >= 0.0 for v in t.stage_timings.values())

    def test_health_aggregates_timings(self):
        c = run_campaign("matvec", trials=6, mode="blackbox", seed=3,
                         snapshot_stride=150)
        agg = c.health.stage_timings
        for stage in ("artifact_load", "execute"):
            total = sum(t.stage_timings[stage] for t in c.trials)
            assert agg[stage] == pytest.approx(total)

    def test_tier2_codegen_is_a_per_campaign_delta(self):
        # traces compile on first entry, so the cost belongs to the
        # campaign (and trial) that entered them — a repeat of the same
        # campaign in the same process compiles nothing
        campaign_mod._PREPARED_CACHE.clear()
        knobs = dict(trials=8, mode="blackbox", seed=3, executor="serial")
        first = run_campaign("matvec", **knobs)
        again = run_campaign("matvec", **knobs)
        assert first.health.stage_timings["tier2_codegen"] > 0.0
        assert again.health.stage_timings["tier2_codegen"] == 0.0
        assert first.health.stage_timings["tier2_codegen"] == pytest.approx(
            sum(t.stage_timings["tier2_codegen"] for t in first.trials))

    def test_timings_round_trip_json(self):
        c = run_campaign("matvec", trials=4, mode="blackbox", seed=3,
                         snapshot_stride=150)
        back = campaign_from_json(campaign_to_json(c))
        assert back.trials[0].stage_timings == c.trials[0].stage_timings
        assert back.health.stage_timings == c.health.stage_timings

    def test_resume_keeps_cumulative_timings(self, tmp_path):
        path = tmp_path / "t.jsonl"
        run_campaign("matvec", trials=8, mode="blackbox", seed=3,
                     journal=str(path), snapshot_stride=150)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:5]) + "\n")
        campaign_mod._PREPARED_CACHE.clear()
        resumed = resume_campaign(path)
        agg = resumed.health.stage_timings
        # journaled trials contribute their recorded timings, executed
        # trials contribute fresh ones — all 8 must be in the totals
        total = sum(sum(t.stage_timings.values()) for t in resumed.trials)
        assert sum(agg.values()) == pytest.approx(total)
        assert resumed.health.resumed_trials == 4

    def test_render_health_summary_prints_stage_totals(self):
        c = run_campaign("matvec", trials=4, mode="blackbox", seed=3,
                         snapshot_stride=150)
        text = render_health_summary(c.health)
        assert "stage totals:" in text
        assert "artifact_load" in text and "execute" in text

    def test_timings_excluded_from_bit_identity(self):
        c = run_campaign("matvec", trials=2, mode="blackbox", seed=3,
                         snapshot_stride=150)
        a, b = c.trials[0], c.trials[0]
        import copy
        b = copy.deepcopy(a)
        b.stage_timings = {"execute": 999.0}
        assert trial_results_equal(a, b)
