"""Snapshot-locality scheduling and per-trial stage timings.

Batching reorders *execution* only — results are stored by trial index,
and all randomness is drawn up front — so campaigns with batching on
and off must be bit-identical, serial or pooled, fresh or resumed.
"""

import json

import pytest

from repro.analysis import campaign_from_json, campaign_to_json
from repro.analysis.report import render_health_summary
from repro.apps import get_app
from repro.inject import (
    PreparedApp,
    batch_by_snapshot,
    plan_batches,
    run_campaign,
    trial_results_equal,
)
from repro.inject import campaign as campaign_mod
from repro.inject.campaign import _build_jobs
from repro.inject.engine import resume_campaign


@pytest.fixture(autouse=True)
def fresh_cache(monkeypatch):
    monkeypatch.setattr(campaign_mod, "_PREPARED_CACHE",
                        type(campaign_mod._PREPARED_CACHE)())


def _jobs_and_store(trials=24, stride=150, seed=17):
    pa = PreparedApp(get_app("matvec"), "blackbox", snapshot_stride=stride)
    jobs = _build_jobs("matvec", (), "blackbox", pa.golden, trials, 1,
                       seed, None, None, False, None, stride)
    return jobs, pa.snapshots


class TestPlanBatches:
    def test_batches_partition_all_indices(self):
        jobs, store = _jobs_and_store()
        batches = plan_batches(jobs, store, workers=1)
        flat = [i for b in batches for i in b]
        assert sorted(flat) == list(range(len(jobs)))

    def test_batches_group_by_snapshot_cycle(self):
        jobs, store = _jobs_and_store()
        batches = plan_batches(jobs, store, workers=1)
        cycles = []
        for batch in batches:
            snap_cycles = {
                (store.probe(jobs[i][3]).cycle
                 if store.probe(jobs[i][3]) is not None else -1)
                for i in batch
            }
            assert len(snap_cycles) == 1, "batch mixes snapshots"
            cycles.append(snap_cycles.pop())
        assert cycles == sorted(cycles), "batches not in cycle order"

    def test_deterministic_across_calls(self):
        jobs, store = _jobs_and_store()
        assert plan_batches(jobs, store, 4) == plan_batches(jobs, store, 4)

    def test_oversized_groups_split_for_workers(self):
        jobs, store = _jobs_and_store(trials=40)
        one = plan_batches(jobs, store, workers=1)
        four = plan_batches(jobs, store, workers=4)
        big = max(len(b) for b in one)
        assert big > 4  # precondition: some snapshot dominates
        assert len(four) > len(one)
        # every group larger than the worker count was cut down to
        # ceil(len / workers)-sized chunks
        expected_max = max(
            len(b) if len(b) <= 4 else -(-len(b) // 4) for b in one
        )
        assert max(len(b) for b in four) == expected_max
        # splitting never reorders trials, only cuts group boundaries
        assert [i for b in one for i in b] == [i for b in four for i in b]

    def test_env_escape_hatch(self, monkeypatch):
        assert batch_by_snapshot() is True
        monkeypatch.setenv("REPRO_BATCH_BY_SNAPSHOT", "0")
        assert batch_by_snapshot() is False
        monkeypatch.setenv("REPRO_BATCH_BY_SNAPSHOT", "off")
        assert batch_by_snapshot() is False
        monkeypatch.setenv("REPRO_BATCH_BY_SNAPSHOT", "1")
        assert batch_by_snapshot() is True
        assert batch_by_snapshot(False) is False


class TestCampaignIdentity:
    @pytest.mark.parametrize("mode", ["blackbox", "fpm"])
    def test_batched_equals_unbatched_serial(self, monkeypatch, mode):
        on = run_campaign("matvec", trials=18, mode=mode, seed=23,
                          keep_series=True, snapshot_stride=150)
        campaign_mod._PREPARED_CACHE.clear()
        monkeypatch.setenv("REPRO_BATCH_BY_SNAPSHOT", "0")
        off = run_campaign("matvec", trials=18, mode=mode, seed=23,
                           keep_series=True, snapshot_stride=150)
        for a, b in zip(on.trials, off.trials):
            assert trial_results_equal(a, b)

    def test_batched_pool_equals_serial(self, tmp_path):
        serial = run_campaign("matvec", trials=16, mode="blackbox", seed=8,
                              snapshot_stride=150,
                              artifact_dir=str(tmp_path))
        pooled = run_campaign("matvec", trials=16, mode="blackbox", seed=8,
                              workers=2, snapshot_stride=150,
                              artifact_dir=str(tmp_path))
        assert pooled.effective_workers == 2
        for a, b in zip(serial.trials, pooled.trials):
            assert trial_results_equal(a, b)

    def test_prefetch_depth_env(self, monkeypatch):
        from repro.inject.engine import _PREFETCH, prefetch_depth
        assert prefetch_depth() == _PREFETCH
        monkeypatch.setenv("REPRO_PREFETCH", "5")
        assert prefetch_depth() == 5
        monkeypatch.setenv("REPRO_PREFETCH", "0")
        assert prefetch_depth() == 1  # clamped: the head must dispatch
        monkeypatch.setenv("REPRO_PREFETCH", "junk")
        with pytest.warns(UserWarning, match="REPRO_PREFETCH"):
            assert prefetch_depth() == _PREFETCH

    def test_single_depth_pool_is_bit_identical(self, monkeypatch):
        serial = run_campaign("matvec", trials=16, mode="blackbox", seed=8,
                              snapshot_stride=150)
        campaign_mod._PREPARED_CACHE.clear()
        monkeypatch.setenv("REPRO_PREFETCH", "1")
        pooled = run_campaign("matvec", trials=16, mode="blackbox", seed=8,
                              workers=2, snapshot_stride=150)
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
            # forked trials add a fork_advance stage and lane trials a
            # lane_advance stage on top of the base set
            assert {"artifact_load", "snapshot_restore", "clone",
                    "execute"} <= set(t.stage_timings) <= {
                "artifact_load", "snapshot_restore", "clone", "execute",
                "fork_advance", "lane_advance", "tier2_codegen"}
            assert all(v >= 0.0 for v in t.stage_timings.values())

    def test_health_aggregates_timings(self):
        c = run_campaign("matvec", trials=6, mode="blackbox", seed=3,
                         snapshot_stride=150)
        agg = c.health.stage_timings
        for stage in ("artifact_load", "snapshot_restore", "clone",
                      "execute"):
            total = sum(t.stage_timings[stage] for t in c.trials)
            assert agg[stage] == pytest.approx(total)

    def test_tier2_codegen_is_a_per_campaign_delta(self):
        # traces compile on first entry, so the cost belongs to the
        # campaign (and trial) that entered them — a repeat of the same
        # campaign in the same process compiles nothing
        campaign_mod._PREPARED_CACHE.clear()
        first = run_campaign("matvec", trials=8, mode="blackbox", seed=3)
        again = run_campaign("matvec", trials=8, mode="blackbox", seed=3)
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
