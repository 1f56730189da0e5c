"""Fork-at-injection execution: COW forks off a paused golden world.

The fork contract: a trial forked COW at its fork epoch is bit-identical
to the same trial run cold from cycle 0 — the paused cursor at the top
of epoch *e* holds exactly the world a cold trial has after *e* epochs,
its fault not yet fired — and the shared golden world survives any
trial outcome.
These tests pin that contract at every layer: the fork-epoch binary
search, the cursor (advance / rewind / fork / poison), the epoch-bucket
planner, and the campaign (provenance, health, journal resume,
fallback ladder).
"""

import warnings

import numpy as np
import pytest

from repro.analysis import campaign_from_json, campaign_to_json
from repro.apps import get_app
from repro.core.runner import run_job
from repro.errors import SnapshotError
from repro.inject import (
    PreparedApp,
    plan_fork_batches,
    run_campaign,
    trial_results_equal,
)
from repro.inject import campaign as campaign_mod
from repro.inject.campaign import (
    DEFINITION_KEYS, _build_jobs, _job_template,
)
from repro.inject.engine import resume_campaign
from repro.inject.forkrun import GoldenCursor
from repro.inject.journal import read_journal
from repro.inject.plan import draw_plan
from repro.vm import FaultSpec
from tests.integration.oracle import Config, check


@pytest.fixture(autouse=True)
def fresh_cache(monkeypatch):
    """Isolate the prepared-app cache (and its cursors) per test."""
    monkeypatch.setattr(campaign_mod, "_PREPARED_CACHE",
                        type(campaign_mod._PREPARED_CACHE)())


def _job_equal(a, b):
    assert a.status == b.status
    assert a.cycles == b.cycles
    assert a.rank_cycles == b.rank_cycles
    assert a.outputs == b.outputs
    assert a.inj_counts == b.inj_counts
    assert str(a.trap) == str(b.trap)
    if a.trace is not None or b.trace is not None:
        assert a.trace.times == b.trace.times
        assert a.trace.cml_per_rank == b.trace.cml_per_rank
        assert a.trace.first_contamination == b.trace.first_contamination


# ----------------------------------------------------------------------
class TestForkEpoch:
    def test_counters_are_dense_and_monotone(self):
        pa = PreparedApp(get_app("matvec"), "fpm")
        ec = pa.golden.epoch_counters
        assert ec is not None and len(ec) > 2
        assert ec[0] == (0,) * len(ec[0])
        for rank in range(len(ec[0])):
            col = [row[rank] for row in ec]
            assert col == sorted(col)
        # the last entry accounts for every injectable execution
        assert list(ec[-1]) == list(pa.golden.inj_counts)

    def test_binary_search_matches_linear_scan(self):
        pa = PreparedApp(get_app("matvec"), "fpm")
        ec = pa.golden.epoch_counters
        rng = np.random.default_rng(5)
        for _ in range(40):
            faults = draw_plan(rng, pa.golden.inj_counts, 1)
            got = pa.golden.fork_epoch(faults)
            # reference: largest e with counters[e][rank] < occurrence
            # for every fault
            want = max(
                e for e in range(len(ec))
                if all(ec[e][s.rank] < s.occurrence for s in faults)
            )
            assert got == want, faults

    def test_multi_fault_takes_the_earliest(self):
        pa = PreparedApp(get_app("matvec"), "fpm")
        early = FaultSpec(rank=0, occurrence=1)
        late = FaultSpec(rank=0, occurrence=pa.golden.inj_counts[0])
        both = pa.golden.fork_epoch([early, late])
        assert both == pa.golden.fork_epoch([early])
        assert both <= pa.golden.fork_epoch([late])

    def test_zero_without_faults(self):
        pa = PreparedApp(get_app("matvec"), "fpm")
        assert pa.golden.fork_epoch([]) == 0

    def test_zero_for_out_of_range_rank(self):
        pa = PreparedApp(get_app("matvec"), "fpm")
        assert pa.golden.fork_epoch([FaultSpec(rank=99, occurrence=1)]) == 0

    def test_fork_epoch_counters_precede_occurrence(self):
        # the defining property: forking at e, the fault has not fired
        pa = PreparedApp(get_app("matvec"), "fpm")
        ec = pa.golden.epoch_counters
        rng = np.random.default_rng(9)
        for _ in range(20):
            faults = draw_plan(rng, pa.golden.inj_counts, 2)
            e = pa.golden.fork_epoch(faults)
            for s in faults:
                assert ec[e][s.rank] < s.occurrence


# ----------------------------------------------------------------------
class TestGoldenCursor:
    @pytest.mark.parametrize("mode", ["blackbox", "fpm"])
    def test_fork_bit_identical_to_cold(self, mode):
        pa = PreparedApp(get_app("matvec"), mode)
        cursor = GoldenCursor(pa)
        rng = np.random.default_rng(11)
        forked = 0
        for _ in range(10):
            faults = draw_plan(rng, pa.golden.inj_counts, 1)
            seed = int(rng.integers(2 ** 31))
            e = pa.golden.fork_epoch(faults)
            if e == 0:
                continue
            cursor.advance_to(e)
            fast, pages = cursor.fork_run(faults, inj_seed=seed)
            cold = run_job(pa.program, pa.run_config(), faults,
                           inj_seed=seed)
            _job_equal(cold, fast)
            assert pages >= 0
            forked += 1
        assert forked > 0, "no drawn plan ever had a usable fork epoch"

    def test_golden_world_survives_any_trial(self):
        # forking the same plan twice off the same paused world must
        # give the same answer — i.e. the rollback is exact
        pa = PreparedApp(get_app("matvec"), "fpm")
        cursor = GoldenCursor(pa)
        rng = np.random.default_rng(2)
        faults = draw_plan(rng, pa.golden.inj_counts, 1)
        e = max(1, pa.golden.fork_epoch(faults))
        cursor.advance_to(e)
        a, _ = cursor.fork_run(faults, inj_seed=7)
        b, _ = cursor.fork_run(faults, inj_seed=7)
        _job_equal(a, b)
        assert cursor.trials == 2

    def test_forward_advance_reuses_the_paused_world(self):
        pa = PreparedApp(get_app("matvec"), "fpm")
        cursor = GoldenCursor(pa)
        cursor.advance_to(2)
        assert cursor.cold_starts == 1
        cursor.advance_to(5)
        cursor.advance_to(5)
        assert cursor.epoch == 5
        assert cursor.cold_starts == 1  # no rebuild on forward motion
        assert cursor.rewinds == 0

    def test_backward_advance_rewinds(self):
        pa = PreparedApp(get_app("matvec"), "fpm")
        cursor = GoldenCursor(pa)
        cursor.advance_to(6)
        t6 = cursor.advance_to(6)
        t3 = cursor.advance_to(3)
        assert cursor.epoch == 3
        assert t3 < t6
        assert cursor.rewinds + cursor.cold_starts >= 2
        # and the rewound world is still fork-correct
        rng = np.random.default_rng(4)
        faults = draw_plan(rng, pa.golden.inj_counts, 1)
        e = pa.golden.fork_epoch(faults)
        cursor.advance_to(e if e > 0 else 3)

    def test_advance_past_completion_poisons_then_recovers(self):
        pa = PreparedApp(get_app("matvec"), "fpm")
        cursor = GoldenCursor(pa)
        with pytest.raises(SnapshotError):
            cursor.advance_to(10 ** 9)
        assert cursor.epoch is None
        with pytest.raises(SnapshotError):
            cursor.fork_run([FaultSpec(rank=0, occurrence=1)])
        cursor.advance_to(2)  # rebuilds transparently
        assert cursor.epoch == 2

    def test_fork_requires_a_paused_world(self):
        pa = PreparedApp(get_app("matvec"), "fpm")
        with pytest.raises(SnapshotError):
            GoldenCursor(pa).fork_run([FaultSpec(rank=0, occurrence=1)])

    def test_stats_shape(self):
        pa = PreparedApp(get_app("matvec"), "fpm")
        cursor = GoldenCursor(pa)
        assert set(cursor.stats()) == {"epoch", "trials", "cold_starts",
                                       "rewinds"}


# ----------------------------------------------------------------------
def _fork_jobs(trials=24, seed=17, mode="blackbox", fork=True):
    pa = PreparedApp(get_app("matvec"), mode, snapshot_stride=150)
    header = dict.fromkeys(DEFINITION_KEYS) | {
        "app_name": "matvec", "mode": mode, "n_trials": trials,
        "n_faults": 1, "seed": seed, "snapshot_stride": 150,
        "fork": fork, "params": []}
    return _build_jobs(header, pa.golden, _job_template(header))


class TestPlanForkBatches:
    def test_batches_partition_all_indices(self):
        jobs = _fork_jobs()
        batches = plan_fork_batches(jobs, workers=1)
        assert sorted(i for b in batches for i in b) == \
            list(range(len(jobs)))

    def test_jobs_carry_fork_epochs(self):
        jobs = _fork_jobs()
        assert any(j.fork_epoch > 0 for j in jobs)

    def test_buckets_are_epoch_homogeneous_and_ascending(self):
        jobs = _fork_jobs(trials=40)
        batches = plan_fork_batches(jobs, workers=1)
        epochs = []
        for b in batches:
            es = {jobs[i].fork_epoch for i in b}
            assert len(es) == 1, "bucket mixes fork epochs"
            epochs.append(es.pop())
        assert epochs == sorted(epochs)

    def test_no_fork_jobs_draw_identical_plans(self):
        on = _fork_jobs(trials=16, seed=3)
        off = _fork_jobs(trials=16, seed=3, fork=False)
        for a, b in zip(on, off):
            assert a.faults == b.faults and a.inj_seed == b.inj_seed
            assert b.fork_epoch == 0

    def test_oversized_buckets_split_for_workers(self):
        jobs = _fork_jobs(trials=40)
        one = plan_fork_batches(jobs, workers=1)
        four = plan_fork_batches(jobs, workers=4)
        assert len(four) >= len(one)
        assert [i for b in one for i in b] == [i for b in four for i in b]

    def test_deterministic(self):
        jobs = _fork_jobs()
        assert plan_fork_batches(jobs, 4) == plan_fork_batches(jobs, 4)


# ----------------------------------------------------------------------
class TestCampaignFork:
    @pytest.mark.parametrize("mode", ["blackbox", "fpm"])
    def test_fork_campaign_bit_identical_to_no_fork(self, mode):
        got = check(Config("matvec", mode, True, 150, False, "serial", False,
                           20, 23))
        assert got.health.forked_trials > 0

    def test_pooled_fork_equals_serial(self, tmp_path):
        serial = run_campaign("matvec", trials=16, mode="fpm", seed=8,
                              snapshot_stride=150,
                              artifact_dir=str(tmp_path))
        pooled = run_campaign("matvec", trials=16, mode="fpm", seed=8,
                              workers=2, snapshot_stride=150,
                              executor="pool", artifact_dir=str(tmp_path))
        assert pooled.effective_workers == 2
        for a, b in zip(serial.trials, pooled.trials):
            assert trial_results_equal(a, b)

    def test_health_aggregates_fork_provenance(self):
        c = run_campaign("matvec", trials=16, mode="fpm", seed=31,
                         snapshot_stride=150)
        forked = [t for t in c.trials if t.forked_at_cycle is not None]
        assert forked, "campaign never forked a trial"
        assert c.health.forked_trials == len(forked)
        assert c.health.pages_copied == \
            sum(t.pages_copied or 0 for t in forked)

    def test_default_campaign_forks_every_trial_with_a_fork_epoch(self):
        c = run_campaign("matvec", trials=16, mode="fpm", seed=31,
                         snapshot_stride=150)
        pa = campaign_mod._prepared("matvec", (), "fpm", 150)
        epochs = [pa.golden.fork_epoch(t.faults) for t in c.trials]
        assert any(epochs), "no trial had a fork epoch"
        for epoch, t in zip(epochs, c.trials):
            assert (t.forked_at_cycle is not None) == (epoch > 0)
            assert not {"lane_advance", "clone"} & set(t.stage_timings)
        assert c.health.forked_trials == sum(1 for e in epochs if e > 0)

    def test_verify_failure_does_not_inflate_fork_metrics(self, monkeypatch):
        """A fork trial failing its cold cross-check ships from the
        cold rung — bit-identical, warned about, counted once as a
        fallback — and must not be counted in
        ``repro_trials_forked_total`` / ``repro_pages_copied_total``:
        the counters are incremented only after the verify gate, so
        they always agree with the shipped trials' provenance.  The
        next forked trial is cross-checked again, and passes."""
        from repro.obs import ObserveConfig

        baseline = run_campaign("matvec", trials=6, mode="fpm", seed=31,
                                snapshot_stride=150, fork=False)
        campaign_mod._PREPARED_CACHE.clear()
        real = campaign_mod.trial_results_equal
        state = {"failed": False}

        def flaky(a, b):
            if not state["failed"]:  # fail exactly one fork verify
                state["failed"] = True
                return False
            return real(a, b)

        monkeypatch.setattr(campaign_mod, "trial_results_equal", flaky)
        with pytest.warns(UserWarning, match="running the trial cold"):
            c = run_campaign("matvec", trials=6, mode="fpm", seed=31,
                             snapshot_stride=150, executor="serial",
                             observe=ObserveConfig(events=False, cml=False))
        assert state["failed"], "no fork verify ever ran"

        def counter(name):
            series = c.metrics["counters"].get(name, [])
            return sum(value for _, value in series)

        forked = [t for t in c.trials if t.forked_at_cycle is not None]
        pa = campaign_mod._prepared("matvec", (), "fpm", 150)
        with_epoch = sum(1 for t in c.trials
                         if pa.golden.fork_epoch(t.faults) > 0)
        assert len(forked) == with_epoch - 1     # one trial degraded
        assert counter("repro_fork_fallback_total") == 1
        assert counter("repro_trials_forked_total") == len(forked)
        assert c.health.forked_trials == len(forked)
        assert counter("repro_pages_copied_total") == c.health.pages_copied
        assert c.health.pages_copied == \
            sum(t.pages_copied or 0 for t in c.trials)
        for a, b in zip(baseline.trials, c.trials):
            assert real(a, b)

    def test_provenance_round_trips_json(self):
        c = run_campaign("matvec", trials=8, mode="fpm", seed=31,
                         snapshot_stride=150)
        back = campaign_from_json(campaign_to_json(c))
        for a, b in zip(c.trials, back.trials):
            assert a.forked_at_cycle == b.forked_at_cycle
            assert a.pages_copied == b.pages_copied
        assert back.health.forked_trials == c.health.forked_trials
        assert back.health.pages_copied == c.health.pages_copied

    def test_provenance_excluded_from_bit_identity(self):
        import copy
        c = run_campaign("matvec", trials=2, mode="blackbox", seed=3,
                         snapshot_stride=150)
        a = c.trials[0]
        b = copy.deepcopy(a)
        b.forked_at_cycle = 123456
        b.pages_copied = 99
        assert trial_results_equal(a, b)

    def test_journaled_resume_keeps_forking(self, tmp_path):
        path = tmp_path / "f.jsonl"
        full = run_campaign("matvec", trials=12, mode="fpm", seed=5,
                            journal=str(path), snapshot_stride=150)
        header, _ = read_journal(path)
        assert header["fork"] is True
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:6]) + "\n")
        campaign_mod._PREPARED_CACHE.clear()
        resumed = resume_campaign(path)
        assert resumed.health.resumed_trials == 5
        for a, b in zip(full.trials, resumed.trials):
            assert trial_results_equal(a, b)
            assert a.forked_at_cycle == b.forked_at_cycle
        assert resumed.health.forked_trials == full.health.forked_trials
        assert resumed.health.pages_copied == full.health.pages_copied

    def test_cli_no_fork_flag(self, capsys):
        from repro.cli import main
        assert main(["campaign", "matvec", "--trials", "4",
                     "--no-fork"]) == 0
        assert "4 trials" in capsys.readouterr().out

    def test_fork_failure_without_a_snapshot_lands_on_cold(
            self, monkeypatch):
        # stride 0: no snapshots anywhere, trials still fork — and a
        # failing fork still has the cold rung under it
        baseline = run_campaign("matvec", trials=8, mode="fpm", seed=13,
                                snapshot_stride=0, fork=False)
        campaign_mod._PREPARED_CACHE.clear()

        def boom(self, *a, **k):
            raise SnapshotError("injected fork failure")

        monkeypatch.setattr(GoldenCursor, "fork_run", boom)
        with pytest.warns(UserWarning, match="running the trial cold"):
            cold = run_campaign("matvec", trials=8, mode="fpm", seed=13,
                                snapshot_stride=0, executor="serial")
        for a, b in zip(baseline.trials, cold.trials):
            assert b.forked_at_cycle is None
            assert "fork_advance" not in b.stage_timings
            assert trial_results_equal(a, b)

    def test_fork_divergence_detected_by_verify_first(self, monkeypatch):
        # sabotage the COW rollback accounting so the forked result is
        # *reported* wrong: verify-first must catch it, and the engine
        # must still deliver the correct (fallback) result
        real = GoldenCursor.fork_run

        def lying(self, faults, **kw):
            result, pages = real(self, faults, **kw)
            result.cycles += 1
            return result, pages

        monkeypatch.setattr(GoldenCursor, "fork_run", lying)
        baseline = run_campaign("matvec", trials=6, mode="blackbox",
                                seed=29, snapshot_stride=150, fork=False)
        campaign_mod._PREPARED_CACHE.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            checked = run_campaign("matvec", trials=6, mode="blackbox",
                                   seed=29, snapshot_stride=150)
        for a, b in zip(baseline.trials, checked.trials):
            assert trial_results_equal(a, b)
