"""Campaign execution engine: supervision, journaling, resume.

The acceptance scenario of the engine: a campaign with an artificially
crashed worker and a hung (watchdog-expired) trial still completes,
reports the failures in its health summary instead of raising, and a
resume from a mid-campaign journal is bit-identical to an uninterrupted
run with the same seed.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.analysis import Outcome, campaign_to_json
from repro.errors import (
    CampaignError,
    FailureKind,
    JournalError,
    RetryPolicy,
    TrialTimeoutError,
)
from repro.inject import (
    CampaignEngine,
    CampaignHealth,
    PreparedApp,
    default_timeout,
    default_trials,
    default_workers,
    read_journal,
    resume_campaign,
    run_campaign,
)
from repro.inject import campaign as campaign_mod
from repro.inject.campaign import TrialResult, harness_failure_trial
from repro.inject.executors import FleetExecutor, SupervisionEvent
from repro.inject.executors import local as local_mod
from repro.apps import get_app


# ----------------------------------------------------------------------
# Module-level task functions (fork-able into pool workers).  Behaviour
# is keyed off flag files in REPRO_TEST_FLAG_DIR so "fail exactly once"
# is visible across worker processes.
# ----------------------------------------------------------------------

def _flag(name):
    return os.path.join(os.environ["REPRO_TEST_FLAG_DIR"], name)


def _take_flag(name):
    """True exactly once per flag dir (first caller wins)."""
    try:
        fd = os.open(_flag(name), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _stub_trial(index):
    return TrialResult(
        outcome="CO", trap_kind=None, faults=(), injected_cycles=(),
        injected_occurrences=(), iterations=1, cycles=index,
    )


def _scripted_task(args):
    index, kind = args
    if kind == "crash-once" and _take_flag("crashed"):
        os._exit(23)
    if kind == "hang-once" and _take_flag("hung"):
        time.sleep(30)
    if kind == "always-crash":
        os._exit(5)
    if kind == "raise-once" and _take_flag("raised"):
        raise RuntimeError("scripted failure")
    if kind == "always-raise":
        raise RuntimeError("scripted failure")
    return _stub_trial(index)


def _recording_task(args):
    """``_scripted_task``, leaving ``pid index cached monotonic`` behind."""
    with open(_flag("ran"), "a") as fh:
        fh.write(f"{os.getpid()} {args[0]} "
                 f"{int('sentinel' in campaign_mod._PREPARED_CACHE)} "
                 f"{time.monotonic()}\n")
    return _scripted_task(args)


def _ran():
    with open(_flag("ran")) as fh:
        return [tuple(float(x) for x in line.split()) for line in fh]


_REAL_CLIENT = local_mod.Client


def _only_the_first_client_behaves(address, authkey):
    if _take_flag("connected"):
        return _REAL_CLIENT(address, authkey=authkey)
    if os.environ["REPRO_TEST_BAD_CLIENT"] == "wrong-key":
        return _REAL_CLIENT(address, authkey=b"not the key")
    raise OSError("never connects")


_REAL_RUN_TRIAL = campaign_mod._run_trial


def _chaos_run_trial(args):
    """Real trial driver wrapped with one worker crash and one hang."""
    if _take_flag("chaos-crash"):
        os._exit(23)
    if _take_flag("chaos-hang"):
        time.sleep(30)
    return _REAL_RUN_TRIAL(args)


@pytest.fixture()
def flag_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TEST_FLAG_DIR", str(tmp_path))
    return tmp_path


def _jobs(spec):
    return [(i, kind) for i, kind in enumerate(spec)]


# ----------------------------------------------------------------------
class TestEngineSupervision:
    #: the fleet wire the supervised cases run on (the subclass below
    #: repeats them on the socket)
    wire = "pool"

    def test_serial_results_in_order(self, flag_dir):
        eng = CampaignEngine(workers=1, task_fn=_scripted_task)
        results, health = eng.run(_jobs(["ok"] * 5))
        assert [r.cycles for r in results] == [0, 1, 2, 3, 4]
        assert health.clean and health.effective_workers == 1

    def test_serial_exception_retried_then_succeeds(self, flag_dir):
        eng = CampaignEngine(workers=1, max_retries=2,
                             task_fn=_scripted_task)
        results, health = eng.run(_jobs(["ok", "raise-once", "ok"]))
        assert [r.outcome for r in results] == ["CO", "CO", "CO"]
        assert results[1].retries == 1
        assert health.retries == 1 and health.trial_exceptions == 1
        assert not health.quarantined

    def test_serial_quarantine_after_max_retries(self, flag_dir):
        eng = CampaignEngine(workers=1, max_retries=1,
                             task_fn=_scripted_task)
        results, health = eng.run(
            _jobs(["ok", "always-raise", "ok"]),
            faults_of=lambda i: (),
        )
        assert [r.outcome for r in results] == ["CO", "HF", "CO"]
        assert results[1].failure_kind == FailureKind.EXCEPTION.value
        assert "RuntimeError" in results[1].failure_detail
        assert results[1].retries == 1
        assert health.quarantined == [1]
        assert health.trial_exceptions == 2  # initial + one retry

    def test_worker_crash_recovered(self, flag_dir):
        eng = CampaignEngine(workers=2, max_retries=2, executor=self.wire,
                             task_fn=_scripted_task)
        results, health = eng.run(_jobs(["ok", "ok", "crash-once",
                                         "ok", "ok", "ok"]))
        assert [r.outcome for r in results] == ["CO"] * 6
        assert health.worker_crashes == 1
        assert health.worker_respawns >= 1
        assert health.retries == 1

    def test_watchdog_kills_hung_trial(self, flag_dir):
        eng = CampaignEngine(workers=2, timeout=0.3, kill_grace=0.3,
                             max_retries=2, executor=self.wire,
                             task_fn=_scripted_task)
        start = time.monotonic()
        results, health = eng.run(_jobs(["ok", "hang-once", "ok", "ok"]))
        assert time.monotonic() - start < 10
        assert [r.outcome for r in results] == ["CO"] * 4
        assert health.timeouts == 1
        assert health.worker_respawns >= 1

    def test_pool_quarantines_repeat_crasher(self, flag_dir):
        eng = CampaignEngine(workers=2, max_retries=1, executor=self.wire,
                             task_fn=_scripted_task)
        results, health = eng.run(
            _jobs(["ok", "always-crash", "ok", "ok"]),
            faults_of=lambda i: (),
        )
        assert [r.outcome for r in results] == ["CO", "HF", "CO", "CO"]
        assert results[1].failure_kind == FailureKind.WORKER_CRASH.value
        assert health.quarantined == [1]
        assert health.worker_crashes == 2
        assert health.worker_respawns >= 2

    def test_harness_failures_never_silently_dropped(self, flag_dir):
        eng = CampaignEngine(workers=2, max_retries=0, executor=self.wire,
                             task_fn=_scripted_task)
        results, health = eng.run(_jobs(["always-raise"] * 3))
        assert len(results) == 3
        assert all(r.is_harness_failure for r in results)
        assert all(r.outcome_enum is Outcome.HARNESS_FAILURE
                   for r in results)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(CampaignError):
            CampaignEngine(workers=0)
        with pytest.raises(CampaignError):
            CampaignEngine(max_retries=-1)

    def test_a_death_costs_only_the_trial_that_was_executing(
            self, flag_dir, monkeypatch):
        # slot 1 streams trials 5 and 6 and dies starting 7 inside one
        # tick: the supervisor hears nothing until the remainder runs
        real_wait, give_up = local_mod._conn_wait, time.monotonic() + 5

        def deaf_until_8_runs(conns, timeout):
            if any(row[1] == 8 for row in _ran()) \
                    or time.monotonic() > give_up:
                return real_wait(conns, timeout)
            time.sleep(timeout)
            return []

        (flag_dir / "ran").touch()
        monkeypatch.setattr(local_mod, "_conn_wait", deaf_until_8_runs)
        monkeypatch.setitem(campaign_mod._PREPARED_CACHE, "sentinel", None)
        eng = CampaignEngine(
            workers=2, executor=self.wire, task_fn=_recording_task,
            batches=[[0, 1, 2, 3, 4], [5, 6, 7, 8, 9], [10, 11]],
            retry_policy=RetryPolicy(base_delay=0.2, max_delay=0.2))
        results, health = eng.run(
            _jobs("crash-once" if i == 7 else "ok" for i in range(12)))
        # 7 is the only trial charged; 5 and 6 are delivered, not re-run
        assert health.worker_crashes == health.retries == 1
        assert [r.retries for r in results] == [0] * 7 + [1] + [0] * 4
        by_pid = {}
        for pid, index, cached, at in _ran():
            by_pid.setdefault(pid, []).append((index, cached, at))
        # a bucket runs on one process in order, a process sees buckets
        # in queue order, and the dead worker's remainder came back as
        # one uncharged bucket — to a respawn with a cleared cache
        assert sorted([(i, c) for i, c, _ in seq]
                      for seq in by_pid.values()) == [
            [(i, 1) for i in (0, 1, 2, 3, 4, 10, 11, 7)],
            [(5, 1), (6, 1), (7, 1)], [(8, 0), (9, 0)]]
        died, retried = sorted(at for seq in by_pid.values()
                               for i, _, at in seq if i == 7)
        assert retried - died >= 0.2, "retry ignored its backoff stamp"


class TestEngineSupervisionOnTheSocketWire(TestEngineSupervision):
    wire = "remote"


@pytest.mark.parametrize("bad", ["wrong-key", "silent"])
def test_socket_worker_failing_its_handshake_is_given_up(
        bad, flag_dir, monkeypatch):
    monkeypatch.setenv("REPRO_TEST_BAD_CLIENT", bad)
    monkeypatch.setattr(local_mod, "Client",
                        _only_the_first_client_behaves)
    monkeypatch.setattr(local_mod, "HANDSHAKE_TIMEOUT", 0.5)
    eng = CampaignEngine(workers=2, executor="remote",
                         task_fn=_scripted_task)
    with pytest.raises(CampaignError, match="worker 1 failed to connect"):
        eng.run(_jobs(["ok"] * 4))
    # the first worker did connect, and close() reaped it
    assert not multiprocessing.active_children()


class TestFleetInTheDriver:
    """A fleet with no live worker runs its own queues in the driver."""

    def test_retired_fleet_finishes_every_queue_in_the_driver(self):
        driver, ran_at = os.getpid(), {}

        def task(job):
            if os.getpid() != driver:
                os._exit(9)
            ran_at[job[0]] = time.monotonic()
            return _stub_trial(job[0])

        fleet = FleetExecutor("pool", 2, degrade_after=1)
        fleet.start([(i,) for i in range(8)], task_fn=task)
        fleet.submit([5, 6], buckets=[(0, 1, 2), (3, 4)])
        stamp = time.monotonic() + 0.3
        fleet.resubmit(7, stamp)
        done, kinds = [], []
        while fleet.has_pending():
            for ev in fleet.poll(0.01):
                if isinstance(ev, SupervisionEvent):
                    kinds.append(ev.kind)
                elif ev.ok:
                    done.append((ev.shard_id, ev.index))
                else:  # the two heads that killed their workers
                    fleet.resubmit(ev.index, time.monotonic() + 0.05)
        fleet.close()
        assert sorted(done) == [(0, i) for i in range(8)]
        assert sorted(ran_at) == list(range(8)) and ran_at[7] >= stamp
        assert kinds == ["pool_shrink", "pool_shrink", "serial_fallback"]

    def test_one_trial_a_poll_no_chaos_roll_no_idle_tick(self, monkeypatch):
        # a kill or hang rolled here would take the driver down
        monkeypatch.setattr(local_mod.chaos, "monkey",
                            lambda: pytest.fail("chaos rolled in the driver"))
        monkeypatch.setattr(time, "sleep",
                            lambda s: pytest.fail("slept on a runnable trial"))
        fleet = FleetExecutor("serial", 4)
        fleet.start([(i,) for i in range(3)],
                    task_fn=lambda job: _stub_trial(job[0]))
        fleet.submit(buckets=[(0, 1), (2,)])
        polls = []
        while fleet.has_pending():
            polls.append([(e.shard_id, e.index) for e in fleet.poll(0.01)])
        assert polls == [[(0, 0)], [(0, 1)], [(0, 2)]]


class TestSoftWatchdog:
    def test_run_job_wall_timeout_raises(self):
        from repro.core.runner import run_job

        pa = PreparedApp(get_app("matvec"), "blackbox")
        with pytest.raises(TrialTimeoutError):
            run_job(pa.program, pa.run_config(), wall_timeout=1e-9)

    def test_resilient_runner_wall_timeout(self):
        from repro.core.config import RunConfig
        from repro.core.runner import build_program
        from repro.resilience import AlwaysRollback, ResilientRunner

        spec = get_app("matvec")
        config = spec.config
        program = build_program(spec.source, "fpm", config=config)
        rr = ResilientRunner(program, config, AlwaysRollback())
        with pytest.raises(TrialTimeoutError):
            rr.run(wall_timeout=1e-9)


# ----------------------------------------------------------------------
class TestEnvParsing:
    def test_non_integer_trials_falls_back_with_warning(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "banana")
        with pytest.warns(UserWarning, match="REPRO_TRIALS"):
            assert default_trials() == 120

    def test_negative_trials_falls_back_with_warning(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "-5")
        with pytest.warns(UserWarning, match="REPRO_TRIALS"):
            assert default_trials() == 120

    def test_non_integer_workers_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.warns(UserWarning, match="REPRO_WORKERS"):
            assert default_workers() == 1

    def test_explicit_invalid_arguments_raise(self):
        with pytest.raises(CampaignError):
            default_trials(0)
        with pytest.raises(CampaignError):
            default_workers(0)
        with pytest.raises(CampaignError):
            default_timeout(-1.0)

    def test_bad_timeout_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIAL_TIMEOUT", "soon")
        with pytest.warns(UserWarning, match="REPRO_TRIAL_TIMEOUT"):
            assert default_timeout() is None

    def test_valid_env_still_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "33")
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setenv("REPRO_TRIAL_TIMEOUT", "2.5")
        assert default_trials() == 33
        assert default_workers() == 3
        assert default_timeout() == 2.5


class TestPreparedCacheLRU:
    @staticmethod
    def _key(mode):
        # cache keys carry the resolved snapshot stride since fast-forward
        stride = campaign_mod.default_snapshot_stride(None)
        return ("matvec", (), mode, stride)

    def test_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(campaign_mod, "_PREPARED_LIMIT", 2)
        monkeypatch.setattr(campaign_mod, "_PREPARED_CACHE",
                            type(campaign_mod._PREPARED_CACHE)())
        campaign_mod._prepared("matvec", (), "blackbox")
        campaign_mod._prepared("matvec", (), "fpm")
        campaign_mod._prepared("matvec", (), "taint")
        assert len(campaign_mod._PREPARED_CACHE) == 2
        # the oldest entry (blackbox) was evicted
        assert self._key("blackbox") not in campaign_mod._PREPARED_CACHE

    def test_hit_refreshes_lru_order(self, monkeypatch):
        monkeypatch.setattr(campaign_mod, "_PREPARED_LIMIT", 2)
        monkeypatch.setattr(campaign_mod, "_PREPARED_CACHE",
                            type(campaign_mod._PREPARED_CACHE)())
        campaign_mod._prepared("matvec", (), "blackbox")
        campaign_mod._prepared("matvec", (), "fpm")
        campaign_mod._prepared("matvec", (), "blackbox")  # refresh
        campaign_mod._prepared("matvec", (), "taint")
        assert self._key("blackbox") in campaign_mod._PREPARED_CACHE
        assert self._key("fpm") not in campaign_mod._PREPARED_CACHE

    def test_stride_variants_get_separate_entries(self, monkeypatch):
        monkeypatch.setattr(campaign_mod, "_PREPARED_CACHE",
                            type(campaign_mod._PREPARED_CACHE)())
        pa_on = campaign_mod._prepared("matvec", (), "blackbox", 200)
        pa_off = campaign_mod._prepared("matvec", (), "blackbox", 0)
        assert pa_on is not pa_off
        assert pa_on.snapshots is not None
        assert pa_off.snapshots is None


class TestEffectiveWorkers:
    def test_small_campaign_runs_serial_and_says_so(self):
        with pytest.warns(UserWarning, match="too small"):
            c = run_campaign("matvec", trials=3, mode="blackbox", seed=1,
                             workers=4)
        assert c.effective_workers == 1
        assert c.health.requested_workers == 4
        assert c.health.effective_workers == 1

    def test_parallel_campaign_records_workers(self):
        c = run_campaign("matvec", trials=8, mode="blackbox", seed=1,
                         workers=2, executor="pool")
        assert c.effective_workers == 2
        assert c.health.wall_time_s > 0

    @pytest.mark.parametrize("fleet", [
        {"executor": "pool", "workers": 2}, {"executor": "remote", "shards": 2},
        # ``shards`` sizes the fleet on either wire
        {"executor": "pool", "workers": 4, "shards": 2}])
    def test_fleet_size_is_reported_and_tags_every_trial(self, fleet,
                                                         tmp_path):
        from repro.analysis import render_health_summary

        path = tmp_path / "c.jsonl"
        c = run_campaign("matvec", trials=8, mode="blackbox", seed=1,
                         journal=str(path), **fleet)
        assert c.effective_workers == c.health.effective_workers == 2
        assert c.health.shards == read_journal(path)[0]["shards"] == 2
        assert "engine: 2 worker(s)" in render_health_summary(c.health)
        tags = {json.loads(line.split(" ", 3)[3])["shard"]
                for line in path.read_text().splitlines()[1:]}
        assert tags <= {0, 1}
        # a campaign saved while shards could be reassigned still loads
        saved = dict(c.health.to_dict(), shard_reassignments=3)
        assert CampaignHealth.from_dict(saved) == c.health

    def test_health_in_report(self):
        from repro.analysis import render_health_summary

        c = run_campaign("matvec", trials=5, mode="blackbox", seed=1,
                         workers=1, executor="serial")
        text = render_health_summary(c.health)
        assert "1 worker(s)" in text
        assert "clean" in text

    def test_health_export_roundtrip(self):
        from repro.analysis import campaign_from_json

        c = run_campaign("matvec", trials=5, mode="blackbox", seed=1,
                         workers=1)
        c2 = campaign_from_json(campaign_to_json(c))
        assert c2.effective_workers == c.effective_workers
        assert isinstance(c2.health, CampaignHealth)
        assert c2.health.to_dict() == c.health.to_dict()

    def test_harness_failure_trial_roundtrip(self):
        from repro.analysis.export import _trial_from_dict, _trial_to_dict

        hf = harness_failure_trial((), FailureKind.TIMEOUT, "watchdog",
                                   retries=2)
        back = _trial_from_dict(json.loads(json.dumps(_trial_to_dict(hf))))
        assert back.outcome == "HF"
        assert back.failure_kind == "timeout"
        assert back.failure_detail == "watchdog"
        assert back.retries == 2


# ----------------------------------------------------------------------
class TestJournalAndResume:
    def test_journal_records_every_trial(self, tmp_path):
        path = tmp_path / "c.jsonl"
        c = run_campaign("matvec", trials=8, mode="blackbox", seed=11,
                         journal=str(path))
        header, done = read_journal(path)
        assert header["app_name"] == "matvec"
        assert header["n_trials"] == 8
        assert sorted(done) == list(range(8))
        assert [done[i].outcome for i in range(8)] == \
            [t.outcome for t in c.trials]

    def test_resume_is_bit_identical(self, tmp_path):
        path = tmp_path / "c.jsonl"
        full = run_campaign("matvec", trials=10, mode="fpm", seed=11,
                            keep_series=True, journal=str(path))
        # interrupt: keep the header and the first 4 completed trials
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:5]) + "\n")

        resumed = resume_campaign(path)
        assert resumed.health.resumed_trials == 4
        full_d = json.loads(campaign_to_json(full))
        res_d = json.loads(campaign_to_json(resumed))
        # stage timings are wall clocks — observability only, excluded
        # from the bit-identity contract
        for t in full_d["trials"] + res_d["trials"]:
            t.pop("stage_timings", None)
        assert res_d["trials"] == full_d["trials"]
        assert resumed.fractions() == full.fractions()

    def test_resume_parallel_matches_serial_run(self, tmp_path):
        path = tmp_path / "c.jsonl"
        full = run_campaign("matvec", trials=12, mode="blackbox", seed=4,
                            journal=str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3]) + "\n")
        resumed = resume_campaign(path, workers=2)
        assert [t.outcome for t in resumed.trials] == \
            [t.outcome for t in full.trials]

    def test_remote_resume_replans_the_recording_bucket_split(
            self, tmp_path, monkeypatch):
        # one worker, two shards: the split must follow the shard count
        # in both entry points, or one daemon drains the oversized bucket
        real = campaign_mod.plan_fork_batches
        plans = []

        def spy(jobs, workers=1):
            plans.append((workers, real(jobs, workers), real(jobs, 1)))
            return plans[-1][1]

        monkeypatch.setattr(campaign_mod, "plan_fork_batches", spy)
        path = tmp_path / "r.jsonl"
        full = run_campaign("matvec", trials=80, mode="blackbox", seed=17,
                            snapshot_stride=150, journal=str(path),
                            executor="remote", shards=2,
                            artifact_dir=str(tmp_path / "art"))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:9]) + "\n")
        resumed = resume_campaign(path, executor="remote", shards=2)
        (w_run, split_run, unsplit), (w_resume, split_resume, _) = plans
        assert w_run == w_resume == 2
        assert split_run == split_resume
        assert len(split_run) > len(unsplit), "no oversized bucket to split"
        assert [t.outcome for t in resumed.trials] == \
            [t.outcome for t in full.trials]

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "c.jsonl"
        run_campaign("matvec", trials=6, mode="blackbox", seed=11,
                     journal=str(path))
        text = path.read_text()
        path.write_text(text[: len(text) - 25])  # tear the last record
        header, done = read_journal(path)
        assert len(done) == 5
        resumed = resume_campaign(path)
        assert resumed.n_trials == 6

    def test_fully_complete_journal_resumes_to_same_result(
            self, tmp_path, monkeypatch):
        path = tmp_path / "c.jsonl"
        full = run_campaign("matvec", trials=6, mode="blackbox", seed=11,
                            journal=str(path))
        # with nothing to run, no wire starts a process or a listener
        for name in ("_spawn", "start"):
            monkeypatch.setattr(FleetExecutor, name, lambda *a, **kw:
                                pytest.fail("a fleet started for nothing"))
        for wire in (None, "pool", "remote"):
            resumed = resume_campaign(path, executor=wire, workers=2)
            assert resumed.health.resumed_trials == 6
            assert [t.outcome for t in resumed.trials] == \
                [t.outcome for t in full.trials]

    def test_in_driver_bucket_is_journaled_trial_by_trial(self, tmp_path):
        # a driver killed mid-bucket loses only the trial it was running
        from repro.inject.journal import CampaignJournal

        path = tmp_path / "b.jsonl"
        journal = CampaignJournal.create(path, {"n_trials": 3})
        seen = []

        def task(job):
            seen.append(sorted(read_journal(path)[1]))
            return _stub_trial(job[0])

        CampaignEngine(task_fn=task, journal=journal,
                       batches=[[0, 1, 2]]).run([(i,) for i in range(3)])
        journal.close()
        assert seen == [[], [0], [0, 1]]

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(JournalError):
            resume_campaign(tmp_path / "nope.jsonl")

    def test_non_journal_file_raises(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"format": 1, "kind": "something-else"}\n')
        with pytest.raises(JournalError):
            read_journal(path)

    def test_quarantined_trials_land_in_journal(self, tmp_path, flag_dir):
        from repro.inject.journal import CampaignJournal

        path = tmp_path / "q.jsonl"
        journal = CampaignJournal.create(path, {"n_trials": 2})
        eng = CampaignEngine(workers=1, max_retries=0,
                             task_fn=_scripted_task, journal=journal)
        eng.run(_jobs(["always-raise", "ok"]))
        journal.close()
        _, done = read_journal(path)
        assert done[0].outcome == "HF"
        assert done[1].outcome == "CO"


# ----------------------------------------------------------------------
class TestAcceptanceChaosCampaign:
    """ISSUE acceptance: crashed worker + hung trial, then resume."""

    def test_chaotic_campaign_completes_and_reports(
        self, flag_dir, monkeypatch
    ):
        monkeypatch.setattr(local_mod, "KILL_GRACE", 0.5)
        monkeypatch.setattr(campaign_mod, "_run_trial", _chaos_run_trial)
        chaotic = run_campaign("matvec", trials=10, mode="blackbox",
                               seed=77, workers=2, timeout=1.5,
                               executor="pool")
        assert chaotic.n_trials == 10
        health = chaotic.health
        assert health.worker_crashes >= 1
        assert health.timeouts >= 1
        assert health.worker_respawns >= 2
        assert not health.quarantined

        monkeypatch.setattr(campaign_mod, "_run_trial", _REAL_RUN_TRIAL)
        clean = run_campaign("matvec", trials=10, mode="blackbox", seed=77)
        assert [t.outcome for t in chaotic.trials] == \
            [t.outcome for t in clean.trials]
