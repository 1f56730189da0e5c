"""Chaos-hardened substrate: harness-fault injection end to end.

The acceptance bar of the chaos layer: a campaign running under an
aggressive deterministic fault pattern — every trial's worker killed
once, the golden artifact corrupted on disk, every journal write torn,
a transient IO error on every journal append — completes with trial
results bit-identical to the clean run, zero injected-fault
quarantines, and the degradation ladder's events reported in health.
A resume of the chaos-torn journal re-executes the dropped trials and
converges to the same result.
"""

from __future__ import annotations

import dataclasses
import errno
import os
import warnings

import pytest

from repro.inject import (
    CampaignEngine,
    read_journal,
    resume_campaign,
    run_campaign,
    trial_results_equal,
)
from repro.inject import campaign as campaign_mod
from repro.inject import chaos
from repro.inject.campaign import TrialResult
from repro.inject.journal import CampaignJournal
from repro.obs.observer import CampaignObserver, ObserveConfig


def _science_equal(a, b):
    """Trial bit-identity modulo harness provenance (retry counts)."""
    return trial_results_equal(dataclasses.replace(a, retries=0),
                               dataclasses.replace(b, retries=0))


def _stub_trial(index):
    return TrialResult(
        outcome="CO", trap_kind=None, faults=(), injected_cycles=(),
        injected_occurrences=(), iterations=1, cycles=index,
    )


def _die_in_worker_task(args):
    """Succeeds in the driver process, kills any pool worker."""
    index, _ = args
    if os.getpid() != int(os.environ["REPRO_TEST_DRIVER_PID"]):
        os._exit(9)
    return _stub_trial(index)


@pytest.fixture()
def driver_pid(monkeypatch):
    monkeypatch.setenv("REPRO_TEST_DRIVER_PID", str(os.getpid()))


@pytest.fixture()
def chaos_env(tmp_path, monkeypatch):
    """Arm chaos with a test-owned ledger dir and zero retry sleeps."""
    monkeypatch.setenv("REPRO_CHAOS", "1")
    monkeypatch.setenv("REPRO_CHAOS_SEED", "7")
    monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path / "ledger"))
    monkeypatch.setenv("REPRO_RETRY_BASE_DELAY", "0")
    monkeypatch.setenv("REPRO_RETRY_MAX_DELAY", "0")
    return tmp_path / "ledger"


# ----------------------------------------------------------------------
class TestChaosMonkeyUnit:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert chaos.monkey() is None
        assert chaos.ChaosConfig.from_env({}) is None
        assert chaos.activate() is None

    def test_enabled_but_unarmed_injects_nothing(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "1")
        monkeypatch.delenv("REPRO_CHAOS_DIR", raising=False)
        assert chaos.monkey() is None  # no shared ledger yet

    def test_activate_creates_shared_ledger(self, chaos_env):
        m = chaos.activate()
        assert m is not None
        assert chaos_env.is_dir()
        assert os.environ["REPRO_CHAOS_DIR"] == str(chaos_env)

    def test_roll_is_deterministic_and_seeded(self, chaos_env):
        m = chaos.activate()
        assert m.roll("kill", "3") == m.roll("kill", "3")
        assert 0.0 <= m.roll("kill", "3") < 1.0
        assert m.roll("kill", "3") != m.roll("kill", "4")
        assert m.roll("kill", "3") != m.roll("hang", "3")

    def test_each_site_fires_at_most_once(self, chaos_env):
        m = chaos.activate()
        assert m.fires("kill", "0", 1.0)
        assert not m.fires("kill", "0", 1.0)   # claimed
        assert m.fires("kill", "1", 1.0)       # different site
        assert not m.fires("kill", "2", 0.0)   # probability zero

    def test_io_error_is_transient_oserror(self, chaos_env, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_IO", "1.0")
        m = chaos.activate()
        with pytest.raises(OSError) as exc:
            m.maybe_io_error("journal.append", "5")
        assert exc.value.errno == errno.EAGAIN
        m.maybe_io_error("journal.append", "5")  # claimed: no raise

    def test_corrupt_artifact_flips_payload_not_header(self, chaos_env,
                                                       tmp_path,
                                                       monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_ARTIFACT", "1.0")
        m = chaos.activate()
        path = tmp_path / "a.golden"
        header = b'{"kind": "x"}\n'
        payload = bytes(range(64))
        path.write_bytes(header + payload)
        assert m.corrupt_artifact(path, "k1")
        blob = path.read_bytes()
        assert blob[:len(header)] == header
        assert blob[len(header):] != payload
        assert len(blob) == len(header) + len(payload)
        assert not m.corrupt_artifact(path, "k1")  # once only

    def test_hang_disabled_without_watchdog(self, chaos_env):
        m = chaos.activate()
        m.maybe_hang_trial(0, 0.0)  # returns immediately, claims nothing
        assert m.fires("hang", "0", 1.0)


# ----------------------------------------------------------------------
class TestDegradationLadder:
    #: the fleet wire the ladder runs on (the subclass below repeats it
    #: on the socket)
    wire = "pool"

    def test_pool_shrinks_then_serial_fallback(self, driver_pid):
        observer = CampaignObserver(ObserveConfig(events=False, cml=False))
        eng = CampaignEngine(workers=2, max_retries=10, degrade_after=1,
                             executor=self.wire,
                             task_fn=_die_in_worker_task, observer=observer)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results, health = eng.run([(i, "x") for i in range(6)])
        assert [r.cycles for r in results] == list(range(6))
        assert not health.quarantined
        assert health.pool_shrinks == 2
        assert health.serial_fallback is True
        assert health.worker_crashes == 2
        assert health.worker_respawns == 0  # budget of 1: retire, never respawn
        assert [e["type"] for e in health.degradation_events] == \
            ["pool_shrink", "pool_shrink", "serial_fallback"]
        assert health.degraded
        metrics = observer.finalize(health)
        assert observer.metrics.counter_value(
            "repro_pool_degradations_total") == 2
        assert observer.metrics.counter_value(
            "repro_serial_fallbacks_total") == 1
        assert "repro_pool_degradations_total" in metrics["counters"]

    def test_respawn_budget_tolerates_sparse_deaths(self, driver_pid,
                                                    tmp_path, monkeypatch):
        """A few deaths respawn as before; the ladder stays untriggered."""
        monkeypatch.setenv("REPRO_TEST_FLAG_DIR", str(tmp_path))

        eng = CampaignEngine(workers=2, max_retries=3, degrade_after=4,
                             executor=self.wire, task_fn=_crash_once_task)
        results, health = eng.run([(i, "x") for i in range(8)])
        assert [r.cycles for r in results] == list(range(8))
        assert health.worker_crashes == 1
        assert health.worker_respawns == 1
        assert health.pool_shrinks == 0 and not health.serial_fallback
        assert not health.degraded

    def test_persistently_failing_journal_is_disabled(self, tmp_path):
        journal = CampaignJournal.create(tmp_path / "c.jsonl", {})

        class _BrokenFH:
            def write(self, data):
                raise OSError(errno.EPERM, "injected permanent failure")

            def flush(self):
                pass

            def close(self):
                pass

        journal._fh = _BrokenFH()
        eng = CampaignEngine(workers=1, task_fn=lambda a: _stub_trial(a[0]),
                             journal=journal)
        with pytest.warns(UserWarning, match="disabling journaling"):
            results, health = eng.run([(i,) for i in range(4)])
        assert len(results) == 4 and not health.quarantined
        assert eng.journal is None
        assert [e["type"] for e in health.degradation_events] == \
            ["journal_disabled"]

    def test_degrade_after_validated(self):
        with pytest.raises(Exception):
            CampaignEngine(workers=1, degrade_after=0)


class TestDegradationLadderOnTheSocketWire(TestDegradationLadder):
    wire = "remote"


def _crash_once_task(args):
    index, _ = args
    flag = os.path.join(os.environ["REPRO_TEST_FLAG_DIR"], "crashed")
    if os.getpid() != int(os.environ["REPRO_TEST_DRIVER_PID"]):
        try:
            fd = os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
            os._exit(9)
        except FileExistsError:
            pass
    return _stub_trial(index)


# ----------------------------------------------------------------------
class TestChaosHang:
    def test_injected_hang_recovered_by_watchdog(self, chaos_env,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_KILL", "0")
        monkeypatch.setenv("REPRO_CHAOS_HANG", "1.0")
        monkeypatch.setenv("REPRO_CHAOS_IO", "0")
        monkeypatch.setenv("REPRO_CHAOS_TEAR", "0")
        monkeypatch.setenv("REPRO_CHAOS_ARTIFACT", "0")
        chaos.activate()
        eng = CampaignEngine(workers=2, timeout=0.3, kill_grace=0.3,
                             max_retries=2, executor="pool",
                             task_fn=lambda a: _stub_trial(a[0]))
        results, health = eng.run([(i,) for i in range(3)])
        assert [r.cycles for r in results] == [0, 1, 2]
        assert not health.quarantined
        assert health.timeouts == 3        # every trial hung exactly once
        assert health.worker_respawns == 3


# ----------------------------------------------------------------------
class TestAcceptanceChaosEndToEnd:
    """ISSUE acceptance: worker kills + artifact corruption + journal
    tears + transient IO faults in one campaign; results bit-identical
    to the clean run, including after a resume of the torn journal."""

    N = 10
    SEED = 77

    def _clean(self, tmp_path):
        campaign_mod._PREPARED_CACHE.clear()
        return run_campaign("matvec", trials=self.N, mode="blackbox",
                            seed=self.SEED, workers=1, timeout=5.0,
                            artifact_dir=tmp_path / "artifacts")

    def test_chaos_campaign_is_bit_identical_and_resumable(
        self, tmp_path, chaos_env, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        clean = self._clean(tmp_path)
        assert clean.health.clean

        # -- chaos run: all fault kinds at full blast (except hangs,
        # which have their own watchdog test and only cost wall time)
        monkeypatch.setenv("REPRO_CHAOS", "1")
        monkeypatch.setenv("REPRO_CHAOS_KILL", "1.0")
        monkeypatch.setenv("REPRO_CHAOS_HANG", "0")
        monkeypatch.setenv("REPRO_CHAOS_IO", "1.0")
        monkeypatch.setenv("REPRO_CHAOS_ARTIFACT", "1.0")
        monkeypatch.setenv("REPRO_CHAOS_TEAR", "1.0")
        journal = tmp_path / "chaos.jsonl"
        campaign_mod._PREPARED_CACHE.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            chaotic = run_campaign(
                "matvec", trials=self.N, mode="blackbox", seed=self.SEED,
                workers=2, timeout=5.0, max_retries=2, executor="pool",
                artifact_dir=tmp_path / "artifacts", journal=journal)

        # zero HARNESS_FAILURE trials caused by injected harness faults
        health = chaotic.health
        assert not health.quarantined
        # every pool-dispatched trial's worker was killed exactly once;
        # two budget exhaustions (2 * degrade_after(4)) collapse the pool
        assert health.worker_crashes == 8
        assert health.worker_respawns == 6
        assert health.pool_shrinks == 2
        assert health.serial_fallback is True
        assert {e["type"] for e in health.degradation_events} == \
            {"pool_shrink", "serial_fallback"}
        # the corrupt golden artifact was quarantined + re-materialised
        assert health.artifacts_quarantined == 1
        corrupt = list((tmp_path / "artifacts").glob("*.golden.corrupt"))
        assert len(corrupt) == 1
        assert list((tmp_path / "artifacts").glob("*.golden"))

        # the scientific result is bit-identical to the clean run
        assert chaotic.fractions() == clean.fractions()
        for i, (a, b) in enumerate(zip(chaotic.trials, clean.trials)):
            assert _science_equal(a, b), i

        # -- every journal record was torn; resume re-executes them all
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            resumed = resume_campaign(journal, workers=2, max_retries=2,
                                      executor="pool")
        assert resumed.health.journal_recovered_records == self.N
        assert resumed.health.resumed_trials == 0
        # tears are claimed now, so each resume append hits its one
        # injected transient IO error and retries through it
        assert resumed.health.io_retries == self.N
        assert not resumed.health.quarantined
        assert resumed.fractions() == clean.fractions()
        for i, (a, b) in enumerate(zip(resumed.trials, clean.trials)):
            assert _science_equal(a, b), i

        # the repaired journal now round-trips cleanly
        header, done = read_journal(journal)
        assert sorted(done) == list(range(self.N))

    def test_chaos_seed_changes_the_fault_pattern(self, tmp_path,
                                                  chaos_env, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_KILL", "0.5")
        m7 = chaos.activate()
        rolls7 = [m7.roll("kill", str(i)) for i in range(32)]
        monkeypatch.setenv("REPRO_CHAOS_SEED", "8")
        m8 = chaos.activate()
        rolls8 = [m8.roll("kill", str(i)) for i in range(32)]
        assert rolls7 != rolls8
        # same seed: identical pattern (what makes chaos runs replayable)
        monkeypatch.setenv("REPRO_CHAOS_SEED", "7")
        assert [chaos.activate().roll("kill", str(i))
                for i in range(32)] == rolls7
