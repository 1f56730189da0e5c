"""One fleet, three names: where a trial runs never shows in the science.

One battery over the three ``--executor`` names.  Whether the fleet
runs the trials in the driver (serial), or on workers over its pipe
wire (pool) or its socket wire (remote), the campaign must produce the
same science:

* **bit-identity** — trial records identical to the serial reference
  (modulo harness provenance like retry counts), and the journal's
  science hash identical too;
* **chaos worker-kill** — killing every worker once costs retries, not
  results;
* **journal resume** — a truncated journal finishes under any name
  and converges to the reference;
* **watchdog timeout** — a wedged trial is killed and retried, not
  waited on forever.
"""

from __future__ import annotations

import dataclasses
import os

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
from repro.inject.executors import (
    EXECUTOR_NAMES,
    resolve_backend,
    resolve_executor_name,
)
from repro.inject.journal import journal_science_hash

EXECUTORS = list(EXECUTOR_NAMES)
#: backends with killable worker processes and a hard watchdog
DISTRIBUTED = ["pool", "remote"]

N = 10
SEED = 77


def _science_equal(a, b):
    """Trial bit-identity modulo harness provenance (retry counts)."""
    return trial_results_equal(dataclasses.replace(a, retries=0),
                               dataclasses.replace(b, retries=0))


def _run(executor, tmp_path, **kw):
    """One campaign under the given backend (fresh prepared cache)."""
    campaign_mod._PREPARED_CACHE.clear()
    kw.setdefault("workers", 1 if executor == "serial" else 2)
    if executor == "remote":
        kw.setdefault("shards", 2)
    return run_campaign("matvec", trials=N, mode="blackbox", seed=SEED,
                        timeout=10.0, executor=executor,
                        artifact_dir=tmp_path / "artifacts", **kw)


@pytest.fixture()
def chaos_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", "1")
    monkeypatch.setenv("REPRO_CHAOS_SEED", "7")
    monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path / "ledger"))
    monkeypatch.setenv("REPRO_RETRY_BASE_DELAY", "0")
    monkeypatch.setenv("REPRO_RETRY_MAX_DELAY", "0")
    for var in ("KILL", "HANG", "IO", "ARTIFACT", "TEAR"):
        monkeypatch.setenv(f"REPRO_CHAOS_{var}", "0")


# ----------------------------------------------------------------------
class TestResolutionAndCapabilities:
    def test_names_are_stable(self):
        assert EXECUTOR_NAMES == ("serial", "pool", "remote")

    def test_auto_resolution_by_worker_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert resolve_executor_name(None, 1) == "serial"
        assert resolve_executor_name(None, 4) == "pool"
        assert resolve_executor_name("remote", 1) == "remote"

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "remote")
        assert resolve_executor_name(None, 1) == "remote"

    def test_unknown_name_rejected(self):
        from repro.errors import CampaignError
        with pytest.raises(CampaignError, match="unknown executor"):
            resolve_executor_name("carrier-pigeon", 2)

    def test_shards_size_the_fleet_on_either_wire(self, monkeypatch):
        from repro.errors import CampaignError
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert resolve_backend("pool", 5, 2) == ("pool", 5)
        assert resolve_backend("remote", None, 3) == ("remote", 3)
        assert resolve_backend(None, 3, 1) == ("pool", 3)
        assert resolve_backend(None, 1, 4) == ("serial", 1)
        assert resolve_backend("serial", 4, 4) == ("serial", 1)
        with pytest.raises(CampaignError, match="shards must be >= 1"):
            resolve_backend("pool", 0, 2)


# ----------------------------------------------------------------------
class TestBitIdentity:
    """Same seed, any backend: identical science, identical journal."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("ref")
        result = _run("serial", tmp, journal=tmp / "ref.jsonl")
        return result, journal_science_hash(tmp / "ref.jsonl")

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_trials_and_journal_hash_match_serial(self, executor, tmp_path,
                                                  reference):
        ref, ref_hash = reference
        journal = tmp_path / f"{executor}.jsonl"
        c = _run(executor, tmp_path, journal=journal)
        assert c.health.executor == executor
        assert c.fractions() == ref.fractions()
        for i, (a, b) in enumerate(zip(c.trials, ref.trials)):
            assert _science_equal(a, b), i
        assert journal_science_hash(journal) == ref_hash

    def test_remote_shard_count_lands_in_health(self, tmp_path):
        c = _run("remote", tmp_path, shards=2)
        assert c.health.shards == 2
        assert c.health.executor == "remote"


# ----------------------------------------------------------------------
class TestChaosWorkerKill:
    """Killing every worker once costs retries, never results."""

    @pytest.mark.parametrize("executor", DISTRIBUTED)
    def test_kills_are_absorbed(self, executor, tmp_path, chaos_env,
                                monkeypatch, recwarn):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        clean = _run("serial", tmp_path)
        monkeypatch.setenv("REPRO_CHAOS", "1")
        monkeypatch.setenv("REPRO_CHAOS_KILL", "1.0")
        chaotic = _run(executor, tmp_path)
        assert not chaotic.health.quarantined
        assert chaotic.health.worker_crashes > 0
        assert chaotic.fractions() == clean.fractions()
        for i, (a, b) in enumerate(zip(chaotic.trials, clean.trials)):
            assert _science_equal(a, b), i

    def test_remote_kills_with_journal_hash_equality(self, tmp_path,
                                                     chaos_env,
                                                     monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        ref_journal = tmp_path / "clean.jsonl"
        _run("serial", tmp_path, journal=ref_journal)
        monkeypatch.setenv("REPRO_CHAOS", "1")
        monkeypatch.setenv("REPRO_CHAOS_KILL", "1.0")
        journal = tmp_path / "chaos-remote.jsonl"
        c = _run("remote", tmp_path, journal=journal, shards=4)
        assert not c.health.quarantined
        assert journal_science_hash(journal) == \
            journal_science_hash(ref_journal)


# ----------------------------------------------------------------------
class TestJournalResume:
    """A half-finished journal resumes under any backend."""

    KEEP = 4

    def _truncated_journal(self, tmp_path):
        journal = tmp_path / "full.jsonl"
        ref = _run("serial", tmp_path, journal=journal)
        lines = journal.read_text().splitlines(keepends=True)
        header, frames = lines[0], [l for l in lines[1:]
                                    if l.startswith("T ")]
        journal.write_text(header + "".join(frames[:self.KEEP]))
        return journal, ref

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_resume_converges(self, executor, tmp_path):
        journal, ref = self._truncated_journal(tmp_path)
        campaign_mod._PREPARED_CACHE.clear()
        resumed = resume_campaign(
            journal, executor=executor,
            workers=1 if executor == "serial" else 2,
            shards=2 if executor == "remote" else None,
        )
        assert resumed.health.resumed_trials == self.KEEP
        assert resumed.fractions() == ref.fractions()
        for i, (a, b) in enumerate(zip(resumed.trials, ref.trials)):
            assert _science_equal(a, b), i
        _, done = read_journal(journal)
        assert sorted(done) == list(range(N))


# ----------------------------------------------------------------------
def _stub_trial(index):
    return TrialResult(
        outcome="CO", trap_kind=None, faults=(), injected_cycles=(),
        injected_occurrences=(), iterations=1, cycles=index,
    )


class TestWatchdogTimeout:
    """A wedged trial is killed by the watchdog and retried."""

    @pytest.mark.parametrize("executor", DISTRIBUTED)
    def test_hang_recovered(self, executor, chaos_env, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_HANG", "1.0")
        chaos.activate()
        eng = CampaignEngine(workers=2, timeout=0.3, kill_grace=0.3,
                             max_retries=2, executor=executor,
                             task_fn=lambda a: _stub_trial(a[0]))
        results, health = eng.run([(i,) for i in range(3)])
        assert [r.cycles for r in results] == [0, 1, 2]
        assert not health.quarantined
        assert health.timeouts == 3    # every trial hung exactly once
        assert health.executor == executor
