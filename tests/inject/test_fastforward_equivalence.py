"""Positioned trials are bit-identical to cold runs.

For every mode, for a golden cursor rewound to a snapshot that caught
ranks blocked mid-collective, at the trial level and the campaign level
(including journaled resume), forking a trial off the golden world and
executing only its tail must produce exactly the result of running the
trial from cycle 0 — and the first-fork cold cross-check that guards it
must run once, fail loudly, and leave the cold rung under the trial.
Forked against cold campaigns is the equivalence oracle's check
(:func:`tests.integration.oracle.check`).
"""

import json

import pytest

from repro.analysis import campaign_to_json
from repro.apps import get_app
from repro.apps.registry import AppSpec
from repro.core.config import RunConfig
from repro.core.runner import run_job
from repro.errors import SnapshotError
from repro.inject import PreparedApp, run_campaign, trial_results_equal
from repro.inject import campaign as campaign_mod
from repro.inject.campaign import TrialJob, _fork_trial, _run_trial
from repro.inject.engine import resume_campaign
from repro.inject.forkrun import GoldenCursor
from repro.inject.plan import draw_plan
from repro.vm import FaultSpec
from tests.integration.oracle import MIDCOLL_SRC, Config, check

import numpy as np


@pytest.fixture(autouse=True)
def fresh_cache(monkeypatch):
    """Isolate the prepared-app cache (and its verified flags) per test."""
    monkeypatch.setattr(campaign_mod, "_PREPARED_CACHE",
                        type(campaign_mod._PREPARED_CACHE)())


def _job(mode, faults, inj_seed, fork_epoch=0):
    return TrialJob("matvec", (), mode, tuple(faults), inj_seed, True,
                    snapshot_stride=150, fork_epoch=fork_epoch)


def _cached_matvec(mode="blackbox"):
    """A prepared matvec the worker-side trial driver will pick up."""
    pa = PreparedApp(get_app("matvec"), mode, snapshot_stride=150)
    campaign_mod._PREPARED_CACHE[("matvec", (), mode, 150)] = pa
    return pa


def test_minimal_job_means_cold_unobserved():
    """What the old 6-/8-slot job tuples meant by leaving slots off."""
    job = TrialJob("matvec", (), "fpm", (), 1, False)
    assert job[6:] == (None, None, None, None, 0)
    assert job == ("matvec", (), "fpm", (), 1, False) + job[6:]


@pytest.mark.parametrize("mode", ["blackbox", "fpm", "taint"])
def test_fastforward_trial_bit_identical(mode):
    """Drawn fault plans, forked vs cold, all fields equal."""
    got = check(Config("matvec", mode, True, 150, False, "serial", False,
                       12, 42))
    assert got.health.forked_trials > 0, "no trial ever forked"


def _midcoll_spec():
    return AppSpec(
        name="midcoll",
        source=MIDCOLL_SRC,
        config=RunConfig(nranks=4, quantum=64),
        description="rank-skewed allreduce for mid-collective snapshots",
    )


def test_snapshot_catches_machines_mid_collective():
    pa = PreparedApp(_midcoll_spec(), "fpm", snapshot_stride=40)
    store = pa.snapshots
    assert len(store) > 0
    blocked = [
        st
        for snap in store._snaps.values()
        for st in snap.machines
        if st.execution.pending is not None
    ]
    assert blocked, "no snapshot caught a rank blocked in MPI"
    # in-flight collective state must be captured too
    assert any(snap.runtime[1] for snap in store._snaps.values()), \
        "no snapshot holds an in-flight collective"


@pytest.mark.parametrize("mode", ["blackbox", "fpm", "taint"])
def test_fastforward_multirank_mid_collective(mode):
    """A cursor rewound to a snapshot holding ranks blocked inside
    ``mpi_allreduce`` rolls forward and forks bit-identically."""
    pa = PreparedApp(_midcoll_spec(), mode, snapshot_stride=40)
    config = pa.run_config()
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(10):
        faults = draw_plan(rng, pa.golden.inj_counts, 1)
        seed = int(rng.integers(2 ** 31))
        epoch = pa.golden.fork_epoch(faults)
        snap = pa.snapshots.best_at_epoch(epoch)
        if snap is None or all(st.execution.pending is None
                               for st in snap.machines):
            continue
        hits += 1
        cursor = GoldenCursor(pa)   # fresh: the advance starts at snap
        cursor.advance_to(epoch)
        assert cursor.rewinds == 1
        fast, _ = cursor.fork_run(faults, inj_seed=seed)
        cold = run_job(pa.program, config, faults, inj_seed=seed)
        assert cold.status == fast.status
        assert cold.cycles == fast.cycles
        assert cold.rank_cycles == fast.rank_cycles
        assert cold.outputs == fast.outputs
        assert cold.inj_counts == fast.inj_counts
        assert str(cold.trap) == str(fast.trap)
        if cold.trace is not None:
            assert cold.trace.times == fast.trace.times
            assert cold.trace.cml_per_rank == fast.trace.cml_per_rank
            assert cold.trace.first_contamination == \
                fast.trace.first_contamination
    assert hits > 0


def test_campaign_with_snapshots_matches_cold_campaign():
    got = check(Config("matvec", "fpm", True, 150, False, "serial", False,
                       20, 13))
    assert got.health.forked_trials > 0


def _late_fault_job(pa, inj_seed):
    faults = (FaultSpec(rank=0, occurrence=pa.golden.inj_counts[0], bit=2),)
    return _job("blackbox", faults, inj_seed, pa.golden.fork_epoch(faults))


def test_verify_detects_divergence(monkeypatch):
    """If the comparator ever reports a mismatch, the fork rung must die
    loudly with SnapshotError — and the ladder under it ships the trial
    cold instead of returning wrong data."""
    pa = _cached_matvec()
    job = _late_fault_job(pa, 3)
    assert job.fork_epoch > 0
    cold = _run_trial(job._replace(fork_epoch=0))
    monkeypatch.setattr(campaign_mod, "trial_results_equal",
                        lambda a, b: False)
    with pytest.raises(SnapshotError, match="diverged"):
        _fork_trial(pa, job, None, None, {"tier2_codegen": 0.0})
    with pytest.warns(UserWarning, match="running the trial cold"):
        shipped = _run_trial(job)
    assert shipped.forked_at_cycle is None
    assert trial_results_equal(shipped, cold)


def test_verify_first_only_verifies_once(monkeypatch):
    pa = _cached_matvec()
    calls = []
    orig = campaign_mod.trial_results_equal

    def counting(a, b):
        calls.append(1)
        return orig(a, b)

    monkeypatch.setattr(campaign_mod, "trial_results_equal", counting)
    for inj_seed in (3, 4):
        assert _run_trial(
            _late_fault_job(pa, inj_seed)).forked_at_cycle is not None
    assert len(calls) == 1
    assert pa._fork_verified


def test_journaled_resume_with_snapshots_is_bit_identical(tmp_path):
    path = tmp_path / "ff.jsonl"
    full = run_campaign("matvec", trials=10, mode="fpm", seed=11,
                        keep_series=True, journal=str(path),
                        snapshot_stride=150)
    header = json.loads(path.read_text().splitlines()[0])
    assert header["snapshot_stride"] == 150
    # interrupt: keep header + first 4 trials
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:5]) + "\n")

    resumed = resume_campaign(path)
    assert resumed.health.resumed_trials == 4
    full_d = json.loads(campaign_to_json(full))
    res_d = json.loads(campaign_to_json(resumed))
    # stage timings are wall clocks, excluded from bit identity
    for t in full_d["trials"] + res_d["trials"]:
        t.pop("stage_timings", None)
    assert res_d["trials"] == full_d["trials"]
