"""Fuzz equivalence: fork-at-injection campaigns vs ``--no-fork``.

The mandatory acceptance suite of the fork contract, mirroring the
fast-forward equivalence suite one layer up: across >500 seeded trials
on amg and an FPM-mode app, a campaign executed by COW-forking each
trial off the worker's shared golden cursor must be bit-identical —
every field of every trial — to the same campaign on the restore/cold
path.  And the guarantee must survive harness chaos: killing a worker
mid-epoch-bucket must not lose or corrupt the sibling trials that were
queued in the same bucket.
"""

import dataclasses
import warnings

import pytest

from repro.inject import run_campaign, trial_results_equal
from repro.inject import campaign as campaign_mod


def _science_equal(a, b):
    """Trial bit-identity modulo harness provenance (retry counts)."""
    return trial_results_equal(dataclasses.replace(a, retries=0),
                               dataclasses.replace(b, retries=0))


@pytest.fixture(autouse=True)
def fresh_cache(monkeypatch):
    monkeypatch.setattr(campaign_mod, "_PREPARED_CACHE",
                        type(campaign_mod._PREPARED_CACHE)())


def _assert_equivalent(app, mode, trials, seed, **kw):
    fork = run_campaign(app, trials=trials, mode=mode, seed=seed,
                        keep_series=True, **kw)
    campaign_mod._PREPARED_CACHE.clear()
    plain = run_campaign(app, trials=trials, mode=mode, seed=seed,
                         keep_series=True, fork=False, **kw)
    forked = sum(1 for t in fork.trials if t.forked_at_cycle is not None)
    assert forked > 0, f"{app}/{mode} seed {seed}: nothing ever forked"
    for i, (a, b) in enumerate(zip(fork.trials, plain.trials)):
        assert trial_results_equal(a, b), (app, mode, seed, i, a, b)
    assert fork.fractions() == plain.fractions()
    return forked


# 100 amg + 420 matvec + 12 chaos = 532 seeded trials total
def test_fuzz_amg_fpm_fork_equals_no_fork():
    forked = _assert_equivalent("amg", "fpm", trials=100, seed=41)
    # amg's long epochs give every drawn plan a usable fork epoch
    assert forked == 100


@pytest.mark.parametrize("seed", [7, 19])
def test_fuzz_matvec_fpm_fork_equals_no_fork(seed):
    _assert_equivalent("matvec", "fpm", trials=210, seed=seed,
                       snapshot_stride=150)


def test_chaos_worker_kill_keeps_epoch_bucket_siblings(
    tmp_path, monkeypatch
):
    """Kill every dispatched worker once, mid-bucket: the engine must
    requeue the dead worker's inflight trial *and* the sibling trials
    of its epoch bucket, ending bit-identical to a clean run."""
    N = 12
    clean = run_campaign("matvec", trials=N, mode="blackbox", seed=77,
                         workers=1, timeout=5.0, snapshot_stride=150,
                         fork=False)
    campaign_mod._PREPARED_CACHE.clear()

    monkeypatch.setenv("REPRO_CHAOS", "1")
    monkeypatch.setenv("REPRO_CHAOS_SEED", "7")
    monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path / "ledger"))
    monkeypatch.setenv("REPRO_CHAOS_KILL", "1.0")
    monkeypatch.setenv("REPRO_CHAOS_HANG", "0")
    monkeypatch.setenv("REPRO_CHAOS_IO", "0")
    monkeypatch.setenv("REPRO_CHAOS_ARTIFACT", "0")
    monkeypatch.setenv("REPRO_CHAOS_TEAR", "0")
    monkeypatch.setenv("REPRO_RETRY_BASE_DELAY", "0")
    monkeypatch.setenv("REPRO_RETRY_MAX_DELAY", "0")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        chaotic = run_campaign("matvec", trials=N, mode="blackbox",
                               seed=77, workers=2, timeout=5.0,
                               max_retries=2, snapshot_stride=150,
                               executor="pool")

    health = chaotic.health
    assert health.worker_crashes > 0, "chaos never killed a worker"
    assert not health.quarantined, "a bucket sibling was lost"
    assert len(chaotic.trials) == N
    assert all(t is not None for t in chaotic.trials)
    # re-executed trials still fork off the respawned workers' shared
    # cursors
    assert health.forked_trials > 0
    for i, (a, b) in enumerate(zip(chaotic.trials, clean.trials)):
        assert _science_equal(a, b), i
