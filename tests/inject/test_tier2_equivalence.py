"""Fuzz equivalence: campaigns on the golden plan vs the static map.

The mandatory acceptance suite of the tier-2 contract, mirroring the
fork and fast-forward equivalence suites: across >500 seeded trials on
amg and FPM-mode apps, a campaign executed through compiled golden
traces must be bit-identical — every field of every trial — to the same
campaign on the static, profile-free regions.  Every prepared app
installs its plan, so the reference side reaches the static map through
a test seam: plan installation stubbed out, which leaves each planned
head slot holding its static region.  The sweeps deliberately
cover every deopt guard: faults firing *inside* compiled segments
(armed entry + branch divergence), trap-raising members (fused_skew
recovery), fork-epoch boundaries landing mid-trace (the budget guard
refuses entry, so the cursor pauses on the exact tier-1 epoch), and
chaos-stressed workers dying with installed traces.
"""

import dataclasses
import warnings

import pytest

from repro.inject import run_campaign, trial_results_equal
from repro.inject import campaign as campaign_mod
from repro.vm import tier2 as vm_tier2


def _science_equal(a, b):
    """Trial bit-identity modulo harness provenance (retry counts)."""
    return trial_results_equal(dataclasses.replace(a, retries=0),
                               dataclasses.replace(b, retries=0))


@pytest.fixture(autouse=True)
def fresh_cache(monkeypatch):
    monkeypatch.setattr(campaign_mod, "_PREPARED_CACHE",
                        type(campaign_mod._PREPARED_CACHE)())


def _static_map_campaign(app, **kw):
    """``run_campaign`` in this process with no golden plan installed:
    the reference side.  Serial, so no worker process escapes the seam,
    and the prepared cache is cleared on both sides of it."""
    installed = []

    def install_nothing(program, plan):
        installed.append(program.tier2_installed)
        return program.tier2_traces

    campaign_mod._PREPARED_CACHE.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vm_tier2, "install_plan", install_nothing)
        result = run_campaign(app, executor="serial", **kw)
    campaign_mod._PREPARED_CACHE.clear()
    assert installed == [False], "the reference ran on an installed plan"
    return result


def _assert_equivalent(app, mode, trials, seed, **kw):
    hot = run_campaign(app, trials=trials, mode=mode, seed=seed,
                       keep_series=True, **kw)
    cold = _static_map_campaign(app, trials=trials, mode=mode, seed=seed,
                                keep_series=True, **kw)
    for i, (a, b) in enumerate(zip(hot.trials, cold.trials)):
        assert trial_results_equal(a, b), (app, mode, seed, i, a, b)
    assert hot.fractions() == cold.fractions()
    return hot


# 120 amg + 2x140 matvec + 100 lulesh + 12 chaos = 512 seeded trials
def test_fuzz_amg_fpm_tier2_equals_tier1():
    # amg: long epochs, fpm shadow chains, fork path on — fork epochs
    # routinely land inside what a compiled segment would cover, so the
    # budget guard's refusal to enter is exercised on every bucket
    hot = _assert_equivalent("amg", "fpm", trials=120, seed=43)
    forked = sum(1 for t in hot.trials if t.forked_at_cycle is not None)
    assert forked > 0, "fork + tier-2 never composed"


@pytest.mark.parametrize("seed", [11, 29])
def test_fuzz_matvec_fpm_tier2_equals_tier1(seed):
    # matvec: dense injectable sites (every occurrence band reachable),
    # snapshot restore path, pruning on — faults fire inside traces and
    # post-fire tails re-enter them
    _assert_equivalent("matvec", "fpm", trials=140, seed=seed,
                       snapshot_stride=150)


def test_fuzz_lulesh_blackbox_tier2_equals_tier1():
    # blackbox mode: no shadow binds in the traces, trap-heavy app —
    # the fused_skew trap-recovery guard fires across the sweep
    _assert_equivalent("lulesh", "blackbox", trials=100, seed=5)


def test_fuzz_no_fork_no_prune_tier2_equals_tier1():
    # the cold path without pruning (stride 0: no fingerprints): traces
    # carry whole trials
    _assert_equivalent("matvec", "blackbox", trials=100, seed=91,
                       snapshot_stride=0, fork=False)


def test_chaos_worker_kill_with_tier2(tmp_path, monkeypatch):
    """Chaos-killed workers respawn, reinstall traces from the artifact
    plan, and finish bit-identical to a clean run on the static map."""
    N = 12
    clean = _static_map_campaign("matvec", trials=N, mode="blackbox",
                                 seed=78, timeout=5.0, snapshot_stride=150)

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
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "artifacts"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        chaotic = run_campaign("matvec", trials=N, mode="blackbox",
                               seed=78, workers=2, timeout=5.0,
                               max_retries=2, snapshot_stride=150,
                               executor="pool")

    health = chaotic.health
    assert health.worker_crashes > 0, "chaos never killed a worker"
    assert not health.quarantined
    assert len(chaotic.trials) == N
    for i, (a, b) in enumerate(zip(chaotic.trials, clean.trials)):
        assert _science_equal(a, b), i
