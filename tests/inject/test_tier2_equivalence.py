"""Campaigns on the golden region plan have the closure-only science.

Every prepared app installs its plan; the oracle's reference runs every
program built with ``fuse=False`` and plan installation stubbed.  The
cases cover the regions' deopt guards: faults firing inside regions,
tails re-entering them, trap-raising members, fork epochs landing
mid-region, whole trials with no fingerprints, and chaos-killed workers
that reload their plan from the artifact.  Each is a pinned
configuration of the equivalence oracle (:mod:`tests.integration.oracle`).
"""

import pytest

from tests.integration.oracle import Config, check


def test_fuzz_amg_fpm_tier2_equals_tier1():
    # long epochs, shadow chains, fork on: fork epochs land inside
    # regions, so the budget guard refuses entry on every bucket
    got = check(Config("amg", "fpm", True, 256, False, "serial", False, 8, 43))
    assert got.health.forked_trials > 0


@pytest.mark.parametrize("seed", [11, 29])
def test_fuzz_matvec_fpm_tier2_equals_tier1(seed):
    # dense injectable sites, snapshot restore, pruning, a pool with
    # artifacts: faults fire inside regions and tails re-enter them
    got = check(Config("matvec", "fpm", True, 150, True, "pool", False,
                       24, seed))
    assert got.health.forked_trials > 0 and got.effective_workers == 2


def test_fuzz_lulesh_blackbox_tier2_equals_tier1():
    # trap-heavy: the region trap-recovery guard fires
    got = check(Config("lulesh", "blackbox", True, 150, False, "serial",
                       False, 8, 2))
    assert any(t.trap_kind is not None for t in got.trials)


def test_fuzz_no_fork_no_prune_tier2_equals_tier1():
    # the cold path with no fingerprints: regions carry whole trials
    got = check(Config("matvec", "blackbox", False, 0, False, "serial",
                       False, 16, 91))
    assert got.health.forked_trials == got.health.pruned_trials == 0


def test_chaos_worker_kill_with_tier2():
    # killed workers respawn and install the plan they load from the
    # artifact
    got = check(Config("matvec", "blackbox", True, 150, True, "pool", True,
                       12, 78))
    assert got.health.worker_crashes > 0
