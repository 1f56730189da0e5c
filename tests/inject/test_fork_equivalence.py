"""Fork-at-injection campaigns have the cold campaign's science.

A campaign executed by COW-forking each trial off the worker's shared
golden cursor must be bit-identical — every field of every trial — to
the same campaign run cold, and the guarantee must survive a worker
killed mid-epoch-bucket.  Each case is a pinned configuration of the
equivalence oracle (:mod:`tests.integration.oracle`), with a check that
the fork path was taken.
"""

import pytest

from tests.integration.oracle import Config, check


def test_fuzz_amg_fpm_fork_equals_no_fork():
    got = check(Config("amg", "fpm", True, 256, False, "serial", False, 8, 41))
    # amg's long epochs give every drawn plan a usable fork epoch
    assert got.health.forked_trials == got.n_trials


@pytest.mark.parametrize("seed", [7, 19])
def test_fuzz_matvec_fpm_fork_equals_no_fork(seed):
    got = check(Config("matvec", "fpm", True, 150, False, "serial", False,
                       24, seed))
    assert got.health.forked_trials > 0


def test_chaos_worker_kill_keeps_epoch_bucket_siblings():
    """Kill every dispatched worker once, mid-bucket: the engine must
    requeue the dead worker's inflight trial *and* the sibling trials
    of its epoch bucket, and the re-executed trials still fork off the
    respawned workers' shared cursors."""
    got = check(Config("matvec", "blackbox", True, 150, False, "pool", True,
                       12, 77))
    assert got.health.worker_crashes > 0 and got.health.forked_trials > 0
