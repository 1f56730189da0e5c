"""One property over app, mode, fork, pruning, region plan, executor and
chaos: every drawn configuration has the reference science
(:func:`.oracle.check`).

The headline cases of the suites this replaced stay pinned under their
own ids, each a call of :func:`.oracle.check` with a check that the path
it pins was taken: the fork, pruning, region-plan, fast-forward,
executor and fork-run suites in ``tests/inject``.  The examples pinned
here have no such home.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.integration.oracle import Config, check

#: each pinned example's liveness check: the path it pins was taken
PINNED = {
    # a cursor rewound to snapshots of ranks blocked mid-collective
    Config("midcoll", "fpm", True, 40, False, "serial", False, 12, 7):
        lambda r: r.health.forked_trials > 0,
    # ground truth: seed 162's plan stores through corrupted addresses
    # onto contaminated cells, which keep their own pristine values
    Config("mcb", "fpm", True, 256, True, "remote", False, 8, 162):
        lambda r: r.health.executor == "remote",
}

configs = st.builds(
    Config,
    target=st.one_of(
        st.sampled_from(("matvec", "mcb", "amg", "minife", "lulesh",
                         "midcoll")),
        st.integers(0, 10 ** 6).map(lambda s: f"gen{s}")),
    mode=st.sampled_from(("blackbox", "fpm", "taint")),
    fork=st.booleans(),
    stride=st.sampled_from((0, 150, 256)),
    artifacts=st.booleans(),
    executor=st.sampled_from(("serial", "pool", "remote")),
    chaos=st.booleans(),
    trials=st.integers(8, 24),
    seed=st.integers(0, 2 ** 16),
).map(lambda c: c._replace(chaos=c.chaos and c.executor != "serial"))


def _pinned(test):
    for config in PINNED:
        test = example(config)(test)
    return test


@settings(derandomize=True, database=None, deadline=None, max_examples=5)
@given(configs)
@_pinned
def test_every_configuration_has_the_reference_science(c):
    got = check(c)
    assert PINNED.get(c, lambda r: True)(got), c
