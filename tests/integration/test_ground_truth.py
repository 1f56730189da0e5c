"""FPM ground truth on the built-in apps: the shadow table against the
real golden-vs-faulty memory difference (:mod:`tests.integration.lockstep`).
"""

import numpy as np
import pytest

from repro.inject.plan import draw_plan
from repro.vm import FaultSpec
from tests.integration.lockstep import golden, lockstep


def sweep(app, plans=8, seed=20150715):
    """Strong-check share over ``plans`` drawn single-fault trials."""
    rng = np.random.default_rng(seed)
    strong = total = 0
    for i in range(plans):
        faults = draw_plan(rng, golden(app)[2], 1)
        s, t = lockstep(app, faults, inj_seed=i)
        strong += s
        total += t
    return strong / max(total, 1)


@pytest.mark.parametrize("app", ["matvec", "mcb", "amg"])
def test_shadow_table_is_the_golden_memory_diff(app):
    share = sweep(app)
    print(f"{app}: strong check on {share:.1%} of samples")
    assert share > 0.25


def test_wrong_address_store_keeps_the_cells_own_pristine_value():
    # a second corrupted-address store onto an already-contaminated
    # cell: the entry must stay the golden value (paper Sec. 3.2 "store
    # addresses"), not become the faulty run's previous content
    strong, total = lockstep(
        "mcb", [FaultSpec(rank=2, occurrence=180, bit=31)], inj_seed=2)
    assert strong > 49 and total == 380  # the parent broke at sample 49
