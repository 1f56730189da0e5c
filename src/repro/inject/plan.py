"""Fault-plan sampling: which rank, when, and which bit.

Implements the paper's statistical fault injection (Secs. 2 and 4.1):
single-bit flips at uniformly random points of the dynamic execution of a
uniformly random MPI process.  The LLFI++ extension — zero or more faults
per process per run — is the ``n_faults`` parameter.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..errors import CampaignError
from ..vm.machine import FaultSpec


def draw_plan(
    rng: np.random.Generator,
    inj_counts: Sequence[int],
    n_faults: int = 1,
    *,
    rank: Optional[int] = None,
    bit: Optional[int] = None,
) -> List[FaultSpec]:
    """Sample a fault plan against a profiled dynamic-site space.

    Each fault independently picks a target rank (uniform over ranks, or
    the fixed ``rank``), an occurrence uniform over that rank's dynamic
    injectable instructions, and a bit (uniform over 64, or fixed).
    """
    if n_faults < 1:
        raise CampaignError(f"n_faults must be >= 1, got {n_faults}")
    nranks = len(inj_counts)
    if nranks == 0:
        raise CampaignError("no ranks profiled")
    if rank is not None and not 0 <= rank < nranks:
        raise CampaignError(
            f"rank {rank} out of range: the job runs {nranks} rank(s)")
    specs: List[FaultSpec] = []
    for _ in range(n_faults):
        r = int(rng.integers(nranks)) if rank is None else rank
        total = inj_counts[r]
        if total < 1:
            raise CampaignError(f"rank {r} has no injectable instructions")
        occurrence = int(rng.integers(1, total + 1))
        b = int(rng.integers(64)) if bit is None else bit
        specs.append(FaultSpec(rank=r, occurrence=occurrence, bit=b))
    return specs
