"""FPM ground truth: the shadow table against an actual golden world.

The paper defines a corrupted location as one whose value differs from
the fault-free execution's (Sec. 3.2); every other suite compares one
of our interpreters with another, which share the FPM rules.  Here a
golden and a faulty world of the same program are stepped in lock-step
and, while the faulty ranks still walk golden's control path, each
rank's shadow table must equal the real memory difference entry for
entry.  Past the first control divergence "pristine" means "along the
faulty path" (DESIGN §5), so the strong check stops there and the share
of samples it covered is reported.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.apps import get_app
from repro.core.runner import (build_program, build_world, make_scheduler,
                               run_job)
from repro.fpm.shadow import same_value
from repro.inject.plan import draw_plan
from repro.vm import FaultSpec


@lru_cache(maxsize=None)
def _golden(app):
    spec = get_app(app)
    program = build_program(spec.source, "fpm", config=spec.config)
    return program, spec.config, run_job(program, spec.config).inj_counts


def _control(m):
    return ([(fr.cfunc.name, fr.block, fr.ip) for fr in m.call_stack],
            m.cycles, m.inj_counter)


def _live(mem):
    live = set(range(1, mem.sp))
    for base, size in mem.heap_blocks.items():
        live.update(range(base, base + size))
    return live


def lockstep(app, faults, inj_seed):
    """Run one faulty trial beside a golden world; returns ``(strong,
    total)`` sample counts.  Raises AssertionError on any mismatch."""
    program, config, _ = _golden(app)
    golden, g_rt = build_world(program, config)
    faulty, f_rt = build_world(program, config, faults, inj_seed=inj_seed)
    g_sched = make_scheduler(golden, g_rt, config)
    f_sched = make_scheduler(faulty, f_rt, config)
    strong = total = 0
    on_path = True
    while f_sched.run(stop_at_epoch=f_sched.start_epoch + 1) is None:
        total += 1
        if not on_path:
            continue
        if g_sched.run(stop_at_epoch=g_sched.start_epoch + 1) is not None \
                or any(_control(g) != _control(f)
                       for g, f in zip(golden, faulty)):
            on_path = False
            continue
        strong += 1
        where = f"{app} {faults} seed {inj_seed} epoch {f_sched.start_epoch}"
        for g, f in zip(golden, faulty):
            assert not g.fpm.table, f"golden table not empty: {where}"
            live = _live(g.memory)
            assert live == _live(f.memory), f"live sets differ: {where}"
            gc, fc = g.memory.cells, f.memory.cells
            truth = {a: gc[a] for a in live if not same_value(gc[a], fc[a])}
            table = f.fpm.table
            assert truth.keys() == table.keys() and all(
                same_value(truth[a], table[a]) for a in truth), (
                f"rank {f.rank} at cycle {f.cycles}: {where}\n"
                f"  memory diff {sorted(truth.items())[:6]}\n"
                f"  shadow table {sorted(table.items())[:6]}")
    return strong, total


def sweep(app, plans=8, seed=20150715):
    """Strong-check share over ``plans`` drawn single-fault trials."""
    rng = np.random.default_rng(seed)
    strong = total = 0
    for i in range(plans):
        faults = draw_plan(rng, _golden(app)[2], 1)
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
