"""Lock-step ground truth (paper Sec. 3.2): while a faulty world still
walks golden's control path, each rank's shadow table is the real
golden-vs-faulty memory difference.  Past the first control divergence
"pristine" means "along the faulty path" (DESIGN §5): the check stops.
"""

from functools import lru_cache

from repro.apps import get_app
from repro.core.runner import (build_program, build_world, make_scheduler,
                               run_job)
from repro.fpm.shadow import same_value


@lru_cache(maxsize=None)
def golden(app, params=()):
    """``(program, config, inj_counts)`` of the app's fpm build."""
    spec = get_app(app, **dict(params))
    program = build_program(spec.source, "fpm", config=spec.config)
    return program, spec.config, run_job(program, spec.config).inj_counts


def _control(m):
    # the edge counts catch a branch that went the other way and
    # rejoined golden's path, on golden's clock, inside one epoch; the
    # pending call, an MPI call made with other arguments (a receive
    # from a corrupted source that golden's sender completes)
    return ([(fr.cfunc.name, fr.block, fr.ip) for fr in m.call_stack],
            m.cycles, m.inj_counter, m.edge_profile, m.pending)


def _live(mem):
    live = set(range(1, mem.sp))
    for base, size in mem.heap_blocks.items():
        live.update(range(base, base + size))
    return live


def lockstep(app, faults, inj_seed, params=()):
    """Run one faulty trial beside a golden world; returns ``(strong,
    total)`` sample counts.  Raises AssertionError on any mismatch."""
    program, config, _ = golden(app, params)
    golden_world, g_rt = build_world(program, config, edge_profile={})
    faulty, f_rt = build_world(program, config, faults, inj_seed=inj_seed,
                               edge_profile={})
    for m in golden_world + faulty:
        m.edge_profile = {}  # one per rank
    g_sched = make_scheduler(golden_world, g_rt, config)
    f_sched = make_scheduler(faulty, f_rt, config)
    strong = total = 0
    on_path = True
    while f_sched.run(stop_at_epoch=f_sched.start_epoch + 1) is None:
        total += 1
        if not on_path:
            continue
        if g_sched.run(stop_at_epoch=g_sched.start_epoch + 1) is not None \
                or any(_control(g) != _control(f)
                       for g, f in zip(golden_world, faulty)):
            on_path = False
            continue
        strong += 1
        where = f"{app} {faults} seed {inj_seed} epoch {f_sched.start_epoch}"
        for g, f in zip(golden_world, faulty):
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
