"""Coordinated checkpoint/restore for simulated MPI jobs.

The paper's motivation for the CML estimator (Sec. 5) is the roll-back
decision: "The estimation provided by our model can be used to decide, at
runtime, if a roll-back should be triggered."  This module provides the
machinery that decision controls: blocking coordinated checkpoints of
every rank's full execution state, and restoration that rewinds the job
to the snapshot.

A checkpoint captures, per rank: memory cells + validity, the stack/heap
allocator state, the whole call stack (frames, registers, program
counters), the program RNG, outputs, iteration counts, and the fault
injection counters.  Restoring mid-campaign therefore replays execution
deterministically — including re-encountering an armed fault if its
occurrence lies after the checkpoint.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ReproError
from ..vm.machine import Frame, Machine, MachineStatus


@dataclass
class RankCheckpoint:
    """Snapshot of one simulated process."""

    cycles: int
    status: str
    # memory (a copy of the cells list + validity bytes)
    cells: list
    valid: bytes
    sp: int
    hp: int
    heap_blocks: Dict[int, int]
    free_lists: Dict[int, List[int]]
    live_words: int
    # execution
    frames: List[dict]
    rng_state: int
    outputs: list
    iteration_count: int
    coll_seq: int
    # instrumentation
    inj_counter: int
    inj_next: int
    armed_idx: int
    inj_rng_state: int
    shadow: Optional[dict]
    shadow_ever: int
    shadow_first: Optional[int]


@dataclass
class JobCheckpoint:
    """Coordinated snapshot of every rank, taken at a quiescent point."""

    label: str
    time: int
    ranks: List[RankCheckpoint] = field(default_factory=list)
    #: per-rank in-flight message queues (deep copies)
    queues: list = field(default_factory=list)

    @property
    def nranks(self) -> int:
        return len(self.ranks)


def checkpoint_machine(m: Machine) -> RankCheckpoint:
    """Snapshot one machine.  The machine must not be mid-collective."""
    if m.pending is not None:
        raise ReproError(
            f"rank {m.rank}: cannot checkpoint with a pending MPI operation"
        )
    mem = m.memory
    frames = []
    for f in m.call_stack:
        frames.append({
            "func": f.cfunc.name,
            "regs": list(f.regs),
            "block": f.block,
            "ip": f.ip,
            "saved_sp": f.saved_sp,
            "ret_dest": f.ret_dest,
            "ret_dest_p": f.ret_dest_p,
        })
    shadow = dict(m.fpm.table) if m.fpm is not None else None
    return RankCheckpoint(
        cycles=m.cycles,
        status=m.status.value,
        cells=list(mem.cells),
        valid=bytes(mem.valid),
        sp=mem.sp,
        hp=mem.hp,
        heap_blocks=dict(mem.heap_blocks),
        free_lists={k: list(v) for k, v in mem.free_lists.items()},
        live_words=mem.live_words,
        frames=frames,
        rng_state=m.rng.state,
        outputs=list(m.outputs),
        iteration_count=m.iteration_count,
        coll_seq=m.coll_seq,
        inj_counter=m.inj_counter,
        inj_next=m.inj_next,
        armed_idx=m._armed_idx,
        inj_rng_state=m._inj_rng.state,
        shadow=shadow,
        shadow_ever=m.fpm.ever_contaminated_count if m.fpm is not None else 0,
        shadow_first=(m.fpm.first_contamination_cycle
                      if m.fpm is not None else None),
    )


def restore_machine(m: Machine, ck: RankCheckpoint,
                    *, clear_contamination: bool = True) -> None:
    """Rewind one machine to a snapshot.

    ``clear_contamination=True`` models a roll-back to a checkpoint taken
    *before* the fault: the restored memory is the checkpointed (clean)
    memory, so the shadow table is restored to the snapshot's (normally
    empty) state.  Pass False to study checkpoints of already-contaminated
    state.
    """
    mem = m.memory
    if mem._tx is not None:
        raise ReproError(
            f"rank {m.rank}: cannot restore a checkpoint during a "
            f"COW transaction"
        )
    mem.cells[:] = ck.cells  # in place, to the checkpoint's length
    mem.valid[:] = ck.valid
    mem.sp = ck.sp
    mem.hp = ck.hp
    mem.heap_blocks = dict(ck.heap_blocks)
    mem.free_lists = {k: list(v) for k, v in ck.free_lists.items()}
    mem.live_words = ck.live_words

    m.call_stack = []
    for fr in ck.frames:
        cfunc = m.program.functions[fr["func"]]
        frame = Frame(cfunc, fr["saved_sp"], fr["ret_dest"], fr["ret_dest_p"])
        frame.regs = list(fr["regs"])
        frame.block = fr["block"]
        frame.ip = fr["ip"]
        m.call_stack.append(frame)

    m.cycles = ck.cycles
    m.status = MachineStatus(ck.status)
    m.rng.state = ck.rng_state
    m.outputs = list(ck.outputs)
    m.iteration_count = ck.iteration_count
    m.coll_seq = ck.coll_seq
    m.pending = None
    m.trap = None

    m.inj_counter = ck.inj_counter
    m.inj_next = ck.inj_next
    m._armed_idx = ck.armed_idx
    m._inj_rng.state = ck.inj_rng_state
    m.injection_events = [
        ev for ev in m.injection_events if ev.occurrence <= ck.inj_counter
    ]
    if m.fpm is not None:
        if clear_contamination and ck.shadow is not None:
            m.fpm.table = dict(ck.shadow)
            m.fpm.ever_contaminated_count = ck.shadow_ever
            m.fpm.first_contamination_cycle = ck.shadow_first
        elif ck.shadow is not None:
            m.fpm.table = dict(ck.shadow)
        if ck.shadow is not None:
            # re-sync the address bounds and presence mask with the
            # wholesale table replacement above
            m.fpm._reset_bounds()
