"""World snapshots of the golden run.

Golden profiling captures full world state — every rank's frames,
registers, memory, contamination tables, RNG and MPI runtime state — at
a cycle stride.  Trials are not positioned from these (they fork off the
golden cursor or run cold, see :mod:`repro.inject.forkrun`); a snapshot
is what the cursor restores when it has to move *backwards*
(:meth:`SnapshotStore.best_at_epoch` + :func:`restore_world`), and the
stride is the one convergence-pruning fingerprints are taken at.

Correctness contract: a world restored from a snapshot and run forward
is **bit-identical** to the golden run at the same epoch.  That holds
because

* snapshots are only taken at epoch boundaries, after the scheduler's
  trace sample, so the epoch structure (and with it CML sampling times
  and MPI interleaving) is preserved exactly;
* all mutable state a closure can observe is captured: machine frames
  and registers, sparse process memory, shadow/taint tables, per-rank
  RNG streams, MPI queues and in-flight collectives, and the trace
  prefix.

Snapshots hold compiled-closure references (via ``Frame.cfunc``), so
they are shared with forked pool workers copy-on-write through the
prepared-app cache and are never pickled.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.settings import DEFAULT_SNAPSHOT_STRIDE, current_settings
from ..errors import SnapshotError
from ..fpm.tracker import PropagationTrace
from .machine import Frame, Machine, MachineStatus

#: default capture stride in cycles of global virtual time
DEFAULT_STRIDE = DEFAULT_SNAPSHOT_STRIDE
#: maximum number of retained snapshots per golden run
DEFAULT_LIMIT = 32


def default_snapshot_stride(requested: Optional[int] = None) -> int:
    """Resolve the capture stride: argument, else env, else default.

    ``0`` disables snapshotting entirely (no fingerprints either, and
    a cursor rewind replays from cycle 0).
    """
    if requested is not None:
        return max(0, int(requested))
    return current_settings().snapshot_stride


def snapshot_verify_mode() -> str:
    """REPRO_SNAPSHOT_VERIFY: ``off`` | ``first`` (default) | ``all``.

    ``first`` re-runs the first forked trial per prepared app cold
    and asserts bit-identity; ``all`` does so for every trial
    (slow — for debugging); ``off`` trusts the invariants.
    """
    return current_settings().snapshot_verify


@dataclass(frozen=True)
class _MachineState:
    """Immutable per-rank state (everything Machine.run can observe)."""

    status: str
    cycles: int
    iteration_count: int
    outputs: tuple
    rng_state: int
    inj_counter: int
    coll_seq: int
    pending: Optional[tuple]
    ret_val: object
    ret_val_p: object
    #: (function name, regs, block, ip, saved_sp, ret_dest, ret_dest_p)
    frames: Tuple[tuple, ...]
    memory: tuple
    fpm: Optional[tuple]


@dataclass(frozen=True)
class WorldSnapshot:
    """Full job state at one epoch boundary of a golden run."""

    #: global virtual time (max rank clock) at capture
    cycle: int
    #: scheduler epoch at capture (restored runs resume the epoch count)
    epoch: int
    #: per-rank injectable-site execution counters at capture
    inj_counters: Tuple[int, ...]
    machines: Tuple[_MachineState, ...]
    runtime: tuple
    #: (times, cml_per_rank, live_words, ranks_contaminated) prefix, or
    #: None for non-FPM runs
    trace: Optional[tuple]


def _capture_machine(m: Machine) -> _MachineState:
    if m.pending_call is not None:  # pragma: no cover - epoch boundaries only
        raise SnapshotError("cannot snapshot a machine mid-call staging")
    return _MachineState(
        status=m.status.value,
        cycles=m.cycles,
        iteration_count=m.iteration_count,
        outputs=tuple(m.outputs),
        rng_state=m.rng.state,
        inj_counter=m.inj_counter,
        coll_seq=m.coll_seq,
        pending=tuple(sorted(m.pending.items())) if m.pending is not None else None,
        ret_val=m.ret_val,
        ret_val_p=m.ret_val_p,
        frames=tuple(
            (fr.cfunc.name, tuple(fr.regs), fr.block, fr.ip,
             fr.saved_sp, fr.ret_dest, fr.ret_dest_p)
            for fr in m.call_stack
        ),
        memory=m.memory.snapshot_state(),
        fpm=m.fpm.snapshot_state() if m.fpm is not None else None,
    )


def _restore_machine(m: Machine, st: _MachineState) -> None:
    m.memory.restore_state(st.memory)
    if st.fpm is not None:
        if m.fpm is None:  # pragma: no cover - program modes must match
            raise SnapshotError("snapshot has FPM state but machine has none")
        m.fpm.restore_state(st.fpm)
    frames: List[Frame] = []
    for name, regs, block, ip, saved_sp, ret_dest, ret_dest_p in st.frames:
        cfunc = m.program.functions.get(name)
        if cfunc is None:
            raise SnapshotError(
                f"snapshot frame references unknown function {name!r}; "
                "restore target was compiled from a different program"
            )
        fr = Frame(cfunc, saved_sp, ret_dest, ret_dest_p)
        fr.regs = list(regs)
        fr.block = block
        fr.ip = ip
        frames.append(fr)
    m.call_stack = frames
    m.status = MachineStatus(st.status)
    m.cycles = st.cycles
    m.iteration_count = st.iteration_count
    m.outputs = list(st.outputs)
    m.rng.state = st.rng_state
    m.inj_counter = st.inj_counter
    m.coll_seq = st.coll_seq
    m.pending = dict(st.pending) if st.pending is not None else None
    m.ret_val = st.ret_val
    m.ret_val_p = st.ret_val_p
    m.pending_call = None
    m.trap = None
    m.injection_events = []
    m.fused_skew = 0


class SnapshotStore:
    """Bounded store of :class:`WorldSnapshot`\\ s for one prepared app.

    Captures are attempted once per scheduler epoch (via
    :meth:`maybe_capture`) and taken whenever global virtual time has
    advanced past the next stride mark.  When the store overflows
    ``limit``, every other snapshot (keeping the newest and oldest) is
    dropped and the stride doubles — thinning is deterministic, so
    serial, pooled and resumed campaigns see identical stores.
    """

    def __init__(self, stride: Optional[int] = None,
                 limit: Optional[int] = None) -> None:
        self.stride = default_snapshot_stride(stride)
        # minimum 2: thinning keeps the newest and the oldest
        self.limit = DEFAULT_LIMIT if limit is None else max(2, int(limit))
        self._snaps: "OrderedDict[int, WorldSnapshot]" = OrderedDict()
        self._next_at = self.stride
        self._capturing = True
        self.captures = 0

    @property
    def enabled(self) -> bool:
        return self.stride > 0

    def __len__(self) -> int:
        return len(self._snaps)

    def freeze(self) -> None:
        """End the capture phase (after golden profiling)."""
        self._capturing = False

    def maybe_capture(self, t: int, epoch: int, machines: Sequence[Machine],
                      runtime, trace: Optional[PropagationTrace]) -> None:
        """Capture a snapshot if the stride mark has been passed.

        Skips when all machines are DONE: the scheduler would exit this
        epoch, and restoring there would add a spurious extra epoch (and
        trace sample) relative to a cold run.
        """
        if not self._capturing or self.stride <= 0 or t < self._next_at:
            return
        if all(m.status is MachineStatus.DONE for m in machines):
            return
        snap = WorldSnapshot(
            cycle=t,
            epoch=epoch,
            inj_counters=tuple(m.inj_counter for m in machines),
            machines=tuple(_capture_machine(m) for m in machines),
            runtime=runtime.snapshot_state(),
            trace=(
                (tuple(trace.times),
                 tuple(tuple(row) for row in trace.cml_per_rank),
                 tuple(trace.live_words),
                 tuple(trace.ranks_contaminated))
                if trace is not None else None
            ),
        )
        self._snaps[t] = snap
        self.captures += 1
        if len(self._snaps) > self.limit:
            keys = list(self._snaps)
            # Drop every other snapshot, newest-first offset so the
            # newest and oldest both survive; double the stride to match
            # the coarsened spacing.
            for k in keys[-2::-2]:
                del self._snaps[k]
            self.stride *= 2
        self._next_at = t + self.stride

    def best_at_epoch(self, epoch: int) -> Optional[WorldSnapshot]:
        """Latest snapshot captured at or before ``epoch``.

        The golden-cursor rewind primitive: a fork-at-injection worker
        whose cursor has advanced past a trial's fork epoch restores the
        closest earlier snapshot and re-runs forward from there instead
        of replaying the whole golden prefix.
        """
        best: Optional[WorldSnapshot] = None
        for snap in self._snaps.values():
            if snap.epoch > epoch:
                break
            best = snap
        return best

    def stats(self) -> Dict[str, int]:
        return {
            "snapshots": len(self._snaps),
            "stride": self.stride,
            "captures": self.captures,
        }

    # ------------------------------------------------------------------
    # Golden-artifact support
    # ------------------------------------------------------------------
    def dump_state(self) -> tuple:
        """Serializable form of a frozen store (plain data, picklable).

        Snapshots reference compiled functions by *name* only, so a
        dumped store can be re-attached to any program compiled from the
        same source (:mod:`repro.inject.artifacts` guarantees that by
        content-addressing on the source).
        """
        return (
            self.stride,
            self.limit,
            tuple(self._snaps.items()),
            self.captures,
        )

    @classmethod
    def load_state(cls, state: tuple) -> "SnapshotStore":
        """Rebuild a frozen store dumped by :meth:`dump_state`.

        The loaded store is frozen (no further captures).
        """
        stride, limit, snaps, captures = state
        store = cls(stride, limit)
        store._snaps = OrderedDict(snaps)
        store._next_at = (max(store._snaps) if store._snaps else 0) + stride
        store._capturing = False
        store.captures = captures
        return store


def restore_world(snap: WorldSnapshot, machines: Sequence[Machine],
                  runtime) -> Tuple[int, Optional[PropagationTrace]]:
    """Restore a snapshot into freshly constructed machines + runtime.

    Returns ``(start_epoch, trace)`` for the scheduler: the epoch count
    resumes where the golden run stood and the trace is pre-filled with
    the golden prefix so CML(t) curves are bit-identical to cold runs.
    """
    if len(machines) != len(snap.machines):
        raise SnapshotError(
            f"snapshot has {len(snap.machines)} ranks, job has "
            f"{len(machines)}"
        )
    for m, st in zip(machines, snap.machines):
        _restore_machine(m, st)
    runtime.restore_state(snap.runtime)
    trace: Optional[PropagationTrace] = None
    if snap.trace is not None:
        times, cml, live, ranks = snap.trace
        trace = PropagationTrace(
            times=list(times),
            cml_per_rank=[list(row) for row in cml],
            live_words=list(live),
            ranks_contaminated=list(ranks),
        )
    return snap.epoch, trace
