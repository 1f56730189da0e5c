"""World snapshots: a paused job, by value.

A :class:`WorldSnapshot` is every rank's :meth:`Machine.capture
<repro.vm.machine.Machine.capture>` tuple — what a rank's state *is* is
decided there and nowhere else — plus the MPI runtime's in-flight
state, the scheduler epoch and the CML trace prefix.  Two things take
them: golden profiling, at a cycle stride (:class:`SnapshotStore`; the
golden cursor restores the nearest one when it has to move *backwards*,
and the stride is the one convergence-pruning fingerprints are taken
at), and the roll-back runner of :mod:`repro.resilience`, whose
checkpoints are exactly this.  Trials are not positioned from
snapshots: they fork off the golden cursor or run cold
(:mod:`repro.inject.forkrun`).

Correctness contract: a world restored by :func:`restore_world` and run
on by a scheduler started at the returned epoch and trace is
**bit-identical** to the run the snapshot was taken from.  That holds
because snapshots are only taken at epoch boundaries, after the
scheduler's trace sample, so the epoch structure (and with it CML
sampling times and MPI interleaving) is preserved exactly, and because
the captured tuples cover all state a closure or the runtime can
observe.

Snapshots are plain data (frames name their function), so a store is
pickled into golden artifacts and re-attached to any program compiled
from the same source.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..core.settings import DEFAULT_SNAPSHOT_STRIDE, current_settings
from ..errors import SnapshotError
from ..fpm.tracker import PropagationTrace
from .machine import Machine, MachineState, MachineStatus

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
class WorldSnapshot:
    """Full job state at one epoch boundary."""

    #: global virtual time (max rank clock) at capture
    cycle: int
    #: scheduler epoch at capture (restored runs resume the epoch count)
    epoch: int
    machines: Tuple[MachineState, ...]
    runtime: tuple
    #: the CML trace up to here, or None for non-FPM runs
    trace: Optional[PropagationTrace]


def capture_world(machines: Sequence[Machine], runtime, epoch: int,
                  trace: Optional[PropagationTrace]) -> WorldSnapshot:
    """Snapshot a job paused at the boundary after ``epoch`` epochs."""
    return WorldSnapshot(
        cycle=max(m.cycles for m in machines),
        epoch=epoch,
        machines=tuple(m.capture() for m in machines),
        runtime=runtime.snapshot_state(),
        trace=trace.copy() if trace is not None else None,
    )


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
        self._snaps[t] = capture_world(machines, runtime, epoch, trace)
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
    """Put a snapshot back into a job's machines + attached runtime —
    fresh ones, or the ones it was taken from.

    Returns ``(start_epoch, trace)`` for the scheduler: the epoch count
    resumes where the snapshot stood and the trace is pre-filled with
    its prefix, so CML(t) curves are bit-identical to an unbroken run.
    """
    if len(machines) != len(snap.machines):
        raise SnapshotError(
            f"snapshot has {len(snap.machines)} ranks, job has "
            f"{len(machines)}"
        )
    for m, st in zip(machines, snap.machines):
        m.restore(st)
    runtime.restore_state(snap.runtime)
    return snap.epoch, snap.trace.copy() if snap.trace is not None else None
