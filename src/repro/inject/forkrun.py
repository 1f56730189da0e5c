"""Fork-at-injection trial execution: the per-worker golden cursor.

A fault-injection campaign run cold re-executes the same golden prefix
for every trial.  The fork model does not: one shared golden world per
worker is advanced through the campaign's epoch buckets *exactly
once*, and each trial forks it copy-on-write at its injection epoch —

* :meth:`GoldenCursor.advance_to` resumes the paused golden scheduler
  (``Scheduler.run(stop_at_epoch=...)``) up to the trial's fork epoch,
  the last epoch whose per-rank injection counters still precede every
  occurrence in the fault plan (:meth:`GoldenProfile.fork_epoch`);
* :meth:`GoldenCursor.fork_run` opens a page-granular COW transaction
  on every rank's memory (:meth:`ProcessMemory.begin_tx`), takes every
  rank's :meth:`Machine.capture(memory=False)
  <repro.vm.machine.Machine.capture>` — the one definition of a rank's
  state, minus the words the transaction covers — arms the faults and
  runs the trial to completion; rolling back afterwards restores only
  the pages the trial actually touched
  (:meth:`ProcessMemory.rollback_tx`) — so a trial costs O(divergent
  window + pages touched), not O(world size).

Bit-identity argument: a cold trial *is* the golden run until its
first armed occurrence fires, and the fork epoch *e* precedes every
occurrence — so after *e* epochs a cold trial's world is the paused
cursor's world (the pause sits at the top of the epoch loop).  The
trial scheduler starts with the identical ``start_epoch`` and golden
trace prefix, and the fault is armed on that state before any
instruction of the epoch runs — so fork trials are bit-identical to
cold (``--no-fork``) trials, which the equivalence oracle asserts
wholesale.

The cursor's golden advance runs on the golden plan's regions: the
shared world is by construction on the golden trajectory and unarmed,
exactly the regime the plan was derived for, so the prefix each worker
pays once is the fastest path available.  Forked trials inherit the
same machines — armed entry and the region guards keep them
bit-identical (see :mod:`repro.vm.tier2`).

Rewinds (a trial's fork epoch behind the cursor, e.g. after a retry or
across unsorted batches) restore the nearest earlier golden snapshot
(:meth:`SnapshotStore.best_at_epoch`) and roll forward, falling back to
a cold start when snapshots are disabled.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.config import RunConfig
from ..core.runner import build_world, make_scheduler
from ..errors import SnapshotError
from ..mpi import JobResult, MPIRuntime, Scheduler
from ..vm import Machine
from ..vm.snapshot import restore_world


class GoldenCursor:
    """One shared golden world per worker process, forked per trial.

    Owned lazily by a :class:`~repro.inject.profiler.PreparedApp` (one
    cursor per prepared app per worker); never shared across processes
    and never pickled — respawned workers rebuild their cursor from the
    prepared cache exactly as they rebuild everything else.
    """

    def __init__(self, prepared) -> None:
        self.pa = prepared
        self.config: RunConfig = prepared.run_config()
        self.machines: List[Machine] = []
        self.runtime: Optional[MPIRuntime] = None
        self._sched: Optional[Scheduler] = None
        #: observability counters (surfaced via stats())
        self.cold_starts = 0
        self.rewinds = 0
        self.trials = 0

    # ------------------------------------------------------------------
    # Golden-world positioning
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> Optional[int]:
        """Paused epoch of the golden world (None = not built yet)."""
        return self._sched.start_epoch if self._sched is not None else None

    def _rewind(self, epoch: int) -> None:
        """Stand at the nearest golden snapshot at or before ``epoch``
        (the job's start when there is none)."""
        snaps = self.pa.snapshots
        snap = snaps.best_at_epoch(epoch) if snaps is not None else None
        if snap is None or not self.machines:
            self.machines, self.runtime = build_world(self.pa.program,
                                                      self.config)
            self.cold_starts += 1
        start_epoch, trace = 0, None
        if snap is not None:
            start_epoch, trace = restore_world(snap, self.machines,
                                               self.runtime)
            self.rewinds += 1
        self._sched = make_scheduler(self.machines, self.runtime,
                                     self.config, start_epoch=start_epoch,
                                     trace=trace)

    def advance_to(self, epoch: int) -> int:
        """Position the golden world at ``epoch``; returns the virtual
        time there.  Forward motion resumes the paused scheduler; a
        backward target restores the nearest earlier golden snapshot
        (or cold-starts) and rolls forward."""
        if self._sched is None or epoch < self._sched.start_epoch:
            self._rewind(epoch)
        if self._sched.start_epoch < epoch:
            if self._sched.run(stop_at_epoch=epoch) is not None:
                # the golden job finished before the requested epoch:
                # the fork plan was computed against a different profile
                self._sched = None
                raise SnapshotError(
                    f"golden run completed before epoch {epoch}; "
                    f"fork epoch does not match this golden profile"
                )
        return max(m.cycles for m in self.machines)

    # ------------------------------------------------------------------
    # Forked trial execution
    # ------------------------------------------------------------------
    def fork_run(
        self,
        faults: Sequence,
        *,
        inj_seed: Optional[int] = None,
        wall_timeout: Optional[float] = None,
        cml_stream=None,
        prune=None,
    ) -> Tuple[JobResult, int]:
        """Run one faulted trial forked COW off the paused golden world.

        Returns ``(result, pages_copied)``.  The golden world is
        restored bit-identically afterwards whether the trial completed,
        trapped, or raised; if even the restore fails the cursor poisons
        itself and rebuilds on the next :meth:`advance_to`.
        """
        sched = self._sched
        if sched is None:
            raise SnapshotError("cursor has no paused golden world")
        machines = self.machines
        runtime = self.runtime
        trace = sched.initial_trace
        saved = [m.capture(memory=False) for m in machines]
        saved_rt = runtime.snapshot_state()
        in_tx: List[Machine] = []
        try:
            for m in machines:
                m.memory.begin_tx()
                in_tx.append(m)
            for m in machines:
                m.arm_faults(faults, seed=inj_seed)
            result = make_scheduler(
                machines, runtime, self.config,
                wall_timeout=wall_timeout,
                start_epoch=sched.start_epoch,
                trace=trace.copy() if trace is not None else None,
                cml_stream=cml_stream,
                prune=prune,
            ).run()
            self.trials += 1
            return result, sum(m.memory.tx_pages_copied for m in machines)
        finally:
            try:
                for m in in_tx:
                    m.memory.rollback_tx()
                for m, st in zip(machines, saved):
                    m.restore(st)
                runtime.restore_state(saved_rt)
            except BaseException:  # pragma: no cover - defensive
                # poisoned (possibly with a live tx): full rebuild next
                self._sched = None
                self.machines = []
                self.runtime = None
                raise

    def stats(self) -> dict:
        return {
            "epoch": self.epoch,
            "trials": self.trials,
            "cold_starts": self.cold_starts,
            "rewinds": self.rewinds,
        }
