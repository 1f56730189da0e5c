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
  on every rank's memory (:meth:`ProcessMemory.begin_tx`), captures the
  small non-memory machine state by value, arms the faults and runs the
  trial to completion; rolling back afterwards restores only the pages
  the trial actually touched (:meth:`ProcessMemory.rollback_tx`) — so a
  trial costs O(divergent window + pages touched), not O(world size).

Bit-identity argument: a cold trial *is* the golden run until its
first armed occurrence fires, and the fork epoch *e* precedes every
occurrence — so after *e* epochs a cold trial's world is the paused
cursor's world (the pause sits at the top of the epoch loop).  The
trial scheduler starts with the identical ``start_epoch`` and golden
trace prefix, and the fault is armed on that state before any
instruction of the epoch runs — so fork trials are bit-identical to
cold (``--no-fork``) trials, which the fuzz equivalence suite asserts
wholesale.

The cursor's golden advance runs on the golden plan's regions when
the campaign has them on (:meth:`set_tier2`): the shared world is by
construction on the golden trajectory and unarmed, exactly the regime
the plan was derived for, so the prefix each worker pays once is the
fastest path available.  Forked trials inherit the same machines —
armed entry and the region guards keep them bit-identical (see
:mod:`repro.vm.tier2`).

Rewinds (a trial's fork epoch behind the cursor, e.g. after a retry or
across unsorted batches) restore the nearest earlier golden snapshot
(:meth:`SnapshotStore.best_at_epoch`) and roll forward, falling back to
a cold start when snapshots are disabled.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

from ..core.config import RunConfig
from ..errors import SnapshotError
from ..fpm.tracker import PropagationTrace
from ..mpi import JobResult, MPIRuntime, Scheduler
from ..vm import Machine
from ..vm.machine import Frame
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
        #: the cursor's machines run on the planned region map (campaign
        #: --no-tier2 switches them to the static one before the first
        #: advance)
        self.use_tier2 = True
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

    def _new_scheduler(self, *, start_epoch: int = 0,
                       trace: Optional[PropagationTrace] = None,
                       machines=None, runtime=None) -> Scheduler:
        config = self.config
        return Scheduler(
            machines if machines is not None else self.machines,
            runtime if runtime is not None else self.runtime,
            quantum=config.quantum,
            max_cycles=config.max_cycles,
            sample_every=config.sample_every,
            start_epoch=start_epoch,
            trace=trace,
        )

    def _build_cold(self) -> None:
        config = self.config
        program = self.pa.program
        self.machines = [
            Machine(
                program, rank, config.nranks,
                seed=config.seed,
                mem_capacity=config.mem_capacity,
                stack_words=config.stack_words,
                entry=config.entry,
            )
            for rank in range(config.nranks)
        ]
        for m in self.machines:
            m.use_tier2 = self.use_tier2
        self.runtime = MPIRuntime()
        self.runtime.attach(self.machines)
        for m in self.machines:
            m.start()
        self._sched = self._new_scheduler()
        self.cold_starts += 1

    def _rewind(self, epoch: int) -> None:
        snaps = self.pa.snapshots
        snap = snaps.best_at_epoch(epoch) if snaps is not None else None
        if snap is None:
            self._build_cold()
            return
        if not self.machines:
            self._build_cold()
        start_epoch, trace = restore_world(snap, self.machines, self.runtime)
        self._sched = self._new_scheduler(start_epoch=start_epoch,
                                          trace=trace)
        self.rewinds += 1

    def set_tier2(self, enabled: bool) -> None:
        """Select the planned or the static region map on the cursor's
        machines."""
        enabled = bool(enabled)
        if enabled == self.use_tier2:
            return
        self.use_tier2 = enabled
        for m in self.machines:
            m.use_tier2 = enabled

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
        fork_epoch = sched.start_epoch
        golden_trace = sched.initial_trace
        saved = [self._capture_light(m) for m in machines]
        saved_rt = runtime.snapshot_state()
        trace: Optional[PropagationTrace] = None
        if golden_trace is not None:
            trace = PropagationTrace(
                times=list(golden_trace.times),
                cml_per_rank=[list(r) for r in golden_trace.cml_per_rank],
                live_words=list(golden_trace.live_words),
                ranks_contaminated=list(golden_trace.ranks_contaminated),
            )
        in_tx: List[Machine] = []
        pages = 0
        try:
            for m in machines:
                m.memory.begin_tx()
                in_tx.append(m)
            for m in machines:
                m.arm_faults(faults, seed=inj_seed)
            config = self.config
            trial = Scheduler(
                machines, runtime,
                quantum=config.quantum,
                max_cycles=config.max_cycles,
                sample_every=config.sample_every,
                wall_deadline=(
                    time.monotonic() + wall_timeout
                    if wall_timeout is not None else None
                ),
                start_epoch=fork_epoch,
                trace=trace,
                cml_stream=cml_stream,
                prune=prune,
            )
            result = trial.run()
            pages = sum(m.memory.tx_pages_copied for m in machines)
            self.trials += 1
            return result, pages
        finally:
            try:
                for m in in_tx:
                    m.memory.rollback_tx()
                for m, st in zip(machines, saved):
                    self._restore_light(m, st)
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
            "tier2": self.use_tier2,
            "trials": self.trials,
            "cold_starts": self.cold_starts,
            "rewinds": self.rewinds,
        }

    # ------------------------------------------------------------------
    # Light (non-memory) machine state, saved by value per trial.
    # Memory travels through the COW transaction instead; frames keep
    # direct compiled-function references, so capture/restore never
    # touches the program's name tables.
    # ------------------------------------------------------------------
    @staticmethod
    def _capture_light(m: Machine) -> tuple:
        return (
            m.status,
            m.cycles,
            m.iteration_count,
            list(m.outputs),
            m.rng.state,
            m.inj_counter,
            m.coll_seq,
            dict(m.pending) if m.pending is not None else None,
            m.ret_val,
            m.ret_val_p,
            [
                (fr.cfunc, list(fr.regs), fr.block, fr.ip,
                 fr.saved_sp, fr.ret_dest, fr.ret_dest_p)
                for fr in m.call_stack
            ],
            m.fpm.snapshot_state() if m.fpm is not None else None,
        )

    @staticmethod
    def _restore_light(m: Machine, st: tuple) -> None:
        (status, cycles, iterations, outputs, rng_state, inj_counter,
         coll_seq, pending, ret_val, ret_val_p, frames, fpm_state) = st
        m.status = status
        m.cycles = cycles
        m.iteration_count = iterations
        m.outputs = list(outputs)
        m.rng.state = rng_state
        m.inj_counter = inj_counter
        m.coll_seq = coll_seq
        m.pending = dict(pending) if pending is not None else None
        m.ret_val = ret_val
        m.ret_val_p = ret_val_p
        stack: List[Frame] = []
        for cfunc, regs, block, ip, saved_sp, ret_dest, ret_dest_p in frames:
            fr = Frame(cfunc, saved_sp, ret_dest, ret_dest_p)
            fr.regs = list(regs)
            fr.block = block
            fr.ip = ip
            stack.append(fr)
        m.call_stack = stack
        if fpm_state is not None:
            m.fpm.restore_state(fpm_state)
        # trial-only instrumentation back to the golden (unarmed) state
        m.trap = None
        m.pending_call = None
        m.injection_events = []
        m.fused_skew = 0
        m._armed = []
        m._armed_idx = 0
        m.inj_next = 0
