"""Cooperative round-robin scheduler over per-rank VMs.

Simulates parallel execution on the paper's 32-node cluster: each epoch,
every runnable rank executes one quantum of instructions; global virtual
time is the most advanced rank's cycle count.  The scheduler is also the
sampling point for CML(t) propagation traces and the place where
job-level failure modes (crash, deadlock, hang) are decided.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence

from ..errors import TrialTimeoutError
from ..fpm.tracker import PropagationTrace
from ..obs import runtime as _obs
from ..vm.fingerprint import fingerprint_world, quick_signature
from ..vm.machine import Machine, MachineStatus
from ..vm.traps import Trap, TrapKind
from .runtime import MPIRuntime


class JobStatus(Enum):
    #: every rank ran to completion
    COMPLETED = "completed"
    #: a rank trapped (includes mpi_abort) — paper class "Crashed"
    TRAPPED = "trapped"
    #: all remaining ranks blocked with no possible progress
    DEADLOCK = "deadlock"
    #: cycle budget exceeded — paper counts hangs as "Crashed"
    HANG = "hang"


@dataclass
class JobResult:
    status: JobStatus
    trap: Optional[Trap]
    cycles: int
    #: per-rank virtual clocks (a rank's clock does not tick while blocked)
    rank_cycles: List[int]
    #: per-rank outputs emitted via emit()/emiti()
    outputs: List[list]
    #: per-rank mark_iteration() counts
    iterations: List[int]
    trace: Optional[PropagationTrace]
    #: per-rank total injectable-site executions (profiling)
    inj_counts: List[int]
    #: per-rank injection events that actually fired
    injections: List[list]
    #: per-rank ever-contaminated flags (FPM mode)
    ever_contaminated: List[bool]
    #: virtual time at which convergence pruning spliced the golden tail
    #: onto this job, or None for a fully executed run
    pruned_at_cycle: Optional[int] = None

    @property
    def crashed(self) -> bool:
        return self.status is not JobStatus.COMPLETED

    @property
    def max_iterations(self) -> int:
        return max(self.iterations) if self.iterations else 0

    @property
    def any_contaminated(self) -> bool:
        return any(self.ever_contaminated)


class Scheduler:
    """Runs a set of machines to job completion."""

    def __init__(
        self,
        machines: Sequence[Machine],
        runtime: MPIRuntime,
        *,
        quantum: int = 256,
        max_cycles: int = 50_000_000,
        sample_every: int = 1,
        wall_deadline: Optional[float] = None,
        start_epoch: int = 0,
        trace: Optional[PropagationTrace] = None,
        snapshots=None,
        cml_stream=None,
        fingerprints=None,
        prune=None,
        epoch_counters=None,
    ) -> None:
        self.machines = list(machines)
        self.runtime = runtime
        self.quantum = quantum
        self.max_cycles = max_cycles
        self.sample_every = sample_every
        #: monotonic instant after which the job is abandoned with a
        #: TrialTimeoutError — the campaign engine's in-process watchdog
        #: (virtual-time hangs are JobStatus.HANG; this catches the
        #: harness itself running away in wall-clock time)
        self.wall_deadline = wall_deadline
        self.fpm_mode = any(m.fpm is not None for m in self.machines)
        #: epoch to resume counting from (a forked trial or a rewound
        #: cursor starts mid-run, and the sample_every phase must match
        #: the golden run)
        self.start_epoch = start_epoch
        #: pre-filled golden trace prefix of such a mid-run start
        self.initial_trace = trace
        #: SnapshotStore to populate at its stride (golden profiling)
        self.snapshots = snapshots
        #: live CML observer (:class:`repro.obs.cml.CMLStream`) attached
        #: to the trace; a golden trace prefix is replayed into it so a
        #: forked trial streams exactly what a cold run would
        self.cml_stream = cml_stream
        #: FingerprintIndex to populate at its stride (golden profiling)
        self.fingerprints = fingerprints
        #: frozen golden FingerprintIndex to compare against (faulted
        #: trials); a match splices the golden tail instead of running it
        self.prune = prune
        #: mutable list to append per-rank ``inj_counter`` tuples into,
        #: one entry per completed epoch (golden profiling records the
        #: dense occurrence timeline fork-at-injection plans against)
        self.epoch_counters = epoch_counters
        #: exponential back-off over full-digest comparisons: a diverged
        #: (e.g. wrong-output) trial whose cheap signature keeps matching
        #: must not pay a live-memory hash at every stride epoch
        self._prune_failures = 0
        self._prune_skip = 0

    def run(self, stop_at_epoch: Optional[int] = None) -> Optional[JobResult]:
        """Run to job completion, or — with ``stop_at_epoch`` — pause.

        ``stop_at_epoch=e`` pauses at the top of the epoch loop once
        ``e`` epochs have completed and returns ``None``; the scheduler
        then holds exactly the state a fresh scheduler restored from an
        epoch-``e`` snapshot would start from (``start_epoch`` and the
        trace prefix are saved on ``self``), and a later :meth:`run`
        call resumes the loop.  This is the golden-cursor primitive of
        fork-at-injection execution.  If the job finishes before ``e``
        epochs, the final :class:`JobResult` is returned instead.
        """
        machines = self.machines
        quantum = self.quantum
        if self.initial_trace is not None:
            trace = self.initial_trace
        else:
            trace = PropagationTrace() if self.fpm_mode else None
        if trace is not None and self.cml_stream is not None:
            if trace.times:  # restored prefix: replay it into the stream
                self.cml_stream.backfill(trace.times, trace.cml_per_rank)
            trace.stream = self.cml_stream
        status = JobStatus.COMPLETED
        trap: Optional[Trap] = None
        epoch = self.start_epoch

        while True:
            if stop_at_epoch is not None and epoch >= stop_at_epoch:
                self.start_epoch = epoch
                self.initial_trace = trace
                return None
            ran_any = False
            for m in machines:
                if m.status is MachineStatus.READY:
                    ran_any = True
                    if m.run(quantum) is MachineStatus.TRAPPED:
                        status = JobStatus.TRAPPED
                        trap = m.trap
                        break
            if trap is not None:
                break

            epoch += 1
            if (self.wall_deadline is not None
                    and time.monotonic() > self.wall_deadline):
                raise TrialTimeoutError(
                    f"job exceeded its wall-clock watchdog at epoch {epoch}"
                )
            t = max(m.cycles for m in machines)
            if self.epoch_counters is not None:
                self.epoch_counters.append(
                    tuple(m.inj_counter for m in machines))
            if trace is not None and epoch % self.sample_every == 0:
                self._sample(trace, t)
            if self.snapshots is not None:
                self.snapshots.maybe_capture(
                    t, epoch, machines, self.runtime, trace
                )
            if self.fingerprints is not None:
                self.fingerprints.maybe_capture(
                    t, epoch, machines, self.runtime, trace
                )
            if self.prune is not None:
                spliced = self._try_prune(epoch, t, trace)
                if spliced is not None:
                    return spliced

            if all(m.status is MachineStatus.DONE for m in machines):
                break
            if not any(m.status is MachineStatus.READY for m in machines):
                blocked = [m.rank for m in machines
                           if m.status is MachineStatus.BLOCKED]
                status = JobStatus.DEADLOCK
                trap = Trap(TrapKind.DEADLOCK,
                            f"ranks {blocked} blocked with no progress possible")
                break
            if t > self.max_cycles:
                status = JobStatus.HANG
                trap = Trap(TrapKind.HANG,
                            f"virtual time {t} exceeded budget {self.max_cycles}")
                break
            if not ran_any:  # pragma: no cover - defensive
                status = JobStatus.DEADLOCK
                trap = Trap(TrapKind.DEADLOCK, "no runnable machine")
                break

        if trace is not None:
            # Final sample so the last contamination state is recorded.
            self._sample(trace, max(m.cycles for m in machines))
            trace.first_contamination = [
                m.fpm.first_contamination_cycle if m.fpm is not None else None
                for m in machines
            ]
        if self.fingerprints is not None:
            self.fingerprints.finalize(machines, self.runtime, trace)
        # message totals reach the metrics registry once per job
        self.runtime.publish_metrics()
        self._drain_tier2()

        return JobResult(
            status=status,
            trap=trap,
            cycles=max(m.cycles for m in machines),
            rank_cycles=[m.cycles for m in machines],
            outputs=[list(m.outputs) for m in machines],
            iterations=[m.iteration_count for m in machines],
            trace=trace,
            inj_counts=[m.inj_counter for m in machines],
            injections=[list(m.injection_events) for m in machines],
            ever_contaminated=[m.ever_contaminated for m in machines],
        )

    def _drain_tier2(self) -> None:
        """Publish and reset the machines' region-entry counters.

        Machines outlive jobs (the fork cursor reuses them across
        trials), so the counters are drained to the metrics registry
        once per job result and zeroed — a paused golden advance keeps
        accumulating and is drained by the run that finishes on those
        machines."""
        enters = deopts = cycles = compiled = 0
        for m in self.machines:
            enters += m.t2_enters
            deopts += m.t2_deopts
            cycles += m.t2_cycles_acc
            compiled += m.t2_compiled
            m.t2_enters = m.t2_deopts = m.t2_cycles_acc = 0
            m.t2_compiled = 0
        if enters or deopts or cycles:
            _obs.inc("repro_tier2_enters_total", enters)
            _obs.inc("repro_tier2_deopts_total", deopts)
            _obs.inc("repro_tier2_cycles_total", cycles)
        if compiled:
            _obs.inc("repro_tier2_variants_compiled_total", compiled)

    # ------------------------------------------------------------------
    # Convergence pruning
    # ------------------------------------------------------------------
    def _try_prune(self, epoch: int, t: int,
                   trace: Optional[PropagationTrace]) -> Optional[JobResult]:
        """Splice the golden tail if the world re-converged at ``epoch``.

        Preconditions are checked cheapest-first; every one of them is
        *required* for soundness, not just speed:

        * a golden digest must exist at this exact epoch (golden
          profiling captured here, so per-rank clocks are comparable);
        * every armed fault must have fired (``inj_next == 0``) —
          otherwise the excluded fault plan is not inert;
        * in FPM/taint modes every shadow table must be empty
          (``cml == 0``), making the tables behaviourally identical to
          the golden run's empty tables;
        * the trial must have taken exactly as many trace samples as
          the golden run had at this epoch, or the spliced tail would
          not line up (defensive — sample cadence is epoch-determined).
        """
        fp = self.prune
        digest = fp.digests.get(epoch)
        if digest is None:
            return None
        machines = self.machines
        if any(m.inj_next for m in machines):
            return None
        if self.fpm_mode and any(m.cml for m in machines):
            return None
        if trace is not None and len(trace.times) != fp.sample_counts[epoch]:
            return None
        if self._prune_skip > 0:
            self._prune_skip -= 1
            return None
        if quick_signature(machines) != fp.quick[epoch]:
            return None
        if fingerprint_world(machines, self.runtime) != digest:
            # Quick signature matched but live state differs: likely a
            # silently-corrupted trial that will never converge.  Back
            # off exponentially; pruning at *any* later matched epoch
            # still yields the identical spliced result.
            self._prune_failures += 1
            self._prune_skip = min(2 ** self._prune_failures, 64)
            return None
        return self._spliced(fp, epoch, t, trace)

    def _spliced(self, fp, epoch: int, t: int,
                 trace: Optional[PropagationTrace]) -> JobResult:
        """Build the job result a full run of the golden tail would give."""
        machines = self.machines
        if trace is not None and fp.trace_times is not None:
            # Backfill the CML stream / trace with the zero tail the
            # converged trial would have sampled, at the golden sample
            # times (clocks match, so times match).
            count = fp.sample_counts[epoch]
            n = len(machines)
            frozen = sum(1 for m in machines if m.ever_contaminated)
            for gt, live in zip(fp.trace_times[count:],
                                fp.trace_live[count:]):
                trace.sample(gt, [0] * n, live, frozen)
            trace.first_contamination = [
                m.fpm.first_contamination_cycle if m.fpm is not None else None
                for m in machines
            ]
        # Message totals: the trial's own prefix plus the golden tail
        # delta — the tail is the same deterministic execution, so this
        # equals what the trial would have accumulated itself.
        g_m, g_w, g_cm, g_cw = fp.stats_at[epoch]
        f_m, f_w, f_cm, f_cw = fp.final_stats
        rt = self.runtime
        rt.messages_sent += f_m - g_m
        rt.words_sent += f_w - g_w
        rt.contaminated_messages += f_cm - g_cm
        rt.contaminated_words_sent += f_cw - g_cw
        rt.publish_metrics()
        self._drain_tier2()
        _obs.inc("repro_trials_pruned_total")
        _obs.inc("repro_cycles_pruned_total", fp.final_cycles - t)
        return JobResult(
            status=JobStatus.COMPLETED,
            trap=None,
            cycles=fp.final_cycles,
            rank_cycles=list(fp.final_rank_cycles),
            outputs=[list(o) for o in fp.final_outputs],
            iterations=list(fp.final_iterations),
            trace=trace,
            inj_counts=list(fp.final_inj_counts),
            injections=[list(m.injection_events) for m in machines],
            ever_contaminated=[m.ever_contaminated for m in machines],
            pruned_at_cycle=t,
        )

    def _sample(self, trace: PropagationTrace, t: int) -> None:
        cml_ranks = [m.cml for m in self.machines]
        live = sum(m.memory.live_words for m in self.machines)
        n_cont = sum(1 for m in self.machines if m.ever_contaminated)
        trace.sample(t, cml_ranks, live, n_cont)
