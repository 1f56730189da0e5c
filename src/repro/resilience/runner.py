"""Checkpoint/rollback-capable job runner.

Steps a simulated MPI job one scheduler epoch at a time — the
:meth:`Scheduler.run(stop_at_epoch=…) <repro.mpi.scheduler.Scheduler.run>`
pause the golden cursor uses, so crash, deadlock, hang and watchdog
rules are the scheduler's own — and between epochs:

* takes a **coordinated checkpoint** every ``interval`` virtual cycles,
  at the first quiescent point after the boundary (no rank mid-MPI-op).
  A checkpoint is a :class:`~repro.vm.snapshot.WorldSnapshot`; the
  job's start is checkpoint 0;
* runs an idealised interval **detector**: at each checkpoint boundary it
  inspects the FPM shadow state (the detector a deployed system would
  approximate with checksums or invariants — paper Sec. 6 "Fault
  Detection"); the detection window is (previous boundary, this boundary);
* consults a :class:`~repro.resilience.policy.RollbackPolicy`; on
  roll-back it restores the last *clean* checkpoint
  (:func:`~repro.vm.snapshot.restore_world`, then a fresh scheduler at
  the snapshot's epoch — the cursor's rewind).  The transient fault
  does not recur after the rewind (it was transient), so a rolled-back
  run completes cleanly at the cost of the re-executed cycles.

The result records enough to score policies: outcome, total cycles
(including re-execution), number of roll-backs, and wasted work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.config import RunConfig
from ..core.runner import build_world, make_scheduler
from ..mpi.scheduler import JobStatus
from ..vm.machine import FaultSpec
from ..vm.snapshot import capture_world, restore_world
from .policy import Detection, RollbackPolicy


@dataclass
class ResilientResult:
    status: JobStatus
    outputs: List[list]
    iterations: int
    #: total executed cycles, including re-executed (wasted) work
    total_cycles: int
    #: cycles re-executed due to roll-backs
    wasted_cycles: int
    rollbacks: int
    detections: int
    checkpoints: int
    #: contamination present when the job finished
    final_contaminated: bool

    @property
    def crashed(self) -> bool:
        return self.status is not JobStatus.COMPLETED


class ResilientRunner:
    """Scheduler with coordinated checkpointing and roll-back."""

    def __init__(
        self,
        program,
        config: RunConfig,
        policy: RollbackPolicy,
        *,
        interval: int = 20_000,
        max_rollbacks: int = 4,
        expected_end: Optional[int] = None,
    ) -> None:
        if not program.fpm_mode:
            raise ValueError("resilient runs need an FPM (or taint) build "
                             "for the detector")
        self.program = program
        self.config = config
        self.policy = policy
        self.interval = interval
        self.max_rollbacks = max_rollbacks
        #: projected completion time (e.g. the golden run's cycles); lets
        #: the policy predict the CML at the end of the application
        self.expected_end = expected_end

    # ------------------------------------------------------------------
    def run(self, faults: Sequence[FaultSpec] = (),
            inj_seed: Optional[int] = None,
            max_cycles: Optional[int] = None,
            wall_timeout: Optional[float] = None) -> ResilientResult:
        """Run the job under the policy.  ``max_cycles`` and
        ``wall_timeout`` mean what they mean to
        :func:`~repro.core.runner.run_job`."""
        config = self.config
        machines, runtime = build_world(self.program, config, faults,
                                        inj_seed=inj_seed)
        sched = make_scheduler(machines, runtime, config,
                               max_cycles=max_cycles,
                               wall_timeout=wall_timeout)
        # the job's start is a checkpoint: a fault detected before the
        # first periodic one still has somewhere clean to go back to
        last_ck = capture_world(machines, runtime, 0, None)
        next_boundary = self.interval
        last_clean_time = 0
        rollbacks = detections = checkpoints = 0
        wasted = 0
        waived = False  # a detection was consciously run through

        while (result := sched.run(stop_at_epoch=sched.start_epoch + 1)) \
                is None:
            t = max(m.cycles for m in machines)
            if t < next_boundary or waived:
                continue
            if any(m.pending is not None for m in machines):
                continue  # postpone to the next quiescent epoch
            if not any(m.ever_contaminated for m in machines):
                # clean boundary: take a coordinated checkpoint
                last_ck = capture_world(machines, runtime, sched.start_epoch,
                                        sched.initial_trace)
                checkpoints += 1
                last_clean_time = t
                next_boundary = t + self.interval
                continue
            detections += 1
            detection = Detection(t_clean=last_clean_time, t_detect=t,
                                  t_end=self.expected_end)
            if (rollbacks < self.max_rollbacks
                    and self.policy.should_rollback(detection)):
                start_epoch, trace = restore_world(last_ck, machines, runtime)
                sched = make_scheduler(
                    machines, runtime, config, max_cycles=sched.max_cycles,
                    wall_deadline=sched.wall_deadline,
                    start_epoch=start_epoch, trace=trace)
                wasted += t - last_ck.cycle
                rollbacks += 1
                for m in machines:
                    # the transient fault does not recur on replay
                    m.arm_faults(())
                next_boundary = last_ck.cycle + self.interval
            else:
                # The policy decided the predicted end-of-run CML is
                # tolerable: commit to running through (the paper's
                # "keep the application running" branch).
                waived = True

        return ResilientResult(
            status=result.status,
            outputs=result.outputs,
            iterations=result.max_iterations,
            total_cycles=result.cycles + wasted,
            wasted_cycles=wasted,
            rollbacks=rollbacks,
            detections=detections,
            checkpoints=checkpoints,
            final_contaminated=result.any_contaminated,
        )
