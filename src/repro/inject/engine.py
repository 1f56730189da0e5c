"""The campaign controller.

Runs a list of pre-drawn trial jobs to completion on the supervised
fleet (:mod:`repro.inject.executors`) while treating worker death,
hung trials, and driver interruption as expected events of a large
fault-injection campaign (the operating regime of ZOFI- and
FlipTracker-style studies, where thousands of trials *intentionally*
crash and hang applications):

* **per-trial watchdog** — every trial gets a wall-clock budget; an
  expired trial's worker is killed and the trial retried;
* **bounded retry + quarantine** — a trial that repeatedly kills its
  worker is recorded as a ``HARNESS_FAILURE`` trial with a structured
  :class:`~repro.errors.FailureKind`, never silently dropped;
* **worker respawn** — a crashed worker (segfault, OOM kill) is
  replaced with a fresh process and only the trial it was executing is
  charged and re-executed; the trials queued behind it go back to the
  fleet without a failure mark, and every completed trial survives;
* **incremental checkpointing** — completed trials stream into a
  :class:`~repro.inject.journal.CampaignJournal`;
  :func:`resume_campaign` finishes an interrupted campaign and yields a
  result bit-identical to an uninterrupted run (fault plans are drawn
  up front from the campaign seed, so the job list re-derives exactly);
* **graceful degradation** — trial retries back off with deterministic
  seeded jitter; a respawn budget turns repeated worker deaths into a
  shrinking fleet instead of an infinite respawn storm, and a fleet
  with no slot left finishes its queues in the driver rather than
  aborting; a persistently failing journal is disabled (with the
  event recorded) instead of taking the campaign down.

The controller owns every piece of campaign-level *policy* — the retry
taxonomy, the journal, the observer, health accounting — and consumes
typed events (:class:`~repro.inject.executors.TrialDone` /
:class:`~repro.inject.executors.SupervisionEvent`) from the one
:class:`~repro.inject.executors.FleetExecutor`, which owns the queues
and *where* each trial runs: the driver, a pipe worker or a socket
worker.  Because all randomness is drawn up front from the campaign
seed, every one of them produces bit-identical science.
"""

from __future__ import annotations

import time
import warnings
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import (
    CampaignError,
    FailureKind,
    JournalError,
    RetryPolicy,
)
from ..obs.observer import CampaignObserver, ObserveConfig
from . import artifacts as _artifacts
from . import campaign as _campaign
from . import chaos
from .campaign import (
    CampaignResult,
    TrialResult,
    _build_jobs,
    _job_template,
    _prepared,
    default_timeout,
    default_workers,
    harness_failure_trial,
)
from .executors import (
    FleetExecutor,
    SupervisionEvent,
    TrialDone,
    resolve_backend,
)
from .health import CampaignHealth
from .journal import CampaignJournal, JournalRecovery, read_journal_ex

#: supervisor poll interval while trials are in flight, seconds
_TICK = 0.05


class CampaignEngine:
    """Runs a list of trial jobs to completion under supervision."""

    def __init__(
        self,
        *,
        workers: int = 1,
        executor: str = "serial",
        timeout: Optional[float] = None,
        kill_grace: Optional[float] = None,
        max_retries: int = 2,
        journal: Optional[CampaignJournal] = None,
        task_fn: Optional[Callable] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        batches: Optional[List[List[int]]] = None,
        observer: Optional[CampaignObserver] = None,
        degrade_after: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if workers < 1:
            raise CampaignError(f"workers must be >= 1, got {workers}")
        if max_retries < 0:
            raise CampaignError(f"max_retries must be >= 0, got {max_retries}")
        #: the fleet's name (``serial``/``pool``/``remote``) and size,
        #: as :func:`~repro.inject.executors.resolve_backend` answers
        self.executor = executor
        self.workers = workers
        self.timeout = timeout
        #: slack on top of ``timeout`` before a hard kill (None: the
        #: fleet's default)
        self.kill_grace = kill_grace
        self.max_retries = max_retries
        self.journal = journal
        # resolved here (not at definition) so monkeypatched trial
        # drivers propagate into fork children
        self.task_fn = task_fn if task_fn is not None else _campaign._run_trial
        self.progress = progress
        #: fork-epoch buckets (lists of trial indices); each bucket runs
        #: consecutively on one worker so its golden cursor only moves
        #: forward.  None = plain index-order dispatch.
        self.batches = batches
        #: campaign-wide observer (trace writer + merged metrics); None
        #: when the campaign runs unobserved
        self.observer = observer
        #: worker respawns tolerated before the degradation ladder
        #: retires one slot of the fleet (the last one leaves the driver)
        self.degrade_after = (degrade_after if degrade_after is not None
                              else max(4, 2 * workers))
        if self.degrade_after < 1:
            raise CampaignError(
                f"degrade_after must be >= 1, got {self.degrade_after}")
        #: deterministic seeded backoff for trial retries (and the
        #: budget shared by the journal/artifact IO retry paths)
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy.from_settings())

    # ------------------------------------------------------------------
    def run(
        self,
        jobs: List[tuple],
        *,
        faults_of: Optional[Callable[[int], tuple]] = None,
        completed: Optional[Dict[int, TrialResult]] = None,
    ) -> Tuple[List[TrialResult], CampaignHealth]:
        """Execute every job; return (results in job order, health).

        ``completed`` pre-fills trial indices restored from a journal
        (resume); only the missing indices are executed.
        """
        n = len(jobs)
        self._results: List[Optional[TrialResult]] = [None] * n
        self._retries: Dict[int, int] = {}
        self._faults_of = faults_of or (lambda i: ())
        self._fleet = FleetExecutor(self.executor, self.workers,
                                    degrade_after=self.degrade_after)
        size = max(self._fleet.workers, 1)  # the driver counts as one
        self._health = CampaignHealth(
            effective_workers=size, requested_workers=self.workers,
            executor=self.executor, shards=size,
        )
        self._done = 0
        if completed:
            for index, trial in completed.items():
                if not 0 <= index < n:
                    raise JournalError(
                        f"journal trial index {index} outside campaign "
                        f"of {n} trials"
                    )
                self._results[index] = trial
                self._done += 1
                self._aggregate_timings(trial)
                self._aggregate_pruning(trial)
                self._aggregate_forking(trial)
                # restored trials still count toward outcome totals so a
                # resumed campaign's metrics describe the whole campaign
                if self.observer is not None:
                    self.observer.metrics.inc(
                        "repro_trials_total", outcome=trial.outcome)
            self._health.resumed_trials = len(completed)
        pending = [i for i in range(n) if self._results[i] is None]
        flat, buckets = pending, []
        if self.batches is not None:
            # the buckets filtered to pending trials, in bucket order;
            # buckets exhausted by a resume drop out
            pend = set(pending)
            buckets = [tuple(i for i in batch if i in pend)
                       for batch in self.batches]
            covered = {i for b in buckets for i in b}
            # defensive: batches must cover every pending trial
            flat = [i for i in pending if i not in covered]

        start = time.monotonic()
        #: trial index -> worker slot that last ran it, for journal
        #: ``shard`` tags and per-slot metrics
        self._shard_of: Dict[int, int] = {}
        if pending:  # a complete journal starts no process
            try:
                self._fleet.start(jobs, task_fn=self.task_fn,
                                  timeout=self.timeout,
                                  kill_grace=self.kill_grace)
                self._fleet.submit(flat, buckets)
                while self._done < n and self._fleet.has_pending():
                    for ev in self._fleet.poll(_TICK):
                        self._handle_event(ev)
            finally:
                self._fleet.close()
        if self.journal is not None:
            self._health.io_retries += self.journal.io_retries
        self._health.wall_time_s = time.monotonic() - start

        missing = [i for i, r in enumerate(self._results) if r is None]
        if missing:  # pragma: no cover - defensive
            raise CampaignError(f"engine lost trials {missing[:8]}")
        return list(self._results), self._health

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def _handle_event(self, ev: object) -> None:
        if isinstance(ev, TrialDone):
            self._shard_of[ev.index] = ev.shard_id
            if ev.ok:
                self._success(ev.index, ev.payload)
            else:
                kind, detail = ev.payload
                self._failure(ev.index, FailureKind(kind), detail)
        elif isinstance(ev, SupervisionEvent):
            self._supervise(ev)

    def _supervise(self, ev: SupervisionEvent) -> None:
        if ev.kind == "worker_respawn":
            self._health.worker_respawns += 1
            if self.observer is not None:
                self.observer.metrics.inc("repro_worker_respawns_total")
                self.observer.event("worker_respawn")
        elif ev.kind == "watchdog_kill":
            if self.observer is not None:
                self.observer.metrics.inc("repro_watchdog_kills_total")
                self.observer.event("watchdog_kill",
                                    trial=ev.attrs.get("trial"),
                                    timeout_s=ev.attrs.get("timeout_s"))
        elif ev.kind == "pool_shrink":
            self._health.pool_shrinks += 1
            self._health.degradation_events.append({
                "type": "pool_shrink",
                "respawns": self._health.worker_respawns,
            })
            self._journal_event("degradation", type="pool_shrink",
                                respawns=self._health.worker_respawns)
            budget = ev.attrs.get("degrade_after", self.degrade_after)
            warnings.warn(
                f"campaign worker pool shrank by one slot after exhausting "
                f"its respawn budget ({budget} deaths)",
                stacklevel=2,
            )
            if self.observer is not None:
                self.observer.metrics.inc("repro_pool_degradations_total")
                self.observer.event(
                    "pool_shrink", respawns=self._health.worker_respawns)
        elif ev.kind == "serial_fallback":
            self._health.serial_fallback = True
            self._health.degradation_events.append({"type": "serial_fallback"})
            self._journal_event("degradation", type="serial_fallback")
            warnings.warn(
                "campaign worker pool fully collapsed; finishing the "
                "remaining trials serially in the driver",
                stacklevel=2,
            )
            if self.observer is not None:
                self.observer.metrics.inc("repro_serial_fallbacks_total")
                self.observer.event("serial_fallback")

    # ------------------------------------------------------------------
    # Shared bookkeeping
    # ------------------------------------------------------------------
    def _success(self, index: int, trial: TrialResult) -> None:
        if self._results[index] is not None:
            return  # duplicate delivery after a watchdog re-queue
        trial.retries = self._retries.get(index, 0)
        self._record(index, trial)

    def _failure(self, index: int, kind: FailureKind, detail: str) -> None:
        if self._results[index] is not None:
            return
        failures = self._retries.get(index, 0) + 1
        self._retries[index] = failures
        if kind is FailureKind.TIMEOUT:
            self._health.timeouts += 1
        elif kind is FailureKind.WORKER_CRASH:
            self._health.worker_crashes += 1
        else:
            self._health.trial_exceptions += 1
        if failures > self.max_retries:
            trial = harness_failure_trial(
                self._faults_of(index), kind, detail, retries=failures - 1,
            )
            self._health.quarantined.append(index)
            if self.observer is not None:
                self.observer.metrics.inc("repro_trials_quarantined_total")
                self.observer.event("quarantine", trial=index,
                                    kind=kind.value, detail=detail)
            self._record(index, trial)
        else:
            self._health.retries += 1
            if self.observer is not None:
                self.observer.metrics.inc("repro_trial_retries_total")
                self.observer.event("retry", trial=index, kind=kind.value,
                                    attempt=failures)
            # seeded exponential backoff with jitter before re-dispatch
            delay = self.retry_policy.delay(failures - 1, token=f"trial:{index}")
            self._fleet.resubmit(index, time.monotonic() + delay)

    def _record(self, index: int, trial: TrialResult) -> None:
        self._results[index] = trial
        self._done += 1
        self._aggregate_timings(trial)
        self._aggregate_pruning(trial)
        self._aggregate_forking(trial)
        journal_s = None
        if self.journal is not None:
            j0 = time.perf_counter()
            try:
                self.journal.append_trial(
                    index, trial, shard=self._shard_of.get(index))
            except OSError as exc:
                self._disable_journal(exc)
            journal_s = time.perf_counter() - j0
        if self.observer is not None:
            if self._health.shards > 1:
                self.observer.metrics.inc(
                    "repro_shard_trials_total",
                    shard=str(self._shard_of.get(index, 0)))
            self.observer.record_trial(index, trial, journal_s)
        if self.progress is not None:
            self.progress(self._done, len(self._results))

    def _journal_event(self, kind: str, **attrs) -> None:
        if self.journal is None:
            return
        try:
            self.journal.append_event(kind, **attrs)
        except OSError as exc:
            self._disable_journal(exc)

    def _disable_journal(self, exc: BaseException) -> None:
        """Degradation-ladder rung: a persistently failing journal is
        disabled (crash insurance lost, campaign preserved) rather than
        letting its IO errors take the whole campaign down."""
        self._health.io_retries += self.journal.io_retries
        self._health.degradation_events.append(
            {"type": "journal_disabled", "error": str(exc)})
        warnings.warn(
            f"campaign journal failed persistently ({exc}); disabling "
            f"journaling and continuing without crash insurance",
            stacklevel=2,
        )
        if self.observer is not None:
            self.observer.metrics.inc("repro_journal_disabled_total")
            self.observer.event("journal_disabled", error=str(exc))
        try:
            self.journal.close()
        except OSError:  # pragma: no cover - defensive
            pass
        self.journal = None

    def _aggregate_timings(self, trial: TrialResult) -> None:
        if not trial.stage_timings:
            return
        totals = self._health.stage_timings
        for stage, seconds in trial.stage_timings.items():
            totals[stage] = totals.get(stage, 0.0) + seconds

    def _aggregate_pruning(self, trial: TrialResult) -> None:
        if trial.pruned_at_cycle is None:
            return
        self._health.pruned_trials += 1
        self._health.pruned_cycles += max(
            0, trial.cycles - trial.pruned_at_cycle
        )

    def _aggregate_forking(self, trial: TrialResult) -> None:
        if trial.forked_at_cycle is None:
            return
        self._health.forked_trials += 1
        self._health.pages_copied += trial.pages_copied or 0


# ----------------------------------------------------------------------
# The campaign driver (behind run_campaign and resume_campaign)
# ----------------------------------------------------------------------

def _drive_campaign(
    header: dict,
    *,
    journal=None,
    resumed: Optional[Tuple[Dict[int, TrialResult], JournalRecovery]] = None,
    workers: Optional[int] = None,
    max_retries: int = 2,
    progress: Optional[Callable[[int, int], None]] = None,
    observe=None,
    executor: Optional[str] = None,
    shards: Optional[int] = None,
) -> CampaignResult:
    """Execute the campaign ``header`` defines, minus ``resumed`` trials.

    ``header`` is the campaign definition in the form the journal's
    first line records it: :func:`repro.inject.campaign.run_campaign`
    resolves its arguments into one, :func:`resume_campaign` reads one
    back.  ``journal`` is the checkpoint path (None: unjournaled).
    ``resumed`` is ``(completed trials, recovery report)`` as
    :func:`~repro.inject.journal.read_journal_ex` returns them when
    ``journal`` is an interrupted campaign's to finish, None to start a
    fresh one — the header then gains the golden summary and the
    backend that ran it before it is written.
    """
    chaos.activate()  # before any worker forks: one once-only fault ledger
    quarantined_before = len(_artifacts.QUARANTINE_LOG)
    obs_config = ObserveConfig.resolve(observe)
    proto = _job_template(header, obs_config)
    app, mode = proto.app, proto.mode
    n_trials = int(header["n_trials"])
    done, recovery = resumed if resumed is not None else (None, None)

    # the backend first, so a bad executor/shards pair fails before the
    # golden run is paid for
    requested_workers = default_workers(workers)
    remaining = n_trials - sum(1 for i in done or () if 0 <= i < n_trials)
    small = requested_workers > 1 and remaining < 4
    exec_name, fleet = resolve_backend(executor, shards,
                                       1 if small else requested_workers)
    if small:
        # said here, once, with what actually runs: an explicit
        # ``shards`` keeps its fleet, a named wire keeps its backend
        warnings.warn(
            f"campaign of {remaining} trial(s) to run is too small for "
            f"{requested_workers} workers; running "
            + ("serially" if exec_name == "serial"
               else f"on a {exec_name} fleet of {fleet}"),
            stacklevel=3,
        )

    pa = _prepared(app, proto.params, mode, proto.snapshot_stride,
                   proto.artifact_dir)
    golden = pa.golden
    if resumed is not None:
        recorded = header["golden"]
        if (list(golden.inj_counts) != list(recorded.get("inj_counts", []))
                or golden.cycles != recorded.get("cycles")):
            raise JournalError(
                f"journal {journal} was recorded against a different "
                f"golden profile of {app!r} ({mode}); resume would not be "
                f"bit-identical"
            )
    jobs = _build_jobs(header, golden, proto)
    # Fork buckets are a pure function of the jobs and the fleet size,
    # so a resumed schedule is the recording run's; --no-fork dispatches
    # in index order.
    batches = _campaign.plan_fork_batches(jobs, fleet) \
        if header["fork"] else None

    journal_writer = None
    if resumed is not None:
        journal_writer = CampaignJournal.append_to(journal)
    elif journal is not None:
        journal_writer = CampaignJournal.create(journal, dict(
            header,
            executor=exec_name,
            shards=fleet,
            golden={
                "iterations": golden.iterations,
                "cycles": golden.cycles,
                "rank_cycles": list(golden.rank_cycles),
                "inj_counts": list(golden.inj_counts),
            },
        ))

    observer = None
    if obs_config is not None:
        meta = {"app": app, "mode": mode, "seed": int(header["seed"]),
                "n_trials": n_trials}
        if resumed is not None:
            meta["resumed"] = True
        observer = CampaignObserver(obs_config, meta=meta)

    engine = CampaignEngine(
        workers=fleet,
        executor=exec_name,
        timeout=proto.wall_timeout,
        max_retries=max_retries,
        journal=journal_writer,
        progress=progress,
        batches=batches,
        observer=observer,
    )
    try:
        results, health = engine.run(
            jobs, faults_of=lambda i: jobs[i].faults, completed=done)
    except BaseException:
        if observer is not None:
            observer.finalize()
        raise
    finally:
        if journal_writer is not None:
            journal_writer.close()
    health.requested_workers = requested_workers
    if resumed is not None:
        health.journal_recovered_records = recovery.dropped
    health.artifacts_quarantined = (
        len(_artifacts.QUARANTINE_LOG) - quarantined_before)
    metrics = observer.finalize(health) if observer is not None else None

    return CampaignResult(
        app_name=app,
        mode=mode,
        n_faults=int(header["n_faults"]),
        seed=int(header["seed"]),
        golden_iterations=golden.iterations,
        golden_cycles=golden.cycles,
        golden_rank_cycles=tuple(golden.rank_cycles),
        inj_counts=tuple(golden.inj_counts),
        trials=results,
        effective_workers=health.effective_workers,
        health=health,
        metrics=metrics,
    )


def resume_campaign(
    journal_path,
    *,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    max_retries: int = 2,
    progress: Optional[Callable[[int, int], None]] = None,
    artifact_dir=None,
    observe=None,
    executor: Optional[str] = None,
    shards: Optional[int] = None,
) -> CampaignResult:
    """Finish an interrupted journaled campaign.

    Re-derives the full job list from the journal header (trial seeds
    are drawn up front from the campaign seed), restores the completed
    trials, executes only the missing ones (appending them to the same
    journal), and returns a :class:`CampaignResult` bit-identical —
    same trials, same outcome fractions — to the uninterrupted run.

    ``timeout`` and ``artifact_dir`` override what the campaign
    recorded (None: reuse it).  ``observe`` follows
    :func:`repro.inject.campaign.run_campaign` — observation covers the
    trials executed by the resume (restored trials contribute outcome
    counters only), and never changes any trial outcome.  ``executor``
    and ``shards`` pick where the campaign is finished, by
    ``run_campaign``'s rule (fleet size = ``shards``, else ``workers``;
    ``serial`` is one process) — any of them resumes any journal,
    because the remaining jobs re-derive identically regardless of who
    ran the completed ones.  A journal with no trial missing starts no
    process.
    """
    header, done, recovery = read_journal_ex(journal_path)
    missing = [key for key in _campaign.DEFINITION_KEYS + ("golden",)
               if key not in header]
    if missing:
        raise JournalError(
            f"journal {journal_path} cannot be resumed: its header lacks "
            f"{', '.join(missing)}")
    header["timeout"] = default_timeout(
        timeout if timeout is not None else header["timeout"])
    if artifact_dir is not None:
        header["artifact_dir"] = str(artifact_dir)
    return _drive_campaign(
        header,
        journal=journal_path,
        resumed=(done, recovery),
        workers=workers,
        max_retries=max_retries,
        progress=progress,
        observe=observe,
        executor=executor,
        shards=shards,
    )
