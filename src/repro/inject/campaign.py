"""Fault-injection campaigns: many trials, optional process parallelism.

A campaign reproduces the paper's experimental loop (Sec. 4): run the
application thousands of times, inject one (or more) random single-bit
register faults per run, classify every outcome, and — in FPM mode —
record the CML(t) propagation trace of every run.

Workers are OS processes supervised by the campaign execution engine
(:mod:`repro.inject.engine`); each worker compiles the app once and
reuses it for all its trials, so the per-trial cost is one simulated
job.  Crashed workers are respawned, hung trials are killed by a
wall-clock watchdog, and repeatedly failing trials are quarantined as
``HARNESS_FAILURE`` records instead of taking the campaign down.
"""

from __future__ import annotations

import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import (
    Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ..analysis.classify import Outcome, classify, outcome_fractions, outputs_match
from ..apps.registry import APP_BUILDERS, get_app
from ..core.runner import run_job
from ..core.settings import current_settings
from ..errors import (
    CampaignError, FailureKind, SnapshotError, TrialTimeoutError,
)
from ..mpi import JobResult
from ..obs import runtime as obs_rt
from ..obs.cml import CMLStream
from ..obs.observer import ObserveConfig
from ..vm.machine import FaultSpec
from ..vm.snapshot import default_snapshot_stride
from .health import CampaignHealth
from .plan import draw_plan
from .profiler import GoldenProfile, PreparedApp


@dataclass
class TrialResult:
    """Everything the analysis layer needs about one injected run."""

    outcome: str
    trap_kind: Optional[str]
    faults: Tuple[FaultSpec, ...]
    #: cycle at which each armed fault actually fired (empty if none did)
    injected_cycles: Tuple[int, ...]
    #: occurrence indices that actually fired
    injected_occurrences: Tuple[int, ...]
    iterations: int
    cycles: int
    #: static site ids of the instructions hit (CompiledProgram.site_table)
    injected_sites: Tuple[int, ...] = ()
    final_cml: int = 0
    peak_cml: int = 0
    peak_cml_fraction: float = 0.0
    ever_contaminated: bool = False
    ranks_contaminated: int = 0
    #: compact CML(t) series (FPM mode): times, total CML, live words,
    #: contaminated-rank count — all aligned numpy arrays
    times: Optional[np.ndarray] = None
    cml: Optional[np.ndarray] = None
    live: Optional[np.ndarray] = None
    ranks_series: Optional[np.ndarray] = None
    #: per-rank first-contamination cycle (None = never), FPM mode
    first_contamination: Tuple[Optional[int], ...] = ()
    #: harness-failure taxonomy (outcome == "HF" only): why the harness
    #: lost this trial, and a human-readable detail string
    failure_kind: Optional[str] = None
    failure_detail: Optional[str] = None
    #: times the engine re-executed this trial after a harness failure
    retries: int = 0
    #: virtual time at which convergence pruning spliced the golden tail
    #: (None = the trial executed to completion).  Excluded from the
    #: bit-identity predicate: it records *how* the result was obtained,
    #: not what it is — the spliced fields themselves are identical to a
    #: full run's by the pruning contract.
    pruned_at_cycle: Optional[int] = None
    #: virtual time at which this trial was forked COW off the shared
    #: golden world (None = the trial ran cold from cycle 0).
    #: Like ``pruned_at_cycle``, provenance rather than content: fork
    #: trials are bit-identical to cold trials by the COW
    #: contract, so this is excluded from the bit-identity predicate.
    forked_at_cycle: Optional[int] = None
    #: pages the COW transaction actually copied for this trial (None =
    #: not forked); excluded from the bit-identity predicate with
    #: ``forked_at_cycle``
    pages_copied: Optional[int] = None
    #: wall seconds per execution stage (artifact_load / fork_advance /
    #: execute / tier2_codegen) — observability only; excluded from the
    #: bit-identity predicate because wall clocks are nondeterministic
    stage_timings: Optional[Dict[str, float]] = None
    #: live decimated CML(t) stream from the observability layer, an
    #: ``(n, 2)`` int64 array of (cycle, total CML).  None unless the
    #: trial ran observed in FPM/taint mode.  Excluded from the
    #: bit-identity predicate because its *presence* depends on the
    #: observe configuration, not on execution; the stream contents are
    #: deterministic and asserted identical across execution modes by
    #: the observability equivalence tests.
    cml_stream: Optional[np.ndarray] = None
    #: in-flight observability payload (trial events + metrics delta)
    #: riding back to the campaign driver; consumed and cleared by the
    #: campaign observer, never exported or compared
    obs: Optional[dict] = None

    @property
    def outcome_enum(self) -> Outcome:
        return Outcome(self.outcome)

    @property
    def is_harness_failure(self) -> bool:
        return self.outcome == Outcome.HARNESS_FAILURE.value


def harness_failure_trial(
    faults: Sequence[FaultSpec],
    kind: FailureKind,
    detail: str,
    retries: int = 0,
) -> TrialResult:
    """Terminal record for a trial the harness could not complete."""
    return TrialResult(
        outcome=Outcome.HARNESS_FAILURE.value,
        trap_kind=None,
        faults=tuple(faults),
        injected_cycles=(),
        injected_occurrences=(),
        iterations=0,
        cycles=0,
        failure_kind=kind.value,
        failure_detail=detail,
        retries=retries,
    )


@dataclass
class CampaignResult:
    """All trials of one campaign plus the golden reference summary."""

    app_name: str
    mode: str
    n_faults: int
    seed: int
    golden_iterations: int
    golden_cycles: int
    golden_rank_cycles: Tuple[int, ...]
    inj_counts: Tuple[int, ...]
    trials: List[TrialResult] = field(default_factory=list)
    #: workers the engine actually executed on (1 = serial)
    effective_workers: int = 1
    #: supervision summary (retries, quarantines, respawns, wall time)
    health: Optional[CampaignHealth] = None
    #: campaign-wide observability metrics (the merged registry as a
    #: dict, see :meth:`repro.obs.MetricsRegistry.to_dict`); None when
    #: the campaign ran unobserved
    metrics: Optional[dict] = None

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    def outcomes(self) -> List[Outcome]:
        return [t.outcome_enum for t in self.trials]

    def fractions(self) -> Dict[str, float]:
        return outcome_fractions(self.outcomes())

    def of_outcome(self, *outcomes: Outcome) -> List[TrialResult]:
        wanted = {o.value for o in outcomes}
        return [t for t in self.trials if t.outcome in wanted]


# ----------------------------------------------------------------------
# Worker-side machinery (must be module-level for pickling)
# ----------------------------------------------------------------------

#: Bounded LRU of prepared apps.  Long-lived workers see many
#: (app, params, mode) keys over a large campaign suite; an unbounded
#: dict slowly eats the worker's memory.  Respawned workers start empty.
_PREPARED_CACHE: "OrderedDict[tuple, PreparedApp]" = OrderedDict()
_PREPARED_LIMIT = 8


def _prepared(app_name: str, params: tuple, mode: str,
              snapshot_stride: Optional[int] = None,
              artifact_dir: Union[str, Path, None] = None) -> PreparedApp:
    # Resolve the stride before keying so an explicit argument and the
    # equivalent REPRO_SNAPSHOT_STRIDE setting share one cache entry.
    # The artifact dir is not part of the key: it changes where the
    # golden state comes from, never what it is.
    stride = default_snapshot_stride(snapshot_stride)
    key = (app_name, params, mode, stride)
    pa = _PREPARED_CACHE.get(key)
    if pa is None:
        pa = PreparedApp(get_app(app_name, **dict(params)), mode,
                         snapshot_stride=stride, artifact_dir=artifact_dir)
        _PREPARED_CACHE[key] = pa
        while len(_PREPARED_CACHE) > _PREPARED_LIMIT:
            _PREPARED_CACHE.popitem(last=False)
    else:
        _PREPARED_CACHE.move_to_end(key)
    return pa


def _forget_prepared(app_name: str) -> None:
    """Evict every prepared entry of ``app_name`` (its program changed)."""
    for key in [k for k in _PREPARED_CACHE if k[0] == app_name]:
        del _PREPARED_CACHE[key]


def _summarise(
    pa: PreparedApp, result: JobResult, faults: Sequence[FaultSpec],
    keep_series: bool,
) -> TrialResult:
    spec = pa.spec
    golden = pa.golden
    ok = (not result.crashed) and outputs_match(
        result.outputs, golden.outputs, spec.tolerance, spec.abs_tolerance
    )
    outcome = classify(
        crashed=result.crashed,
        outputs_ok=ok,
        iterations=result.max_iterations,
        golden_iterations=golden.iterations,
        fpm=(pa.mode in ("fpm", "taint")),
        ever_contaminated=(
            result.any_contaminated if pa.mode in ("fpm", "taint") else None
        ),
    )
    injected_cycles = tuple(
        ev.cycle for rank_events in result.injections for ev in rank_events
    )
    injected_occurrences = tuple(
        ev.occurrence for rank_events in result.injections for ev in rank_events
    )
    injected_sites = tuple(
        ev.site for rank_events in result.injections for ev in rank_events
    )
    tr = TrialResult(
        outcome=outcome.value,
        trap_kind=result.trap.kind.value if result.trap is not None else None,
        faults=tuple(faults),
        injected_cycles=injected_cycles,
        injected_occurrences=injected_occurrences,
        injected_sites=injected_sites,
        iterations=result.max_iterations,
        cycles=result.cycles,
        pruned_at_cycle=result.pruned_at_cycle,
    )
    trace = result.trace
    if trace is not None:
        tr.final_cml = trace.final_cml
        tr.peak_cml = trace.peak_cml
        tr.peak_cml_fraction = trace.peak_cml_fraction
        tr.ever_contaminated = result.any_contaminated
        tr.ranks_contaminated = (
            trace.ranks_contaminated[-1] if trace.ranks_contaminated else 0
        )
        tr.first_contamination = tuple(trace.first_contamination)
        if keep_series:
            tr.times = trace.times_array()
            tr.cml = trace.total_cml()
            tr.live = np.asarray(trace.live_words, dtype=np.int64)
            tr.ranks_series = np.asarray(trace.ranks_contaminated, dtype=np.int64)
    return tr


def trial_results_equal(a: TrialResult, b: TrialResult) -> bool:
    """Field-by-field bit-identity of two trial results.

    This is the equivalence predicate of the fork contract: a forked
    trial must match its cold re-execution on every field, including
    the full CML(t) series.
    """
    for f in fields(TrialResult):
        # stage_timings: wall clocks are nondeterministic.  cml_stream /
        # obs: observability outputs whose presence depends on the
        # observe configuration (the verify cold re-run executes
        # unobserved), not on what the trial computed.  pruned_at_cycle:
        # provenance of the result, not content — the verify cold re-run
        # executes unpruned precisely to check the spliced fields.
        # forked_at_cycle / pages_copied: same story for the fork path
        # — how the result was obtained, not what it is.
        if f.name in ("stage_timings", "cml_stream", "obs",
                      "pruned_at_cycle", "forked_at_cycle",
                      "pages_copied"):
            continue
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
            if va is None or vb is None:
                if va is not vb:
                    return False
            elif not np.array_equal(va, vb):
                return False
        elif va != vb:
            return False
    return True


class TrialJob(NamedTuple):
    """One pre-drawn trial, as an executor hands it to the trial driver.

    Executors treat it as an opaque picklable.  The defaults are the
    plain trial: cold from cycle 0, unobserved.
    """

    app: str
    params: tuple
    mode: str
    faults: Tuple[FaultSpec, ...]
    inj_seed: int
    keep_series: bool
    wall_timeout: Optional[float] = None
    snapshot_stride: Optional[int] = None
    artifact_dir: Optional[str] = None
    #: when set, the trial runs recorded (see :func:`_run_trial`)
    observe: Optional[ObserveConfig] = None
    #: golden epoch to fork at (:meth:`GoldenProfile.fork_epoch`);
    #: 0 = run cold
    fork_epoch: int = 0


def _run_trial(job: TrialJob) -> TrialResult:
    """Worker-side trial driver, with optional observability.

    With ``job.observe`` set, the trial runs under a fresh
    :class:`~repro.obs.runtime.TrialRecorder` — stage spans, VM/MPI
    events and a metrics delta ride back to the campaign driver on
    ``TrialResult.obs``, and FPM/taint trials stream their live CML(t)
    series into ``TrialResult.cml_stream``.  Nothing here touches the
    trial RNG, so observed and unobserved runs are bit-identical.
    """
    observe = job.observe
    if observe is None:
        return _execute_trial(job, None)
    stream = None
    if observe.cml and job.mode in ("fpm", "taint"):
        stream = CMLStream(observe.cml_stride)
    with obs_rt.trial_recording() as rec:
        rec.cml = stream
        tr = _execute_trial(job, stream)
    if stream is not None:
        tr.cml_stream = stream.to_array()
        stream.publish_metrics(rec.metrics)
    if not observe.events:
        rec.events.clear()
    tr.obs = rec.payload()
    return tr


def _book(timings: Dict[str, float], stage: str, program, t1: float,
          cg1: float) -> None:
    """Close the stage window opened at ``t1`` / ``cg1``.

    ``cg1`` is ``program.tier2_codegen_s`` read when the window opened:
    regions compile on first entry, i.e. inside whichever window
    happens to enter them, so that share moves to ``tier2_codegen`` and
    the stage rows stay disjoint."""
    codegen = program.tier2_codegen_s - cg1
    timings["tier2_codegen"] += codegen
    timings[stage] = max(0.0, time.perf_counter() - t1 - codegen)


def _fork_trial(pa: PreparedApp, job: TrialJob, stream, fingerprints,
                timings: Dict[str, float]) -> TrialResult:
    """Run one trial COW-forked off the worker's shared golden world.

    Verify-first contract: the first fork trial per prepared app per
    process is re-executed cold (unobserved, unpruned, static regions
    only) and must be bit-identical, so a broken COW layer fails loudly
    instead of corrupting a campaign.
    """
    faults, fork_epoch = job.faults, job.fork_epoch
    cursor = getattr(pa, "_fork_cursor", None)
    if cursor is None:  # worker-local, lazily built per prepared app
        from .forkrun import GoldenCursor  # lazy: forkrun imports vm stack
        cursor = pa._fork_cursor = GoldenCursor(pa)
    program = pa.program
    t1, cg1 = time.perf_counter(), program.tier2_codegen_s
    with obs_rt.span("fork_advance", fork_epoch=fork_epoch):
        forked_at = cursor.advance_to(fork_epoch)
    _book(timings, "fork_advance", program, t1, cg1)
    t1, cg1 = time.perf_counter(), program.tier2_codegen_s
    with obs_rt.span("execute", fork=True, fork_epoch=fork_epoch):
        result, pages = cursor.fork_run(
            faults, inj_seed=job.inj_seed, wall_timeout=job.wall_timeout,
            cml_stream=stream, prune=fingerprints,
        )
    _book(timings, "execute", program, t1, cg1)
    with obs_rt.span("classify"):
        tr = _summarise(pa, result, faults, job.keep_series)
    tr.forked_at_cycle = forked_at
    tr.pages_copied = pages
    tr.stage_timings = timings
    if not pa._fork_verified:
        # The cold re-execution is harness bookkeeping: its VM/MPI
        # events must not pollute the observed trial's records.
        with obs_rt.suspended():
            cold = run_job(
                program, pa.run_config(), faults=faults,
                inj_seed=job.inj_seed, wall_timeout=job.wall_timeout,
                tier2=False,
            )
            cold_tr = _summarise(pa, cold, faults, job.keep_series)
        if not trial_results_equal(tr, cold_tr):
            raise SnapshotError(
                f"forked trial diverged from cold run for "
                f"{pa.spec.name!r} ({pa.mode}, fork epoch {fork_epoch}, "
                f"faults {tuple(faults)}): {tr.outcome}/{tr.cycles} vs "
                f"{cold_tr.outcome}/{cold_tr.cycles}"
            )
        pa._fork_verified = True
    # Counted only once the trial is final: a verify failure above ships
    # the trial from the cold rung, and counting before the gate would
    # inflate the fork totals with a trial that never shipped as forked.
    obs_rt.inc("repro_trials_forked_total")
    obs_rt.inc("repro_pages_copied_total", pages)
    return tr


def _execute_trial(job: TrialJob, stream) -> TrialResult:
    """Position and run one trial: fork off the golden cursor, else cold."""
    t0 = time.perf_counter()
    with obs_rt.span("arm", faults=len(job.faults)):
        pa = _prepared(job.app, job.params, job.mode, job.snapshot_stride,
                       job.artifact_dir)
    fingerprints = pa.fingerprints
    program = pa.program
    # tier2_codegen is what this trial spent compiling the regions it was
    # first in its process to enter, taken out of the window that
    # entered them (see _book), so the health total is the codegen cost
    # over all workers and goes to zero once every entered slot is compiled
    timings = {"artifact_load": time.perf_counter() - t0,
               "execute": 0.0, "tier2_codegen": 0.0}
    if job.fork_epoch > 0:
        try:
            return _fork_trial(pa, job, stream, fingerprints, timings)
        except TrialTimeoutError:
            raise  # harness failure: the engine retries/quarantines it
        except (SnapshotError, RuntimeError) as exc:
            # a broken/poisoned cursor or a failed cross-check degrades
            # this trial to the cold rung instead of failing the campaign
            warnings.warn(
                f"fork-at-injection failed for {job.app!r} "
                f"(epoch {job.fork_epoch}): {exc}; running the trial "
                f"cold from cycle 0",
                stacklevel=2,
            )
            obs_rt.inc("repro_fork_fallback_total")
            timings.pop("fork_advance", None)
            timings["execute"] = 0.0
    t1, cg1 = time.perf_counter(), program.tier2_codegen_s
    with obs_rt.span("execute", fork=False):
        result = run_job(
            program, pa.run_config(), faults=job.faults,
            inj_seed=job.inj_seed, wall_timeout=job.wall_timeout,
            cml_stream=stream, prune=fingerprints,
        )
    _book(timings, "execute", program, t1, cg1)
    with obs_rt.span("classify"):
        tr = _summarise(pa, result, job.faults, job.keep_series)
    tr.stage_timings = timings
    return tr


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

#: analysis modes: output variation (paper Sec. 4.2), dual-chain
#: propagation (Sec. 4.3) and the naive-taint ablation
MODES = ("blackbox", "fpm", "taint")

#: the campaign definition: what :func:`run_campaign` resolves its
#: arguments into, a journal header records, and a resume requires
DEFINITION_KEYS = (
    "app_name", "mode", "n_faults", "seed", "n_trials", "keep_series",
    "rank", "bit", "params", "timeout", "snapshot_stride", "artifact_dir",
    "fork",
)


def check_target(app: str, mode: str) -> None:
    """Reject an unregistered app or an unknown analysis mode."""
    if app not in APP_BUILDERS:
        raise CampaignError(
            f"unknown app {app!r}; known apps: "
            f"{', '.join(sorted(APP_BUILDERS))}")
    if mode not in MODES:
        raise CampaignError(
            f"unknown mode {mode!r}; expected one of {MODES}")


def default_trials(requested: Optional[int] = None) -> int:
    """Trial count: explicit argument, else REPRO_TRIALS env, else 120."""
    if requested is not None:
        if requested < 1:
            raise CampaignError(f"trials must be >= 1, got {requested}")
        return requested
    return current_settings().trials


def default_workers(requested: Optional[int] = None) -> int:
    """Worker count: explicit argument, else REPRO_WORKERS env, else 1."""
    if requested is not None:
        if requested < 1:
            raise CampaignError(f"workers must be >= 1, got {requested}")
        return requested
    return current_settings().workers


def default_timeout(requested: Optional[float] = None) -> Optional[float]:
    """Per-trial watchdog seconds: argument, else REPRO_TRIAL_TIMEOUT."""
    if requested is not None:
        if requested <= 0:
            raise CampaignError(f"timeout must be > 0, got {requested}")
        return requested
    return current_settings().trial_timeout


def _job_template(header: dict,
                  observe: Optional[ObserveConfig] = None) -> TrialJob:
    """What every trial of the campaign ``header`` defines has in common.

    ``header`` is the campaign definition in journal-header form, every
    key present (:data:`DEFINITION_KEYS`).
    """
    return TrialJob(
        app=header["app_name"],
        params=tuple((k, v) for k, v in header["params"]),
        mode=header["mode"],
        faults=(),
        inj_seed=0,
        keep_series=bool(header["keep_series"]),
        wall_timeout=header["timeout"],
        snapshot_stride=header["snapshot_stride"],
        artifact_dir=header["artifact_dir"],
        observe=observe,
    )


def _build_jobs(header: dict, golden: GoldenProfile,
                proto: TrialJob) -> List[TrialJob]:
    """Draw every trial's fault plan and seed up front.

    All randomness is consumed here, in index order, from one generator
    seeded with the campaign seed — which is what makes interrupted
    campaigns resumable: re-drawing with the same seed against the same
    golden profile reproduces the identical job list.

    With ``header["fork"]`` on, each job carries its fork epoch: the
    last golden epoch preceding every occurrence in its fault plan,
    resolved against the profile's dense per-epoch counters.  The RNG
    stream is untouched either way, so fork and no-fork campaigns draw
    identical fault plans.
    """
    rng = np.random.default_rng(int(header["seed"]))
    n_faults = int(header["n_faults"])
    rank, bit = header["rank"], header["bit"]
    fork = bool(header["fork"])
    jobs = []
    for _ in range(int(header["n_trials"])):
        faults = tuple(draw_plan(
            rng, golden.inj_counts, n_faults, rank=rank, bit=bit
        ))
        inj_seed = int(rng.integers(2 ** 31))
        jobs.append(proto._replace(
            faults=faults, inj_seed=inj_seed,
            fork_epoch=golden.fork_epoch(faults) if fork else 0,
        ))
    return jobs


def plan_fork_batches(jobs: Sequence[TrialJob], workers: int = 1
                      ) -> List[List[int]]:
    """Group trial indices into fork-epoch buckets, ascending.

    A worker draining consecutive buckets advances its shared golden
    cursor monotonically: every epoch of the golden prefix executes at
    most once per worker, and each trial in a bucket forks COW off the
    already-positioned world.  Deterministic (a pure function of the job
    list), so resumed campaigns re-plan the identical buckets.  Trials
    with fork epoch 0 (nothing to gain) bucket together first and run
    cold.  Indices within a bucket stay in campaign order, and
    oversized buckets split into up to ``workers`` chunks so one
    dominant epoch cannot idle the rest of the pool.
    """
    groups: "OrderedDict[int, List[int]]" = OrderedDict()
    for i, job in enumerate(jobs):
        groups.setdefault(job.fork_epoch, []).append(i)
    batches: List[List[int]] = []
    for epoch in sorted(groups):
        idxs = groups[epoch]
        if workers > 1 and len(idxs) > workers:
            size = -(-len(idxs) // workers)  # ceil division
            for j in range(0, len(idxs), size):
                batches.append(idxs[j:j + size])
        else:
            batches.append(idxs)
    return batches


def run_campaign(
    app: str,
    trials: Optional[int] = None,
    *,
    mode: str = "blackbox",
    n_faults: int = 1,
    seed: int = 2025,
    workers: Optional[int] = None,
    keep_series: bool = False,
    rank: Optional[int] = None,
    bit: Optional[int] = None,
    params: Optional[dict] = None,
    timeout: Optional[float] = None,
    max_retries: int = 2,
    journal: Optional[str] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    snapshot_stride: Optional[int] = None,
    artifact_dir: Union[str, Path, None] = None,
    observe: Union[None, bool, str, ObserveConfig] = None,
    fork: Optional[bool] = None,
    executor: Optional[str] = None,
    shards: Optional[int] = None,
) -> CampaignResult:
    """Run a fault-injection campaign for a registered app.

    This signature is the one definition of a campaign:
    :meth:`repro.Session.campaign` and the CLI forward to it.  An
    out-of-range argument raises :class:`~repro.errors.CampaignError`
    here, before the golden run is paid for.

    ``mode="blackbox"`` reproduces the output-variation analysis of
    Sec. 4.2 (Fig. 6); ``mode="fpm"`` additionally tracks propagation
    (Figs. 7-8, Table 2) — set ``keep_series=True`` to retain each
    trial's CML(t) series for model fitting.

    ``workers`` > 1 distributes trials over supervised processes;
    ``None`` uses REPRO_WORKERS or 1.  ``executor`` names where trials
    run — ``serial`` (in the driver), ``pool`` (worker processes on
    pipes) or ``remote`` (on authenticated localhost sockets) — and
    ``shards`` the fleet's size on either wire (None: ``workers``);
    with no ``executor`` (and no REPRO_EXECUTOR) a fleet of one is
    ``serial`` and a larger one ``pool``, and ``serial`` is one
    process whatever was asked.  ``timeout`` is the per-trial
    wall-clock watchdog in seconds (None: REPRO_TRIAL_TIMEOUT or off);
    ``max_retries`` bounds re-execution after a harness failure before a
    trial is quarantined; ``journal`` names a JSONL checkpoint file so
    an interrupted campaign can be finished with
    :func:`repro.inject.engine.resume_campaign`.

    ``snapshot_stride`` sets the golden-run snapshot capture stride in
    cycles (None: REPRO_SNAPSHOT_STRIDE or 2048).  Snapshots are what a
    worker's golden cursor rewinds to, and convergence-pruning
    fingerprints ride on the same stride: a faulted trial whose world
    re-converges bit-for-bit with the golden run at a fingerprinted
    epoch gets the golden tail spliced in instead of executing it, with
    identical results.  ``0`` captures neither, so every trial runs to
    completion and a rewind replays the golden run from cycle 0 —
    trials still fork.

    ``artifact_dir`` names a directory of shared golden artifacts (None:
    REPRO_ARTIFACT_DIR or disabled): the golden profile and snapshot
    store are loaded from / saved to a content-addressed file there, so
    pool workers — including respawned ones — and later campaigns skip
    golden profiling.

    ``observe`` switches on the observability layer (tracing + metrics
    + live CML streams): ``True``/``"on"`` with environment-default
    outputs, an :class:`~repro.obs.ObserveConfig` for explicit control,
    ``None`` to defer to REPRO_OBS_TRACE / REPRO_OBS_METRICS,
    ``False``/``"off"`` to force it off.  Observation never changes
    trial outcomes — it touches no RNG and no execution path.

    ``fork`` controls fork-at-injection execution (None: on): trials
    are grouped into fork-epoch buckets, each worker advances one
    shared golden world through its buckets exactly once, and every
    trial runs COW-forked off that world at its injection epoch —
    paying only its divergent window plus the pages it touches.
    ``fork=False`` / ``--no-fork`` runs every trial cold from cycle 0
    in index order: the reference the equivalence oracle
    (``tests/integration/test_oracle.py``) compares the fork rung
    against, bit-identical by the COW contract.
    """
    from .artifacts import default_artifact_dir
    from .engine import _drive_campaign  # lazy: engine imports this module

    check_target(app, mode)
    n_trials = default_trials(trials)
    requested_workers = default_workers(workers)
    for ok, rule, got in (
        (n_faults >= 1, "n_faults must be >= 1", n_faults),
        (max_retries >= 0, "max_retries must be >= 0", max_retries),
        (rank is None or rank >= 0, "rank must be >= 0", rank),
        (bit is None or 0 <= bit < 64, "bit must be in [0, 64)", bit),
        (snapshot_stride is None or snapshot_stride >= 0,
         "snapshot_stride must be >= 0", snapshot_stride),
    ):
        if not ok:
            raise CampaignError(f"{rule}, got {got!r}")
    art_dir = default_artifact_dir(artifact_dir)
    # Every knob is resolved here, once: the journal records effective
    # values, and workers cannot drift if the environment changes.
    return _drive_campaign(
        {
            "app_name": app,
            "mode": mode,
            "n_faults": n_faults,
            "seed": seed,
            "n_trials": n_trials,
            "keep_series": keep_series,
            "rank": rank,
            "bit": bit,
            "params": sorted((params or {}).items()),
            "timeout": default_timeout(timeout),
            "snapshot_stride": default_snapshot_stride(snapshot_stride),
            "artifact_dir": str(art_dir) if art_dir is not None else None,
            "fork": fork is None or bool(fork),
        },
        journal=journal,
        workers=requested_workers,
        max_retries=max_retries,
        progress=progress,
        observe=observe,
        executor=executor,
        shards=shards,
    )
