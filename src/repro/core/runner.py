"""Job runner: compile once, run many simulated MPI jobs.

``build_program`` compiles MiniHPC source through the requested pass
pipeline; ``build_world`` turns a program and a :class:`RunConfig` into
started machines on an MPI runtime and ``make_scheduler`` into the
scheduler that runs them — the one place either is spelled out, shared
by ``run_job`` (a world run once to a
:class:`~repro.mpi.scheduler.JobResult`), the golden cursor and the
roll-back runner.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

from ..frontend import compile_source
from ..mpi import JobResult, MPIRuntime, Scheduler
from ..passes import pipeline_for_mode, run_passes
from ..vm import CompiledProgram, FaultSpec, Machine, compile_program
from .config import RunConfig


def build_program(
    source: str,
    mode: str = "blackbox",
    *,
    name: str = "app",
    config: Optional[RunConfig] = None,
    verify: bool = True,
    fuse: bool = True,
) -> CompiledProgram:
    """Compile MiniHPC source to an executable program.

    ``mode`` selects the instrumentation level: ``"blackbox"`` (fault
    injection only — a plain LLFI binary) or ``"fpm"`` (fault injection +
    dual-chain propagation tracking).  ``fuse=False`` builds the
    region-free reference interpreter (see
    :func:`~repro.vm.compiler.compile_program`).
    """
    config = config or RunConfig()
    module = compile_source(source, name=name, verify=verify)
    run_passes(module, pipeline_for_mode(mode, config.inject_kinds), verify=verify)
    return compile_program(module, fuse=fuse)


def build_world(
    program: CompiledProgram,
    config: RunConfig,
    faults: Sequence[FaultSpec] = (),
    *,
    inj_seed: Optional[int] = None,
    tier2: bool = True,
    edge_profile: Optional[dict] = None,
) -> Tuple[List[Machine], MPIRuntime]:
    """One started machine per rank, attached to a fresh MPI runtime.

    ``faults`` are armed before the first instruction; ``tier2=False``
    puts the machines on the static region map, and so does an
    ``edge_profile`` dict to fill: the profiling branch closures only
    run there.
    """
    machines = [
        Machine(program, rank, config.nranks, seed=config.seed,
                mem_capacity=config.mem_capacity,
                stack_words=config.stack_words, entry=config.entry)
        for rank in range(config.nranks)
    ]
    runtime = MPIRuntime()
    runtime.attach(machines)
    for m in machines:
        m.use_tier2 = tier2 and edge_profile is None
        m.edge_profile = edge_profile
        if faults:
            m.arm_faults(faults, seed=inj_seed)
        m.start()
    return machines, runtime


def make_scheduler(
    machines: Sequence[Machine],
    runtime: MPIRuntime,
    config: RunConfig,
    *,
    max_cycles: Optional[int] = None,
    wall_timeout: Optional[float] = None,
    **hooks,
) -> Scheduler:
    """The scheduler ``config`` asks for over a built world.

    The hang budget is ``max_cycles``, else the config's, else the
    config's golden budget; ``wall_timeout`` (seconds from now) arms the
    wall-clock watchdog.  ``hooks`` are :class:`Scheduler`'s own
    keywords: where to resume (``start_epoch``, ``trace``) and what to
    capture or observe on the way.
    """
    if max_cycles is None:
        max_cycles = config.max_cycles
    if max_cycles is None:
        max_cycles = config.golden_max_cycles
    if wall_timeout is not None:
        hooks["wall_deadline"] = time.monotonic() + wall_timeout
    return Scheduler(
        machines,
        runtime,
        quantum=config.quantum,
        max_cycles=max_cycles,
        sample_every=config.sample_every,
        **hooks,
    )


def run_job(
    program: CompiledProgram,
    config: Optional[RunConfig] = None,
    faults: Sequence[FaultSpec] = (),
    *,
    inj_seed: Optional[int] = None,
    max_cycles: Optional[int] = None,
    wall_timeout: Optional[float] = None,
    capture_snapshots=None,
    cml_stream=None,
    capture_fingerprints=None,
    prune=None,
    capture_epoch_counters=None,
    capture_edge_profile=None,
    tier2: Optional[bool] = None,
) -> JobResult:
    """Run one simulated MPI job to completion (or crash/deadlock/hang).

    ``wall_timeout`` arms a soft wall-clock watchdog (seconds): a job
    still running when it expires raises
    :class:`~repro.errors.TrialTimeoutError`, which the campaign engine
    classifies as a harness failure (retry, then quarantine) rather
    than an application outcome.

    ``capture_snapshots`` accepts a
    :class:`~repro.vm.snapshot.SnapshotStore` to populate at its cycle
    stride while the job runs (golden profiling).

    ``cml_stream`` attaches a :class:`~repro.obs.cml.CMLStream` to the
    job's propagation trace (FPM/taint modes): every scheduler sample is
    pushed into it, yielding the live decimated CML(t) series without
    retaining the full per-rank trace.  Pure observation: attaching one never changes the
    job's execution or results.

    ``capture_fingerprints`` accepts a
    :class:`~repro.vm.fingerprint.FingerprintIndex` to populate while
    the job runs (golden profiling).  ``prune`` accepts a *frozen*
    golden FingerprintIndex: when a faulted trial's world re-converges
    bit-for-bit with the golden trajectory at a fingerprinted epoch, the
    scheduler splices in the golden tail instead of executing it and
    sets ``JobResult.pruned_at_cycle``.  Results are identical to a full
    run by construction (see :mod:`repro.vm.fingerprint`).

    ``capture_epoch_counters`` accepts a mutable list the scheduler
    appends one per-rank ``inj_counter`` tuple into per completed epoch
    (golden profiling) — the dense occurrence timeline fork-at-injection
    plans are resolved against.

    ``capture_edge_profile`` accepts a mutable dict the profiling
    conditional-branch closures fill with per-site edge counts (golden
    profiling) — the input of region planning; such a job runs on the
    static region map, whose regions dispatch every dynamic branch
    through its closure.  ``tier2=False`` selects the static map too,
    whatever plan the program has installed: the first-fork verify's
    cold reference runs there.
    """
    config = config or RunConfig()
    machines, runtime = build_world(
        program, config, faults, inj_seed=inj_seed,
        tier2=tier2 is not False, edge_profile=capture_edge_profile,
    )
    return make_scheduler(
        machines, runtime, config,
        max_cycles=max_cycles,
        wall_timeout=wall_timeout,
        snapshots=capture_snapshots,
        cml_stream=cml_stream,
        fingerprints=capture_fingerprints,
        prune=prune,
        epoch_counters=capture_epoch_counters,
    ).run()
