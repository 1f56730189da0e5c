"""Layer probes: each calls one layer's public functions on fixed inputs.

A probe whose function has moved, been deleted or changed its signature
is skipped — its metrics are simply absent and ``run.py`` lists them
under ``layers_missing`` — so end-to-end runs never depend on a layer's
internals staying put.  README.md says which end-to-end metric each
probe is expected to move.
"""

from __future__ import annotations

import inspect
from pathlib import Path
from typing import Callable, Dict

from workloads import APPS

MODES = ("blackbox", "fpm")
#: apps whose golden artifact the two artifact-dir workloads use
ARTIFACT_APPS = (("mcb", "blackbox"), ("amg", "fpm"))
SHADOW_OPS = 1_000_000
MPI_ROUNDS = 2000
JOURNAL_FRAMES = 240

_P2P_SOURCE = f"""
func main(rank: int, size: int) {{
    var sbuf: float[1];
    var rbuf: float[1];
    var right: int = rank + 1;
    var left: int = rank - 1;
    if (right == size) {{ right = 0; }}
    if (left < 0) {{ left = size - 1; }}
    sbuf[0] = float(rank);
    for (var t: int = 0; t < {MPI_ROUNDS}; t += 1) {{
        mpi_send(&sbuf[0], 1, right, 1);
        mpi_recv(&rbuf[0], 1, left, 1);
        sbuf[0] = rbuf[0];
    }}
    emit(sbuf[0]);
}}
"""

_ALLREDUCE_SOURCE = f"""
func main(rank: int, size: int) {{
    var sbuf: float[1];
    var rbuf: float[1];
    sbuf[0] = float(rank);
    for (var t: int = 0; t < {MPI_ROUNDS}; t += 1) {{
        mpi_allreduce(&sbuf[0], &rbuf[0], 1, 2);
        sbuf[0] = rbuf[0];
    }}
    emit(sbuf[0]);
}}
"""


class _Timer:
    """``with timer: ...`` collects intervals; ``timer.s`` is their sum
    in seconds normalised to the reference host speed."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.intervals = []

    def __enter__(self):
        self._t0 = self.clock.now()
        return self

    def __exit__(self, *exc) -> None:
        self.intervals.append((self._t0, self.clock.now()))

    @property
    def s(self) -> float:
        return sum(self.clock.normalised(a, b) for a, b in self.intervals)


def probe_build(clock) -> dict:
    """frontend / passes / vm codegen over the five apps, both modes."""
    from repro.apps.registry import get_app
    from repro.frontend import compile_source
    from repro.passes import pipeline_for_mode, run_passes
    from repro.vm import compile_program

    front, codegen = _Timer(clock), _Timer(clock)
    instrument = {m: _Timer(clock) for m in MODES}
    static = dict.fromkeys(MODES, 0)
    for app in APPS:
        spec = get_app(app)
        for mode in MODES:
            with front:
                module = compile_source(spec.source, name=spec.name)
            with instrument[mode]:
                run_passes(module, pipeline_for_mode(
                    mode, spec.config.inject_kinds))
            static[mode] += sum(len(block.instructions)
                                for func in module.functions.values()
                                for block in func.blocks)
            with codegen:
                compile_program(module)
    return {
        "frontend.compile_s": front.s / len(MODES),
        "passes.instrument_s.blackbox": instrument["blackbox"].s,
        "passes.instrument_s.fpm": instrument["fpm"].s,
        "passes.fpm_instr_ratio": static["fpm"] / static["blackbox"],
        "vm.codegen_s": codegen.s,
    }


def probe_vm(clock, workdir: Path) -> dict:
    """Prepare every app in both modes, then replay its golden run.

    ``golden`` is a fault-free ``run_job`` on the prepared program with
    whatever the program runs by default (tier-2 traces installed);
    ``tier1`` is the same with ``tier2=False`` and is omitted once
    ``run_job`` has no such switch.  The two artifact-dir apps also get
    their golden artifact saved and loaded.
    """
    from repro import run_job
    from repro.apps.registry import get_app
    from repro.inject import artifacts
    from repro.inject.profiler import PreparedApp
    from repro.vm import SnapshotStore

    has_switch = "tier2" in inspect.signature(run_job).parameters
    prepare = {m: _Timer(clock) for m in MODES}
    host = {(t, m): _Timer(clock)
            for t in ("golden", "tier1") for m in MODES}
    cycles = dict.fromkeys(MODES, 0)
    save, load, size = _Timer(clock), _Timer(clock), 0
    for mode in MODES:
        for app in APPS:
            spec = get_app(app)
            with prepare[mode]:
                pa = PreparedApp(spec, mode)
            if has_switch:
                with host["tier1", mode]:
                    run_job(pa.program, pa.run_config(), tier2=False)
            install = getattr(pa, "ensure_tier2", None)
            if install is not None:
                install(True)
            with host["golden", mode]:
                result = run_job(pa.program, pa.run_config())
            cycles[mode] += sum(result.rank_cycles)
            if (app, mode) in ARTIFACT_APPS:
                fresh = SnapshotStore(None, None)
                key = artifacts.artifact_key(spec, mode, fresh.stride,
                                             fresh.limit)
                with save:
                    path = artifacts.save_artifact(
                        workdir, key, pa.golden, pa.snapshots,
                        pa.fingerprints,
                        tier2_plan=getattr(pa, "tier2_plan", None))
                size += path.stat().st_size
                with load:
                    if artifacts.load_artifact(workdir, key) is None:
                        raise RuntimeError(f"artifact {key} did not load")
    out = {
        "vm.fpm_cycle_ratio": cycles["fpm"] / cycles["blackbox"],
        "inject.artifacts.save_s": save.s,
        "inject.artifacts.load_s": load.s,
        "inject.artifacts.bytes": size,
    }
    for mode in MODES:
        out[f"inject.profiler.prepare_s.{mode}"] = prepare[mode].s
        out[f"vm.golden_mcycles_per_s.{mode}"] = \
            cycles[mode] / host["golden", mode].s / 1e6
        if has_switch:
            out[f"vm.tier1_mcycles_per_s.{mode}"] = \
                cycles[mode] / host["tier1", mode].s / 1e6
    tier = "tier1" if has_switch else "golden"
    out["vm.fpm_host_ratio"] = host[tier, "fpm"].s / host[tier, "blackbox"].s
    return out


def probe_shadow(clock) -> dict:
    """``ShadowTable`` operations per second, in a plain Python loop."""
    from repro.fpm.shadow import ShadowTable

    n = SHADOW_OPS
    timers = {k: _Timer(clock) for k in (
        "record", "pristine_hit", "pristine_miss", "contaminated_in")}

    table = ShadowTable()
    record = table.record
    with timers["record"]:
        for a in range(n):
            record(4096 + (a & 1023), 1.0, a)

    pristine = table.pristine
    with timers["pristine_hit"]:
        for a in range(n):
            pristine(4096 + (a & 1023), 0.0)

    # half the lookups on an empty table, half outside a populated one's
    # address bounds
    empty = ShadowTable().pristine
    with timers["pristine_miss"]:
        for a in range(n // 2):
            empty(a, 0.0)
            pristine(a & 1023, 0.0)

    # 64-word buffers: one overlapping the entries, one disjoint
    within = table.contaminated_in
    with timers["contaminated_in"]:
        for a in range(n // 64):
            within(4096 + (a & 511), 64)
            within(a & 1023, 64)
    ops = {"contaminated_in": 2 * (n // 64)}
    return {f"fpm.shadow_mops_per_s.{k}": ops.get(k, n) / t.s / 1e6
            for k, t in timers.items()}


def probe_mpi(clock) -> dict:
    """A 4-rank ring ping-pong and an allreduce loop through the whole
    ``build_program`` + ``run_job`` stack."""
    from repro import RunConfig, build_program, run_job

    config = RunConfig(nranks=4)
    out = {}
    for name, source, ops in (
            ("mpi.p2p_msgs_per_s", _P2P_SOURCE, config.nranks * MPI_ROUNDS),
            ("mpi.allreduce_per_s", _ALLREDUCE_SOURCE, MPI_ROUNDS)):
        program = build_program(source, "blackbox", name=name, config=config)
        with _Timer(clock) as timer:
            result = run_job(program, config)
        if result.crashed:
            raise RuntimeError(f"{name} loop did not complete: {result.trap}")
        out[name] = ops / timer.s
    return out


def probe_journal(clock, workdir: Path) -> dict:
    """Journal frames, classification and the FPS fit over the trials of
    one finished fpm campaign (mcb, the shortest)."""
    from repro import run_campaign
    from repro.analysis.classify import classify
    from repro.inject.journal import CampaignJournal, read_journal_ex
    from repro.models.fps import compute_fps

    trials = run_campaign("mcb", 24, mode="fpm", keep_series=True,
                          seed=20150715).trials
    path = workdir / "probe.journal.jsonl"
    with _Timer(clock) as write:
        with CampaignJournal.create(path, {}) as journal:
            for i in range(JOURNAL_FRAMES):
                journal.append_trial(i, trials[i % len(trials)])
    with _Timer(clock) as read:
        _, loaded, _ = read_journal_ex(path)
    if len(loaded) != JOURNAL_FRAMES:
        raise RuntimeError(f"journal read back {len(loaded)} frames")

    cases = [dict(crashed=c, outputs_ok=o, iterations=i, golden_iterations=30,
                  fpm=True, ever_contaminated=e)
             for c in (False, True) for o in (True, False)
             for i in (30, 31) for e in (False, True)]
    rounds = 4000
    with _Timer(clock) as classified:
        for _ in range(rounds):
            for case in cases:
                classify(**case)

    fits = 5
    with _Timer(clock) as fitted:
        for _ in range(fits):
            compute_fps("mcb", trials)
    return {
        "inject.journal.write_frames_per_s": JOURNAL_FRAMES / write.s,
        "inject.journal.read_frames_per_s": JOURNAL_FRAMES / read.s,
        "inject.journal.bytes_per_trial":
            path.stat().st_size / JOURNAL_FRAMES,
        "analysis.classify_us": classified.s / (rounds * len(cases)) * 1e6,
        "models.fps_fit_s": fitted.s / fits,
    }


def run_all(log, workdir: Path) -> dict:
    """Run every probe; returns ``{"layer": metrics, "skipped": reasons}``."""
    clock = log.clock
    with log.span("import", start=0.0) as span:
        import repro  # noqa: F401
    layer: Dict[str, float] = {
        "core.import_s": clock.normalised(span["start"], span["end"])}
    skipped: Dict[str, str] = {}
    probes: Dict[str, Callable[[], dict]] = {
        "build": lambda: probe_build(clock),
        "vm": lambda: probe_vm(clock, workdir),
        "shadow": lambda: probe_shadow(clock),
        "mpi": lambda: probe_mpi(clock),
        "journal": lambda: probe_journal(clock, workdir),
    }
    for name, fn in probes.items():
        with log.span(f"probe:{name}"):
            try:
                layer.update(fn())
            except Exception as exc:  # a moved layer must not fail the run
                skipped[name] = f"{type(exc).__name__}: {exc}"
    return {"layer": layer, "skipped": skipped}
