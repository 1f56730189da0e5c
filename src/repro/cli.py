"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``apps``          — list registered applications
* ``golden APP``    — run the fault-free reference
* ``campaign APP``  — fault-injection campaign + outcome table
                      (``--save-json``/``--save-csv`` persist results)
* ``fps APP``       — FPS factor + CML estimator demo
* ``sites APP``     — rank code locations by vulnerability
* ``compile APP``   — dump the instrumented IR of an app
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .analysis import (
    co_breakdown,
    render_fps_table,
    render_health_summary,
    render_outcome_table,
)
from .api import Session
from .errors import CampaignError
from .apps import app_names, get_app
from .frontend import compile_source
from .inject.campaign import MODES, check_target
from .inject.executors import EXECUTOR_NAMES
from .inject.journal import read_journal_header
from .ir import format_module
from .passes import pipeline_for_mode, run_passes


def _add_campaign_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("app", help="application name (see `apps`)")
    p.add_argument("--trials", type=int, default=None,
                   help="number of injection trials (default REPRO_TRIALS/120)")
    p.add_argument("--seed", type=int, default=2025)
    p.add_argument("--workers", type=int, default=None,
                   help="process parallelism (default REPRO_WORKERS/1)")
    p.add_argument("--executor", choices=EXECUTOR_NAMES, default=None,
                   help="execution backend: serial (in-driver), or the "
                        "supervised worker fleet over pipes (pool) or "
                        "over authenticated localhost sockets (remote); "
                        "default REPRO_EXECUTOR, else serial for a fleet of "
                        "one and pool for a larger one")
    p.add_argument("--shards", type=int, default=None, metavar="N",
                   help="size of the worker fleet on either wire (pool, "
                        "remote) — N processes, whose slot is each "
                        "trial's journal shard tag (default --workers); "
                        "serial is one process whatever N")
    p.add_argument("--faults", type=int, default=1,
                   help="faults per run (LLFI++ multi-fault extension)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-trial wall-clock watchdog "
                        "(default REPRO_TRIAL_TIMEOUT/off)")
    p.add_argument("--max-retries", type=int, default=2, metavar="N",
                   help="re-executions of a harness-failed trial before "
                        "it is quarantined (default 2)")
    p.add_argument("--snapshot-stride", type=int, default=None, metavar="CYCLES",
                   help="golden-run snapshot stride: what a golden "
                        "cursor rewinds to and pruning fingerprints ride "
                        "on (default REPRO_SNAPSHOT_STRIDE/2048; 0 "
                        "captures neither, so every trial runs to "
                        "completion)")
    p.add_argument("--artifact-dir", metavar="DIR", default=None,
                   help="directory of shared golden artifacts: load the "
                        "golden profile + snapshots from there instead of "
                        "re-profiling, saving after a miss "
                        "(default REPRO_ARTIFACT_DIR/off)")
    p.add_argument("--no-fork", action="store_true",
                   help="run every trial cold from cycle 0 instead of "
                        "forking it off the golden cursor — the "
                        "bit-identical reference (default: forking on)")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write a schema-versioned JSONL trace of every "
                        "trial (spans, VM/MPI events, live CML streams)")
    p.add_argument("--metrics-out", metavar="PATH", default=None,
                   help="write campaign metrics in Prometheus text format")
    p.add_argument("--save-json", metavar="PATH",
                   help="persist the campaign (reload with "
                        "repro.analysis.load_campaign)")
    p.add_argument("--save-csv", metavar="PATH",
                   help="write one row per trial for pandas/R")
    p.add_argument("--chaos", action="store_true",
                   help="inject deterministic harness faults (worker "
                        "kills, artifact corruption, journal tears, "
                        "transient IO errors) to exercise the hardened "
                        "substrate; scientific results are unaffected")
    p.add_argument("--chaos-seed", type=int, default=None, metavar="SEED",
                   help="seed of the chaos fault pattern "
                        "(default REPRO_CHAOS_SEED/0; requires --chaos)")


def _campaign_kwargs(args) -> dict:
    """The flags of :func:`_add_campaign_args` as ``run_campaign``
    keywords — the one place a campaign flag is read."""
    observe = None  # defer to REPRO_OBS_TRACE / REPRO_OBS_METRICS
    if args.trace is not None or args.metrics_out is not None:
        from .obs import ObserveConfig
        observe = ObserveConfig.resolve(True).with_outputs(
            args.trace, args.metrics_out)
    return dict(
        trials=args.trials, seed=args.seed, workers=args.workers,
        n_faults=args.faults, timeout=args.timeout,
        max_retries=args.max_retries,
        snapshot_stride=args.snapshot_stride,
        artifact_dir=args.artifact_dir, observe=observe,
        fork=False if args.no_fork else None,
        executor=args.executor, shards=args.shards,
    )


def _save_results(c, args) -> None:
    """Shared --save-json/--save-csv handling (campaign/sites/fps)."""
    if getattr(args, "save_json", None):
        from .analysis import save_campaign
        print(f"saved: {save_campaign(c, args.save_json)}")
    if getattr(args, "save_csv", None):
        from .analysis import trials_to_csv
        trials_to_csv(c, args.save_csv)
        print(f"saved: {args.save_csv}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault propagation framework "
                    "(SC '15 reproduction), v" + __version__,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list registered applications")

    p = sub.add_parser("golden", help="run the fault-free reference")
    p.add_argument("app")
    p.add_argument("--mode", choices=MODES, default="blackbox")

    p = sub.add_parser("campaign", help="run a fault-injection campaign")
    _add_campaign_args(p)
    p.add_argument("--mode", choices=MODES, default=None,
                   help="analysis mode (default fpm; with --resume, the "
                        "journal's, and naming another is an error)")
    p.add_argument("--journal", metavar="PATH",
                   help="checkpoint completed trials to a JSONL journal "
                        "(resumable with --resume)")
    p.add_argument("--resume", metavar="JOURNAL",
                   help="finish an interrupted journaled campaign of APP "
                        "(its definition comes from the journal header: "
                        "--trials, --seed, --faults, --snapshot-stride or "
                        "--no-fork is an error)")

    p = sub.add_parser("sites", help="rank code locations by vulnerability")
    _add_campaign_args(p)
    p.add_argument("--by", choices=("sdc", "crash", "cml"), default="sdc")
    p.add_argument("--top", type=int, default=12)

    p = sub.add_parser("fps", help="fit propagation models, print FPS")
    _add_campaign_args(p)

    p = sub.add_parser("compile", help="dump instrumented IR")
    p.add_argument("app")
    p.add_argument("--mode", choices=MODES, default="fpm")
    return parser


def cmd_apps() -> int:
    for name in app_names():
        spec = get_app(name)
        print(f"{name:10s} {spec.description}")
    return 0


def cmd_golden(args) -> int:
    g = Session(args.app, mode=args.mode).golden()
    print(f"app: {args.app} ({args.mode})")
    print(f"  cycles: {g.cycles}   iterations: {g.iterations}")
    print(f"  injectable dynamic sites per rank: {list(g.inj_counts)}")
    for rank, out in enumerate(g.outputs):
        shown = ", ".join(f"{float(v):.6g}" for v in out[:8])
        more = " ..." if len(out) > 8 else ""
        print(f"  rank {rank} outputs: [{shown}{more}]")
    return 0


#: the campaign-definition flags, by ``run_campaign`` keyword: a resume
#: reads these from the journal header, so it cannot honour them
_DEFINITION_FLAGS = {"trials": "--trials", "seed": "--seed",
                     "n_faults": "--faults",
                     "snapshot_stride": "--snapshot-stride",
                     "fork": "--no-fork"}


def cmd_campaign(args) -> int:
    knobs = _campaign_kwargs(args)
    if args.resume:
        defaults = _campaign_kwargs(
            build_parser().parse_args(["campaign", args.app]))
        for key, flag in _DEFINITION_FLAGS.items():
            if knobs.pop(key) != defaults[key]:
                raise CampaignError(
                    f"{flag} cannot change a resumed campaign: journal "
                    f"{args.resume} records its definition")
        s = Session(args.app, mode=args.mode
                    or read_journal_header(args.resume).get("mode", "fpm"))
        c = s.resume(args.resume, **knobs)
    else:
        s = Session(args.app, mode=args.mode or "fpm")
        c = s.campaign(journal=args.journal, **knobs)
    print(f"{c.n_trials} trials, mode={c.mode}, "
          f"{c.n_faults} fault(s)/run")
    print(render_outcome_table({args.app: c.fractions()},
                               blackbox=(c.mode == "blackbox")))
    if c.mode == "fpm":
        bd = co_breakdown(args.app, c.outcomes())
        if bd is not None and bd.n_co:
            print(f"\nONA share of correct-output runs: "
                  f"{100 * bd.ona_share:.1f}%")
    if c.health is not None:
        print()
        print(render_health_summary(
            c.health, [c.trials[i] for i in c.health.quarantined]))
    _save_results(c, args)
    # exit 3: campaign completed but the harness lost trials — partial
    # results, distinguishable from both success (0) and usage error (1)
    return 3 if (c.health is not None and c.health.quarantined) else 0


def cmd_sites(args) -> int:
    from .analysis import render_site_ranking, site_vulnerability
    from .inject.campaign import _prepared

    knobs = _campaign_kwargs(args)
    c = Session(args.app, mode="fpm").campaign(**knobs)
    pa = _prepared(args.app, (), "fpm", knobs["snapshot_stride"],
                   knobs["artifact_dir"])
    ranking = site_vulnerability(c, pa.program.site_table, by=args.by)
    print(f"most vulnerable sites of {args.app} by {args.by} "
          f"({c.n_trials} trials):")
    print(render_site_ranking(ranking, top=args.top))
    _save_results(c, args)
    return 0


def cmd_fps(args) -> int:
    from .models import CMLEstimator

    s = Session(args.app, mode="fpm")
    c = s.campaign(**_campaign_kwargs(args))
    fps = s.fps()
    print(render_fps_table([fps]))
    horizon = c.golden_cycles
    w = CMLEstimator(fps).estimate_window(0, horizon)
    print(f"\nCML bound over a full run ({horizon} cycles): "
          f"max {w.max_cml:.1f}, avg {w.avg_cml:.1f}")
    _save_results(c, args)
    return 0


def cmd_compile(args) -> int:
    check_target(args.app, args.mode)
    spec = get_app(args.app)
    module = compile_source(spec.source, name=args.app)
    run_passes(module, pipeline_for_mode(args.mode, spec.config.inject_kinds))
    print(format_module(module))
    return 0


def _apply_chaos_args(parser: argparse.ArgumentParser, args) -> None:
    """Translate --chaos/--chaos-seed into the REPRO_CHAOS* environment
    (the single source of truth every worker process reads)."""
    chaos_on = getattr(args, "chaos", False)
    chaos_seed = getattr(args, "chaos_seed", None)
    if chaos_seed is not None and not chaos_on:
        parser.error("--chaos-seed requires --chaos")  # exit code 2
    if chaos_on:
        import os
        os.environ["REPRO_CHAOS"] = "1"
        if chaos_seed is not None:
            os.environ["REPRO_CHAOS_SEED"] = str(chaos_seed)


def main(argv=None) -> int:
    """Exit codes: 0 success; 1 campaign error; 2 usage error (argparse);
    3 campaign completed but quarantined trials (partial results)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_chaos_args(parser, args)
    try:
        if args.command == "apps":
            return cmd_apps()
        if args.command == "golden":
            return cmd_golden(args)
        if args.command == "campaign":
            return cmd_campaign(args)
        if args.command == "fps":
            return cmd_fps(args)
        if args.command == "compile":
            return cmd_compile(args)
        if args.command == "sites":
            return cmd_sites(args)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
