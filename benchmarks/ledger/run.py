#!/usr/bin/env python3
"""The campaign ledger: the repo's one benchmark (see README.md).

    python3 benchmarks/ledger/run.py                      # whole matrix
    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/ledger/run.py --bless              # rewrite reference.json

With ``--workload`` it makes one measurement the way BENCHMARK.json
describes and ends with one JSON line; without, it interleaves every
workload over ``--reps`` repetitions, runs the layer probes and one
traced run per workload, and prints medians with their spread.

Every measurement is a fresh child process (``child.py``) with all
``REPRO_*`` variables stripped, so the program's defaults are what is
measured; journals, artifacts and traces live in a per-run directory
under ``.work/`` that is removed afterwards.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
import ledger  # noqa: E402
import workloads  # noqa: E402

#: seeds ``--bless`` always covers: the default and one other
BLESSED_SEEDS = (workloads.DEFAULT_SEED, 7)
#: a child that takes longer is killed and the run fails
CHILD_TIMEOUT_S = 150
#: set-up-only children in front of a driver-mode measurement, so that
#: ``setup_s`` is a median of three set-ups
SETUP_ONLY_RUNS = 2


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def build() -> None:
    """The program's only build step: byte-compile the package, so the
    first child of a fresh checkout imports like every later one."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program to measure at {SRC / 'repro'}")
    compileall.compile_dir(str(SRC), quiet=2)


def child_env(workdir: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    env["TMPDIR"] = str(workdir)
    return env


def run_child(role: str, workload=None, *, seed: int, seconds: float,
              trace: int = 0) -> dict:
    """Run ``child.py`` once in a fresh process group; returns its JSON."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{role}-", dir=WORK))
    out = workdir / "out.json"
    cmd = [sys.executable, str(HERE / "child.py"), role,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", str(workdir),
           "--out", str(out)]
    if workload is not None:
        ref = load_reference().get(workload, {}).get(str(seed), {})
        cmd += ["--workload", workload,
                "--reference", json.dumps(ref.get("apps", {}))]
    try:
        with open(workdir / "child.log", "wb") as log:
            t0 = time.time()
            proc = subprocess.Popen(
                cmd + ["--t0", repr(t0)], env=child_env(workdir),
                cwd=str(ROOT), stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                # workers and daemons share the child's process group:
                # none may outlive the run
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        if code != 0 or not out.exists():
            tail = (workdir / "child.log").read_text(errors="replace")[-4000:]
            why = "timed out" if code is None else f"exited with {code}"
            raise RuntimeError(f"{role} child for {workload} {why}:\n{tail}")
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def emit(name: str, value, unit: str, note: str = "") -> None:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<42} {shown:>14} {unit:<10} {note}".rstrip())


def describe(full: dict) -> None:
    """What a run did and whether its science held."""
    print(f"  trials per app: {full['trials']}   attempted: "
          f"{full['attempted']}   failed: {full['failed']}   "
          f"resumed: {full['resumed_trials']}")
    print(f"  raw seconds: set-up {full['setup_raw_s']:.3f}  campaigns "
          f"{full['campaign_raw_s']:.3f}  wall {full['wall_raw_s']:.3f}  "
          f"(host ran at {full['wall_s'] / full['wall_raw_s']:.3f} of "
          f"reference speed)")
    for app, sc in full["science"].items():
        verdict = "ok" if sc["ok"] else \
            f"MISMATCH (expected {sc['expected'][:12]})"
        print(f"  science {app:<8} {sc['hash'][:12]}  {verdict}  "
              f"[{sc['how']}]")


def end_to_end(full: dict, setups) -> dict:
    return {"setup_s": statistics.median(setups),
            "trials_per_s": full["trials_per_s"],
            "wall_s": full["wall_s"],
            "peak_rss_mb": full["peak_rss_mb"]}


def result_line(spec_metrics, values: dict, full: dict) -> str:
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec_metrics if m["name"] in values}
    return json.dumps({"correct": bool(full["correct"]),
                       "attempted": full["attempted"],
                       "failed": full["failed"], "metrics": metrics})


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------

def layer_metrics(workload: str, seed: int, seconds: float,
                  untraced_wall: float, probes: dict):
    """One traced run folded with the probes; returns (values, run)."""
    traced = run_child("run", workload, seed=seed, seconds=seconds, trace=1)
    values = dict(probes["layer"])
    values.update(traced["layer"])
    values["obs.trace_overhead_frac"] = \
        traced["wall_s"] / untraced_wall - 1.0
    return values, traced


def drive(args) -> int:
    """One measurement of one workload, as BENCHMARK.json describes."""
    spec = load_spec()
    known = dict(seed=args.seed, seconds=args.seconds)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    if not args.trace:
        setups = [run_child("setup", args.workload, **known)["setup_s"]
                  for _ in range(SETUP_ONLY_RUNS)]
        full = run_child("run", args.workload, **known)
        values = end_to_end(full, setups + [full["setup_s"]])
        wanted = spec["end_to_end"]
    else:
        probes = run_child("probes", **known)
        full = run_child("run", args.workload, **known)
        values, traced = layer_metrics(args.workload, args.seed,
                                       args.seconds, full["wall_s"], probes)
        full = dict(traced, correct=traced["correct"] and full["correct"],
                    failed=traced["failed"] + full["failed"],
                    attempted=traced["attempted"] + full["attempted"])
        wanted = spec["per_layer"]
        report_missing(wanted, values, probes)
    describe(full)
    for m in wanted:
        if m["name"] in values:
            emit(m["name"], values[m["name"]], m["unit"])
    print(result_line(wanted, values, full))
    return 0


def report_missing(wanted, values: dict, probes: dict) -> None:
    missing = sorted({m["name"] for m in wanted} - set(values))
    if missing:
        print(f"  layers_missing: {', '.join(missing)}")
    for name, why in sorted(probes.get("skipped", {}).items()):
        print(f"  probe {name} skipped: {why}")


def commit_id() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def matrix(args) -> int:
    """Every workload, interleaved over ``--reps`` repetitions."""
    import numpy

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    known = dict(seed=args.seed, seconds=args.seconds)
    header = {
        "commit": commit_id(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "seed": args.seed, "seconds": args.seconds, "reps": args.reps,
        "trials": {n: workloads.WORKLOADS[n].scaled(args.seconds).trials
                   for n in names},
    }
    print(json.dumps(header))
    for name in names:  # one untimed warm-up run each
        run_child("run", name, **known)
    runs = {n: [] for n in names}
    for rep in range(args.reps):
        for name in names:  # A B C D, A B C D: host drift lands evenly
            runs[name].append(run_child("run", name, **known))
            print(f"rep {rep + 1}/{args.reps} {name}: "
                  f"{runs[name][-1]['wall_s']:.2f} s", flush=True)
    probes = run_child("probes", **known)
    report = {"header": header, "workloads": {}}
    ok = True
    for name in names:
        reps = runs[name]
        print(f"\n== {name}  (n={len(reps)}: median, IQR/median)")
        describe(reps[-1])
        e2e = {}
        for m in spec["end_to_end"]:
            series = [end_to_end(r, [r["setup_s"]])[m["name"]] for r in reps]
            e2e[m["name"]] = {"median": statistics.median(series),
                              "spread": ledger.spread(series),
                              "values": series, "unit": m["unit"]}
            emit(m["name"], e2e[m["name"]]["median"], m["unit"],
                 f"spread {100 * e2e[m['name']]['spread']:.2f} %")
        failed = sum(r["failed"] for r in reps)
        attempted = sum(r["attempted"] for r in reps)
        emit("failed_trial_frac", failed / attempted, "fraction",
             f"{failed} of {attempted}")
        layer, traced = layer_metrics(name, args.seed, args.seconds,
                                      e2e["wall_s"]["median"], probes)
        report_missing(spec["per_layer"], layer, probes)
        for m in spec["per_layer"]:
            if m["name"] in layer:
                emit(m["name"], layer[m["name"]], m["unit"])
        ok = ok and all(r["correct"] for r in reps) and traced["correct"]
        report["workloads"][name] = {
            "end_to_end": e2e, "per_layer": layer,
            "failed": failed, "attempted": attempted,
            "science": reps[-1]["science"]}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    print("\ncorrect:", ok)
    return 0 if ok else 1


def bless(args) -> int:
    """Recompute ``reference.json`` on the cold serial path."""
    reference = load_reference()
    for seed in sorted(set(BLESSED_SEEDS) | {args.seed}):
        for name in workloads.WORKLOADS:
            got = run_child("reference", name, seed=seed,
                            seconds=args.seconds)
            reference.setdefault(name, {})[str(seed)] = {
                "seconds": args.seconds, "apps": got["apps"]}
            print(f"blessed {name} seed {seed}: "
                  + ", ".join(f"{a} {v['hash'][:12]}"
                              for a, v in got["apps"].items()), flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                         + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    default=workloads.NOMINAL_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reps", type=int, default=5,
                    help="repetitions per workload in matrix mode")
    ap.add_argument("--out", help="matrix mode: also write the report here")
    ap.add_argument("--bless", action="store_true")
    args = ap.parse_args(argv)
    build()
    try:
        if args.bless:
            return bless(args)
        if args.workload:
            return drive(args)
        return matrix(args)
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            WORK.rmdir()  # empty unless another run.py is still going
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
