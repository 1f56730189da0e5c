"""One hermetic repetition of a ledger workload, in a fresh process.

``run.py`` starts this file once per repetition with every ``REPRO_*``
variable stripped, and reads the JSON it leaves at ``--out``.  Roles:

* ``setup``     — import + prepare every app of the workload, then exit
* ``run``       — set-up, campaigns (+ resume, + FPS fit), science check;
                  ``--trace 1`` adds observation, a ``progress`` callback
                  and the per-layer fold
* ``reference`` — the whole workload on the cold serial path, for
                  ``run.py --bless``
* ``probes``    — the layer probes of ``probes.py``

The program is driven only through ``repro.__all__`` plus the public
journal functions; timing starts at ``--t0``, the instant the parent
launched this process.  Every reported duration is normalised to the
reference host speed (:class:`ledger.HostClock`); the raw seconds are
reported beside it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import ledger
import workloads

HF = "HF"  # Outcome.HARNESS_FAILURE.value


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped descendant."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def set_up(w, log, workdir: Path):
    """Import the package and prepare every app; returns (repro, sessions)."""
    with log.span("import", start=0.0):
        import repro
    art = str(workdir / "artifacts") if w.journaled else None
    sessions = {}
    for app in w.apps:
        with log.span(f"prepare:{app}"):
            sessions[app] = repro.Session(app, mode=w.mode,
                                          artifact_dir=art)
            sessions[app].golden()
    return repro, sessions


def journal_shards(path: Path) -> dict:
    """Trial index -> shard tag of a journal's intact-looking frames."""
    shards = {}
    for line in path.read_bytes().splitlines()[1:]:
        entry = ledger.frame_entry(line)
        if entry is not None and isinstance(entry.get("index"), int):
            shards[entry["index"]] = entry.get("shard") or 0
    return shards


def timed_call(log, kind: str, app: str, fn, kwargs: dict, workdir: Path,
               traced: bool, repro, journal=None):
    """One campaign/resume call under a harness span.

    Returns ``(result, call)`` where ``call`` is what :func:`ledger.fold`
    needs; only a traced call observes and listens to ``progress``.
    """
    ticks = []
    if traced:
        stem = workdir / f"{kind}-{app}"
        kwargs = dict(kwargs, observe=repro.ObserveConfig(
            trace=f"{stem}.trace.jsonl", metrics_out=f"{stem}.prom"))
        t0 = time.perf_counter()
        kwargs["progress"] = \
            lambda done, total: ticks.append(time.perf_counter() - t0)
    with log.span(f"{kind}:{app}") as span:
        result = fn(**kwargs)
    call = {"kind": kind, "app": app, "start": span["start"],
            "end": span["end"], "ticks": ticks, "health": result.health}
    if traced:
        call["stage_totals"] = dict(
            getattr(result.health, "stage_timings", {}))
        call["trial_stages"] = {
            i: dict(getattr(t, "stage_timings", None) or {})
            for i, t in enumerate(result.trials)}
        call["trace"] = ledger.read_trace_spans(f"{stem}.trace.jsonl")
        call["shards"] = journal_shards(journal) if journal else {}
        call["metrics"] = result.metrics or {}
    return result, call


def counter(metrics: dict, name: str, **labels) -> float:
    """Sum of a counter's series matching ``labels`` in a metrics dict."""
    total = 0.0
    for key, value in metrics.get("counters", {}).get(name, []):
        have = dict(map(tuple, key))
        if all(have.get(k) == v for k, v in labels.items()):
            total += value
    return total


def exact_counts(calls, finals) -> dict:
    """Counts that repeat exactly for one (workload, seed, seconds).

    Health fields describe each app's final result (after a resume, the
    whole campaign); metric counters add up every call, so they cover
    every trial actually executed.
    """
    def health(field):
        return sum(getattr(r.health, field, 0) or 0 for r in finals)

    def metric(name, **labels):
        return sum(counter(c["metrics"], name, **labels) for c in calls)

    trials = sum(len(r.trials) for r in finals)
    hits = metric("repro_snapshot_lookup_total", result="hit")
    lookups = hits + metric("repro_snapshot_lookup_total", result="miss")
    enters = metric("repro_tier2_enters_total")
    return {
        "inject.prune_hit_ratio":
            health("pruned_trials") / trials if trials else 0.0,
        "inject.pruned_cycles": health("pruned_cycles"),
        "inject.forked_trials": health("forked_trials"),
        "inject.lane_trials": health("lane_trials"),
        "inject.pages_copied": health("pages_copied"),
        "inject.snapshot_hit_ratio": hits / lookups if lookups else 0.0,
        "vm.tier2_cycles": metric("repro_tier2_cycles_total"),
        "vm.tier2_deopt_ratio":
            metric("repro_tier2_deopts_total") / enters if enters else 0.0,
        "mpi.msgs_total": metric("repro_msgs_total"),
        "mpi.msgs_contaminated": metric("repro_msgs_contaminated_total"),
        "fpm.contaminated_words": metric("repro_contaminated_words_total"),
        "inject.retries": sum(getattr(c["health"], "retries", 0)
                              for c in calls),
    }


# ----------------------------------------------------------------------
# Science check
# ----------------------------------------------------------------------

def write_journal(path: Path, trials) -> Path:
    """Write trials (in index order) to a fresh journal, for hashing."""
    from repro.inject.journal import CampaignJournal

    with CampaignJournal.create(path, {}) as journal:
        for i, trial in enumerate(trials):
            journal.append_trial(i, trial)
    return path


def cold_hash(repro, w, app: str, trials: int, seed: int, path: Path) -> str:
    """Science hash of ``trials`` trials of a campaign on the cold serial
    path: every trial from cycle 0 on the plain interpreter."""
    from repro.inject.journal import journal_science_hash

    kwargs = {"mode": w.mode, "keep_series": w.mode == "fpm"}
    kwargs.update(workloads.cold_knobs(repro.run_campaign))
    repro.run_campaign(app, trials, seed=seed, journal=str(path), **kwargs)
    return journal_science_hash(path)


def check_science(repro, w, seed: int, finals: dict, journals: dict,
                  reference: dict, workdir: Path) -> dict:
    """Compare every app's result with the cold path.

    A committed reference for this (workload, seed, trial count) is
    compared as a whole — against the workload's own journal where it
    has one.  Without one, the first ``check_trials`` fault plans (a
    campaign's plans are drawn in order from its seed, so a shorter
    campaign is a prefix) are re-run cold here, untimed, and compared.
    """
    from repro.inject.journal import journal_science_hash

    out = {}
    for app, result in finals.items():
        cseed = workloads.campaign_seed(seed, w.name, app)
        ref = reference.get(app)
        if ref and ref.get("trials") == w.trials:
            path = journals.get(app) or write_journal(
                workdir / f"science-{app}.jsonl", result.trials)
            got, want, how = journal_science_hash(path), ref["hash"], \
                "committed reference"
        else:
            k = min(w.check_trials, w.trials)
            got = journal_science_hash(write_journal(
                workdir / f"science-{app}.jsonl", result.trials[:k]))
            want = cold_hash(repro, w, app, k, cseed,
                             workdir / f"cold-{app}.jsonl")
            how = f"no committed reference: first {k} trial(s) re-run cold"
        out[app] = {"hash": got, "expected": want, "how": how,
                    "ok": got == want}
    return out


# ----------------------------------------------------------------------
# Roles
# ----------------------------------------------------------------------

def role_setup(w, args, log) -> dict:
    set_up(w, log, args.workdir)
    done = log.now()
    return {"setup_s": log.clock.normalised(0.0, done), "setup_raw_s": done,
            "peak_rss_mb": peak_rss_mb()}


def role_run(w, args, log) -> dict:
    workdir, traced = args.workdir, bool(args.trace)
    clock = log.clock
    repro, sessions = set_up(w, log, workdir)
    setup_done = log.now()
    calls, finals, journals, fps = [], {}, {}, {}
    untimed = untimed_raw = 0.0
    for app in w.apps:
        kwargs = dict(w.campaign_kwargs(),
                      seed=workloads.campaign_seed(args.seed, w.name, app))
        if w.journaled:
            journals[app] = workdir / f"{app}.journal.jsonl"
            kwargs.update(journal=str(journals[app]),
                          artifact_dir=str(workdir / "artifacts"))
        result, call = timed_call(
            log, "campaign", app,
            lambda **kw: repro.run_campaign(app, w.trials, **kw),
            kwargs, workdir, traced, repro, journals.get(app))
        calls.append(call)
        if w.resume:
            with log.span(f"cut:{app}") as cut:
                ledger.cut_journal(journals[app], w.trials - w.resumed)
            untimed += clock.normalised(cut["start"], cut["end"])
            untimed_raw += ledger.duration(cut)
            result, call = timed_call(
                log, "resume", app,
                lambda **kw: repro.resume_campaign(str(journals[app]), **kw),
                w.resume_kwargs(), workdir, traced, repro, journals[app])
            calls.append(call)
        finals[app] = result
    if w.fit:
        for app in w.apps:
            with log.span(f"fit:{app}"):
                try:
                    fps[app] = sessions[app].fps(finals[app]).fps
                except repro.ReproError as exc:
                    # no trial of this campaign propagated far enough to
                    # fit: a science result, not a failure
                    fps[app] = f"no fit: {exc}"
    done = log.now()
    rss = peak_rss_mb()
    wall_s = clock.normalised(0.0, done) - untimed
    wall_raw_s = done - untimed_raw
    campaign_s = sum(clock.normalised(c["start"], c["end"]) for c in calls)
    science = check_science(repro, w, args.seed, finals, journals,
                            args.reference, workdir)
    failed = 0
    for app, result in finals.items():
        if not science[app]["ok"]:
            failed += w.trials + w.resumed
        else:
            failed += sum(t.outcome == HF for t in result.trials)
    resumed = sum(getattr(r.health, "resumed_trials", 0)
                  for r in finals.values())
    out = {
        "setup_s": clock.normalised(0.0, setup_done),
        "setup_raw_s": setup_done,
        "wall_s": wall_s, "wall_raw_s": wall_raw_s,
        "campaign_s": campaign_s,
        "campaign_raw_s": sum(c["end"] - c["start"] for c in calls),
        "trials_per_s": w.attempted / campaign_s,
        "peak_rss_mb": rss, "attempted": w.attempted, "failed": failed,
        "resumed_trials": resumed,
        "correct": failed == 0 and resumed == len(w.apps) * (
            w.trials - w.resumed if w.resume else 0),
        "science": science, "fps": fps,
        "outcomes": {app: r.fractions() for app, r in finals.items()},
    }
    if traced:
        layer = ledger.fold(log.spans, calls, wall_raw_s, w.workers,
                            scale=wall_s / wall_raw_s)
        layer.update(exact_counts(calls, list(finals.values())))
        out["layer"] = layer
    return out


def role_reference(w, args, log) -> dict:
    import repro

    apps = {}
    for app in w.apps:
        cseed = workloads.campaign_seed(args.seed, w.name, app)
        apps[app] = {"trials": w.trials, "hash": cold_hash(
            repro, w, app, w.trials, cseed,
            args.workdir / f"reference-{app}.jsonl")}
    return {"apps": apps}


def role_probes(w, args, log) -> dict:
    import probes

    return probes.run_all(log, args.workdir)


ROLES = {"setup": role_setup, "run": role_run, "reference": role_reference,
         "probes": role_probes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("role", choices=sorted(ROLES))
    ap.add_argument("--workload", default=None)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    default=workloads.NOMINAL_SECONDS)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--reference", type=json.loads, default={},
                    help="committed {app: {trials, hash}} for this "
                         "workload and seed, as JSON")
    args = ap.parse_args(argv)
    w = None
    if args.workload is not None:
        w = workloads.WORKLOADS[args.workload].scaled(args.seconds)
    clock = ledger.HostClock(args.t0).start()
    log = ledger.SpanLog(f"{args.role}:{args.workload}:{args.seed}", clock)
    with log.span("run", start=0.0):
        out = ROLES[args.role](w, args, log)
    clock.stop()
    out.update(role=args.role, workload=args.workload, seed=args.seed,
               seconds=args.seconds, trials=w.trials if w else None,
               spans=log.spans)
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
