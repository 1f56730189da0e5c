"""Plain-text rendering of the paper's tables and figures.

Benchmarks print these; EXPERIMENTS.md embeds them.  Each renderer takes
already-computed analysis results, so it is cheap and side-effect free.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


def render_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Fixed-width text table."""
    cols = [[str(h)] for h in headers]
    for row in rows:
        for c, cell in zip(cols, row):
            c.append(str(cell))
    widths = [max(len(v) for v in col) for col in cols]
    def fmt(values):
        return "  ".join(v.rjust(w) for v, w in zip(values, widths))
    lines = [fmt([c[0] for c in cols])]
    lines.append("  ".join("-" * w for w in widths))
    for i in range(1, len(cols[0])):
        lines.append(fmt([c[i] for c in cols]))
    return "\n".join(lines)


def render_outcome_table(fractions_by_app: Dict[str, Dict[str, float]],
                         blackbox: bool = True) -> str:
    """Fig. 6 as a table: outcome percentages per application."""
    if blackbox:
        keys = ["CO", "WO", "PEX", "C"]
    else:
        keys = ["V", "ONA", "WO", "PEX", "C"]
    rows = []
    for app, fr in fractions_by_app.items():
        rows.append([app] + [f"{100 * fr.get(k, 0.0):.1f}%" for k in keys])
    return render_table(["app"] + keys, rows)


def render_fps_table(fps_results: Sequence) -> str:
    """Table 2: FPS factors and standard deviations per application."""
    rows = [
        [r.app_name, f"{r.fps:.4e}", f"{r.std:.2e}", r.n_trials]
        for r in fps_results
    ]
    return render_table(["App.", "FPS (CML/cycle)", "SDev", "profiles"], rows)


def render_health_summary(health, quarantined_trials: Optional[Sequence] = None) -> str:
    """Post-campaign supervision summary (engine health, not science).

    Takes a :class:`~repro.inject.health.CampaignHealth`; pass the
    quarantined :class:`TrialResult` records to also list each lost
    trial's failure kind and detail.
    """
    lines = [
        f"engine: {health.effective_workers} worker(s)"
        + (f" (of {health.requested_workers} requested)"
           if health.requested_workers > health.effective_workers else "")
        + f", wall time {health.wall_time_s:.1f}s"
    ]
    if getattr(health, "executor", "serial") == "remote":
        lines.append(f"executor: {health.executor}, "
                     f"{health.shards} shard(s)")
    if health.resumed_trials:
        lines.append(f"resumed: {health.resumed_trials} trial(s) "
                     "restored from journal")
    timings = getattr(health, "stage_timings", None)
    if timings:
        order = ["artifact_load", "fork_advance", "execute"]
        parts = [f"{stage} {timings[stage]:.2f}s"
                 for stage in order if stage in timings]
        parts += [f"{stage} {secs:.2f}s"
                  for stage, secs in sorted(timings.items())
                  if stage not in order]
        lines.append("stage totals: " + ", ".join(parts))
    if getattr(health, "pruned_trials", 0):
        lines.append(
            f"pruned: {health.pruned_trials} trial(s) converged to the "
            f"golden trajectory early ({health.pruned_cycles} cycles "
            f"spliced instead of executed)"
        )
    if getattr(health, "forked_trials", 0):
        lines.append(
            f"forked: {health.forked_trials} trial(s) ran copy-on-write "
            f"off the shared golden world ({health.pages_copied} page(s) "
            f"privatised)"
        )
    if getattr(health, "journal_recovered_records", 0):
        lines.append(
            f"journal recovery: {health.journal_recovered_records} torn/"
            f"corrupt record(s) dropped; their trials re-executed"
        )
    if getattr(health, "artifacts_quarantined", 0):
        lines.append(
            f"artifacts: {health.artifacts_quarantined} corrupt golden "
            f"artifact(s) quarantined and re-materialised"
        )
    if getattr(health, "io_retries", 0):
        lines.append(f"io: {health.io_retries} transient IO failure(s) "
                     f"absorbed by backoff retry")
    if getattr(health, "degraded", False):
        steps = [e.get("type", "?") for e in health.degradation_events]
        lines.append(
            f"degraded: {health.pool_shrinks} pool shrink(s)"
            + (", serial fallback" if health.serial_fallback else "")
            + f" — ladder events: {steps}"
        )
    if health.clean:
        lines.append("supervision: clean — no retries, no failures")
        return "\n".join(lines)
    lines.append(
        f"supervision: {health.retries} retr"
        f"{'y' if health.retries == 1 else 'ies'}, "
        f"{health.timeouts} watchdog timeout(s), "
        f"{health.worker_crashes} worker crash(es), "
        f"{health.trial_exceptions} trial exception(s), "
        f"{health.worker_respawns} worker respawn(s)"
    )
    if health.quarantined:
        lines.append(f"quarantined: {len(health.quarantined)} trial(s) "
                     f"recorded as HARNESS_FAILURE: "
                     f"{list(health.quarantined)}")
        for index, trial in zip(health.quarantined, quarantined_trials or ()):
            lines.append(f"  trial {index}: {trial.failure_kind} — "
                         f"{trial.failure_detail}")
    return "\n".join(lines)


def render_histogram(
    counts: Sequence[int],
    *,
    width: int = 60,
    label: str = "bin",
) -> str:
    """ASCII bar rendering of a histogram (Fig. 5 style)."""
    counts = list(counts)
    if not counts:
        return "(empty)"
    peak = max(max(counts), 1)
    lines = []
    for i, c in enumerate(counts):
        bar = "#" * max(1 if c > 0 else 0, round(width * c / peak))
        lines.append(f"{label}{i:4d} |{bar} {c}")
    return "\n".join(lines)


def render_series(
    series: Sequence[Tuple[float, float]],
    *,
    width: int = 64,
    height: int = 16,
) -> str:
    """Coarse ASCII plot of a time series (Fig. 7/8 profile shapes)."""
    pts = list(series)
    if len(pts) < 2:
        return "(series too short)"
    ts = np.array([p[0] for p in pts], dtype=float)
    ys = np.array([p[1] for p in pts], dtype=float)
    t0, t1 = ts.min(), ts.max()
    y0, y1 = ys.min(), ys.max()
    if t1 == t0 or y1 == y0:
        return "(degenerate series)"
    grid = [[" "] * width for _ in range(height)]
    for t, y in pts:
        xi = min(width - 1, int((t - t0) / (t1 - t0) * (width - 1)))
        yi = min(height - 1, int((y - y0) / (y1 - y0) * (height - 1)))
        grid[height - 1 - yi][xi] = "*"
    lines = [f"{y1:12.1f} +" + "".join(grid[0])]
    for row in grid[1:-1]:
        lines.append(" " * 13 + "|" + "".join(row))
    lines.append(f"{y0:12.1f} +" + "".join(grid[-1]))
    lines.append(" " * 14 + f"t: [{t0:.0f} .. {t1:.0f}] cycles")
    return "\n".join(lines)


def render_downsampled_profile(times, cml, n_points: int = 24) -> str:
    """One-line-per-sample numeric profile (embeds well in reports)."""
    times = np.asarray(times)
    cml = np.asarray(cml)
    if times.size == 0:
        return "(empty profile)"
    idx = np.unique(np.linspace(0, times.size - 1, n_points).astype(int))
    rows = [[int(times[i]), int(cml[i])] for i in idx]
    return render_table(["t (cycles)", "CML"], rows)
