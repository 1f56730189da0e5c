"""Campaign persistence: JSON summaries and CSV trial tables.

Campaigns are expensive (the paper ran 5,000 trials per application on a
1,024-core cluster); these helpers save results for later analysis and
reload them without re-running anything.  The JSON form round-trips a
full :class:`~repro.inject.campaign.CampaignResult`, including the
per-trial CML(t) series when retained.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..inject.health import CampaignHealth
from ..vm.machine import FaultSpec

_FORMAT_VERSION = 1


def _trial_to_dict(t: TrialResult) -> dict:
    d = {
        "outcome": t.outcome,
        "trap_kind": t.trap_kind,
        "faults": [
            {"rank": f.rank, "occurrence": f.occurrence, "bit": f.bit,
             "operand": f.operand}
            for f in t.faults
        ],
        "injected_cycles": list(t.injected_cycles),
        "injected_occurrences": list(t.injected_occurrences),
        "injected_sites": list(t.injected_sites),
        "iterations": t.iterations,
        "cycles": t.cycles,
        "final_cml": t.final_cml,
        "peak_cml": t.peak_cml,
        "peak_cml_fraction": t.peak_cml_fraction,
        "ever_contaminated": t.ever_contaminated,
        "ranks_contaminated": t.ranks_contaminated,
        "first_contamination": [
            c if c is not None else None for c in t.first_contamination
        ],
    }
    if t.failure_kind is not None:
        d["failure_kind"] = t.failure_kind
        d["failure_detail"] = t.failure_detail
    if t.retries:
        d["retries"] = t.retries
    if t.pruned_at_cycle is not None:
        d["pruned_at_cycle"] = t.pruned_at_cycle
    if t.forked_at_cycle is not None:
        d["forked_at_cycle"] = t.forked_at_cycle
    if t.pages_copied is not None:
        d["pages_copied"] = t.pages_copied
    if t.stage_timings:
        d["stage_timings"] = dict(t.stage_timings)
    if t.times is not None:
        d["series"] = {
            "times": t.times.tolist(),
            "cml": t.cml.tolist(),
            "live": t.live.tolist() if t.live is not None else None,
            "ranks": (t.ranks_series.tolist()
                      if t.ranks_series is not None else None),
        }
    # the live CML stream round-trips; the in-flight obs payload is
    # driver transport and is deliberately never exported
    if t.cml_stream is not None:
        d["cml_stream"] = t.cml_stream.tolist()
    return d


def _trial_from_dict(d: dict) -> TrialResult:
    # lazy: inject.campaign imports this package (analysis.classify)
    from ..inject.campaign import TrialResult

    t = TrialResult(
        outcome=d["outcome"],
        trap_kind=d.get("trap_kind"),
        faults=tuple(
            FaultSpec(rank=f["rank"], occurrence=f["occurrence"],
                      bit=f.get("bit"), operand=f.get("operand"))
            for f in d.get("faults", [])
        ),
        injected_cycles=tuple(d.get("injected_cycles", [])),
        injected_occurrences=tuple(d.get("injected_occurrences", [])),
        injected_sites=tuple(d.get("injected_sites", [])),
        iterations=d["iterations"],
        cycles=d["cycles"],
        final_cml=d.get("final_cml", 0),
        peak_cml=d.get("peak_cml", 0),
        peak_cml_fraction=d.get("peak_cml_fraction", 0.0),
        ever_contaminated=d.get("ever_contaminated", False),
        ranks_contaminated=d.get("ranks_contaminated", 0),
        first_contamination=tuple(d.get("first_contamination", [])),
        failure_kind=d.get("failure_kind"),
        failure_detail=d.get("failure_detail"),
        retries=d.get("retries", 0),
        pruned_at_cycle=d.get("pruned_at_cycle"),
        forked_at_cycle=d.get("forked_at_cycle"),
        pages_copied=d.get("pages_copied"),
        stage_timings=d.get("stage_timings"),
    )
    series = d.get("series")
    if series is not None:
        t.times = np.asarray(series["times"], dtype=np.int64)
        t.cml = np.asarray(series["cml"], dtype=np.int64)
        if series.get("live") is not None:
            t.live = np.asarray(series["live"], dtype=np.int64)
        if series.get("ranks") is not None:
            t.ranks_series = np.asarray(series["ranks"], dtype=np.int64)
    if d.get("cml_stream") is not None:
        t.cml_stream = np.asarray(
            d["cml_stream"], dtype=np.int64).reshape(-1, 2)
    return t


def campaign_to_json(campaign: CampaignResult) -> str:
    """Serialise a campaign (including retained series) to JSON text."""
    payload = {
        "format": _FORMAT_VERSION,
        "app_name": campaign.app_name,
        "mode": campaign.mode,
        "n_faults": campaign.n_faults,
        "seed": campaign.seed,
        "golden_iterations": campaign.golden_iterations,
        "golden_cycles": campaign.golden_cycles,
        "golden_rank_cycles": list(campaign.golden_rank_cycles),
        "inj_counts": list(campaign.inj_counts),
        "effective_workers": campaign.effective_workers,
        "health": campaign.health.to_dict() if campaign.health else None,
        "metrics": campaign.metrics,
        "trials": [_trial_to_dict(t) for t in campaign.trials],
    }
    return json.dumps(payload)


def campaign_from_json(text: str) -> CampaignResult:
    d = json.loads(text)
    if d.get("format") != _FORMAT_VERSION:
        raise ValueError(f"unsupported campaign format {d.get('format')!r}")
    from ..inject.campaign import CampaignResult

    return CampaignResult(
        app_name=d["app_name"],
        mode=d["mode"],
        n_faults=d["n_faults"],
        seed=d["seed"],
        golden_iterations=d["golden_iterations"],
        golden_cycles=d["golden_cycles"],
        golden_rank_cycles=tuple(d.get("golden_rank_cycles", [])),
        inj_counts=tuple(d["inj_counts"]),
        trials=[_trial_from_dict(t) for t in d["trials"]],
        effective_workers=d.get("effective_workers", 1),
        health=(CampaignHealth.from_dict(d["health"])
                if d.get("health") else None),
        metrics=d.get("metrics"),
    )


def save_campaign(campaign: CampaignResult, path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_text(campaign_to_json(campaign))
    return path


def load_campaign(path: Union[str, Path]) -> CampaignResult:
    return campaign_from_json(Path(path).read_text())


def trials_to_csv(campaign: CampaignResult,
                  path: Optional[Union[str, Path]] = None) -> str:
    """One row per trial, flat columns — loads straight into pandas/R."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([
        "trial", "outcome", "trap_kind", "rank", "occurrence", "bit",
        "injected_cycle", "site", "iterations", "cycles", "final_cml",
        "peak_cml", "peak_cml_fraction", "ever_contaminated",
        "ranks_contaminated",
    ])
    for i, t in enumerate(campaign.trials):
        fault = t.faults[0] if t.faults else None
        writer.writerow([
            i, t.outcome, t.trap_kind or "",
            fault.rank if fault else "",
            fault.occurrence if fault else "",
            fault.bit if fault is not None and fault.bit is not None else "",
            t.injected_cycles[0] if t.injected_cycles else "",
            t.injected_sites[0] if t.injected_sites else "",
            t.iterations, t.cycles, t.final_cml, t.peak_cml,
            f"{t.peak_cml_fraction:.6f}", int(t.ever_contaminated),
            t.ranks_contaminated,
        ])
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text
