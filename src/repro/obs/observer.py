"""Campaign-side observability driver: config + the engine's observer.

:class:`ObserveConfig` is the one switch for the whole layer — a small
frozen (picklable) dataclass that travels to pool workers inside the
job tuple.  :class:`CampaignObserver` lives in the campaign driver: it
owns the trace writer and the campaign-wide metrics registry, receives
each completed trial from the execution engine, and writes the trial's
spans/events/CML stream plus merged metrics.

Observability is strictly additive: it never touches the RNG, never
changes a code path that affects execution, and every field it adds to
a trial is excluded from the bit-identity predicate — the equivalence
suites assert that an observed campaign produces byte-for-byte the same
trial outcomes as an unobserved one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Union

from ..core.settings import current_settings
from ..errors import ObservabilityError
from .metrics import MetricsRegistry
from .trace import TraceWriter


@dataclass(frozen=True)
class ObserveConfig:
    """What to observe and where to put it.

    ``trace`` / ``metrics_out`` are driver-side output paths (workers
    never open them); ``events`` gates in-trial span/event collection;
    ``cml`` gates the live CML stream with ``cml_stride`` as its
    virtual-cycle decimation (0 = keep every scheduler sample).
    """

    trace: Optional[str] = None
    metrics_out: Optional[str] = None
    events: bool = True
    cml: bool = True
    cml_stride: int = 0

    @classmethod
    def resolve(cls, observe: Union[None, bool, str, "ObserveConfig"],
                ) -> Optional["ObserveConfig"]:
        """Normalise every accepted ``observe=`` spelling.

        ``None`` defers to the environment (``REPRO_OBS_TRACE`` /
        ``REPRO_OBS_METRICS`` turn observation on); ``False``/``"off"``
        force it off; ``True``/``"on"`` turn it on with environment
        output paths; an :class:`ObserveConfig` passes through.
        """
        if isinstance(observe, ObserveConfig):
            return observe
        if observe is False or observe == "off":
            return None
        settings = current_settings()
        if observe is None:
            if settings.obs_trace is None and settings.obs_metrics is None:
                return None
        elif not (observe is True or observe == "on"):
            raise ObservabilityError(
                f"observe must be None, bool, 'on'/'off' or ObserveConfig, "
                f"got {observe!r}"
            )
        return cls(
            trace=settings.obs_trace,
            metrics_out=settings.obs_metrics,
        )

    def with_outputs(self, trace: Optional[str] = None,
                     metrics_out: Optional[str] = None) -> "ObserveConfig":
        """Copy with output paths overridden (CLI flag plumbing)."""
        out = self
        if trace is not None:
            out = replace(out, trace=str(trace))
        if metrics_out is not None:
            out = replace(out, metrics_out=str(metrics_out))
        return out


class CampaignObserver:
    """Receives engine callbacks; owns the trace file and the registry."""

    def __init__(self, config: ObserveConfig,
                 meta: Optional[dict] = None) -> None:
        self.config = config
        self.metrics = MetricsRegistry()
        self.writer: Optional[TraceWriter] = None
        if config.trace is not None:
            self.writer = TraceWriter(config.trace, meta)
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------------
    # Engine callbacks
    # ------------------------------------------------------------------
    def record_trial(self, index: int, trial,
                     journal_s: Optional[float] = None) -> None:
        """Write one completed trial's records; merge its metrics."""
        payload = getattr(trial, "obs", None)
        if payload is not None:
            self.metrics.merge(payload["metrics"])
            if self.writer is not None:
                for entry in payload["events"]:
                    record = dict(entry)
                    record["trial"] = index
                    self.writer.write(record)
            # events have been persisted; drop the buffer so a large
            # campaign's result list stays lean
            trial.obs = None
        self.metrics.inc("repro_trials_total", outcome=trial.outcome)
        if trial.stage_timings:
            for stage, seconds in trial.stage_timings.items():
                self.metrics.observe(
                    "repro_trial_stage_seconds", seconds, stage=stage)
        if journal_s is not None:
            self.metrics.observe(
                "repro_trial_stage_seconds", journal_s, stage="journal")
        if self.writer is not None:
            if journal_s is not None:
                self.writer.write({
                    "type": "span", "name": "journal", "trial": index,
                    "t0": time.perf_counter() - self._t0 - journal_s,
                    "dur": journal_s,
                })
            self.writer.write({
                "type": "trial", "trial": index,
                "outcome": trial.outcome,
                "cycles": trial.cycles,
                "iterations": trial.iterations,
                "retries": trial.retries,
                "final_cml": trial.final_cml,
                "ranks_contaminated": trial.ranks_contaminated,
            })
            if trial.cml_stream is not None:
                self.writer.write({
                    "type": "cml", "trial": index,
                    "series": trial.cml_stream.tolist(),
                })

    def event(self, name: str, trial: Optional[int] = None, **attrs) -> None:
        """Engine-level supervision event (watchdog kill, respawn, ...)."""
        if self.writer is not None:
            record = {
                "type": "event", "name": name, "trial": trial,
                "t": time.perf_counter() - self._t0,
            }
            if attrs:
                record["attrs"] = attrs
            self.writer.write(record)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def finalize(self, health=None) -> dict:
        """Flush outputs; returns the campaign metrics as a dict."""
        if health is not None:
            self.metrics.set_gauge(
                "repro_campaign_wall_seconds", health.wall_time_s)
            self.metrics.set_gauge(
                "repro_effective_workers", health.effective_workers)
        if self.config.metrics_out is not None:
            Path(self.config.metrics_out).write_text(
                self.metrics.to_prometheus())
        if self.writer is not None:
            self.writer.close()
        return self.metrics.to_dict()
