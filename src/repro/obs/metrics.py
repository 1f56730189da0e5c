"""Process-local metrics: counters, gauges, histograms, exposition.

A :class:`MetricsRegistry` is a plain in-memory table keyed by
``(metric name, sorted label items)``.  Worker processes record into a
per-trial registry (see :mod:`repro.obs.runtime`) whose contents travel
back to the campaign driver with the trial result and are merged into
the campaign-wide registry there — so pool and serial execution produce
identical aggregates and nothing needs a lock.

Exposition formats:

* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text format
  (``# HELP`` / ``# TYPE`` headers, ``_bucket{le=...}`` histograms);
* :meth:`MetricsRegistry.to_dict` — a JSON-ready nested dict that
  :meth:`MetricsRegistry.merge` consumes, used both for worker->driver
  deltas and for persisting alongside a campaign.

:func:`parse_prometheus` is the matching well-formedness check used by
the tests and the CI smoke step.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ObservabilityError

#: default latency buckets, seconds (trial stages run µs..minutes)
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0,
)

#: registered metric help strings — one place, so worker and driver
#: registries expose identical metadata
DESCRIPTIONS: Dict[str, str] = {
    "repro_trials_total": "Completed campaign trials by outcome.",
    "repro_trial_retries_total": "Trial re-executions after a harness failure.",
    "repro_trials_quarantined_total":
        "Trials recorded as HARNESS_FAILURE after exhausting retries.",
    "repro_worker_respawns_total":
        "Replacement workers spawned after a crash or watchdog kill.",
    "repro_watchdog_kills_total":
        "Workers killed by the per-trial wall-clock watchdog.",
    "repro_trial_stage_seconds":
        "Wall seconds per trial execution stage.",
    "repro_injections_total": "Armed faults that actually fired.",
    "repro_msgs_total": "Simulated MPI point-to-point messages sent.",
    "repro_msgs_contaminated_total":
        "Messages carrying a non-empty contamination header.",
    "repro_words_sent_total": "Words sent over simulated MPI P2P.",
    "repro_contaminated_words_total":
        "Contaminated words carried in message headers.",
    "repro_trials_pruned_total":
        "Trials finished early by golden-trajectory convergence pruning.",
    "repro_cycles_pruned_total":
        "Virtual cycles spliced from the golden tail instead of executed.",
    "repro_trials_forked_total":
        "Trials executed COW-forked off a shared golden world.",
    "repro_pages_copied_total":
        "Memory pages copied by trial COW transactions.",
    "repro_fork_fallback_total":
        "Fork-at-injection trials degraded to a cold run from cycle 0.",
    "repro_tier2_enters_total":
        "Compiled regions entered (static and golden-plan ones alike).",
    "repro_tier2_deopts_total":
        "Region exits off the golden path (minority-edge guards, traps).",
    "repro_tier2_cycles_total":
        "Virtual cycles executed inside compiled regions (static included).",
    "repro_tier2_variants_compiled_total":
        "Regions compiled on their first entry (at most once per slot).",
    "repro_tier2_suspends_total":
        "Quantum boundaries a loop region stopped at with registers live.",
    "repro_tier2_resumes_total":
        "Quanta that began by resuming a suspended loop region.",
    "repro_tier2_settles_total":
        "Suspended loop regions flushed to their frame instead of resumed.",
    "repro_shadow_entries":
        "Contaminated memory locations (CML) at the last stream sample.",
    "repro_cml_stream_samples_total":
        "Samples recorded into per-trial CML streams.",
    "repro_campaign_wall_seconds": "Campaign wall-clock time, seconds.",
    "repro_effective_workers": "Worker processes the campaign actually used.",
    "repro_shard_trials_total":
        "Completed trials by the fleet worker slot that ran them.",
}

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelItems:
    if not labels:  # the hot path: unlabelled counters on VM/MPI sites
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_labels(items: LabelItems, extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in items]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Histogram:
    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * len(buckets)  # cumulative on exposition only
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                self.counts[i] += 1
                break

    def to_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """Mutable metric table with Prometheus-text and JSON exposition."""

    def __init__(self) -> None:
        self._counters: Dict[str, Dict[LabelItems, float]] = {}
        self._gauges: Dict[str, Dict[LabelItems, float]] = {}
        self._histograms: Dict[str, Dict[LabelItems, _Histogram]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1, **labels) -> None:
        series = self._counters.setdefault(name, {})
        key = _label_key(labels)
        series[key] = series.get(key, 0) + amount

    def set_gauge(self, name: str, value: float, **labels) -> None:
        self._gauges.setdefault(name, {})[_label_key(labels)] = value

    def observe(self, name: str, value: float,
                buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
                **labels) -> None:
        series = self._histograms.setdefault(name, {})
        key = _label_key(labels)
        hist = series.get(key)
        if hist is None:
            hist = series[key] = _Histogram(buckets)
        hist.observe(value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def counter_value(self, name: str, **labels) -> float:
        return self._counters.get(name, {}).get(_label_key(labels), 0)

    def gauge_value(self, name: str, **labels) -> Optional[float]:
        return self._gauges.get(name, {}).get(_label_key(labels))

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms))

    # ------------------------------------------------------------------
    # Transport: dict round-trip + merge (worker deltas -> driver)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "counters": {
                name: [[list(map(list, key)), value]
                       for key, value in series.items()]
                for name, series in self._counters.items()
            },
            "gauges": {
                name: [[list(map(list, key)), value]
                       for key, value in series.items()]
                for name, series in self._gauges.items()
            },
            "histograms": {
                name: [[list(map(list, key)), hist.to_dict()]
                       for key, hist in series.items()]
                for name, series in self._histograms.items()
            },
        }

    def merge(self, delta: dict) -> None:
        """Fold a :meth:`to_dict` payload in: counters/histograms add,
        gauges take the incoming (latest) value."""
        for name, series in delta.get("counters", {}).items():
            table = self._counters.setdefault(name, {})
            for key, value in series:
                k = tuple(tuple(kv) for kv in key)
                table[k] = table.get(k, 0) + value
        for name, series in delta.get("gauges", {}).items():
            table = self._gauges.setdefault(name, {})
            for key, value in series:
                table[tuple(tuple(kv) for kv in key)] = value
        for name, series in delta.get("histograms", {}).items():
            table = self._histograms.setdefault(name, {})
            for key, h in series:
                k = tuple(tuple(kv) for kv in key)
                hist = table.get(k)
                if hist is None:
                    hist = table[k] = _Histogram(tuple(h["buckets"]))
                if tuple(h["buckets"]) != hist.buckets:
                    raise ObservabilityError(
                        f"histogram {name}: incompatible bucket layouts"
                    )
                for i, c in enumerate(h["counts"]):
                    hist.counts[i] += c
                hist.sum += h["sum"]
                hist.count += h["count"]

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def to_prometheus(self) -> str:
        """Render the registry in the Prometheus text exposition format."""
        lines: List[str] = []

        def _header(name: str, kind: str) -> None:
            help_text = DESCRIPTIONS.get(name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")

        for name in sorted(self._counters):
            _header(name, "counter")
            for key, value in sorted(self._counters[name].items()):
                lines.append(f"{name}{_format_labels(key)} {value:g}")
        for name in sorted(self._gauges):
            _header(name, "gauge")
            for key, value in sorted(self._gauges[name].items()):
                lines.append(f"{name}{_format_labels(key)} {value:g}")
        for name in sorted(self._histograms):
            _header(name, "histogram")
            for key, hist in sorted(self._histograms[name].items()):
                cum = 0
                for edge, c in zip(hist.buckets, hist.counts):
                    cum += c
                    le = _format_labels(key, f'le="{edge:g}"')
                    lines.append(f"{name}_bucket{le} {cum}")
                le = _format_labels(key, 'le="+Inf"')
                lines.append(f"{name}_bucket{le} {hist.count}")
                lines.append(f"{name}_sum{_format_labels(key)} {hist.sum:g}")
                lines.append(f"{name}_count{_format_labels(key)} {hist.count}")
        return "\n".join(lines) + "\n" if lines else ""


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'^([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"$')


def parse_prometheus(text: str) -> Dict[str, Dict[LabelItems, float]]:
    """Strict parse of Prometheus exposition text.

    Returns ``{metric name: {label items: value}}`` and raises
    :class:`~repro.errors.ObservabilityError` on any malformed line —
    the well-formedness gate used by tests and the CI smoke step.
    """
    samples: Dict[str, Dict[LabelItems, float]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE") \
                    or not _NAME_RE.match(parts[2]):
                raise ObservabilityError(
                    f"line {lineno}: malformed comment {line!r}"
                )
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ObservabilityError(f"line {lineno}: malformed sample {line!r}")
        labels: Dict[str, str] = {}
        raw = m.group("labels")
        if raw:
            for part in raw.split(","):
                lm = _LABEL_RE.match(part)
                if lm is None:
                    raise ObservabilityError(
                        f"line {lineno}: malformed label {part!r}"
                    )
                labels[lm.group(1)] = lm.group(2)
        try:
            value = float(m.group("value"))
        except ValueError:
            raise ObservabilityError(
                f"line {lineno}: non-numeric value {m.group('value')!r}"
            )
        if math.isnan(value):
            raise ObservabilityError(f"line {lineno}: NaN sample value")
        samples.setdefault(m.group("name"), {})[
            tuple(sorted(labels.items()))] = value
    return samples
