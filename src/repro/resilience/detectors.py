"""Detection-latency models over measured propagation traces.

Paper footnote 3: "We assume that the fault is detected when it occurs.
In reality, there might be a delay between the occurrence and the
detection of the fault Δt that needs to be taken into account in the
computation of b."  These detectors replay a campaign's CML(t) traces
through idealised detection mechanisms and measure that Δt empirically,
so Eq. 2's correction can be calibrated per deployment:

* :class:`IntervalDetector` — a check (checksum, invariant scan) runs
  every ``period`` cycles and sees any contamination present;
* :class:`ThresholdDetector` — contamination is only noticeable once it
  reaches ``min_cml`` locations (weak symptom-based detection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np


class Detector:
    """Maps one trial's (times, cml, fault time) to a detection time."""

    name = "abstract"

    def detect(self, times: np.ndarray, cml: np.ndarray,
               t_fault: int) -> Optional[int]:
        raise NotImplementedError


class IntervalDetector(Detector):
    """Perfect periodic check: fires at the first boundary with CML > 0."""

    name = "interval"

    def __init__(self, period: int) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.period = period

    def detect(self, times, cml, t_fault):
        contaminated = times[cml > 0]
        if contaminated.size == 0:
            return None
        t0 = int(contaminated[0])
        boundary = ((t0 + self.period - 1) // self.period) * self.period
        # contamination could heal before the check; verify it is still
        # visible at (or after) the boundary
        visible = times >= boundary
        if not visible.any():
            return None
        idx = np.argmax(visible)
        return int(times[idx]) if cml[idx:].max() > 0 and cml[idx] > 0 else (
            self._next_visible(times, cml, idx)
        )

    def _next_visible(self, times, cml, idx):
        later = np.nonzero(cml[idx:] > 0)[0]
        if later.size == 0:
            return None
        j = idx + int(later[0])
        boundary = ((int(times[j]) + self.period - 1) // self.period) * self.period
        after = np.nonzero((times >= boundary) & (cml > 0))[0]
        return int(times[after[0]]) if after.size else None


class ThresholdDetector(Detector):
    """Symptom-based: fires when CML first reaches ``min_cml``."""

    name = "threshold"

    def __init__(self, min_cml: int) -> None:
        if min_cml < 1:
            raise ValueError("min_cml must be >= 1")
        self.min_cml = min_cml

    def detect(self, times, cml, t_fault):
        hit = np.nonzero(cml >= self.min_cml)[0]
        return int(times[hit[0]]) if hit.size else None


@dataclass(frozen=True)
class LatencyReport:
    """Empirical Δt distribution for one detector over a campaign."""

    detector: str
    n_contaminated: int
    n_detected: int
    mean_latency: float
    median_latency: float
    p90_latency: float

    @property
    def detection_rate(self) -> float:
        return self.n_detected / self.n_contaminated if self.n_contaminated else 0.0


def measure_latency(detector: Detector, trials: Sequence) -> LatencyReport:
    """Replay FPM trials (with retained series) through a detector."""
    latencies: List[int] = []
    n_cont = 0
    for t in trials:
        if t.times is None or not t.ever_contaminated or not t.injected_cycles:
            continue
        n_cont += 1
        t_fault = min(t.injected_cycles)
        t_detect = detector.detect(np.asarray(t.times), np.asarray(t.cml),
                                   t_fault)
        if t_detect is not None:
            latencies.append(max(t_detect - t_fault, 0))
    arr = np.array(latencies, dtype=float)
    return LatencyReport(
        detector=detector.name,
        n_contaminated=n_cont,
        n_detected=arr.size,
        mean_latency=float(arr.mean()) if arr.size else float("nan"),
        median_latency=float(np.median(arr)) if arr.size else float("nan"),
        p90_latency=float(np.percentile(arr, 90)) if arr.size else float("nan"),
    )
