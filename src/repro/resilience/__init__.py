"""Checkpoint/roll-back resilience layer — the paper's Sec. 5 use case.

The CML estimator exists to drive roll-back decisions; this package
provides the detectors, the policies and the runner that applies one to
a simulated job.  It has no checkpoint format of its own: a checkpoint
is a :class:`~repro.vm.snapshot.WorldSnapshot`, a roll-back is
:func:`~repro.vm.snapshot.restore_world`.
"""

from .detectors import (
    Detector,
    IntervalDetector,
    LatencyReport,
    SampledDetector,
    ThresholdDetector,
    measure_latency,
)
from .policy import (
    AlwaysRollback,
    Detection,
    FPSThresholdPolicy,
    NeverRollback,
    RollbackPolicy,
)
from .runner import ResilientResult, ResilientRunner

__all__ = [
    "AlwaysRollback", "Detection", "Detector", "FPSThresholdPolicy",
    "IntervalDetector", "LatencyReport", "NeverRollback",
    "ResilientResult", "ResilientRunner", "RollbackPolicy",
    "SampledDetector", "ThresholdDetector", "measure_latency",
]
