"""Live CML streams: the per-trial ``(cycle, contaminated_locations)``
series the paper's Sec. 5 models fit.

The FPM tracker (:class:`repro.fpm.tracker.PropagationTrace`) calls
:meth:`CMLStream.push` on every scheduler sample when a stream is
attached; the stream decimates by virtual-cycle stride and the result
rides back on the trial (``TrialResult.cml_stream``), into the journal,
and into the trace file as a ``cml`` record — so
``models.piecewise.fit_cml_stream`` can fit propagation profiles from a
*live* campaign without ``keep_series=True``'s full per-rank series.

Decimation depends only on virtual time, never on wall clocks, so a
stream is bit-identical between cold, forked, serial, pooled
and resumed executions of the same trial.  Convergence pruning keeps
that property: when the scheduler splices the golden tail onto a
re-converged trial, it pushes the remaining all-zero samples through
the trace at the golden sample times, so a pruned trial's stream is
byte-identical to the one a full execution would have produced.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np


class CMLStream:
    """Stride-decimated total-CML sampler for one trial."""

    __slots__ = ("stride", "times", "values")

    def __init__(self, stride: int = 0) -> None:
        #: minimum virtual-cycle gap between retained samples (0 keeps
        #: every scheduler sample)
        self.stride = max(0, int(stride))
        self.times: List[int] = []
        self.values: List[int] = []

    def push(self, t: int, cml_ranks) -> None:
        """Record one scheduler sample (called from the FPM tracker).

        Deliberately does nothing but decimate and append — this runs on
        every scheduler sample of an observed trial, so the stream's
        metric contributions are folded in once, at end of trial, by
        :meth:`publish_metrics`.
        """
        if self.times and t < self.times[-1] + self.stride:
            return
        self.times.append(t)
        self.values.append(sum(cml_ranks))

    def publish_metrics(self, metrics) -> None:
        """Fold the finished stream into a trial's metrics registry."""
        if not self.times:
            return
        metrics.inc("repro_cml_stream_samples_total", len(self.times))
        metrics.set_gauge("repro_shadow_entries", self.values[-1])

    def backfill(self, times, cml_per_rank) -> None:
        """Replay the golden trace prefix of a forked trial, so it
        streams exactly what a cold run would."""
        for t, row in zip(times, cml_per_rank):
            self.push(t, row)

    def __len__(self) -> int:
        return len(self.times)

    def to_array(self) -> Optional[np.ndarray]:
        """``(n, 2)`` int64 array of (cycle, CML), or None when empty."""
        if not self.times:
            return None
        return np.column_stack([
            np.asarray(self.times, dtype=np.int64),
            np.asarray(self.values, dtype=np.int64),
        ])

    def series(self) -> List[Tuple[int, int]]:
        return list(zip(self.times, self.values))
