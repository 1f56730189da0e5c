"""Propagation traces: the CML(t) time series the paper plots in Fig. 7/8.

The scheduler samples every epoch: virtual time, per-rank CML counts,
per-rank live memory words, and how many ranks have ever been
contaminated.  :class:`PropagationTrace` wraps the samples with the
derived quantities the analysis layer needs (peak contamination fraction,
rank-spread series, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np


@dataclass
class PropagationTrace:
    """Time series of contamination for one run."""

    #: virtual time of each sample (cycles)
    times: List[int] = field(default_factory=list)
    #: per-sample per-rank CML counts; rows are never mutated once
    #: sampled, so copies share them
    cml_per_rank: List[Tuple[int, ...]] = field(default_factory=list)
    #: per-sample total live (allocated) words across ranks
    live_words: List[int] = field(default_factory=list)
    #: per-sample number of ranks ever contaminated
    ranks_contaminated: List[int] = field(default_factory=list)
    #: per-rank cycle of first contamination (None = never)
    first_contamination: List[Optional[int]] = field(default_factory=list)
    #: optional live observer (:class:`repro.obs.cml.CMLStream`): every
    #: sample is also pushed there, giving campaigns a decimated CML(t)
    #: series without retaining the full per-rank trace.  Never part of
    #: snapshots or equality — it is an output channel, not state.
    stream: Optional[object] = field(default=None, repr=False, compare=False)

    def sample(
        self,
        t: int,
        cml_ranks: Tuple[int, ...],
        live: int,
        n_ranks_contaminated: int,
    ) -> None:
        self.times.append(t)
        self.cml_per_rank.append(cml_ranks)
        self.live_words.append(live)
        self.ranks_contaminated.append(n_ranks_contaminated)
        if self.stream is not None:
            self.stream.push(t, cml_ranks)

    def copy(self) -> "PropagationTrace":
        """The samples so far as an independent trace (no stream): what
        a snapshot keeps and what a resumed or forked job appends to."""
        return PropagationTrace(
            times=list(self.times),
            cml_per_rank=list(self.cml_per_rank),
            live_words=list(self.live_words),
            ranks_contaminated=list(self.ranks_contaminated),
        )

    # ------------------------------------------------------------------
    # Derived series
    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        return len(self.times)

    def total_cml(self) -> np.ndarray:
        """Total CML across ranks at each sample."""
        if not self.cml_per_rank:
            return np.zeros(0, dtype=np.int64)
        return np.array([sum(row) for row in self.cml_per_rank], dtype=np.int64)

    def times_array(self) -> np.ndarray:
        return np.asarray(self.times, dtype=np.int64)

    @property
    def final_cml(self) -> int:
        return int(sum(self.cml_per_rank[-1])) if self.cml_per_rank else 0

    @property
    def peak_cml(self) -> int:
        total = self.total_cml()
        return int(total.max()) if total.size else 0

    @property
    def peak_cml_fraction(self) -> float:
        """Max over samples of (total CML / total live words) — Fig. 7f."""
        if not self.cml_per_rank:
            return 0.0
        best = 0.0
        for row, live in zip(self.cml_per_rank, self.live_words):
            if live > 0:
                frac = sum(row) / live
                if frac > best:
                    best = frac
        return best
