"""Fault-injection coverage analysis (paper Sec. 4.1, Fig. 5).

The campaign must inject uniformly over the application's execution; the
paper verifies this by binning injection times into 500 bins and running
a chi-square test against the uniform distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import CampaignError


@dataclass(frozen=True)
class UniformityReport:
    """Chi-square goodness-of-fit of injection times vs uniform."""

    n_samples: int
    n_bins: int
    chi2: float
    p_value: float
    counts: np.ndarray
    expected: float

    @property
    def uniform(self) -> bool:
        """Not rejected at the 5 % level."""
        return self.p_value > 0.05


def coverage_histogram(
    times: Sequence[float],
    n_bins: int = 500,
    t_max: float = None,
) -> UniformityReport:
    """Bin injection times and chi-square-test uniformity (Fig. 5)."""
    # the package's only SciPy use: ~0.6 s of import, paid here rather
    # than by every ``import repro``
    from scipy import stats

    t = np.asarray(list(times), dtype=float)
    if t.size == 0:
        raise CampaignError("no injection times recorded")
    if n_bins < 2:
        raise CampaignError(f"need at least 2 bins, got {n_bins}")
    if t.size < 5 * n_bins:
        # Keep expected counts >= 5, the usual chi-square validity rule.
        n_bins = max(2, t.size // 5)
    hi = float(t_max) if t_max is not None else float(t.max())
    counts, _ = np.histogram(t, bins=n_bins, range=(0.0, hi))
    expected = t.size / n_bins
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    p = float(stats.chi2.sf(chi2, df=n_bins - 1))
    return UniformityReport(
        n_samples=t.size,
        n_bins=n_bins,
        chi2=chi2,
        p_value=p,
        counts=counts,
        expected=expected,
    )
