"""Detection-latency models."""

import numpy as np
import pytest

from repro.inject import run_campaign
from repro.resilience import (
    IntervalDetector,
    ThresholdDetector,
    measure_latency,
)


def ramp_trace(onset=100, slope=1, n=50, step=10):
    times = np.arange(n) * step
    cml = np.where(times < onset, 0, (times - onset) * slope)
    return times, cml.astype(np.int64)


class TestIntervalDetector:
    def test_detects_at_next_boundary(self):
        times, cml = ramp_trace(onset=100)
        det = IntervalDetector(period=150)
        t = det.detect(times, cml, t_fault=100)
        assert t is not None and t >= 150

    def test_never_detects_clean_trace(self):
        times = np.arange(20) * 10
        cml = np.zeros(20, dtype=np.int64)
        assert IntervalDetector(50).detect(times, cml, 0) is None

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            IntervalDetector(0)


class TestThresholdDetector:
    def test_fires_when_threshold_crossed(self):
        times, cml = ramp_trace(onset=100, slope=1, step=10)
        det = ThresholdDetector(min_cml=50)
        t = det.detect(times, cml, 100)
        assert t is not None
        idx = np.searchsorted(times, t)
        assert cml[idx] >= 50

    def test_misses_small_contamination(self):
        times, cml = ramp_trace(onset=100, slope=1, n=12, step=10)
        assert ThresholdDetector(min_cml=1000).detect(times, cml, 100) is None

    def test_weaker_detector_has_longer_latency(self):
        times, cml = ramp_trace(onset=0, slope=2, n=200, step=10)
        t_early = ThresholdDetector(5).detect(times, cml, 0)
        t_late = ThresholdDetector(500).detect(times, cml, 0)
        assert t_early < t_late


class TestMeasureLatency:
    @pytest.fixture(scope="class")
    def campaign(self):
        return run_campaign("mcb", trials=50, mode="fpm", seed=31,
                            keep_series=True, workers=2)

    def test_report_fields(self, campaign):
        rep = measure_latency(IntervalDetector(4000), campaign.trials)
        assert rep.n_contaminated > 0
        assert 0.0 <= rep.detection_rate <= 1.0
        if rep.n_detected:
            assert rep.mean_latency >= 0
            assert rep.p90_latency >= rep.median_latency

    def test_threshold_weakens_detection(self, campaign):
        strong = measure_latency(ThresholdDetector(1), campaign.trials)
        weak = measure_latency(ThresholdDetector(100), campaign.trials)
        assert weak.n_detected <= strong.n_detected
        if weak.n_detected and strong.n_detected:
            assert weak.median_latency >= strong.median_latency

    def test_interval_latency_bounded_by_period_plus_spread(self, campaign):
        rep = measure_latency(IntervalDetector(2000), campaign.trials)
        if rep.n_detected:
            # an interval detector's median latency is on the order of the
            # period (plus time for contamination to appear at a boundary)
            assert rep.median_latency < 25 * 2000
