"""Classification, coverage uniformity, statistics and report rendering."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import (
    Outcome,
    classify,
    co_breakdown,
    contamination_stats,
    coverage_histogram,
    crash_kind_histogram,
    outcome_fractions,
    outputs_match,
    rank_spread_curve,
    render_fps_table,
    render_histogram,
    render_outcome_table,
    render_series,
    render_table,
    values_match,
)
from repro.errors import CampaignError
from repro.models import FPSResult


class TestValuesMatch:
    def test_exact(self):
        assert values_match(3, 3, 0.0, 0.0)
        assert not values_match(3, 4, 0.0, 0.0)

    def test_relative_tolerance(self):
        assert values_match(104.9, 100.0, 0.05, 0.0)
        assert not values_match(106.0, 100.0, 0.05, 0.0)

    def test_absolute_floor_for_tiny_golden(self):
        assert values_match(1e-9, 0.0, 0.05, 1e-6)
        assert not values_match(1e-3, 0.0, 0.05, 1e-6)

    def test_nan_never_matches(self):
        assert not values_match(float("nan"), 1.0, 0.5, 1.0)
        assert not values_match(1.0, float("nan"), 0.5, 1.0)

    def test_inf_never_matches(self):
        assert not values_match(float("inf"), 1.0, 0.5, 1e9)


class TestOutputsMatch:
    GOLDEN = [[1.0, 2.0], [3.0]]

    def test_identical(self):
        assert outputs_match([[1.0, 2.0], [3.0]], self.GOLDEN, 0.0, 0.0)

    def test_rank_count_mismatch(self):
        assert not outputs_match([[1.0, 2.0]], self.GOLDEN, 0.5, 1.0)

    def test_length_mismatch(self):
        assert not outputs_match([[1.0], [3.0]], self.GOLDEN, 0.5, 1.0)

    def test_within_tolerance(self):
        assert outputs_match([[1.01, 2.0], [3.0]], self.GOLDEN, 0.05, 0.0)


class TestClassify:
    def test_crash_dominates(self):
        assert classify(crashed=True, outputs_ok=True, iterations=1,
                        golden_iterations=1, fpm=False) is Outcome.CRASHED

    def test_wrong_output(self):
        assert classify(crashed=False, outputs_ok=False, iterations=1,
                        golden_iterations=1, fpm=False) is Outcome.WO

    def test_pex(self):
        assert classify(crashed=False, outputs_ok=True, iterations=12,
                        golden_iterations=10, fpm=False) is Outcome.PEX

    def test_blackbox_co(self):
        assert classify(crashed=False, outputs_ok=True, iterations=10,
                        golden_iterations=10, fpm=False) is Outcome.CO

    def test_fpm_splits_co(self):
        assert classify(crashed=False, outputs_ok=True, iterations=10,
                        golden_iterations=10, fpm=True,
                        ever_contaminated=True) is Outcome.ONA
        assert classify(crashed=False, outputs_ok=True, iterations=10,
                        golden_iterations=10, fpm=True,
                        ever_contaminated=False) is Outcome.VANISHED

    def test_fpm_requires_contamination_evidence(self):
        with pytest.raises(ValueError):
            classify(crashed=False, outputs_ok=True, iterations=1,
                     golden_iterations=1, fpm=True)

    def test_fewer_iterations_still_co(self):
        assert classify(crashed=False, outputs_ok=True, iterations=8,
                        golden_iterations=10, fpm=False) is Outcome.CO


class TestFractions:
    def test_co_aggregates_v_and_ona(self):
        outcomes = [Outcome.VANISHED, Outcome.ONA, Outcome.ONA, Outcome.WO]
        fr = outcome_fractions(outcomes)
        assert fr["CO"] == pytest.approx(0.75)
        assert fr["V"] == pytest.approx(0.25)
        assert fr["WO"] == pytest.approx(0.25)

    def test_empty(self):
        assert outcome_fractions([]) == {}


class TestUniformity:
    def test_uniform_sample_passes(self):
        rng = np.random.default_rng(1)
        times = rng.uniform(0, 1000, size=5000)
        rep = coverage_histogram(times, n_bins=100, t_max=1000)
        assert rep.uniform
        assert rep.n_bins == 100
        assert rep.counts.sum() == 5000

    def test_skewed_sample_fails(self):
        rng = np.random.default_rng(1)
        times = rng.uniform(0, 200, size=5000)  # clustered early
        rep = coverage_histogram(times, n_bins=100, t_max=1000)
        assert not rep.uniform
        assert rep.p_value < 1e-6

    def test_bins_shrink_for_small_samples(self):
        rep = coverage_histogram(np.linspace(1, 99, 40), n_bins=500, t_max=100)
        assert rep.n_bins <= 8

    def test_empty_rejected(self):
        with pytest.raises(CampaignError):
            coverage_histogram([])


class _T:
    def __init__(self, peak_frac=0.0, ever=False, trap=None):
        self.peak_cml_fraction = peak_frac
        self.ever_contaminated = ever
        self.trap_kind = trap


class TestStats:
    def test_contamination_stats(self):
        trials = [_T(0.1, True), _T(0.3, True), _T(0.0, False)]
        s = contamination_stats("app", trials)
        assert s.max_peak_fraction == pytest.approx(0.3)
        assert s.n_trials == 3

    def test_co_breakdown(self):
        bd = co_breakdown("app", [Outcome.VANISHED, Outcome.ONA, Outcome.ONA,
                                  Outcome.WO, Outcome.CRASHED])
        assert bd.n_co == 3
        assert bd.ona_share == pytest.approx(2 / 3)

    def test_co_breakdown_empty(self):
        assert co_breakdown("app", []).ona_share == 0.0

    def test_crash_kind_histogram(self):
        trials = [_T(trap="mem_fault"), _T(trap="mem_fault"), _T(trap="abort"),
                  _T()]
        hist = crash_kind_histogram(trials)
        assert hist == {"mem_fault": 2, "abort": 1}

    def test_rank_spread_curve_deduplicates(self):
        trial = SimpleNamespace(times=np.array([0, 10, 20, 30]),
                                ranks_series=np.array([0, 1, 2, 2]))
        assert rank_spread_curve(trial) == [(0, 0), (10, 1), (20, 2)]

    def test_rank_spread_curve_without_series(self):
        trial = SimpleNamespace(times=None, ranks_series=None)
        assert rank_spread_curve(trial) == []


class TestRendering:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1

    def test_outcome_table(self):
        text = render_outcome_table(
            {"lulesh": {"CO": 0.8, "WO": 0.05, "PEX": 0.0, "C": 0.15}}
        )
        assert "lulesh" in text and "80.0%" in text

    def test_fps_table(self):
        text = render_fps_table([FPSResult("mcb", 5.6e-2, 2.7e-3, 99, ())])
        assert "mcb" in text and "5.6000e-02" in text

    def test_histogram(self):
        text = render_histogram([1, 5, 3])
        assert text.count("\n") == 2
        assert "#####" in text or "#" in text

    def test_series_plot(self):
        pts = [(t, t * 2.0) for t in range(50)]
        text = render_series(pts)
        assert "*" in text
        assert "cycles" in text

    def test_series_degenerate(self):
        assert "short" in render_series([(0, 1.0)])
