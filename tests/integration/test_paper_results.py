"""Integration: the paper's headline results at reduced trial counts.

These use small campaigns (fast enough for CI); the benchmarks regenerate
the full tables and figures at proper scale.  Assertions are on robust
qualitative shapes, not exact percentages.
"""

import numpy as np
import pytest

from repro.analysis import Outcome, coverage_histogram
from repro.inject import run_campaign

TRIALS = 60
SEED = 1234


@pytest.fixture(scope="module")
def lulesh_fpm():
    return run_campaign("lulesh", trials=TRIALS, mode="fpm", seed=SEED,
                        workers=2, keep_series=True)


@pytest.fixture(scope="module")
def mcb_fpm():
    return run_campaign("mcb", trials=TRIALS, mode="fpm", seed=SEED,
                        workers=2, keep_series=True)


class TestFig5Coverage:
    def test_injections_uniform_over_time(self, mcb_fpm):
        times = [c for t in mcb_fpm.trials for c in t.injected_cycles]
        assert len(times) >= TRIALS * 0.9  # nearly all faults fire
        rep = coverage_histogram(times, n_bins=10,
                                 t_max=float(mcb_fpm.golden_cycles))
        # with ~60 samples the chi-square should comfortably not reject
        assert rep.p_value > 0.001


class TestFig6OutcomeShape:
    def test_lulesh_mostly_correct_output(self, lulesh_fpm):
        fr = lulesh_fpm.fractions()
        assert fr["CO"] > 0.5
        assert fr["WO"] < 0.25

    def test_all_classes_sum_to_one(self, lulesh_fpm):
        fr = lulesh_fpm.fractions()
        total = fr["V"] + fr["ONA"] + fr["WO"] + fr["PEX"] + fr["C"]
        assert total == pytest.approx(1.0)


class TestSec43Contradiction:
    def test_correct_output_hides_contaminated_state(self, lulesh_fpm):
        """The paper's headline: most CO runs have corrupted memory."""
        co = [t for t in lulesh_fpm.trials if t.outcome in ("V", "ONA")]
        ona = [t for t in co if t.outcome == "ONA"]
        assert co, "no correct-output trials at all?"
        assert len(ona) > 0
        # contaminated-but-correct runs must show real contamination
        for t in ona:
            assert t.ever_contaminated
            assert t.peak_cml > 0

    def test_vanished_truly_clean(self, lulesh_fpm):
        for t in lulesh_fpm.trials:
            if t.outcome == "V":
                assert not t.ever_contaminated
                assert t.final_cml == 0


class TestFig7Profiles:
    def test_profiles_rise_after_injection(self, mcb_fpm):
        rising = 0
        for t in mcb_fpm.trials:
            if t.times is None or t.peak_cml < 3 or not t.injected_cycles:
                continue
            onset = min(t.injected_cycles)
            before = t.cml[t.times < onset]
            assert before.sum() == 0, "contamination before the fault?!"
            rising += 1
        assert rising >= 3

    def test_peak_fraction_bounded(self, mcb_fpm):
        for t in mcb_fpm.trials:
            assert 0.0 <= t.peak_cml_fraction <= 1.0


class TestFig8RankSpread:
    def test_contamination_reaches_other_ranks(self, mcb_fpm):
        multi = [t for t in mcb_fpm.trials if t.ranks_contaminated >= 2]
        assert multi, "faults never crossed rank boundaries"
        full = [t for t in mcb_fpm.trials if t.ranks_contaminated == 4]
        assert full, "no fault contaminated every rank"

    def test_first_contamination_ordering(self, mcb_fpm):
        for t in mcb_fpm.trials:
            if not t.injected_cycles or t.ranks_contaminated < 2:
                continue
            firsts = [c for c in t.first_contamination if c is not None]
            source = min(firsts)
            assert all(c >= source for c in firsts)


class TestTable2FPS:
    def test_fps_positive_with_spread(self, mcb_fpm):
        from repro.models import compute_fps
        fps = compute_fps("mcb", mcb_fpm.trials)
        assert fps.fps > 0
        assert fps.n_trials >= 5


class TestMultiFaultExtension:
    def test_llfi_plus_plus_multi_fault(self):
        """The LLFI++ extension: multiple faults across multiple ranks."""
        res = run_campaign("mcb", trials=20, mode="fpm", seed=7, n_faults=3)
        multi_fired = [t for t in res.trials if len(t.injected_occurrences) >= 2]
        assert multi_fired, "multi-fault plans never fired twice"
        ranks = {s.rank for t in res.trials for s in t.faults}
        assert len(ranks) >= 3  # faults spread over ranks
