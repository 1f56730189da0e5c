"""Campaign layer: plans, golden profiling, trial driving."""

import numpy as np
import pytest

from repro.apps import get_app
from repro.errors import CampaignError
from repro.inject import (
    PreparedApp,
    default_trials,
    draw_plan,
    run_campaign,
)
from repro.inject.campaign import _run_trial
from repro.analysis import Outcome


class TestDrawPlan:
    def test_single_fault_shape(self):
        rng = np.random.default_rng(0)
        plan = draw_plan(rng, [100, 200, 300], 1)
        (spec,) = plan
        assert 0 <= spec.rank < 3
        assert 1 <= spec.occurrence <= [100, 200, 300][spec.rank]
        assert 0 <= spec.bit < 64

    def test_multi_fault(self):
        rng = np.random.default_rng(0)
        plan = draw_plan(rng, [1000], 5)
        assert len(plan) == 5

    def test_fixed_rank_and_bit(self):
        rng = np.random.default_rng(0)
        for spec in draw_plan(rng, [10, 10], 8, rank=1, bit=63):
            assert spec.rank == 1 and spec.bit == 63

    def test_occurrences_roughly_uniform(self):
        rng = np.random.default_rng(0)
        occs = [draw_plan(rng, [1000], 1)[0].occurrence for _ in range(2000)]
        assert min(occs) < 50
        assert max(occs) > 950
        assert abs(np.mean(occs) - 500) < 30

    def test_errors(self):
        rng = np.random.default_rng(0)
        with pytest.raises(CampaignError):
            draw_plan(rng, [100], 0)
        with pytest.raises(CampaignError):
            draw_plan(rng, [], 1)
        with pytest.raises(CampaignError):
            draw_plan(rng, [0], 1)


class TestPreparedApp:
    def test_golden_profile_fields(self):
        pa = PreparedApp(get_app("matvec"), "blackbox")
        g = pa.golden
        assert g.cycles > 0
        assert g.iterations == 3
        assert len(g.inj_counts) == 1 and g.inj_counts[0] > 0
        assert g.max_cycles > g.cycles
        assert g.outputs[0] == [2436, 2412, 2880, 2426]

    def test_fpm_mode_counts_match_blackbox(self):
        bb = PreparedApp(get_app("matvec"), "blackbox")
        fpm = PreparedApp(get_app("matvec"), "fpm")
        assert bb.golden.inj_counts == fpm.golden.inj_counts
        assert bb.golden.outputs == fpm.golden.outputs

    def test_bad_mode_rejected(self):
        with pytest.raises(CampaignError):
            PreparedApp(get_app("matvec"), "quantum")


class TestCampaign:
    def test_blackbox_campaign_runs(self):
        res = run_campaign("matvec", trials=25, mode="blackbox", seed=3)
        assert res.n_trials == 25
        fr = res.fractions()
        assert abs(sum(v for k, v in fr.items() if k != "CO") - 1.0) < 1e-9
        # black-box classification never produces V or ONA
        assert all(t.outcome in ("CO", "WO", "PEX", "C") for t in res.trials)

    def test_fpm_campaign_splits_co(self):
        res = run_campaign("matvec", trials=25, mode="fpm", seed=3)
        assert all(t.outcome in ("V", "ONA", "WO", "PEX", "C")
                   for t in res.trials)

    def test_same_seed_same_outcomes(self):
        a = run_campaign("matvec", trials=15, mode="blackbox", seed=9)
        b = run_campaign("matvec", trials=15, mode="blackbox", seed=9)
        assert [t.outcome for t in a.trials] == [t.outcome for t in b.trials]

    def test_blackbox_and_fpm_agree_on_visible_classes(self):
        # the same fault plan must produce the same CO/WO/PEX/C split in
        # both modes (FPM only refines CO into V/ONA)
        bb = run_campaign("matvec", trials=30, mode="blackbox", seed=4)
        fpm = run_campaign("matvec", trials=30, mode="fpm", seed=4)
        coarse = {"V": "CO", "ONA": "CO"}
        for tb, tf in zip(bb.trials, fpm.trials):
            assert tb.outcome == coarse.get(tf.outcome, tf.outcome)

    def test_series_retained_when_requested(self):
        res = run_campaign("matvec", trials=10, mode="fpm", seed=3,
                           keep_series=True)
        assert any(t.times is not None for t in res.trials)

    def test_series_not_retained_by_default(self):
        res = run_campaign("matvec", trials=5, mode="fpm", seed=3)
        assert all(t.times is None for t in res.trials)

    def test_parallel_workers_match_serial(self):
        serial = run_campaign("matvec", trials=16, mode="blackbox", seed=6,
                              workers=1)
        parallel = run_campaign("matvec", trials=16, mode="blackbox", seed=6,
                                workers=2)
        assert [t.outcome for t in serial.trials] == \
            [t.outcome for t in parallel.trials]

    def test_multi_fault_campaign(self):
        res = run_campaign("matvec", trials=10, mode="fpm", seed=3,
                           n_faults=3)
        assert all(len(t.faults) == 3 for t in res.trials)

    def test_injected_cycles_recorded(self):
        res = run_campaign("matvec", trials=20, mode="blackbox", seed=3)
        fired = [t for t in res.trials if t.injected_cycles]
        assert fired
        for t in fired:
            assert all(c > 0 for c in t.injected_cycles)

    def test_default_trials_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRIALS", raising=False)
        assert default_trials(None) == 120
        assert default_trials(7) == 7
        monkeypatch.setenv("REPRO_TRIALS", "33")
        assert default_trials(None) == 33
