"""CampaignSpec: one validated value instead of ~15 keywords."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.spec import CampaignSpec
from repro.errors import CampaignError


class TestValidation:
    def test_defaults_are_valid(self):
        spec = CampaignSpec(app="matvec")
        assert spec.mode == "blackbox"
        assert spec.trials is None          # None = resolve from env
        assert spec.executor is None

    @pytest.mark.parametrize("bad", [
        dict(app=""),
        dict(app="x", mode="quantum"),
        dict(app="x", trials=0),
        dict(app="x", workers=0),
        dict(app="x", n_faults=0),
        dict(app="x", timeout=0.0),
        dict(app="x", max_retries=-1),
        dict(app="x", rank=-1),
        dict(app="x", bit=64),
        dict(app="x", executor="carrier-pigeon"),
        dict(app="x", shards=0),
        dict(app="x", snapshot_stride=-1),
    ])
    def test_bad_values_fail_at_construction(self, bad):
        with pytest.raises(CampaignError):
            CampaignSpec(**bad)

    def test_frozen(self):
        spec = CampaignSpec(app="matvec")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.trials = 10

    def test_params_mapping_is_frozen_and_spec_hashable(self):
        spec = CampaignSpec(app="matvec", params={"n": 8, "iters": 3})
        assert spec.params == (("iters", 3), ("n", 8))
        assert hash(spec) == hash(spec.replace())

    def test_replace_revalidates(self):
        spec = CampaignSpec(app="matvec")
        assert spec.replace(trials=50).trials == 50
        with pytest.raises(CampaignError):
            spec.replace(trials=0)


class TestFromKwargs:
    def test_deprecated_spellings_map_with_warning(self):
        with pytest.warns(DeprecationWarning, match="n_trials"):
            spec = CampaignSpec.from_kwargs(
                "matvec", n_trials=20, n_workers=2, wall_timeout=9.0)
        assert (spec.trials, spec.workers, spec.timeout) == (20, 2, 9.0)

    def test_old_and_new_spelling_together_rejected(self):
        with pytest.warns(DeprecationWarning):
            with pytest.raises(CampaignError, match="only 'trials'"):
                CampaignSpec.from_kwargs("matvec", n_trials=20, trials=30)

    def test_unknown_keyword_rejected(self):
        with pytest.raises(CampaignError, match="unknown campaign keyword"):
            CampaignSpec.from_kwargs("matvec", frobnicate=True)

    def test_deleted_lanes_keyword_is_unknown(self):
        with pytest.raises(CampaignError, match="unknown campaign keyword"):
            CampaignSpec.from_kwargs("matvec", lanes=8)

    def test_kwargs_round_trips_params_to_dict(self):
        spec = CampaignSpec(app="matvec", trials=12, params={"n": 8},
                            executor="pool")
        kw = spec.kwargs()
        assert kw["app"] == "matvec" and kw["trials"] == 12
        assert kw["params"] == {"n": 8}
        assert kw["executor"] == "pool"
        assert CampaignSpec.from_kwargs(**kw) == spec


class TestDispatch:
    def test_run_campaign_rejects_spec_plus_kwargs(self):
        from repro.inject.campaign import run_campaign
        spec = CampaignSpec(app="matvec", trials=4)
        with pytest.raises(CampaignError, match="not both"):
            run_campaign(spec, trials=4)

    def test_session_rejects_spec_plus_kwargs(self):
        import repro
        s = repro.Session("matvec", mode="blackbox")
        spec = CampaignSpec(app="matvec", trials=4)
        with pytest.raises(CampaignError, match="not both"):
            s.campaign(4, spec=spec)

    def test_session_rejects_mismatched_spec(self):
        import repro
        s = repro.Session("matvec", mode="blackbox")
        with pytest.raises(CampaignError, match="session is"):
            s.campaign(spec=CampaignSpec(app="lulesh"))
        with pytest.raises(CampaignError, match="mode"):
            s.campaign(spec=CampaignSpec(app="matvec", mode="fpm"))

    def test_spec_campaign_runs_and_matches_keyword_form(self, tmp_path):
        import repro
        from repro.inject import campaign as campaign_mod, trial_results_equal

        campaign_mod._PREPARED_CACHE.clear()
        kw = repro.run_campaign("matvec", trials=4, mode="blackbox", seed=3,
                                artifact_dir=tmp_path / "a")
        spec = CampaignSpec(app="matvec", trials=4, mode="blackbox", seed=3,
                            artifact_dir=str(tmp_path / "a"))
        via_spec = repro.run_campaign(spec)
        assert via_spec.fractions() == kw.fractions()
        for a, b in zip(via_spec.trials, kw.trials):
            assert trial_results_equal(a, b)

        s = repro.Session("matvec", mode="blackbox")
        via_session = s.campaign(spec=spec)
        assert via_session.fractions() == kw.fractions()
        assert s.last_campaign is via_session
