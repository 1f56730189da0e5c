"""The repro.Session facade: parity with the long-form call paths,
deprecated-kwarg handling, and the public re-exports."""

from __future__ import annotations

import pytest

import repro
from repro.errors import CampaignError
from repro.inject.campaign import run_campaign, trial_results_equal


def test_facade_is_re_exported():
    assert repro.Session is not None
    assert repro.ObserveConfig is not None
    assert "Session" in repro.__all__
    assert "ObserveConfig" in repro.__all__


def test_session_campaign_matches_run_campaign():
    s = repro.Session("matvec", mode="fpm", seed=9)
    via_facade = s.campaign(trials=6, workers=1)
    # fpm sessions keep the per-rank series (the framework default)
    direct = run_campaign("matvec", trials=6, mode="fpm", seed=9, workers=1,
                          keep_series=True)
    assert via_facade.n_trials == direct.n_trials
    for a, b in zip(via_facade.trials, direct.trials):
        assert trial_results_equal(a, b)


def test_session_blackbox_mode():
    s = repro.Session("matvec", mode="blackbox", seed=9)
    c = s.campaign(trials=4)
    assert c.mode == "blackbox"
    assert c.n_trials == 4


def test_session_golden_matches_framework():
    s = repro.Session("matvec", mode="fpm")
    fw = repro.FaultPropagationFramework.for_app("matvec")
    assert s.golden().cycles == fw.prepared("fpm").golden.cycles


def test_session_golden_and_campaign_prepare_once(tmp_path, monkeypatch):
    from repro.inject import artifacts, campaign as campaign_mod

    built = []
    real_init = campaign_mod.PreparedApp.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(campaign_mod.PreparedApp, "__init__", counting_init)
    campaign_mod._PREPARED_CACHE.clear()
    s = repro.Session("matvec", mode="fpm", artifact_dir=str(tmp_path))
    s.golden()
    pa = s.framework.prepared("fpm")
    # golden() honours the session's artifact_dir (it used to build a
    # bare PreparedApp and leave the directory empty)
    assert artifacts.artifact_path(*pa.artifact_ref).exists()
    run_campaign("matvec", trials=4, mode="fpm", seed=9,
                 artifact_dir=str(tmp_path))
    (key, cached), = campaign_mod._PREPARED_CACHE.items()
    assert key[:3] == ("matvec", (), "fpm")
    assert cached is pa
    assert len(built) == 1


def test_session_fps_uses_last_campaign():
    s = repro.Session("matvec", mode="fpm", seed=1)
    with pytest.raises(CampaignError, match="no campaign"):
        s.fps()
    s.campaign(trials=24, workers=1)
    assert s.fps().app_name == "matvec"


def test_session_resume(tmp_path):
    journal = str(tmp_path / "j.jsonl")
    s = repro.Session("matvec", mode="fpm", seed=13)
    full = s.campaign(trials=5, journal=journal)
    resumed = s.resume(journal)
    for a, b in zip(full.trials, resumed.trials):
        assert trial_results_equal(a, b)
    assert s.last_campaign is resumed


def test_session_observe_passthrough(tmp_path):
    trace = str(tmp_path / "t.jsonl")
    s = repro.Session("matvec", mode="fpm", seed=2)
    c = s.campaign(trials=4, observe=repro.ObserveConfig(trace=trace))
    assert c.metrics is not None
    from repro.obs import read_trace
    header, records = read_trace(trace)
    assert header["n_trials"] == 4


def test_deprecated_spellings_warn_and_work():
    s = repro.Session("matvec", mode="fpm", seed=9)
    with pytest.warns(DeprecationWarning, match="n_trials"):
        c = s.campaign(n_trials=4)
    assert c.n_trials == 4
    with pytest.warns(DeprecationWarning, match="n_workers"):
        c = s.campaign(trials=4, n_workers=1)
    assert c.effective_workers == 1
    with pytest.warns(DeprecationWarning, match="wall_timeout"):
        s.campaign(trials=4, wall_timeout=60.0)


def test_deprecated_and_current_spelling_conflict():
    s = repro.Session("matvec", mode="fpm")
    with pytest.warns(DeprecationWarning):
        with pytest.raises(CampaignError, match="both"):
            s.campaign(trials=4, n_trials=6)


def test_unknown_mode_rejected():
    with pytest.raises(CampaignError, match="unknown mode"):
        repro.Session("matvec", mode="quantum")


def test_session_surfaces_health_and_degradation():
    s = repro.Session("matvec", mode="blackbox")
    assert s.health is None
    assert s.degradation_events == []
    s.campaign(trials=4, seed=3)
    assert s.health is not None
    assert s.health.clean and not s.health.degraded
    assert s.degradation_events == []


def test_old_call_paths_unchanged():
    """The facade supersedes nothing: the long-form API keeps working."""
    fw = repro.FaultPropagationFramework.for_app("matvec")
    c = fw.fpm_campaign(trials=4, seed=3)
    assert c.n_trials == 4
    d = run_campaign("matvec", trials=4, mode="fpm", seed=3,
                     keep_series=True)
    for a, b in zip(c.trials, d.trials):
        assert trial_results_equal(a, b)
