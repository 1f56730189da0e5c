"""repro.Session and repro.run_campaign: the object form forwards to
the function form, and the function form validates before it spends."""

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
    # fpm sessions keep the per-rank series, so fps() can fit them
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
    golden = s.golden()
    (pa,) = campaign_mod._PREPARED_CACHE.values()
    assert pa.golden is golden
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
    # another app's or another mode's session refuses the journal up
    # front (a wrong mode used to surface later, as an FPS error)
    with pytest.raises(CampaignError, match="app_name 'matvec'"):
        repro.Session("lulesh", mode="fpm").resume(journal)
    with pytest.raises(CampaignError, match="mode 'fpm'"):
        repro.Session("matvec", mode="blackbox").resume(journal)


def test_session_observe_passthrough(tmp_path):
    trace = str(tmp_path / "t.jsonl")
    s = repro.Session("matvec", mode="fpm", seed=2)
    c = s.campaign(trials=4, observe=repro.ObserveConfig(trace=trace))
    assert c.metrics is not None
    from repro.obs import read_trace
    header, records = read_trace(trace)
    assert header["n_trials"] == 4


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


@pytest.mark.parametrize("bad", [
    dict(bit=70), dict(bit=64), dict(bit=-1), dict(rank=-1),
    dict(n_faults=0), dict(max_retries=-1), dict(shards=0),
    dict(snapshot_stride=-1),
    dict(trials=0), dict(workers=0), dict(timeout=0.0),
    dict(mode="quantum"), dict(executor="carrier-pigeon"),
    dict(app="not-an-app"),
], ids=lambda bad: "{}={}".format(*next(iter(bad.items()))))
def test_bad_input_is_rejected_before_any_golden_run(bad, monkeypatch):
    from repro.inject import campaign as campaign_mod

    def no_prepare(*args, **kwargs):
        raise AssertionError("a PreparedApp was built for invalid input")

    monkeypatch.setattr(campaign_mod, "PreparedApp", no_prepare)
    monkeypatch.setattr(campaign_mod, "_PREPARED_CACHE",
                        type(campaign_mod._PREPARED_CACHE)())
    kwargs = {"app": "matvec", "trials": 6, **bad}
    with pytest.raises(CampaignError):
        run_campaign(**kwargs)


def test_rank_beyond_the_job_is_rejected_before_any_trial(tmp_path):
    journal = tmp_path / "j.jsonl"
    with pytest.raises(CampaignError, match="runs 1 rank"):
        run_campaign("matvec", 6, rank=9, journal=str(journal))
    assert not journal.exists()  # no invalid plan is ever journaled
