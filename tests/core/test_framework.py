"""repro.Session end to end: construction, campaigns, analyses."""

import pytest

from repro import RunConfig, Session
from repro.analysis import co_breakdown
from repro.apps import get_app
from repro.errors import CampaignError
from repro.models import CMLEstimator


@pytest.fixture(scope="module")
def matvec_fw():
    return Session("matvec", mode="fpm", params={"iters": 4}, seed=8)


@pytest.fixture(scope="module")
def matvec_fpm(matvec_fw):
    return matvec_fw.campaign(trials=40)


class TestConstruction:
    def test_unknown_app(self):
        with pytest.raises(CampaignError):
            Session("nonexistent")

    def test_for_source_registers_custom_app(self):
        fw = Session.from_source(
            """
func main(rank: int, size: int) {
    var a: float[8];
    for (var t: int = 0; t < 6; t += 1) {
        for (var i: int = 0; i < 8; i += 1) {
            a[i] = a[i] * 0.5 + float(i);
        }
        mark_iteration();
    }
    emit(a[7]);
}
""",
            name="custom_decay",
            config=RunConfig(nranks=1),
        )
        c = fw.campaign(trials=10, seed=1)
        assert c.n_trials == 10

    def test_spec_and_golden_accessors(self, matvec_fw):
        assert get_app(matvec_fw.app).name == "matvec"
        assert matvec_fw.golden().outputs[0]

    def test_params_flow_through(self, matvec_fw):
        assert matvec_fw.golden().iterations == 4


class TestCampaignsAndAnalyses:
    def test_blackbox_campaign(self):
        c = Session("matvec", mode="blackbox").campaign(trials=20, seed=8)
        assert c.mode == "blackbox"
        assert c.n_trials == 20

    def test_fpm_campaign_keeps_series(self, matvec_fpm):
        assert matvec_fpm.mode == "fpm"
        assert any(t.times is not None for t in matvec_fpm.trials)

    def test_coverage_report(self, matvec_fw, matvec_fpm):
        rep = matvec_fw.coverage(matvec_fpm)
        assert rep.n_samples > 0
        assert 0.0 <= rep.p_value <= 1.0

    def test_fps_factor(self, matvec_fw, matvec_fpm):
        fps = matvec_fw.fps(matvec_fpm)
        assert fps.fps > 0
        assert fps.n_trials > 0

    def test_fps_rejects_blackbox(self, matvec_fw):
        bb = Session("matvec", mode="blackbox").campaign(trials=5, seed=8)
        with pytest.raises(CampaignError):
            matvec_fw.fps(bb)

    def test_estimator(self, matvec_fw, matvec_fpm):
        est = CMLEstimator(matvec_fw.fps(matvec_fpm))
        w = est.estimate_window(0, 1000)
        assert w.max_cml > 0
        assert w.avg_cml == pytest.approx(w.max_cml / 2)

    def test_co_breakdown(self, matvec_fw, matvec_fpm):
        bd = co_breakdown(matvec_fw.app, matvec_fpm.outcomes())
        assert bd.n_co == bd.n_vanished + bd.n_ona
