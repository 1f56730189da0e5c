"""The one-import surface: ``repro.Session``.

:func:`repro.run_campaign` *defines* a campaign — its signature is the
only place the knobs are spelled out.  A ``Session`` *holds* one: the
app, the analysis mode, the prepared golden state and the last result,
so a study reads as a few method calls::

    import repro

    s = repro.Session("lulesh", mode="fpm")
    golden = s.golden()
    result = s.campaign(trials=200, workers=4, observe="on")
    fps = s.fps()                       # Table 2, from the last campaign
"""

from __future__ import annotations

from typing import Optional

from .errors import CampaignError
from .inject.campaign import (
    CampaignResult, _prepared, check_target, run_campaign,
)
from .inject.engine import resume_campaign
from .inject.journal import read_journal_header


class Session:
    """One application in one analysis mode, ready to run campaigns.

    ``mode`` is ``"blackbox"`` (output-variation analysis, paper
    Sec. 4.2), ``"fpm"`` (dual-chain propagation analysis, Sec. 4.3) or
    ``"taint"``.  ``params`` forwards application build parameters
    (problem sizes etc.).  The session keeps its prepared app between
    calls — a second campaign skips golden re-profiling — and remembers
    its last campaign so :meth:`fps` and :meth:`coverage` need no
    argument.
    """

    def __init__(self, app: str, *, mode: str = "fpm",
                 params: Optional[dict] = None, seed: int = 2025,
                 artifact_dir: Optional[str] = None) -> None:
        check_target(app, mode)
        self.app = app
        self.mode = mode
        self.params = dict(params or {})
        self.seed = seed
        self.artifact_dir = artifact_dir
        self._pa = None
        #: the most recent campaign (run or resumed)
        self.last_campaign: Optional[CampaignResult] = None

    @classmethod
    def from_source(cls, source: str, name: str = "custom", *,
                    config=None, tolerance: float = 0.05,
                    abs_tolerance: float = 1e-6, **session) -> "Session":
        """A session on your own MiniHPC program.

        Registers ``source`` as the app ``name`` (``config`` is its
        :class:`~repro.RunConfig`; the tolerances decide when outputs
        count as correct) and opens a session on it; ``session``
        forwards to the constructor.
        """
        from .apps.registry import APP_BUILDERS, AppSpec, register_app
        from .core.config import RunConfig

        spec = AppSpec(
            name=name, source=source, config=config or RunConfig(),
            tolerance=tolerance, abs_tolerance=abs_tolerance,
            description="user-provided MiniHPC program",
        )
        if name not in APP_BUILDERS:
            register_app(name)(lambda _spec=spec: _spec)
        return cls(name, **session)

    # ------------------------------------------------------------------
    def golden(self):
        """The app's golden (fault-free) profile in this session's mode.

        Resolved through the process-wide prepared cache campaigns use,
        so ``golden()`` followed by a campaign prepares once; the
        session's own reference outlives that bounded cache's
        evictions."""
        if self._pa is None:
            self._pa = _prepared(
                self.app, tuple(sorted(self.params.items())), self.mode,
                artifact_dir=self.artifact_dir)
        return self._pa.golden

    def campaign(self, trials: Optional[int] = None,
                 **knobs) -> CampaignResult:
        """Run a fault-injection campaign in this session's mode.

        ``knobs`` are :func:`repro.run_campaign`'s keywords.  ``seed``
        and ``artifact_dir`` default to the session's, and
        ``keep_series`` to True in fpm mode so :meth:`fps` can fit the
        result.
        """
        knobs.setdefault("seed", self.seed)
        knobs.setdefault("artifact_dir", self.artifact_dir)
        knobs.setdefault("keep_series", self.mode == "fpm")
        self.last_campaign = run_campaign(
            self.app, trials, mode=self.mode, params=self.params, **knobs)
        return self.last_campaign

    def resume(self, journal: str, **knobs) -> CampaignResult:
        """Finish an interrupted journaled campaign of this app and mode.

        ``knobs`` are :func:`repro.resume_campaign`'s keywords.
        """
        header = read_journal_header(journal)
        for key, mine in (("app_name", self.app), ("mode", self.mode)):
            if header.get(key) != mine:
                raise CampaignError(
                    f"journal {journal} records {key} "
                    f"{header.get(key)!r}; this session's is {mine!r}")
        self.last_campaign = resume_campaign(journal, **knobs)
        return self.last_campaign

    @property
    def health(self):
        """Supervision health of the most recent campaign (or None).

        A :class:`~repro.inject.health.CampaignHealth`; check
        ``health.degraded`` / ``health.degradation_events`` to see
        whether the graceful-degradation ladder (pool shrink, serial
        fallback, journal disable) fired, and
        ``health.io_retries`` / ``health.journal_recovered_records`` /
        ``health.artifacts_quarantined`` for what the corruption-tolerant
        substrate absorbed.
        """
        if self.last_campaign is None:
            return None
        return self.last_campaign.health

    @property
    def degradation_events(self) -> list:
        """Degradation-ladder events of the most recent campaign."""
        health = self.health
        return list(health.degradation_events) if health is not None else []

    # ------------------------------------------------------------------
    def _campaign_or_last(self, campaign) -> CampaignResult:
        if campaign is None:
            campaign = self.last_campaign
        if campaign is None:
            raise CampaignError(
                "no campaign to analyse; run session.campaign() first or "
                "pass one explicitly"
            )
        return campaign

    def coverage(self, campaign: Optional[CampaignResult] = None,
                 n_bins: int = 500):
        """Fig. 5: are the injections uniform over execution time?

        A :class:`~repro.analysis.uniformity.UniformityReport` of a
        campaign's (default: the most recent one's) injection cycles.
        """
        from .analysis.uniformity import coverage_histogram

        campaign = self._campaign_or_last(campaign)
        times = [c for t in campaign.trials for c in t.injected_cycles]
        return coverage_histogram(times, n_bins=n_bins,
                                  t_max=float(campaign.golden_cycles))

    def fps(self, campaign: Optional[CampaignResult] = None):
        """Fault propagation speed (Table 2) from an FPM campaign.

        A :class:`~repro.models.fps.FPSResult`; defaults to this
        session's most recent campaign.
        """
        from .models.fps import compute_fps

        campaign = self._campaign_or_last(campaign)
        if campaign.mode != "fpm":
            raise CampaignError("FPS needs an FPM-mode campaign")
        return compute_fps(self.app, campaign.trials)
