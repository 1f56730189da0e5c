"""The one-import surface: ``repro.Session``.

Everything a study needs — golden profiling, fault-injection campaigns,
resume, observability, FPS model fitting — through one object::

    import repro

    s = repro.Session("lulesh", mode="fpm")
    golden = s.golden()
    result = s.campaign(trials=200, workers=4, observe="on")
    fps = s.fps()                       # Table 2, from the last campaign

The facade delegates to the long-standing call paths
(:class:`~repro.core.FaultPropagationFramework`,
:func:`~repro.inject.campaign.run_campaign`,
:func:`~repro.inject.engine.resume_campaign`) — those remain public and
unchanged; ``Session`` only packages them and normalises historical
keyword spellings (``n_trials``/``n_workers``/``wall_timeout``), which
still work but raise :class:`DeprecationWarning`.
"""

from __future__ import annotations

import warnings
from typing import Optional, Union

from .core.framework import FaultPropagationFramework
from .errors import CampaignError
from .inject.campaign import CampaignResult
from .models.fps import FPSResult

_MODES = ("blackbox", "fpm", "taint")

#: historical keyword spellings and their current names; accepted
#: everywhere the current name is, with a DeprecationWarning
_RENAMED_KWARGS = {
    "n_trials": "trials",
    "n_workers": "workers",
    "wall_timeout": "timeout",
}


def _modernise(kwargs: dict) -> dict:
    """Map deprecated kwarg spellings onto their current names."""
    out = dict(kwargs)
    for old, new in _RENAMED_KWARGS.items():
        if old not in out:
            continue
        warnings.warn(
            f"keyword {old!r} is deprecated, use {new!r}",
            DeprecationWarning,
            stacklevel=3,
        )
        if new in out and out[new] is not None:
            raise CampaignError(
                f"both {old!r} and {new!r} given; use only {new!r}"
            )
        out[new] = out.pop(old)
    return out


class Session:
    """One application in one analysis mode, ready to run campaigns.

    ``mode`` is ``"blackbox"`` (output-variation analysis, paper
    Sec. 4.2), ``"fpm"`` (dual-chain propagation analysis, Sec. 4.3) or
    ``"taint"``.  ``params`` forwards application build parameters
    (problem sizes etc.).  The session caches prepared state between
    calls — a second campaign skips golden re-profiling — and remembers
    its last campaign so :meth:`fps` needs no argument.
    """

    def __init__(self, app: str, *, mode: str = "fpm",
                 params: Optional[dict] = None, seed: int = 2025,
                 artifact_dir: Optional[str] = None) -> None:
        if mode not in _MODES:
            raise CampaignError(
                f"unknown mode {mode!r}; expected one of {_MODES}"
            )
        self.mode = mode
        self.seed = seed
        self.artifact_dir = artifact_dir
        self.framework = FaultPropagationFramework(
            app, params, artifact_dir=artifact_dir)
        #: the most recent campaign (run or resumed), for :meth:`fps`
        self.last_campaign: Optional[CampaignResult] = None

    @property
    def app(self) -> str:
        return self.framework.app_name

    # ------------------------------------------------------------------
    def golden(self):
        """The app's golden (fault-free) profile in this session's mode."""
        return self.framework.prepared(self.mode).golden

    def campaign(self, trials: Optional[int] = None, *,
                 spec=None,
                 workers: Optional[int] = None,
                 observe=None, seed: Optional[int] = None,
                 **kwargs) -> CampaignResult:
        """Run a fault-injection campaign in this session's mode.

        Forwards to :meth:`FaultPropagationFramework.fpm_campaign` /
        :meth:`~FaultPropagationFramework.blackbox_campaign` (taint mode
        goes straight to :func:`~repro.inject.campaign.run_campaign`);
        every keyword those accept passes through.  ``observe`` follows
        :func:`~repro.inject.campaign.run_campaign`.

        Alternatively pass ``spec=``, a
        :class:`~repro.core.spec.CampaignSpec` carrying the whole
        campaign definition — it must name this session's app, and no
        other keyword may accompany it.
        """
        if spec is not None:
            from .core.spec import CampaignSpec
            from .inject.campaign import run_campaign
            if not isinstance(spec, CampaignSpec):
                raise CampaignError(
                    f"spec must be a CampaignSpec, got {type(spec).__name__}")
            if trials is not None or workers is not None \
                    or observe is not None or seed is not None or kwargs:
                raise CampaignError(
                    "pass either spec= or keyword arguments, not both")
            if spec.app != self.app:
                raise CampaignError(
                    f"spec is for app {spec.app!r}, but this session is "
                    f"{self.app!r}")
            if spec.mode != self.mode:
                raise CampaignError(
                    f"spec mode {spec.mode!r} does not match this "
                    f"session's mode {self.mode!r}")
            result = run_campaign(spec)
            self.last_campaign = result
            return result
        kwargs = _modernise(kwargs)
        for name, given in (("trials", trials), ("workers", workers)):
            if name in kwargs:
                if given is not None:
                    raise CampaignError(
                        f"both {name!r} and a deprecated spelling of it "
                        f"given; use only {name!r}"
                    )
        trials = kwargs.pop("trials", trials)
        workers = kwargs.pop("workers", workers)
        seed = self.seed if seed is None else seed
        if self.mode == "blackbox":
            result = self.framework.blackbox_campaign(
                trials, seed=seed, workers=workers, observe=observe,
                artifact_dir=kwargs.pop("artifact_dir", self.artifact_dir),
                **kwargs)
        elif self.mode == "fpm":
            result = self.framework.fpm_campaign(
                trials, seed=seed, workers=workers, observe=observe,
                artifact_dir=kwargs.pop("artifact_dir", self.artifact_dir),
                **kwargs)
        else:
            from .inject.campaign import run_campaign
            result = run_campaign(
                self.app, trials, mode=self.mode, seed=seed,
                workers=workers, observe=observe,
                params=self.framework.params,
                artifact_dir=kwargs.pop("artifact_dir", self.artifact_dir),
                **kwargs)
        self.last_campaign = result
        return result

    def resume(self, journal: str, **kwargs) -> CampaignResult:
        """Finish an interrupted journaled campaign of this app."""
        kwargs = _modernise(kwargs)
        result = self.framework.resume_campaign(journal, **kwargs)
        self.last_campaign = result
        return result

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

    def fps(self, campaign: Optional[CampaignResult] = None) -> FPSResult:
        """Fault propagation speed (Table 2) from an FPM campaign.

        Defaults to this session's most recent campaign.
        """
        if campaign is None:
            campaign = self.last_campaign
        if campaign is None:
            raise CampaignError(
                "no campaign to fit; run session.campaign() first or pass "
                "one explicitly"
            )
        return self.framework.fps_factor(campaign)
