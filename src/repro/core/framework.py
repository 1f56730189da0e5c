"""FaultPropagationFramework — the paper's system as one public object.

Typical use::

    from repro import FaultPropagationFramework

    fw = FaultPropagationFramework.for_app("lulesh")
    blackbox = fw.blackbox_campaign(trials=200)     # Fig. 6
    fpm = fw.fpm_campaign(trials=200)               # Figs. 7-8, Sec. 4.3
    fps = fw.fps_factor(fpm)                        # Table 2
    estimator = fw.estimator(fpm)                   # Eqs. 1-3

Custom MiniHPC programs work the same way through
``FaultPropagationFramework.for_source(src, name=...)`` — the framework
registers the source as an app on the fly.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from ..analysis.classify import Outcome
from ..analysis.stats import COBreakdown, co_breakdown
from ..analysis.uniformity import UniformityReport, coverage_histogram
from ..apps.registry import APP_BUILDERS, AppSpec, register_app
from ..errors import CampaignError
from ..inject.campaign import CampaignResult, _prepared, run_campaign
from ..inject.profiler import PreparedApp
from ..models.estimator import CMLEstimator
from ..models.fps import FPSResult, compute_fps
from .config import RunConfig


class FaultPropagationFramework:
    """End-to-end driver for one application."""

    def __init__(self, app_name: str, params: Optional[dict] = None, *,
                 artifact_dir: Union[str, Path, None] = None) -> None:
        if app_name not in APP_BUILDERS:
            raise CampaignError(f"unknown app {app_name!r}")
        self.app_name = app_name
        self.params = dict(params or {})
        #: shared golden-artifact directory :meth:`prepared` loads from
        #: and saves to (None: REPRO_ARTIFACT_DIR or disabled)
        self.artifact_dir = artifact_dir
        self._prepared: Dict[str, PreparedApp] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def for_app(cls, name: str, **params) -> "FaultPropagationFramework":
        return cls(name, params)

    @classmethod
    def for_source(
        cls,
        source: str,
        name: str = "custom",
        *,
        config: Optional[RunConfig] = None,
        tolerance: float = 0.05,
        abs_tolerance: float = 1e-6,
    ) -> "FaultPropagationFramework":
        """Wrap arbitrary MiniHPC source as a campaign-able application."""
        spec = AppSpec(
            name=name,
            source=source,
            config=config or RunConfig(),
            tolerance=tolerance,
            abs_tolerance=abs_tolerance,
            description="user-provided MiniHPC program",
        )
        if name not in APP_BUILDERS:
            register_app(name)(lambda _spec=spec: _spec)
        return cls(name)

    # ------------------------------------------------------------------
    # Build + golden
    # ------------------------------------------------------------------
    def prepared(self, mode: str = "blackbox") -> PreparedApp:
        """The app compiled and golden-profiled in ``mode``.

        Resolved through the process-wide prepared cache campaigns use,
        so ``prepared()`` followed by a campaign prepares once; the
        framework keeps its own reference, which outlives that bounded
        cache's evictions."""
        pa = self._prepared.get(mode)
        if pa is None:
            pa = _prepared(self.app_name, tuple(sorted(self.params.items())),
                           mode, artifact_dir=self.artifact_dir)
            self._prepared[mode] = pa
        return pa

    @property
    def spec(self) -> AppSpec:
        return self.prepared("blackbox").spec

    def golden_outputs(self) -> list:
        return self.prepared("blackbox").golden.outputs

    # ------------------------------------------------------------------
    # Campaigns
    # ------------------------------------------------------------------
    def blackbox_campaign(
        self, trials: Optional[int] = None, *, seed: int = 2025,
        workers: Optional[int] = None, n_faults: int = 1,
        timeout: Optional[float] = None, max_retries: int = 2,
        journal: Optional[str] = None,
        snapshot_stride: Optional[int] = None,
        artifact_dir: Optional[str] = None,
        observe=None,
        prune: Optional[bool] = None,
        fork: Optional[bool] = None,
        tier2: Optional[bool] = None,
        executor: Optional[str] = None,
        shards: Optional[int] = None,
    ) -> CampaignResult:
        """Output-variation analysis (paper Sec. 4.2 / Fig. 6)."""
        return run_campaign(
            self.app_name, trials, mode="blackbox", seed=seed,
            workers=workers, n_faults=n_faults, params=self.params,
            timeout=timeout, max_retries=max_retries, journal=journal,
            snapshot_stride=snapshot_stride, artifact_dir=artifact_dir,
            observe=observe, prune=prune, fork=fork, tier2=tier2,
            executor=executor, shards=shards,
        )

    def fpm_campaign(
        self, trials: Optional[int] = None, *, seed: int = 2025,
        workers: Optional[int] = None, n_faults: int = 1,
        keep_series: bool = True,
        timeout: Optional[float] = None, max_retries: int = 2,
        journal: Optional[str] = None,
        snapshot_stride: Optional[int] = None,
        artifact_dir: Optional[str] = None,
        observe=None,
        prune: Optional[bool] = None,
        fork: Optional[bool] = None,
        tier2: Optional[bool] = None,
        executor: Optional[str] = None,
        shards: Optional[int] = None,
    ) -> CampaignResult:
        """Propagation analysis (paper Sec. 4.3 / Figs. 7-8)."""
        return run_campaign(
            self.app_name, trials, mode="fpm", seed=seed, workers=workers,
            n_faults=n_faults, keep_series=keep_series, params=self.params,
            timeout=timeout, max_retries=max_retries, journal=journal,
            snapshot_stride=snapshot_stride, artifact_dir=artifact_dir,
            observe=observe, prune=prune, fork=fork, tier2=tier2,
            executor=executor, shards=shards,
        )

    def resume_campaign(self, journal: str, **kwargs) -> CampaignResult:
        """Finish an interrupted journaled campaign of this app."""
        from ..inject.engine import resume_campaign
        from ..inject.journal import read_journal

        header, _ = read_journal(journal)
        if header.get("app_name") != self.app_name:
            raise CampaignError(
                f"journal {journal} is for app {header.get('app_name')!r}, "
                f"not {self.app_name!r}"
            )
        return resume_campaign(journal, **kwargs)

    # ------------------------------------------------------------------
    # Analyses
    # ------------------------------------------------------------------
    def coverage(self, campaign: CampaignResult,
                 n_bins: int = 500) -> UniformityReport:
        """Fig. 5: verify injections are uniform over execution time."""
        times = [c for t in campaign.trials for c in t.injected_cycles]
        golden = self.prepared(campaign.mode).golden
        return coverage_histogram(times, n_bins=n_bins,
                                  t_max=float(golden.cycles))

    def fps_factor(self, fpm_campaign: CampaignResult) -> FPSResult:
        """Table 2: the application's fault propagation speed."""
        if fpm_campaign.mode != "fpm":
            raise CampaignError("FPS needs an FPM-mode campaign")
        return compute_fps(self.app_name, fpm_campaign.trials)

    def estimator(self, fpm_campaign: CampaignResult) -> CMLEstimator:
        """Eqs. 1-3: runtime corrupted-state estimator."""
        return CMLEstimator(self.fps_factor(fpm_campaign))

    def co_breakdown(self, fpm_campaign: CampaignResult) -> COBreakdown:
        """Sec. 4.3: split "correct output" into Vanished vs ONA."""
        return co_breakdown(self.app_name, fpm_campaign.outcomes())
