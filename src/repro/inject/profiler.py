"""Golden-run profiling: the reference a fault-injection campaign needs.

One fault-free run per (app, mode) yields:

* per-rank dynamic injection-site execution counts (the sampling space
  for uniform-over-time fault plans — paper Sec. 4.1),
* golden outputs and iteration counts (for outcome classification),
* golden cycle counts (to derive the hang budget).

Profiles are cached per compiled program.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..apps.registry import AppSpec
from ..core.config import RunConfig
from ..core.runner import build_program, run_job
from ..errors import CampaignError
from ..mpi import JobStatus
from ..vm import CompiledProgram, SnapshotStore
from ..vm import tier2 as vm_tier2
from ..vm.fingerprint import FingerprintIndex


@dataclass
class GoldenProfile:
    """Fault-free reference for one (app, mode) build."""

    app_name: str
    mode: str
    outputs: List[list]
    iterations: int
    cycles: int
    #: per-rank golden clocks (for per-rank time normalisation)
    rank_cycles: List[int]
    inj_counts: List[int]
    #: derived hang budget for faulty runs
    max_cycles: int
    #: dense per-epoch injection-counter timeline:
    #: ``epoch_counters[e][rank]`` is the rank's ``inj_counter`` after
    #: epoch ``e`` of the golden run (``e = 0`` is all zeros).  Lets the
    #: campaign binary-search the last epoch that still precedes every
    #: occurrence of a fault plan — the fork-at-injection epoch.
    epoch_counters: tuple
    #: per-branch-site golden edge counts
    #: (``(func, block) -> [false, true]``), recorded by the profiling
    #: condbr closures — the input of tier-2 trace planning.
    edge_profile: dict

    @property
    def total_inj_sites(self) -> int:
        return sum(self.inj_counts)

    def fork_epoch(self, faults) -> int:
        """Largest epoch that precedes every occurrence in ``faults``
        (0 = nothing to gain by forking; the trial runs cold)."""
        ec = self.epoch_counters
        if not faults:
            return 0
        best = len(ec) - 1
        for s in faults:
            if not 0 <= s.rank < len(ec[0]):
                return 0
            # binary search: largest e with counters[e][rank] < occurrence
            lo, hi = 0, len(ec) - 1
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if ec[mid][s.rank] < s.occurrence:
                    lo = mid
                else:
                    hi = mid - 1
            best = min(best, lo)
        return best


class PreparedApp:
    """A compiled app + its golden profile, ready for injection trials.

    When ``artifact_dir`` is given (or REPRO_ARTIFACT_DIR is set), the
    golden profile and snapshot store are loaded from the shared
    content-addressed artifact when one exists — skipping the golden
    run — and saved there after profiling otherwise, so sibling
    workers, respawned workers, and later campaigns reuse them.
    """

    def __init__(
        self,
        spec: AppSpec,
        mode: str = "blackbox",
        *,
        snapshot_stride: Optional[int] = None,
        snapshot_limit: Optional[int] = None,
        artifact_dir: Union[str, Path, None] = None,
    ) -> None:
        from . import artifacts  # lazy: artifacts imports GoldenProfile

        if mode not in ("blackbox", "fpm", "taint"):
            raise CampaignError(f"unknown mode {mode!r}")
        self.spec = spec
        self.mode = mode
        self.config: RunConfig = spec.config
        t0 = time.perf_counter()
        self.program: CompiledProgram = build_program(
            spec.source, mode, name=spec.name, config=spec.config
        )
        store = SnapshotStore(snapshot_stride, snapshot_limit)
        #: (directory, key) of the backing artifact, or None
        self.artifact_ref: Optional[Tuple[Path, str]] = None
        #: True when the golden state came from disk instead of profiling
        self.from_artifact = False
        directory = artifacts.default_artifact_dir(artifact_dir)
        art = None
        if directory is not None:
            key = artifacts.artifact_key(spec, mode, store.stride, store.limit)
            self.artifact_ref = (directory, key)
            art = artifacts.load_artifact(directory, key)
        #: golden region plan (JSON-safe dict) — from the artifact when
        #: one exists, else derived after fresh profiling so it rides
        #: the saved artifact and sibling workers skip planning
        self.tier2_plan: Optional[dict] = None
        #: where the installed plan came from: "artifact" or "derived"
        self.tier2_plan_source: Optional[str] = None
        if art is not None:
            self.golden: GoldenProfile = art.golden
            self.snapshots: Optional[SnapshotStore] = art.snapshot_store()
            #: frozen per-epoch golden fingerprints for convergence
            #: pruning (None = snapshots disabled)
            self.fingerprints: Optional[FingerprintIndex] = (
                art.fingerprint_index()
            )
            self.tier2_plan = art.tier2_plan
            self.from_artifact = True
        else:
            #: world snapshots captured during the golden run (None =
            #: disabled); shared copy-on-write with forked pool workers
            #: via the prepared cache
            self.snapshots = store if store.enabled else None
            # Fingerprints piggyback on the snapshot stride: both are
            # captured in the same golden pass, and stride 0 disables
            # both snapshots and pruning.
            self.fingerprints = (
                FingerprintIndex(store.stride) if store.enabled else None
            )
            self.golden = profile_golden(
                self.program, spec, mode, snapshots=self.snapshots,
                fingerprints=self.fingerprints,
            )
            self.tier2_plan = vm_tier2.derive_plan(
                self.program, self.golden.edge_profile)
            if self.artifact_ref is not None:
                try:
                    artifacts.save_artifact(
                        *self.artifact_ref, self.golden, self.snapshots,
                        self.fingerprints, tier2_plan=self.tier2_plan,
                    )
                except OSError as exc:
                    import warnings

                    warnings.warn(
                        f"could not save golden artifact: {exc}",
                        stacklevel=2,
                    )
                    self.artifact_ref = None
        #: wall seconds spent preparing (compile + profile or artifact
        #: load) — reported once as the artifact-load stage timing
        self.prepare_s = time.perf_counter() - t0

    def run_config(self) -> RunConfig:
        return self.config.with_(max_cycles=self.golden.max_cycles)

    # ------------------------------------------------------------------
    # Golden-plan installation
    # ------------------------------------------------------------------
    def ensure_tier2(self, enabled: bool = True) -> int:
        """Install the golden region plan into the program.

        Installation validates the plan and replaces one head slot of
        the profiled region map per planned path; each region is
        codegenned on its first entry, so the cost shows up in
        ``program.tier2_codegen_s`` as trials run, not here.  Idempotent
        per compiled program (repeat calls are free), so both the
        campaign driver and every worker can call it unconditionally.
        The plan comes from the golden artifact when one matched
        (``tier2_plan_source == "artifact"`` — planning cost shared
        across workers); otherwise — no artifact, or one whose plan
        another :data:`~repro.vm.tier2.PLAN_VERSION` wrote — it is
        re-derived from the golden edge profile.  ``enabled=False``
        installs nothing (a ``--no-tier2`` campaign that shares the
        prepared cache with a default one is kept off the plan by the
        machine-level switch in :meth:`~repro.vm.machine.Machine.run`
        instead).  Returns ``program.tier2_traces``, the slots installed
        in the program's two region maps.
        """
        if not enabled:
            return self.program.tier2_traces
        if self.program.tier2_installed:
            return self.program.tier2_traces
        plan = self.tier2_plan
        if plan is not None and plan.get("version") == vm_tier2.PLAN_VERSION:
            self.tier2_plan_source = (
                "artifact" if self.from_artifact else "derived")
        else:
            plan = vm_tier2.derive_plan(
                self.program, self.golden.edge_profile)
            self.tier2_plan = plan
            self.tier2_plan_source = "derived"
        return vm_tier2.install_plan(self.program, plan)


def profile_golden(
    program: CompiledProgram, spec: AppSpec, mode: str,
    snapshots: Optional[SnapshotStore] = None,
    fingerprints: Optional[FingerprintIndex] = None,
) -> GoldenProfile:
    """Run the fault-free reference and validate it completed cleanly.

    ``snapshots`` optionally captures world state at its stride during
    the run (then frozen) — what a golden cursor rewinds to.
    ``fingerprints`` optionally records per-epoch state digests in the
    same pass (then finalized), enabling convergence pruning.
    """
    config = spec.config
    nranks = config.nranks
    epoch_counters: list = [(0,) * nranks]  # epoch 0: nothing ran yet
    edge_profile: dict = {}
    result = run_job(program, config, capture_snapshots=snapshots,
                     capture_fingerprints=fingerprints,
                     capture_epoch_counters=epoch_counters,
                     capture_edge_profile=edge_profile)
    if result.status is not JobStatus.COMPLETED:
        raise CampaignError(
            f"golden run of {spec.name!r} ({mode}) failed: "
            f"{result.status.value} — {result.trap}"
        )
    if mode in ("fpm", "taint") and result.any_contaminated:
        raise CampaignError(
            f"golden run of {spec.name!r} contaminated its own shadow state; "
            "the dual-chain build is broken"
        )
    if snapshots is not None:
        snapshots.freeze()
    budget = max(int(result.cycles * config.hang_factor), result.cycles + 10_000)
    return GoldenProfile(
        app_name=spec.name,
        mode=mode,
        outputs=result.outputs,
        iterations=result.max_iterations,
        cycles=result.cycles,
        rank_cycles=list(result.rank_cycles),
        inj_counts=result.inj_counts,
        max_cycles=budget,
        epoch_counters=tuple(epoch_counters),
        edge_profile=edge_profile,
    )
