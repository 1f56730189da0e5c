"""The stable public surface: ``repro.__all__``.

Every supported symbol must be importable from the top level, carry a
docstring, and be mentioned in the README — if it is public, it is
documented.  Nothing else is kept importable from where it used to be.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

README = Path(__file__).resolve().parents[2] / "README.md"

PUBLIC = [name for name in repro.__all__ if name != "__version__"]


class TestPublicSurface:
    def test_expected_symbols_present(self):
        for name in ("Session", "CampaignResult",
                     "fit_cml_stream", "run_campaign", "resume_campaign"):
            assert name in repro.__all__

    @pytest.mark.parametrize("name", PUBLIC)
    def test_symbol_exists_and_has_docstring(self, name):
        obj = getattr(repro, name)
        assert (obj.__doc__ or "").strip(), \
            f"public symbol repro.{name} has no docstring"

    @pytest.mark.parametrize("name", PUBLIC)
    def test_symbol_appears_in_readme(self, name):
        assert name in README.read_text(), \
            f"public symbol repro.{name} is not documented in README.md"

    def test_all_is_sorted_and_duplicate_free(self):
        assert sorted(repro.__all__) == list(repro.__all__)
        assert len(set(repro.__all__)) == len(repro.__all__)

    def test_deleted_tiers_left_no_exports(self):
        import repro.inject
        import repro.vm

        for mod, gone in ((repro.inject, ("plan_batches",
                                          "batch_by_snapshot",
                                          "fork_enabled")),
                          (repro.vm, ("WorldCache",))):
            for name in gone:
                assert name not in mod.__all__
                assert not hasattr(mod, name)

    def test_second_surfaces_left_no_exports(self):
        import importlib
        import inspect

        import repro.core

        for name in ("FaultPropagationFramework", "CampaignSpec"):
            assert name not in repro.__all__ and not hasattr(repro, name)
            assert not hasattr(repro.core, name)
        for module in ("repro.core.framework", "repro.core.spec"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
        assert not hasattr(repro.api, "_modernise")
        # the knobs live in one signature: Session forwards, and names
        # none of them itself
        assert list(inspect.signature(
            repro.Session.campaign).parameters) == ["self", "trials", "knobs"]
        # ... which the frozen ledger reads by name (cold_knobs)
        assert {"mode", "seed", "workers", "keep_series", "journal",
                "progress", "snapshot_stride", "artifact_dir", "observe",
                "fork", "executor", "shards"} <= set(
            inspect.signature(repro.run_campaign).parameters)

    def test_speed_path_opt_outs_left_no_surface(self):
        import inspect

        from repro.inject import campaign
        from repro.inject.forkrun import GoldenCursor
        from repro.inject.profiler import PreparedApp

        # the golden plan is installed by PreparedApp, pruning rides the
        # snapshot stride: neither is a campaign knob any more
        assert not {"prune", "tier2"} & set(
            inspect.signature(repro.run_campaign).parameters)
        assert not {"prune", "tier2"} & set(campaign.TrialJob._fields)
        assert not {"prune", "tier2"} & set(campaign.DEFINITION_KEYS)
        for owner, name in ((PreparedApp, "ensure_tier2"),
                            (GoldenCursor, "set_tier2"),
                            (campaign, "prune_enabled"),
                            (campaign, "tier2_enabled")):
            assert not hasattr(owner, name), name

    def test_executor_contract_left_no_exports(self):
        from repro.inject import executors

        for name in ("Executor", "ExecutorCapabilities", "SerialExecutor",
                     "ShardSpec", "make_executor"):
            assert name not in executors.__all__
            assert not hasattr(executors, name)
            assert not hasattr(executors.local, name)
        assert not hasattr(executors, "base")
        assert not hasattr(executors.FleetExecutor, "capabilities")

    def test_second_checkpoint_format_left_no_exports(self):
        import importlib.util

        from repro import resilience

        for name in ("JobCheckpoint", "RankCheckpoint",
                     "checkpoint_machine", "restore_machine"):
            assert name not in resilience.__all__
            assert not hasattr(resilience, name)
        assert importlib.util.find_spec("repro.resilience.checkpoint") is None

    def test_restore_rung_left_no_surface(self):
        import inspect

        from repro.inject import artifacts
        from repro.vm import SnapshotStore

        assert "restore_from" not in inspect.signature(
            repro.run_job).parameters
        for owner in (SnapshotStore, artifacts):
            for name in ("best_for", "mark_verified", "is_verified"):
                assert not hasattr(owner, name)

    def test_fused_tier_left_no_surface(self):
        import inspect

        from repro.inject.profiler import PreparedApp
        from repro.vm.compiler import CompiledFunction

        assert not {"seg_armed", "seg_free", "tier2_off"} & set(
            CompiledFunction.__slots__)
        assert "fuse" not in inspect.signature(
            PreparedApp.__init__).parameters
        # fuse=False is the reference interpreter: no region anywhere
        program = repro.build_program(
            "func main(rank: int, size: int) { emiti(rank + size); }",
            fuse=False)
        assert program.tier2_traces == 0 and not any(
            slot for cfunc in program.functions.values()
            for rmap in (cfunc.static, cfunc.tier2) for row in rmap
            for slot in row)


class TestImportHygiene:
    """``import repro`` is paid by every process a campaign starts."""

    def test_import_leaves_scipy_unloaded(self):
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro; print('scipy' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        assert out.stdout.strip() == "False", \
            "import repro pulled SciPy in; import it where it is used"

    def test_coverage_histogram_p_value_unchanged(self):
        # Fig. 5's chi-square survival function still comes from SciPy
        import numpy as np

        from repro.analysis.uniformity import coverage_histogram

        times = np.random.default_rng(5).uniform(0, 1000.0, 600)
        report = coverage_histogram(times, n_bins=40, t_max=1000.0)
        assert report.chi2 == 58.0
        assert report.p_value == pytest.approx(0.025617465337582773,
                                               rel=1e-12)


class TestDeprecationShims:
    """The engine's one-cycle re-exports of moved internals are gone."""

    def test_unknown_attribute_still_raises(self):
        from repro.inject import engine
        for name in ("no_such_thing", "_pool_worker", "_Worker",
                     "_mp_context", "_PREFETCH", "prefetch_depth",
                     "_KILL_GRACE"):
            with pytest.raises(AttributeError):
                getattr(engine, name)
