"""Command-line interface."""

import argparse

import pytest

from repro.cli import main


class TestCLI:
    def test_apps_lists_suite(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        for app in ("lulesh", "lammps", "minife", "amg", "mcb", "matvec"):
            assert app in out

    def test_golden(self, capsys):
        assert main(["golden", "matvec"]) == 0
        out = capsys.readouterr().out
        assert "2436" in out
        assert "iterations: 3" in out

    def test_campaign_blackbox(self, capsys):
        assert main(["campaign", "matvec", "--trials", "10",
                     "--mode", "blackbox", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "CO" in out and "matvec" in out

    def test_campaign_fpm(self, capsys):
        assert main(["campaign", "matvec", "--trials", "10",
                     "--mode", "fpm", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "ONA" in out

    def test_fps(self, capsys):
        assert main(["fps", "matvec", "--trials", "20", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "FPS" in out and "CML" in out

    def test_compile_dumps_ir(self, capsys):
        assert main(["compile", "matvec", "--mode", "fpm"]) == 0
        out = capsys.readouterr().out
        assert "fpm_store" in out
        assert "!site" in out
        assert "!sec" in out
        assert "func [dual] " in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("flag", [["--lanes", "8"], ["--no-lanes"],
                                      ["--no-prune"], ["--no-tier2"]])
    def test_deleted_lane_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "matvec", "--trials", "4"] + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_multi_fault_flag(self, capsys):
        assert main(["campaign", "matvec", "--trials", "5",
                     "--faults", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "2 fault(s)/run" in out


class TestOneKnobDict:
    """A campaign flag is read in ``_campaign_kwargs`` and nowhere else,
    so all three campaign commands hand ``run_campaign`` the same
    keywords."""

    FLAGS = ["--trials", "7", "--seed", "3", "--workers", "1",
             "--executor", "serial", "--shards", "2", "--faults", "2",
             "--timeout", "30", "--max-retries", "1",
             "--snapshot-stride", "64", "--no-fork"]
    EXPECTED = dict(seed=3, workers=1, executor="serial", shards=2,
                    n_faults=2, timeout=30.0, max_retries=1,
                    snapshot_stride=64, fork=False)

    @pytest.mark.parametrize("command", ["campaign", "sites", "fps"])
    def test_every_flag_reaches_run_campaign(self, command, tmp_path,
                                             monkeypatch, capsys):
        import repro.api
        from repro.cli import _add_campaign_args
        from repro.inject import run_campaign

        real = run_campaign("matvec", 16, mode="fpm", seed=1,
                            keep_series=True, snapshot_stride=64)
        calls = []

        def fake(app, trials, **kwargs):
            calls.append((app, trials, kwargs))
            return real

        monkeypatch.setattr(repro.api, "run_campaign", fake)
        art, trace = str(tmp_path / "a"), str(tmp_path / "t.jsonl")
        prom = str(tmp_path / "m.prom")
        argv = self.FLAGS + ["--artifact-dir", art, "--trace", trace,
                             "--metrics-out", prom]
        # every knob flag of the shared block is exercised above (the
        # rest say where results go, or set the chaos environment)
        probe = argparse.ArgumentParser()
        _add_campaign_args(probe)
        flags = {a.option_strings[0] for a in probe._actions
                 if a.option_strings and a.dest != "help"}
        assert flags - set(argv) == {"--save-json", "--save-csv",
                                     "--chaos", "--chaos-seed"}
        assert main([command, "matvec"] + argv) == 0
        (app, trials, kwargs), = calls
        assert (app, trials, kwargs.pop("mode")) == ("matvec", 7, "fpm")
        observe = kwargs.pop("observe")
        assert (observe.trace, observe.metrics_out) == (trace, prom)
        assert kwargs.pop("artifact_dir") == art
        for session_default in ("params", "keep_series", "journal"):
            kwargs.pop(session_default, None)
        assert kwargs == self.EXPECTED


class TestEngineCLI:
    def test_engine_flags_accepted(self, capsys):
        assert main(["campaign", "matvec", "--trials", "6", "--seed", "1",
                     "--mode", "blackbox", "--timeout", "30",
                     "--max-retries", "1", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "engine: 1 worker(s)" in out
        assert "clean" in out

    def test_journal_then_resume(self, tmp_path, capsys):
        journal = str(tmp_path / "c.jsonl")
        assert main(["campaign", "matvec", "--trials", "6", "--seed", "1",
                     "--mode", "blackbox", "--journal", journal]) == 0
        first = capsys.readouterr().out
        assert main(["campaign", "matvec", "--resume", journal]) == 0
        resumed = capsys.readouterr().out
        assert "resumed: 6 trial(s)" in resumed
        # same outcome table either way
        table_line = [l for l in first.splitlines() if "matvec" in l]
        assert table_line[0] in resumed

    @pytest.mark.parametrize("flag", [
        ["--trials", "500"], ["--seed", "9"], ["--faults", "2"],
        ["--snapshot-stride", "64"], ["--no-fork"]])
    def test_resume_rejects_definition_flags(self, flag, tmp_path, capsys):
        # the journal header defines the campaign: a definition flag that
        # differs from its default is an error, not silently dropped
        journal = str(tmp_path / "c.jsonl")
        assert main(["campaign", "matvec", "--trials", "4", "--seed", "1",
                     "--mode", "blackbox", "--journal", journal]) == 0
        capsys.readouterr()
        assert main(["campaign", "matvec", "--resume", journal] + flag) == 1
        err = capsys.readouterr().err
        assert f"error: {flag[0]} " in err and journal in err
        # the parser default is no change, so it still resumes
        assert main(["campaign", "matvec", "--resume", journal,
                     "--seed", "2025", "--workers", "1"]) == 0

    def test_resume_missing_journal_exit_code(self, tmp_path, capsys):
        assert main(["campaign", "matvec",
                     "--resume", str(tmp_path / "nope.jsonl")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_unknown_app_is_clean_error(self, capsys):
        for argv in (["campaign", "not-an-app", "--trials", "5"],
                     ["golden", "not-an-app"], ["compile", "not-an-app"]):
            assert main(argv) == 1
            assert "error: unknown app" in capsys.readouterr().err


class TestChaosFlags:
    def test_chaos_seed_without_chaos_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "matvec", "--trials", "4",
                  "--chaos-seed", "5"])
        assert exc.value.code == 2
        assert "--chaos-seed requires --chaos" in capsys.readouterr().err

    def test_chaos_flag_exports_environment(self, tmp_path, monkeypatch,
                                            capsys):
        import os
        # seed the vars so monkeypatch records their (absent) prior state
        # and undoes main()'s exports on teardown
        monkeypatch.setenv("REPRO_CHAOS", "0")
        monkeypatch.setenv("REPRO_CHAOS_SEED", "0")
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path / "ledger"))
        # serial matvec campaign: chaos hooks live on pool/journal/
        # artifact paths, so this is a pure flag-plumbing smoke test
        assert main(["campaign", "matvec", "--trials", "4", "--seed", "1",
                     "--mode", "blackbox", "--chaos",
                     "--chaos-seed", "5"]) == 0
        assert os.environ["REPRO_CHAOS"] == "1"
        assert os.environ["REPRO_CHAOS_SEED"] == "5"
        assert "matvec" in capsys.readouterr().out

    def test_chaos_campaign_exit_code_is_zero(self, tmp_path, monkeypatch,
                                              capsys):
        """Injected harness faults are absorbed — exit 0, not 3."""
        monkeypatch.setenv("REPRO_CHAOS", "0")
        monkeypatch.setenv("REPRO_CHAOS_SEED", "0")
        monkeypatch.setenv("REPRO_CHAOS_DIR", str(tmp_path / "ledger"))
        monkeypatch.setenv("REPRO_CHAOS_KILL", "1.0")
        monkeypatch.setenv("REPRO_CHAOS_TEAR", "1.0")
        monkeypatch.setenv("REPRO_RETRY_BASE_DELAY", "0")
        monkeypatch.setenv("REPRO_RETRY_MAX_DELAY", "0")
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["campaign", "matvec", "--trials", "8", "--seed",
                         "1", "--mode", "blackbox", "--workers", "2",
                         "--journal", str(tmp_path / "c.jsonl"),
                         "--chaos", "--chaos-seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "degraded:" in out or "worker" in out
