"""The unified REPRO_* settings schema: parsing, clamping, fallback."""

from __future__ import annotations

import warnings

import pytest

from repro.core.settings import (
    DEFAULT_SNAPSHOT_STRIDE,
    DEFAULT_TRIALS,
    Settings,
    current_settings,
    env_int,
)


def _settings(**env):
    return Settings.from_env({k: str(v) for k, v in env.items()})


def test_defaults_with_empty_environment():
    s = Settings.from_env({})
    assert s.trials == DEFAULT_TRIALS
    assert s.workers == 1
    assert s.trial_timeout is None
    assert s.snapshot_verify == "first"
    assert s.obs_trace is None
    assert s.obs_metrics is None


def test_surface_is_the_remaining_knobs():
    import dataclasses

    names = {f.name for f in dataclasses.fields(Settings)}
    assert len(names) == 15
    assert not names & {"lanes", "world_cache", "world_cache_pages",
                        "batch_by_snapshot", "tier2_cap", "fork_trials",
                        "snapshot_limit", "page_words", "fuse",
                        "prefetch", "shards", "retry_max_attempts",
                        "prepared_cache", "obs_cml_stride"}
    # a deleted knob left in the environment is simply not read
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _settings(REPRO_LANES="junk", REPRO_WORLD_CACHE="junk",
                         REPRO_BATCH_BY_SNAPSHOT="junk",
                         REPRO_TIER2_CAP="junk", REPRO_FORK_TRIALS="junk",
                         REPRO_SNAPSHOT_LIMIT="junk", REPRO_FUSE="junk",
                         REPRO_PAGE_WORDS="junk", REPRO_PREFETCH="junk",
                         REPRO_SHARDS="junk", REPRO_PREPARED_CACHE="junk",
                         REPRO_RETRY_MAX_ATTEMPTS="junk",
                         REPRO_OBS_CML_STRIDE="junk") == Settings()


def test_valid_values_parse():
    s = _settings(REPRO_TRIALS=50, REPRO_WORKERS=4, REPRO_TRIAL_TIMEOUT=2.5,
                  REPRO_SNAPSHOT_VERIFY="all",
                  REPRO_OBS_TRACE="/tmp/t.jsonl")
    assert (s.trials, s.workers, s.trial_timeout) == (50, 4, 2.5)
    assert s.snapshot_verify == "all"
    assert s.obs_trace == "/tmp/t.jsonl"


def test_non_integer_warns_and_falls_back():
    with pytest.warns(UserWarning, match="REPRO_TRIALS"):
        s = _settings(REPRO_TRIALS="lots")
    assert s.trials == DEFAULT_TRIALS


def test_below_minimum_warns_for_strict_knobs():
    with pytest.warns(UserWarning, match="REPRO_WORKERS"):
        s = _settings(REPRO_WORKERS=0)
    assert s.workers == 1


def test_clamping_knobs_clamp_silently():
    """The stride knob keeps its historical floor-clamp."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = _settings(REPRO_SNAPSHOT_STRIDE=-1)
    assert s.snapshot_stride == 0


def test_clamping_knob_still_warns_on_junk():
    with pytest.warns(UserWarning, match="REPRO_SNAPSHOT_STRIDE"):
        s = _settings(REPRO_SNAPSHOT_STRIDE="junk")
    assert s.snapshot_stride == DEFAULT_SNAPSHOT_STRIDE


def test_bad_choice_warns_and_falls_back():
    with pytest.warns(UserWarning, match="REPRO_SNAPSHOT_VERIFY"):
        s = _settings(REPRO_SNAPSHOT_VERIFY="sometimes")
    assert s.snapshot_verify == "first"


def test_bad_float_warns():
    with pytest.warns(UserWarning, match="REPRO_TRIAL_TIMEOUT"):
        s = _settings(REPRO_TRIAL_TIMEOUT=-1)
    assert s.trial_timeout is None


def test_blank_values_mean_unset():
    s = _settings(REPRO_TRIALS="  ", REPRO_ARTIFACT_DIR="")
    assert s.trials == DEFAULT_TRIALS
    assert s.artifact_dir is None


def test_current_settings_rereads_environment(monkeypatch):
    monkeypatch.delenv("REPRO_TRIALS", raising=False)
    assert current_settings().trials == DEFAULT_TRIALS
    monkeypatch.setenv("REPRO_TRIALS", "7")
    assert current_settings().trials == 7


def test_to_dict_round_trip():
    s = _settings(REPRO_WORKERS=3)
    d = s.to_dict()
    assert d["workers"] == 3
    assert Settings(**d) == s


def test_env_int_helper(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_TRIALS", "9")
    assert env_int("REPRO_BENCH_TRIALS", 4) == 9
    monkeypatch.setenv("REPRO_BENCH_TRIALS", "bad")
    with pytest.warns(UserWarning):
        assert env_int("REPRO_BENCH_TRIALS", 4) == 4


def test_retry_and_chaos_defaults():
    s = Settings.from_env({})
    assert s.retry_base_delay == 0.05
    assert s.retry_max_delay == 2.0
    assert s.chaos is False
    assert s.chaos_seed == 0


def test_retry_and_chaos_valid_values():
    s = _settings(REPRO_RETRY_BASE_DELAY=0, REPRO_RETRY_MAX_DELAY=0.5,
                  REPRO_CHAOS=1, REPRO_CHAOS_SEED=99)
    assert s.retry_base_delay == 0.0   # zero delay is valid (tests/CI)
    assert s.retry_max_delay == 0.5
    assert s.chaos is True
    assert s.chaos_seed == 99


def test_retry_knobs_warn_and_fall_back_on_junk():
    with pytest.warns(UserWarning, match="REPRO_RETRY_BASE_DELAY"):
        s = _settings(REPRO_RETRY_BASE_DELAY="soon")
    assert s.retry_base_delay == 0.05
    with pytest.warns(UserWarning, match="REPRO_CHAOS_SEED"):
        s = _settings(REPRO_CHAOS_SEED="lucky")
    assert s.chaos_seed == 0


def test_negative_retry_delay_warns():
    with pytest.warns(UserWarning, match="REPRO_RETRY_BASE_DELAY"):
        s = _settings(REPRO_RETRY_BASE_DELAY=-0.1)
    assert s.retry_base_delay == 0.05


def test_call_sites_resolve_through_settings(monkeypatch):
    """The layers that used to read os.environ directly now agree with
    the schema (the point of the consolidation)."""
    from repro.inject.campaign import default_trials, default_workers
    from repro.vm.snapshot import default_snapshot_stride

    monkeypatch.setenv("REPRO_TRIALS", "33")
    monkeypatch.setenv("REPRO_WORKERS", "2")
    monkeypatch.setenv("REPRO_SNAPSHOT_STRIDE", "512")
    assert default_trials(None) == 33
    assert default_workers(None) == 2
    assert default_snapshot_stride(None) == 512
    # explicit arguments still beat the environment
    assert default_trials(5) == 5
    assert default_workers(1) == 1
    assert default_snapshot_stride(64) == 64
