"""One validated view of every ``REPRO_*`` environment knob.

PRs 1-3 each grew their own ad-hoc ``os.environ`` parsing (trials,
workers, watchdogs, caches, batching); this module replaces them
with a single :class:`Settings` dataclass and one warn-and-fallback
path.  Call sites resolve knobs through :func:`current_settings`, which
re-reads the environment on every call — campaigns and tests may mutate
``os.environ`` between invocations, and the old helpers behaved that
way too.

The module deliberately imports nothing from the rest of the package so
any layer (vm, fpm, inject, cli) can depend on it without cycles.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, fields
from typing import Mapping, Optional

#: documented default for every knob (single source of truth; README and
#: ``repro --help`` text describe these)
DEFAULT_TRIALS = 120
DEFAULT_WORKERS = 1
DEFAULT_SNAPSHOT_STRIDE = 2048
DEFAULT_RETRY_BASE_DELAY = 0.05
DEFAULT_RETRY_MAX_DELAY = 2.0
DEFAULT_CHAOS_SEED = 0

# mirrors repro.inject.executors.EXECUTOR_NAMES (kept literal: settings
# must stay importable before the inject package)
_EXECUTOR_NAMES = ("serial", "pool", "remote")


def _warn(name: str, raw: str, why: str, fallback) -> None:
    warnings.warn(
        f"ignoring {name}={raw!r}: {why}, using {fallback}",
        stacklevel=4,
    )


def _parse_int(env: Mapping[str, str], name: str, default: int,
               minimum: int = 1, clamp: bool = False) -> int:
    raw = env.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw)
    except ValueError:
        _warn(name, raw, "not an integer", default)
        return default
    if value < minimum:
        # the stride knob keeps its historical "silently raise to the
        # floor" behaviour
        if clamp:
            return minimum
        _warn(name, raw, f"must be >= {minimum}", default)
        return default
    return value


def _parse_float(env: Mapping[str, str], name: str,
                 default: Optional[float],
                 allow_zero: bool = False) -> Optional[float]:
    raw = env.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = float(raw)
    except ValueError:
        _warn(name, raw, "not a number", default)
        return default
    if value < 0 or (value == 0 and not allow_zero):
        _warn(name, raw, "must be > 0" if not allow_zero else "must be >= 0",
              default)
        return default
    return value


def _parse_bool(env: Mapping[str, str], name: str, default: bool) -> bool:
    raw = env.get(name)
    if raw is None or not raw.strip():
        return default
    return raw.strip().lower() not in ("0", "false", "off")


def _parse_str(env: Mapping[str, str], name: str) -> Optional[str]:
    raw = env.get(name, "").strip()
    return raw or None


def _parse_opt_choice(env: Mapping[str, str], name: str,
                      choices: tuple) -> Optional[str]:
    """One of ``choices``, or None (auto) when unset or invalid."""
    raw = env.get(name, "").strip().lower()
    if not raw:
        return None
    if raw not in choices:
        _warn(name, raw, f"expected one of {choices}", None)
        return None
    return raw


@dataclass(frozen=True)
class Settings:
    """Every environment-tunable knob, parsed and validated once.

    Field defaults are the documented knob defaults; an explicit
    function argument at a call site always wins over the environment
    (the resolution helpers in each layer implement that precedence).
    """

    # -- campaign scale -------------------------------------------------
    #: REPRO_TRIALS — fault-injection trials per campaign
    trials: int = DEFAULT_TRIALS
    #: REPRO_WORKERS — supervised worker processes (1 = serial)
    workers: int = DEFAULT_WORKERS
    #: REPRO_TRIAL_TIMEOUT — per-trial wall-clock watchdog, seconds
    trial_timeout: Optional[float] = None
    #: REPRO_EXECUTOR — execution backend: serial | pool | remote
    #: (unset = auto: serial for one worker, pool for more)
    executor: Optional[str] = None
    #: REPRO_ARTIFACT_DIR — shared golden-artifact directory (None = off)
    artifact_dir: Optional[str] = None
    # -- trial positioning ----------------------------------------------
    #: REPRO_SNAPSHOT_STRIDE — golden capture stride in cycles (0 = off,
    #: and with it convergence pruning)
    snapshot_stride: int = DEFAULT_SNAPSHOT_STRIDE
    # -- harness resilience ---------------------------------------------
    #: REPRO_RETRY_BASE_DELAY — first backoff delay for transient
    #: harness IO failures, seconds
    retry_base_delay: float = DEFAULT_RETRY_BASE_DELAY
    #: REPRO_RETRY_MAX_DELAY — backoff ceiling, seconds
    retry_max_delay: float = DEFAULT_RETRY_MAX_DELAY
    # -- chaos (harness-fault injection) --------------------------------
    #: REPRO_CHAOS — inject faults into the harness itself (testing)
    chaos: bool = False
    #: REPRO_CHAOS_SEED — deterministic seed for chaos decisions
    chaos_seed: int = DEFAULT_CHAOS_SEED
    # -- observability --------------------------------------------------
    #: REPRO_OBS_TRACE — default trace JSONL path (enables observe)
    obs_trace: Optional[str] = None
    #: REPRO_OBS_METRICS — default Prometheus-text output path
    obs_metrics: Optional[str] = None

    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None) -> "Settings":
        """Parse the environment with warn-and-fallback on bad values."""
        if env is None:
            env = os.environ
        return cls(
            trials=_parse_int(env, "REPRO_TRIALS", DEFAULT_TRIALS),
            workers=_parse_int(env, "REPRO_WORKERS", DEFAULT_WORKERS),
            trial_timeout=_parse_float(env, "REPRO_TRIAL_TIMEOUT", None),
            executor=_parse_opt_choice(
                env, "REPRO_EXECUTOR", _EXECUTOR_NAMES),
            artifact_dir=_parse_str(env, "REPRO_ARTIFACT_DIR"),
            snapshot_stride=_parse_int(
                env, "REPRO_SNAPSHOT_STRIDE", DEFAULT_SNAPSHOT_STRIDE,
                minimum=0, clamp=True),
            retry_base_delay=_parse_float(
                env, "REPRO_RETRY_BASE_DELAY", DEFAULT_RETRY_BASE_DELAY,
                allow_zero=True),
            retry_max_delay=_parse_float(
                env, "REPRO_RETRY_MAX_DELAY", DEFAULT_RETRY_MAX_DELAY,
                allow_zero=True),
            chaos=_parse_bool(env, "REPRO_CHAOS", False),
            chaos_seed=_parse_int(
                env, "REPRO_CHAOS_SEED", DEFAULT_CHAOS_SEED, minimum=0),
            obs_trace=_parse_str(env, "REPRO_OBS_TRACE"),
            obs_metrics=_parse_str(env, "REPRO_OBS_METRICS"),
        )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def env_int(name: str, default: int, minimum: int = 1) -> int:
    """One-off validated integer lookup for knobs outside the schema
    (benchmark tunables like ``REPRO_BENCH_TRIALS``), sharing the same
    warn-and-fallback path as :meth:`Settings.from_env`."""
    return _parse_int(os.environ, name, default, minimum)


def current_settings() -> Settings:
    """The environment as a :class:`Settings`, re-read on every call.

    Deliberately uncached: campaigns, benchmarks and tests mutate
    ``os.environ`` between calls and expect the change to take effect,
    exactly as the scattered per-knob helpers behaved before.
    """
    return Settings.from_env()
