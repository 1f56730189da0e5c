"""Shared campaign infrastructure for the figure/table benchmarks.

Campaigns are expensive, so they run once per session per (app, mode) and
are shared by every benchmark that needs them.  Trial count comes from
REPRO_TRIALS (default 150) and process parallelism from REPRO_WORKERS
(default: up to 4); both are validated by the campaign layer, and
campaigns run on the supervised engine (watchdog via
REPRO_TRIAL_TIMEOUT, crashed-worker recovery, quarantine).  Rendered
tables/figures are written to ``benchmarks/results/`` so EXPERIMENTS.md
can cite them.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core.settings import env_int
from repro.inject import run_campaign

RESULTS_DIR = Path(__file__).parent / "results"


def trials() -> int:
    return env_int("REPRO_TRIALS", 150)


def workers() -> int:
    return env_int("REPRO_WORKERS", min(4, os.cpu_count() or 1))


SEED = 20150715  # SC '15 era


class CampaignCache:
    def __init__(self) -> None:
        self._cache = {}

    def get(self, app: str, mode: str, seed: int = SEED, **kw):
        key = (app, mode, seed, tuple(sorted(kw.items())))
        if key not in self._cache:
            self._cache[key] = run_campaign(
                app,
                trials=trials(),
                mode=mode,
                seed=seed,
                workers=workers(),
                keep_series=(mode == "fpm"),
                **kw,
            )
        return self._cache[key]


@pytest.fixture(scope="session")
def campaigns() -> CampaignCache:
    return CampaignCache()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_artifact(results_dir: Path, name: str, text: str) -> None:
    (results_dir / name).write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n")
