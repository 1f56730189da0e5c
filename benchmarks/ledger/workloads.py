"""The ledger's four campaign workloads and how ``--seed`` reaches them.

Trial counts are sized on a 2-core box so that one full run (set-up +
campaigns + fit) measures for about ``NOMINAL_SECONDS``; ``--seconds``
scales them linearly, so the work of a run is a pure function of
``(workload, seed, seconds)`` and every exact count compares across
commits.  ``README.md`` says why each workload exists.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Tuple

APPS = ("lulesh", "lammps", "minife", "amg", "mcb")

#: the ``run_seconds`` of BENCHMARK.json the trial counts are sized for
NOMINAL_SECONDS = 16

#: SC '15 era; the default ``--seed``
DEFAULT_SEED = 20150715


@dataclass(frozen=True)
class Workload:
    name: str
    apps: Tuple[str, ...]
    mode: str
    #: trials per app at NOMINAL_SECONDS
    trials: int
    #: trials per app re-run on the cold path when the seed has no
    #: committed reference (a prefix of the campaign's own fault plans)
    check_trials: int
    executor: str = "serial"
    #: pool workers / remote shards (1 = serial)
    workers: int = 1
    #: journal + artifact dir in the run's temp directory
    journaled: bool = False
    #: fit ``Session.fps()`` per app after the campaigns (Table 2)
    fit: bool = False
    #: cut the journal back to half its trials and time the resume
    resume: bool = False

    def scaled(self, seconds: float) -> "Workload":
        """This workload with its trial count sized for ``seconds``."""
        n = max(8, round(self.trials * seconds / NOMINAL_SECONDS))
        if self.resume:
            n += n % 2  # the journal is cut back to exactly half
        return replace(self, trials=n)

    @property
    def resumed(self) -> int:
        """Trials the resume re-executes (0 without a resume)."""
        return self.trials // 2 if self.resume else 0

    @property
    def attempted(self) -> int:
        return len(self.apps) * (self.trials + self.resumed)

    def campaign_kwargs(self) -> dict:
        """Keywords of ``repro.run_campaign`` this workload fixes."""
        kw: dict = {"mode": self.mode}
        if self.mode == "fpm":
            kw["keep_series"] = True
        if self.executor != "serial":
            kw.update(self.resume_kwargs())
        return kw

    def resume_kwargs(self) -> dict:
        kw: dict = {"executor": self.executor, "workers": self.workers}
        if self.executor == "remote":
            kw["shards"] = self.workers
        return kw


WORKLOADS = {w.name: w for w in (
    Workload("fig6-blackbox-serial", APPS, "blackbox", trials=32,
             check_trials=1),
    Workload("fig7-fpm-serial", APPS, "fpm", trials=21, check_trials=1,
             fit=True),
    Workload("mcb-pool-journal", ("mcb",), "blackbox", trials=1440,
             check_trials=12, executor="pool", workers=2, journaled=True),
    Workload("amg-remote-resume", ("amg",), "fpm", trials=224,
             check_trials=6, executor="remote", workers=2, journaled=True,
             resume=True),
)}


def campaign_seed(seed: int, workload: str, app: str) -> int:
    """The campaign seed of one (workload, app) under ``--seed``."""
    digest = hashlib.sha256(f"{seed}:{workload}:{app}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def cold_knobs(run_campaign) -> dict:
    """The escape hatches ``run_campaign`` still accepts, all switched to
    the cold path (no snapshots, prune, fork, tier-2 or lanes) — a knob a
    later change deletes simply stops being passed."""
    import inspect

    wanted = {"snapshot_stride": 0, "prune": False, "fork": False,
              "tier2": False, "lanes": 0}
    accepted = inspect.signature(run_campaign).parameters
    return {k: v for k, v in wanted.items() if k in accepted}
