"""Typed campaign specification: one frozen object instead of ~15 kwargs.

:class:`CampaignSpec` collapses the keyword sprawl threaded through
:func:`repro.inject.campaign.run_campaign` and
:meth:`repro.api.Session.campaign` into a single validated, hashable,
reusable value::

    spec = CampaignSpec(app="amg", trials=500, mode="fpm",
                        workers=4, executor="remote", shards=4)
    result = repro.run_campaign(spec)
    result = repro.Session("amg", mode="fpm").campaign(spec=spec)

Validation happens once, in ``__post_init__`` — a bad trial count or an
unknown executor fails at construction, not twenty minutes into golden
profiling.  ``None`` means "resolve from the environment" for every
knob that has a ``REPRO_*`` variable, exactly like the keyword form.

Historical keyword spellings (``n_trials`` / ``n_workers`` /
``wall_timeout``) are accepted by :meth:`CampaignSpec.from_kwargs` with
a :class:`DeprecationWarning`, mirroring the ``repro.api`` shim, so old
call sites migrate by search-and-replace at their own pace.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from typing import Mapping, Optional, Tuple

from ..errors import CampaignError

_MODES = ("blackbox", "fpm", "taint")
_EXECUTORS = ("serial", "pool", "remote")

#: historical keyword spellings and their current names (the same table
#: repro.api honours); accepted by from_kwargs with a DeprecationWarning
_RENAMED_KWARGS = {
    "n_trials": "trials",
    "n_workers": "workers",
    "wall_timeout": "timeout",
}


@dataclass(frozen=True)
class CampaignSpec:
    """Everything that defines one fault-injection campaign.

    The science knobs (app, trials, mode, faults, seed, rank, bit) pin
    down *what* is measured; the execution knobs (workers, executor,
    shards, timeout, retries, journal, artifact_dir, observe,
    prune/fork/tier2) pin down *how* — and never change the science,
    which is the engine's bit-identity contract.
    """

    #: registered application name (``amg``, ``lulesh``, ...)
    app: str
    #: fault-injection trials (None: REPRO_TRIALS or 120)
    trials: Optional[int] = None
    #: analysis mode: blackbox (Sec. 4.2), fpm (Sec. 4.3) or taint
    mode: str = "blackbox"
    #: transient faults injected per trial
    n_faults: int = 1
    #: campaign seed — every trial's fault plan and RNG derive from it
    seed: int = 2025
    #: worker processes (None: REPRO_WORKERS or 1)
    workers: Optional[int] = None
    #: retain each trial's CML(t) series for model fitting
    keep_series: bool = False
    #: restrict injections to one rank (None: any)
    rank: Optional[int] = None
    #: restrict injections to one bit position (None: drawn per fault)
    bit: Optional[int] = None
    #: application build parameters (problem size etc.)
    params: Optional[Tuple[Tuple[str, object], ...]] = None
    #: per-trial wall-clock watchdog, seconds (None: REPRO_TRIAL_TIMEOUT)
    timeout: Optional[float] = None
    #: re-executions after a harness failure before quarantine
    max_retries: int = 2
    #: JSONL checkpoint path (None: no journal)
    journal: Optional[str] = None
    #: golden snapshot capture stride in cycles (None: env; 0: off)
    snapshot_stride: Optional[int] = None
    #: shared content-addressed golden artifact directory (None: env)
    artifact_dir: Optional[str] = None
    #: observability: True/"on", False/"off", ObserveConfig, None = env
    observe: object = None
    #: golden-trajectory convergence pruning (None: REPRO_PRUNE)
    prune: Optional[bool] = None
    #: fork-at-injection execution (None: on; False: every trial cold)
    fork: Optional[bool] = None
    #: tier-2 golden-trace compilation (None: REPRO_TIER2)
    tier2: Optional[bool] = None
    #: execution backend: serial | pool | remote (None: REPRO_EXECUTOR
    #: or auto by worker count)
    executor: Optional[str] = None
    #: size of the ``remote`` executor's fleet (None: the worker count)
    shards: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.app or not isinstance(self.app, str):
            raise CampaignError(f"app must be a non-empty string, "
                                f"got {self.app!r}")
        if self.mode not in _MODES:
            raise CampaignError(
                f"unknown mode {self.mode!r}; expected one of {_MODES}")
        if self.trials is not None and self.trials < 1:
            raise CampaignError(f"trials must be >= 1, got {self.trials}")
        if self.workers is not None and self.workers < 1:
            raise CampaignError(f"workers must be >= 1, got {self.workers}")
        if self.n_faults < 1:
            raise CampaignError(f"n_faults must be >= 1, got {self.n_faults}")
        if self.timeout is not None and self.timeout <= 0:
            raise CampaignError(f"timeout must be > 0, got {self.timeout}")
        if self.max_retries < 0:
            raise CampaignError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.rank is not None and self.rank < 0:
            raise CampaignError(f"rank must be >= 0, got {self.rank}")
        if self.bit is not None and not 0 <= self.bit < 64:
            raise CampaignError(f"bit must be in [0, 64), got {self.bit}")
        if self.executor is not None and self.executor not in _EXECUTORS:
            raise CampaignError(
                f"unknown executor {self.executor!r}; expected one of "
                f"{_EXECUTORS}")
        if self.shards is not None and self.shards < 1:
            raise CampaignError(f"shards must be >= 1, got {self.shards}")
        if self.snapshot_stride is not None and self.snapshot_stride < 0:
            raise CampaignError(
                f"snapshot_stride must be >= 0, got {self.snapshot_stride}")
        # params arrives as a dict at most call sites; freeze it so the
        # spec stays hashable and safe to share between campaigns
        if isinstance(self.params, Mapping):
            object.__setattr__(
                self, "params", tuple(sorted(self.params.items())))

    # ------------------------------------------------------------------
    @classmethod
    def from_kwargs(cls, app: str, **kwargs) -> "CampaignSpec":
        """Build a spec from keyword-style arguments.

        Accepts the historical spellings (``n_trials``, ``n_workers``,
        ``wall_timeout``) with a :class:`DeprecationWarning`; rejects a
        keyword given under both its old and new name, and any keyword
        that is not a spec field.
        """
        for old, new in _RENAMED_KWARGS.items():
            if old not in kwargs:
                continue
            warnings.warn(
                f"keyword {old!r} is deprecated, use {new!r}",
                DeprecationWarning,
                stacklevel=3,
            )
            if new in kwargs and kwargs[new] is not None:
                raise CampaignError(
                    f"both {old!r} and {new!r} given; use only {new!r}")
            kwargs[new] = kwargs.pop(old)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(kwargs) - known)
        if unknown:
            raise CampaignError(
                f"unknown campaign keyword(s): {', '.join(unknown)}")
        return cls(app=app, **kwargs)

    def kwargs(self) -> dict:
        """The spec as :func:`repro.inject.campaign.run_campaign` kwargs."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if out["params"] is not None:
            out["params"] = dict(out["params"])
        return out

    def replace(self, **changes) -> "CampaignSpec":
        """A copy with the given fields changed (validated again)."""
        from dataclasses import replace as _replace
        return _replace(self, **changes)
