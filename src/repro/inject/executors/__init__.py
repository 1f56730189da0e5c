"""Pluggable campaign execution backends.

One :class:`~repro.inject.executors.base.Executor` contract, two
implementations: in-driver serial, and the supervised worker fleet that
``pool`` (pipe wire) and ``remote`` (localhost socket wire) both name.
The campaign controller (:mod:`repro.inject.engine`) is
backend-agnostic — it submits the plan, streams events, and owns every
piece of retry/quarantine/journal/degradation policy.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ...errors import CampaignError
from .base import (
    Executor,
    ExecutorCapabilities,
    ShardSpec,
    SupervisionEvent,
    TrialDone,
)

#: the --executor / REPRO_EXECUTOR vocabulary
EXECUTOR_NAMES = ("serial", "pool", "remote")


def resolve_executor_name(requested: Optional[str], workers: int) -> str:
    """Backend name: explicit argument, else REPRO_EXECUTOR, else by
    worker count (``serial`` for one worker, ``pool`` for more)."""
    from ...core.settings import current_settings

    name = requested
    if name is None:
        name = current_settings().executor
    if name is None:
        return "serial" if workers <= 1 else "pool"
    if name not in EXECUTOR_NAMES:
        raise CampaignError(
            f"unknown executor {name!r}; expected one of "
            f"{', '.join(EXECUTOR_NAMES)}"
        )
    return name


def resolve_backend(executor: Optional[str], shards: Optional[int],
                    workers: int) -> Tuple[str, int]:
    """``(backend name, fleet size)`` of a run.

    The one resolution of the ``executor`` / ``shards`` arguments,
    shared by ``run_campaign``, ``resume_campaign`` and the engine so a
    resumed campaign plans exactly as the recording one did.  The fleet
    size — processes running trials, and how many chunks an oversized
    fork bucket splits into — is 1 in the driver, the worker count on
    ``pool``, and ``shards`` (default: the worker count) on ``remote``.
    """
    name = resolve_executor_name(executor, workers)
    if name == "serial":
        return name, 1
    if name == "remote" and shards is not None:
        return name, shards
    return name, max(workers, 1)


def make_executor(name: str, workers: int, *,
                  degrade_after: int) -> Executor:
    """Instantiate a backend by name, ``workers`` processes strong
    (lazy imports keep cycles out)."""
    from .local import FleetExecutor, SerialExecutor

    if name == "serial":
        return SerialExecutor()
    if name in ("pool", "remote"):
        return FleetExecutor(name, max(workers, 1),
                             degrade_after=degrade_after)
    raise CampaignError(
        f"unknown executor {name!r}; expected one of "
        f"{', '.join(EXECUTOR_NAMES)}"
    )


__all__ = [
    "EXECUTOR_NAMES",
    "Executor",
    "ExecutorCapabilities",
    "ShardSpec",
    "SupervisionEvent",
    "TrialDone",
    "make_executor",
    "resolve_backend",
    "resolve_executor_name",
]
