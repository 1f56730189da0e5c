"""Where a campaign's trials execute: one supervised fleet, three names.

:class:`~repro.inject.executors.local.FleetExecutor` runs every trial —
in the driver (``serial``), or on worker processes over pipes (``pool``)
or authenticated localhost sockets (``remote``).  The campaign
controller (:mod:`repro.inject.engine`) submits the plan, streams the
fleet's events, and owns every piece of retry / quarantine / journal /
health policy.  This module holds the ``--executor`` vocabulary and the
one rule that turns ``executor`` / ``shards`` / ``workers`` into a name
and a fleet size.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ...errors import CampaignError
from .local import FleetExecutor, SupervisionEvent, TrialDone

#: the --executor / REPRO_EXECUTOR vocabulary
EXECUTOR_NAMES = ("serial", "pool", "remote")


def resolve_executor_name(requested: Optional[str], workers: int) -> str:
    """Backend name: explicit argument, else REPRO_EXECUTOR, else by
    fleet size (``serial`` for one worker, ``pool`` for more)."""
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

    The one resolution of the ``executor`` / ``shards`` arguments, made
    once per ``run_campaign`` / ``resume_campaign`` so a resumed
    campaign plans exactly as the recording one did.  The fleet size —
    processes running trials, and how many chunks an oversized fork
    bucket splits into — is ``shards`` if given, else the worker count,
    on either wire; ``serial`` is size 1 whatever was asked.
    """
    if shards is not None and shards < 1:
        raise CampaignError(f"shards must be >= 1, got {shards}")
    size = shards if shards is not None else max(workers, 1)
    name = resolve_executor_name(executor, size)
    return name, 1 if name == "serial" else size


__all__ = [
    "EXECUTOR_NAMES",
    "FleetExecutor",
    "SupervisionEvent",
    "TrialDone",
    "resolve_backend",
    "resolve_executor_name",
]
