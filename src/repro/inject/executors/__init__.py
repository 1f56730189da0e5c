"""Pluggable campaign execution backends.

One :class:`~repro.inject.executors.base.Executor` contract, three
backends: in-driver serial, the supervised local ``multiprocessing``
pool, and the simulated-remote controller/worker fabric over localhost
sockets.  The campaign controller (:mod:`repro.inject.engine`) is
backend-agnostic — it plans shards, streams events, and owns every
piece of retry/quarantine/journal/degradation policy.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from ...errors import CampaignError
from .base import (
    Executor,
    ExecutorCapabilities,
    ShardLost,
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


def resolve_backend(executor: Union[None, str, Executor],
                    shards: Optional[int], workers: int
                    ) -> Tuple[str, int, int]:
    """``(backend name, shard count, planning parallelism)`` of a run.

    The one resolution of the ``executor`` / ``shards`` arguments and
    their REPRO_EXECUTOR / REPRO_SHARDS fallbacks, shared by
    ``run_campaign``, ``resume_campaign`` and the engine so a resumed
    campaign plans exactly as the recording one did.  The shard count
    is the explicit argument, else an executor instance's own capacity,
    else REPRO_SHARDS, else the worker count; the parallelism — how
    many chunks an oversized fork bucket splits into — is the shard
    count on a distributed backend and the worker count otherwise.
    """
    from ...core.settings import current_settings

    if isinstance(executor, Executor):
        caps = executor.capabilities()
        name, distributed = caps.name, caps.distributed
        if shards is None and distributed:
            shards = caps.max_shards
    else:
        name = resolve_executor_name(executor, workers)
        distributed = name == "remote"
    if shards is None:
        configured = current_settings().shards
        shards = configured if configured > 0 else max(workers, 1)
    return name, shards, shards if distributed else workers


def make_executor(name: str, *, workers: int, shards: int,
                  degrade_after: int) -> Executor:
    """Instantiate a backend by name (lazy imports keep cycles out)."""
    if name == "serial":
        from .local import SerialExecutor
        return SerialExecutor()
    if name == "pool":
        from .local import LocalPoolExecutor
        return LocalPoolExecutor(max(workers, 1),
                                 degrade_after=degrade_after)
    if name == "remote":
        from .remote import RemoteExecutor
        return RemoteExecutor(max(shards, 1), degrade_after=degrade_after)
    raise CampaignError(
        f"unknown executor {name!r}; expected one of "
        f"{', '.join(EXECUTOR_NAMES)}"
    )


__all__ = [
    "EXECUTOR_NAMES",
    "Executor",
    "ExecutorCapabilities",
    "ShardLost",
    "ShardSpec",
    "SupervisionEvent",
    "TrialDone",
    "make_executor",
    "resolve_backend",
    "resolve_executor_name",
]
