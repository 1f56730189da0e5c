"""The executor contract: one API over serial, pool and remote backends.

An :class:`Executor` runs *shards* — ordered slices of a campaign's
pre-drawn trial jobs — and streams per-trial events back to the
campaign controller (:class:`repro.inject.engine.CampaignEngine`).  The
controller owns every piece of campaign-level policy: retry/quarantine
decisions, the journal, the observer, health accounting and the
graceful-degradation ladder.  An executor owns only *where and how*
trials execute:

* :class:`~repro.inject.executors.local.SerialExecutor` — in-driver,
  one trial per poll tick (the historical ``workers=1`` path);
* :class:`~repro.inject.executors.local.LocalPoolExecutor` — the
  supervised ``multiprocessing`` pool with per-trial watchdogs,
  prefetch pipelining and worker respawn (the historical ``workers>1``
  path);
* :class:`~repro.inject.executors.remote.RemoteExecutor` — a
  controller/worker split over localhost sockets: each shard runs on a
  spawned worker daemon that fetches golden state from the shared
  content-addressed artifact directory and streams trial results back.

The contract is four calls — ``submit_shard`` / ``poll`` / ``cancel`` /
``capabilities`` — plus ``start``/``close`` lifecycle hooks.  Because
every trial's fault plan and RNG seed are drawn up front from the
campaign seed, *any* interleaving of shard execution produces the same
science: the bit-identity conformance suite
(``tests/inject/test_executor_contract.py``) asserts it backend by
backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class ShardSpec:
    """One unit of submitted work: trial indices in execution order.

    ``batches`` optionally carries the fork-epoch bucket structure
    covering (a superset of) ``indices`` — local pool executors use it
    to keep one bucket on one worker.  ``not_before``
    is a monotonic-clock stamp before which no trial of this shard may
    start executing (retry backoff); 0.0 means immediately.  ``retry``
    marks a shard that re-submits already-failed trials, so executors
    can fold it into their retry queues rather than their batch plan.
    """

    shard_id: int
    indices: Tuple[int, ...]
    batches: Optional[Tuple[Tuple[int, ...], ...]] = None
    not_before: float = 0.0
    retry: bool = False

    @property
    def n_trials(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class ExecutorCapabilities:
    """What a backend can do — the controller adapts its plan to this."""

    name: str
    #: shards execute on separate OS processes/hosts (shard planning
    #: with more than one shard is meaningful)
    distributed: bool = False
    #: most shards the backend can usefully run concurrently
    max_shards: int = 1
    #: the backend enforces the per-trial wall-clock watchdog with a
    #: hard kill (serial execution only has the soft in-VM deadline)
    hard_watchdog: bool = False
    #: trials execute inside the driver process itself
    in_driver: bool = False


# ----------------------------------------------------------------------
# Events streamed from executor to controller
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TrialDone:
    """One trial finished: ``ok`` carries a TrialResult in ``payload``;
    a failure carries ``(FailureKind value, detail string)``."""

    shard_id: int
    index: int
    ok: bool
    payload: object


@dataclass(frozen=True)
class ShardLost:
    """A shard's worker died; ``remaining`` never started executing.

    The in-flight head trial (if any) is reported separately as a
    failed :class:`TrialDone` so it goes through the controller's
    retry/quarantine taxonomy; ``remaining`` trials are clean and the
    controller reassigns them without a failure mark.
    """

    shard_id: int
    remaining: Tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class SupervisionEvent:
    """Backend supervision notice (respawn, watchdog kill, shrink...).

    ``kind`` is one of ``worker_respawn`` / ``watchdog_kill`` /
    ``pool_shrink`` / ``worker_lost`` / ``executor_collapsed``;
    ``attrs`` carries structured detail for the observer and the
    health ledger.
    """

    kind: str
    attrs: dict = field(default_factory=dict)


class Executor:
    """Abstract executor: lifecycle + the four-call contract.

    Usage, as driven by the campaign controller::

        ex.start(jobs, task_fn=...)        # bind the campaign's job list
        ex.submit_shard(shard)             # one or more times
        while ...:
            for ev in ex.poll(timeout):    # TrialDone / ShardLost / ...
                ...
            ex.submit_shard(retry_shard)   # controller-decided retries
        ex.close()                         # graceful; cancel() to abort

    ``poll`` advances the backend (dispatch, supervision sweeps) and
    returns every event that occurred, blocking at most ``timeout``
    seconds.  Executors never decide campaign policy: a failed trial is
    reported exactly once and the controller re-submits or quarantines.
    """

    name = "abstract"

    # -- lifecycle -----------------------------------------------------
    def start(self, jobs: List[tuple], *, task_fn, timeout=None,
              kill_grace: float = 5.0) -> None:
        """Bind the campaign's job list and trial driver.

        ``timeout`` is the per-trial wall-clock watchdog in seconds
        (None: off); ``kill_grace`` the slack on top of it before a
        hard kill, for backends with a hard watchdog.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Graceful shutdown: drain nothing, release workers."""
        raise NotImplementedError

    # -- the contract --------------------------------------------------
    def submit_shard(self, shard: ShardSpec) -> None:
        """Queue a shard for execution (also used for retry shards)."""
        raise NotImplementedError

    def poll(self, timeout: float) -> List[object]:
        """Advance the backend; return accumulated events.

        Blocks at most ``timeout`` seconds waiting for progress.  An
        empty list means nothing happened this tick.
        """
        raise NotImplementedError

    def cancel(self) -> None:
        """Abort outstanding work as fast as possible (kill workers)."""
        raise NotImplementedError

    def capabilities(self) -> ExecutorCapabilities:
        raise NotImplementedError

    # -- controller conveniences ---------------------------------------
    @property
    def collapsed(self) -> bool:
        """True once the backend can make no further progress (every
        worker slot retired); the controller falls back to serial."""
        return False

    def has_pending(self) -> bool:
        """Any submitted trial not yet reported?"""
        raise NotImplementedError
