"""The executor contract: one API over the driver and the worker fleet.

An :class:`Executor` runs the campaign's pre-drawn trial jobs and
streams per-trial events back to the campaign controller
(:class:`repro.inject.engine.CampaignEngine`).  The controller owns
every piece of campaign-level policy: retry/quarantine decisions, the
journal, the observer, health accounting and the graceful-degradation
ladder.  An executor owns only *where and how* trials execute:

* :class:`~repro.inject.executors.local.SerialExecutor` — in-driver,
  one trial per poll tick (``executor="serial"``);
* :class:`~repro.inject.executors.local.FleetExecutor` — supervised
  worker processes with per-trial watchdogs, unit dispatch and worker
  respawn.  ``executor="pool"`` and ``executor="remote"`` are the same
  class; the name picks the wire (a pipe, or an authenticated localhost
  TCP connection).

The contract is four calls — ``submit_shard`` / ``poll`` / ``cancel`` /
``capabilities`` — plus ``start``/``close`` lifecycle hooks.  Because
every trial's fault plan and RNG seed are drawn up front from the
campaign seed, *any* interleaving of execution produces the same
science: the bit-identity conformance suite
(``tests/inject/test_executor_contract.py``) asserts it backend by
backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class ShardSpec:
    """One submission of work: trial indices in execution order.

    ``batches`` optionally carries the fork-epoch bucket structure of
    ``indices`` — the fleet ships one bucket to one worker as one unit.
    ``not_before`` is a monotonic-clock stamp before which no trial of
    this submission may start executing (retry backoff); 0.0 means
    immediately.
    """

    indices: Tuple[int, ...]
    batches: Optional[Tuple[Tuple[int, ...], ...]] = None
    not_before: float = 0.0


@dataclass(frozen=True)
class ExecutorCapabilities:
    """What a backend can do — the controller adapts to this."""

    name: str
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
    a failure carries ``(FailureKind value, detail string)``.
    ``shard_id`` is the worker slot that ran it (0 in the driver) — the
    journal's ``shard`` tag."""

    shard_id: int
    index: int
    ok: bool
    payload: object


@dataclass(frozen=True)
class SupervisionEvent:
    """Backend supervision notice.

    ``kind`` is one of ``worker_respawn`` / ``watchdog_kill`` /
    ``pool_shrink``; ``attrs`` carries structured detail for the
    observer and the health ledger.
    """

    kind: str
    attrs: dict = field(default_factory=dict)


class Executor:
    """Abstract executor: lifecycle + the four-call contract.

    Usage, as driven by the campaign controller::

        ex.start(jobs, task_fn=...)        # bind the campaign's job list
        ex.submit_shard(shard)             # the campaign's plan
        while ...:
            for ev in ex.poll(timeout):    # TrialDone / SupervisionEvent
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
              kill_grace: Optional[float] = None) -> None:
        """Bind the campaign's job list and trial driver.

        ``timeout`` is the per-trial wall-clock watchdog in seconds
        (None: off); ``kill_grace`` the slack on top of it before a
        hard kill, for backends with a hard watchdog (None: theirs).
        """
        raise NotImplementedError

    def close(self) -> None:
        """Graceful shutdown: drain nothing, release workers."""
        raise NotImplementedError

    # -- the contract --------------------------------------------------
    def submit_shard(self, shard: ShardSpec) -> None:
        """Queue trials for execution (also used for retries)."""
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
