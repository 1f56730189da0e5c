"""Local backends: in-driver serial execution and the supervised pool.

These are the two historical execution paths of
:class:`repro.inject.engine.CampaignEngine`, ported unchanged onto the
:class:`~repro.inject.executors.base.Executor` contract:

* :class:`SerialExecutor` — trials run inside the driver process, one
  per poll tick; the watchdog is the soft in-VM deadline carried by the
  job itself, and retry backoff is honoured by sleeping in place so
  execution order stays deterministic.
* :class:`LocalPoolExecutor` — supervised ``multiprocessing`` workers
  talking over one duplex pipe each (killing a worker cannot corrupt
  any other worker's channel), with per-trial hard watchdogs, prefetch
  pipelining, fork-bucket batch affinity, worker respawn after
  crashes, and the respawn-budget rungs of the graceful-degradation
  ladder (pool shrink; a fully collapsed pool is reported via
  :attr:`~LocalPoolExecutor.collapsed` and the campaign controller
  finishes serially in the driver).

Campaign *policy* — retry vs. quarantine, journaling, health — stays in
the controller; these classes only report what happened as events.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from collections import deque
from multiprocessing.connection import wait as _conn_wait
from typing import Deque, Dict, List, Optional, Tuple

from ...core.settings import DEFAULT_PREFETCH, current_settings
from ...errors import FailureKind, TrialTimeoutError
from .. import chaos
from .base import (
    Executor,
    ExecutorCapabilities,
    ShardSpec,
    SupervisionEvent,
    TrialDone,
)

#: extra wall-clock slack granted on top of the soft in-VM watchdog
#: before the supervisor hard-kills the worker
_KILL_GRACE = 5.0
#: trials kept in flight per worker (head running + queued in its
#: pipe), so a worker never idles a supervisor round-trip between
#: trials; the watchdog deadline always covers the head trial only
_PREFETCH = DEFAULT_PREFETCH


def prefetch_depth() -> int:
    """Per-worker dispatch pipeline depth (``REPRO_PREFETCH``, min 1).

    Depth 1 reverts to one-at-a-time dispatch: the worker idles for a
    full supervisor round-trip after every trial.
    """
    return current_settings().prefetch


def _mp_context():
    """Fork where available (workers inherit the prepared-app cache);
    spawn elsewhere."""
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()


def _pool_worker(conn, task_fn, fresh: bool, chaos_hang_s: float = 0.0
                 ) -> None:
    """Worker loop: receive (index, args), run, send (index, ok, payload).

    ``fresh`` workers (respawned after a crash or watchdog kill) clear
    the inherited prepared-app cache first: the previous incarnation may
    have died *because* of corrupted cached state.  When chaos is armed
    (:mod:`repro.inject.chaos`), the worker may abruptly die or wedge
    before a trial — ``chaos_hang_s`` is the sleep that outlasts the
    supervisor's watchdog (0 when no watchdog is set: a hang nobody can
    recover is never injected).
    """
    from .. import campaign as _campaign

    if fresh:
        _campaign._PREPARED_CACHE.clear()
    monkey = chaos.monkey()
    try:
        while True:
            msg = conn.recv()
            if msg is None:
                return
            index, args = msg
            if monkey is not None:
                monkey.maybe_kill_worker(index)
                monkey.maybe_hang_trial(index, chaos_hang_s)
            try:
                result = task_fn(args)
            except TrialTimeoutError as exc:
                conn.send((index, False, (FailureKind.TIMEOUT.value, str(exc))))
            except Exception as exc:
                conn.send((index, False,
                           (FailureKind.EXCEPTION.value,
                            f"{type(exc).__name__}: {exc}")))
            else:
                conn.send((index, True, result))
    except (EOFError, OSError, KeyboardInterrupt):
        pass


class _Worker:
    """Supervisor-side handle of one worker process."""

    __slots__ = ("proc", "conn", "inflight", "batch", "deadline", "retired")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        #: trial indices dispatched but not yet returned, FIFO — the
        #: head is executing, the rest sit prefetched in the pipe
        self.inflight: Deque[int] = deque()
        #: remainder of the fork-epoch bucket this worker owns
        self.batch: Deque[int] = deque()
        #: monotonic instant after which the supervisor kills the worker
        #: (covers the head in-flight trial)
        self.deadline: Optional[float] = None
        #: permanently removed from the pool by the degradation ladder
        self.retired = False

    @property
    def index(self) -> Optional[int]:
        """Head trial index — the one actually executing (None = idle)."""
        return self.inflight[0] if self.inflight else None


# ----------------------------------------------------------------------
# Serial
# ----------------------------------------------------------------------

class SerialExecutor(Executor):
    """In-driver execution, one trial per poll tick.

    The watchdog is the soft in-VM deadline carried by the job itself
    (``run_job(wall_timeout=...)``); there is no process to kill.
    Retry shards carry a backoff stamp which is honoured by sleeping
    (rather than reordering), keeping serial execution deterministic.
    """

    name = "serial"

    def __init__(self) -> None:
        #: (trial index, not-before stamp, shard id), FIFO
        self._queue: Deque[Tuple[int, float, int]] = deque()
        self._jobs: List[tuple] = []
        self._task_fn = None

    # -- lifecycle -----------------------------------------------------
    def start(self, jobs, *, task_fn, timeout=None,
              kill_grace: float = _KILL_GRACE) -> None:
        self._jobs = jobs
        self._task_fn = task_fn

    def close(self) -> None:
        self._queue.clear()

    # -- contract ------------------------------------------------------
    def submit_shard(self, shard: ShardSpec) -> None:
        for index in shard.indices:
            self._queue.append((index, shard.not_before, shard.shard_id))

    def poll(self, timeout: float) -> List[object]:
        if not self._queue:
            return []
        index, not_before, shard_id = self._queue.popleft()
        wait = not_before - time.monotonic()
        if wait > 0:
            # honour the retry backoff; sleeping (rather than
            # reordering) keeps serial execution order deterministic
            time.sleep(wait)
        try:
            trial = self._task_fn(self._jobs[index])
        except TrialTimeoutError as exc:
            return [TrialDone(shard_id, index, False,
                              (FailureKind.TIMEOUT.value, str(exc)))]
        except Exception as exc:
            return [TrialDone(shard_id, index, False,
                              (FailureKind.EXCEPTION.value,
                               f"{type(exc).__name__}: {exc}"))]
        return [TrialDone(shard_id, index, True, trial)]

    def cancel(self) -> None:
        self._queue.clear()

    def capabilities(self) -> ExecutorCapabilities:
        return ExecutorCapabilities(
            name=self.name, distributed=False, max_shards=1,
            hard_watchdog=False, in_driver=True,
        )

    def has_pending(self) -> bool:
        return bool(self._queue)


# ----------------------------------------------------------------------
# Local pool
# ----------------------------------------------------------------------

class LocalPoolExecutor(Executor):
    """Supervised worker-process pool behind the executor contract.

    One :meth:`poll` call is one supervision tick: top every worker up
    to the prefetch depth, wait for results, then sweep for crashed or
    watchdog-expired workers.  Failures are *reported* (as failed
    :class:`TrialDone` events) but never retried here — the controller
    owns the retry/quarantine taxonomy and re-submits eligible trials
    as retry shards.

    The respawn budget implements the pool rungs of the graceful
    degradation ladder: each ``degrade_after`` worker deaths retires a
    slot (``pool_shrink`` supervision event) instead of feeding an
    infinite respawn storm; when every slot is retired the executor is
    :attr:`collapsed` and the controller finishes serially.
    """

    name = "pool"

    def __init__(self, workers: int, *, degrade_after: int = 4) -> None:
        self.workers = workers
        self.degrade_after = degrade_after
        self._respawn_budget = degrade_after
        self._ctx = None
        self._pool: List[_Worker] = []
        self._jobs: List[tuple] = []
        self._task_fn = None
        self.timeout: Optional[float] = None
        self.kill_grace = _KILL_GRACE
        #: flat dispatch queue: new trials without batches, plus retries
        self._queue: Deque[int] = deque()
        #: batch deques (lists of trial indices) awaiting a worker
        self._batches_q: Optional[Deque[Deque[int]]] = None
        #: earliest monotonic instant a retried trial may re-dispatch
        self._not_before: Dict[int, float] = {}
        self._shard_of: Dict[int, int] = {}
        self._started = False

    # -- lifecycle -----------------------------------------------------
    def start(self, jobs, *, task_fn, timeout=None,
              kill_grace: float = _KILL_GRACE) -> None:
        self._jobs = jobs
        self._task_fn = task_fn
        self.timeout = timeout
        self.kill_grace = kill_grace
        self._ctx = _mp_context()
        self._pool = [self._spawn(fresh=False) for _ in range(self.workers)]
        self._started = True

    def close(self) -> None:
        for w in self._pool:
            try:
                w.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for w in self._pool:
            w.proc.join(1.0)
            if w.proc.is_alive():
                getattr(w.proc, "kill", w.proc.terminate)()
                w.proc.join(1.0)
            try:
                w.conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        self._pool = []

    def cancel(self) -> None:
        for w in self._pool:
            if w.proc.is_alive():
                getattr(w.proc, "kill", w.proc.terminate)()
                w.proc.join(1.0)
            try:
                w.conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        self._pool = []

    # -- contract ------------------------------------------------------
    def submit_shard(self, shard: ShardSpec) -> None:
        for index in shard.indices:
            self._shard_of[index] = shard.shard_id
        if shard.retry:
            if shard.not_before:
                for index in shard.indices:
                    self._not_before[index] = shard.not_before
            self._queue.extend(shard.indices)
            return
        if shard.batches is not None:
            groups = [deque(batch) for batch in shard.batches if batch]
            q = self._batches_q if self._batches_q is not None else deque()
            q.extend(groups)
            self._batches_q = q
        else:
            self._queue.extend(shard.indices)

    def poll(self, timeout: float) -> List[object]:
        events: List[object] = []
        active = [w for w in self._pool if not w.retired]
        if not active:
            return events
        for w in active:
            self._dispatch(w, events)
        busy = {w.conn: w for w in active if w.inflight and not w.retired}
        if not busy:
            # nothing in flight (e.g. every queued retry is still
            # backing off) — idle one tick, don't spin
            time.sleep(timeout)
            return events
        for conn in _conn_wait(list(busy), timeout=timeout):
            w = busy[conn]
            try:
                index, ok, payload = conn.recv()
            except (EOFError, OSError):
                continue  # crash — the liveness sweep handles it
            if w.inflight and w.inflight[0] == index:
                w.inflight.popleft()
            else:  # pragma: no cover - defensive
                try:
                    w.inflight.remove(index)
                except ValueError:
                    pass
            # the next prefetched trial starts immediately, so its
            # watchdog clock starts now
            w.deadline = (
                time.monotonic() + self.timeout + self.kill_grace
                if self.timeout is not None and w.inflight else None
            )
            events.append(TrialDone(
                self._shard_of.get(index, 0), index, ok, payload))
        now = time.monotonic()
        for w in active:
            if w.retired or not w.inflight:
                continue
            if not w.proc.is_alive():
                head = w.inflight.popleft()
                self._reclaim(w)
                events.append(TrialDone(
                    self._shard_of.get(head, 0), head, False,
                    (FailureKind.WORKER_CRASH.value,
                     f"worker died with exit code {w.proc.exitcode}"),
                ))
                self._respawn(w, events)
            elif w.deadline is not None and now > w.deadline:
                timeout_s = self.timeout
                kill = getattr(w.proc, "kill", w.proc.terminate)
                kill()
                w.proc.join(5.0)
                head = w.inflight.popleft()
                events.append(SupervisionEvent(
                    "watchdog_kill", {"trial": head, "timeout_s": timeout_s}))
                self._reclaim(w)
                events.append(TrialDone(
                    self._shard_of.get(head, 0), head, False,
                    (FailureKind.TIMEOUT.value,
                     f"trial exceeded its {timeout_s}s wall-clock "
                     f"watchdog; worker killed"),
                ))
                self._respawn(w, events)
        return events

    def capabilities(self) -> ExecutorCapabilities:
        return ExecutorCapabilities(
            name=self.name, distributed=False, max_shards=1,
            hard_watchdog=True, in_driver=False,
        )

    @property
    def collapsed(self) -> bool:
        return self._started and all(w.retired for w in self._pool)

    def has_pending(self) -> bool:
        return (bool(self._queue)
                or bool(self._batches_q)
                or any(w.batch or w.inflight for w in self._pool))

    def drain_unfinished(self) -> List[int]:
        """Undispatched trial indices, in dispatch order (for the
        controller's serial fallback after a full collapse)."""
        out: List[int] = []
        out.extend(self._queue)
        self._queue.clear()
        for w in self._pool:
            out.extend(w.batch)
            w.batch = deque()
            out.extend(w.inflight)
            w.inflight.clear()
        if self._batches_q:
            for batch in self._batches_q:
                out.extend(batch)
        self._batches_q = deque() if self._batches_q is not None else None
        return out

    # -- internals -----------------------------------------------------
    def _work_remaining(self, workers: List[_Worker]) -> bool:
        return (bool(self._queue)
                or bool(self._batches_q)
                or any(w.batch for w in workers))

    def _next_index(self, w: _Worker) -> Optional[int]:
        """Next trial for this worker: its batch, a new batch, a retry."""
        if w.batch:
            return w.batch.popleft()
        while self._batches_q:
            batch = self._batches_q.popleft()
            if batch:
                w.batch = batch
                return w.batch.popleft()
        if self._queue:
            # retries carry a backoff stamp; rotate ineligible ones to
            # the back rather than busy-waiting on the first
            now = time.monotonic()
            for _ in range(len(self._queue)):
                index = self._queue.popleft()
                if self._not_before.get(index, 0.0) <= now:
                    return index
                self._queue.append(index)
        return None

    def _reclaim(self, w: _Worker) -> None:
        """Return undispatched work of a dead worker to the global queues.

        Prefetched trials (everything behind the in-flight head) never
        started executing, so they are requeued without a failure mark;
        the worker's remaining batch goes back to the batch queue so its
        snapshot locality is preserved.
        """
        while w.inflight:
            self._queue.appendleft(w.inflight.pop())
        if w.batch:
            if self._batches_q is not None:
                self._batches_q.appendleft(w.batch)
            else:  # pragma: no cover - batch implies batching enabled
                self._queue.extend(w.batch)
            w.batch = deque()

    def _spawn(self, fresh: bool) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        # a chaos-injected hang must outlast the watchdog to prove the
        # supervisor recovers; with no watchdog, hangs are never injected
        hang_s = (self.timeout + self.kill_grace + 30.0
                  if self.timeout is not None else 0.0)
        proc = self._ctx.Process(
            target=_pool_worker,
            args=(child_conn, self._task_fn, fresh, hang_s),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return _Worker(proc, parent_conn)

    def _respawn(self, w: _Worker, events: List[object]) -> None:
        try:
            w.conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
        self._respawn_budget -= 1
        if self._respawn_budget <= 0:
            self._retire(w, events)
            return
        replacement = self._spawn(fresh=True)
        w.proc, w.conn = replacement.proc, replacement.conn
        w.inflight.clear()
        w.deadline = None
        events.append(SupervisionEvent("worker_respawn"))

    def _retire(self, w: _Worker, events: List[object]) -> None:
        """Degradation-ladder rung: shrink the pool by one slot.

        Workers are dying faster than the respawn budget tolerates —
        instead of feeding an infinite respawn storm, this slot is
        permanently removed and its undispatched work requeued.  The
        budget then resets: each further ``degrade_after`` respawns
        costs one more slot, until the pool collapses entirely.
        """
        w.retired = True
        w.inflight.clear()
        w.deadline = None
        self._reclaim(w)
        self._respawn_budget = self.degrade_after
        events.append(SupervisionEvent(
            "pool_shrink", {"degrade_after": self.degrade_after}))

    def _dispatch(self, w: _Worker, events: List[object]) -> None:
        """Top the worker up to the prefetch depth."""
        if w.retired:
            return
        if not w.proc.is_alive():
            if w.inflight:
                return  # the liveness sweep re-attributes the head trial
            if not self._work_remaining([w]):
                return
            # died between trials (nothing in flight to re-attribute)
            self._respawn(w, events)
            if w.retired:
                return
        while len(w.inflight) < prefetch_depth():
            index = self._next_index(w)
            if index is None:
                return
            try:
                w.conn.send((index, self._jobs[index]))
            except (BrokenPipeError, OSError):
                # the pipe closing mid-dispatch means the worker died;
                # the head trial was executing when it went down, so it
                # must be attributed like a sweep-detected crash — else
                # it retries silently, outside the max_retries budget
                self._queue.appendleft(index)
                head = w.inflight.popleft() if w.inflight else None
                self._reclaim(w)
                if head is not None:
                    events.append(TrialDone(
                        self._shard_of.get(head, 0), head, False,
                        (FailureKind.WORKER_CRASH.value,
                         f"worker died with exit code {w.proc.exitcode}"),
                    ))
                self._respawn(w, events)
                return
            w.inflight.append(index)
            if len(w.inflight) == 1 and self.timeout is not None:
                w.deadline = time.monotonic() + self.timeout + self.kill_grace
