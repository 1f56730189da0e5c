"""The supervised fleet: the one place a campaign's trials are run from.

:class:`FleetExecutor` owns the campaign's queues — fork buckets, the
flat queue, retries backing off — and runs every trial in them.  The
three ``--executor`` names are this one class:

* ``serial`` — a fleet with no workers: each :meth:`~FleetExecutor.poll`
  runs the next queued trial in the driver.  The watchdog is the soft
  in-VM deadline the job itself carries; there is no process to kill.
* ``pool`` — supervised worker processes, each on a duplex ``Pipe``.
* ``remote`` — the same workers, each on an HMAC-authenticated
  ``127.0.0.1`` TCP connection it opens back to the driver's
  ``Listener``.

A fleet whose every worker slot has been retired by the respawn budget
is a fleet with no workers too, and finishes its queues the same way.

Campaign *policy* — retry vs. quarantine, journaling, health — stays in
the controller (:mod:`repro.inject.engine`); the fleet only reports
what happened, as :class:`TrialDone` / :class:`SupervisionEvent`.
Because every trial's fault plan and RNG seed are drawn up front from
the campaign seed, any interleaving of execution produces the same
science (``tests/inject/test_executor_contract.py`` asserts it name by
name).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Client, Listener
from multiprocessing.connection import wait as _conn_wait
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from ...errors import CampaignError, FailureKind, TrialTimeoutError
from .. import chaos


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
    """Fleet supervision notice.

    ``kind`` is one of ``worker_respawn`` / ``watchdog_kill`` /
    ``pool_shrink`` / ``serial_fallback``; ``attrs`` carries structured
    detail for the observer and the health ledger.
    """

    kind: str
    attrs: dict = field(default_factory=dict)


#: extra wall-clock slack granted on top of the soft in-VM watchdog
#: before the supervisor hard-kills the worker
KILL_GRACE = 5.0
#: seconds the driver waits for a socket-wire worker to connect back
#: and say hello before giving the slot up
HANDSHAKE_TIMEOUT = 30.0


def _mp_context():
    """Fork where available (workers inherit the prepared-app cache and
    the job list); spawn elsewhere."""
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()


def _run_guarded(task_fn, job) -> Tuple[bool, object]:
    """``(ok, payload)`` of one trial: a TrialResult, or the
    ``(FailureKind value, detail)`` of the exception it raised."""
    try:
        return True, task_fn(job)
    except TrialTimeoutError as exc:
        return False, (FailureKind.TIMEOUT.value, str(exc))
    except Exception as exc:
        return False, (FailureKind.EXCEPTION.value,
                       f"{type(exc).__name__}: {exc}")


def _nodelay(conn) -> None:
    """Switch Nagle off on a socket-wire connection.

    ``multiprocessing.connection`` writes a payload above 16 KiB as two
    segments (header, then body); with Nagle on, the body waits for the
    header's delayed ACK.  Most FPM results are that large, and the
    next unit is dispatched on their arrival — both ends need this.
    """
    with socket.fromfd(conn.fileno(), socket.AF_INET,
                       socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _worker_main(channel, jobs, task_fn, fresh: bool,
                 chaos_hang_s: float = 0.0) -> None:
    """Worker loop: receive a unit of trial indices, run them in order,
    send one ``(index, ok, payload)`` per trial.

    ``channel`` is this worker's end of a pipe, or the ``(address,
    authkey)`` of the driver's listener to connect back to.  ``fresh``
    workers (respawned after a crash or watchdog kill) clear the
    inherited prepared-app cache first: the previous incarnation may
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
        if isinstance(channel, tuple):
            address, authkey = channel
            conn = Client(address, authkey=authkey)
            _nodelay(conn)
            conn.send(("hello", os.getpid()))
        else:
            conn = channel
        while True:
            unit = conn.recv()
            if unit is None:
                return
            for index in unit:
                if monkey is not None:
                    monkey.maybe_kill_worker(index)
                    monkey.maybe_hang_trial(index, chaos_hang_s)
                conn.send((index, *_run_guarded(task_fn, jobs[index])))
    except (EOFError, OSError, mp.AuthenticationError, KeyboardInterrupt):
        pass  # the driver is gone, or refused us


class _Worker:
    """Supervisor-side handle of one worker slot."""

    __slots__ = ("slot", "proc", "conn", "inflight", "deadline", "retired")

    def __init__(self, slot: int, proc, conn) -> None:
        #: position in the fleet, stable across respawns — the ``shard``
        #: tag of every trial this slot runs
        self.slot = slot
        self.proc = proc
        self.conn = conn
        #: trial indices sent but not yet returned, in execution order —
        #: the head is executing, the rest wait in the worker
        self.inflight: Deque[int] = deque()
        #: monotonic instant after which the supervisor kills the worker
        #: (covers the head trial; restarts on every result)
        self.deadline: Optional[float] = None
        #: permanently removed from the fleet by the degradation ladder
        self.retired = False


class FleetExecutor:
    """The campaign's queues and the processes that run them.

    Usage, as driven by the campaign controller::

        fleet.start(jobs, task_fn=...)     # bind the job list, spawn
        fleet.submit(buckets=...)          # the campaign's plan, once
        while fleet.has_pending():
            for ev in fleet.poll(tick):    # TrialDone / SupervisionEvent
                ...
            fleet.resubmit(index, stamp)   # controller-decided retries
        fleet.close()                      # graceful; cancel() to abort

    One :meth:`poll` call is one supervision tick: hand every worker
    holding fewer than two unfinished trials its next *unit* — a whole
    fork bucket (one message; its trials run in order and their results
    stream back one each), else one trial from the flat/retry queue —
    read every result that is ready, then sweep for crashed or
    watchdog-expired workers.  With no live worker the tick instead
    runs one trial of the same queues in the driver and returns, so the
    controller journals it before the next one starts.  Failures are
    *reported* (as failed :class:`TrialDone` events), exactly once, but
    never retried here — the controller owns the retry/quarantine
    taxonomy and re-submits eligible trials.

    A death costs exactly the trial that was executing: the channel is
    drained first, so trials the worker finished are delivered rather
    than re-run, the head is reported failed, and the unstarted
    remainder goes back to the front of the bucket queue as one bucket
    with no failure mark.

    The respawn budget is the graceful-degradation ladder: each
    ``degrade_after`` worker deaths retires a slot (``pool_shrink``
    supervision event) instead of feeding an infinite respawn storm;
    the last slot to retire adds ``serial_fallback``, and the fleet
    carries on in the driver.
    """

    def __init__(self, name: str, workers: int, *,
                 degrade_after: int = 4) -> None:
        #: ``serial`` (in the driver), ``pool`` (pipe wire) or
        #: ``remote`` (socket wire)
        self.name = name
        #: worker processes to start — none under ``serial``
        self.workers = 0 if name == "serial" else workers
        self.degrade_after = degrade_after
        self._respawn_budget = degrade_after
        self._ctx = None
        self._listener: Optional[Listener] = None
        self._authkey = b""
        self._pool: List[_Worker] = []
        self._jobs: List[tuple] = []
        self._task_fn = None
        self.timeout: Optional[float] = None
        self.kill_grace = KILL_GRACE
        #: fork buckets (tuples of trial indices) awaiting a worker
        self._buckets: Deque[Tuple[int, ...]] = deque()
        #: single trials: bucketless campaigns, plus retries
        self._queue: Deque[int] = deque()
        #: earliest monotonic instant a retried trial may re-dispatch
        self._not_before: Dict[int, float] = {}

    # -- lifecycle -----------------------------------------------------
    def start(self, jobs: List[tuple], *, task_fn, timeout=None,
              kill_grace: Optional[float] = None) -> None:
        """Bind the campaign's job list and trial driver; spawn.

        ``timeout`` is the per-trial wall-clock watchdog in seconds
        (None: off); ``kill_grace`` the slack on top of it before a
        worker is hard-killed (None: :data:`KILL_GRACE`).
        """
        self._jobs = jobs
        self._task_fn = task_fn
        self.timeout = timeout
        self.kill_grace = KILL_GRACE if kill_grace is None else kill_grace
        self._ctx = _mp_context()
        if self.name == "remote":
            self._authkey = os.urandom(16)
            self._listener = Listener(("127.0.0.1", 0), authkey=self._authkey)
            # accept() must not outwait a worker that never connects
            self._listener._listener._socket.settimeout(HANDSHAKE_TIMEOUT)
        # appended one by one: a later spawn that fails must not leak
        # the earlier workers past close()
        for slot in range(self.workers):
            self._pool.append(self._spawn(slot, fresh=False))

    def close(self) -> None:
        """Graceful shutdown: drain nothing, release workers."""
        for w in self._pool:
            try:
                w.conn.send(None)
            except OSError:
                pass
        for w in self._pool:
            w.proc.join(1.0)
        self.cancel()

    def cancel(self) -> None:
        """Abort outstanding work as fast as possible (kill workers)."""
        for w in self._pool:
            if w.proc.is_alive():
                w.proc.kill()
                w.proc.join(1.0)
            w.conn.close()
        self._pool = []
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    # -- queues --------------------------------------------------------
    def submit(self, indices: Iterable[int] = (),
               buckets: Iterable[Tuple[int, ...]] = ()) -> None:
        """Queue the campaign's plan: fork ``buckets`` (each runs in
        order in one place), or trial ``indices`` one by one."""
        self._buckets.extend(b for b in buckets if b)
        self._queue.extend(indices)

    def resubmit(self, index: int, not_before: float) -> None:
        """Queue a retry that may not start before the monotonic-clock
        stamp ``not_before`` (its backoff)."""
        self._not_before[index] = not_before
        self._queue.append(index)

    def has_pending(self) -> bool:
        """Any submitted trial not yet reported?"""
        return (bool(self._queue) or bool(self._buckets)
                or any(w.inflight for w in self._pool))

    def poll(self, timeout: float) -> List[object]:
        """Advance the fleet one tick; return every event that occurred,
        blocking at most ``timeout`` seconds waiting for progress."""
        events: List[object] = []
        active = [w for w in self._pool if not w.retired]
        for w in active:
            self._dispatch(w, events)
        busy = {w.conn: w for w in active if w.inflight and not w.retired}
        if not busy:
            # no live worker: run one trial here.  Nothing runnable
            # (e.g. every queued retry is still backing off): idle one
            # tick, don't spin
            if not (all(w.retired for w in self._pool)
                    and self._run_in_driver(events)):
                time.sleep(timeout)
            return events
        for conn in _conn_wait(list(busy), timeout=timeout):
            self._drain(busy[conn], events)
        now = time.monotonic()
        for w in active:
            if w.retired or not w.inflight:
                continue
            if not w.proc.is_alive():
                self._on_death(w, events, FailureKind.WORKER_CRASH)
            elif w.deadline is not None and now > w.deadline:
                w.proc.kill()
                w.proc.join(5.0)
                self._on_death(w, events, FailureKind.TIMEOUT)
        return events

    # -- internals -----------------------------------------------------
    def _spawn(self, slot: int, fresh: bool) -> _Worker:
        # a chaos-injected hang must outlast the watchdog to prove the
        # supervisor recovers; with no watchdog, hangs are never injected
        hang_s = (self.timeout + self.kill_grace + 30.0
                  if self.timeout is not None else 0.0)
        if self._listener is None:
            conn, channel = self._ctx.Pipe()
        else:
            conn, channel = None, (self._listener.address, self._authkey)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(channel, self._jobs, self._task_fn, fresh, hang_s),
            daemon=True,
        )
        proc.start()
        if conn is None:
            conn = self._accept(proc, slot)
        else:
            channel.close()
        return _Worker(slot, proc, conn)

    def _accept(self, proc, slot: int):
        """The socket wire's handshake: the connection ``proc`` opened
        back to the listener, authenticated and greeted."""
        conn = None
        try:
            conn = self._listener.accept()  # HMAC challenge, both ways
            _nodelay(conn)
            if not conn.poll(HANDSHAKE_TIMEOUT) \
                    or conn.recv() != ("hello", proc.pid):
                raise EOFError("no hello from the worker")
        except (OSError, EOFError, mp.AuthenticationError) as exc:
            if conn is not None:
                conn.close()
            proc.kill()
            proc.join(1.0)
            raise CampaignError(
                f"worker {slot} failed to connect: {exc!r}") from exc
        return conn

    def _next_unit(self) -> Optional[Tuple[int, ...]]:
        """The next bucket, else the first single trial whose backoff
        stamp has passed."""
        if self._buckets:
            return self._buckets.popleft()
        now = time.monotonic()
        # rotate trials still backing off to the back rather than
        # busy-waiting on the first
        for _ in range(len(self._queue)):
            index = self._queue.popleft()
            if self._not_before.get(index, 0.0) <= now:
                return (index,)
            self._queue.append(index)
        return None

    def _run_in_driver(self, events: List[object]) -> bool:
        """Run the next runnable trial here, as slot 0; False when
        there is none.  One trial only, and no chaos roll: a kill or a
        hang injected here would take the campaign down, not a worker.
        """
        unit = self._next_unit()
        if unit is None:
            return False
        if len(unit) > 1:
            self._buckets.appendleft(unit[1:])
        index = unit[0]
        events.append(TrialDone(
            0, index, *_run_guarded(self._task_fn, self._jobs[index])))
        return True

    def _dispatch(self, w: _Worker, events: List[object]) -> None:
        if not w.proc.is_alive():
            if w.inflight:
                return  # the liveness sweep attributes the head trial
            if not (self._buckets or self._queue):
                return
            # died between trials (nothing in flight to attribute)
            self._respawn(w, events)
            if w.retired:
                return
        while len(w.inflight) < 2:
            unit = self._next_unit()
            if unit is None:
                return
            try:
                w.conn.send(unit)
            except OSError:
                # the channel closing mid-dispatch means the worker
                # died: the unit never started, the head was executing
                self._buckets.appendleft(unit)
                self._on_death(w, events, FailureKind.WORKER_CRASH)
                return
            if not w.inflight:
                self._arm(w)
            w.inflight.extend(unit)

    def _arm(self, w: _Worker) -> None:
        """Start the watchdog clock of the worker's head trial."""
        w.deadline = (time.monotonic() + self.timeout + self.kill_grace
                      if self.timeout is not None else None)

    def _drain(self, w: _Worker, events: List[object]) -> None:
        """Deliver every result ready on the worker's channel."""
        try:
            while w.conn.poll(0):
                index, ok, payload = w.conn.recv()
                w.inflight.remove(index)  # the head, in practice: O(1)
                # the worker moves straight on to its next trial
                self._arm(w)
                events.append(TrialDone(w.slot, index, ok, payload))
        except (EOFError, OSError):
            pass  # the worker is gone — the liveness sweep takes over

    def _on_death(self, w: _Worker, events: List[object],
                  kind: FailureKind) -> None:
        """Charge the trial that was executing, requeue the rest, respawn.

        Results still sitting in the channel are delivered first: a
        worker that streamed trials N and N+1 and died starting N+2
        within one tick is charged for N+2 only.  Trials behind the
        head never started, so they return to the front of the bucket
        queue, as one bucket, with no mark against their retry budget.
        """
        self._drain(w, events)
        if w.inflight:
            head = w.inflight.popleft()
            if kind is FailureKind.TIMEOUT:
                detail = (f"trial exceeded its {self.timeout}s wall-clock "
                          f"watchdog; worker killed")
                events.append(SupervisionEvent(
                    "watchdog_kill",
                    {"trial": head, "timeout_s": self.timeout}))
            else:
                detail = f"worker died with exit code {w.proc.exitcode}"
            events.append(TrialDone(w.slot, head, False,
                                    (kind.value, detail)))
        if w.inflight:
            self._buckets.appendleft(tuple(w.inflight))
            w.inflight.clear()
        self._respawn(w, events)

    def _respawn(self, w: _Worker, events: List[object]) -> None:
        """Replace a dead worker, or retire its slot.

        Degradation-ladder rung: when workers die faster than the
        respawn budget tolerates — or a replacement cannot connect —
        the slot is permanently removed instead of feeding an infinite
        respawn storm.  The budget then resets: each further
        ``degrade_after`` respawns costs one more slot, until none is
        left and the driver runs the trials itself.
        """
        w.conn.close()
        w.deadline = None
        self._respawn_budget -= 1
        if self._respawn_budget > 0:
            try:
                fresh = self._spawn(w.slot, fresh=True)
            except CampaignError:
                pass
            else:
                w.proc, w.conn = fresh.proc, fresh.conn
                events.append(SupervisionEvent("worker_respawn"))
                return
        w.retired = True
        self._respawn_budget = self.degrade_after
        events.append(SupervisionEvent(
            "pool_shrink", {"degrade_after": self.degrade_after}))
        if all(w.retired for w in self._pool):
            events.append(SupervisionEvent("serial_fallback"))
