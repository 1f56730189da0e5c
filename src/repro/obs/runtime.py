"""Process-local observability state: the no-op-by-default emitters.

Instrumented sites across the stack (VM, MPI runtime, job runner,
campaign driver) call the module-level helpers :func:`emit`,
:func:`span_record`, :func:`inc`, :func:`observe_hist` and
:func:`set_gauge`.  When no trial is being observed — the default —
every helper is a single attribute load and ``None`` check, so the cost
of carrying the instrumentation is unmeasurable and, critically, no
code path (and no RNG draw) differs from an uninstrumented build.

During an observed trial, :func:`trial_recording` installs a
:class:`TrialRecorder`: events and spans append to a per-trial list and
metrics go into a *fresh* per-trial registry.  Both travel back to the
campaign driver on the trial result, where the engine's observer writes
them to the trace file and merges the registry into the campaign-wide
one — identical flow for serial and pooled execution, no locks, no
double counting.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import List, Optional

from .cml import CMLStream
from .metrics import MetricsRegistry

#: the active per-trial recorder, or None (the overwhelmingly common case)
_CURRENT: Optional["TrialRecorder"] = None


class TrialRecorder:
    """Event buffer + metrics registry for one observed trial."""

    __slots__ = ("events", "metrics", "t0", "cml")

    def __init__(self) -> None:
        self.events: List[dict] = []
        self.metrics = MetricsRegistry()
        self.t0 = time.perf_counter()
        #: the trial's live CML stream, attached by the trial driver
        self.cml: Optional[CMLStream] = None

    def payload(self) -> dict:
        """What rides back to the driver on the trial result."""
        return {"events": self.events, "metrics": self.metrics.to_dict()}


def current() -> Optional[TrialRecorder]:
    return _CURRENT


def active() -> bool:
    return _CURRENT is not None


@contextmanager
def trial_recording():
    """Install a fresh recorder for the duration of one trial."""
    global _CURRENT
    prev = _CURRENT
    rec = TrialRecorder()
    _CURRENT = rec
    try:
        yield rec
    finally:
        _CURRENT = prev


@contextmanager
def suspended():
    """Pause recording inside an observed region.

    The snapshot-verify cold re-execution runs under this: it is
    harness bookkeeping, not part of the trial, and its VM/MPI events
    must not pollute the trial's trace or metrics.
    """
    global _CURRENT
    prev = _CURRENT
    _CURRENT = None
    try:
        yield
    finally:
        _CURRENT = prev


# ----------------------------------------------------------------------
# Emitters — every one is a no-op unless a trial is being observed.
# ----------------------------------------------------------------------

def emit(name: str, **attrs) -> None:
    """Record an instant event (VM/MPI happenings inside a trial)."""
    rec = _CURRENT
    if rec is None:
        return
    rec.events.append({
        "type": "event", "name": name,
        "t": time.perf_counter() - rec.t0, "attrs": attrs,
    })


def span_record(name: str, t0: float, dur: float, **attrs) -> None:
    """Record a completed timed region (seconds relative to trial start)."""
    rec = _CURRENT
    if rec is None:
        return
    entry = {"type": "span", "name": name, "t0": t0, "dur": dur}
    if attrs:
        entry["attrs"] = attrs
    rec.events.append(entry)


@contextmanager
def span(name: str, **attrs):
    """Time a region and record it as a span (no-op when not observing)."""
    rec = _CURRENT
    if rec is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        span_record(name, start - rec.t0, time.perf_counter() - start,
                    **attrs)


def inc(name: str, amount: float = 1, **labels) -> None:
    rec = _CURRENT
    if rec is None:
        return
    rec.metrics.inc(name, amount, **labels)


def observe_hist(name: str, value: float, **labels) -> None:
    rec = _CURRENT
    if rec is None:
        return
    rec.metrics.observe(name, value, **labels)


def set_gauge(name: str, value: float, **labels) -> None:
    rec = _CURRENT
    if rec is None:
        return
    rec.metrics.set_gauge(name, value, **labels)
