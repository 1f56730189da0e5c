"""Harness spans and the fold that turns a traced run into ledger rows.

The harness records a span around each of its own calls into the
program (import, prepare, campaign, resume, fit); the program reports
per-trial ``stage_timings`` and trace spans.  :func:`fold` combines them
into disjoint self-time rows.  Everything here is a pure function of
plain dicts, so ``test_ledger.py`` can check it without running a
campaign.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: ``stage_timings`` keys with a ledger row of their own; every other
#: key is some way of positioning a trial and lands in ``position_s``,
#: so deleting a positioning tier needs no edit here
_STAGE_ROWS = {"artifact_load": "artifact_load_s", "execute": "execute_s",
               "tier2_codegen": "tier2_codegen_s"}

ROWS = ("import_s", "prepare_s", "first_trial_s", "tier2_codegen_s",
        "artifact_load_s", "position_s", "arm_s", "execute_s",
        "classify_s", "journal_s", "fit_s", "resume_read_s")

#: rows spent in worker processes; on a parallel workload they are
#: worker-seconds and overlap in wall time
_WORKER_ROWS = ("artifact_load_s", "position_s", "arm_s", "execute_s",
                "classify_s")


#: CPU seconds the reference kernel takes at the host speed all times
#: are normalised to (this box in its fast state)
REFERENCE_KERNEL_S = 0.0005
#: seconds between two samples of the reference kernel
SAMPLE_PERIOD_S = 0.04
#: samples either side whose median smooths one sample
_SMOOTH = 5


def _reference_kernel() -> float:
    """CPU seconds this thread needs for a fixed piece of interpreter
    work (arithmetic + dict stores, like the VM's dispatch loop)."""
    c0 = time.thread_time()
    table: Dict[int, int] = {}
    x = 0
    for i in range(6000):
        x = (x * 31 + i) & 0xFFFF
        table[x & 255] = x
    return time.thread_time() - c0


class HostClock:
    """Seconds since ``epoch``, and a record of how fast the host was.

    The sandbox's CPU speed drifts by 20 % and more over minutes.  A
    daemon thread times a small reference kernel every
    ``SAMPLE_PERIOD_S`` for as long as the run lasts (under 3 % of one
    core); :meth:`normalised` then converts any interval into the
    seconds it would have taken had the kernel always needed
    ``REFERENCE_KERNEL_S``.  Raw seconds stay available beside it.
    """

    def __init__(self, epoch: float) -> None:
        self.epoch = epoch
        self.samples: List[tuple] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def now(self) -> float:
        return time.time() - self.epoch

    def start(self) -> "HostClock":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.is_set():
            self.samples.append((self.now(), _reference_kernel()))
            self._stop.wait(SAMPLE_PERIOD_S)

    def normalised(self, start: float, end: float) -> float:
        """``end - start`` in reference-speed seconds."""
        return normalise(list(self.samples), start, end)


def normalise(samples: Sequence[tuple], start: float, end: float) -> float:
    """Integrate host speed over ``[start, end]``.

    ``samples`` are ``(time, kernel seconds)``; each one, smoothed by the
    median of its neighbours, sets the speed from halfway to the
    previous sample until halfway to the next.
    """
    if not samples:
        return end - start
    times = [t for t, _ in samples]
    kernels = [k for _, k in samples]
    total = 0.0
    for i, t in enumerate(times):
        lo = start if i == 0 else max(start, 0.5 * (times[i - 1] + t))
        hi = end if i == len(times) - 1 \
            else min(end, 0.5 * (t + times[i + 1]))
        if hi > lo:
            k = statistics.median(
                kernels[max(0, i - _SMOOTH):i + _SMOOTH + 1])
            total += (hi - lo) * REFERENCE_KERNEL_S / k
    return total


class SpanLog:
    """In-memory spans: name, start, end, parent, run id.

    Times are seconds since the clock's epoch (the child's start as the
    parent process saw it); nothing is written until the run ends.
    """

    def __init__(self, run_id: str, clock: HostClock) -> None:
        self.run_id = run_id
        self.clock = clock
        self.spans: List[dict] = []
        self._open: List[int] = []

    def now(self) -> float:
        return self.clock.now()

    def add(self, name: str, start: float, end: float, **attrs) -> dict:
        span = {"id": len(self.spans), "name": name, "start": start,
                "end": end, "run": self.run_id,
                "parent": self._open[-1] if self._open else None}
        span.update(attrs)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, start: Optional[float] = None, **attrs):
        s = self.add(name, self.now() if start is None else start, None,
                     **attrs)
        self._open.append(s["id"])
        try:
            yield s
        finally:
            self._open.pop()
            s["end"] = self.now()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def parents_acyclic(spans: Sequence[dict]) -> bool:
    """Every parent link leads to a root without revisiting a span."""
    parent = {s["id"]: s["parent"] for s in spans}
    for start in parent:
        seen = set()
        node: Optional[int] = start
        while node is not None:
            if node in seen or node not in parent:
                return False
            seen.add(node)
            node = parent[node]
    return True


# ----------------------------------------------------------------------
# The program's trace file
# ----------------------------------------------------------------------

def read_trace_spans(path) -> dict:
    """Per-trial span seconds and completion order from a trace file.

    Parsed as plain JSON lines rather than through the program's reader,
    so an unknown record type or span name is carried along (and ends up
    in ``other_s``) instead of raising.
    """
    spans: Dict[int, Dict[str, float]] = {}
    order: List[int] = []
    path = Path(path)
    if not path.exists():
        return {"spans": spans, "order": order}
    with path.open() as fh:
        for line in fh:
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(rec, dict):
                continue
            trial = rec.get("trial")
            if not isinstance(trial, int):
                continue
            if rec.get("type") == "trial":
                order.append(trial)
            elif rec.get("type") == "span":
                per = spans.setdefault(trial, {})
                name = str(rec.get("name"))
                per[name] = per.get(name, 0.0) + float(rec.get("dur", 0.0))
    return {"spans": spans, "order": order}


# ----------------------------------------------------------------------
# Folding
# ----------------------------------------------------------------------

def _trial_rows(stages: Dict[str, float], spans: Dict[str, float]
                ) -> Dict[str, float]:
    """Disjoint rows of one trial.

    The program's ``artifact_load`` timing and its ``arm`` span cover
    the same interval, and that interval contains the worker's tier-2
    codegen; each is reduced by what it contains.
    """
    rows = dict.fromkeys(_WORKER_ROWS + ("tier2_codegen_s", "journal_s"),
                         0.0)
    for key, seconds in stages.items():
        rows[_STAGE_ROWS.get(key, "position_s")] += seconds
    rows["artifact_load_s"] = max(
        0.0, rows["artifact_load_s"] - rows["tier2_codegen_s"])
    rows["arm_s"] = max(
        0.0, spans.get("arm", 0.0) - stages.get("artifact_load", 0.0))
    rows["classify_s"] = spans.get("classify", 0.0)
    rows["journal_s"] = spans.get("journal", 0.0)
    return rows


def fold_call(call: dict, workers: int) -> dict:
    """Rows of one campaign/resume call.

    ``call`` carries the harness span (``start``/``end``), the progress
    ``ticks`` (seconds since the call), the health ``stage_totals``, the
    per-trial ``trial_stages`` of every trial in the result, and the
    ``trace`` of the trials this call executed.
    """
    wall = call["end"] - call["start"]
    trace = call.get("trace") or {"spans": {}, "order": []}
    executed = trace["order"]
    stages = call.get("trial_stages", {})
    rows = dict.fromkeys(ROWS, 0.0)
    per_trial = {}
    for idx in executed:
        tr = _trial_rows(stages.get(idx, {}), trace["spans"].get(idx, {}))
        per_trial[idx] = tr
        for key, seconds in tr.items():
            rows[key] += seconds
    # codegen the driver paid itself: the health total less what the
    # trials reported
    worker_codegen = sum(s.get("tier2_codegen", 0.0)
                         for s in stages.values())
    driver_codegen = max(0.0, call.get("stage_totals", {})
                         .get("tier2_codegen", 0.0) - worker_codegen)
    rows["tier2_codegen_s"] += driver_codegen
    ticks = call.get("ticks", [])
    startup = 0.0
    if ticks and executed:
        first = per_trial[executed[0]]
        startup = max(0.0, ticks[0] - driver_codegen
                      - sum(v for k, v in first.items() if k != "journal_s"))
    rows["resume_read_s" if call["kind"] == "resume"
         else "first_trial_s"] = startup
    worker = sum(rows[k] for k in _WORKER_ROWS) \
        + rows["tier2_codegen_s"] - driver_codegen
    driver = startup + driver_codegen + rows["journal_s"]
    # per-shard busy seconds (journal shard tags; one shard when there
    # are none)
    busy: Dict[int, float] = {}
    shards = call.get("shards", {})
    for idx, tr in per_trial.items():
        shard = shards.get(idx, 0)
        busy[shard] = busy.get(shard, 0.0) + sum(
            v for k, v in tr.items() if k != "journal_s")
    return {"wall": wall, "rows": rows, "worker_s": worker,
            "projected": driver + worker / max(workers, 1),
            "busy": busy, "gaps": [b - a for a, b in zip(ticks, ticks[1:])]}


def fold(spans: Sequence[dict], calls: Sequence[dict], wall: float,
         workers: int = 1, scale: float = 1.0) -> dict:
    """Ledger rows of one traced run.

    Everything is folded in raw seconds (the program reports durations,
    not instants, so they cannot be normalised one by one); ``scale``,
    the run's normalised-over-raw wall, then converts every duration at
    once, so the rows still sum to the normalised ``wall_s``.

    On a serial workload ``other_s`` is what the named rows leave of
    ``wall``, so rows + ``other_s`` equal ``wall`` by construction.  On
    a parallel workload the worker rows are worker-seconds; ``other_s``
    is taken after dividing them by ``workers`` (perfect overlap), so
    idle workers, IPC and shard imbalance all land in it.
    """
    rows = dict.fromkeys(ROWS, 0.0)
    for s in spans:
        head = s["name"].split(":", 1)[0]
        if head in ("import", "prepare", "fit"):
            rows[head + "_s"] += duration(s)
    folded = [fold_call(c, workers) for c in calls]
    for f in folded:
        for key, seconds in f["rows"].items():
            rows[key] += seconds
    driver_named = rows["import_s"] + rows["prepare_s"] + rows["fit_s"]
    other = wall - driver_named - sum(f["projected"] for f in folded)
    campaign_wall = sum(f["wall"] for f in folded)
    worker_s = sum(f["worker_s"] for f in folded)
    busy: Dict[int, float] = {}
    for f in folded:
        for shard, seconds in f["busy"].items():
            busy[shard] = busy.get(shard, 0.0) + seconds
    gaps = sorted(g * 1e3 * scale for f in folded for g in f["gaps"])
    out = {"ledger." + k: v * scale for k, v in rows.items()}
    out["ledger.other_s"] = other * scale
    out["ledger.unattributed_frac"] = other / wall if wall else 0.0
    out["inject.executors.busy_frac"] = (
        worker_s / (max(workers, 1) * campaign_wall) if campaign_wall
        else 0.0)
    mean_busy = statistics.fmean(busy.values()) if busy else 0.0
    out["inject.executors.shard_imbalance"] = (
        max(busy.values()) / mean_busy if mean_busy else 1.0)
    out["inject.campaign.trial_gap_samples"] = len(gaps)
    out["inject.campaign.trial_gap_ms_p50"] = percentile(gaps, 50)
    out["inject.campaign.trial_gap_ms_p95"] = percentile(gaps, 95)
    return out


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0.0 if empty)."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def spread(values: Iterable[float]) -> float:
    """Interquartile range as a share of the median (the driver's
    steadiness measure); 0.0 below two values."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


# ----------------------------------------------------------------------
# Journal cut
# ----------------------------------------------------------------------

def frame_entry(line: bytes) -> Optional[dict]:
    """The JSON entry of one ``T`` frame line, or None for any other line."""
    if not line.startswith(b"T "):
        return None
    try:
        entry = json.loads(line.split(b" ", 3)[3])
    except (IndexError, ValueError):
        return None
    return entry if isinstance(entry, dict) else None


def cut_journal(path, keep: int) -> int:
    """Cut a journal back to its header and the frames of its first
    ``keep`` trials; returns the trial frames kept.

    Trials are chosen by index, not by position in the file: shards
    finish in a different order on every run, and the resume must
    re-execute the same trials each time for its counts to repeat.
    Kept lines are copied byte for byte (event frames too).
    """
    path = Path(path)
    lines = path.read_bytes().splitlines(keepends=True)
    out = lines[:1]
    kept = 0
    for line in lines[1:]:
        if line.startswith(b"T "):
            index = (frame_entry(line) or {}).get("index")
            if not isinstance(index, int) or not 0 <= index < keep:
                continue
            kept += 1
        out.append(line)
    path.write_bytes(b"".join(out))
    return kept
