"""Schema-versioned JSONL campaign traces with a round-trip reader.

A trace file mirrors the journal's shape: line 1 is a header pinning
the schema version and campaign identity, every further line is one
record.  Record types (the span taxonomy is documented in
``docs/INTERNALS.md``):

* ``span``  — a timed region of one trial (``arm``, ``fork_advance``,
  ``execute``, ``classify``, ``journal``); ``t0`` is seconds from the
  start of the trial (or of the campaign for driver-side spans),
  ``dur`` is its length in seconds.
* ``event`` — an instant: VM/MPI happenings inside a trial
  (``injection``, ``mpi_send_contaminated``) and
  engine-level supervision (``watchdog_kill``, ``worker_respawn``,
  ``retry``, ``quarantine``).
* ``trial`` — the per-trial summary emitted once the engine records the
  result (outcome, cycles, retries).
* ``cml``   — the live CML stream of one trial:
  ``[[cycle, contaminated_locations], ...]``.

Records are plain dicts; :func:`validate_record` is the schema check
used by both the writer and the reader, so anything written round-trips
and anything hand-crafted gets validated on read.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..errors import ObservabilityError

TRACE_FORMAT = 1
TRACE_KIND = "repro-trace"

#: record types and their required fields (beyond "type")
_SCHEMA: Dict[str, Tuple[str, ...]] = {
    "span": ("name", "t0", "dur"),
    "event": ("name", "t"),
    "trial": ("trial", "outcome"),
    "cml": ("trial", "series"),
}


def validate_record(record: dict, where: str = "record") -> dict:
    """Check one trace record against the schema; returns it unchanged."""
    if not isinstance(record, dict):
        raise ObservabilityError(f"{where}: not an object")
    rtype = record.get("type")
    required = _SCHEMA.get(rtype)
    if required is None:
        raise ObservabilityError(f"{where}: unknown record type {rtype!r}")
    for field in required:
        if field not in record:
            raise ObservabilityError(
                f"{where}: {rtype} record missing {field!r}"
            )
    trial = record.get("trial")
    if trial is not None and not isinstance(trial, int):
        raise ObservabilityError(f"{where}: trial must be an int or null")
    if rtype == "span" and record["dur"] < 0:
        raise ObservabilityError(f"{where}: negative span duration")
    if rtype == "cml":
        series = record["series"]
        if not isinstance(series, list) or any(
                not isinstance(p, list) or len(p) != 2 for p in series):
            raise ObservabilityError(
                f"{where}: cml series must be [[cycle, cml], ...]"
            )
    return record


class TraceWriter:
    """Append-only JSONL trace writer (driver-side, one per campaign)."""

    def __init__(self, path: Union[str, Path], meta: Optional[dict] = None,
                 ) -> None:
        self.path = Path(path)
        self._fh = self.path.open("w")
        header = {"kind": TRACE_KIND, "format": TRACE_FORMAT}
        header.update(meta or {})
        self._fh.write(json.dumps(header) + "\n")
        self.records_written = 0

    def write(self, record: dict) -> None:
        validate_record(record, f"{self.path}: outgoing record")
        self._fh.write(json.dumps(record) + "\n")
        self.records_written += 1

    def write_all(self, records) -> None:
        for record in records:
            self.write(record)

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def iter_trace(path: Union[str, Path]) -> Iterator[dict]:
    """Stream validated records from a trace file (header skipped)."""
    header, _ = _read_header(path)
    with Path(path).open() as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                raise ObservabilityError(f"{path}:{lineno}: malformed JSON")
            yield validate_record(record, f"{path}:{lineno}")


def _read_header(path: Union[str, Path]) -> Tuple[dict, Path]:
    path = Path(path)
    if not path.exists():
        raise ObservabilityError(f"no trace file at {path}")
    with path.open() as fh:
        raw = fh.readline()
    try:
        header = json.loads(raw)
    except json.JSONDecodeError:
        raise ObservabilityError(f"{path}: malformed trace header")
    if not isinstance(header, dict) or header.get("kind") != TRACE_KIND:
        raise ObservabilityError(f"{path}: not a repro trace file")
    if header.get("format") != TRACE_FORMAT:
        raise ObservabilityError(
            f"{path}: unsupported trace format {header.get('format')!r}"
        )
    return header, path


def read_trace(path: Union[str, Path]) -> Tuple[dict, List[dict]]:
    """Load a whole trace: ``(header, validated records)``."""
    header, path = _read_header(path)
    return header, list(iter_trace(path))


def trial_records(records: List[dict], trial: int) -> List[dict]:
    """All records belonging to one trial, in file order."""
    return [r for r in records if r.get("trial") == trial]


def cml_series(records: List[dict], trial: int) -> List[Tuple[int, int]]:
    """The ``(cycle, contaminated_locations)`` stream of one trial."""
    for r in records:
        if r["type"] == "cml" and r.get("trial") == trial:
            return [(int(c), int(v)) for c, v in r["series"]]
    return []
