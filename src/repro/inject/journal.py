"""Incremental campaign checkpointing: a corruption-tolerant JSONL journal.

The journal is the engine's crash insurance.  Line 1 is a header that
pins down everything needed to re-derive the campaign's job list (app,
params, mode, seed, trial count, golden profile); every subsequent line
is one completed trial, flushed as soon as it finishes.  An interrupted
campaign — Ctrl-C, OOM-killed worker host, crashed driver — resumes by
re-drawing the job list from the recorded seed, loading the completed
trials, and executing only the missing indices
(:func:`repro.inject.engine.resume_campaign`).

Trial records reuse the JSON trial encoding of
:mod:`repro.analysis.export`, framed (format 2) with an explicit byte
length and a CRC-32 of the payload::

    T <payload-bytes> <crc32-hex> <payload-json>

so a reader can tell a record that was *written wrong* (torn write,
bit rot, concurrent scribble) from one that was written correctly.
Campaign *events* — degradation-ladder rungs — use the same frame with
an ``E`` tag; they are observability, not science: a missing or torn
event line never makes a trial re-execute, and a kind this version no
longer writes reads like any other.  Every trial carries the worker
slot that ran it in the payload (``shard``; 0 in the driver); the field
is ignored when re-deriving science.
Recovery is always forward: a torn final line — the driver died
mid-write — is truncated and its trial simply re-executes on resume; a
corrupt interior record is dropped the same way.  Format-1 journals
(bare JSON lines) remain readable.  Appends route transient ``OSError``
through the seeded backoff policy of :class:`repro.errors.RetryPolicy`,
and the chaos layer (:mod:`repro.inject.chaos`) can tear writes and
inject IO faults here to prove all of this works.
"""

from __future__ import annotations

import hashlib
import json
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..errors import JournalError, RetryPolicy
from . import chaos

_JOURNAL_FORMAT = 2
_JOURNAL_KIND = "repro-campaign-journal"


def _frame(tag: str, payload: str) -> str:
    data = payload.encode()
    return (f"{tag} {len(data)} "
            f"{zlib.crc32(data) & 0xFFFFFFFF:08x} {payload}\n")


def _encode_trial(index: int, trial, shard: Optional[int] = None) -> str:
    from ..analysis.export import _trial_to_dict

    entry = {"index": index, "trial": _trial_to_dict(trial)}
    if shard is not None:
        entry["shard"] = shard
    return _frame("T", json.dumps(entry))


def _encode_event(kind: str, attrs: dict) -> str:
    entry = {"event": kind}
    entry.update(attrs)
    return _frame("E", json.dumps(entry))


def _decode_frame(line: str, tag: str = "T") -> Optional[str]:
    """Validated payload of one framed record line, or None (corrupt)."""
    if not line.startswith(tag + " "):
        return None
    head, _, rest = line[2:].partition(" ")
    crc_hex, _, payload = rest.partition(" ")
    if not head.isdigit() or len(crc_hex) != 8:
        return None
    data = payload.encode()
    if len(data) != int(head):
        return None
    try:
        crc = int(crc_hex, 16)
    except ValueError:
        return None
    if zlib.crc32(data) & 0xFFFFFFFF != crc:
        return None
    return payload


@dataclass
class JournalRecovery:
    """What :func:`read_journal_ex` had to tolerate to load a journal."""

    #: the final line was a partially written *trial* record (driver
    #: died mid-write) and its trial will be re-executed
    torn_tail: bool = False
    #: interior records dropped for failing their length/CRC frame
    corrupt_records: int = 0
    #: records superseded by a later line for the same trial index
    duplicate_records: int = 0
    #: the final line was a partially written *event* record — nothing
    #: re-executes (events are observability, not science)
    torn_event_tail: bool = False
    #: campaign event records (``E`` frames), in journal order
    events: List[dict] = field(default_factory=list)

    @property
    def dropped(self) -> int:
        """Trial records lost to corruption (each re-executes on resume)."""
        return self.corrupt_records + (1 if self.torn_tail else 0)


def _tail_tag(path: Union[str, Path]) -> Optional[str]:
    """Record tag (``T``/``E``) of an unterminated final line, if any."""
    blob = Path(path).read_bytes()
    if not blob or blob.endswith(b"\n"):
        return None
    cut = blob.rfind(b"\n") + 1
    if cut == 0:
        return None
    return blob[cut:cut + 1].decode("ascii", errors="replace")


def repair_tail(path: Union[str, Path]) -> int:
    """Truncate an unterminated (torn) final line; returns bytes dropped.

    Called before reopening a journal for appending so a fresh record
    can never concatenate onto a torn fragment — the classic way one
    torn write silently corrupts the *next* record too.  A journal whose
    header line itself is torn is left untouched (there is nothing to
    save; the read path reports it as malformed).
    """
    path = Path(path)
    blob = path.read_bytes()
    if not blob or blob.endswith(b"\n"):
        return 0
    cut = blob.rfind(b"\n") + 1
    if cut == 0:
        return 0
    dropped = len(blob) - cut
    with path.open("rb+") as fh:
        fh.truncate(cut)
    return dropped


class CampaignJournal:
    """Append-only framed JSONL journal of completed trials."""

    def __init__(self, path: Union[str, Path], fh) -> None:
        self.path = Path(path)
        self._fh = fh
        #: transient IO failures absorbed by the backoff policy
        self.io_retries = 0
        #: chaos-torn records (testing only; zero in production)
        self.torn_writes = 0
        self._needs_newline = False
        self._policy: Optional[RetryPolicy] = None

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, path: Union[str, Path], meta: dict) -> "CampaignJournal":
        """Start a fresh journal, overwriting any previous file."""
        path = Path(path)
        fh = path.open("w")
        header = {"format": _JOURNAL_FORMAT, "kind": _JOURNAL_KIND}
        header.update(meta)
        fh.write(json.dumps(header) + "\n")
        fh.flush()
        return cls(path, fh)

    @classmethod
    def append_to(cls, path: Union[str, Path]) -> "CampaignJournal":
        """Reopen an existing journal for appending (resume).

        A torn final line is repaired (truncated) first, with a warning;
        the torn trial is simply re-executed by the resume.
        """
        path = Path(path)
        if not path.exists():
            raise JournalError(f"no campaign journal at {path}")
        torn_tag = _tail_tag(path)
        dropped = repair_tail(path)
        if dropped:
            if torn_tag == "E":
                # a torn *event* record loses observability only — no
                # trial was in that line, so nothing re-executes
                warnings.warn(
                    f"{path}: truncated a torn final event record "
                    f"({dropped} bytes); no trial is affected",
                    stacklevel=2,
                )
            else:
                warnings.warn(
                    f"{path}: truncated a torn final journal line "
                    f"({dropped} bytes); its trial will be re-executed",
                    stacklevel=2,
                )
        return cls(path, path.open("a"))

    # ------------------------------------------------------------------
    def _retry_policy(self) -> RetryPolicy:
        if self._policy is None:
            self._policy = RetryPolicy.from_settings()
        return self._policy

    def append_trial(self, index: int, trial,
                     shard: Optional[int] = None) -> None:
        line = _encode_trial(index, trial, shard)
        m = chaos.monkey()
        if m is not None and m.journal_tear(index):
            # simulate the driver dying mid-write: flush a prefix of the
            # record and stop.  The record is lost (recovery re-executes
            # the trial); the next append starts on a fresh line.
            cut = 1 + int(m.roll("tear-cut", str(index)) * (len(line) - 2))
            if self._needs_newline:
                self._fh.write("\n")
            self._fh.write(line[:cut])
            self._fh.flush()
            self._needs_newline = True
            self.torn_writes += 1
            return

        def _write() -> None:
            if m is not None:
                m.maybe_io_error("journal.append", str(index))
            if self._needs_newline:
                self._fh.write("\n")
                self._needs_newline = False
            self._fh.write(line)
            self._fh.flush()

        def _on_retry(exc, attempt, delay) -> None:
            self.io_retries += 1

        self._retry_policy().call(
            _write, token=f"journal:{index}", on_retry=_on_retry)

    def append_event(self, kind: str, **attrs) -> None:
        """Record a campaign event (a degradation rung).

        Events are observability, not science: readers surface them in
        the recovery report, and a torn or missing event never causes a
        trial to re-execute on resume.
        """
        line = _encode_event(kind, attrs)

        def _write() -> None:
            if self._needs_newline:
                self._fh.write("\n")
                self._needs_newline = False
            self._fh.write(line)
            self._fh.flush()

        def _on_retry(exc, attempt, delay) -> None:
            self.io_retries += 1

        self._retry_policy().call(
            _write, token=f"journal-event:{kind}", on_retry=_on_retry)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _parse_header(path: Path, line: str) -> dict:
    try:
        header = json.loads(line)
    except json.JSONDecodeError:
        raise JournalError(f"{path}: malformed journal header")
    if not isinstance(header, dict) or header.get("kind") != _JOURNAL_KIND:
        raise JournalError(f"{path}: not a campaign journal")
    if header.get("format") != _JOURNAL_FORMAT:
        raise JournalError(
            f"{path}: unsupported journal format {header.get('format')!r}"
        )
    return header


def read_journal_header(path: Union[str, Path]) -> dict:
    """A journal's first line — the campaign definition — alone."""
    path = Path(path)
    if not path.exists():
        raise JournalError(f"no campaign journal at {path}")
    with path.open("rb") as fh:
        return _parse_header(
            path, fh.readline().decode("utf-8", errors="replace"))


def read_journal_ex(path: Union[str, Path]
                    ) -> Tuple[dict, Dict[int, object], JournalRecovery]:
    """Load a journal: (header, {index: TrialResult}, recovery report).

    Later lines win on duplicate indices (a resumed-then-interrupted
    journal may record a trial twice).  Torn or corrupt records are
    dropped with a warning and counted in the recovery report — their
    trials re-execute on resume.  A malformed header is an error: with
    no header there is no campaign to re-derive.
    """
    from ..analysis.export import _trial_from_dict

    path = Path(path)
    if not path.exists():
        raise JournalError(f"no campaign journal at {path}")
    text = path.read_bytes().decode("utf-8", errors="replace")
    terminated = text.endswith("\n")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    header = _parse_header(path, lines[0] if lines else "")

    trials: Dict[int, object] = {}
    recovery = JournalRecovery()
    n_lines = len(lines)
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.rstrip("\r")
        if not line.strip():
            continue
        is_tail = (lineno == n_lines) and not terminated
        if line.startswith("E"):
            # campaign event record: observability, never science.  A
            # torn final event line must NOT read as a lost trial, or a
            # resume would pointlessly warn and re-run the last
            # completed trial.
            payload = _decode_frame(line, "E")
            if payload is None:
                if is_tail:
                    recovery.torn_event_tail = True
                continue
            try:
                event = json.loads(payload)
            except json.JSONDecodeError:  # pragma: no cover
                continue
            if isinstance(event, dict):
                recovery.events.append(event)
            continue
        payload = _decode_frame(line)
        if payload is None:
            if is_tail:
                recovery.torn_tail = True
            else:
                recovery.corrupt_records += 1
            continue
        entry = json.loads(payload)
        try:
            index = int(entry["index"])
            trial = _trial_from_dict(entry["trial"])
        except (KeyError, TypeError, ValueError):
            # the frame was intact, so this is a writer bug, not
            # corruption — refuse to guess
            raise JournalError(f"{path}:{lineno}: malformed trial record")
        if index in trials:
            recovery.duplicate_records += 1
        trials[index] = trial
    if recovery.torn_tail:
        warnings.warn(
            f"{path}: final journal line was partially written (torn "
            f"write); dropping it — the trial will be re-executed",
            stacklevel=2,
        )
    if recovery.corrupt_records:
        warnings.warn(
            f"{path}: dropped {recovery.corrupt_records} corrupt journal "
            f"record(s) failing their CRC frame; those trials will be "
            f"re-executed",
            stacklevel=2,
        )
    return header, trials, recovery


def read_journal(path: Union[str, Path]) -> Tuple[dict, Dict[int, object]]:
    """Load a journal: (header meta, {trial index: TrialResult}).

    Convenience wrapper over :func:`read_journal_ex` that discards the
    recovery report.
    """
    header, trials, _ = read_journal_ex(path)
    return header, trials


#: trial fields excluded from the science hash: wall-clock artefacts
#: (timings), scheduling artefacts (retries, which worker slot ran
#: the trial) and execution-strategy bookkeeping (pruning/forking
#: cycles) — everything :func:`repro.inject.campaign.trial_results_equal`
#: ignores, plus the harness retry count
_NON_SCIENCE_FIELDS = (
    "stage_timings", "cml_stream", "obs", "pruned_at_cycle",
    "forked_at_cycle", "pages_copied", "retries",
)


def journal_science_hash(path: Union[str, Path]) -> str:
    """SHA-256 over a journal's science content, backend-independent.

    Canonicalises every trial (sorted by index, JSON with sorted keys)
    after stripping the non-science fields, so a campaign journal
    produced serially or by a worker fleet of any size on either wire
    — in any completion order, resumed any number of times — hashes
    identically iff the trial outcomes are bit-identical.  The CI
    remote smoke asserts a 2-worker socket-wire run against serial with
    exactly this.
    """
    from ..analysis.export import _trial_to_dict

    _, trials, _ = read_journal_ex(path)
    digest = hashlib.sha256()
    for index in sorted(trials):
        entry = _trial_to_dict(trials[index])
        for drop in _NON_SCIENCE_FIELDS:
            entry.pop(drop, None)
        digest.update(json.dumps(
            {"index": index, "trial": entry}, sort_keys=True,
        ).encode())
    return digest.hexdigest()
