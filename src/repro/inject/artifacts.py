"""Shared golden artifacts: profile the golden run once, reuse it everywhere.

Every fault-injection campaign needs the same expensive preparation —
compile the app, run the fault-free reference, capture world snapshots —
before a single trial executes.  PR 1's engine made each *worker* pay
that cost again after a respawn, and every fresh driver invocation pays
it from scratch.  This module serializes the prepared golden state into
a **content-addressed on-disk artifact** so that

* pool workers (including respawned ones) load the artifact instead of
  re-running golden profiling, and
* repeated campaigns over the same (app, params, mode, stride) — the
  normal shape of a paper-scale study sweeping seeds and trial counts —
  skip golden profiling entirely.

Artifact identity is a SHA-256 over the *content* that determines the
golden run: app source, run configuration, instrumentation mode,
snapshot stride/limit, and the artifact schema version.  Any change to
any of these yields a different key, so stale artifacts are simply never
found.  Each artifact file additionally carries an integrity hash of its
payload; a corrupt or truncated file is **rejected** (with a warning)
and the campaign falls back to re-profiling.  A schema-version bump
behaves the same way: old artifacts are ignored, never mis-read.

Compiled closures are never serialized — snapshots reference functions
by name and are re-bound to a freshly compiled program on load, which is
safe precisely because the key pins the source they were compiled from.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..apps.registry import AppSpec
from ..errors import ArtifactError, RetryPolicy
from ..vm.fingerprint import FingerprintIndex
from ..vm.snapshot import SnapshotStore
from . import chaos
from .profiler import GoldenProfile

#: bump when the payload layout or snapshot encoding changes shape;
#: artifacts with any other schema are re-profiled, never interpreted
#: (v2: golden fingerprint index for convergence pruning;
#: v3: per-epoch injection counters for fork-at-injection planning;
#: v4: tier-2 trace plan + golden edge profile;
#: v5: NumPy world buffers — snapshot payloads carry int64 arrays +
#: float-tag bytes and fingerprints digest raw array bytes;
#: v6: tier-2 plan v2 — one rolled or straight path per head, no cap;
#: v7: one word is one Python object again — a snapshot's live words
#: are one pickled blob, fingerprints digest word values, tier-2 plan v3;
#: v8: a snapshot holds each rank's ``Machine.capture`` tuple)
SCHEMA_VERSION = 8

_ARTIFACT_KIND = "repro-golden-artifact"
_SUFFIX = ".golden"
_QUARANTINE_SUFFIX = ".corrupt"

#: process-local log of quarantined artifact paths (campaign drivers
#: snapshot its length around preparation to surface counts in health)
QUARANTINE_LOG: list = []


def default_artifact_dir(requested: Union[str, Path, None] = None
                         ) -> Optional[Path]:
    """Artifact directory: argument, else REPRO_ARTIFACT_DIR, else None.

    ``None`` disables the artifact store entirely (PR 2 behaviour:
    every process profiles its own golden run).
    """
    if requested is not None:
        return Path(requested)
    from ..core.settings import current_settings
    raw = current_settings().artifact_dir
    return Path(raw) if raw else None


def artifact_key(spec: AppSpec, mode: str, stride: int, limit: int) -> str:
    """Content address of the golden state for one prepared configuration."""
    ident = json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "app": spec.name,
            "source_sha256": hashlib.sha256(
                spec.source.encode()
            ).hexdigest(),
            "config": sorted(
                (k, repr(v)) for k, v in vars(spec.config).items()
            ),
            "tolerance": repr(spec.tolerance),
            "abs_tolerance": repr(spec.abs_tolerance),
            "mode": mode,
            "snapshot_stride": stride,
            "snapshot_limit": limit,
        },
        sort_keys=True,
    )
    return hashlib.sha256(ident.encode()).hexdigest()[:40]


def artifact_path(directory: Union[str, Path], key: str) -> Path:
    return Path(directory) / f"{key}{_SUFFIX}"


@dataclass
class GoldenArtifact:
    """One loaded artifact: the golden profile plus frozen snapshots."""

    key: str
    golden: GoldenProfile
    #: :meth:`SnapshotStore.dump_state` form, or None (snapshots disabled)
    snapshot_state: Optional[tuple]
    #: :meth:`FingerprintIndex.dump_state` form, or None (no fingerprints)
    fingerprint_state: Optional[tuple] = None
    #: JSON-safe tier-2 trace plan (:func:`repro.vm.tier2.derive_plan`),
    #: or None — workers install it instead of re-planning
    tier2_plan: Optional[dict] = None

    def snapshot_store(self) -> Optional[SnapshotStore]:
        if self.snapshot_state is None:
            return None
        return SnapshotStore.load_state(self.snapshot_state)

    def fingerprint_index(self) -> Optional[FingerprintIndex]:
        if self.fingerprint_state is None:
            return None
        return FingerprintIndex.load_state(self.fingerprint_state)


def save_artifact(
    directory: Union[str, Path],
    key: str,
    golden: GoldenProfile,
    snapshots: Optional[SnapshotStore],
    fingerprints: Optional[FingerprintIndex] = None,
    tier2_plan: Optional[dict] = None,
) -> Path:
    """Atomically write the artifact for ``key``; returns its path.

    Concurrent writers are safe: both produce identical content for the
    same key, and the ``os.replace`` is atomic.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = pickle.dumps(
        {
            "golden": golden,
            "snapshots": snapshots.dump_state()
            if snapshots is not None else None,
            "fingerprints": fingerprints.dump_state()
            if fingerprints is not None else None,
            "tier2_plan": tier2_plan,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    header = {
        "kind": _ARTIFACT_KIND,
        "schema": SCHEMA_VERSION,
        "key": key,
        "app": golden.app_name,
        "mode": golden.mode,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
    }
    path = artifact_path(directory, key)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=_SUFFIX + ".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_artifact_strict(directory: Union[str, Path],
                         key: str) -> GoldenArtifact:
    """Load and fully validate the artifact for ``key``.

    Raises :class:`~repro.errors.ArtifactError` on any problem: missing
    file, malformed header, stale schema version, integrity-hash
    mismatch, or an unpicklable payload.
    """
    path = artifact_path(directory, key)
    m = chaos.monkey()
    if m is not None:
        m.corrupt_artifact(path, key)

    def _read() -> bytes:
        if m is not None:
            m.maybe_io_error("artifact.read", key)
        return path.read_bytes()

    try:
        blob = RetryPolicy.from_settings().call(
            _read, token=f"artifact:{key}")
    except FileNotFoundError:
        raise ArtifactError(f"no golden artifact at {path}") from None
    except OSError as exc:
        raise ArtifactError(f"cannot read golden artifact {path}: {exc}")
    newline = blob.find(b"\n")
    if newline < 0:
        raise ArtifactError(f"{path}: truncated artifact (no header)")
    try:
        header = json.loads(blob[:newline])
    except json.JSONDecodeError:
        raise ArtifactError(f"{path}: malformed artifact header")
    if not isinstance(header, dict) or header.get("kind") != _ARTIFACT_KIND:
        raise ArtifactError(f"{path}: not a golden artifact")
    if header.get("schema") != SCHEMA_VERSION:
        raise ArtifactError(
            f"{path}: stale artifact schema {header.get('schema')!r} "
            f"(current {SCHEMA_VERSION}); re-profiling"
        )
    if header.get("key") != key:
        raise ArtifactError(
            f"{path}: artifact key mismatch ({header.get('key')!r} != "
            f"{key!r})"
        )
    payload = blob[newline + 1:]
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        raise ArtifactError(
            f"{path}: integrity hash mismatch — artifact rejected "
            f"(payload {digest[:12]}…, header "
            f"{str(header.get('payload_sha256'))[:12]}…)"
        )
    try:
        data = pickle.loads(payload)
        golden = data["golden"]
        snapshot_state = data["snapshots"]
        fingerprint_state = data.get("fingerprints")
        tier2_plan = data.get("tier2_plan")
    except Exception as exc:
        raise ArtifactError(f"{path}: unreadable artifact payload: {exc}")
    if not isinstance(golden, GoldenProfile):
        raise ArtifactError(f"{path}: artifact payload is not a golden "
                            f"profile")
    return GoldenArtifact(
        key=key,
        golden=golden,
        snapshot_state=snapshot_state,
        fingerprint_state=fingerprint_state,
        tier2_plan=tier2_plan,
    )


def quarantine_artifact(directory: Union[str, Path], key: str,
                        reason: str) -> Optional[Path]:
    """Move a corrupt artifact aside so it can be re-materialised.

    The artifact file is renamed to ``<key>.golden.corrupt`` (replacing
    any previous quarantine for the key), so the next preparation
    re-runs the golden profile and atomically writes a fresh artifact
    in the old one's place — a one-shot re-materialisation instead of a
    warn-every-load loop.
    Returns the quarantine path, or None when nothing could be moved.
    """
    directory = Path(directory)
    src = artifact_path(directory, key)
    dst = src.with_suffix(src.suffix + _QUARANTINE_SUFFIX)
    try:
        os.replace(src, dst)
    except OSError:
        return None
    QUARANTINE_LOG.append(str(dst))
    warnings.warn(
        f"quarantined corrupt golden artifact {src} -> {dst.name} "
        f"({reason}); it will be re-materialised from a fresh golden run",
        stacklevel=3,
    )
    return dst


def load_artifact(directory: Union[str, Path],
                  key: str) -> Optional[GoldenArtifact]:
    """Soft load: None when absent; quarantine + None when corrupt.

    The caller (``PreparedApp``) treats None as "profile the golden run
    yourself", so a bad artifact can never poison a campaign: a corrupt
    file is moved aside (:func:`quarantine_artifact`) and the fresh
    golden run re-materialises the artifact under its original name.
    """
    if not artifact_path(directory, key).exists():
        return None
    try:
        return load_artifact_strict(directory, key)
    except ArtifactError as exc:
        warnings.warn(f"ignoring golden artifact: {exc}", stacklevel=2)
        quarantine_artifact(directory, key, str(exc))
        return None
