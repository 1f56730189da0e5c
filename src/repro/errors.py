"""Exception hierarchy for the repro framework.

Every layer raises a subclass of :class:`ReproError` so callers can
distinguish framework failures from bugs in user programs (which surface
as :class:`~repro.vm.traps.Trap` during execution).
"""

from __future__ import annotations

import errno
import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, TypeVar


class ReproError(Exception):
    """Base class for all framework-level errors."""


class IRError(ReproError):
    """Malformed IR detected while building or verifying a module."""


class VerifierError(IRError):
    """The IR verifier found a structural or type error."""


class FrontendError(ReproError):
    """Base class for MiniHPC compilation errors."""

    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        self.line = line
        self.col = col
        if line:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class LexError(FrontendError):
    """Invalid token in MiniHPC source."""


class ParseError(FrontendError):
    """Syntax error in MiniHPC source."""


class SemanticError(FrontendError):
    """Type or scoping error in MiniHPC source."""


class PassError(ReproError):
    """A compiler pass was applied in an invalid state or order."""


class MPIError(ReproError):
    """Misuse of the simulated MPI runtime detected by the framework."""


class SnapshotError(ReproError):
    """Snapshot/fork misuse or equivalence violation.

    Raised when a world snapshot cannot be captured or restored, when a
    golden cursor cannot reach a trial's fork epoch, or — the serious
    one — when the mandatory equivalence check finds a forked trial
    that is not bit-identical to its cold re-execution.
    """


class CampaignError(ReproError):
    """Invalid fault-injection campaign configuration."""


class ArtifactError(CampaignError):
    """A golden artifact is unreadable, corrupt, or incompatible.

    Load paths treat these as *soft* failures — the campaign falls back
    to re-profiling the golden run — but the error distinguishes an
    integrity violation (tampered/truncated payload, rejected) from a
    stale schema version (written by an older framework, re-profiled).
    """


class HarnessError(CampaignError):
    """The campaign harness itself failed (not the application under test).

    Application failures (traps, deadlocks, hangs within the cycle
    budget) are *outcomes* — they classify as Crashed.  Harness failures
    are everything that kills or wedges the machinery *around* a trial:
    a worker process dying, a trial exceeding its wall-clock watchdog,
    an unexpected exception inside the trial driver.
    """


class TrialTimeoutError(HarnessError):
    """A trial exceeded its wall-clock watchdog budget."""


class WorkerCrashError(HarnessError):
    """A campaign worker process died while running a trial."""


class JournalError(CampaignError):
    """A campaign journal is missing, malformed, or inconsistent with
    the campaign it is being resumed into."""


class FailureKind(Enum):
    """Structured taxonomy of harness failures (engine retry/quarantine).

    Recorded on every ``HARNESS_FAILURE`` trial so campaigns never
    silently drop a trial — the journal and health summary say exactly
    how the harness lost it.
    """

    #: trial exceeded the per-trial wall-clock watchdog
    TIMEOUT = "timeout"
    #: the worker process died (segfault, OOM-kill, os._exit, ...)
    WORKER_CRASH = "worker_crash"
    #: the trial raised an unexpected exception inside the worker
    EXCEPTION = "exception"


class ErrorClass(Enum):
    """Retry-routing classification of a harness error.

    Errors are routing signals, not hard stops: a classification decides
    whether the failed operation is retried (and how), not merely
    reported.  The taxonomy follows production retry policy: transient
    conditions clear on their own, retriable ones may succeed on a
    bounded re-execution, permanent ones never will, and fatal ones must
    stop the campaign immediately.
    """

    #: temporary external condition (EAGAIN, timeout, contention) —
    #: retry with exponential backoff, expected to clear
    TRANSIENT = "transient"
    #: a bounded re-execution may succeed (crashed worker, watchdog
    #: kill, unexpected trial exception)
    RETRIABLE = "retriable"
    #: will not resolve with retry (bad input, corrupt artifact,
    #: missing file, invalid configuration)
    PERMANENT = "permanent"
    #: stop everything now (interrupt, interpreter shutdown, OOM)
    FATAL = "fatal"


#: errno values that signal a transient OS-level condition
_TRANSIENT_ERRNOS = frozenset(
    getattr(errno, name)
    for name in ("EAGAIN", "EWOULDBLOCK", "EBUSY", "EINTR", "ETIMEDOUT",
                 "ECONNRESET", "ECONNREFUSED", "ESTALE", "ENOBUFS")
    if hasattr(errno, name)
)


def classify_exception(exc: BaseException) -> ErrorClass:
    """Map an exception to its :class:`ErrorClass` routing decision.

    The mapping is intentionally conservative: anything unrecognised is
    RETRIABLE (the engine already bounds re-execution with
    ``max_retries``), while only provably-hopeless errors are PERMANENT
    and only process-level emergencies are FATAL.
    """
    if isinstance(exc, (KeyboardInterrupt, SystemExit, MemoryError)):
        return ErrorClass.FATAL
    if isinstance(exc, (TimeoutError, ConnectionError, InterruptedError,
                        BlockingIOError)):
        return ErrorClass.TRANSIENT
    if isinstance(exc, OSError):
        if exc.errno in _TRANSIENT_ERRNOS:
            return ErrorClass.TRANSIENT
        if isinstance(exc, (FileNotFoundError, PermissionError,
                            IsADirectoryError, NotADirectoryError)):
            return ErrorClass.PERMANENT
        return ErrorClass.RETRIABLE
    if isinstance(exc, (TrialTimeoutError, WorkerCrashError)):
        return ErrorClass.RETRIABLE
    if isinstance(exc, (ArtifactError, JournalError)):
        # corrupt on-disk state: retrying the same read cannot help;
        # recovery is quarantine + re-materialisation, not a retry
        return ErrorClass.PERMANENT
    if isinstance(exc, CampaignError):
        return ErrorClass.PERMANENT
    if isinstance(exc, (ValueError, TypeError, KeyError, AttributeError)):
        return ErrorClass.PERMANENT
    return ErrorClass.RETRIABLE


_T = TypeVar("_T")


@dataclass(frozen=True)
class RetryPolicy:
    """Seeded exponential backoff with deterministic jitter.

    The jitter is a pure function of ``(seed, token, attempt)`` — no
    global RNG state is consumed — so a resumed campaign that replays
    the same retries sleeps the same delays and stays bit-identical.
    Delays follow ``base_delay * 2**attempt`` capped at ``max_delay``,
    plus up to 50% deterministic jitter (decorrelating workers that
    fail simultaneously).
    """

    base_delay: float = 0.05
    max_delay: float = 2.0
    max_attempts: int = 4
    seed: int = 0

    @classmethod
    def from_settings(cls, seed: int = 0) -> "RetryPolicy":
        """Build from REPRO_RETRY_BASE_DELAY / REPRO_RETRY_MAX_DELAY."""
        from .core.settings import current_settings

        s = current_settings()
        return cls(
            base_delay=s.retry_base_delay,
            max_delay=s.retry_max_delay,
            seed=seed,
        )

    def jitter_fraction(self, token: str, attempt: int) -> float:
        """Deterministic uniform [0, 1) draw for one retry decision."""
        digest = hashlib.sha256(
            f"{self.seed}:{token}:{attempt}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64

    def delay(self, attempt: int, token: str = "") -> float:
        """Backoff before re-attempt number ``attempt`` (0-based)."""
        raw = min(self.max_delay, self.base_delay * (2.0 ** attempt))
        jitter = 0.5 * raw * self.jitter_fraction(token, attempt)
        return min(self.max_delay, raw + jitter)

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        """Route one failure: True = back off and retry, False = give up."""
        klass = classify_exception(exc)
        if klass in (ErrorClass.FATAL, ErrorClass.PERMANENT):
            return False
        return attempt < self.max_attempts

    def call(self, fn: Callable[[], _T], *, token: str = "",
             on_retry: Optional[Callable[[BaseException, int, float],
                                         None]] = None) -> _T:
        """Run ``fn`` under this policy; re-raises when retries exhaust.

        ``on_retry(exc, attempt, delay)`` is invoked before each backoff
        sleep (metrics/health accounting hook).
        """
        import time as _time

        attempt = 0
        while True:
            try:
                return fn()
            except BaseException as exc:
                if not self.should_retry(exc, attempt):
                    raise
                pause = self.delay(attempt, token)
                if on_retry is not None:
                    on_retry(exc, attempt, pause)
                _time.sleep(pause)
                attempt += 1


class ModelError(ReproError):
    """Fault-propagation model fitting or evaluation failure."""


class ObservabilityError(ReproError):
    """Malformed trace/metrics data in the observability layer.

    Raised when a trace JSONL file fails schema validation, a metrics
    exposition is not well-formed, or incompatible registries are
    merged.  Never raised on the recording path: emitters are no-ops
    when observability is off and best-effort when on, so instrumenting
    a campaign cannot take the campaign down.
    """
