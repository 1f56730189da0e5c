"""Failure taxonomy and the seeded deterministic retry policy."""

from __future__ import annotations

import errno

import pytest

from repro.errors import (
    ArtifactError,
    CampaignError,
    ErrorClass,
    FailureKind,
    JournalError,
    RetryPolicy,
    TrialTimeoutError,
    WorkerCrashError,
    classify_exception,
)


class TestClassifyException:
    def test_fatal(self):
        for exc in (KeyboardInterrupt(), SystemExit(1), MemoryError()):
            assert classify_exception(exc) is ErrorClass.FATAL

    def test_transient(self):
        for exc in (TimeoutError(), ConnectionResetError(),
                    InterruptedError(), BlockingIOError(),
                    OSError(errno.EAGAIN, "again"),
                    OSError(errno.EBUSY, "busy")):
            assert classify_exception(exc) is ErrorClass.TRANSIENT

    def test_permanent(self):
        for exc in (FileNotFoundError("x"), PermissionError("x"),
                    IsADirectoryError("x"), ValueError("x"),
                    TypeError("x"), KeyError("x"),
                    ArtifactError("x"), JournalError("x"),
                    CampaignError("x")):
            assert classify_exception(exc) is ErrorClass.PERMANENT

    def test_retriable(self):
        for exc in (TrialTimeoutError("x"), WorkerCrashError("x"),
                    OSError(errno.EIO, "io"), RuntimeError("unknown")):
            assert classify_exception(exc) is ErrorClass.RETRIABLE

    def test_errno_mapping_wins_over_bare_oserror(self):
        # OSError(EPERM, ...) materialises as PermissionError — permanent
        assert classify_exception(OSError(errno.EPERM, "no")) \
            is ErrorClass.PERMANENT


class TestRetryPolicy:
    def test_delays_are_deterministic(self):
        a = RetryPolicy(seed=7)
        b = RetryPolicy(seed=7)
        for attempt in range(5):
            assert a.delay(attempt, token="t:1") == \
                b.delay(attempt, token="t:1")

    def test_delays_differ_by_seed_and_token(self):
        p = RetryPolicy(seed=1)
        q = RetryPolicy(seed=2)
        assert p.delay(0, token="x") != q.delay(0, token="x")
        assert p.delay(0, token="x") != p.delay(0, token="y")

    def test_delay_grows_and_caps(self):
        p = RetryPolicy(base_delay=0.1, max_delay=0.5, seed=0)
        delays = [p.delay(a, token="t") for a in range(8)]
        assert delays[0] < delays[2] <= 0.5 + 1e-9
        assert max(delays) <= 0.5 + 1e-9

    def test_zero_base_means_zero_delay(self):
        p = RetryPolicy(base_delay=0.0, max_delay=0.0, seed=0)
        assert p.delay(3, token="t") == 0.0

    def test_should_retry_respects_class_and_budget(self):
        p = RetryPolicy(max_attempts=3)
        assert p.should_retry(OSError(errno.EAGAIN, "again"), attempt=1)
        assert not p.should_retry(OSError(errno.EAGAIN, "again"), attempt=3)
        assert not p.should_retry(ValueError("permanent"), attempt=1)
        assert not p.should_retry(KeyboardInterrupt(), attempt=1)

    def test_call_retries_transient_then_succeeds(self):
        p = RetryPolicy(base_delay=0.0, max_delay=0.0, max_attempts=4)
        tries = []

        def flaky():
            tries.append(1)
            if len(tries) < 3:
                raise OSError(errno.EAGAIN, "transient")
            return "ok"

        seen = []
        assert p.call(flaky, token="j",
                      on_retry=lambda e, a, d: seen.append(a)) == "ok"
        assert len(tries) == 3
        assert seen == [0, 1]

    def test_call_gives_up_after_budget(self):
        p = RetryPolicy(base_delay=0.0, max_delay=0.0, max_attempts=2)
        with pytest.raises(OSError):
            p.call(lambda: (_ for _ in ()).throw(
                OSError(errno.EAGAIN, "always")), token="j")

    def test_call_never_retries_permanent(self):
        p = RetryPolicy(base_delay=0.0, max_delay=0.0, max_attempts=5)
        tries = []

        def broken():
            tries.append(1)
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            p.call(broken, token="j")
        assert len(tries) == 1

    def test_from_settings_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_BASE_DELAY", "0.25")
        monkeypatch.setenv("REPRO_RETRY_MAX_DELAY", "9.0")
        p = RetryPolicy.from_settings(seed=3)
        assert (p.base_delay, p.max_delay, p.max_attempts, p.seed) == \
            (0.25, 9.0, 4, 3)

    def test_failure_kind_enum_unchanged(self):
        # the taxonomy extends — it must not disturb the trial-level kinds
        assert {k.value for k in FailureKind} >= \
            {"timeout", "worker_crash", "exception"}
