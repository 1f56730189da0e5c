"""SnapshotStore mechanics: capture stride, bounding, sparse memory
round-trips, and the env knobs."""

import pytest

from repro.apps import get_app
from repro.inject.profiler import PreparedApp
from repro.vm import ProcessMemory, SnapshotStore
from repro.vm.snapshot import (
    DEFAULT_LIMIT,
    DEFAULT_STRIDE,
    default_snapshot_stride,
    snapshot_verify_mode,
)


def _store(app="matvec", mode="blackbox", stride=100, limit=None):
    pa = PreparedApp(get_app(app), mode, snapshot_stride=stride,
                     snapshot_limit=limit)
    return pa, pa.snapshots


class TestCapture:
    def test_golden_run_populates_store(self):
        pa, store = _store(stride=100)
        assert store is not None and len(store) > 0
        assert store.captures == len(store)
        cycles = [s.cycle for s in store._snaps.values()]
        assert cycles == sorted(cycles)
        # strictly before the end of the run — the all-DONE epoch is skipped
        assert cycles[-1] < pa.golden.cycles

    def test_counters_monotone_across_snapshots(self):
        _, store = _store(stride=50)
        prev = None
        for snap in store._snaps.values():
            counters = [st.execution.inj_counter for st in snap.machines]
            if prev is not None:
                assert all(a <= b for a, b in zip(prev, counters))
            prev = counters

    def test_store_is_bounded_and_thins_deterministically(self):
        _, store = _store(app="mcb", stride=64, limit=4)
        assert len(store) <= 4
        # thinning doubled the stride at least once on a 50k-cycle run
        assert store.stride > 64
        # identical build → identical store (fork/serial determinism)
        _, store2 = _store(app="mcb", stride=64, limit=4)
        assert [s.cycle for s in store._snaps.values()] == \
               [s.cycle for s in store2._snaps.values()]
        assert store.stride == store2.stride

    def test_frozen_store_stops_capturing(self):
        _, store = _store(stride=100)
        n = len(store)
        store.maybe_capture(10 ** 9, 1, [], None, None)
        assert len(store) == n

    def test_stride_zero_disables(self):
        pa = PreparedApp(get_app("matvec"), "blackbox", snapshot_stride=0)
        assert pa.snapshots is None


class TestMemoryRoundTrip:
    def test_sparse_snapshot_restores_exactly(self):
        mem = ProcessMemory(capacity=1024, stack_words=256)
        base = mem.stack_alloc(10)
        for i in range(10):
            mem.store(base + i, i * 3)
        h1 = mem.malloc(5)
        h2 = mem.malloc(7)
        mem.store(h2 + 3, 2.5)
        mem.free(h1)   # leaves a free-list entry and stale garbage
        state = mem.snapshot_state()

        # mutate everything
        mem.store(base + 4, -1)
        h3 = mem.malloc(5)  # reuses h1 from the free list
        mem.store(h3, 99)

        mem.restore_state(state)
        assert [mem.load(base + i) for i in range(10)] == \
               [i * 3 for i in range(10)]
        assert mem.load(h2 + 3) == 2.5
        assert mem.heap_blocks == {h2: 7}
        assert mem.free_lists == {5: [h1]}
        assert not mem.valid[h1]   # freed block stays invalid after restore
        assert mem.live_words == 10 + 7
        # allocation behaviour resumes identically: malloc(5) reuses h1
        assert mem.malloc(5) == h1

    def test_restored_invalid_cells_trap(self):
        mem = ProcessMemory(capacity=512, stack_words=128)
        mem.stack_alloc(4)
        state = mem.snapshot_state()
        mem.stack_alloc(4)
        mem.restore_state(state)
        from repro.vm import Trap
        with pytest.raises(Trap):
            mem.load(5)  # beyond restored sp


class TestEnvKnobs:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_SNAPSHOT_STRIDE", raising=False)
        monkeypatch.delenv("REPRO_SNAPSHOT_VERIFY", raising=False)
        assert default_snapshot_stride() == DEFAULT_STRIDE
        assert SnapshotStore().limit == DEFAULT_LIMIT
        assert snapshot_verify_mode() == "first"

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOT_STRIDE", "512")
        monkeypatch.setenv("REPRO_SNAPSHOT_VERIFY", "all")
        assert default_snapshot_stride() == 512
        assert snapshot_verify_mode() == "all"

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOT_STRIDE", "512")
        assert default_snapshot_stride(64) == 64
        assert default_snapshot_stride(0) == 0

    def test_bad_values_warn_and_fall_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOT_STRIDE", "soon")
        with pytest.warns(UserWarning, match="REPRO_SNAPSHOT_STRIDE"):
            assert default_snapshot_stride() == DEFAULT_STRIDE
        monkeypatch.setenv("REPRO_SNAPSHOT_VERIFY", "sometimes")
        with pytest.warns(UserWarning, match="REPRO_SNAPSHOT_VERIFY"):
            assert snapshot_verify_mode() == "first"

    def test_limit_minimum_is_two(self):
        store = SnapshotStore(stride=10, limit=0)
        assert store.limit == 2
