"""Word-addressed process memory: validity, stack and heap discipline."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vm.memory import ProcessMemory
from repro.vm.traps import Trap, TrapKind


def mem(capacity=1024, stack=256):
    return ProcessMemory(capacity, stack)


class TestValidity:
    def test_null_address_faults(self):
        m = mem()
        m.stack_alloc(4)
        with pytest.raises(Trap) as exc:
            m.load(0)
        assert exc.value.kind is TrapKind.MEM_FAULT

    def test_unallocated_faults(self):
        m = mem()
        with pytest.raises(Trap):
            m.load(10)
        with pytest.raises(Trap):
            m.store(10, 1.0)

    def test_negative_and_out_of_range(self):
        m = mem()
        for addr in (-1, 10 ** 9, 2 ** 62):
            with pytest.raises(Trap):
                m.load(addr)

    def test_alloc_then_access(self):
        m = mem()
        a = m.stack_alloc(4)
        m.store(a + 3, 2.5)
        assert m.load(a + 3) == 2.5

    def test_fresh_allocation_is_zeroed(self):
        m = mem()
        a = m.stack_alloc(8)
        assert all(m.load(a + i) == 0 for i in range(8))


class TestStack:
    def test_sequential_addresses(self):
        m = mem()
        a = m.stack_alloc(4)
        b = m.stack_alloc(4)
        assert b == a + 4

    def test_overflow_traps(self):
        m = mem(capacity=1024, stack=64)
        with pytest.raises(Trap) as exc:
            m.stack_alloc(100)
        assert exc.value.kind is TrapKind.STACK_OVERFLOW

    def test_release_invalidates(self):
        m = mem()
        keep = m.stack_alloc(2)
        sp = m.sp
        tmp = m.stack_alloc(4)
        m.stack_release(sp)
        assert m.load(keep) == 0
        with pytest.raises(Trap):
            m.load(tmp)

    def test_release_returns_range(self):
        m = mem()
        sp = m.sp
        m.stack_alloc(4)
        lo, hi = m.stack_release(sp)
        assert (lo, hi) == (sp, sp + 4)

    def test_realloc_after_release_is_zeroed(self):
        m = mem()
        sp = m.sp
        a = m.stack_alloc(2)
        m.store(a, 42)
        m.stack_release(sp)
        b = m.stack_alloc(2)
        assert b == a
        assert m.load(b) == 0


class TestHeap:
    def test_malloc_free_cycle(self):
        m = mem()
        p = m.malloc(16)
        m.store(p, 7)
        assert m.load(p) == 7
        m.free(p)
        with pytest.raises(Trap):
            m.load(p)

    def test_free_list_reuse(self):
        m = mem()
        p = m.malloc(8)
        m.free(p)
        q = m.malloc(8)
        assert q == p
        assert m.load(q) == 0  # reused blocks are zeroed

    def test_double_free_traps(self):
        m = mem()
        p = m.malloc(8)
        m.free(p)
        with pytest.raises(Trap):
            m.free(p)

    def test_invalid_free_traps(self):
        m = mem()
        with pytest.raises(Trap):
            m.free(12345)

    def test_oom(self):
        m = mem(capacity=300, stack=100)
        with pytest.raises(Trap) as exc:
            m.malloc(500)
        assert exc.value.kind is TrapKind.OOM

    def test_malloc_nonpositive_traps(self):
        m = mem()
        for n in (0, -1):
            with pytest.raises(Trap):
                m.malloc(n)


class TestBlocks:
    def test_read_write_block(self):
        m = mem()
        a = m.stack_alloc(8)
        m.write_block(a, [1.0, 2.0, 3.0])
        assert m.read_block(a, 3) == [1.0, 2.0, 3.0]

    def test_block_spanning_invalid_traps(self):
        m = mem()
        a = m.stack_alloc(4)
        with pytest.raises(Trap):
            m.read_block(a, 100)

    def test_negative_count_traps(self):
        m = mem()
        a = m.stack_alloc(4)
        with pytest.raises(Trap):
            m.read_block(a, -1)


class TestLiveWords:
    @settings(max_examples=30)
    @given(st.lists(st.integers(min_value=1, max_value=16), min_size=1,
                    max_size=10))
    def test_live_word_accounting(self, sizes):
        m = mem(capacity=4096, stack=1024)
        ptrs = [m.malloc(n) for n in sizes]
        assert m.live_words == sum(sizes)
        for p in ptrs:
            m.free(p)
        assert m.live_words == 0

    def test_stack_and_heap_both_counted(self):
        m = mem()
        m.stack_alloc(10)
        m.malloc(5)
        assert m.live_words == 15


# ----------------------------------------------------------------------
# Restore-path equivalence and COW transactions
# ----------------------------------------------------------------------
def _churn(m, rng, ops=60):
    """Random but trap-free workload: allocs, frees, stores, releases."""
    frames = []
    ptrs = []
    for _ in range(ops):
        op = rng.randrange(6)
        if op == 0 and m.sp + 8 < m.stack_words:
            frames.append(m.sp)
            a = m.stack_alloc(1 + rng.randrange(8))
            m.store(a, rng.randrange(-999, 999))
        elif op == 1 and frames:
            m.stack_release(frames.pop())
        elif op == 2 and m.hp + 16 < m.capacity:
            p = m.malloc(1 + rng.randrange(16))
            ptrs.append(p)
            m.store(p, rng.random())
        elif op == 3 and ptrs:
            m.free(ptrs.pop(rng.randrange(len(ptrs))))
        elif op == 4 and ptrs:
            p = ptrs[rng.randrange(len(ptrs))]
            m.write_block(p, [rng.randrange(999)])
        elif frames:
            m.store(frames[-1], rng.random() * 7)
    return frames, ptrs


def _world_hash(m):
    """Digest of every observable property of a memory world.

    Cells under ``valid == 0`` may hold stale garbage by design — every
    access path is validity-checked — so only valid words participate.
    """
    import hashlib
    h = hashlib.sha256()
    h.update(repr((m.sp, m.hp, m.live_words,
                   sorted(m.heap_blocks.items()),
                   sorted((s, sorted(b)) for s, b in m.free_lists.items())
                   )).encode())
    valid = m.valid
    for i in range(m.capacity):
        if valid[i]:
            h.update(repr((i, m.peek(i))).encode())
    return h.hexdigest()


class TestRestoreEquivalence:
    """restore_state wipes whatever the target dirtied, so from any
    reachable state it must rebuild the captured world."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_restore_rebuilds_world_hash_on_dirty_target(self, seed_a,
                                                         seed_b):
        import random
        src = mem(capacity=2048, stack=512)
        _churn(src, random.Random(seed_a))
        sparse = src.snapshot_state()
        want = _world_hash(src)

        target = mem(capacity=2048, stack=512)
        _churn(target, random.Random(seed_b))
        target.restore_state(sparse)
        assert _world_hash(target) == want

    def test_restore_after_deeper_heap_is_exact(self):
        # regression guard: the dirty wipe must cover a target whose
        # bump pointer ran past the snapshot's hp
        src = mem()
        p = src.malloc(4)
        src.store(p, 42)
        sparse = src.snapshot_state()
        tgt = mem()
        for _ in range(10):
            q = tgt.malloc(32)
            tgt.store(q, 1.5)
        tgt.restore_state(sparse)
        assert _world_hash(tgt) == _world_hash(src)


class TestCowTransactions:
    def test_rollback_is_bit_exact(self):
        import random
        m = mem(capacity=2048, stack=512)
        _churn(m, random.Random(3))
        before = _world_hash(m)
        m.begin_tx()
        _churn(m, random.Random(4))
        pages = m.rollback_tx()
        assert pages > 0
        assert _world_hash(m) == before
        # and the memory is fully usable afterwards
        a = m.malloc(2)
        m.store(a, 9)
        assert m.load(a) == 9

    def test_pages_copied_counts_unique_pages(self):
        m = ProcessMemory(capacity=4096, stack_words=1024, page_words=256)
        a = m.stack_alloc(4)
        p = m.malloc(4)
        m.begin_tx()
        assert m.tx_pages_copied == 0
        m.store(a, 1)
        assert m.tx_pages_copied == 1
        m.store(a + 1, 2)           # same page: no new copy
        assert m.tx_pages_copied == 1
        m.store(p, 3)               # heap lives on a different page
        assert m.tx_pages_copied == 2
        m.rollback_tx()
        assert m.tx_pages_copied == 0

    def test_owned_outside_tx(self):
        m = mem()
        assert all(m.page_owned)
        m.begin_tx()
        assert not any(m.page_owned)
        m.rollback_tx()
        assert all(m.page_owned)

    def test_alloc_and_free_are_undone(self):
        m = mem()
        keep = m.malloc(3)
        m.store(keep, 7.5)
        before = _world_hash(m)
        m.begin_tx()
        m.free(keep)
        p = m.malloc(8)
        m.store(p, 1)
        s = m.stack_alloc(5)
        m.store(s, 2)
        m.rollback_tx()
        assert _world_hash(m) == before
        assert m.load(keep) == 7.5

    def test_restore_during_tx_raises(self):
        m = mem()
        state = m.snapshot_state()
        m.begin_tx()
        with pytest.raises(RuntimeError):
            m.restore_state(state)
        m.rollback_tx()
        m.restore_state(state)  # fine once the tx is closed

    def test_nested_begin_raises(self):
        m = mem()
        m.begin_tx()
        with pytest.raises(RuntimeError):
            m.begin_tx()
        m.rollback_tx()

    def test_rollback_without_tx_raises(self):
        with pytest.raises(RuntimeError):
            mem().rollback_tx()

    def test_page_words_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            ProcessMemory(capacity=1024, stack_words=256, page_words=100)
        with pytest.raises(ValueError):
            ProcessMemory(capacity=1024, stack_words=256, page_words=0)


# ----------------------------------------------------------------------
# One word is one Python object: its type and bits are the word's
# ----------------------------------------------------------------------
def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: a NaN whose payload a float64 round-trip must not canonicalise
NAN_PAYLOAD = _from_bits(0x7FF8DEAD0000BEEF)
#: (word, a different word that compares equal to it or is also NaN)
TWINS = [(0, 0.0), (0.0, -0.0), (1, 1.0), (NAN_PAYLOAD, float("nan")),
         (-2 ** 63, -2.0 ** 63), (2 ** 53, 2.0 ** 53)]
WORDS = [w for pair in TWINS for w in pair]


def exact(v):
    """A word's whole identity: its type, and a float's bits."""
    return (type(v), struct.pack("<d", v) if type(v) is float else v)


def exact_all(values):
    return [exact(v) for v in values]


class TestWordTypes:
    def test_twins_differ_only_in_type_or_bits(self):
        for a, b in TWINS:
            assert a == b or (a != a and b != b)
            assert exact(a) != exact(b)

    def test_store_then_load(self):
        m = mem()
        a = m.stack_alloc(len(WORDS))
        for i, w in enumerate(WORDS):
            m.store(a + i, w)
        assert exact_all(m.load(a + i) for i in range(len(WORDS))) \
            == exact_all(WORDS)

    def test_block_transfer(self):
        src, dst = mem(), mem()
        a = src.stack_alloc(len(WORDS))
        src.write_block(a, WORDS)  # a mixed block, as an MPI payload is
        b = dst.malloc(len(WORDS))
        dst.write_block(b, src.read_block(a, len(WORDS)))
        assert exact_all(dst.read_block(b, len(WORDS))) == exact_all(WORDS)
        # the block is a copy in both directions
        got = dst.read_block(b, 2)
        got[0] = 99
        assert exact(dst.load(b)) == exact(WORDS[0])

    def test_cow_rollback(self):
        m = mem()
        a = m.malloc(len(TWINS))
        for i, (w, _) in enumerate(TWINS):
            m.store(a + i, w)
        m.begin_tx()
        for i, (_, twin) in enumerate(TWINS):
            m.store(a + i, twin)
        assert exact_all(m.read_block(a, len(TWINS))) \
            == exact_all(t for _, t in TWINS)
        m.rollback_tx()
        assert exact_all(m.read_block(a, len(TWINS))) \
            == exact_all(w for w, _ in TWINS)

    @pytest.mark.parametrize("dirty", [False, True])
    def test_snapshot_then_restore(self, dirty):
        src = mem()
        s = src.stack_alloc(len(WORDS))
        src.write_block(s, WORDS)
        h = src.malloc(len(WORDS))
        src.write_block(h, WORDS[::-1])
        state = src.snapshot_state()
        tgt = mem()
        if dirty:  # every word currently holds its twin
            tgt.write_block(tgt.stack_alloc(len(WORDS)),
                            [t for pair in TWINS for t in pair[::-1]])
        tgt.restore_state(state)
        assert exact_all(tgt.read_block(s, len(WORDS))) == exact_all(WORDS)
        assert exact_all(tgt.read_block(h, len(WORDS))) \
            == exact_all(WORDS[::-1])

    def test_snapshot_is_immutable_and_value_determined(self):
        # the same words held by different objects: one float object
        # stored twice against two equal ones, a cached small int
        # against a computed one
        a, b = mem(), mem()
        pa, pb = a.malloc(4), b.malloc(4)
        shared = 1.5
        a.write_block(pa, [shared, shared, 10 ** 12, 7])
        b.write_block(pb, [0.5 * 3, 3.0 / 2, int("1" + "0" * 12), 3 + 4])
        assert a.snapshot_state() == b.snapshot_state()
        state = a.snapshot_state()
        a.store(pa, 2.5)
        a.restore_state(state)
        assert exact(a.load(pa)) == exact(1.5)


class TestCellsCoverValid:
    """``cells`` grows with the heap; wherever ``valid`` is set there is
    a cell (the one-directional invariant every unchecked index into
    ``cells`` after a validity test relies on)."""

    @staticmethod
    def holds(m):
        return m.valid.rfind(1) < len(m.cells) <= m.capacity

    def test_starts_at_the_stack_and_grows_in_place(self):
        m = mem(capacity=1024, stack=256)
        cells = m.cells
        assert len(cells) == 256
        p = m.malloc(40)
        assert m.cells is cells and len(cells) == 256 + 40
        m.store(p + 39, 1.25)
        assert m.load(p + 39) == 1.25
        m.free(p)
        assert m.malloc(40) == p and len(cells) == 256 + 40  # reuse
        assert len(m.words()) == m.capacity

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_holds_through_churn_rollback_and_restore(self, seed_a, seed_b):
        import random
        m = mem(capacity=2048, stack=512)
        _churn(m, random.Random(seed_a))
        assert self.holds(m)
        state, want = m.snapshot_state(), _world_hash(m)
        m.begin_tx()
        _churn(m, random.Random(seed_b))
        assert self.holds(m)
        m.rollback_tx()
        assert self.holds(m) and _world_hash(m) == want
        fresh = mem(capacity=2048, stack=512)
        fresh.restore_state(state)  # a rewind onto a shallower heap
        assert self.holds(fresh) and _world_hash(fresh) == want

    def test_rewind_to_a_deeper_heap(self):
        deep = mem()
        blocks = [deep.malloc(32) for _ in range(6)]
        deep.store(blocks[-1] + 31, 4.5)
        state = deep.snapshot_state()
        shallow = mem()
        cells = shallow.cells
        shallow.malloc(3)
        shallow.restore_state(state)
        assert shallow.cells is cells and self.holds(shallow)
        assert shallow.load(blocks[-1] + 31) == 4.5
        assert _world_hash(shallow) == _world_hash(deep)

    def test_out_of_range_address_never_indexes_cells(self):
        # beyond len(cells) but inside capacity: invalid, so a trap —
        # not an IndexError — and the same for a block that reaches it
        m = mem(capacity=1024, stack=256)
        a = m.stack_alloc(2)
        for addr in (256, 600, 1023):
            with pytest.raises(Trap) as exc:
                m.load(addr)
            assert exc.value.kind is TrapKind.MEM_FAULT
            with pytest.raises(Trap):
                m.store(addr, 1)
        with pytest.raises(Trap):
            m.write_block(a, [0] * 300)
