"""Word-addressed process memory: one word is one Python object.

One address holds one 64-bit value (Python ``int`` or ``float``) — the
paper's unit of contamination is one *memory location*, and this memory
model makes ``len(shadow table)`` exactly the paper's CML count.

Representation: one ``cells`` list of native ``int``/``float`` objects
beside a ``valid`` bytearray.  A load is one list index and a store one
list assignment; the object's own type is the word's type, so ``0`` and
``0.0`` (equal, but distinct values) stay distinct through every copy.
``valid`` spans the whole address space; ``cells`` starts at the stack
region and grows with the heap (``valid[a]`` implies ``a < len(cells)``)
— always in place, so a reference bound by generated code stays live.

Layout::

    0                                  stack_words              capacity
    | null | <- stack grows up ... --> | <- heap bump alloc --> |

Address 0 is reserved so that a null pointer always faults.  Every access
is validity-checked; corrupted pointers therefore produce the paper's
dominant crash cause ("bit flips in pointers that cause the applications
to access a part of the address space that has not been allocated").
"""

from __future__ import annotations

import pickle
from typing import Dict, List, Optional, Tuple

from .traps import Trap, TrapKind

#: copy-on-write page size, in 64-bit words (a power of two)
DEFAULT_PAGE_WORDS = 256


class ProcessMemory:
    """Flat, validity-checked, word-addressed memory for one process.

    ``cells``/``valid`` double as a forkable world segment:
    :meth:`begin_tx` opens a page-granular copy-on-write transaction
    during which every write path saves the pristine content of the
    first page it touches, and :meth:`rollback_tx` restores exactly
    those pages — O(pages touched), not O(capacity).  Outside a
    transaction ``page_owned`` is all-ones, so the per-store guard is a
    single bytearray index.
    """

    __slots__ = (
        "capacity",
        "stack_words",
        "cells",
        "valid",
        "sp",
        "sp_peak",
        "hp",
        "heap_blocks",
        "free_lists",
        "live_words",
        "rank",
        "page_shift",
        "page_owned",
        "_tx",
        "_tx_meta",
    )

    def __init__(self, capacity: int = 1 << 16, stack_words: int = 1 << 14,
                 rank: int = 0, page_words: int = DEFAULT_PAGE_WORDS) -> None:
        if stack_words >= capacity:
            raise ValueError("stack region must be smaller than total capacity")
        self.capacity = capacity
        self.stack_words = stack_words
        #: covers the stack; the heap paths extend it (:meth:`_grow`)
        self.cells: list = [0] * stack_words
        self.valid = bytearray(capacity)
        self.sp = 1  # address 0 is the null word
        #: stack high-water mark since the last restore — together with
        #: the monotone heap bump pointer it bounds every word this run
        #: could have dirtied, which is what makes in-place restores
        #: proportional to touched state rather than capacity
        self.sp_peak = 1
        self.hp = stack_words
        #: heap block base -> size, for free() and validity bookkeeping
        self.heap_blocks: Dict[int, int] = {}
        #: exact-size free lists for simple reuse
        self.free_lists: Dict[int, List[int]] = {}
        self.live_words = 0
        self.rank = rank
        if page_words <= 0 or page_words & (page_words - 1):
            raise ValueError(f"page_words must be a power of two, "
                             f"got {page_words}")
        self.page_shift = page_words.bit_length() - 1
        npages = (capacity + page_words - 1) >> self.page_shift
        #: 1 = this trial may write the page directly; all-ones outside
        #: a transaction, cleared by :meth:`begin_tx`
        self.page_owned = bytearray(b"\x01" * npages)
        #: active transaction: {page index: (cells, valid)}
        self._tx: Optional[Dict[int, tuple]] = None
        self._tx_meta: Optional[tuple] = None

    def _grow(self, upto: int) -> None:
        """Make ``cells`` cover ``[0, upto)`` before any of it turns
        valid.  ``extend`` keeps the list object, so regions that bound
        ``cells`` at entry see the new words."""
        short = upto - len(self.cells)
        if short > 0:
            self.cells.extend([0] * short)

    # ------------------------------------------------------------------
    # Raw access (hot path: machine closures may bypass via direct fields)
    # ------------------------------------------------------------------
    def peek(self, addr: int):
        """Read without validity checks (tests, fingerprints)."""
        return self.cells[addr]

    def poke(self, addr: int, value) -> None:
        """Write without validity/COW checks: the caller has performed
        its own guards."""
        self.cells[addr] = value

    def load(self, addr: int):
        if 0 <= addr < self.capacity and self.valid[addr]:
            return self.cells[addr]
        raise Trap(TrapKind.MEM_FAULT, f"load from invalid address {addr}",
                   rank=self.rank)

    def store(self, addr: int, value) -> None:
        if 0 <= addr < self.capacity and self.valid[addr]:
            if not self.page_owned[addr >> self.page_shift]:
                self.cow_page(addr)
            self.cells[addr] = value
            return
        raise Trap(TrapKind.MEM_FAULT, f"store to invalid address {addr}",
                   rank=self.rank)

    def check_range(self, addr: int, count: int) -> None:
        """Trap unless ``[addr, addr+count)`` is fully valid."""
        if count < 0:
            raise Trap(TrapKind.MEM_FAULT, f"negative range length {count}",
                       rank=self.rank)
        if addr < 0 or addr + count > self.capacity:
            raise Trap(TrapKind.MEM_FAULT,
                       f"range [{addr}, {addr + count}) out of bounds",
                       rank=self.rank)
        # One C-speed scan for the first invalid byte; valid bytes are
        # always 0 or 1, so find(0) is exact and allocation-free.  This
        # runs on every block MPI transfer.
        bad = self.valid.find(0, addr, addr + count)
        if bad >= 0:
            raise Trap(TrapKind.MEM_FAULT,
                       f"access to unallocated address {bad}", rank=self.rank)

    def words(self) -> List:
        """Every word of the address space (tests, debugging)."""
        return self.cells + [0] * (self.capacity - len(self.cells))

    def read_block(self, addr: int, count: int) -> List:
        self.check_range(addr, count)
        return self.cells[addr:addr + count]

    def write_block(self, addr: int, values: List) -> None:
        n = len(values)
        self.check_range(addr, n)
        if self._tx is not None:
            self._cow_range(addr, addr + n)
        self.cells[addr:addr + n] = values

    # ------------------------------------------------------------------
    # Copy-on-write transactions (fork-at-injection trial execution)
    # ------------------------------------------------------------------
    def begin_tx(self) -> None:
        """Open a COW transaction: from now on every write path saves
        the pristine content of the first page it touches, so
        :meth:`rollback_tx` can undo the trial in O(pages touched).
        Allocator metadata (``sp``/``hp``/block tables) is saved whole —
        it is small and mutates on almost every call frame anyway.
        """
        if self._tx is not None:
            raise RuntimeError("COW transaction already active")
        self._tx = {}
        self._tx_meta = (
            self.sp, self.sp_peak, self.hp,
            dict(self.heap_blocks),
            {size: list(b) for size, b in self.free_lists.items()},
            self.live_words,
        )
        self.page_owned[:] = b"\x00" * len(self.page_owned)

    def cow_page(self, addr: int) -> int:
        """Save the pristine page containing ``addr`` (first write in an
        active transaction) and mark it owned.  Returns truthy so the
        compiled store guard can use it in an ``or`` chain."""
        pg = addr >> self.page_shift
        if not self.page_owned[pg]:
            lo = pg << self.page_shift
            hi = lo + (1 << self.page_shift)
            # short (or empty) where the page reaches past ``cells``:
            # nothing valid lies there, and rollback re-invalidates it
            self._tx[pg] = (self.cells[lo:hi], bytes(self.valid[lo:hi]))
            self.page_owned[pg] = 1
        return 1

    def _cow_range(self, lo: int, hi: int) -> None:
        """Save every not-yet-owned page overlapping ``[lo, hi)``."""
        if hi <= lo:
            return
        psh = self.page_shift
        owned = self.page_owned
        for pg in range((lo >> psh), ((hi - 1) >> psh) + 1):
            if not owned[pg]:
                self.cow_page(pg << psh)

    @property
    def tx_pages_copied(self) -> int:
        """Pages privatised so far by the active transaction (0 outside)."""
        return len(self._tx) if self._tx is not None else 0

    def rollback_tx(self) -> int:
        """Undo every write since :meth:`begin_tx`; returns the number
        of pages that had to be restored."""
        tx = self._tx
        if tx is None:
            raise RuntimeError("no COW transaction to roll back")
        cells = self.cells
        valid = self.valid
        psh = self.page_shift
        for pg, (cell_page, valid_page) in tx.items():
            lo = pg << psh
            cells[lo:lo + len(cell_page)] = cell_page
            valid[lo:lo + len(valid_page)] = valid_page
        (self.sp, self.sp_peak, self.hp, self.heap_blocks,
         self.free_lists, self.live_words) = self._tx_meta
        self._tx = None
        self._tx_meta = None
        self.page_owned[:] = b"\x01" * len(self.page_owned)
        return len(tx)

    # ------------------------------------------------------------------
    # Stack
    # ------------------------------------------------------------------
    def stack_alloc(self, count: int) -> int:
        addr = self.sp
        new_sp = addr + count
        if new_sp > self.stack_words:
            raise Trap(TrapKind.STACK_OVERFLOW,
                       f"stack needs {new_sp} words, limit {self.stack_words}",
                       rank=self.rank)
        if self._tx is not None:
            self._cow_range(addr, new_sp)
        self.cells[addr:new_sp] = [0] * count
        self.valid[addr:new_sp] = b"\x01" * count
        self.sp = new_sp
        if new_sp > self.sp_peak:
            self.sp_peak = new_sp
        self.live_words += count
        return addr

    def stack_release(self, to_sp: int) -> Tuple[int, int]:
        """Pop the stack back to ``to_sp``; returns the freed range."""
        lo, hi = to_sp, self.sp
        if lo < hi:
            if self._tx is not None:
                self._cow_range(lo, hi)
            self.valid[lo:hi] = b"\x00" * (hi - lo)
            self.live_words -= hi - lo
            self.sp = lo
        return lo, hi

    # ------------------------------------------------------------------
    # Heap
    # ------------------------------------------------------------------
    def malloc(self, count: int) -> int:
        if count <= 0:
            raise Trap(TrapKind.ARITH, f"malloc of non-positive size {count}",
                       rank=self.rank)
        bucket = self.free_lists.get(count)
        if bucket:
            addr = bucket.pop()
        else:
            addr = self.hp
            if addr + count > self.capacity:
                raise Trap(TrapKind.OOM,
                           f"heap needs {addr + count} words, capacity "
                           f"{self.capacity}", rank=self.rank)
            self.hp = addr + count
        if self._tx is not None:
            self._cow_range(addr, addr + count)
        self._grow(addr + count)
        self.cells[addr:addr + count] = [0] * count
        self.valid[addr:addr + count] = b"\x01" * count
        self.heap_blocks[addr] = count
        self.live_words += count
        return addr

    def free(self, addr: int) -> Tuple[int, int]:
        """Free a heap block; returns the freed range for shadow purging."""
        count = self.heap_blocks.pop(addr, None)
        if count is None:
            raise Trap(TrapKind.MEM_FAULT, f"free of invalid pointer {addr}",
                       rank=self.rank)
        if self._tx is not None:
            self._cow_range(addr, addr + count)
        self.valid[addr:addr + count] = b"\x00" * count
        self.live_words -= count
        self.free_lists.setdefault(count, []).append(addr)
        return addr, addr + count

    # ------------------------------------------------------------------
    # Snapshot fast-forward support
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        """Capture a sparse, immutable copy of all *observable* memory.

        Only live words are copied — the stack ``[1, sp)`` (contiguously
        valid by construction), then each live heap block — and they are
        kept as one pickled blob: a snapshot is read only when the
        golden cursor rewinds, and a tuple of boxed floats would hold
        32 bytes per word resident until then.  Invalid cells retain
        stale garbage in a live process, but every access path is
        validity-checked, so not restoring them is observationally
        exact — and keeps per-snapshot cost proportional to live state,
        not capacity.
        """
        cells = self.cells
        blocks = tuple(self.heap_blocks.items())
        words = cells[1:self.sp]
        for base, size in blocks:
            words += cells[base:base + size]
        return (
            self.sp,
            self.hp,
            blocks,
            pickle.dumps(words),
            {size: list(bucket) for size, bucket in self.free_lists.items()},
            self.live_words,
        )

    def restore_state(self, state: tuple) -> None:
        """Reset this memory to a state captured by :meth:`snapshot_state`.

        In place, dirty-delta: only the validity bytes this run could
        have dirtied are wiped — the stack up to its high-water mark and
        the heap up to the bump pointer (``hp`` is monotone between
        restores; free-list reuse never lowers it) — and the snapshot
        content is overlaid as bulk slice copies.  Cells left under
        ``valid == 0`` may keep stale values.  On a fresh memory both
        wipes are empty and the restore is a pure overlay.
        """
        if self._tx is not None:
            raise RuntimeError("cannot restore during a COW transaction")
        sp, hp, blocks, blob, free_lists, live_words = state
        cells = self.cells
        valid = self.valid
        if self.sp_peak > 1:
            valid[1:self.sp_peak] = b"\x00" * (self.sp_peak - 1)
        if self.hp > self.stack_words:
            valid[self.stack_words:self.hp] = \
                b"\x00" * (self.hp - self.stack_words)
        self._grow(hp)  # the snapshot's heap may be the deeper one
        words = pickle.loads(blob)
        cells[1:sp] = words[:sp - 1]
        valid[1:sp] = b"\x01" * (sp - 1)
        at = sp - 1
        for base, size in blocks:
            cells[base:base + size] = words[at:at + size]
            valid[base:base + size] = b"\x01" * size
            at += size
        self.sp = sp
        self.sp_peak = sp
        self.hp = hp
        self.heap_blocks = dict(blocks)
        self.free_lists = {size: list(b) for size, b in free_lists.items()}
        self.live_words = live_words
