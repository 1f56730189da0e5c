"""The FPM runtime hash table of contaminated memory locations.

Paper Sec. 3.2: "the pristine values associated with corrupted memory
locations are stored in a hash-table structure in the FPM runtime."
``len(table)`` is the paper's CML (corrupted memory locations) count for
one process; entries map address -> pristine value, i.e. the value the
location would hold in a fault-free execution along the current control
path.
"""

from __future__ import annotations

import math
from typing import Dict, ItemsView, List, Optional, Tuple


def same_value(a, b) -> bool:
    """Value equality used by fpm_store: NaN is equal to NaN.

    Two NaN results mean the primary and pristine chains agree, so the
    location must not be flagged contaminated.
    """
    if a == b:
        return True
    try:
        return math.isnan(a) and math.isnan(b)
    except TypeError:
        return False


class ShadowTable:
    """Per-process contamination map: address -> pristine value."""

    __slots__ = ("table", "ever_contaminated_count", "first_contamination_cycle",
                 "_lo", "_hi")

    def __init__(self) -> None:
        self.table: Dict[int, object] = {}
        #: number of record() calls that introduced a *new* address — used
        #: to distinguish Vanished (never any contamination) from ONA.
        self.ever_contaminated_count = 0
        #: cycle of the first contamination event, or None.
        self.first_contamination_cycle: Optional[int] = None
        #: conservative address bounds of the live entries: every entry
        #: lies in ``[_lo, _hi)``.  Bounds only grow on record() and reset
        #: when the table empties, so a disjointness test is always sound
        #: — it lets purge_range()/contaminated_in() skip table scans for
        #: ranges that cannot intersect (the common case: most stack
        #: frames and heap blocks die clean).
        self._lo = 0
        self._hi = 0

    def __len__(self) -> int:
        return len(self.table)

    def __contains__(self, addr: int) -> bool:
        return addr in self.table

    def items(self) -> ItemsView[int, object]:
        return self.table.items()

    def pristine(self, addr: int, current):
        """The pristine value of ``addr`` given its current memory value."""
        return self.table.get(addr, current)

    def record(self, addr: int, pristine, cycle: int = 0) -> None:
        """Mark ``addr`` contaminated, remembering its pristine value."""
        if addr not in self.table:
            self.ever_contaminated_count += 1
            if self.first_contamination_cycle is None:
                self.first_contamination_cycle = cycle
            if not self.table:
                self._lo = addr
                self._hi = addr + 1
            elif addr < self._lo:
                self._lo = addr
            elif addr >= self._hi:
                self._hi = addr + 1
        self.table[addr] = pristine

    def heal(self, addr: int) -> None:
        """A store made primary == pristine again: location is clean."""
        self.table.pop(addr, None)

    def update(self, addr: int, value, pristine, cycle: int = 0) -> None:
        """Post-store bookkeeping: record or heal based on value equality."""
        if same_value(value, pristine):
            if addr in self.table:
                del self.table[addr]
        else:
            self.record(addr, pristine, cycle)

    def purge_range(self, lo: int, hi: int) -> int:
        """Drop entries in ``[lo, hi)`` (freed stack frames / heap blocks).

        Deallocated words are no longer part of the application state, so
        they must not inflate the CML count.  Called on *every* function
        return and heap free, so the empty and disjoint cases exit before
        touching the table; when the range is narrower than the table,
        the range is probed instead of scanning every entry.
        """
        table = self.table
        if not table or hi <= self._lo or lo >= self._hi:
            return 0
        lo = max(lo, self._lo)
        hi = min(hi, self._hi)
        if hi - lo < len(table):
            doomed = [a for a in range(lo, hi) if a in table]
        else:
            doomed = [a for a in table if lo <= a < hi]
        for a in doomed:
            del table[a]
        return len(doomed)

    def contaminated_in(self, addr: int, count: int) -> List[Tuple[int, object]]:
        """(displacement, pristine) records for a buffer — the Fig. 4 header."""
        table = self.table
        if not table or addr + count <= self._lo or addr >= self._hi:
            return []
        if len(table) < count:
            return sorted(
                (a - addr, p) for a, p in table.items() if addr <= a < addr + count
            )
        return [(i, table[addr + i]) for i in range(count) if addr + i in table]

    @property
    def ever_contaminated(self) -> bool:
        return self.ever_contaminated_count > 0

    # ------------------------------------------------------------------
    # Snapshot fast-forward support
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        """Immutable copy of the contamination state for world snapshots."""
        return (
            dict(self.table),
            self.ever_contaminated_count,
            self.first_contamination_cycle,
        )

    def restore_state(self, state: tuple) -> None:
        """Reset to a state captured by :meth:`snapshot_state`."""
        table, count, first = state
        self.table = dict(table)
        self.ever_contaminated_count = count
        self.first_contamination_cycle = first
        self._reset_bounds()

    def _reset_bounds(self) -> None:
        """Recompute the address bounds (restore paths only — O(n)).
        Also the re-synchronisation point for callers that replace
        ``table`` wholesale (checkpoint restore)."""
        if self.table:
            self._lo = min(self.table)
            self._hi = max(self.table) + 1
        else:
            self._lo = 0
            self._hi = 0
