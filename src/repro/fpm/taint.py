"""Naive taint tracking — the baseline the paper argues against.

Paper Sec. 3: "the general assumption that the output of an instruction
becomes corrupted, i.e., a fault propagates, if at least one of the
inputs is corrupted could lead to large overestimation of the number of
corrupted memory locations."

This table implements exactly that assumption: a memory location is
"corrupted" when the last value stored to it was *derived from* the
fault, regardless of whether the value actually differs from the
fault-free one.  Comparing its CML counts against the dual-chain's exact
counts quantifies the overestimation.
"""

from __future__ import annotations

from .shadow import ShadowTable


class TaintTable(ShadowTable):
    """Contamination map where "pristine values" are just taint marks.

    API-compatible with :class:`~repro.fpm.shadow.ShadowTable` so the
    tracker, protocol and campaign layers work unchanged; entries map
    address -> True.
    """

    def record(self, addr: int, pristine=True, cycle: int = 0) -> None:
        super().record(addr, True, cycle)

    def update(self, addr: int, value, pristine, cycle: int = 0) -> None:
        """Store bookkeeping: ``pristine`` is the taint of the stored value."""
        if pristine:
            self.record(addr, True, cycle)
        elif addr in self.table:
            del self.table[addr]

    def tainted_in(self, addr: int, count: int) -> bool:
        """Any tainted word in the buffer?"""
        table = self.table
        if not table or addr + count <= self._lo or addr >= self._hi:
            return False
        if len(table) < count:
            return any(addr <= a < addr + count for a in table)
        return any(addr + i in table for i in range(count))

    # ------------------------------------------------------------------
    # Snapshot fast-forward support: taint entries are all ``True`` marks,
    # so a snapshot only needs the key set, not a value copy.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        return (
            tuple(self.table),
            self.ever_contaminated_count,
            self.first_contamination_cycle,
        )

    def restore_state(self, state: tuple) -> None:
        keys, count, first = state
        self.table = dict.fromkeys(keys, True)
        self.ever_contaminated_count = count
        self.first_contamination_cycle = first
        self._reset_bounds()
