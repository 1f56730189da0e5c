"""Contamination-carrying message protocol (paper Fig. 4).

A contaminated memory location in the sender's address space lives at a
different virtual address in the receiver's address space, so raw
addresses cannot travel.  The FPM runtime therefore attaches a header to
each message: one ``(displacement, pristine value)`` record per
contaminated word, displacements being relative to the start of the send
buffer.  The receiver rebases the displacements onto its own receive
buffer and installs the pristine values into its shadow hash table.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..vm.memory import ProcessMemory
from .shadow import ShadowTable

Record = Tuple[int, object]


def build_payload(
    memory: ProcessMemory, shadow: Optional[ShadowTable], addr: int, count: int
) -> Tuple[list, List[Record]]:
    """Read a send buffer and compute its contamination header.

    Traps (-> Crashed) if the buffer range is invalid, e.g. because the
    buffer pointer or count register was corrupted.
    """
    payload = memory.read_block(addr, count)
    if shadow is None or not shadow.table:
        return payload, []
    return payload, shadow.contaminated_in(addr, count)


def apply_message(
    memory: ProcessMemory,
    shadow: Optional[ShadowTable],
    base: int,
    payload: Sequence,
    records: Sequence[Record],
    cycle: int = 0,
) -> int:
    """Deliver a message into a receive buffer, rebasing the header.

    Every delivered word overwrites the destination cell, so cells not in
    the header are *healed* (their previous contamination, if any, has
    been overwritten by clean data).  Returns the number of contaminated
    words installed.
    """
    memory.write_block(base, payload)  # copies the words in
    if shadow is None or not (records or shadow.table):
        return 0  # nothing to install and nothing to heal
    rec = dict(records)
    table = shadow.table
    installed = 0
    for i in range(len(payload)):
        a = base + i
        if i in rec:
            shadow.update(a, payload[i], rec[i], cycle)
            if a in table:
                installed += 1
        elif a in table:
            del table[a]
    return installed
