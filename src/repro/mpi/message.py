"""Messages exchanged between simulated MPI processes."""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

#: Source/tag wildcard, mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
ANY = -1


class Message(NamedTuple):
    """One point-to-point message, including its FPM contamination header.

    ``records`` is the paper's Fig. 4 extra header: one
    ``(displacement, pristine value)`` pair per contaminated word of the
    payload.  An empty list means the message carries only clean data.
    A tuple, so the runtime's send path builds one without a frame.
    """

    src: int
    dest: int
    tag: int
    payload: list
    records: List[Tuple[int, object]] = []
    #: virtual time at which the send executed (for message-log analysis)
    sent_at: int = 0
