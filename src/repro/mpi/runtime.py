"""Simulated MPI runtime: P2P messaging and collectives with FPM support.

Semantics implemented:

* **Eager buffered sends** — ``mpi_send`` never blocks (messages are
  copied into the runtime), which is how small messages behave on real
  MPI implementations and keeps pairwise exchange patterns deadlock-free.
* **Blocking receives** — ``mpi_recv`` suspends the calling machine until
  a matching message (by source and tag, with ``-1`` wildcards) arrives.
* **Collectives** — all ranks must call the same collective in the same
  per-rank sequence position; the runtime matches arrivals by a per-rank
  collective sequence number and executes the operation when the last
  rank arrives.  Mismatched kinds, roots or counts trap (-> Crashed),
  modelling MPI's undefined behaviour under corrupted arguments.

Every payload that crosses process boundaries carries the FPM
contamination header of Fig. 4 (see :mod:`repro.fpm.protocol`), so faults
propagate between ranks exactly as in the paper: *"we embed extra
information about the contaminated data in the message together with the
message itself."*
"""

from __future__ import annotations

import operator
from typing import Dict, List, Sequence

from ..fpm.protocol import apply_message, build_payload
from ..fpm.shadow import same_value
from ..fpm.taint import TaintTable
from ..obs import runtime as _obs
from ..vm.intrinsics import BLOCK, MPI_OP_MAX, MPI_OP_MIN, MPI_OP_SUM
from ..vm.machine import MachineStatus
from ..vm.traps import Trap, TrapKind
from .message import ANY, Message

#: reduction op code -> fold (``min``/``max`` keep the earlier operand)
_REDUCE_OPS = {MPI_OP_SUM: operator.add, MPI_OP_MIN: min, MPI_OP_MAX: max}

#: builds a :class:`Message` from its field tuple without a Python frame
_new_message = tuple.__new__


class MPIRuntime:
    """Shared communication state for one simulated job."""

    def __init__(self) -> None:
        self.machines: List = []
        self.queues: List[List[Message]] = []
        self.collectives: Dict[int, dict] = {}
        # Statistics for analysis/reporting.
        self.messages_sent = 0
        self.words_sent = 0
        self.contaminated_messages = 0
        self.contaminated_words_sent = 0

    def attach(self, machines: Sequence) -> None:
        self.machines = list(machines)
        self.queues = [[] for _ in self.machines]
        for m in self.machines:
            m.runtime = self

    def now(self) -> int:
        """Global virtual time: the most advanced rank's clock."""
        return max((m.cycles for m in self.machines), default=0)

    # ------------------------------------------------------------------
    # Snapshot fast-forward support
    # ------------------------------------------------------------------
    def snapshot_state(self) -> tuple:
        """Immutable copy of all in-flight communication state.

        Machines inside collective ``parts`` are recorded by rank and
        re-bound to the restoring job's machines on restore, so a
        snapshot never pins live Machine objects.
        """
        queues = tuple(
            tuple(
                (msg.src, msg.dest, msg.tag, tuple(msg.payload),
                 tuple(msg.records), msg.sent_at)
                for msg in q
            )
            for q in self.queues
        )
        collectives = tuple(
            (seq, inst["kind"],
             tuple((rank, tuple(args))
                   for rank, (_mm, args) in sorted(inst["parts"].items())))
            for seq, inst in sorted(self.collectives.items())
        )
        stats = (self.messages_sent, self.words_sent,
                 self.contaminated_messages, self.contaminated_words_sent)
        return (queues, collectives, stats)

    def restore_state(self, state: tuple) -> None:
        """Reset to a state captured by :meth:`snapshot_state`.

        Requires :meth:`attach` to have run first (collective parts are
        re-bound to ``self.machines`` by rank).
        """
        queues, collectives, stats = state
        self.queues = [
            [Message(src, dest, tag, list(payload), list(records), sent_at)
             for (src, dest, tag, payload, records, sent_at) in q]
            for q in queues
        ]
        self.collectives = {
            seq: {
                "kind": kind,
                "parts": {rank: (self.machines[rank], tuple(args))
                          for rank, args in parts},
            }
            for seq, kind, parts in collectives
        }
        (self.messages_sent, self.words_sent,
         self.contaminated_messages, self.contaminated_words_sent) = stats

    def publish_metrics(self) -> None:
        """Fold the job's message totals into an observed trial's metrics.

        Called once per job by the scheduler — :meth:`send` stays
        metric-free on the hot path.  The counters are part of the
        snapshot state, so a fast-forwarded trial reports the same
        totals (restored prefix included) as a cold run.
        """
        if _obs._CURRENT is None:
            return
        _obs.inc("repro_msgs_total", self.messages_sent)
        _obs.inc("repro_words_sent_total", self.words_sent)
        if self.contaminated_messages:
            _obs.inc("repro_msgs_contaminated_total",
                     self.contaminated_messages)
            _obs.inc("repro_contaminated_words_total",
                     self.contaminated_words_sent)

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    # The intrinsic handlers pass the raw argument list and return the
    # result: None when the call completed, ``BLOCK`` to suspend and
    # re-execute it when woken.  A clean message stays in these frames;
    # ``check_range`` is called only to raise its trap.
    def send(self, m, a):
        """``mpi_send(buf, count, dest, tag)``: eager, never blocks."""
        buf, count, dest, tag = int(a[0]), int(a[1]), int(a[2]), int(a[3])
        if not 0 <= dest < len(self.machines):
            raise Trap(TrapKind.MPI, f"send to invalid rank {dest}", rank=m.rank)
        if count < 0:
            raise Trap(TrapKind.MPI, f"send with negative count {count}", rank=m.rank)
        mem = m.memory
        end = buf + count
        if not (0 <= buf and end <= mem.capacity
                and mem.valid.find(0, buf, end) < 0):
            mem.check_range(buf, count)
        payload = mem.cells[buf:end]
        shadow = m.fpm
        self.messages_sent += 1
        self.words_sent += count
        if shadow is not None and shadow.table:
            records = shadow.contaminated_in(buf, count)
            if records:
                self.contaminated_messages += 1
                self.contaminated_words_sent += len(records)
                if _obs._CURRENT is not None:
                    _obs.emit("mpi_send_contaminated", src=m.rank, dest=dest,
                              words=len(records), cycle=m.cycles)
        else:
            records = []

        dm = self.machines[dest]
        pending = dm.pending
        if (pending is not None and pending["kind"] == "recv"
                and not pending["done"]
                and ((want := pending["src"]) == ANY or m.rank == want)
                and ((want := pending["tag"]) == ANY or tag == want)):
            self._deliver(payload, records, dm, pending["buf"],
                          pending["count"])
            pending["done"] = True
            if dm.status is MachineStatus.BLOCKED:
                dm.status = MachineStatus.READY
        else:
            self.queues[dest].append(_new_message(
                Message, (m.rank, dest, tag, payload, records, m.cycles)))

    def recv(self, m, a):
        """``mpi_recv(buf, count, src, tag)``: the first queued message
        that matches, else wait for a send to deliver one."""
        buf, count, src, tag = int(a[0]), int(a[1]), int(a[2]), int(a[3])
        pending = m.pending
        if pending is not None:
            if pending["done"]:
                m.pending = None
                return None
            return BLOCK
        queue = self.queues[m.rank]
        for i, msg in enumerate(queue):
            if (src == ANY or msg.src == src) and (tag == ANY or msg.tag == tag):
                del queue[i]
                self._deliver(msg.payload, msg.records, m, buf, count)
                return None
        m.pending = {
            "kind": "recv", "buf": buf, "count": count,
            "src": src, "tag": tag, "done": False,
        }
        return BLOCK

    def sendrecv(self, m, a):
        """Combined send+recv (halo exchange); send happens exactly once.
        ``a`` is ``(sbuf, scount, dest, rbuf, rcount, src, tag)``."""
        sbuf, scount, dest, rbuf, rcount, src, tag = [int(x) for x in a]
        if m.pending is None:
            self.send(m, (sbuf, scount, dest, tag))
        return self.recv(m, (rbuf, rcount, src, tag))

    def _deliver(self, payload: list, records: list, machine, buf: int,
                 count: int) -> None:
        n = len(payload)
        if n > count:
            raise Trap(
                TrapKind.MPI,
                f"message truncation: {n} words into {count}-word buffer",
                rank=machine.rank,
            )
        shadow = machine.fpm
        if records or (shadow is not None and shadow.table):
            # the clock only stamps installed records: skip the max over
            # every rank for a clean message
            apply_message(machine.memory, shadow, buf, payload, records,
                          cycle=self.now() if records else 0)
        else:  # nothing to install and nothing to heal
            machine.memory.write_block(buf, payload)

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def collective(self, m, kind: str, args: tuple):
        """Generic rendezvous: None when the operation completed (this
        rank arrived last, or was woken after it did), else ``BLOCK``."""
        pending = m.pending
        if pending is not None:
            if pending["done"]:
                m.pending = None
                return None
            return BLOCK

        seq = m.coll_seq
        m.coll_seq += 1
        inst = self.collectives.get(seq)
        if inst is None:
            inst = self.collectives[seq] = {"kind": kind, "parts": {}}
        elif inst["kind"] != kind:
            raise Trap(
                TrapKind.MPI,
                f"collective mismatch at sequence {seq}: "
                f"{kind} vs {inst['kind']}",
                rank=m.rank,
            )
        parts = inst["parts"]
        parts[m.rank] = (m, args)
        if len(parts) < len(self.machines):
            m.pending = {"kind": "coll", "done": False}
            return BLOCK

        del self.collectives[seq]
        if kind != "barrier":
            self._execute_collective(kind, parts)
        for mm, _ in parts.values():
            if mm is not m:
                mm.pending["done"] = True
                if mm.status is MachineStatus.BLOCKED:
                    mm.status = MachineStatus.READY
        return None

    def _execute_collective(self, kind: str, parts: Dict[int, tuple]) -> None:
        if kind == "allreduce" or kind == "reduce":
            self._do_reduce(parts, to_all=kind == "allreduce")
        elif kind == "bcast":
            self._do_bcast(parts)
        else:  # allgather: intrinsics constrain kinds
            self._do_allgather(parts)

    def _common_int(self, parts: Dict[int, tuple], idx: int, what: str) -> int:
        values = [args[idx] for _, args in parts.values()]
        if values.count(values[0]) != len(values):
            raise Trap(
                TrapKind.MPI,
                f"collective {what} mismatch across ranks: {sorted(set(values))}",
            )
        return values[0]

    def _do_bcast(self, parts: Dict[int, tuple]) -> None:
        # args = (buf, count, root)
        count = self._common_int(parts, 1, "count")
        root = self._common_int(parts, 2, "root")
        if not 0 <= root < len(self.machines):
            raise Trap(TrapKind.MPI, f"bcast with invalid root {root}")
        rm, rargs = parts[root]
        payload, records = build_payload(rm.memory, rm.fpm, rargs[0], count)
        t = self.now() if records else 0
        for rank, (mm, args) in parts.items():
            if rank == root:
                continue
            apply_message(mm.memory, mm.fpm, args[0], payload, records, cycle=t)

    def _do_reduce(self, parts: Dict[int, tuple], to_all: bool) -> None:
        # allreduce args = (sbuf, rbuf, count, op); reduce adds root at [4].
        count = self._common_int(parts, 2, "count")
        op = self._common_int(parts, 3, "op")
        root = None
        if not to_all:
            root = self._common_int(parts, 4, "root")
            if not 0 <= root < len(self.machines):
                raise Trap(TrapKind.MPI, f"reduce with invalid root {root}")
        fn = _REDUCE_OPS.get(op)
        if fn is None:
            raise Trap(TrapKind.MPI, f"unknown reduction op {op}")

        # rank order fixes the fold order (float sums are not associative)
        contribs = [parts[rank] for rank in sorted(parts)]
        inputs = []
        dirty = False
        for mm, args in contribs:
            inputs.append(mm.memory.read_block(args[0], count))
            if mm.fpm is not None and mm.fpm.table:
                dirty = True
        primary = inputs[0]
        for vals in inputs[1:]:
            primary = list(map(fn, primary, vals))
        records: list = []
        if dirty:
            # a header can only come from a rank with contamination; the
            # pristine fold still starts from rank 0, clean ranks adding
            # their primary values
            if isinstance(contribs[0][0].fpm, TaintTable):
                # the result is tainted everywhere if any contribution
                # overlaps a tainted buffer
                if any(mm.fpm.tainted_in(args[0], count)
                       for mm, args in contribs):
                    records = [(i, True) for i in range(count)]
            else:
                pristine = None
                for (mm, args), vals in zip(contribs, inputs):
                    table = mm.fpm.table if mm.fpm is not None else None
                    if table:
                        base = args[0]
                        vals = [table.get(base + i, v)
                                for i, v in enumerate(vals)]
                    pristine = vals if pristine is None \
                        else list(map(fn, pristine, vals))
                records = [
                    (i, p) for i, (v, p) in enumerate(zip(primary, pristine))
                    if not same_value(v, p)
                ]
        self._store_reduced(parts, to_all, root, primary, records)

    def _store_reduced(self, parts, to_all, root, values, records) -> None:
        """Deliver a reduction result.  Its words were computed here, not
        by the VM's wrapping ops: an int sum that left 64 bits must not
        reach memory, and crashes the job (-> ARITH) as storing it into
        a machine word would."""
        wide = [v for v in values
                if v.__class__ is int and not -2 ** 63 <= v < 2 ** 63]
        t = self.now() if records else 0
        targets = parts.items() if to_all else [(root, parts[root])]
        for rank, (mm, args) in targets:
            if wide:
                mm.memory.check_range(args[1], len(values))  # MEM_FAULT first
                raise OverflowError(f"reduction result {wide[0]} exceeds int64")
            apply_message(mm.memory, mm.fpm, args[1], values, records, cycle=t)

    def _do_allgather(self, parts: Dict[int, tuple]) -> None:
        # args = (sbuf, count, rbuf)
        count = self._common_int(parts, 1, "count")
        chunks = {}
        for rank in sorted(parts):
            mm, args = parts[rank]
            chunks[rank] = build_payload(mm.memory, mm.fpm, args[0], count)
        t = self.now()
        for rank, (mm, args) in parts.items():
            rbuf = args[2]
            for src in sorted(chunks):
                payload, records = chunks[src]
                apply_message(
                    mm.memory, mm.fpm, rbuf + src * count, payload, records,
                    cycle=t,
                )
