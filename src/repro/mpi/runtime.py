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

from typing import Dict, List, Optional, Sequence

from ..fpm.protocol import apply_message, build_payload
from ..fpm.shadow import same_value
from ..fpm.taint import TaintTable
from ..obs import runtime as _obs
from ..vm.intrinsics import MPI_OP_MAX, MPI_OP_MIN, MPI_OP_SUM
from ..vm.traps import Trap, TrapKind
from .message import ANY, Message


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

    @property
    def size(self) -> int:
        return len(self.machines)

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
    def send(self, m, buf: int, count: int, dest: int, tag: int) -> None:
        if not 0 <= dest < self.size:
            raise Trap(TrapKind.MPI, f"send to invalid rank {dest}", rank=m.rank)
        if count < 0:
            raise Trap(TrapKind.MPI, f"send with negative count {count}", rank=m.rank)
        payload, records = build_payload(m.memory, m.fpm, buf, count)
        msg = Message(m.rank, dest, tag, payload, records, sent_at=m.cycles)
        self.messages_sent += 1
        self.words_sent += count
        if records:
            self.contaminated_messages += 1
            self.contaminated_words_sent += len(records)
            if _obs._CURRENT is not None:
                _obs.emit("mpi_send_contaminated", src=m.rank, dest=dest,
                          words=len(records), cycle=m.cycles)

        dm = self.machines[dest]
        pending = dm.pending
        if (
            pending is not None
            and pending.get("kind") == "recv"
            and not pending.get("done")
            and msg.matches(pending["src"], pending["tag"])
        ):
            self._deliver(msg, dm, pending["buf"], pending["count"])
            pending["done"] = True
            dm.wake()
        else:
            self.queues[dest].append(msg)

    def recv(self, m, buf: int, count: int, src: int, tag: int) -> bool:
        """Returns True when the receive completed, False to block."""
        pending = m.pending
        if pending is not None:
            if pending.get("done"):
                m.pending = None
                return True
            return False
        queue = self.queues[m.rank]
        for i, msg in enumerate(queue):
            if msg.matches(src, tag):
                del queue[i]
                self._deliver(msg, m, buf, count)
                return True
        m.pending = {
            "kind": "recv", "buf": buf, "count": count,
            "src": src, "tag": tag, "done": False,
        }
        return False

    def sendrecv(self, m, args: Sequence[int]) -> bool:
        """Combined send+recv (halo exchange); send happens exactly once."""
        sbuf, scount, dest, rbuf, rcount, src, tag = args
        if m.pending is None:
            self.send(m, sbuf, scount, dest, tag)
        return self.recv(m, rbuf, rcount, src, tag)

    def _deliver(self, msg: Message, machine, buf: int, count: int) -> None:
        if msg.count > count:
            raise Trap(
                TrapKind.MPI,
                f"message truncation: {msg.count} words into {count}-word buffer",
                rank=machine.rank,
            )
        # the clock only stamps installed records: skip the max over
        # every rank for a clean message
        apply_message(
            machine.memory, machine.fpm, buf, msg.payload, msg.records,
            cycle=self.now() if msg.records else 0,
        )

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def collective(self, m, kind: str, args: tuple) -> bool:
        """Generic rendezvous; returns True when the operation completed."""
        pending = m.pending
        if pending is not None:
            if pending.get("done"):
                m.pending = None
                return True
            return False

        seq = m.coll_seq
        m.coll_seq += 1
        inst = self.collectives.get(seq)
        if inst is None:
            inst = self.collectives[seq] = {"kind": kind, "parts": {}}
        if inst["kind"] != kind:
            raise Trap(
                TrapKind.MPI,
                f"collective mismatch at sequence {seq}: "
                f"{kind} vs {inst['kind']}",
                rank=m.rank,
            )
        inst["parts"][m.rank] = (m, args)
        if len(inst["parts"]) < self.size:
            m.pending = {"kind": "coll", "done": False}
            return False

        del self.collectives[seq]
        self._execute_collective(kind, inst["parts"])
        for rank, (mm, _) in inst["parts"].items():
            if mm is not m:
                mm.pending["done"] = True
                mm.wake()
        return True

    def _execute_collective(self, kind: str, parts: Dict[int, tuple]) -> None:
        if kind == "barrier":
            return
        if kind == "bcast":
            self._do_bcast(parts)
        elif kind == "allreduce":
            self._do_reduce(parts, to_all=True)
        elif kind == "reduce":
            self._do_reduce(parts, to_all=False)
        elif kind == "allgather":
            self._do_allgather(parts)
        else:  # pragma: no cover - intrinsics constrain kinds
            raise Trap(TrapKind.MPI, f"unknown collective {kind!r}")

    def _common_int(self, parts: Dict[int, tuple], idx: int, what: str) -> int:
        values = {rank: args[idx] for rank, (mm, args) in parts.items()}
        uniq = set(values.values())
        if len(uniq) != 1:
            raise Trap(
                TrapKind.MPI,
                f"collective {what} mismatch across ranks: {sorted(uniq)}",
            )
        return uniq.pop()

    def _do_bcast(self, parts: Dict[int, tuple]) -> None:
        # args = (buf, count, root)
        count = self._common_int(parts, 1, "count")
        root = self._common_int(parts, 2, "root")
        if not 0 <= root < self.size:
            raise Trap(TrapKind.MPI, f"bcast with invalid root {root}")
        rm, rargs = parts[root]
        payload, records = build_payload(rm.memory, rm.fpm, rargs[0], count)
        t = self.now()
        for rank, (mm, args) in parts.items():
            if rank == root:
                continue
            apply_message(mm.memory, mm.fpm, args[0], payload, records, cycle=t)

    def _reduce_fn(self, op: int):
        if op == MPI_OP_SUM:
            return lambda a, b: a + b
        if op == MPI_OP_MIN:
            return lambda a, b: b if b < a else a
        if op == MPI_OP_MAX:
            return lambda a, b: b if b > a else a
        raise Trap(TrapKind.MPI, f"unknown reduction op {op}")

    def _do_reduce(self, parts: Dict[int, tuple], to_all: bool) -> None:
        # allreduce args = (sbuf, rbuf, count, op); reduce adds root at [4].
        count = self._common_int(parts, 2, "count")
        op = self._common_int(parts, 3, "op")
        root = None
        if not to_all:
            root = self._common_int(parts, 4, "root")
            if not 0 <= root < self.size:
                raise Trap(TrapKind.MPI, f"reduce with invalid root {root}")
        fn = self._reduce_fn(op)

        if any(isinstance(mm.fpm, TaintTable) for mm, _ in parts.values()):
            self._do_reduce_taint(parts, to_all, root, count, fn)
            return

        primary = None
        pristine = None
        for rank in sorted(parts):
            mm, args = parts[rank]
            vals = mm.memory.read_block(args[0], count)
            if mm.fpm is not None and mm.fpm.table:
                pvals = [mm.fpm.pristine(args[0] + i, v) for i, v in enumerate(vals)]
            else:
                pvals = vals
            if primary is None:
                primary = list(vals)
                pristine = list(pvals)
            else:
                primary = [fn(a, b) for a, b in zip(primary, vals)]
                pristine = [fn(a, b) for a, b in zip(pristine, pvals)]

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
        t = self.now()
        targets = parts.items() if to_all else [(root, parts[root])]
        for rank, (mm, args) in targets:
            mm.memory.check_range(args[1], len(values))  # MEM_FAULT first
            if wide:
                raise OverflowError(f"reduction result {wide[0]} exceeds int64")
            apply_message(mm.memory, mm.fpm, args[1], values, records, cycle=t)

    def _do_reduce_taint(self, parts, to_all, root, count, fn) -> None:
        """Taint-mode reduction: the result is tainted everywhere if any
        contribution overlaps a tainted buffer."""
        primary = None
        tainted = False
        for rank in sorted(parts):
            mm, args = parts[rank]
            vals = mm.memory.read_block(args[0], count)
            if mm.fpm is not None and mm.fpm.tainted_in(args[0], count):
                tainted = True
            if primary is None:
                primary = list(vals)
            else:
                primary = [fn(a, b) for a, b in zip(primary, vals)]
        records = [(i, True) for i in range(count)] if tainted else []
        self._store_reduced(parts, to_all, root, primary, records)

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
