"""Golden-trajectory state fingerprints for convergence pruning.

The paper's outcome distributions (Fig. 6) show that a large share of
injected faults end as Vanished or ONA: the corrupted state heals long
before the application finishes.  Once a faulted trial's world state is
*bit-identical* to the golden run's state at the same scheduler epoch,
the remainder of the trial is a pure deterministic replay of the golden
tail — executing it can only reproduce what golden profiling already
recorded.  This module captures a compact per-epoch digest of the
golden world so the scheduler can detect that re-convergence and splice
in the golden finals instead of simulating the tail.

Soundness argument (the contract the equivalence suite enforces):

* The simulator is deterministic: the next state of a job is a pure
  function of (machine states, MPI runtime state, scheduler epoch).
  One instruction is one cycle, quanta are fixed, and the round-robin
  order never changes.
* The canonical form hashed here is every rank's
  :class:`~repro.vm.machine.ExecutionState` — the *complete* closure of
  state a compiled closure or the runtime can observe: per-rank status,
  cycles, iteration/output records, RNG streams, collective sequence
  numbers, pending MPI operations, the full call stack with register
  files (dual/shadow registers included — a tainted or un-healed
  register therefore blocks a match), live memory (stack + heap blocks
  + free lists, whose pop order steers future allocation), and the MPI
  queues and in-flight collectives.
* What is deliberately excluded cannot influence execution:
  reporting-only message statistics and the ranks'
  :class:`~repro.vm.machine.InstrumentationState` (injection event
  records, the spent fault plan, the shadow table).  The scheduler only consults fingerprints once
  every armed fault has fired (``inj_next == 0`` on every rank) and —
  in FPM/taint modes — once every shadow table is empty, so the
  excluded injection state is inert and an empty shadow table is
  behaviourally identical to the golden run's empty table.
* Digests are keyed by scheduler *epoch*, and per-rank cycle counts
  are part of the digest, so a match implies the trial reaches every
  future epoch boundary exactly as the golden run did — including CML
  sample times and MPI interleaving.

Hashing goes through :func:`pickle.dumps` of a canonical tuple (dicts
sorted, fresh tuples) into BLAKE2b.  The built-in ``hash()`` is not
usable here: string hashing is randomized per process
(``PYTHONHASHSEED``), and fingerprints persist inside golden artifacts
that cross process and campaign boundaries.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Dict, Optional, Sequence, Tuple

from .machine import MachineStatus

#: digest width in bytes; 128 bits keeps collision probability
#: negligible (~2**-64 across billions of comparisons) at half the
#: storage of a full BLAKE2b digest
DIGEST_SIZE = 16

#: pinned pickle protocol so digests are stable across interpreter
#: invocations that share an artifact directory
_PICKLE_PROTOCOL = 4


def _canonical_memory(mem) -> tuple:
    """Live memory only: stack words, heap blocks, free lists.

    Cells under ``valid == 0`` hold stale garbage in a live process and
    are unreachable through any access path, so they are excluded.
    ``heap_blocks`` insertion order differs between a faulted trial and
    the golden run, hence the sort; ``free_lists`` bucket order is
    semantic (``malloc`` pops from the tail) and is preserved.

    Word content goes in as plain slices of ``cells``.  Pickle writes
    an ``int`` and a ``float`` under different opcodes, a float by its
    bits (``-0.0``, NaN payloads), and memoises neither, so the digest
    is a function of the words' types and values — not of which objects
    happen to hold them.
    """
    cells = mem.cells
    sp = mem.sp
    return (
        sp,
        mem.hp,
        cells[1:sp],
        tuple(sorted(
            (base, cells[base:base + size])
            for base, size in mem.heap_blocks.items()
        )),
        tuple(sorted(
            (size, tuple(bucket))
            for size, bucket in mem.free_lists.items()
        )),
        mem.live_words,
    )


def fingerprint_world(machines: Sequence, runtime) -> bytes:
    """Digest of everything that determines the job's future execution."""
    queues, collectives, _stats = runtime.snapshot_state()
    canonical = (
        tuple(tuple(m.execution_state(_canonical_memory(m.memory)))
              for m in machines),
        queues,
        collectives,
    )
    return hashlib.blake2b(
        pickle.dumps(canonical, protocol=_PICKLE_PROTOCOL),
        digest_size=DIGEST_SIZE,
    ).digest()


def quick_signature(machines: Sequence) -> tuple:
    """Cheap scalar pre-filter evaluated before the full digest.

    A strict superset of states match this compared to the digest, so a
    mismatch here soundly rejects without pickling live memory.
    """
    return tuple(
        (m.status.value, m.cycles, m.iteration_count, len(m.outputs),
         m.rng.state, m.inj_counter, m.coll_seq,
         m.memory.sp, m.memory.hp, m.memory.live_words)
        for m in machines
    )


class FingerprintIndex:
    """Per-epoch golden fingerprints plus the golden finals to splice.

    Captured once during golden profiling at a fixed cycle stride
    (unlike :class:`~repro.vm.snapshot.SnapshotStore`, the stride never
    thins — a digest is 16 bytes, so retention is never a concern), and
    persisted inside golden artifacts so pool workers and later
    campaigns share one capture pass.
    """

    def __init__(self, stride: int) -> None:
        #: capture stride in cycles of global virtual time (0 disables)
        self.stride = max(0, int(stride))
        #: scheduler epoch -> world digest
        self.digests: Dict[int, bytes] = {}
        #: scheduler epoch -> :func:`quick_signature` tuple
        self.quick: Dict[int, tuple] = {}
        #: scheduler epoch -> trace samples recorded up to (and
        #: including) that epoch — the split point for tail splicing
        self.sample_counts: Dict[int, int] = {}
        #: scheduler epoch -> (messages, words, contaminated msgs,
        #: contaminated words) so a spliced trial reports the same
        #: message totals as a full run
        self.stats_at: Dict[int, Tuple[int, int, int, int]] = {}
        self._next_at = self.stride
        self._capturing = True
        # Golden finals, frozen by :meth:`finalize`.
        self.final_cycles = 0
        self.final_rank_cycles: Tuple[int, ...] = ()
        self.final_outputs: Tuple[tuple, ...] = ()
        self.final_iterations: Tuple[int, ...] = ()
        self.final_inj_counts: Tuple[int, ...] = ()
        self.final_stats: Tuple[int, int, int, int] = (0, 0, 0, 0)
        #: full golden trace times / live-words series (final post-loop
        #: sample included), or None for non-FPM golden runs
        self.trace_times: Optional[Tuple[int, ...]] = None
        self.trace_live: Optional[Tuple[int, ...]] = None

    @property
    def enabled(self) -> bool:
        return self.stride > 0

    def __len__(self) -> int:
        return len(self.digests)

    def maybe_capture(self, t: int, epoch: int, machines: Sequence,
                      runtime, trace) -> None:
        """Capture at the stride mark, mirroring the snapshot cadence.

        Skips all-DONE epochs for the same reason
        :meth:`SnapshotStore.maybe_capture` does: the scheduler exits
        that epoch, so no trial can ever stand at it mid-run.
        """
        if not self._capturing or self.stride <= 0 or t < self._next_at:
            return
        if all(m.status is MachineStatus.DONE for m in machines):
            return
        self.digests[epoch] = fingerprint_world(machines, runtime)
        self.quick[epoch] = quick_signature(machines)
        self.sample_counts[epoch] = (
            len(trace.times) if trace is not None else 0
        )
        self.stats_at[epoch] = (
            runtime.messages_sent, runtime.words_sent,
            runtime.contaminated_messages, runtime.contaminated_words_sent,
        )
        self._next_at = t + self.stride

    def finalize(self, machines: Sequence, runtime, trace) -> None:
        """Freeze the golden finals at the end of the profiling run."""
        self.final_cycles = max(m.cycles for m in machines)
        self.final_rank_cycles = tuple(m.cycles for m in machines)
        self.final_outputs = tuple(tuple(m.outputs) for m in machines)
        self.final_iterations = tuple(m.iteration_count for m in machines)
        self.final_inj_counts = tuple(m.inj_counter for m in machines)
        self.final_stats = (
            runtime.messages_sent, runtime.words_sent,
            runtime.contaminated_messages, runtime.contaminated_words_sent,
        )
        if trace is not None:
            self.trace_times = tuple(trace.times)
            self.trace_live = tuple(trace.live_words)
        self._capturing = False

    # ------------------------------------------------------------------
    # Golden-artifact support
    # ------------------------------------------------------------------
    def dump_state(self) -> tuple:
        """Serializable form (plain data, picklable)."""
        return (
            self.stride,
            tuple(sorted(self.digests.items())),
            tuple(sorted(self.quick.items())),
            tuple(sorted(self.sample_counts.items())),
            tuple(sorted(self.stats_at.items())),
            self.final_cycles,
            self.final_rank_cycles,
            self.final_outputs,
            self.final_iterations,
            self.final_inj_counts,
            self.final_stats,
            self.trace_times,
            self.trace_live,
        )

    @classmethod
    def load_state(cls, state: tuple) -> "FingerprintIndex":
        """Rebuild a frozen index dumped by :meth:`dump_state`."""
        idx = cls(state[0])
        idx.digests = dict(state[1])
        idx.quick = dict(state[2])
        idx.sample_counts = dict(state[3])
        idx.stats_at = dict(state[4])
        (idx.final_cycles, idx.final_rank_cycles, idx.final_outputs,
         idx.final_iterations, idx.final_inj_counts, idx.final_stats,
         idx.trace_times, idx.trace_live) = state[5:13]
        idx._capturing = False
        return idx
