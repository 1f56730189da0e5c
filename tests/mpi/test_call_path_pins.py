"""Exact MPI semantics of the call path, pinned by value.

Each case fixes a number the rest of the suite only bounds or compares
between two configurations of the same runtime: the per-rank cycles of
a receive that blocks and of an allreduce's last arrival, FIFO first
match under wildcards, copy-on-write of a receive buffer, the fold
order of a contaminated reduction, the message counters and the shape
of a blocked call's ``pending`` state.  A rewrite of the runtime or of
the VM's call path that moves any of them changes science hashes.
"""

import pytest

from repro.core.config import RunConfig
from repro.core.runner import build_program, build_world, make_scheduler
from repro.mpi import JobStatus
from repro.vm import FaultSpec
from repro.vm.machine import MachineStatus


def _run(source, nranks, mode="blackbox", quantum=256, faults=()):
    config = RunConfig(nranks=nranks, quantum=quantum)
    program = build_program(source, mode, config=config)
    machines, runtime = build_world(program, config, faults=faults)
    result = make_scheduler(machines, runtime, config).run()
    return result, machines, runtime


BLOCKING_RECV = """
func main(rank: int, size: int) {
    var v: int[1];
    if (rank == 0) {
        var s: int = 0;
        for (var i: int = 0; i < 300; i += 1) { s += i; }
        v[0] = s;
        mpi_send(&v[0], 1, 1, 3);
    } else {
        mpi_recv(&v[0], 1, 0, 3);
        emiti(v[0]);
    }
}
"""


@pytest.mark.parametrize("quantum", [256, 7])
def test_blocked_receive_costs_one_cycle_and_reexecutes(quantum):
    # the receiver's clock stands still while it waits: 14 cycles, one
    # of them the blocked attempt, whatever the quantum
    result, _, _ = _run(BLOCKING_RECV, 2, quantum=quantum)
    assert result.status is JobStatus.COMPLETED
    assert result.rank_cycles == [3619, 14]
    assert result.outputs == [[], [44850]]


LATE_ALLREDUCE = """
func main(rank: int, size: int) {
    var s: float[1];
    var r: float[1];
    var w: int = 0;
    if (rank == LATE) {
        for (var i: int = 0; i < 200; i += 1) { w += i; }
    }
    s[0] = float(rank + w);
    mpi_allreduce(&s[0], &r[0], 1, 0);
    emit(r[0]);
}
"""


@pytest.mark.parametrize("late, cycles", [
    (0, [2427, 22, 22, 22]),
    (3, [22, 22, 22, 2427]),
])
@pytest.mark.parametrize("quantum", [256, 5])
def test_allreduce_last_arrival_cycles(late, cycles, quantum):
    result, _, _ = _run(LATE_ALLREDUCE.replace("LATE", str(late)), 4,
                        quantum=quantum)
    assert result.status is JobStatus.COMPLETED
    assert result.rank_cycles == cycles
    assert result.outputs == [[19906.0]] * 4


FIFO = """
func main(rank: int, size: int) {
    var v: int[1];
    if (rank == 0) {
        var w: int = 0;
        for (var i: int = 0; i < 400; i += 1) { w += i; }
        for (var k: int = 0; k < 4; k += 1) {
            mpi_recv(&v[0], 1, -1, -1);
            emiti(v[0]);
        }
    }
    if (rank == 1) {
        var w: int = 0;
        for (var i: int = 0; i < 40; i += 1) { w += i; }
        v[0] = 10; mpi_send(&v[0], 1, 0, 5);
        v[0] = 11; mpi_send(&v[0], 1, 0, 6);
    }
    if (rank == 2) {
        v[0] = 20; mpi_send(&v[0], 1, 0, 6);
        var w: int = 0;
        for (var i: int = 0; i < 100; i += 1) { w += i; }
        v[0] = 21; mpi_send(&v[0], 1, 0, 5);
    }
}
"""


def test_any_source_any_tag_takes_the_first_queued_message():
    # rank 2's first send lands before rank 1's two, its second after:
    # a wildcard receive takes the queue in arrival order
    result, _, _ = _run(FIFO, 3, quantum=64)
    assert result.status is JobStatus.COMPLETED
    assert result.outputs == [[20, 10, 11, 21], [], []]
    assert result.rank_cycles == [4885, 508, 1228]


TX_RECV = """
func main(rank: int, size: int) {
    if (rank == 0) {
        var b: float[600];
        for (var i: int = 0; i < 600; i += 1) { b[i] = float(i) + 0.5; }
        mpi_send(&b[0], 600, 1, 9);
    } else {
        var p: float* = malloc(600);
        p[0] = 5.0;
        p[599] = 6.0;
        var w: int = 0;
        for (var i: int = 0; i < BUSY; i += 1) { w += i; }
        mpi_recv(&p[0], 600, 0, 9);
        emit(p[0]);
        emit(p[599]);
    }
}
"""


@pytest.mark.parametrize("busy, delivered_by", [
    (0, "send"),     # the receive waits; the send delivers into it
    (2000, "recv"),  # the message waits in the queue for the receive
])
def test_receive_in_a_transaction_privatises_and_rolls_back(busy,
                                                            delivered_by):
    config = RunConfig(nranks=2)
    program = build_program(TX_RECV.replace("BUSY", str(busy)), "blackbox",
                            config=config)
    machines, runtime = build_world(program, config)
    sched = make_scheduler(machines, runtime, config)
    m1 = machines[1]
    epoch = 0
    while not (m1.status is MachineStatus.BLOCKED or runtime.queues[1]):
        epoch += 1
        assert sched.run(stop_at_epoch=epoch) is None
    assert (m1.status is MachineStatus.BLOCKED) == (delivered_by == "send")
    mem = m1.memory
    (base, count), = mem.heap_blocks.items()
    before = [mem.peek(base + i) for i in range(count)]
    assert before[0] == 5.0 and before[599] == 6.0

    mem.begin_tx()
    result = sched.run()
    assert result.status is JobStatus.COMPLETED
    assert result.outputs == [[], [0.5, 599.5]]
    pages = sorted({a >> mem.page_shift for a in range(base, base + count)})
    assert [mem.page_owned[p] for p in pages] == [1] * len(pages)
    # the receive buffer's pages and nothing else
    assert mem.tx_pages_copied == len(pages) == 3
    assert [mem.peek(base + i) for i in range(count)] == \
        [i + 0.5 for i in range(count)]
    assert mem.rollback_tx() == 3
    assert [mem.peek(base + i) for i in range(count)] == before


FOLD = """
func main(rank: int, size: int) {
    var s: float[2];
    var r: float[2];
    var v: float = 1.0;
    if (rank == 0) { v = 10000000000000000.0; }
    if (rank == 3) { v = -10000000000000000.0; }
    s[0] = v * 1.0;
    s[1] = float(rank) + 0.25;
    mpi_allreduce(&s[0], &r[0], 2, 0);
    emit(r[0]);
    emit(r[1]);
}
"""


@pytest.mark.parametrize("rank, primary, own", [
    # only the last rank contaminated: the pristine fold still starts
    # from ranks 0-2's primary values, ((1e16 + 1) + 1) - 1e16 == 0.0
    (3, -4.0, (1, -1e16)),
    # only the first rank contaminated
    (0, 4.0, (1, 1e16)),
])
def test_contaminated_allreduce_folds_in_rank_order(rank, primary, own):
    result, machines, runtime = _run(
        FOLD, 4, mode="fpm",
        faults=[FaultSpec(rank, 1, bit=1, operand=0)])
    assert result.status is JobStatus.COMPLETED
    assert result.outputs == [[primary, 7.0]] * 4
    assert result.ever_contaminated == [True] * 4
    # r[0]'s pristine value is the fault-free sum; the flipped rank also
    # keeps its own contaminated contribution s[0]
    for m in machines:
        expect = [(3, 0.0)] if m.rank != rank else [own, (3, 0.0)]
        assert sorted(m.fpm.table.items()) == expect
    assert runtime.messages_sent == 0  # collectives are not messages


def test_clean_allreduce_installs_no_header():
    result, machines, _ = _run(FOLD, 4, mode="fpm")
    assert result.outputs == [[0.0, 7.0]] * 4
    assert result.ever_contaminated == [False] * 4
    assert all(not m.fpm.table for m in machines)


MIXED = """
func main(rank: int, size: int) {
    var v: float[4];
    for (var k: int = 0; k < 3; k += 1) {
        if (rank == 0) {
            var x: float = float(k) * 1.5;
            for (var i: int = 0; i < 4; i += 1) { v[i] = x + float(i); }
            mpi_send(&v[0], 4, 1, k);
        } else {
            mpi_recv(&v[0], 4, 0, k);
            emit(v[0] + v[1] + v[2] + v[3]);
        }
    }
}
"""


@pytest.mark.parametrize("faults, second, counters", [
    ((), 12.0, (3, 12, 0, 0)),
    # the second message carries four contaminated words; the third,
    # clean, heals the receiver's buffer
    ((FaultSpec(0, 17, bit=40, operand=0),), 12.00146484375, (3, 12, 1, 4)),
])
def test_counters_after_mixed_exchange(faults, second, counters):
    result, machines, runtime = _run(MIXED, 2, mode="fpm", faults=faults)
    assert result.status is JobStatus.COMPLETED
    assert result.outputs == [[], [6.0, second, 18.0]]
    assert (runtime.messages_sent, runtime.words_sent,
            runtime.contaminated_messages,
            runtime.contaminated_words_sent) == counters
    assert result.ever_contaminated == [bool(faults)] * 2
    assert all(not m.fpm.table for m in machines)


def test_pending_state_shape():
    """Fingerprints digest ``pending`` through ``ExecutionState``."""
    source = """
func main(rank: int, size: int) {
    var v: int[2];
    if (rank == 0) { mpi_recv(&v[0], 2, 1, 4); }
    if (rank == 1) { mpi_barrier(); }
}
"""
    config = RunConfig(nranks=2)
    program = build_program(source, "blackbox", config=config)
    machines, runtime = build_world(program, config)
    result = make_scheduler(machines, runtime, config).run()
    assert result.status is JobStatus.DEADLOCK
    recv, coll = (m.execution_state(None).pending for m in machines)
    assert [k for k, _ in recv] == ["buf", "count", "done", "kind", "src",
                                    "tag"]
    assert dict(recv)["kind"] == "recv" and dict(recv)["done"] is False
    assert (dict(recv)["count"], dict(recv)["src"], dict(recv)["tag"]) \
        == (2, 1, 4)
    assert coll == (("done", False), ("kind", "coll"))
