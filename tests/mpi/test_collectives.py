"""Collective operations: barrier, bcast, reduce, allreduce, allgather."""

import pytest

from repro.mpi import JobStatus
from repro.vm import TrapKind
from tests.conftest import run_source


class TestBarrier:
    def test_barrier_synchronises(self):
        res = run_source("""
func main(rank: int, size: int) {
    for (var k: int = 0; k < 3; k += 1) {
        mpi_barrier();
    }
    emiti(rank);
}
""", nranks=4)
        assert res.status is JobStatus.COMPLETED


class TestBcast:
    def test_bcast_from_root(self):
        res = run_source("""
func main(rank: int, size: int) {
    var v: float[3];
    if (rank == 2) {
        v[0] = 1.5; v[1] = 2.5; v[2] = 3.5;
    }
    mpi_bcast(&v[0], 3, 2);
    emit(v[0] + v[1] + v[2]);
}
""", nranks=4)
        assert all(o == [7.5] for o in res.outputs)

    def test_root_mismatch_traps(self):
        res = run_source("""
func main(rank: int, size: int) {
    var v: float[1];
    mpi_bcast(&v[0], 1, rank % 2);   // ranks disagree on the root
}
""", nranks=4)
        assert res.status is JobStatus.TRAPPED
        assert res.trap.kind is TrapKind.MPI

    def test_count_mismatch_traps(self):
        res = run_source("""
func main(rank: int, size: int) {
    var v: float[4];
    mpi_bcast(&v[0], 1 + rank, 0);
}
""", nranks=2)
        assert res.status is JobStatus.TRAPPED


class TestReduce:
    def test_allreduce_sum(self):
        res = run_source("""
func main(rank: int, size: int) {
    var s: float[2];
    var r: float[2];
    s[0] = float(rank);
    s[1] = 1.0;
    mpi_allreduce(&s[0], &r[0], 2, 0);
    emit(r[0]); emit(r[1]);
}
""", nranks=4)
        assert all(o == [6.0, 4.0] for o in res.outputs)

    def test_allreduce_min_max(self):
        res = run_source("""
func main(rank: int, size: int) {
    var s: float[1];
    var lo: float[1];
    var hi: float[1];
    s[0] = float(rank * rank);
    mpi_allreduce(&s[0], &lo[0], 1, 1);
    mpi_allreduce(&s[0], &hi[0], 1, 2);
    emit(lo[0]); emit(hi[0]);
}
""", nranks=4)
        assert all(o == [0.0, 9.0] for o in res.outputs)

    def test_reduce_to_root_only(self):
        res = run_source("""
func main(rank: int, size: int) {
    var s: int[1];
    var r: int[1];
    s[0] = rank + 1;
    r[0] = -1;
    mpi_reduce(&s[0], &r[0], 1, 0, 2);
    emiti(r[0]);
}
""", nranks=4)
        got = [o[0] for o in res.outputs]
        assert got[2] == 10
        assert got[0] == -1 and got[1] == -1 and got[3] == -1

    def test_int_sum_that_leaves_64_bits_crashes(self):
        # the result is computed by the runtime, not by a wrapping VM
        # op: it must not reach memory as a 65-bit word.  One rank's
        # flipped sign bit is enough to get there
        src = """
func main(rank: int, size: int) {
    var s: int[2];
    var r: int[2];
    s[0] = 10;
    s[1] = rank;
    if (rank == 1) { s[0] = 9223372036854775807 - %s; }
    mpi_allreduce(&s[0], &r[0], 2, 0);
    emiti(r[0]); emiti(r[1]);
}
"""
        res = run_source(src % 30, nranks=4)
        assert all(o == [2 ** 63 - 1, 6] for o in res.outputs)
        res = run_source(src % 29, nranks=4)
        assert res.status is JobStatus.TRAPPED
        assert res.trap.kind is TrapKind.ARITH
        for mode in ("fpm", "taint"):
            assert run_source(src % 29, mode, nranks=4).trap.kind \
                is TrapKind.ARITH

    def test_collective_kind_mismatch_traps(self):
        res = run_source("""
func main(rank: int, size: int) {
    var v: float[1];
    var r: float[1];
    if (rank == 0) {
        mpi_barrier();
    } else {
        mpi_allreduce(&v[0], &r[0], 1, 0);
    }
}
""", nranks=2)
        assert res.status is JobStatus.TRAPPED
        assert res.trap.kind is TrapKind.MPI


class TestAllgather:
    def test_allgather_layout(self):
        res = run_source("""
func main(rank: int, size: int) {
    var mine: float[2];
    var all: float[8];
    mine[0] = float(rank);
    mine[1] = float(rank) + 0.5;
    mpi_allgather(&mine[0], 2, &all[0]);
    for (var i: int = 0; i < 2 * size; i += 1) { emit(all[i]); }
}
""", nranks=4)
        expected = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]
        assert all(o == expected for o in res.outputs)


class TestMixedWorkload:
    def test_collectives_interleaved_with_p2p(self):
        res = run_source("""
func main(rank: int, size: int) {
    var v: int[1];
    var s: int[1];
    var total: int[1];
    v[0] = rank;
    if (rank > 0) { mpi_send(&v[0], 1, 0, 1); }
    if (rank == 0) {
        var acc: int = 0;
        for (var i: int = 1; i < size; i += 1) {
            mpi_recv(&v[0], 1, -1, 1);
            acc += v[0];
        }
        s[0] = acc;
    } else {
        s[0] = 0;
    }
    mpi_allreduce(&s[0], &total[0], 1, 0);
    mpi_barrier();
    emiti(total[0]);
}
""", nranks=4)
        assert all(o == [6] for o in res.outputs)
