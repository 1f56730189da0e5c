"""Fingerprint collision resistance and golden-index round-trips.

Convergence pruning is only sound if the world digest notices *every*
component of state that can steer future execution — a digest that
ignored, say, a register file or the free-list pop order would let the
scheduler splice golden finals onto a world that is about to diverge.
These tests perturb each canonical component in isolation and require
the digest to change, and pin the quick-signature pre-filter contract:
it may ignore deep state (that is what makes it cheap) but must agree
with the digest on the scalar counters it does cover.
"""

import pytest

from repro.apps import get_app
from repro.core.runner import build_program
from repro.inject.profiler import PreparedApp
from repro.mpi.message import Message
from repro.mpi.runtime import MPIRuntime
from repro.vm import Machine
from repro.vm.fingerprint import (
    DIGEST_SIZE,
    FingerprintIndex,
    fingerprint_world,
    quick_signature,
)
from tests.vm.test_memory import TWINS, WORDS, exact_all

SRC = """
func main(rank: int, size: int) {
    var buf: int[4];
    var h: int = 0;
    for (var i: int = 0; i < 200; i += 1) {
        buf[i % 4] = i * (rank + 2);
        h += buf[i % 4] % 7;
    }
    emiti(h);
}
"""


def _world(nranks=2, steps=90):
    """A mid-run world: live frames, populated registers, stack state."""
    program = build_program(SRC, "fpm", name="fp_unit")
    runtime = MPIRuntime()
    machines = [Machine(program, r, nranks, seed=7) for r in range(nranks)]
    runtime.attach(machines)
    for m in machines:
        m.start()
        m.run(steps)
    assert machines[0].call_stack, "world must be mid-run, not finished"
    return machines, runtime


def test_digest_is_deterministic_across_worlds():
    a_m, a_rt = _world()
    b_m, b_rt = _world()
    da, db = fingerprint_world(a_m, a_rt), fingerprint_world(b_m, b_rt)
    assert da == db
    assert len(da) == DIGEST_SIZE
    assert quick_signature(a_m) == quick_signature(b_m)


def _int_reg_slot(machine):
    """(frame, index) of some live integer register."""
    for fr in machine.call_stack:
        for i, v in enumerate(fr.regs):
            if isinstance(v, int):
                return fr, i
    pytest.fail("no live integer register found")


def _mutate_stack_cell(machines, runtime):
    mem = machines[0].memory
    assert mem.sp > 1, "need at least one live stack word"
    mem.poke(1, (mem.peek(1) if isinstance(mem.peek(1), int)
                 else 0) + 1)


def _mutate_register(machines, runtime):
    fr, i = _int_reg_slot(machines[0])
    fr.regs[i] += 1


def _mutate_ip(machines, runtime):
    machines[0].call_stack[-1].ip += 1


def _mutate_rng(machines, runtime):
    machines[0].rng.state ^= 1


def _mutate_cycles(machines, runtime):
    machines[0].cycles += 1


def _mutate_iterations(machines, runtime):
    machines[0].iteration_count += 1


def _mutate_outputs(machines, runtime):
    machines[0].outputs.append(41)


def _mutate_coll_seq(machines, runtime):
    machines[0].coll_seq += 1


def _mutate_inj_counter(machines, runtime):
    machines[0].inj_counter += 1


def _mutate_heap_alloc(machines, runtime):
    machines[0].memory.malloc(3)


def _mutate_heap_content(machines, runtime):
    mem = machines[0].memory
    base = mem.malloc(2)
    before = fingerprint_world(machines, runtime)
    mem.poke(base, 12345)
    assert fingerprint_world(machines, runtime) != before


def _mutate_free_list_order(machines, runtime):
    # Two same-size blocks freed in either order leave identical
    # (sp, hp, live_words) scalars but opposite malloc pop order —
    # semantic state only the full digest can see.
    mem = machines[0].memory
    a, b = mem.malloc(4), mem.malloc(4)
    mem.free(a)
    mem.free(b)
    d_ab = fingerprint_world(machines, runtime)
    bucket = mem.free_lists[4]
    bucket[-2], bucket[-1] = bucket[-1], bucket[-2]
    assert fingerprint_world(machines, runtime) != d_ab


def _mutate_mpi_queue(machines, runtime):
    runtime.queues[0].append(
        Message(src=1, dest=0, tag=3, payload=[9], sent_at=5))


MUTATORS = [
    _mutate_stack_cell, _mutate_register, _mutate_ip, _mutate_rng,
    _mutate_cycles, _mutate_iterations, _mutate_outputs, _mutate_coll_seq,
    _mutate_inj_counter, _mutate_heap_alloc, _mutate_heap_content,
    _mutate_free_list_order, _mutate_mpi_queue,
]


@pytest.mark.parametrize("mutate", MUTATORS,
                         ids=lambda f: f.__name__.lstrip("_"))
def test_single_component_perturbation_changes_digest(mutate):
    machines, runtime = _world()
    before = fingerprint_world(machines, runtime)
    mutate(machines, runtime)
    assert fingerprint_world(machines, runtime) != before


@pytest.mark.parametrize("mutate", [
    _mutate_cycles, _mutate_iterations, _mutate_outputs, _mutate_rng,
    _mutate_coll_seq, _mutate_inj_counter, _mutate_heap_alloc,
], ids=lambda f: f.__name__.lstrip("_"))
def test_quick_signature_catches_scalar_perturbations(mutate):
    machines, runtime = _world()
    before = quick_signature(machines)
    mutate(machines, runtime)
    assert quick_signature(machines) != before


def test_quick_signature_is_a_prefilter_not_a_digest():
    """Deep state (a register) escapes the quick signature — which is
    exactly why a quick match must still be confirmed by the digest."""
    machines, runtime = _world()
    q, d = quick_signature(machines), fingerprint_world(machines, runtime)
    _mutate_register(machines, runtime)
    assert quick_signature(machines) == q
    assert fingerprint_world(machines, runtime) != d


@pytest.mark.parametrize("word,twin", TWINS, ids=lambda w: repr(w))
@pytest.mark.parametrize("where", ["stack", "heap"])
def test_a_words_type_and_bits_are_part_of_the_digest(word, twin, where):
    # 0 / 0.0, 0.0 / -0.0, two NaNs: equal (or both NaN) to every
    # comparison the VM makes, still different worlds
    machines, runtime = _world()
    mem = machines[0].memory
    addr = 1 if where == "stack" else mem.malloc(1)
    mem.poke(addr, word)
    one = fingerprint_world(machines, runtime)
    mem.poke(addr, twin)
    assert fingerprint_world(machines, runtime) != one
    mem.poke(addr, word)
    assert fingerprint_world(machines, runtime) == one


def test_digest_follows_values_not_object_identity():
    # pickle memoises by id(): were words memoised, a world that holds
    # one float object in two cells would hash apart from a world that
    # holds two equal ones
    a_m, a_rt = _world()
    b_m, b_rt = _world()
    pa, pb = a_m[0].memory.malloc(4), b_m[0].memory.malloc(4)
    shared = 1.5
    a_m[0].memory.write_block(pa, [shared, shared, 10 ** 12, 7])
    b_m[0].memory.write_block(
        pb, [0.5 * 3, 3.0 / 2, int("1" + "0" * 12), 3 + 4])
    a_m[0].call_stack[0].regs[:2] = [shared, shared]
    b_m[0].call_stack[0].regs[:2] = [0.5 * 3, 3.0 / 2]
    assert fingerprint_world(a_m, a_rt) == fingerprint_world(b_m, b_rt)


def test_checkpoint_restores_every_word_exactly():
    machines, runtime = _world(nranks=1)
    m = machines[0]
    base = m.memory.malloc(len(WORDS))
    m.memory.write_block(base, WORDS)
    ck = m.capture()
    want = fingerprint_world(machines, runtime)
    m.memory.write_block(base, [t for pair in TWINS for t in pair[::-1]])
    m.memory.malloc(64)  # grows cells past the checkpoint's length
    assert fingerprint_world(machines, runtime) != want
    cells = m.memory.cells
    m.restore(ck)
    assert m.memory.cells is cells
    assert exact_all(m.memory.read_block(base, len(WORDS))) \
        == exact_all(WORDS)
    assert fingerprint_world(machines, runtime) == want
    assert m.memory.valid.rfind(1) < len(cells)


def test_fingerprint_index_round_trip():
    pa = PreparedApp(get_app("matvec"), "fpm", snapshot_stride=150)
    fp = pa.fingerprints
    assert fp is not None and fp.enabled and len(fp) > 0
    assert fp.final_cycles == pa.golden.cycles
    assert fp.final_outputs == tuple(tuple(o) for o in pa.golden.outputs)

    loaded = FingerprintIndex.load_state(fp.dump_state())
    assert loaded.stride == fp.stride
    assert loaded.digests == fp.digests
    assert loaded.quick == fp.quick
    assert loaded.sample_counts == fp.sample_counts
    assert loaded.stats_at == fp.stats_at
    assert loaded.final_cycles == fp.final_cycles
    assert loaded.final_rank_cycles == fp.final_rank_cycles
    assert loaded.final_outputs == fp.final_outputs
    assert loaded.final_iterations == fp.final_iterations
    assert loaded.final_inj_counts == fp.final_inj_counts
    assert loaded.final_stats == fp.final_stats
    assert loaded.trace_times == fp.trace_times
    assert loaded.trace_live == fp.trace_live


def test_index_stops_capturing_after_finalize():
    pa = PreparedApp(get_app("matvec"), "fpm", snapshot_stride=150)
    fp = pa.fingerprints
    n = len(fp)
    machines, runtime = _world()
    fp.maybe_capture(10 ** 9, 10 ** 6, machines, runtime, None)
    assert len(fp) == n


def test_disabled_index_captures_nothing():
    fp = FingerprintIndex(0)
    assert not fp.enabled
    machines, runtime = _world()
    fp.maybe_capture(10 ** 9, 1, machines, runtime, None)
    assert len(fp) == 0
