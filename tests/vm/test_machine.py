"""Machine execution: call stack, traps, quanta, fault arming."""

import pytest

from repro.frontend import compile_source
from repro.ir import (
    Function,
    INT,
    IRBuilder,
    Module,
    VOID,
    const_int,
    verify_module,
)
from repro.passes import pipeline_for_mode, run_passes
from repro.vm import FaultSpec, Machine, MachineStatus, TrapKind, compile_program


def build(source, mode="blackbox"):
    mod = compile_source(source, "t")
    run_passes(mod, pipeline_for_mode(mode))
    return compile_program(mod)


def run_machine(prog, faults=(), budget=10 ** 7, seed=12345):
    m = Machine(prog, 0, 1, seed=seed)
    if faults:
        m.arm_faults(faults)
    m.start()
    while m.run(budget) is MachineStatus.READY:
        pass
    return m


class TestExecution:
    def test_function_calls_and_returns(self):
        prog = build("""
func add3(a: int, b: int, c: int) -> int { return a + b + c; }
func twice(x: int) -> int { return add3(x, x, 0); }
func main(rank: int, size: int) { emiti(twice(21)); }
""")
        m = run_machine(prog)
        assert m.status is MachineStatus.DONE
        assert m.outputs == [42]

    def test_recursion(self):
        prog = build("""
func fib(n: int) -> int {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
func main(rank: int, size: int) { emiti(fib(12)); }
""")
        m = run_machine(prog)
        assert m.outputs == [144]

    def test_infinite_recursion_traps(self):
        prog = build("""
func boom(n: int) -> int { return boom(n + 1); }
func main(rank: int, size: int) { emiti(boom(0)); }
""")
        m = run_machine(prog)
        assert m.status is MachineStatus.TRAPPED
        assert m.trap.kind is TrapKind.STACK_OVERFLOW

    def test_quantum_preemption_preserves_state(self):
        prog = build("""
func main(rank: int, size: int) {
    var s: int = 0;
    for (var i: int = 0; i < 1000; i += 1) { s += i; }
    emiti(s);
}
""")
        m = Machine(prog, 0, 1)
        m.start()
        quanta = 0
        while m.run(17) is MachineStatus.READY:  # awkward quantum on purpose
            quanta += 1
        assert m.status is MachineStatus.DONE
        assert m.outputs == [499500]
        assert quanta > 10

    def test_cycles_count_instructions(self):
        prog = build("func main(rank: int, size: int) { emiti(rank); }")
        m = run_machine(prog)
        assert 0 < m.cycles < 50

    def test_local_frame_memory_released(self):
        prog = build("""
func work(n: int) -> float {
    var buf: float[32];
    for (var i: int = 0; i < 32; i += 1) { buf[i] = float(i); }
    return buf[31];
}
func main(rank: int, size: int) {
    var acc: float = 0.0;
    for (var k: int = 0; k < 50; k += 1) { acc += work(k); }
    emit(acc);
}
""")
        m = run_machine(prog)
        assert m.status is MachineStatus.DONE
        assert m.outputs == [50 * 31.0]
        # 50 frames of 32+ words each would overflow the default stack if
        # frames leaked.
        assert m.memory.sp < 1000


class TestTraps:
    def test_div_zero(self):
        prog = build("""
func main(rank: int, size: int) {
    var d: int = size - 1;
    emiti(10 / d);
}
""")
        m = run_machine(prog)
        assert m.trap.kind is TrapKind.DIV_ZERO

    def test_wild_pointer(self):
        prog = build("""
func main(rank: int, size: int) {
    var a: float[4];
    a[100000] = 1.0;
}
""")
        m = run_machine(prog)
        assert m.trap.kind is TrapKind.MEM_FAULT

    def test_abort(self):
        prog = build("func main(rank: int, size: int) { mpi_abort(9); }")
        m = run_machine(prog)
        assert m.trap.kind is TrapKind.ABORT
        assert m.trap.code == 9

    def test_trap_records_rank_and_cycle(self):
        prog = build("func main(rank: int, size: int) { mpi_abort(1); }")
        m = run_machine(prog)
        assert m.trap.rank == 0
        assert m.trap.cycle is not None and m.trap.cycle > 0


class TestInjection:
    SRC = """
func main(rank: int, size: int) {
    var a: float[16];
    for (var i: int = 0; i < 16; i += 1) { a[i] = float(i) * 2.0; }
    var s: float = 0.0;
    for (var i: int = 0; i < 16; i += 1) { s += a[i]; }
    emit(s);
}
"""

    def test_counter_without_plan(self):
        prog = build(self.SRC)
        m = run_machine(prog)
        assert m.inj_counter > 0
        assert m.injection_events == []

    def test_counter_deterministic(self):
        prog = build(self.SRC)
        assert run_machine(prog).inj_counter == run_machine(prog).inj_counter

    def test_fault_fires_once(self):
        prog = build(self.SRC)
        m = run_machine(prog, faults=[FaultSpec(0, 5, bit=1)])
        assert len(m.injection_events) == 1
        ev = m.injection_events[0]
        assert ev.occurrence == 5
        assert ev.bit == 1
        assert ev.before != ev.after
        assert ev.cycle > 0

    def test_fault_for_other_rank_ignored(self):
        prog = build(self.SRC)
        m = run_machine(prog, faults=[FaultSpec(3, 5, bit=1)])
        assert m.injection_events == []

    def test_multiple_faults(self):
        prog = build(self.SRC)
        m = run_machine(prog, faults=[FaultSpec(0, 3, bit=0),
                                      FaultSpec(0, 9, bit=0)])
        assert [e.occurrence for e in m.injection_events] == [3, 9]

    def test_occurrence_beyond_execution_never_fires(self):
        prog = build(self.SRC)
        clean = run_machine(prog)
        m = run_machine(prog, faults=[FaultSpec(0, clean.inj_counter + 100)])
        assert m.injection_events == []
        assert m.outputs == clean.outputs

    def test_occurrence_counting_matches_across_modes(self):
        bb = build(self.SRC, "blackbox")
        fpm = build(self.SRC, "fpm")
        assert run_machine(bb).inj_counter == run_machine(fpm).inj_counter

    def test_bad_occurrence_rejected(self):
        prog = build(self.SRC)
        m = Machine(prog)
        with pytest.raises(ValueError):
            m.arm_faults([FaultSpec(0, 0)])

    def test_injection_changes_output(self):
        prog = build(self.SRC)
        clean = run_machine(prog)
        # High mantissa bit on some float arithmetic operand: outputs move.
        changed = 0
        for occ in range(10, 60, 7):
            m = run_machine(prog, faults=[FaultSpec(0, occ, bit=51)])
            if m.status is MachineStatus.DONE and m.outputs != clean.outputs:
                changed += 1
        assert changed > 0

    def test_inject_check_stays_inline_hoisted(self, monkeypatch):
        # the occurrence check is a hoisted inline comparison: the (slow)
        # inject_now upcall fires only when the counter matches
        calls = []
        orig = Machine.inject_now

        def counting(self, frame, opinfo, site=-1):
            calls.append(self.inj_counter)
            return orig(self, frame, opinfo, site)

        monkeypatch.setattr(Machine, "inject_now", counting)
        m = run_machine(build(self.SRC), faults=[FaultSpec(0, 25, bit=3)],
                        budget=64)
        assert m.inj_counter > 50   # many marked executions...
        assert calls == [25]        # ...but exactly one upcall


class TestEntry:
    def test_missing_entry_function(self):
        mod = Module("m")
        f = Function("not_main", [INT, INT], VOID, ["a", "b"])
        mod.add_function(f)
        b = IRBuilder(f, f.new_block("entry"))
        b.ret()
        verify_module(mod)
        prog = compile_program(mod)
        m = Machine(prog)
        from repro.vm.traps import Trap
        with pytest.raises(Trap):
            m.start()

    def test_explicit_entry_args(self):
        prog = build("func main(rank: int, size: int) { emiti(rank * 100 + size); }")
        m = Machine(prog, rank=0, size=1)
        m.start(args=(7, 32))
        m.run(1000)
        assert m.outputs == [732]


class TestRestorableState:
    #: attributes that are deliberately not state: configuration, the
    #: objects whose *state* the tuples hold, within-``run`` staging
    #: (reset by ``restore``) and observability counters
    NOT_STATE = {
        "program", "rank", "size", "runtime", "entry", "max_call_depth",
        "use_tier2", "edge_profile", "tier2_cycles",
        "t2_enters", "t2_deopts", "t2_cycles_acc", "t2_compiled",
        "t2_suspends", "t2_resumes", "t2_settles",
        "trap", "pending_call", "fused_skew",
        # a loop region suspended at the quantum boundary: settled before
        # any frame is read, dropped by restore
        "t2_cont",
    }

    def test_every_attribute_is_captured_or_declared_not_state(self):
        # a new Machine field fails here until someone decides which
        from repro.vm.machine import ExecutionState, InstrumentationState
        m = Machine(build("func main(rank: int, size: int) { }", "fpm"))
        captured = set(ExecutionState._fields + InstrumentationState._fields)
        attrs = {name.lstrip("_") for name in vars(m)}
        assert not captured & self.NOT_STATE
        assert attrs == captured | self.NOT_STATE

    def test_capture_restores_into_a_twin_plan_and_table_included(self):
        prog = build(TestInjection.SRC, "fpm")
        a = Machine(prog, 0, 1)
        a.arm_faults([FaultSpec(0, 5, bit=50), FaultSpec(0, 10 ** 6)], seed=3)
        a.start()
        a.run(120)
        assert a.injection_events and a.cml and a.inj_next == 10 ** 6
        state = a.capture()
        b = Machine(prog, 0, 1)
        b.restore(state)
        assert b.capture() == state
        for m in (a, b):
            while m.run(10 ** 6) is MachineStatus.READY:
                pass
        assert repr(a.outputs) == repr(b.outputs) and a.cycles == b.cycles
        # memory=False leaves the words to whoever carries them
        light = a.capture(memory=False)
        assert light.execution.memory is None
        assert light.instrumentation == a.capture().instrumentation
