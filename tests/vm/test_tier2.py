"""Tier-2 golden-trace compilation: bit-identity with tier-1.

Compiled traces may only change *speed*.  Every observable — outcome,
outputs, per-rank clocks, trap kind and cycle, injection events, CML
traces — must match tier-1 dispatch exactly, for any quantum, any armed
fault plan, and every deopt guard (branch divergence, trap, quantum
boundary, armed entry).  The module-level plan machinery must be
deterministic, JSON-safe and defensive against stale artifact plans.
"""

import json

import pytest

from repro.apps import get_app
from repro.core.runner import build_program, run_job
from repro.frontend import compile_source
from repro.passes import pipeline_for_mode, run_passes
from repro.vm import (
    FaultSpec, Machine, MachineStatus, compile_program, derive_plan,
    install_plan,
)
from repro.vm import tier2 as tier2_mod

# a hot multi-block loop (planned as a rolled trace), plus a cold tail
# the golden profile never takes
SRC_LOOP = """
func main(rank: int, size: int) {
    var acc: int = 0;
    for (var it: int = 0; it < 40; it += 1) {
        var x: int = it * 3 + 1;
        var y: int = x * x - it;
        acc += y;
        if (acc < 0) {
            acc = 0;   // never taken on the golden path
        }
    }
    emiti(acc);
}
"""

SRC_DIV = """
func main(rank: int, size: int) {
    var d: int = 8;
    var acc: int = 0;
    for (var it: int = 0; it < 30; it += 1) {
        acc += 1000 / d;   // faulting d to 0 traps mid-trace
        d += 1;
    }
    emiti(acc);
}
"""


# a rolled loop that stores to memory, takes a minority edge early in
# the body of its ninth iteration, and writes registers after that guard
SRC_ROLL = """
func main(rank: int, size: int) {
    var a: int[16];
    var acc: int = 0;
    for (var it: int = 0; it < 12; it += 1) {
        if (it == 8) {
            acc += 1000;
        }
        var y: int = it * it + 3;
        a[it] = y;
        acc += y;
    }
    emiti(acc);
    emiti(a[5]);
}
"""

# traps (division by zero) in the fifth iteration of the golden run
SRC_ROLL_TRAP = """
func main(rank: int, size: int) {
    var d: int = 4;
    var acc: int = 0;
    for (var it: int = 0; it < 30; it += 1) {
        acc += 1000 / d;
        d -= 1;
    }
    emiti(acc);
}
"""


def build(source, mode="blackbox"):
    mod = compile_source(source, "t")
    run_passes(mod, pipeline_for_mode(mode))
    return compile_program(mod)


def profile_edges(prog, seed=12345, status=MachineStatus.DONE):
    m = Machine(prog, 0, 1, seed=seed)
    m.edge_profile = {}
    m.start()
    while m.run(10 ** 7) is MachineStatus.READY:
        pass
    assert m.status is status
    return m, m.edge_profile


def run_machine(prog, faults=(), budget=256, seed=12345, tier2=True):
    m = Machine(prog, 0, 1, seed=seed)
    m.use_tier2 = tier2
    if faults:
        m.arm_faults(faults)
    m.start()
    while m.run(budget) is MachineStatus.READY:
        pass
    return m


def assert_machines_identical(a, b):
    assert a.status == b.status
    assert str(a.trap) == str(b.trap)
    assert a.cycles == b.cycles
    assert a.outputs == b.outputs
    assert a.iteration_count == b.iteration_count
    assert a.inj_counter == b.inj_counter
    assert ([vars(e) for e in a.injection_events]
            == [vars(e) for e in b.injection_events])


def state(m):
    """Everything a later instruction could observe of a paused machine."""
    frames = [(f.block, f.ip, list(f.regs)) for f in m.call_stack]
    return (m.status, frames, m.memory.words(), bytes(m.memory.valid),
            m.memory.sp, m.cycles, m.inj_counter, m.outputs,
            [vars(e) for e in m.injection_events], str(m.trap))


def assert_states_identical(a, b):
    for x, y in zip(state(a), state(b)):
        assert x == y


def slots(prog):
    """Every installed trace slot of ``prog``, as (closure, first-block
    members, first-block marked)."""
    return [t for cf in prog.functions.values() for t in cf.tier2
            if t is not None]


def is_compiled(closure):
    """Is this slot closure an exec-compiled trace (vs a first-entry
    stub that has not run yet)?"""
    return closure.__code__.co_filename.startswith("<tier2:")


def planned(source=SRC_LOOP, mode="blackbox", status=MachineStatus.DONE):
    prog = build(source, mode)
    _, edges = profile_edges(prog, status=status)
    plan = derive_plan(prog, edges)
    n = install_plan(prog, plan)
    assert n > 0, "expected at least one installable trace"
    # nothing ran since install: every parity test below enters its
    # traces for the first time inside the run it checks
    assert prog.tier2_compiled == 0
    return prog, plan


class TestPlanning:
    def test_plan_is_deterministic_and_json_safe(self):
        prog = build(SRC_LOOP)
        _, edges = profile_edges(prog)
        p1 = derive_plan(prog, edges)
        p2 = derive_plan(prog, edges)
        assert p1 == p2
        assert json.loads(json.dumps(p1)) == p1
        assert sorted(p1) == ["traces", "version"]
        assert p1["version"] == tier2_mod.PLAN_VERSION
        assert all(sorted(t) == ["blocks", "func", "head", "members"]
                   for t in p1["traces"])

    def test_loop_path_closes_on_its_own_head(self):
        # one iteration, never an unrolled body: no block repeats except
        # the one that closes the path
        prog = build(SRC_LOOP)
        _, edges = profile_edges(prog)
        traces = derive_plan(prog, edges)["traces"]
        rolled = [t for t in traces if t["blocks"][-1] == t["head"]
                  and len(t["blocks"]) > 1]
        assert rolled, "the hot loop must be planned as a rolled trace"
        for t in traces:
            body = t["blocks"][:-1]
            assert len(set(body)) == len(body)
        # every rotation of the loop carries the same iteration
        assert len({t["members"] for t in rolled}) == 1

    def test_path_revisiting_a_non_head_block_ends_at_its_head(self):
        prog = build(SRC_LOOP)
        _, edges = profile_edges(prog)
        traces = derive_plan(prog, edges)["traces"]
        entry = next(t for t in traces if t["head"] == 0)
        close = entry["blocks"][-1]
        assert close != 0 and close in entry["blocks"][:-1]
        # block 0 is where the program starts: with only this trace
        # installed and exactly its members as budget, one run() goes
        # through the whole trace and stops where it ends
        install_plan(prog, {"version": tier2_mod.PLAN_VERSION,
                            "traces": [entry]})
        m = Machine(prog, 0, 1)
        m.start()
        ref = Machine(prog, 0, 1)
        ref.use_tier2 = False
        ref.start()
        assert m.run(entry["members"]) is MachineStatus.READY
        ref.run(entry["members"])
        f = m.call_stack[-1]
        assert (f.block, f.ip) == (close, 0)
        assert m.t2_enters == 1 and m.t2_cycles_acc == entry["members"]
        assert_states_identical(m, ref)

    def test_empty_profile_still_plans_straight_lines(self):
        # without edge counts only statically-resolved control flow is
        # walkable; planning must not crash and never guards a branch
        prog = build(SRC_LOOP)
        plan = derive_plan(prog, None)
        assert plan["version"] == tier2_mod.PLAN_VERSION

    def test_install_is_idempotent(self):
        prog = build(SRC_LOOP)
        _, edges = profile_edges(prog)
        plan = derive_plan(prog, edges)
        n1 = install_plan(prog, plan)
        n2 = install_plan(prog, plan)
        assert n1 == n2 == prog.tier2_traces
        assert prog.tier2_installed

    def test_stale_plan_degrades_to_tier1(self):
        # plans travel through artifacts: module drift must skip, not
        # raise, and leave the program executable
        prog = build(SRC_LOOP)
        bad = {"version": tier2_mod.PLAN_VERSION, "traces": [
            {"func": "nope", "head": 0, "blocks": [0], "members": 10},
            {"func": "main", "head": 999, "blocks": [999], "members": 10},
            {"func": "main", "head": 0, "blocks": [0, 777], "members": 64},
        ]}
        assert install_plan(prog, bad) == 0
        m = run_machine(prog)
        assert m.status is MachineStatus.DONE

    def test_wrong_plan_version_is_ignored(self):
        prog = build(SRC_LOOP)
        _, edges = profile_edges(prog)
        plan = derive_plan(prog, edges)
        plan["version"] = tier2_mod.PLAN_VERSION + 1
        assert install_plan(prog, plan) == 0

    def test_install_fills_one_slot_per_head(self):
        prog, plan = planned()
        assert len(slots(prog)) == prog.tier2_traces == len(plan["traces"])
        for closure, members, marked in slots(prog):
            assert callable(closure)
            assert 0 <= marked <= members and members >= 1


class TestFirstEntryCompilation:
    def test_install_compiles_nothing(self):
        prog = build(SRC_LOOP)
        _, edges = profile_edges(prog)
        plan = derive_plan(prog, edges)
        n = install_plan(prog, plan)
        # every planned trace validates against the module it was
        # derived from, so the count is what eager codegen installed
        assert n == prog.tier2_traces == len(plan["traces"])
        assert prog.tier2_compiled == 0 and prog.tier2_codegen_s == 0.0
        assert slots(prog)
        assert not any(is_compiled(t[0]) for t in slots(prog))

    def test_golden_run_compiles_only_what_it_enters(self):
        prog, _ = planned()
        installed = len(slots(prog))
        m = run_machine(prog, budget=256)
        assert m.t2_enters > 0
        assert 0 < prog.tier2_compiled < installed
        assert m.t2_compiled == prog.tier2_compiled
        assert prog.tier2_codegen_s > 0.0
        after = slots(prog)
        # the slots are untouched: same heads, same first blocks
        assert len(after) == installed
        assert sum(is_compiled(t[0]) for t in after) == prog.tier2_compiled
        # a second run finds everything it needs compiled
        again = run_machine(prog, budget=256)
        assert again.t2_compiled == 0
        assert_machines_identical(m, again)

    @pytest.mark.parametrize("quantum", [16, 64, 256, 10 ** 6])
    def test_at_most_one_variant_per_head_is_ever_compiled(self, quantum):
        prog, _ = planned()
        golden = run_machine(prog, budget=quantum)
        for occ in range(1, golden.inj_counter + 1, 9):
            run_machine(prog, [FaultSpec(rank=0, occurrence=occ, bit=62)],
                        budget=quantum)
        assert 0 < prog.tier2_compiled <= prog.tier2_traces

    def test_machine_built_before_install_picks_traces_up_mid_run(self):
        prog = build(SRC_LOOP)
        _, edges = profile_edges(prog)
        m = Machine(prog, 0, 1, seed=12345)
        m.start()
        for _ in range(3):
            assert m.run(64) is MachineStatus.READY
        assert m.t2_enters == 0
        install_plan(prog, derive_plan(prog, edges))
        while m.run(64) is MachineStatus.READY:
            pass
        assert m.t2_enters > 0 and prog.tier2_compiled > 0
        assert_machines_identical(m, run_machine(prog, budget=64, tier2=False))

    @pytest.mark.parametrize("failing", ["all", "first"])
    def test_codegen_failure_declines_to_tier1(self, failing, monkeypatch):
        prog, _ = planned()
        installed = len(slots(prog))
        real = tier2_mod._codegen
        calls = []

        def broken(records, end, loop, program, label):
            calls.append(label)
            if failing == "all" or len(calls) == 1:
                # one of the types Machine.run classifies as an
                # application trap — it must never get that far
                raise ValueError("synthetic codegen failure")
            return real(records, end, loop, program, label)

        monkeypatch.setattr(tier2_mod, "_codegen", broken)
        with pytest.warns(UserWarning, match="tier-2 codegen failed"):
            a = run_machine(prog, budget=256, tier2=True)
        b = run_machine(prog, budget=256, tier2=False)
        assert a.status is MachineStatus.DONE and a.trap is None
        assert_machines_identical(a, b)
        # each failed trace cleared its slot; nothing is retried
        failed = len(calls) if failing == "all" else 1
        assert len(slots(prog)) == installed - failed
        assert len(set(calls)) == len(calls)
        if failing == "all":
            assert prog.tier2_compiled == 0 and a.t2_cycles_acc == 0
        else:
            assert prog.tier2_compiled == len(calls) - 1
            assert a.t2_cycles_acc > 0


def at_loop_head(prog, plan, tier2, faults=()):
    """A machine single-stepped on tier-1 to the first head of a rolled
    trace it reaches, then switched to ``tier2``; also returns that head
    and the members of one iteration."""
    rolled = {t["head"]: t["members"] for t in plan["traces"]
              if len(t["blocks"]) > 1 and t["blocks"][-1] == t["head"]}
    m = Machine(prog, 0, 1)
    m.use_tier2 = False
    if faults:
        m.arm_faults(faults)
    m.start()
    while not (m.call_stack[-1].ip == 0 and m.call_stack[-1].block in rolled):
        assert m.run(1) is MachineStatus.READY
    m.use_tier2 = tier2
    head = m.call_stack[-1].block
    return m, head, rolled[head]


class TestRolledTraces:
    """One compiled iteration inside a real loop, budget and gap handed
    in by the run loop: every way out must land on tier-1's state."""

    # taint keeps its dual-chain ops as closure calls: the flush-before,
    # reload-after path of a member inside a rolled body
    @pytest.mark.parametrize("mode", ["blackbox", "fpm", "taint"])
    def test_every_budget_lands_on_the_tier1_state(self, mode):
        prog, plan = planned(SRC_ROLL, mode)
        length = at_loop_head(prog, plan, True)[2]
        for budget in range(1, 3 * length + 4):
            a = at_loop_head(prog, plan, True)[0]
            b = at_loop_head(prog, plan, False)[0]
            a.run(budget)
            b.run(budget)
            assert_states_identical(a, b)
            # whole iterations run rolled, and so does the tail up to
            # the last block boundary that fits
            assert a.t2_cycles_acc >= budget // length * length
            assert a.t2_deopts == 0

    @pytest.mark.parametrize("bit", [0, 62])
    def test_fault_in_the_first_three_iterations_fires_like_tier1(self, bit):
        prog, plan = planned(SRC_ROLL)
        m, _, length = at_loop_head(prog, plan, False)
        first = m.inj_counter + 1
        m.run(3 * length)
        assert m.inj_counter >= first + 3
        for occ in range(first, m.inj_counter + 1):
            faults = [FaultSpec(rank=0, occurrence=occ, bit=bit)]
            a = at_loop_head(prog, plan, True, faults)[0]
            b = at_loop_head(prog, plan, False, faults)[0]
            while a.run(10 ** 6) is MachineStatus.READY:
                pass
            while b.run(10 ** 6) is MachineStatus.READY:
                pass
            assert len(a.injection_events) == 1
            assert_states_identical(a, b)

    def test_minority_exit_in_a_later_iteration_flushes_earlier_writes(self):
        prog, plan = planned(SRC_ROLL)
        a, head, length = at_loop_head(prog, plan, True)
        b = at_loop_head(prog, plan, False)[0]
        f = a.call_stack[-1]
        before = list(f.regs)
        # straight into the trace: nothing but the guard can end it
        sig = f.cfunc.tier2[head][0](a, f, 10 ** 6, 1 << 62)
        spent = a.tier2_cycles
        assert sig == 1 and a.t2_deopts == 1
        assert spent > 8 * length and spent % length != 0
        assert (f.block, f.ip) != (head, 0)
        b.run(spent)
        g = b.call_stack[-1]
        assert (f.block, f.ip, f.regs) == (g.block, g.ip, g.regs)
        assert a.inj_counter == b.inj_counter > 0
        assert a.memory.words() == b.memory.words()
        # the guard sits early in the body: the registers the rest of the
        # body writes were last written one iteration earlier
        assert sum(x != y for x, y in zip(before, f.regs)) > 3

    def test_trap_in_a_later_iteration_lands_on_the_tier1_cycle(self):
        prog, plan = planned(SRC_ROLL_TRAP, status=MachineStatus.TRAPPED)
        a, _, length = at_loop_head(prog, plan, True)
        b = at_loop_head(prog, plan, False)[0]
        start = a.cycles
        assert a.run(10 ** 6) is MachineStatus.TRAPPED
        assert b.run(10 ** 6) is MachineStatus.TRAPPED
        assert a.t2_enters == 1 and a.t2_deopts == 1
        assert a.trap.cycle - start > 4 * length
        assert_machines_identical(a, b)


class TestExecutionParity:
    @pytest.mark.parametrize("quantum", [1, 3, 7, 16, 64, 256, 10 ** 6])
    def test_golden_parity_across_quanta(self, quantum):
        prog, _ = planned()
        a = run_machine(prog, budget=quantum, tier2=True)
        b = run_machine(prog, budget=quantum, tier2=False)
        assert a.status is MachineStatus.DONE
        assert_machines_identical(a, b)
        if quantum >= 64:
            assert a.t2_enters > 0, "tier-2 never entered"

    def test_counters_account_trace_cycles(self):
        prog, _ = planned()
        a = run_machine(prog, budget=256)
        assert a.t2_enters > 0
        assert 0 < a.t2_cycles_acc <= a.cycles
        assert a.t2_deopts <= a.t2_enters

    def test_no_tier2_machine_never_enters(self):
        prog, _ = planned()
        b = run_machine(prog, budget=256, tier2=False)
        assert b.t2_enters == 0 and b.t2_cycles_acc == 0

    @pytest.mark.parametrize("occ_frac", [0.0, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize("bit", [1, 62])
    def test_armed_parity_across_occurrences(self, occ_frac, bit):
        # armed entry: a pending fault must fire on the exact same
        # occurrence, cycle and operand whether traces run or not
        prog, _ = planned()
        golden = run_machine(prog, budget=256)
        total = golden.inj_counter
        occ = max(1, min(total, int(total * occ_frac) or 1))
        faults = [FaultSpec(rank=0, occurrence=occ, bit=bit)]
        a = run_machine(prog, faults, budget=256, tier2=True)
        b = run_machine(prog, faults, budget=256, tier2=False)
        assert_machines_identical(a, b)
        assert len(a.injection_events) == 1

    @pytest.mark.parametrize("occ", [5, 40, 90])
    def test_trap_deopt_parity(self, occ):
        # mid-trace traps: fused_skew must land the trap on the exact
        # tier-1 virtual cycle
        prog, _ = planned(SRC_DIV)
        faults = [FaultSpec(rank=0, occurrence=occ, bit=60)]
        a = run_machine(prog, faults, budget=256, tier2=True)
        b = run_machine(prog, faults, budget=256, tier2=False)
        assert_machines_identical(a, b)

    @pytest.mark.parametrize("source,bit", [(SRC_DIV, 60), (SRC_LOOP, 62),
                                            (SRC_LOOP, 0)])
    def test_first_entry_deopt_parity(self, source, bit):
        # a fresh program per faulty run: the trace that traps (or takes
        # the minority edge) was compiled by that very entry, so the
        # raise crosses the first-entry stub's frame — fused_skew and
        # the guard exits must still land on the tier-1 virtual cycle
        total = run_machine(build(source), budget=256).inj_counter
        for occ in range(2, total + 1, max(1, total // 12)):
            prog, _ = planned(source)
            faults = [FaultSpec(rank=0, occurrence=occ, bit=bit)]
            a = run_machine(prog, faults, budget=256, tier2=True)
            assert prog.tier2_compiled > 0
            b = run_machine(prog, faults, budget=256, tier2=False)
            assert_machines_identical(a, b)

    def test_branch_divergence_deopt_parity(self):
        # faults that flip the guarded loop/if conditions exercise the
        # mid-trace minority-edge exit
        prog, _ = planned()
        golden = run_machine(prog, budget=256)
        for occ in range(1, golden.inj_counter + 1, 7):
            for bit in (0, 33, 62):
                faults = [FaultSpec(rank=0, occurrence=occ, bit=bit)]
                a = run_machine(prog, faults, budget=256, tier2=True)
                b = run_machine(prog, faults, budget=256, tier2=False)
                assert_machines_identical(a, b)


class TestJobParity:
    """Whole-job parity on real apps (MPI, fpm shadow chains)."""

    @pytest.mark.parametrize("mode", ["blackbox", "fpm"])
    @pytest.mark.parametrize("app_name", ["matvec", "mcb"])
    def test_job_parity_with_faults(self, app_name, mode):
        spec = get_app(app_name)
        prog = build_program(spec.source, mode, name=spec.name,
                             config=spec.config)
        edges = {}
        golden = run_job(prog, spec.config, capture_edge_profile=edges)
        install_plan(prog, derive_plan(prog, edges))
        occ = max(2, golden.inj_counts[0] // 2)
        for faults in ([], [FaultSpec(rank=0, occurrence=occ, bit=4)],
                       [FaultSpec(rank=0, occurrence=occ, bit=62)]):
            a = run_job(prog, spec.config, faults, inj_seed=7)
            b = run_job(prog, spec.config, faults, inj_seed=7, tier2=False)
            assert a.status == b.status
            assert str(a.trap) == str(b.trap)
            assert a.cycles == b.cycles
            assert a.rank_cycles == b.rank_cycles
            assert repr(a.outputs) == repr(b.outputs)  # NaN-safe
            assert a.inj_counts == b.inj_counts
            assert a.ever_contaminated == b.ever_contaminated
            if a.trace is not None:
                assert a.trace.times == b.trace.times
                assert a.trace.cml_per_rank == b.trace.cml_per_rank
