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

# a hot loop long enough to plan multi-block unrolled traces, plus a
# cold tail the golden profile never takes
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


def build(source, mode="blackbox"):
    mod = compile_source(source, "t")
    run_passes(mod, pipeline_for_mode(mode))
    return compile_program(mod)


def profile_edges(prog, seed=12345):
    m = Machine(prog, 0, 1, seed=seed)
    m.edge_profile = {}
    m.start()
    while m.run(10 ** 7) is MachineStatus.READY:
        pass
    assert m.status is MachineStatus.DONE
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


def variants(prog):
    """Every installed ladder slot of ``prog``, as (closure, len, marked)."""
    return [c for cf in prog.functions.values() for cands in cf.tier2
            if cands is not None for c in cands]


def is_compiled(closure):
    """Is this ladder closure an exec-compiled trace (vs a first-entry
    stub that has not run yet)?"""
    return closure.__code__.co_filename.startswith("<tier2:")


def planned(source=SRC_LOOP, mode="blackbox", cap=256):
    prog = build(source, mode)
    _, edges = profile_edges(prog)
    plan = derive_plan(prog, edges, cap)
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
        p1 = derive_plan(prog, edges, 128)
        p2 = derive_plan(prog, edges, 128)
        assert p1 == p2
        assert json.loads(json.dumps(p1)) == p1
        assert p1["version"] == tier2_mod.PLAN_VERSION
        assert p1["cap"] == 128
        assert all(t["members"] >= tier2_mod._MIN_MEMBERS
                   for t in p1["traces"])

    def test_loops_unroll_to_cap(self):
        prog = build(SRC_LOOP)
        _, edges = profile_edges(prog)
        plan = derive_plan(prog, edges, 200)
        # the hot loop head must carry a multi-block unrolled trace
        assert any(len(t["blocks"]) > 2 for t in plan["traces"])

    def test_empty_profile_still_plans_straight_lines(self):
        # without edge counts only statically-resolved control flow is
        # walkable; planning must not crash and never guards a branch
        prog = build(SRC_LOOP)
        plan = derive_plan(prog, None, 128)
        assert plan["version"] == tier2_mod.PLAN_VERSION

    def test_install_is_idempotent(self):
        prog = build(SRC_LOOP)
        _, edges = profile_edges(prog)
        plan = derive_plan(prog, edges, 128)
        n1 = install_plan(prog, plan)
        n2 = install_plan(prog, plan)
        assert n1 == n2 == prog.tier2_traces
        assert prog.tier2_installed

    def test_stale_plan_degrades_to_tier1(self):
        # plans travel through artifacts: module drift must skip, not
        # raise, and leave the program executable
        prog = build(SRC_LOOP)
        bad = {"version": tier2_mod.PLAN_VERSION, "cap": 64, "traces": [
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
        plan = derive_plan(prog, edges, 128)
        plan["version"] = tier2_mod.PLAN_VERSION + 1
        assert install_plan(prog, plan) == 0

    def test_install_builds_descending_ladder(self):
        prog, _ = planned(cap=128)
        ladders = [cands for cf in prog.functions.values()
                   for cands in cf.tier2 if cands is not None]
        assert ladders
        for cands in ladders:
            lengths = [c[1] for c in cands]
            assert lengths == sorted(lengths, reverse=True)
            assert lengths[-1] >= tier2_mod._MIN_MEMBERS
            for closure, members, marked in cands:
                assert callable(closure)
                assert 0 <= marked <= members


class TestFirstEntryCompilation:
    def test_install_compiles_nothing(self):
        prog = build(SRC_LOOP)
        _, edges = profile_edges(prog)
        plan = derive_plan(prog, edges, 128)
        n = install_plan(prog, plan)
        # every planned trace validates against the module it was
        # derived from, so the count is what eager codegen installed
        assert n == prog.tier2_traces == len(plan["traces"])
        assert prog.tier2_compiled == 0 and prog.tier2_codegen_s == 0.0
        assert variants(prog)
        assert not any(is_compiled(c[0]) for c in variants(prog))

    def test_golden_run_compiles_only_what_it_enters(self):
        prog, _ = planned()
        installed = len(variants(prog))
        m = run_machine(prog, budget=256)
        assert m.t2_enters > 0
        assert 0 < prog.tier2_compiled < installed
        assert m.t2_compiled == prog.tier2_compiled
        assert prog.tier2_codegen_s > 0.0
        after = variants(prog)
        # ladder shape is untouched: same slots, same lengths/marked
        assert len(after) == installed
        assert sum(is_compiled(c[0]) for c in after) == prog.tier2_compiled
        # a second run finds everything it needs compiled
        again = run_machine(prog, budget=256)
        assert again.t2_compiled == 0
        assert_machines_identical(m, again)

    def test_machine_built_before_install_picks_traces_up_mid_run(self):
        prog = build(SRC_LOOP)
        _, edges = profile_edges(prog)
        m = Machine(prog, 0, 1, seed=12345)
        m.start()
        for _ in range(3):
            assert m.run(64) is MachineStatus.READY
        assert m.t2_enters == 0
        install_plan(prog, derive_plan(prog, edges, 256))
        while m.run(64) is MachineStatus.READY:
            pass
        assert m.t2_enters > 0 and prog.tier2_compiled > 0
        assert_machines_identical(m, run_machine(prog, budget=64, tier2=False))

    @pytest.mark.parametrize("failing", ["all", "first"])
    def test_codegen_failure_declines_to_tier1(self, failing, monkeypatch):
        prog, _ = planned()
        installed = len(variants(prog))
        real = tier2_mod._codegen
        calls = []

        def broken(records, end, program, label):
            calls.append(label)
            if failing == "all" or len(calls) == 1:
                # one of the types Machine.run classifies as an
                # application trap — it must never get that far
                raise ValueError("synthetic codegen failure")
            return real(records, end, program, label)

        monkeypatch.setattr(tier2_mod, "_codegen", broken)
        with pytest.warns(UserWarning, match="tier-2 codegen failed"):
            a = run_machine(prog, budget=256, tier2=True)
        b = run_machine(prog, budget=256, tier2=False)
        assert a.status is MachineStatus.DONE and a.trap is None
        assert_machines_identical(a, b)
        # each failed variant left its ladder; nothing is retried
        failed = len(calls) if failing == "all" else 1
        assert len(variants(prog)) == installed - failed
        assert len(set(calls)) == len(calls)
        if failing == "all":
            assert prog.tier2_compiled == 0 and a.t2_cycles_acc == 0
        else:
            assert prog.tier2_compiled == len(calls) - 1
            assert a.t2_cycles_acc > 0


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
        install_plan(prog, derive_plan(prog, edges, spec.config.quantum))
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
