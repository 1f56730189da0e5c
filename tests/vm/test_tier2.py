"""Compiled regions: bit-identity with the reference interpreter.

Generated code may only change *speed*.  Every observable — outcome,
outputs, per-rank clocks, trap kind and cycle, injection events, CML
traces — must match a ``fuse=False`` program exactly, on the static map
and on the golden plan's, for any quantum, any armed fault plan, and
every guard (branch divergence, trap, quantum boundary, armed entry).
The plan machinery must be deterministic, JSON-safe and defensive
against stale artifact plans.
"""

import functools
import json

import pytest

from repro.apps import get_app
from repro.core.runner import build_program, run_job
from repro.frontend import compile_source
from repro.ir import Call
from repro.passes import pipeline_for_mode, run_passes
from repro.vm import (
    FaultSpec, Machine, MachineStatus, compile_program, derive_plan,
    install_plan,
)
from repro.vm import tier2 as tier2_mod
from tests.conftest import assert_jobs_identical

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
# in a straight-line run longer than the 16-member entry-point grid —
# with intrinsic calls as members of it: pure (evaluated on both chains
# in fpm), impure with a result, and void
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
        a[it] = a[it] * 3 + imin(acc, 700);
        emiti(a[it]);
        a[15 - it] = a[it] - y * 2 + int(rand() * 4.0);
        acc += a[15 - it] - a[it] * 5;
        mark_iteration();
    }
    emiti(acc);
    emiti(a[5]);
}
"""

# the same loop with a call barrier mid-block: the hot path ends there
# and compiled code resumes at the ip after it, in a run that crosses
# the grid again
SRC_BARRIER = ("func bump(x: int) -> int { return x * 3 - 1; }\n"
               + SRC_ROLL.replace("acc += y;", "acc += bump(y);"))

# the same loop counting d down from 4: the golden run itself traps
# (division by zero) in its fifth iteration
SRC_ROLL_TRAP = SRC_DIV.replace("d: int = 8", "d: int = 4").replace(
    "d += 1;", "d -= 1;")


def build(source, mode="blackbox", fuse=True):
    mod = compile_source(source, "t")
    run_passes(mod, pipeline_for_mode(mode))
    return compile_program(mod, fuse=fuse)


@functools.lru_cache(maxsize=None)
def reference(source, mode="blackbox"):
    """The closure-only interpreter for ``source``: no region anywhere."""
    return build(source, mode, fuse=False)


def run_machine(prog, faults=(), budget=256, tier2=True, edges=None):
    m = Machine(prog, 0, 1)
    m.use_tier2 = tier2
    m.edge_profile = edges
    if faults:
        m.arm_faults(faults)
    m.start()
    while m.run(budget) is MachineStatus.READY:
        pass
    return m


def profile_edges(prog, status=MachineStatus.DONE):
    m = run_machine(prog, budget=10 ** 7, edges={})
    assert m.status is status
    return m, m.edge_profile


def state(m):
    """Everything a later instruction could observe of a paused machine
    (none reads a trapped one's frames: a raising region flushes none)."""
    frames = [(f.block, f.ip, list(f.regs)) for f in m.call_stack
              if m.status is not MachineStatus.TRAPPED]
    # values may be NaN, which equals nothing: compare their spelling
    return (m.status, repr(frames), repr(m.memory.words()),
            bytes(m.memory.valid), m.memory.sp, m.cycles, m.inj_counter,
            repr(m.outputs), m.iteration_count,
            repr([vars(e) for e in m.injection_events]), str(m.trap))


def assert_states_identical(a, b):
    for x, y in zip(state(a), state(b)):
        assert x == y


def run_faulted(prog, source, occ, bit, budget=256):
    """One fault on the planned map, checked against the reference."""
    faults = [FaultSpec(rank=0, occurrence=occ, bit=bit)]
    a = run_machine(prog, faults, budget, tier2=True)
    assert_states_identical(a, run_machine(reference(source), faults, budget))
    return a


def slots(prog):
    """Every distinct slot installed in either region map of ``prog``."""
    found = {id(s): s for cf in prog.functions.values()
             for rmap in (cf.static, cf.tier2) for row in rmap for s in row
             if s is not None}
    return list(found.values())


def head_slots(prog):
    """The slots a golden plan put in: in the profiled map only."""
    return [cf.tier2[b][0] for cf in prog.functions.values()
            for b in range(len(cf.blocks)) if cf.tier2[b]
            and cf.tier2[b][0] is not cf.static[b][0]]


def is_compiled(closure):
    """Is this slot closure an exec-compiled region, not a stub?"""
    return closure.__code__.co_filename.startswith("<tier2:")


def planned(source=SRC_LOOP, mode="blackbox", status=MachineStatus.DONE):
    # profiled on a throwaway build: every parity test below enters its
    # regions for the first time inside the run it checks
    _, edges = profile_edges(build(source, mode), status=status)
    prog = build(source, mode)
    plan = derive_plan(prog, edges)
    install_plan(prog, plan)
    assert head_slots(prog), "expected at least one installable path"
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
        # without edge counts only statically-resolved control flow is
        # walkable: planning must not crash, and guards no branch
        static = derive_plan(prog, None)
        assert 0 < len(static["traces"]) < len(p1["traces"])

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
        ref = Machine(reference(SRC_LOOP), 0, 1)
        ref.start()
        assert m.run(entry["members"]) is MachineStatus.READY
        ref.run(entry["members"])
        f = m.call_stack[-1]
        assert (f.block, f.ip) == (close, 0)
        assert m.t2_enters == 1 and m.t2_cycles_acc == entry["members"]
        assert_states_identical(m, ref)

    def test_stale_plan_degrades_to_tier1(self):
        # plans travel through artifacts: module drift or another plan
        # version must skip, not raise, and leave the program executable
        _, edges = profile_edges(build(SRC_LOOP))
        other = derive_plan(build(SRC_LOOP), edges)
        other["version"] = tier2_mod.PLAN_VERSION + 1
        bad = {"version": tier2_mod.PLAN_VERSION, "traces": [
            {"func": "nope", "head": 0, "blocks": [0], "members": 10},
            {"func": "main", "head": 999, "blocks": [999], "members": 10},
            {"func": "main", "head": 0, "blocks": [0, 777], "members": 64},
        ]}
        for plan in (bad, other):
            prog = build(SRC_LOOP)
            static = prog.tier2_traces
            assert install_plan(prog, plan) == static
            assert not head_slots(prog)
            assert run_machine(prog).status is MachineStatus.DONE

    def test_install_fills_one_slot_per_head(self):
        # the static map holds one slot per entry point — block heads,
        # the ip after a call barrier, every 16th member of a run — and
        # a plan replaces head slots of the profiled map only
        prog, plan = planned(SRC_BARRIER)
        func = next(fn for fn in prog.module if fn.name == "main")
        cf = prog.functions["main"]
        kinds = set()
        for b, block in enumerate(func.blocks):
            for ip, slot in enumerate(cf.static[b]):
                if slot is None:
                    continue
                if ip == 0:
                    kinds.add("head")
                elif isinstance(block.instructions[ip - 1], Call):
                    kinds.add("post-barrier")
                else:
                    kinds.add("grid")
                    assert cf.static[b][ip - 16] is not None
                # mid-block, one object serves both maps
                assert ip == 0 or cf.tier2[b][ip] is slot
        assert kinds == {"head", "post-barrier", "grid"}
        assert len(head_slots(prog)) == len(plan["traces"])
        assert len(slots(prog)) == prog.tier2_traces
        for _, members, marked in slots(prog):
            assert 0 <= marked <= members and 1 <= members <= 16


class TestFirstEntryCompilation:
    def test_install_compiles_nothing(self):
        _, edges = profile_edges(build(SRC_LOOP))
        prog = build(SRC_LOOP)
        static = prog.tier2_traces
        assert static == len(slots(prog)) > 0
        plan = derive_plan(prog, edges)
        # every planned path validates against the module it was
        # derived from
        assert install_plan(prog, plan) == static + len(plan["traces"])
        # and is idempotent: a program is installed at most once
        assert install_plan(prog, plan) == prog.tier2_traces == len(slots(prog))
        assert prog.tier2_compiled == 0 and prog.tier2_codegen_s == 0.0
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
        assert_states_identical(m, again)

    @pytest.mark.parametrize("quantum", [16, 64, 256, 10 ** 6])
    def test_at_most_one_variant_per_head_is_ever_compiled(self, quantum):
        prog, _ = planned()
        total = run_machine(prog, budget=quantum).inj_counter
        for occ in range(1, total + 1, 9):
            run_faulted(prog, SRC_LOOP, occ, 62, quantum)
        assert 0 < prog.tier2_compiled <= prog.tier2_traces

    def test_machine_built_before_install_picks_traces_up_mid_run(self):
        prog = build(SRC_LOOP)
        _, edges = profile_edges(prog)
        m = Machine(prog, 0, 1, seed=12345)
        m.start()
        for _ in range(3):
            assert m.run(64) is MachineStatus.READY
        install_plan(prog, derive_plan(prog, edges))
        assert not any(is_compiled(t[0]) for t in head_slots(prog))
        while m.run(64) is MachineStatus.READY:
            pass
        assert any(is_compiled(t[0]) for t in head_slots(prog))
        assert_states_identical(m, run_machine(reference(SRC_LOOP),
                                                 budget=64))

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
        b = run_machine(reference(SRC_LOOP), budget=256)
        assert a.status is MachineStatus.DONE and a.trap is None
        assert_states_identical(a, b)
        # each failed region left the maps — that slot only, a planned
        # head falling back to its static region — and nothing is retried
        failed = len(calls) if failing == "all" else 1
        assert len(slots(prog)) == installed - failed
        if failing == "all":
            assert prog.tier2_compiled == 0 and a.t2_cycles_acc == 0
        else:
            assert prog.tier2_compiled == len(calls) - 1
            assert a.t2_cycles_acc > 0


def at_loop_head(prog, plan, tier2, faults=()):
    """A machine single-stepped to the first head of a rolled region of
    ``plan`` it reaches, then switched to ``tier2``; also returns that
    head and the members of one iteration."""
    heads = {t["head"]: t["members"] for t in plan["traces"]
             if t["blocks"][-1] == t["head"]}
    m = Machine(prog, 0, 1)
    m.use_tier2 = False
    if faults:
        m.arm_faults(faults)
    m.start()
    while not (m.call_stack[-1].ip == 0 and m.call_stack[-1].block in heads):
        assert m.run(1) is MachineStatus.READY
    m.use_tier2 = tier2
    head = m.call_stack[-1].block
    return m, head, heads[head]


def watch_single_steps(prog):
    """Wrap every dispatch closure of ``prog`` (generated code calls
    none); ``seen["best"]`` is the longest single-stepped ip sequence."""
    seen = {"at": None, "run": 0, "best": 0}
    for cf in prog.functions.values():
        for b, code in enumerate(cf.blocks):
            for ip, step in enumerate(code):
                def logged(m, f, step=step, at=(cf.name, b, ip)):
                    follows = seen["at"] == (at[0], at[1], at[2] - 1)
                    seen["run"] = seen["run"] + 1 if follows else 1
                    seen["best"] = max(seen["best"], seen["run"])
                    seen["at"] = at
                    return step(m, f)
                code[ip] = logged
    return seen


class TestRolledTraces:
    """One compiled iteration inside a real loop, budget and gap handed
    in by the run loop: every way out must land on tier-1's state."""

    # taint keeps its dual-chain ops as closure calls: the flush-before,
    # reload-after path of a member inside a rolled body
    @pytest.mark.parametrize("mode", ["blackbox", "fpm", "taint"])
    def test_every_budget_lands_on_the_tier1_state(self, mode):
        # the call leaves main's blocks as they are: both loops are
        # entered at the head SRC_ROLL's plan rolls
        plan = planned(SRC_ROLL, mode)[1]
        length = at_loop_head(reference(SRC_ROLL, mode), plan, False)[2]
        for source in (SRC_ROLL, SRC_BARRIER):
            prog, ref = planned(source, mode)[0], reference(source, mode)
            seen = watch_single_steps(prog)
            for budget in range(1, 3 * length + 4):
                a = at_loop_head(prog, plan, True)[0]
                s = at_loop_head(prog, plan, False)[0]
                b = at_loop_head(ref, plan, False)[0]
                seen.update(at=None, run=0, best=0)
                a.run(budget)
                if budget >= 32:
                    # compiled code resumes at the next entry point
                    assert seen["best"] <= 16
                s.run(budget)
                b.run(budget)
                assert_states_identical(a, b)
                assert_states_identical(s, b)
                assert a.t2_deopts == 0
                if source is SRC_ROLL:
                    # all but a tail shorter than a chunk runs compiled
                    assert a.t2_cycles_acc > budget - 16

    @pytest.mark.parametrize("bit", [0, 62])
    def test_fault_in_the_first_three_iterations_fires_like_tier1(self, bit):
        prog, plan = planned(SRC_ROLL)
        m, _, length = at_loop_head(reference(SRC_ROLL), plan, False)
        first = m.inj_counter + 1
        m.run(3 * length)
        assert m.inj_counter >= first + 3
        for occ in range(first, m.inj_counter + 1):
            faults = [FaultSpec(rank=0, occurrence=occ, bit=bit)]
            a = at_loop_head(prog, plan, True, faults)[0]
            b = at_loop_head(reference(SRC_ROLL), plan, False, faults)[0]
            while a.run(10 ** 6) is MachineStatus.READY:
                pass
            while b.run(10 ** 6) is MachineStatus.READY:
                pass
            assert len(a.injection_events) == 1
            assert_states_identical(a, b)

    def test_minority_exit_in_a_later_iteration_flushes_earlier_writes(self):
        prog, plan = planned(SRC_ROLL)
        a, head, length = at_loop_head(prog, plan, True)
        b = at_loop_head(reference(SRC_ROLL), plan, False)[0]
        f = a.call_stack[-1]
        before = list(f.regs)
        # straight into the region: nothing but the guard can end it
        sig = f.cfunc.tier2[head][0][0](a, f, 10 ** 6, 1 << 62)
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
        b = at_loop_head(reference(SRC_ROLL_TRAP), plan, False)[0]
        start = a.cycles
        assert a.run(10 ** 6) is MachineStatus.TRAPPED
        assert b.run(10 ** 6) is MachineStatus.TRAPPED
        assert a.t2_enters == 1 and a.t2_deopts == 1
        assert a.trap.cycle - start > 4 * length
        assert_states_identical(a, b)


class TestExecutionParity:
    @pytest.mark.parametrize("quantum", [1, 3, 7, 16, 64, 256, 10 ** 6])
    def test_golden_parity_across_quanta(self, quantum):
        prog, _ = planned()
        a = run_machine(prog, budget=quantum, tier2=True)
        b = run_machine(reference(SRC_LOOP), budget=quantum)
        assert a.status is MachineStatus.DONE
        assert_states_identical(a, b)
        if quantum >= 64:
            assert any(is_compiled(t[0]) for t in head_slots(prog)), \
                "no planned region entered"

    def test_no_tier2_machine_never_enters(self):
        # tier2=False means the static map: regions run, the plan's do not
        prog, _ = planned()
        b = run_machine(prog, budget=256, tier2=False)
        assert b.t2_enters > 0 and b.t2_deopts == 0
        assert not any(is_compiled(t[0]) for t in head_slots(prog))

    @pytest.mark.parametrize("occ_frac", [0.0, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize("bit", [1, 62])
    def test_armed_parity_across_occurrences(self, occ_frac, bit):
        # armed entry: a pending fault must fire on the exact same
        # occurrence, cycle and operand whether regions run or not
        prog, _ = planned()
        total = run_machine(reference(SRC_LOOP)).inj_counter
        occ = max(1, min(total, int(total * occ_frac) or 1))
        a = run_faulted(prog, SRC_LOOP, occ, bit)
        assert len(a.injection_events) == 1
        assert 0 < a.t2_cycles_acc <= a.cycles and a.t2_deopts <= a.t2_enters

    @pytest.mark.parametrize("occ", [5, 40, 90])
    def test_trap_deopt_parity(self, occ):
        # mid-region traps: fused_skew must land the trap on the exact
        # single-step virtual cycle
        run_faulted(planned(SRC_DIV)[0], SRC_DIV, occ, 60)

    @pytest.mark.parametrize("source,bit", [(SRC_DIV, 60), (SRC_LOOP, 62),
                                            (SRC_LOOP, 0)])
    def test_first_entry_deopt_parity(self, source, bit):
        # a fresh program per faulty run: the region that traps (or takes
        # the minority edge) was compiled by that very entry, so the
        # raise crosses the first-entry stub's frame — fused_skew and
        # the guard exits must still land on the single-step cycle
        total = run_machine(reference(source)).inj_counter
        for occ in range(2, total + 1, max(1, total // 12)):
            prog, _ = planned(source)
            run_faulted(prog, source, occ, bit)
            assert prog.tier2_compiled > 0

    def test_branch_divergence_deopt_parity(self):
        # faults that flip the guarded loop/if conditions exercise the
        # mid-region minority-edge exit
        prog, _ = planned()
        total = run_machine(reference(SRC_LOOP)).inj_counter
        for occ in range(1, total + 1, 7):
            for bit in (0, 33, 62):
                run_faulted(prog, SRC_LOOP, occ, bit)


class TestJobParity:
    """Whole-job parity on real apps (MPI, fpm shadow chains)."""

    @pytest.mark.parametrize("mode", ["blackbox", "fpm", "taint"])
    @pytest.mark.parametrize("app_name", ["matvec", "mcb"])
    def test_job_parity_with_faults(self, app_name, mode):
        spec = get_app(app_name)
        ref = build_program(spec.source, mode, name=spec.name,
                            config=spec.config, fuse=False)
        prog = build_program(spec.source, mode, name=spec.name,
                             config=spec.config)
        edges = {}
        golden = run_job(prog, spec.config, capture_edge_profile=edges)
        install_plan(prog, derive_plan(prog, edges))
        occ = max(2, golden.inj_counts[0] // 2)
        for faults in ([], [FaultSpec(rank=0, occurrence=occ, bit=4)],
                       [FaultSpec(rank=0, occurrence=occ, bit=62)]):
            want = run_job(ref, spec.config, faults, inj_seed=7)
            for tier2 in (None, False):
                assert_jobs_identical(
                    run_job(prog, spec.config, faults, inj_seed=7,
                            tier2=tier2), want)


# ----------------------------------------------------------------------
# Intrinsic calls: members unless they can block
# ----------------------------------------------------------------------
# one block, top to bottom: a run that spans rand() and mpi_send(), cut
# by the receive, a run cut again by the allreduce, and a last run
# through the emits to the ret
SRC_MPI = """
func main(rank: int, size: int) {
    var s: float[2];
    var r: float[2];
    var t: float[2];
    s[0] = rand() + float(rank);
    s[1] = s[0] * 0.5;
    mpi_send(&s[0], 2, (rank + 1) % size, 7);
    s[1] = s[1] + 1.0;
    mpi_recv(&r[0], 2, (rank + size - 1) % size, 7);
    r[1] = r[0] + r[1] + s[1];
    mpi_allreduce(&r[0], &t[0], 2, 0);
    emit(t[0]);
    emit(t[1] + sqrt(r[1]));
}
"""

# marked instructions on both sides of a call that traps once n is 3
SRC_MEMBER_TRAP = """
func main(rank: int, size: int) {
    var a: int[4];
    var n: int = 3;
    var p: int* = malloc(2);
    a[0] = n * 2;
    a[1] = a[0] + n;
    %s
    a[2] = a[1] * 2;
    emiti(a[2]);
}
"""

SRC_WRAP = """
func main(rank: int, size: int) {
    var big: int = 9223372036854775807;
    var a: int[5];
    a[0] = big + 1;
    a[1] = (0 - big) - 2;
    a[2] = big * 2;
    a[3] = a[0] - 1;
    a[4] = big + 0;
    for (var i: int = 0; i < 5; i += 1) { emiti(a[i]); }
}
"""

# a float buffer received into an int one: memory is untyped
SRC_FLOAT_IN_INT_OP = """
func main(rank: int, size: int) {
    var fa: float[2];
    var ia: int[2];
    fa[0] = 1.5;
    fa[1] = 2.0;
    mpi_send(&fa[0], 2, 0, 1);
    mpi_recv(&ia[0], 2, 0, 1);
    var y: int = ia[0];
    emiti(y);
    var x: int = ia[1] %s 1;
    emiti(x);
}
"""


def callee_positions(insts):
    return {inst.callee: i for i, inst in enumerate(insts)
            if isinstance(inst, Call)}


def three_ways(source, mode, nranks, quantum, faults=()):
    """The same job on the reference interpreter, the static map and
    the golden plan's; asserts they agree and returns the first."""
    from repro.core.config import RunConfig
    config = RunConfig(nranks=nranks, quantum=quantum)
    ref = build_program(source, mode, config=config, fuse=False)
    prog = build_program(source, mode, config=config)
    edges = {}
    run_job(prog, config, capture_edge_profile=edges)
    install_plan(prog, derive_plan(prog, edges))
    want = run_job(ref, config, faults)
    for tier2 in (False, None):
        assert_jobs_identical(run_job(prog, config, faults, tier2=tier2),
                              want)
    return want


class TestIntrinsicMembers:
    def test_only_blocking_intrinsics_are_flagged(self):
        from repro.vm import INTRINSICS
        blocking = {n for n, spec in INTRINSICS.items() if spec.blocking}
        assert blocking == {"mpi_recv", "mpi_sendrecv", "mpi_barrier",
                            "mpi_bcast", "mpi_allreduce", "mpi_reduce",
                            "mpi_allgather"}

    @pytest.mark.parametrize("mode", ["blackbox", "fpm", "taint"])
    def test_a_run_spans_rand_and_send_and_stops_at_recv_and_allreduce(
            self, mode):
        prog = build(SRC_MPI, mode)
        func = next(fn for fn in prog.module if fn.name == "main")
        block = max(func.blocks, key=lambda b: len(b.instructions))
        insts = block.instructions
        at = callee_positions(insts)
        chunks = tier2_mod._entry_points(insts)
        inside = {i for lo, hi in chunks for i in range(lo, hi)}
        starts = {lo for lo, _ in chunks}
        for member in ("rand", "mpi_send", "emit", "sqrt"):
            assert at[member] in inside, member
            # no entry point on its account: the next ip starts a chunk
            # only where the 16-member grid falls anyway
            run_start = max(lo for lo in starts if lo <= at[member]
                            and all(i in inside for i in range(lo, at[member])))
            assert at[member] + 1 not in starts \
                or (at[member] + 1 - run_start) % 16 == 0
        for barrier in ("mpi_recv", "mpi_allreduce"):
            assert at[barrier] not in inside, barrier
            assert at[barrier] + 1 in starts, barrier
        # and the planner's walk stops where the static chunks do
        seq, members = tier2_mod._walk(func, block.index, {})
        assert seq == [block.index]
        first_barrier = min(at["mpi_recv"], at["mpi_allreduce"])
        assert members == first_barrier

    @pytest.mark.parametrize("mode", ["blackbox", "fpm", "taint"])
    @pytest.mark.parametrize("quantum", [1, 5, 16, 256])
    def test_job_with_member_intrinsics_matches_the_reference(self, mode,
                                                              quantum):
        golden = three_ways(SRC_MPI, mode, 3, quantum)
        assert golden.status.name == "COMPLETED"
        total = golden.inj_counts[1]
        for occ in range(1, total + 1, max(1, total // 6)):
            three_ways(SRC_MPI, mode, 3, quantum,
                       [FaultSpec(rank=1, occurrence=occ, bit=51)])

    @pytest.mark.parametrize("mode", ["blackbox", "fpm"])
    @pytest.mark.parametrize("call,kind", [
        ("mpi_abort(n);", "ABORT"),
        ("free(p); free(p);", "MEM_FAULT"),
        ("p = malloc(n - 3);", "ARITH"),
    ])
    def test_member_that_traps_lands_on_the_single_stepped_cycle(
            self, call, kind, mode):
        source = SRC_MEMBER_TRAP % call
        for budget in (256, 64):
            a = run_machine(build(source, mode), budget=budget)
            b = run_machine(reference(source, mode), budget=budget)
            assert a.status is MachineStatus.TRAPPED
            assert a.trap.kind.name == kind
            assert a.t2_deopts == 1, "the call did not trap inside a region"
            assert (a.trap.cycle, a.inj_counter) \
                == (b.trap.cycle, b.inj_counter)
            assert b.inj_counter > 0
            assert_states_identical(a, b)


class TestMemberTemplates:
    """The two member lines this representation respelled: the store
    (a conditional on the right of a subscript assignment) and the
    64-bit wrap (a range test)."""

    @pytest.mark.parametrize("mode", ["blackbox", "fpm"])
    def test_inline_store_saves_the_page_before_it_writes(self, mode):
        # inside a COW transaction the store line's guard is the only
        # thing that logs the page: the allocas ran before begin_tx
        m = Machine(build(SRC_ROLL, mode), 0, 1)
        m.start()
        assert m.run(60) is MachineStatus.READY
        f = m.call_stack[-1]
        while f.cfunc.static[f.block][f.ip] is None:
            m.run(1)  # to an entry point: no store is single-stepped
        before = (repr(m.memory.words()), bytes(m.memory.valid))
        entered = m.t2_cycles_acc
        m.memory.begin_tx()
        assert m.run(10 ** 6) is MachineStatus.DONE
        assert m.t2_cycles_acc - entered > m.cycles - 80
        assert (repr(m.memory.words()), bytes(m.memory.valid)) != before
        assert m.memory.rollback_tx() == 1
        assert (repr(m.memory.words()), bytes(m.memory.valid)) == before

    def test_inline_wrap_at_the_edges_of_int64(self):
        a = run_machine(build(SRC_WRAP))
        assert a.t2_cycles_acc > 0
        assert a.outputs == [-2 ** 63, 2 ** 63 - 1, -2, 2 ** 63 - 1,
                             2 ** 63 - 1]
        assert_states_identical(a, run_machine(reference(SRC_WRAP)))

    @pytest.mark.parametrize("op", ["+", "-", "*"])
    def test_int_op_on_a_float_word_is_poison_not_a_float(self, op):
        from repro.vm import TrapKind
        res = three_ways(SRC_FLOAT_IN_INT_OP % op, "blackbox", 1, 256)
        assert res.trap.kind is TrapKind.POISON
        assert res.outputs == [[1.5]]  # moving it is fine; adding is not
