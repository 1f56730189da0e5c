"""Differential fuzzing: random programs through every build mode.

Generates random (but always-valid, always-terminating) MiniHPC programs
and checks the cross-cutting invariants of the whole stack:

* black-box, FPM and taint builds compute identical outputs on fault-free
  runs (instrumentation must be semantics-preserving);
* fault-free FPM/taint runs never contaminate their shadow state;
* dynamic injection-site counts agree across builds (fault plans are
  transferable between modes);
* under an injected fault, the taint build never reports *less*
  contamination than the dual chain on loop-free programs (the only
  programs this generator makes with no computed store addresses);
* compiled regions, static and golden-planned, are invisible: every job
  equals the closure-only reference interpreter's bit for bit.

The generator is deliberately conservative: array indices stay in bounds
and loop bounds are literals or read-only array cells, so a fault-free
run can never trap — any trap here is a compiler/VM bug, not a program bug.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import RunConfig
from repro.core.runner import build_program, run_job
from repro.mpi import JobStatus
from repro.vm import FaultSpec, Lcg64, derive_plan, install_plan
from tests.conftest import assert_jobs_identical


class ProgramGen:
    """Seeded random MiniHPC program generator.

    ``loops=False`` keeps every array subscript a literal: the only
    computed addresses the generator ever emits are ``name[ivar]``
    stores inside for-loops.  A fault that lands on a loop induction
    variable makes the primary chain store to *different addresses*
    than a fault-free run, and the taint table (which only marks where
    tainted stores actually landed) cannot see the location the
    pristine run would have written — so taint-dominance only holds
    for loop-free programs.

    For the region generator's sake a loop may call a helper mid-block
    (compiled code resumes at the ip after it), run to a bound loaded
    from memory on every iteration, and carry a straight-line run longer
    than the 16-member entry-point grid — free of user calls, but with
    intrinsic calls among its members (``rand()``, ``sqrt()``, ``emit()``:
    impure with a result, pure, void), as a loop's own store may have.
    """

    #: contents of the trip-count array ``cnt``, never written after init
    COUNTS = (2, 3, 5, 7)
    HELPER = ("func mix(x: float, y: float) -> float {\n"
              "    if (x < y) { return x * 0.75 + y; }\n"
              "    return y - x * 0.25;\n}\n")

    def __init__(self, seed: int, loops: bool = True) -> None:
        self.rng = Lcg64(seed)
        self.loops = loops
        self.arrays = []   # (name, size, elem)
        self.scalars = []  # (name, type)
        self.uid = 0

    def fresh(self, prefix: str) -> str:
        self.uid += 1
        return f"{prefix}{self.uid}"

    def pick(self, items):
        return items[self.rng.next_int(len(items))]

    # ------------------------------------------------------------------
    def float_expr(self, depth: int = 0) -> str:
        choices = ["lit", "lit"]
        if self.scalars:
            choices.append("scalar")
        if self.arrays:
            choices.append("elem")
        if depth < 3:
            choices += ["bin", "bin", "call"]
        kind = self.pick(choices)
        if kind == "lit":
            return f"{(self.rng.next_int(800) - 200) / 16.0}"
        if kind == "scalar":
            name, t = self.pick(self.scalars)
            return name if t == "float" else f"float({name})"
        if kind == "elem":
            name, size, elem = self.pick(self.arrays)
            idx = self.rng.next_int(size)
            e = f"{name}[{idx}]"
            return e if elem == "float" else f"float({e})"
        if kind == "call":
            fn = self.pick(["fabs", "sqrt", "sin", "cos"])
            inner = self.float_expr(depth + 1)
            if fn == "sqrt":
                inner = f"fabs({inner})"
            return f"{fn}({inner})"
        op = self.pick(["+", "-", "*"])
        return f"({self.float_expr(depth + 1)} {op} {self.float_expr(depth + 1)})"

    def int_expr(self, depth: int = 0) -> str:
        kind = self.pick(["lit", "lit", "bin"] if depth < 2 else ["lit"])
        if kind == "lit":
            return str(self.rng.next_int(40))
        op = self.pick(["+", "-", "*"])
        return f"({self.int_expr(depth + 1)} {op} {self.int_expr(depth + 1)})"

    # ------------------------------------------------------------------
    def statement(self, depth: int = 0) -> str:
        kinds = ["assign", "assign", "assign"]
        if depth < 2:
            kinds += ["if", "loop", "loop"] if self.loops else ["if", "if"]
            kinds.append("straight")
        kind = self.pick(kinds)
        if kind == "assign":
            if self.arrays and self.rng.next_int(2):
                name, size, elem = self.pick(self.arrays)
                idx = self.rng.next_int(size)
                rhs = self.float_expr() if elem == "float" else \
                    f"int({self.float_expr()})"
                return f"{name}[{idx}] = {rhs};"
            if self.scalars:
                name, t = self.pick(self.scalars)
                rhs = self.float_expr() if t == "float" else self.int_expr()
                return f"{name} = {rhs};"
            return ""
        if kind == "if":
            cond = f"{self.float_expr()} < {self.float_expr()}"
            body = self.statement(depth + 1)
            other = self.statement(depth + 1)
            return (f"if ({cond}) {{ {body} }} else {{ {other} }}")
        name, size, elem = self.pick(self.arrays)
        if kind == "straight":
            return self.straight(name, size, elem)
        # loop over an array, bounded by a literal or a memory cell; the
        # body one store, with or without a call in mid-block, and with
        # an emit, a long straight-line run or nothing behind it
        ivar = self.fresh("i")
        bound = self.pick([str(size)] + [f"cnt[{j}]" for j, c in
                                         enumerate(self.COUNTS) if c <= size])
        cur = f"{name}[{ivar}]"
        if elem == "float":
            rhs = self.pick([cur, f"mix({cur}, {cur} - 1.5)",
                             f"({cur} + rand())"]) \
                + f" * 0.5 + {self.float_expr()}"
        else:
            rhs = self.pick([cur, f"int(mix(float({cur}), 2.5))",
                             f"({cur} + int(rand() * 3.0))"]) \
                + f" + {self.int_expr()}"
        out = f"emit({cur});" if elem == "float" else f"emiti({cur});"
        tail = self.pick(["", self.straight(name, size, elem), out])
        return (f"for (var {ivar}: int = 0; {ivar} < {bound}; {ivar} += 1) "
                f"{{ {name}[{ivar}] = {rhs}; {tail} }}")

    def straight(self, name: str, size: int, elem: str) -> str:
        """Six-plus statements of seven-plus members each over literal
        subscripts: no user call, no growth (values shrink to the
        constants), and every other one with an intrinsic call in it."""
        is_float = elem == "float"
        scale = ("* 0.25", "* 0.5") if is_float else ("/ 4", "/ 2")
        lines = []
        for _ in range(6 + self.rng.next_int(3)):
            i, j, k = (self.rng.next_int(size) for _ in range(3))
            first, after = f"{name}[{j}]", ""
            extra = self.pick(["", "", "", "rand", "sqrt", "emit"])
            if extra == "rand":
                after = " + rand()" if is_float else " + int(rand() * 4.0)"
            elif extra == "sqrt":
                first = f"sqrt(fabs({first}))" if is_float else \
                    f"int(sqrt(fabs(float({first}))))"
            lines.append(f"{name}[{i}] = ({first} {scale[0]} + "
                         f"{name}[{k}] {scale[1]}) - {self.int_expr(2)}"
                         f"{after};")
            if extra == "emit":
                lines.append(f"emit({name}[{i}]);" if is_float else
                             f"emiti({name}[{i}]);")
        return " ".join(lines)

    def generate(self) -> str:
        decls = [f"var cnt: int[{len(self.COUNTS)}];"]
        decls += [f"cnt[{j}] = {c};" for j, c in enumerate(self.COUNTS)]
        for _ in range(1 + self.rng.next_int(3)):
            name = self.fresh("a")
            size = 2 + self.rng.next_int(6)
            elem = self.pick(["float", "float", "int"])
            self.arrays.append((name, size, elem))
            decls.append(f"var {name}: {elem}[{size}];")
        for _ in range(1 + self.rng.next_int(3)):
            name = self.fresh("s")
            t = self.pick(["float", "int"])
            self.scalars.append((name, t))
            init = "0.0" if t == "float" else "0"
            decls.append(f"var {name}: {t} = {init};")

        body = [self.statement() for _ in range(4 + self.rng.next_int(6))]
        emits = []
        for name, size, elem in self.arrays:
            fn = "emit" if elem == "float" else "emiti"
            emits.append(f"{fn}({name}[{size - 1}]);")
        for name, t in self.scalars:
            emits.append(f"emit({name});" if t == "float" else f"emiti({name});")

        return (
            self.HELPER + "func main(rank: int, size: int) {\n    "
            + "\n    ".join(decls + body + emits)
            + "\n}"
        )


def _run(source, mode, faults=()):
    config = RunConfig(nranks=1)
    program = build_program(source, mode, config=config)
    return run_job(program, config, faults=faults, max_cycles=2_000_000), program


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_modes_agree_on_clean_runs(seed):
    source = ProgramGen(seed).generate()
    results = {}
    for mode in ("blackbox", "fpm", "taint"):
        res, _ = _run(source, mode)
        assert res.status is JobStatus.COMPLETED, \
            f"seed {seed} ({mode}): {res.trap}\n{source}"
        results[mode] = res
    assert results["fpm"].outputs == results["blackbox"].outputs, source
    assert results["taint"].outputs == results["blackbox"].outputs, source
    assert not results["fpm"].any_contaminated, source
    assert not results["taint"].any_contaminated, source
    counts = {m: r.inj_counts for m, r in results.items()}
    assert counts["fpm"] == counts["blackbox"] == counts["taint"], source


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=10 ** 6))
def test_taint_dominates_dual_chain_under_faults(seed, fault_seed):
    # loops=False: dominance requires literal addresses — a fault on a
    # loop induction variable diverts the primary chain's stores to
    # addresses taint never marks (see ProgramGen docstring)
    source = ProgramGen(seed, loops=False).generate()
    clean, prog = _run(source, "fpm")
    total = clean.inj_counts[0]
    if total == 0:
        return
    rng = Lcg64(fault_seed)
    occ = 1 + rng.next_int(total)
    bit = rng.next_int(50)  # below exponent: keep values finite-ish
    fault = [FaultSpec(0, occ, bit=bit)]
    dual, _ = _run(source, "fpm", faults=fault)
    taint, _ = _run(source, "taint", faults=fault)
    if dual.status is not JobStatus.COMPLETED or \
            taint.status is not JobStatus.COMPLETED:
        return
    d_cml = dual.trace.final_cml if dual.trace else 0
    t_cml = taint.trace.final_cml if taint.trace else 0
    # data-flow-only programs (no computed addresses): taint >= exact
    assert t_cml >= d_cml, (source, occ, bit)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=10 ** 6))
@example(seed=1658, fault_seed=0)
def test_regions_match_the_reference_interpreter(seed, fault_seed):
    # one program, three ways: closures only (the reference), the static
    # regions (tier2=False), and the golden plan's regions on top
    source = ProgramGen(seed).generate()
    rng = Lcg64(fault_seed)
    for mode in ("blackbox", "fpm", "taint"):
        config = RunConfig(nranks=1)
        reference = build_program(source, mode, config=config, fuse=False)
        program = build_program(source, mode, config=config)
        edges = {}
        golden = run_job(program, config, capture_edge_profile=edges)
        assert golden.status is JobStatus.COMPLETED, (source, golden.trap)
        install_plan(program, derive_plan(program, edges))
        # a fault may turn a loop bound into 2**62: keep hangs short
        knobs = dict(inj_seed=fault_seed, max_cycles=4 * golden.cycles + 1000)
        plans = [()]
        total = golden.inj_counts[0]
        if total:  # ProgramGen(1658) marks no instruction at all
            plans.append([FaultSpec(0, 1 + rng.next_int(total),
                                    bit=rng.next_int(64))])
        for quantum in (1, 3, 7, 16, 256):
            cfg = config.with_(quantum=quantum)
            for faults in plans:
                want = run_job(reference, cfg, faults, **knobs)
                for tier2 in (False, None):
                    assert_jobs_identical(
                        run_job(program, cfg, faults, tier2=tier2, **knobs),
                        want)


def test_generated_runs_and_loops_carry_intrinsic_members():
    # what the region property above is worth: members that call
    # intrinsics inside the straight-line runs and the loop bodies
    from repro.ir import Call
    from repro.vm import tier2

    # the example pinned above is still the program with nothing to hit
    assert _run(ProgramGen(1658).generate(), "fpm")[0].inj_counts == [0]
    seen = set()
    in_loop = set()
    for seed in range(40):
        source = ProgramGen(seed).generate()
        program = build_program(source, "blackbox",
                                config=RunConfig(nranks=1))
        for func in program.module:
            for block in func.blocks:
                insts = block.instructions
                for lo, hi in tier2._entry_points(insts):
                    seen.update(i.callee for i in insts[lo:hi]
                                if isinstance(i, Call))
        for line in source.splitlines():
            if line.lstrip().startswith("for ("):
                in_loop.update(fn for fn in ("rand(", "sqrt(", "emit")
                               if fn in line)
    assert {"rand", "sqrt", "emit", "emiti", "fabs"} <= seen
    assert "mix" not in seen
    assert in_loop == {"rand(", "sqrt(", "emit"}
