"""Compiled regions: every line of generated code the VM runs.

:mod:`repro.vm.compiler` turns each instruction into a closure; this
module turns straight-line runs of instructions into *regions* — one
``exec``-compiled function each, registers as locals, memory operations
(the FPM dual-chain pair included) inlined against the ``cells`` list,
cycle accounting folded into one per-entry increment.  There is one
generator (:func:`_codegen`) and one contract, whatever the region
covers.

**Entry points** (:func:`_entry_points`) are fixed by the module alone:
within a block, the start of every straight-line run — the block head
and the ip after each barrier (a user call, or a call to an intrinsic
that can block: :func:`_is_member`) — and every ``_GRID``-th member of
a run after it.  :func:`install_static` gives each one a region covering
its own chunk (at most ``_GRID`` members; a terminator may close it).
Those need no profile and fill both of a function's region maps.

During golden profiling the conditional-branch closures record per-site
edge counts (``machine.edge_profile``).  :func:`derive_plan` gives each
block whose body has no barrier one golden successor — its static
target or the *majority* edge of its profiled branch — and plans the
cycles of that graph as *loops* and every other block head as a *path*
along it, cut where it first reaches a loop.  :func:`install_plan`
replaces *head* slots of the ``CompiledFunction.tier2`` map: every
block of a loop gets an entry into the loop's one region — a generator,
pooled between entries, with one iteration's members inside a real
``while`` loop, registers in Python locals across iterations, entered at
any block of the cycle (:func:`_loop_source`) — and a path's first block a
*straight* region that leaves to the loop's head.  Installing compiles
nothing: a region is codegenned the first time the run loop enters one
of its slots, so each process pays only for the code it runs, and a
loop only once.

The run loop hands every entry the remaining quantum budget ``rem`` and
the armed occurrence ``gap``; the region decides how far it may go.
Guards, and how each maps onto the machine contract:

* **fork-epoch / quantum boundary** — a straight region crosses a block
  boundary or a grid ip only while the members up to the next such
  point fit ``rem``, and leaves to that ``(block, ip)`` otherwise; a
  loop runs the chunk that does not fit on its guarded side, stops on
  the exact member where ``rem`` runs out and *suspends* there, its
  registers still in locals, until the machine's next quantum resumes
  it (or a read of the frames *settles* it: :func:`settle_loop`).
  Either way epoch structure (and with it ``GoldenCursor`` pause points,
  CML sampling and MPI interleaving) is bit-identical to single-step
  dispatch;
* **injection pending** — the same checks keep the marked instructions
  executed strictly below ``gap``, so a region only bulk-advances the
  occurrence counter of a fault that is still waiting, and the fault
  fires on the exact single-stepped marked instruction;
* **branch divergence** — every majority-edge branch inside a region is
  a one-line guard: when the minority edge is taken (a faulty trial
  leaving the golden path, or a loop running out), the region flushes
  its registers, stores the exact cycles consumed in
  ``machine.tier2_cycles``, settles the injection-counter prefix and
  stages the real successor block — with traps the only exits counted
  as deopts (``machine.t2_deopts``): running out of budget or gap is
  how an entry is meant to end;
* **trap** — every member is one source line, so a raising member is
  recovered from the traceback line number (a loop's from its frame, by
  :func:`loop_trap`): the members completed land in
  ``machine.fused_skew`` and the marked instructions executed in
  ``machine.inj_counter``, and the trap lands on the same virtual cycle
  as single-step dispatch.

Plans (not code objects) are JSON-safe dicts so they ride golden
artifacts across workers: installation from a cached plan re-runs only
validation, never profiling or planning.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Optional, Tuple

import re
import time
import warnings
from types import FunctionType

from ..ir import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    Cmp,
    Copy,
    FpmLoad,
    FpmStore,
    Load,
    Register,
    Ret,
    Store,
)
from .compiler import (
    _PURE_KINDS,
    _TERM_KINDS,
    SIG_JUMP,
    CompiledProgram,
    _compile_entry,
    _fpm_load_pristine,
    _fpm_store,
    _injectable_operands,
)
from . import rng as _rng
from .intrinsics import get_intrinsic
from .ops import BINOP_FUNCS, CAST_FUNCS, CMP_FUNCS
from .traps import Trap, TrapKind

#: plan schema version, embedded in every plan dict; bump on any change
#: to the walk or codegen contract so stale artifact plans are ignored
#: (v2: one rolled or straight path per head — no cap, no unrolling;
#: v3: calls to non-blocking intrinsics are members, not barriers;
#: v4: one loop per cycle of the golden successor graph, entered at any
#: of its blocks, and paths cut where they reach one)
PLAN_VERSION = 4

#: members between two entry points of a straight-line run.  A region is
#: entered only when its first chunk fits the remaining quantum, so this
#: is also the most members a quantum's tail ever single-steps.
_GRID = 16


def _is_marked(inst) -> bool:
    """Does ``inst`` advance ``machine.inj_counter`` when it executes?"""
    return inst.inject_site is not None and bool(_injectable_operands(inst))


def _is_member(inst) -> bool:
    """Does ``inst`` always fall through?  The pure kinds do, and so
    does a call to an intrinsic that can never return ``BLOCK``; a user
    call (``SIG_CALL``) or a blocking intrinsic (``SIG_BLOCK``) is a
    barrier no region contains."""
    if isinstance(inst, Call):
        spec = get_intrinsic(inst.callee)
        return spec is not None and not spec.blocking
    return isinstance(inst, _PURE_KINDS)


def _entry_points(insts) -> List[Tuple[int, int]]:
    """``(lo, hi)`` member ranges of one block's static regions.

    A straight-line run is a maximal sequence of members
    (:func:`_is_member`), closed by the block terminator when it reaches
    one; barriers cut runs and belong to none.  Each run is chunked
    every ``_GRID`` members; a lone instruction gains nothing from
    generated code and gets no entry point.
    """
    runs = []
    start = None
    for i, inst in enumerate(insts):
        if _is_member(inst):
            if start is None:
                start = i
        elif start is not None:
            runs.append((start, i + isinstance(inst, _TERM_KINDS)))
            start = None
    if start is not None:
        runs.append((start, len(insts)))
    return [(lo, hi) for a, b in runs for lo in range(a, b, _GRID)
            if (hi := min(lo + _GRID, b)) - lo >= 2]


# ----------------------------------------------------------------------
# Planning: follow the golden-hot path
# ----------------------------------------------------------------------

def _static_target(inst) -> Optional[int]:
    """Compile-time successor of a terminator, or None when dynamic."""
    if isinstance(inst, Br):
        return inst.target.index
    tt = inst.iftrue.index
    tf = inst.iffalse.index
    if not isinstance(inst.cond, Register):
        return tt if inst.cond.value else tf
    if tt == tf:
        return tt
    return None


def _successors(func, edge_profile: dict) -> List[Tuple[int, Optional[int]]]:
    """``(members, successor)`` of every block of ``func``.

    ``members`` is what a path running through the block executes: up
    to its first barrier, else through its terminator.  ``successor`` is
    the block's one golden successor — its static target or the
    *majority* edge of its profiled branch — or None at a barrier, a
    ``ret``, or a branch whose golden edge counts are missing or tied
    (dual-exit: no majority to guard on; the branch then closes the
    path and is dispatched through its real closure).
    """
    out = []
    for b, block in enumerate(func.blocks):
        count, nxt = 0, None
        for inst in block.instructions:
            if isinstance(inst, _TERM_KINDS):
                count += 1
                if not isinstance(inst, Ret):
                    nxt = _static_target(inst)
                    counts = edge_profile.get((func.name, b))
                    if nxt is None and counts and counts[0] != counts[1]:
                        nxt = (inst.iftrue.index if counts[1] > counts[0]
                               else inst.iffalse.index)
                break
            if not _is_member(inst):
                break  # barrier
            count += 1
        out.append((count, nxt))
    return out


def _cycles(succ: List[Optional[int]]) -> List[List[int]]:
    """Every cycle of the successor graph (each block has at most one
    out-edge, so cycles are disjoint), each rotated to start at its
    lowest block."""
    state = [0] * len(succ)  # 0 unseen, 1 on the current walk, 2 done
    found = []
    for b in range(len(succ)):
        walk = []
        x: Optional[int] = b
        while x is not None and state[x] == 0:
            state[x] = 1
            walk.append(x)
            x = succ[x]
        if x is not None and state[x] == 1:
            cyc = walk[walk.index(x):]
            low = cyc.index(min(cyc))
            found.append(cyc[low:] + cyc[:low])
        for y in walk:
            state[y] = 2
    return found


def derive_plan(program: CompiledProgram,
                edge_profile: Optional[dict]) -> dict:
    """Plan regions for ``program`` from golden edge counts.

    Each block's golden successor (:func:`_successors`) makes a graph in
    which every block has at most one out-edge.  Each cycle of it is one
    *loop* record — its blocks in order and one iteration's members —
    and every other block head gets a *path* record that follows
    successors until it first reaches a cycle block (the path leaves to
    that block's head, its last element) or a block without one (the
    path ends inside it).  A path that executes a single block is what
    the static regions already cover and is not planned.

    Deterministic in (module, edge_profile): the same golden run yields
    the same plan on every worker.  The result is JSON-safe and travels
    inside golden artifacts; :func:`install_plan` re-derives the member
    structure from the module, so only block sequences and counts are
    stored.
    """
    loops: List[dict] = []
    paths: List[dict] = []
    profile = edge_profile or {}
    for func in program.module:
        walked = _successors(func, profile)
        cycles = _cycles([nxt for _, nxt in walked])
        on_cycle = {b for cyc in cycles for b in cyc}
        for cyc in cycles:
            loops.append({"func": func.name, "blocks": cyc,
                          "members": sum(walked[b][0] for b in cyc)})
        for head in range(len(walked)):
            if head in on_cycle:
                continue
            seq, count, cur = [head], 0, head
            while True:
                members, nxt = walked[cur]
                count += members
                if nxt is None:
                    break
                seq.append(nxt)
                if nxt in on_cycle:
                    break
                cur = nxt
            # a last block entered at a barrier adds nothing: the path
            # leaves to its head
            if len(seq) - (nxt is not None or members == 0) > 1:
                paths.append({"func": func.name, "blocks": seq,
                              "members": count})
    return {"version": PLAN_VERSION, "loops": loops, "paths": paths}


# ----------------------------------------------------------------------
# Member lines: one instruction, one line of source
# ----------------------------------------------------------------------

def _ld_trap(addr):
    raise Trap(TrapKind.MEM_FAULT, f"load from invalid address {addr}")


def _st_trap(addr):
    raise Trap(TrapKind.MEM_FAULT, f"store to invalid address {addr}")


#: the 64-bit wrap's bounds, bound by name into every region using it
_WRAP = {"_N": -(1 << 63), "_S": 1 << 63, "_M": (1 << 64) - 1}
#: :class:`repro.vm.rng.Lcg64`'s constants, for the inline ``rand``
_LCG = {"_LM": _rng._MULT, "_LI": _rng._INC, "_LK": _rng._MASK,
        "_L53": _rng._INV53}

#: ops whose 64-bit wrap can be spelled out inline
_INLINE_INT_OPS = {"add": "+", "sub": "-", "mul": "*", "padd": "+",
                   "psub": "-"}
#: IEEE float ops that are plain Python operators
_INLINE_FLOAT_OPS = {"fadd": "+", "fsub": "-", "fmul": "*"}
#: comparison predicates that are plain Python operators (NaN falls out
#: of every ordered predicate as False, matching the closure lambdas)
_INLINE_PREDS = {"eq": "==", "ne": "!=", "slt": "<", "sle": "<=",
                 "sgt": ">", "sge": ">=", "oeq": "==", "olt": "<",
                 "ole": "<=", "ogt": ">", "oge": ">="}

#: what a member line needs bound in the region prelude
_REGS_ONLY, _NEEDS_MEM, _NEEDS_FPM = 0, 1, 2


def _operand_expr(val, name: str, binds: dict) -> str:
    """Expression string for an operand: register slot, int literal, or a
    name bound as a default parameter (floats, whose literals can be
    unparseable — inf/nan)."""
    if isinstance(val, Register):
        return f"regs[{val.index}]"
    v = val.value
    if isinstance(v, int):
        return repr(v)
    binds[name] = v
    return name


def _member_line(inst, tag: str):
    """``inst``'s semantics spelled out as one source line, or None.

    Returns ``(line, binds, needs)``: the line, the names it wants bound
    as default parameters (``tag`` keeps them unique per member) and
    which prelude it relies on.  The line must match the instruction's
    closure in every observable — results, trap kinds *and* trap
    messages.  Kinds without a line (the taint-mode memory ops) are
    called as closures.

    A store is ``cells[a] = v if <guards> else <trap or slow path>``:
    Python evaluates the conditional before the subscript store, so the
    validity trap and the COW page save both precede the write and the
    member stays one source line.

    The dual-chain store's fast path covers exactly the stores that
    leave the shadow table as it is (pristine address chain, value
    chains equal, a clean address — every address while the table is
    empty); anything else defers to the store rule itself
    (:func:`repro.vm.compiler._fpm_store`) on the same
    line, so contamination met mid-region (post-fire tails) stays exact.
    The dual-chain load reads a corrupted address's pristine value
    through :func:`repro.vm.compiler._fpm_load_pristine` the same way.
    """
    binds: dict = {}
    if isinstance(inst, BinOp):
        d, op = inst.dest.index, inst.op
        a = _operand_expr(inst.lhs, f"c{tag}a", binds)
        b = _operand_expr(inst.rhs, f"c{tag}b", binds)
        if op in _INLINE_INT_OPS:
            v = f"v{tag}"
            # ops.wrap_i64, spelled out: a range test, no bignum
            binds.update(_WRAP)
            line = (f"{v} = {a} {_INLINE_INT_OPS[op]} {b}; "
                    f"regs[{d}] = {v} if {v}.__class__ is int "
                    f"and _N <= {v} < _S else (({v} + _S) & _M) - _S")
        elif op in _INLINE_FLOAT_OPS:
            line = f"regs[{d}] = {a} {_INLINE_FLOAT_OPS[op]} {b}"
        else:
            binds[f"g{tag}"] = BINOP_FUNCS[op]
            line = f"regs[{d}] = g{tag}({a}, {b})"
        return line, binds, _REGS_ONLY

    if isinstance(inst, Cmp):
        d = inst.dest.index
        a = _operand_expr(inst.lhs, f"c{tag}a", binds)
        b = _operand_expr(inst.rhs, f"c{tag}b", binds)
        sym = _INLINE_PREDS.get(inst.pred)
        if sym is not None:
            line = f"regs[{d}] = 1 if {a} {sym} {b} else 0"
        else:
            binds[f"g{tag}"] = CMP_FUNCS[(inst.kind, inst.pred)]
            line = f"regs[{d}] = g{tag}({a}, {b})"
        return line, binds, _REGS_ONLY

    if isinstance(inst, Copy):
        src = _operand_expr(inst.src, f"c{tag}", binds)
        return f"regs[{inst.dest.index}] = {src}", binds, _REGS_ONLY

    if isinstance(inst, Cast):
        d, src, op = inst.dest.index, inst.src, inst.op
        if not isinstance(src, Register):
            binds[f"c{tag}"] = CAST_FUNCS[op](src.value)
            line = f"regs[{d}] = c{tag}"
        elif op in ("ptrtoint", "inttoptr"):
            line = f"regs[{d}] = regs[{src.index}]"
        elif op == "sitofp":
            line = f"regs[{d}] = float(regs[{src.index}])"
        else:
            binds[f"g{tag}"] = CAST_FUNCS[op]
            line = f"regs[{d}] = g{tag}(regs[{src.index}])"
        return line, binds, _REGS_ONLY

    if isinstance(inst, Alloca):
        return (f"regs[{inst.dest.index}] = mem.stack_alloc({inst.count})",
                binds, _NEEDS_MEM)

    if isinstance(inst, Load):
        binds[f"lt{tag}"] = _ld_trap
        a = f"a{tag}"
        a_src = _operand_expr(inst.addr, a, binds)
        line = (f"{a} = {a_src}; "
                f"regs[{inst.dest.index}] = cells[{a}] "
                f"if 0 <= {a} < cap and valid[{a}] else lt{tag}({a})")
        return line, binds, _NEEDS_MEM

    if isinstance(inst, Store):
        # the COW guard rides the validity conditional: `co(a)` saves
        # the pristine page and returns truthy, so an un-owned page is
        # privatised before the cell write
        binds[f"st{tag}"] = _st_trap
        a = f"a{tag}"
        a_src = _operand_expr(inst.addr, a, binds)
        v = _operand_expr(inst.value, f"c{tag}", binds)
        line = (f"{a} = {a_src}; "
                f"cells[{a}] = {v} if 0 <= {a} < cap and valid[{a}] "
                f"and (owned[{a} >> psh] or co({a})) "
                f"else st{tag}({a})")
        return line, binds, _NEEDS_MEM

    if isinstance(inst, FpmLoad) and not inst.taint:
        binds[f"lt{tag}"] = _ld_trap
        binds[f"lp{tag}"] = _fpm_load_pristine
        a_src = _operand_expr(inst.addr, f"c{tag}a", binds)
        p_src = _operand_expr(inst.addr_p, f"c{tag}p", binds)
        a, q, v = f"a{tag}", f"q{tag}", f"v{tag}"
        line = (
            f"{a} = {a_src}; "
            f"{v} = cells[{a}] if 0 <= {a} < cap and valid[{a}] "
            f"else lt{tag}({a}); "
            f"{q} = {p_src}; "
            f"regs[{inst.dest.index}] = {v}; "
            f"regs[{inst.dest_p.index}] = "
            f"((ht.get({a}, {v}) if ht else {v}) "
            f"if {q} == {a} else lp{tag}(m, {q}, {v}))"
        )
        return line, binds, _NEEDS_FPM

    if isinstance(inst, FpmStore) and not inst.taint:
        binds[f"sl{tag}"] = _fpm_store
        a_src = _operand_expr(inst.addr, f"c{tag}a", binds)
        p_src = _operand_expr(inst.addr_p, f"c{tag}p", binds)
        v_src = _operand_expr(inst.value, f"c{tag}v", binds)
        w_src = _operand_expr(inst.value_p, f"c{tag}w", binds)
        a, q, v, w = f"a{tag}", f"q{tag}", f"v{tag}", f"w{tag}"
        line = (
            f"{a} = {a_src}; {q} = {p_src}; "
            f"{v} = {v_src}; {w} = {w_src}; "
            f"cells[{a}] = {v} if ({q} == {a} and (not ht or {a} not in ht) "
            f"and ({v} == {w} or ({v} != {v} and {w} != {w})) "
            f"and 0 <= {a} < cap and valid[{a}] "
            f"and (owned[{a} >> psh] or co({a}))) "
            f"else sl{tag}(m, {a}, {v}, {w}, {q})"
        )
        return line, binds, _NEEDS_FPM

    if isinstance(inst, Call):
        if inst.callee == "rand" and inst.dest is not None:
            # Lcg64.next_float spelled out: the same state, no frames
            binds.update(_LCG)
            u = f"u{tag}"
            line = (f"rg{tag} = m.rng; "
                    f"{u} = rg{tag}.state = (rg{tag}.state * _LM + _LI) & _LK; "
                    f"regs[{inst.dest.index}] = ({u} >> 11) * _L53")
            return line, binds, _REGS_ONLY
        # a non-blocking intrinsic (:func:`_is_member`): handlers take
        # argument values, never the frame, so promoted registers need
        # no flush around the call
        binds[f"h{tag}"] = get_intrinsic(inst.callee).handler
        args = ", ".join(_operand_expr(arg, f"c{tag}_{k}", binds)
                         for k, arg in enumerate(inst.args))
        line = f"h{tag}(m, ({args},))" if args else f"h{tag}(m, ())"
        if inst.dest is not None:
            line = f"regs[{inst.dest.index}] = {line}"
        return line, binds, _REGS_ONLY

    return None


# ----------------------------------------------------------------------
# Codegen: one exec-compiled function per region
# ----------------------------------------------------------------------

def _collect(func, seq: List[int], members: int, start: int = 0):
    """Walk a block sequence from ``(seq[0], start)`` into codegen records.

    Returns ``(records, end)`` — records are ``(inst, kind, arg)``
    tuples with kind in ``pure`` / ``br`` (statically-known successor,
    a no-op line; ``arg`` is that block) / ``condbr`` (guarded majority
    edge, ``arg`` the expected successor) / ``ret`` / ``exit``
    (region-closing dynamic branch dispatched through its profiling
    closure, ``arg`` its branch-site identity) / ``check`` (no
    instruction and no member: the grid entry point ``arg = (block,
    ip)``, where the region may leave) — and ``end`` is where dispatch
    resumes after a full region: ``(block, ip)``, or None when the
    final member stages its own successor; a loop's iteration, walked as
    its cycle closed on its first block, ends at ``(seq[0], 0)``.
    Returns None whenever the path does not match the module (plans
    travel through artifacts, so validate defensively rather than
    trust).
    """
    out: List[Tuple[object, str, object]] = []
    n = 0  # members so far: every record but the checks
    pos, cur, lo = 0, seq[0], start
    nblocks = len(func.blocks)
    while True:
        if not 0 <= cur < nblocks:
            return None
        insts = func.blocks[cur].instructions
        term_next = None
        for ip in range(lo, len(insts)):
            inst = insts[ip]
            if n == members:
                return out, (cur, ip)
            if ip > lo and (ip - lo) % _GRID == 0:
                out.append((None, "check", (cur, ip)))
            if isinstance(inst, _TERM_KINDS):
                nxt = seq[pos + 1] if pos + 1 < len(seq) else None
                n += 1
                if isinstance(inst, Ret):
                    if nxt is not None:
                        return None
                    out.append((inst, "ret", None))
                    return (out, None) if n == members else None
                tgt = _static_target(inst)
                if tgt is not None:
                    if nxt is not None and nxt != tgt:
                        return None
                    out.append((inst, "br", tgt))
                elif nxt is None:
                    out.append((inst, "exit", (func.name, cur)))
                    return (out, None) if n == members else None
                elif nxt in (inst.iftrue.index, inst.iffalse.index):
                    out.append((inst, "condbr", nxt))
                    tgt = nxt
                else:
                    return None
                if n == members:
                    return out, (tgt, 0)
                if nxt is None:
                    return None
                term_next = nxt
                break
            if not _is_member(inst):
                return None  # barrier where the path expected members
            out.append((inst, "pure", None))
            n += 1
        else:
            return None  # block without terminator
        pos += 1
        cur, lo = term_next, 0


#: register-slot references in generated member lines; every operand and
#: destination is spelled ``regs[<int literal>]`` by the templates
_REG_RE = re.compile(r"regs\[(\d+)\]")
#: write positions only: ``regs[K] = <expr>`` (the lookahead rejects the
#: ``regs[K] == other`` comparisons the Cmp template emits)
_REG_WRITE_RE = re.compile(r"regs\[(\d+)\] = (?!=)")
#: exit-line placeholder the promotion pass replaces with flush code
_FLUSH = "§F§"


def _promote(member_lines, line_dests, loop: bool, guards=None):
    """Promote ``regs[K]`` slots to Python locals ``rK``.

    Register traffic dominates region bodies once dispatch and the fpm
    closures are gone; list indexing loses to ``LOAD_FAST``/
    ``STORE_FAST`` by a wide margin, so every slot a region reads before
    writing it is loaded into a local up front and every dirty slot is
    written back at every exit:

    * guard and checkpoint lines flush (the ``_FLUSH`` placeholder)
      before staging where they leave to;
    * closure-dispatched members (``line_dests`` is not None) flush
      before the call and reload the destinations it names after it,
      all on the member's own source line — region-closing terminators
      too (``ret`` pops the frame: flushing after would hit the wrong
      frame);
    * the epilogue flushes before staging ``end``.

    In a straight region a slot is dirty from its first write on.  In a
    rolled one (``loop``) every slot the body writes is dirty — and so
    loaded — at every point: from the second iteration on, an exit early
    in the body follows writes late in the previous iteration.

    ``guards`` (one prefix per line, or None) goes in front of a line,
    and in front of a closure member's flush and reload too.

    The *trap* path deliberately does not flush: nothing observes a
    TRAPPED machine's registers (results come from memory, the shadow
    table and the trap).  Returns ``(lines, prelude_loads, flush)``.
    """
    line_writes = [[int(x) for x in _REG_WRITE_RE.findall(line)]
                   for line in member_lines]
    out = []
    # insertion-ordered for deterministic codegen; a loop's closure
    # destinations too: an entry past its first block may read one
    # before any reload in this entry
    dirty = dict.fromkeys(
        [k for ws in line_writes for k in ws]
        + [k for ds in line_dests if ds for k in ds]) if loop else {}
    load = set(dirty)   # slots the prelude loads
    bound = set(dirty)  # slots whose local holds a value so far

    def flush():
        return "".join(f"regs[{k}] = r{k}; " for k in dirty)

    for line, dests, writes, guard in zip(member_lines, line_dests,
                                          line_writes,
                                          guards or [""] * len(line_dests)):
        # a slot read and written on one line counts as read first
        reads = {int(x) for x in
                 _REG_RE.findall(_REG_WRITE_RE.sub("", line))}
        load |= reads - bound
        if dests is None:
            line = _REG_RE.sub(r"r\1", line)
            out.append(guard + (line.replace(_FLUSH, flush())
                                if _FLUSH in line else line))
        else:
            out.append(guard + flush() + line
                       + "".join(f"; r{k} = regs[{k}]" for k in dests))
        bound.update(reads, writes, dests or ())
        dirty.update(dict.fromkeys(writes))
    loads = "; ".join(f"r{k} = regs[{k}]" for k in sorted(load))
    flushes = "; ".join(f"regs[{k}] = r{k}" for k in dirty)
    return out, loads, flushes


def _first_chunk(records) -> Tuple[int, int]:
    """Members and marked instructions up to a region's first stop line
    — what the run loop must see fit before it enters."""
    members = marked = 0
    for inst, kind, _ in records:
        if kind == "check":
            break
        members += 1
        marked += _is_marked(inst)
        if kind != "pure":
            break
    return members, marked


def _block_starts(records) -> List[int]:
    """Index of each block's first record in a loop iteration's
    records: every cycle block ends in a branch to the next."""
    return [0] + [i + 1 for i, rec in enumerate(records[:-1])
                  if rec[1] in ("br", "condbr")]


def _codegen(records, end, program: CompiledProgram, label: str,
             starts: Optional[List[int]] = None):
    """exec-compile one region function from its records.

    ``region(m, f, rem, gap)`` runs members while they fit in ``rem``
    cycles and execute fewer than ``gap`` marked instructions: the run
    loop has checked the first chunk, and every *stop line* — a
    terminator or a grid checkpoint — with members after it checks the
    members up to the next one and leaves to its ``(block, ip)`` when
    they do not fit.

    A loop (``starts``: where each cycle block begins in ``records``,
    one iteration from the cycle's first block) is a generator instead
    (:func:`_loop_source`); what it returns is its ``enter(m, f, rem,
    gap)``, called like a straight region.

    Every member is exactly one source line, so a raising member is
    found from the traceback line number: ``_skew`` maps the line to the
    members completed before it (checkpoint lines are not members) and
    ``_pfx`` to the marked instructions executed through it.
    """
    env: Dict[str, object] = {}
    member_lines: List[str] = []
    line_dests: List[Optional[list]] = []  # slots a closure call may write
    aways: Dict[int, Tuple[str, int]] = {}  # condbr line -> (away, other)
    needs = _REGS_ONLY
    # members completed / marked instructions executed through each line
    upto = list(accumulate(int(rec[1] != "check") for rec in records))
    pfx = list(accumulate(int(rec[1] != "check" and _is_marked(rec[0]))
                          for rec in records))
    for i, (inst, kind, arg) in enumerate(records):
        line, dests = "", None
        if kind == "pure":
            inline = _member_line(inst, f"_{i}")
            if inline is not None:
                line, binds, need = inline
                env.update(binds)
                needs = max(needs, need)
            else:
                line = f"s{i}(m, f)"
                env[f"s{i}"] = _compile_entry(inst, program)[1]  # bare
                dests = [getattr(inst, a).index for a in ("dest", "dest_p")
                         if getattr(inst, a, None) is not None]
        elif kind == "condbr":
            # the branch is a guard on its majority edge: ``away`` is
            # true when it takes the other one
            tt = inst.iftrue.index
            aways[i] = ((f"not regs[{inst.cond.index}]", inst.iffalse.index)
                        if arg == tt else (f"regs[{inst.cond.index}]", tt))
        elif kind in ("ret", "exit"):
            # the terminator closure closes the region
            line, dests = f"sig = s{i}(m, f)", []
            env[f"s{i}"] = _compile_entry(inst, program, arg)[1]
        member_lines.append(line)
        line_dests.append(dests)

    prelude = "regs = f.regs"
    if needs >= _NEEDS_MEM:
        # malloc grows ``cells`` in place, so the bind stays live
        prelude += ("; mem = m.memory; cells = mem.cells; "
                    "valid = mem.valid; cap = mem.capacity; "
                    "owned = mem.page_owned; psh = mem.page_shift; "
                    "co = mem.cow_page")
    if needs >= _NEEDS_FPM:
        # the dict is mutated in place by every shadow-table op, so the
        # bind stays live across members (restore() replaces the object,
        # and drops any loop region suspended on it)
        prelude += "; ht = m.fpm.table"
    if starts is not None:
        return _loop_source(records, end, starts, env, member_lines,
                            line_dests, upto, pfx, aways, prelude, label)

    # stop line -> the line whose members it must see fit before going on
    stops = [i for i, rec in enumerate(records) if rec[1] != "pure"]
    ahead = {a: b for a, b in zip(stops, stops[1:] + [len(records) - 1])
             if upto[a] < upto[b]}
    # how an exit settles once x, y, c, k, d hold where it leaves to,
    # the members and marked instructions it completed, and whether it
    # deopts
    tail = ("f.block = x; f.ip = y; m.t2_deopts += d; "
            "m.tier2_cycles = c; m.inj_counter += k; return 1")
    for i, (inst, kind, arg) in enumerate(records):
        if kind not in ("check", "br", "condbr"):
            continue
        # control flow is resolved at codegen time; a branch still costs
        # its cycle (one member line) and is where the region leaves: to
        # the minority successor (a deopt), or to the expected one when
        # what follows overruns budget or gap
        block, ip = arg if kind == "check" else (arg, 0)
        away, deopt = None, 0
        if i in aways:
            away, other = aways[i]
            block = f"{other} if {away} else {arg}"
            deopt = f"1 if {away} else 0"
        conds = [away] if away else []
        if i in ahead:
            j = ahead[i]
            conds.append(f"rem < {upto[j]}")
            if pfx[j]:
                conds.append(f"gap <= {pfx[j]}")
        member_lines[i] = (f"if {' or '.join(conds)}: x = {block}; "
                           f"y = {ip}; c = {upto[i]}; k = {pfx[i]}; "
                           f"d = {deopt}; " + _FLUSH + tail
                           if conds else "pass")
    body, reg_loads, reg_flushes = _promote(member_lines, line_dests, False)
    if reg_loads:
        prelude += "; " + reg_loads
    env["_skew"] = tuple(u - (rec[1] != "check")
                         for u, rec in zip(upto, records))
    env["_pfx"] = tuple(pfx)
    params = ", ".join(f"{nm}={nm}" for nm in env)
    lines = [f"def region(m, f, rem, gap, {params}):",
             "    try:", f"        {prelude}"]
    first_line = len(lines) + 1
    lines += ["        " + line for line in body]
    lines += ["    except BaseException as e:",
              f"        p = e.__traceback__.tb_lineno - {first_line}",
              "        m.fused_skew = _skew[p]",
              "        m.inj_counter += _pfx[p]",
              "        m.t2_deopts += 1", "        raise"]
    if reg_flushes and end is not None:
        lines.append(f"    {reg_flushes}")
    total, marked = upto[-1], pfx[-1]
    lines.append(f"    m.tier2_cycles = {total}"
                 + (f"; m.inj_counter += {marked}" if marked else ""))
    lines.append("    return sig" if end is None else
                 f"    f.block = {end[0]}; f.ip = {end[1]}; return 1")
    exec(compile("\n".join(lines), f"<tier2:{label}>", "exec"), env)
    return env["region"]


def _loop_source(records, end, starts, env, member_lines, line_dests, upto,
                 pfx, aways, prelude, label):
    """The loop form of :func:`_codegen`: ``region`` is a generator that
    runs entries sent to it and waits for the next one; ``enter`` —
    what the slots hold, one per cycle block ``k`` — takes an idle one
    from the loop's ``pool`` (or starts one), sends it the entry and
    puts it back when it leaves, or hands it to the machine when it
    suspends (``m.t2_cont``).

    One iteration is a run of *chunks*, each the members up to the next
    stop line, and each written twice, side by side:

    * the *steady* copy, taken while the chunk fits the budget and stays
      short of the armed gap — one test per chunk and none per member;
    * the *guarded* copy, taken when it does not: the gap falling inside
      the chunk leaves the region before it (a pending fault fires
      single-stepped), and the budget running out inside it stops on
      the exact member: ``rem > i or (rem := rem + (yield ...))`` yields
      with the registers still in locals, and the machine's next
      ``run`` sends the new budget in and the chunk goes on from that
      member.  The next chunk fits again and is steady.

    An entry past the cycle's first block (``_sk``, ``_sg``, ``_ss``)
    biases ``rem`` by ``-_BIG`` so every chunk before its own takes
    neither side; its own chunk removes the bias.  Exits ``break`` to
    one shared flush-and-settle tail and wait at the top for the next
    entry, holding nothing of the machine they ran on.

    The generator has no handler of its own, so a dropped one closes
    without touching a counter: a trap is settled from its traceback by
    :func:`loop_trap`, a suspension from its frame by :func:`settle_loop`.
    """
    total, marked = upto[-1], pfx[-1]
    head = end[0]
    # per member index: marked instructions before it, where it sits
    pm, at = [0], []
    blocks = [head] + [records[b - 1][2] for b in starts[1:]]
    for k, lo in enumerate(starts):
        hi = starts[k + 1] if k + 1 < len(starts) else len(records)
        ip = 0
        for i in range(lo, hi):
            if records[i][1] != "check":
                pm.append(pm[-1] + _is_marked(records[i][0]))
                at.append((blocks[k], ip))
                ip += 1
    skipped = [upto[b - 1] if b else 0 for b in starts]
    env["_sk"] = (0,) + tuple(n - _BIG for n in skipped[1:])
    env["_sg"] = tuple(pm[n] for n in skipped)
    env["_ss"] = tuple(skipped)
    arrivals = set(skipped[1:])

    def exit_line(block, ip, c, k, deopt):
        return (f"x = {block}; y = {ip}; c = {c}; k = {k}; d = {deopt}; "
                "break")

    # chunks: (first member, start (block, ip), fit line, record indices)
    chunks, cur, start_at = [], [], (head, 0)
    for i, (inst, kind, arg) in enumerate(records):
        if kind != "check":
            cur.append(i)
        if kind != "pure":
            if cur:
                chunks.append((upto[cur[0]] - 1, start_at, cur[-1], cur))
            cur = []
            start_at = arg if kind == "check" else (arg, 0)

    # (indent depth, record index or None, line, guard prefix)
    layout = [(2, None, "while True:", "")]
    for lo, (block, ip), j, recs in chunks:
        over, short = upto[j], pfx[j]
        misfits = f"rem < {over}" + (f" or gap <= {short}" if short else "")
        steady, guarded = [], []
        for i in recs:
            t = upto[i] - 1
            stop = (f"rem > {t} or (rem := rem + (yield "
                    + (f"{pm[t]} - gap" if pm[t] else "-gap") + "))")
            if records[i][1] == "pure":
                steady.append((4, i, member_lines[i], ""))
                guarded.append((4, i, member_lines[i], stop + "; "))
                continue
            guarded.append((4, i, stop, ""))
            if i in aways:
                away, other = aways[i]
                line = f"if {away}: " + exit_line(other, 0, upto[i],
                                                  pfx[i], 1)
                steady.append((4, None, line, ""))
                guarded.append((4, None, line, ""))
        # the steady side last: it falls through to the next chunk
        layout.append((3, None, f"if {misfits}:", ""))
        layout.append((4, None, "if rem >= 0" + (
            f" or s <= {lo}:" if lo in arrivals else ":"), ""))
        if lo in arrivals:
            layout.append((5, None, f"if rem < 0: rem += {_BIG}", ""))
        if short:
            layout.append((5, None, f"if gap <= {short}: " + exit_line(
                block, ip, lo, pm[lo], 0), ""))
        layout += [(5, x, line, guard) for _, x, line, guard in guarded]
        layout.append((3, None, "else:", ""))
        layout += steady or [(4, None, "pass", "")]
    layout.append((3, None, f"rem -= {total}; gap -= {marked}", ""))
    body, reg_loads, reg_flushes = _promote(
        [line for _, _, line, _ in layout],
        [line_dests[x] if x is not None else None for _, x, _, _ in layout],
        True, [guard for _, _, _, guard in layout])
    if reg_loads:
        prelude += "; " + reg_loads
    params = ", ".join(f"{nm}={nm}" for nm in env)
    # read from the generator's frame, never by its body: per layout
    # line, the member it runs or stops before (structural lines cannot
    # raise) and the marked instructions executed through it; per
    # member, its (block, ip); the slots a settle flushes
    env["_skew"] = tuple(upto[x] - 1 if x is not None else 0
                         for _, x, _, _ in layout)
    env["_pfx"] = tuple(pfx[x] if x is not None else 0
                        for _, x, _, _ in layout)
    env["_at"] = tuple(at)
    env["_flush"] = tuple(int(k) for k in _REG_RE.findall(reg_flushes))
    env["loop_trap"] = loop_trap
    env["pool"] = []
    # what an idle generator lets go of: the machine, frame and memory
    # objects the prelude bound
    held = " = ".join(["m", "f"] + [
        part.split(" = ")[0] for part in prelude.split("; ")
        if not _REG_RE.search(part) and not part.startswith(("cap", "psh"))])
    lines = [f"def region({params}):",
             "    m, f, rem, gap, s = yield",
             "    while True:",
             f"        rem0 = rem; gap0 = gap; {prelude}",
             "        if s: rem += _sk[s]; gap += _sg[s]; s = _ss[s]"]
    env["_first"] = len(lines) + 1
    lines += ["    " * depth + line for (depth, *_), line in zip(layout, body)]
    if reg_flushes:
        lines.append(f"        {reg_flushes}")
    lines += ["        f.block = x; f.ip = y; m.t2_deopts += d; "
              "m.tier2_cycles = rem0 - rem + c; "
              f"m.inj_counter += gap0 - gap + k; {held} = None",
              "        m, f, rem, gap, s = yield 1",
              "def enter(m, f, rem, gap, k=0):",
              "    if pool:",
              "        g = pool.pop()",
              "    else:",
              "        g = region()",
              "        next(g)",
              "    try:",
              "        sig = g.send((m, f, rem, gap, k))",
              "    except Exception as e:",
              "        loop_trap(m, e, region.__code__)",
              "        raise",
              "    if sig < 0:",
              "        m.t2_cont = g",
              "    else:",
              "        pool.append(g)",
              "    return sig"]
    exec(compile("\n".join(lines), f"<tier2:{label}>", "exec"), env)
    return env["enter"]


#: bias that sends every chunk ahead of a mid-cycle entry past both of
#: its sides: larger than any budget
_BIG = 1 << 60


def _loop_frame(frame, lineno: int):
    """A loop region's frame: its tables, the layout line ``lineno``
    maps to, and its locals."""
    env = frame.f_globals
    return env, lineno - env["_first"], frame.f_locals


def loop_trap(m, exc: BaseException, code) -> None:
    """Settle a loop region a member raised in, as a straight region's
    handler does: the members completed before the raising one land in
    ``m.fused_skew`` and the marked instructions executed through it in
    ``m.inj_counter``, both counted from the region's entry."""
    tb = exc.__traceback__
    while tb.tb_frame.f_code is not code:
        tb = tb.tb_next
    env, p, loc = _loop_frame(tb.tb_frame, tb.tb_lineno)
    m.fused_skew = loc["rem0"] - loc["rem"] + env["_skew"][p]
    m.inj_counter += loc["gap0"] - loc["gap"] + env["_pfx"][p]
    m.t2_deopts += 1


def settle_loop(m, gen) -> None:
    """End a loop region suspended at a quantum boundary: flush its
    registers and stage the ``(block, ip)`` of the member it stopped
    before.  Its cycles and marked instructions were counted when it
    suspended, so nothing else is owed; the caller drops the generator."""
    frame = gen.gi_frame
    env, p, loc = _loop_frame(frame, frame.f_lineno)
    f = loc["f"]
    regs = f.regs
    for k in env["_flush"]:
        regs[k] = loc[f"r{k}"]
    f.block, f.ip = env["_at"][env["_skew"][p]]


# ----------------------------------------------------------------------
# Installation: slots that compile themselves on first entry
# ----------------------------------------------------------------------

def _lazy_slots(program: CompiledProgram, cfunc, label: str, build,
                entries) -> List[list]:
    """Region-map slots whose code is built on the first entry at any.

    ``entries`` lists ``(block, ip, (members, marked))`` — where a slot
    is entered and its first chunk — and ``build()`` returns one region
    function per entry.  A slot is ``[closure, members, marked]``: the
    run loop enters ``closure`` when the first chunk's ``members`` fit
    its budget and its ``marked`` count stays below the armed gap.  The
    closure installed here is called exactly like a compiled region: it
    builds the regions, swaps them into every ``slot[0]`` (re-read at
    every entry, so machines mid-run pick them up) and runs its own — a
    trap inside that first run propagates exactly as from a compiled
    region.

    A codegen failure is a harness fault, never an application trap: it
    must not reach the run loop's trap clause.  The slots are taken out
    of the maps instead, with one warning (a planned head falls back to
    its static region) and the closure reports a zero-cycle jump to its
    own entry point, so dispatch retries there with no state touched.
    """
    slots = [[None, *first] for _, _, first in entries]

    def compiled() -> bool:
        t0 = time.perf_counter()
        try:
            regions = build()
        except Exception as exc:
            regions = None
            warnings.warn(f"tier-2 codegen failed for {label}: {exc!r}; "
                          f"the region is declined", stacklevel=3)
        program.tier2_codegen_s += time.perf_counter() - t0
        if regions is None:
            for (block, ip, _), slot in zip(entries, slots):
                static, profiled = cfunc.static[block], cfunc.tier2[block]
                if static[ip] is slot:
                    static[ip] = None
                if profiled[ip] is slot:
                    profiled[ip] = static[ip]
            return False
        for slot, region in zip(slots, regions):
            slot[0] = region
        program.tier2_compiled += 1
        return True

    def stub(slot, ip):
        def first_entry(m, f, rem, gap):
            if not compiled():
                m.tier2_cycles = 0
                f.ip = ip
                return SIG_JUMP
            m.t2_compiled += 1
            return slot[0](m, f, rem, gap)
        return first_entry

    for (_, ip, _), slot in zip(entries, slots):
        slot[0] = stub(slot, ip)
    program.tier2_traces += len(slots)
    return slots


def _straight(program: CompiledProgram, cfunc, func, seq: List[int],
              ip: int, members: int, first: Tuple[int, int]) -> list:
    """The slot of the path ``seq`` entered at ``(seq[0], ip)``."""
    label = f"{func.name}:b{seq[0]}" + (f"+{ip}" if ip else "")

    def build():
        records, end = _collect(func, seq, members, ip)
        return [_codegen(records, end, program, label)]

    return _lazy_slots(program, cfunc, label, build,
                       [(seq[0], ip, first)])[0]


def _loop(program: CompiledProgram, cfunc, func, cycle: List[int],
          members: int, records) -> None:
    """Fill the head slot of every block of ``cycle`` with an entry into
    its one loop region (``records``: one iteration, validated)."""
    label = f"{func.name}:loop@b{cycle[0]}"
    starts = _block_starts(records)

    def build():
        enter = _codegen(*_collect(func, cycle + cycle[:1], members),
                         program, label, starts)
        # one code object, entered at block k by binding k
        return [enter] + [
            FunctionType(enter.__code__, enter.__globals__, enter.__name__,
                         (k,)) for k in range(1, len(cycle))]

    slots = _lazy_slots(program, cfunc, label, build, [
        (b, 0, _first_chunk(records[lo:])) for b, lo in zip(cycle, starts)])
    for b, slot in zip(cycle, slots):
        cfunc.tier2[b][0] = slot


def install_static(program: CompiledProgram) -> None:
    """Fill both region maps of every function with the static regions:
    one slot per entry point, covering that entry point's own chunk.
    Walks the module once and compiles nothing."""
    for func in program.module:
        cfunc = program.functions[func.name]
        for b, block in enumerate(func.blocks):
            insts = block.instructions
            for lo, hi in _entry_points(insts):
                marked = sum(_is_marked(inst) for inst in insts[lo:hi])
                cfunc.static[b][lo] = cfunc.tier2[b][lo] = _straight(
                    program, cfunc, func, [b], lo, hi - lo,
                    (hi - lo, marked))


def install_plan(program: CompiledProgram, plan: Optional[dict]) -> int:
    """Validate ``plan`` and install its regions into ``program``.

    Replaces head slots (``CompiledFunction.tier2[block][0]``) in place,
    so machines constructed before installation pick the regions up on
    their next jump to that head; the static map is untouched.  A loop
    fills the head slot of every block of its cycle, a path that of its
    first block.  Every plan record is walked against the module here
    (:func:`_collect`) and each slot carries what the run loop tests
    before entering — the first chunk from its block; codegen waits for
    the first entry (:func:`_lazy_slots`).  Idempotent: a program is
    installed at most once per process.  Invalid or stale records
    (module drift, unknown functions, out-of-range or already planned
    blocks) are skipped, never raised — those heads keep their static
    regions; a bad plan must not kill a campaign.  Returns
    ``program.tier2_traces``, the slots installed in both maps.
    """
    if program.tier2_installed:
        return program.tier2_traces
    if plan and plan.get("version") == PLAN_VERSION:
        funcs = {fn.name: fn for fn in program.module}
        for kind in ("loops", "paths"):
            for rec in plan.get(kind, ()):
                func = funcs.get(rec.get("func"))
                cfunc = program.functions.get(rec.get("func"))
                seq = rec.get("blocks")
                members = rec.get("members")
                if (func is None or cfunc is None
                        or not isinstance(members, int) or members <= 0
                        or not isinstance(seq, list) or not seq
                        or not all(isinstance(b, int) for b in seq)):
                    continue
                loop = kind == "loops"
                heads = seq if loop else seq[:1]
                # each head is planned once: a record naming a block
                # twice, or one an earlier record planned, is skipped
                if (loop and len(set(seq)) != len(seq)) or not all(
                        0 <= b < len(cfunc.tier2)
                        and cfunc.tier2[b][0] is cfunc.static[b][0]
                        for b in heads):
                    continue
                walked = _collect(func, seq + seq[:1] if loop else seq,
                                  members)
                if walked is None:
                    continue
                if not loop:
                    cfunc.tier2[seq[0]][0] = _straight(
                        program, cfunc, func, seq, 0, members,
                        _first_chunk(walked[0]))
                elif walked[1] == (seq[0], 0):
                    _loop(program, cfunc, func, seq, members, walked[0])
    program.tier2_installed = True
    return program.tier2_traces
