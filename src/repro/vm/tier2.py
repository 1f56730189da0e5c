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
edge counts (``machine.edge_profile``).  :func:`derive_plan` walks each
block head along static branches and the *majority* edge of every
profiled one, across block boundaries, until the path jumps back onto
itself, and :func:`install_plan` replaces the *head* slots of the
``CompiledFunction.tier2`` map with regions covering those paths: a
path that returns to its own head becomes a *rolled* region — one
iteration's members inside a real ``while`` loop, registers in Python
locals across iterations — any other a *straight* one.  Installing
compiles nothing: a region is codegenned the first time the run loop
enters its slot, so each process pays only for the code it runs.

The run loop hands every entry the remaining quantum budget ``rem`` and
the armed occurrence ``gap``; the region decides how far it may go.
Guards, and how each maps onto the machine contract:

* **fork-epoch / quantum boundary** — a region crosses a block boundary
  or a grid ip (and a rolled one starts another iteration) only while
  the members up to the next such point fit ``rem``, and leaves to that
  ``(block, ip)`` otherwise, so epoch structure (and with it
  ``GoldenCursor`` pause points, CML sampling and MPI interleaving) is
  bit-identical to single-step dispatch;
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
  recovered from the traceback line number: the members completed land
  in ``machine.fused_skew`` and the marked instructions executed in
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
    _injectable_operands,
)
from .intrinsics import get_intrinsic
from .ops import BINOP_FUNCS, CAST_FUNCS, CMP_FUNCS
from .traps import Trap, TrapKind

#: plan schema version, embedded in every plan dict; bump on any change
#: to the walk or codegen contract so stale artifact plans are ignored
#: (v2: one rolled or straight path per head — no cap, no unrolling;
#: v3: calls to non-blocking intrinsics are members, not barriers)
PLAN_VERSION = 3

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


def _walk(func, head: int, edge_profile: dict):
    """Follow the golden-hot path from block ``head``.

    Returns ``(seq, members)``: the block-index sequence and the member
    count.  The walk ends at a barrier, a ``ret``, a branch whose
    golden edge counts are missing or tied (dual-exit: no majority to
    guard on), or a jump onto a block the path already holds, which
    closes ``seq``: its own head (the path loops) or a later block
    (the path ends at that block's head).
    """
    seq = [head]
    count = 0
    cur = head
    while True:
        for inst in func.blocks[cur].instructions:
            if isinstance(inst, _TERM_KINDS):
                count += 1
                if isinstance(inst, Ret):
                    return seq, count
                nxt = _static_target(inst)
                if nxt is None:
                    counts = edge_profile.get((func.name, cur))
                    if not counts or counts[0] == counts[1]:
                        # no majority edge: the branch itself closes the
                        # path (dispatched through its real closure)
                        return seq, count
                    nxt = (inst.iftrue.index if counts[1] > counts[0]
                           else inst.iffalse.index)
                break
            if not _is_member(inst):
                return seq, count  # barrier
            count += 1
        else:
            return seq, count  # unterminated block (defensive)
        seq.append(nxt)
        if nxt in seq[:-1]:
            return seq, count
        cur = nxt


def derive_plan(program: CompiledProgram,
                edge_profile: Optional[dict]) -> dict:
    """Plan head regions for ``program`` from golden edge counts.

    Deterministic in (module, edge_profile): the same golden run yields
    the same plan on every worker.  The result is JSON-safe and travels
    inside golden artifacts; :func:`install_plan` re-derives the member
    structure from the module, so only block sequences and counts are
    stored.  A path that ends inside its head block is what the static
    regions already cover and is not planned.
    """
    traces: List[dict] = []
    profile = edge_profile or {}
    for func in program.module:
        for head in range(len(func.blocks)):
            seq, count = _walk(func, head, profile)
            if len(seq) > 1:
                traces.append({"func": func.name, "head": head,
                               "blocks": [int(b) for b in seq],
                               "members": int(count)})
    return {"version": PLAN_VERSION, "traces": traces}


# ----------------------------------------------------------------------
# Member lines: one instruction, one line of source
# ----------------------------------------------------------------------

def _ld_trap(addr):
    raise Trap(TrapKind.MEM_FAULT, f"load from invalid address {addr}")


def _st_trap(addr):
    raise Trap(TrapKind.MEM_FAULT, f"store to invalid address {addr}")


_M64_LIT = repr((1 << 64) - 1)
_SIGN_LIT = repr(1 << 63)

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


def _fpm_store_slow(m, addr, v, vp, addr_p):
    """Slow path of the inlined dual-chain store.

    Mirrors :func:`repro.vm.compiler._compile_fpm_store` (non-taint)
    exactly — validity trap, COW, shadow-table bookkeeping — but takes
    the already-evaluated operand *values* instead of re-reading
    ``f.regs``, so it stays correct when the region has promoted
    registers to locals.  The cell write itself is the member line's:
    this is the else arm of its ``cells[a] = ...`` and returns ``v``
    for it, after every check that can trap."""
    mem = m.memory
    if not (0 <= addr < mem.capacity and mem.valid[addr]):
        raise Trap(TrapKind.MEM_FAULT, f"store to invalid address {addr}")
    fpm = m.fpm
    if not mem.page_owned[addr >> mem.page_shift]:
        mem.cow_page(addr)
    if addr_p == addr:
        if v == vp or v != v and vp != vp:  # equal, or both NaN
            if addr in fpm.table:
                del fpm.table[addr]
        else:
            fpm.record(addr, vp, m.cycles)
    else:
        # wrong-address store: the cell keeps its own pristine value
        fpm.update(addr, v, fpm.table.get(addr, mem.cells[addr]), m.cycles)
        if 0 <= addr_p < mem.capacity and mem.valid[addr_p]:
            fpm.update(addr_p, mem.cells[addr_p], vp, m.cycles)
    return v


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

    The dual-chain store's fast path covers exactly the golden case
    (pristine address chain, empty shadow table, value chains equal);
    anything else defers to :func:`_fpm_store_slow` on the same line,
    so contamination met mid-region (post-fire tails) stays exact.
    """
    binds: dict = {}
    if isinstance(inst, BinOp):
        d, op = inst.dest.index, inst.op
        a = _operand_expr(inst.lhs, f"c{tag}a", binds)
        b = _operand_expr(inst.rhs, f"c{tag}b", binds)
        if op in _INLINE_INT_OPS:
            v = f"v{tag}"
            # ops.wrap_i64, spelled out: a range test, no bignum
            line = (f"{v} = {a} {_INLINE_INT_OPS[op]} {b}; "
                    f"regs[{d}] = {v} if {v}.__class__ is int "
                    f"and -{_SIGN_LIT} <= {v} < {_SIGN_LIT} else "
                    f"(({v} + {_SIGN_LIT}) & {_M64_LIT}) - {_SIGN_LIT}")
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
            f"if {q} == {a} else "
            f"(ht.get({q}, cells[{q}]) "
            f"if 0 <= {q} < cap and valid[{q}] else {v}))"
        )
        return line, binds, _NEEDS_FPM

    if isinstance(inst, FpmStore) and not inst.taint:
        binds[f"sl{tag}"] = _fpm_store_slow
        a_src = _operand_expr(inst.addr, f"c{tag}a", binds)
        p_src = _operand_expr(inst.addr_p, f"c{tag}p", binds)
        v_src = _operand_expr(inst.value, f"c{tag}v", binds)
        w_src = _operand_expr(inst.value_p, f"c{tag}w", binds)
        a, q, v, w = f"a{tag}", f"q{tag}", f"v{tag}", f"w{tag}"
        line = (
            f"{a} = {a_src}; {q} = {p_src}; "
            f"{v} = {v_src}; {w} = {w_src}; "
            f"cells[{a}] = {v} if ({q} == {a} and not ht "
            f"and ({v} == {w} or ({v} != {v} and {w} != {w})) "
            f"and 0 <= {a} < cap and valid[{a}] "
            f"and (owned[{a} >> psh] or co({a}))) "
            f"else sl{tag}(m, {a}, {v}, {w}, {q})"
        )
        return line, binds, _NEEDS_FPM

    if isinstance(inst, Call):
        # a non-blocking intrinsic (:func:`_is_member`): handlers take
        # argument values, never the frame, so promoted registers need
        # no flush around the call
        binds[f"h{tag}"] = get_intrinsic(inst.callee).handler
        args = ", ".join(_operand_expr(arg, f"c{tag}_{k}", binds)
                         for k, arg in enumerate(inst.args))
        line = f"h{tag}(m, [{args}])"
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
    final member stages its own successor; ``end == (seq[0], 0)`` is a
    path that loops, to be rolled.  Returns None whenever the path does
    not match the module (plans travel through artifacts, so validate
    defensively rather than trust).
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


def _promote(member_lines, line_dests, loop: bool):
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

    The *trap* path deliberately does not flush: nothing observes a
    TRAPPED machine's registers (results come from memory, the shadow
    table and the trap).  Returns ``(lines, prelude_loads, flush)``.
    """
    line_writes = [[int(x) for x in _REG_WRITE_RE.findall(line)]
                   for line in member_lines]
    out = []
    # insertion-ordered for deterministic codegen
    dirty = dict.fromkeys(k for ws in line_writes for k in ws) if loop else {}
    load = set(dirty)   # slots the prelude loads
    bound = set(dirty)  # slots whose local holds a value so far

    def flush():
        return "".join(f"regs[{k}] = r{k}; " for k in dirty)

    for line, dests, writes in zip(member_lines, line_dests, line_writes):
        # a slot read and written on one line counts as read first
        reads = {int(x) for x in
                 _REG_RE.findall(_REG_WRITE_RE.sub("", line))}
        load |= reads - bound
        if dests is None:
            line = _REG_RE.sub(r"r\1", line)
            out.append(line.replace(_FLUSH, flush()) if _FLUSH in line
                       else line)
        else:
            out.append(flush() + line
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


def _codegen(records, end, loop: bool, program: CompiledProgram, label: str):
    """exec-compile one region function from its records.

    ``region(m, f, rem, gap)`` runs members while they fit in ``rem``
    cycles and execute fewer than ``gap`` marked instructions: the run
    loop has checked the first chunk, and every *stop line* — a
    terminator or a grid checkpoint — with members after it checks the
    members up to the next one and leaves to its ``(block, ip)`` when
    they do not fit.  A rolled region (``loop``) wraps one iteration in
    ``while True``, counts ``rem``/``gap`` down after it and goes round
    again while the first chunk still fits; its exits all flush the
    same slots, so they ``break`` to one shared flush-and-settle tail
    instead of each carrying its own.

    Every record is exactly one source line, so a raising member is
    found from the traceback line number: ``_skew`` maps the line to the
    members completed before it (checkpoint lines are not members) and
    ``_pfx`` to the marked instructions executed through it, both added
    on top of the iterations already completed.
    """
    env: Dict[str, object] = {}
    member_lines: List[str] = []
    line_dests: List[Optional[list]] = []  # slots a closure call may write
    needs = _REGS_ONLY
    # members completed / marked instructions executed through each line
    upto = list(accumulate(int(rec[1] != "check") for rec in records))
    pfx = list(accumulate(int(rec[1] != "check" and _is_marked(rec[0]))
                          for rec in records))
    total, marked = upto[-1], pfx[-1]
    # cycles / marked instructions of the iterations already completed
    done = "rem0 - rem + " if loop else ""
    owed = "gap0 - gap + " if loop else ""
    # how an exit settles once x, y, c, k, d hold where it leaves to, the
    # members and marked instructions it completed, and whether it deopts
    tail = (f"f.block = x; f.ip = y; m.t2_deopts += d; "
            f"m.tier2_cycles = {done}c; m.inj_counter += {owed}k; return 1")
    # stop line -> the line whose members it must see fit before going on
    stops = [i for i, rec in enumerate(records) if rec[1] != "pure"]
    ahead = {a: b for a, b in zip(stops, stops[1:] + [len(records) - 1])
             if upto[a] < upto[b]}

    def short(j):
        """Condition: members through line ``j`` overrun budget or gap."""
        return f"rem < {upto[j]}" + (f" or gap <= {pfx[j]}" if pfx[j] else "")

    def leave(i, conds, block, ip, deopt):
        return (f"if {' or '.join(conds)}: x = {block}; y = {ip}; "
                f"c = {upto[i]}; k = {pfx[i]}; d = {deopt}; "
                + ("break" if loop else _FLUSH + tail))

    for i, (inst, kind, arg) in enumerate(records):
        if kind == "pure":
            inline = _member_line(inst, f"_{i}")
            if inline is not None:
                line, binds, need = inline
                env.update(binds)
                member_lines.append(line)
                line_dests.append(None)
                needs = max(needs, need)
            else:
                nm = f"s{i}"
                env[nm] = _compile_entry(inst, program)[1]  # bare closure
                member_lines.append(f"{nm}(m, f)")
                line_dests.append([
                    getattr(inst, a).index for a in ("dest", "dest_p")
                    if getattr(inst, a, None) is not None])
        elif kind == "check":
            line_dests.append(None)
            member_lines.append(leave(i, [short(ahead[i])], *arg, 0))
        elif kind in ("br", "condbr"):
            # control flow is resolved at codegen time; the branch still
            # costs its cycle (one member line) and is where the region
            # leaves: to the minority successor (a deopt), or to the
            # expected one when what follows overruns budget or gap
            conds = [short(ahead[i])] if i in ahead else []
            block, deopt = arg, 0
            if kind == "condbr":
                ci = inst.cond.index
                tt = inst.iftrue.index
                other = inst.iffalse.index if arg == tt else tt
                away = f"not regs[{ci}]" if arg == tt else f"regs[{ci}]"
                conds.insert(0, away)
                block = f"{other} if {away} else {arg}"
                deopt = f"1 if {away} else 0"
            line_dests.append(None)
            member_lines.append(leave(i, conds, block, 0, deopt)
                                if conds else "pass")
        else:  # ret / exit: the terminator closure closes the region
            nm = f"s{i}"
            env[nm] = _compile_entry(inst, program, arg)[1]
            member_lines.append(f"sig = {nm}(m, f)")
            line_dests.append([])
    member_lines, reg_loads, reg_flushes = _promote(
        member_lines, line_dests, loop)

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
        # but never mid-quantum, let alone mid-region)
        prelude += "; ht = m.fpm.table"
    if reg_loads:
        prelude += "; " + reg_loads
    # + the two loop-footer lines, which cannot raise
    env["_skew"] = tuple(n - (rec[1] != "check")
                         for n, rec in zip(upto, records)) + (total,) * 2
    env["_pfx"] = tuple(pfx) + (marked,) * 2
    params = ", ".join(f"{nm}={nm}" for nm in env)
    lines = [f"def region(m, f, rem, gap, {params}):",
             "    try:",
             f"        {prelude}"]
    indent = " " * (12 if loop else 8)
    if loop:
        lines.insert(1, "    rem0 = rem; gap0 = gap")
        lines.append("        while True:")
    first_line = len(lines) + 1
    lines.extend(indent + line for line in member_lines)
    if loop:
        lines.append(f"{indent}rem -= {total}; gap -= {marked}")
        lines.append(f"{indent}if {short(stops[0])}: "
                     f"x = {end[0]}; y = c = k = d = 0; break")
    lines += ["    except BaseException as e:",
              f"        p = e.__traceback__.tb_lineno - {first_line}",
              f"        m.fused_skew = {done}_skew[p]",
              f"        m.inj_counter += {owed}_pfx[p]",
              "        m.t2_deopts += 1", "        raise"]
    if reg_flushes and end is not None:
        lines.append(f"    {reg_flushes}")
    if loop:
        lines.append("    " + tail)
    else:
        lines.append(f"    m.tier2_cycles = {total}"
                     + (f"; m.inj_counter += {marked}" if marked else ""))
        lines.append("    return sig" if end is None else
                     f"    f.block = {end[0]}; f.ip = {end[1]}; return 1")
    exec(compile("\n".join(lines), f"<tier2:{label}>", "exec"), env)
    return env["region"]


# ----------------------------------------------------------------------
# Installation: slots that compile themselves on first entry
# ----------------------------------------------------------------------

def _slot(program: CompiledProgram, cfunc, func, seq: List[int], ip: int,
          members: int, first: Tuple[int, int]) -> list:
    """A region-map slot for the path ``seq`` entered at ``(seq[0], ip)``.

    ``[closure, members, marked]``: the run loop enters ``closure`` when
    the first chunk's ``members`` fit its budget and its ``marked``
    count stays below the armed gap.  The closure installed here is
    called exactly like a compiled region: it codegens the region, swaps
    it into ``slot[0]`` (re-read at every entry, so machines mid-run
    pick it up) and runs it — a trap inside that first run propagates
    exactly as from a compiled region.

    A codegen failure is a harness fault, never an application trap: it
    must not reach the run loop's trap clause.  The slot is taken out of
    the maps instead (the head of a planned path falls back to its
    static region) and the closure reports a zero-cycle jump to its own
    entry point, so dispatch retries there with no state touched.
    """
    block = seq[0]
    slot = [None, *first]

    def first_entry(m, f, rem, gap):
        t0 = time.perf_counter()
        label = f"{func.name}:b{block}" + (f"+{ip}" if ip else "")
        try:
            records, end = _collect(func, seq, members, ip)
            region = _codegen(records, end, ip == 0 and end == (block, 0),
                              program, label)
        except Exception as exc:
            region = None
            warnings.warn(f"tier-2 codegen failed for {label}: {exc!r}; "
                          f"the region is declined", stacklevel=2)
        program.tier2_codegen_s += time.perf_counter() - t0
        if region is None:
            static, profiled = cfunc.static[block], cfunc.tier2[block]
            if static[ip] is slot:
                static[ip] = None
            if profiled[ip] is slot:
                profiled[ip] = static[ip]
            m.tier2_cycles = 0
            f.ip = ip
            return SIG_JUMP
        slot[0] = region
        program.tier2_compiled += 1
        m.t2_compiled += 1
        return region(m, f, rem, gap)

    slot[0] = first_entry
    program.tier2_traces += 1
    return slot


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
                cfunc.static[b][lo] = cfunc.tier2[b][lo] = _slot(
                    program, cfunc, func, [b], lo, hi - lo,
                    (hi - lo, marked))


def install_plan(program: CompiledProgram, plan: Optional[dict]) -> int:
    """Validate ``plan`` and install its head regions into ``program``.

    Replaces ``CompiledFunction.tier2[head][0]`` in place, so machines
    constructed before installation pick the regions up on their next
    jump to that head; the static map is untouched.  Every plan entry is
    walked against the module here (:func:`_collect`) and its slot
    carries what the run loop tests before entering — the path's first
    chunk; codegen waits for the first entry (:func:`_slot`).
    Idempotent: a program is installed at most once per process.
    Invalid or stale plan entries (module drift, unknown functions,
    out-of-range blocks) are skipped, never raised — that head keeps
    its static region; a bad plan must not kill a campaign.  Returns
    ``program.tier2_traces``, the slots installed in both maps.
    """
    if program.tier2_installed:
        return program.tier2_traces
    if plan and plan.get("version") == PLAN_VERSION:
        funcs = {fn.name: fn for fn in program.module}
        for tr in plan.get("traces", ()):
            func = funcs.get(tr.get("func"))
            cfunc = program.functions.get(tr.get("func"))
            if func is None or cfunc is None:
                continue
            head = tr.get("head")
            seq = tr.get("blocks")
            members = tr.get("members")
            if not (isinstance(head, int) and isinstance(members, int)
                    and isinstance(seq, list) and seq
                    and seq[0] == head and members > 0
                    and 0 <= head < len(cfunc.tier2)):
                continue
            walked = _collect(func, seq, members)
            if walked is None:
                continue
            cfunc.tier2[head][0] = _slot(program, cfunc, func, seq, 0,
                                         members, _first_chunk(walked[0]))
    program.tier2_installed = True
    return program.tier2_traces
