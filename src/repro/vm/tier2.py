"""Tier-2 execution: golden-trace superblock compilation.

Campaigns replay the same deterministic golden trajectory thousands of
times — every trial's pre-injection prefix and the post-fire tail of
every masked trial walk the exact control path the golden run took.
Tier-1 pays per-block dispatch for that determinism; this module
compiles it away.

During golden profiling the conditional-branch closures record per-site
edge counts (``machine.edge_profile``).  :func:`derive_plan` then walks
each function from every block head along the *majority* edge of each
branch, concatenating straight-line members across block boundaries
until the path jumps back onto itself.  A path that returns to its own
head becomes a *rolled* trace — one iteration's members inside a real
``while`` loop, registers in Python locals across iterations; any other
path is a *straight* trace.  :func:`install_plan` validates each plan
entry against the module and installs one trace per head into the
``CompiledFunction.tier2`` map the run loop consults at block heads.  A
trace is codegenned — one ``exec``-compiled function, registers as
locals, memory operations inlined against the flat buffers, cycle
accounting folded into one per-entry increment — the first time the run
loop enters it, so each process pays only for the code it runs.

The run loop hands every entry the remaining quantum budget ``rem`` and
the armed occurrence ``gap``; the trace decides how far it may go.
Guards, and how each maps onto the machine contract:

* **fork-epoch / quantum boundary** — a trace crosses a block boundary
  (and a rolled one starts another iteration) only while the members up
  to the next boundary fit ``rem``, so epoch structure (and with it
  ``GoldenCursor`` pause points, CML sampling and MPI interleaving) is
  bit-identical to tier-1;
* **injection pending** — the same checks keep the marked instructions
  executed strictly below ``gap``, so a trace only bulk-advances the
  occurrence counter of a fault that is still waiting, and the fault
  fires on the exact single-stepped marked instruction;
* **branch divergence** — every majority-edge branch inside a trace is
  a one-line guard: when the minority edge is taken (a faulty trial
  leaving the golden path, or a loop running out), the trace flushes
  its registers, stores the exact cycles consumed in
  ``machine.tier2_cycles``, settles the injection-counter prefix,
  stages the real successor block and returns to tier-1 dispatch —
  with traps the only exits counted as deopts (``machine.t2_deopts``):
  running out of budget or gap is how an entry is meant to end;
* **trap** — a raising member records the completed-member count in
  ``machine.fused_skew`` (the fused-segment mechanism, recovered from
  the traceback line number), so traps land on the same virtual cycle
  as tier-1;
* **chaos** — harness chaos (:mod:`repro.inject.chaos`) perturbs IO,
  workers and artifacts, never VM semantics: no VM-level guard needed.

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

from ..ir import Br, CondBr, FpmLoad, FpmStore, Register, Ret
from .compiler import (
    _FUSE_MAX,
    _PURE_KINDS,
    _TERM_KINDS,
    SIG_JUMP,
    CompiledProgram,
    _compile_entry,
    _injectable_operands,
    _inline_template,
    _ld_trap,
    _operand_expr,
)
from .traps import Trap, TrapKind

#: plan schema version, embedded in every plan dict; bump on any change
#: to the walk or codegen contract so stale artifact plans are ignored
#: (v2: one rolled or straight path per head — no cap, no unrolling)
PLAN_VERSION = 2

#: minimum members for a straight trace to be worth the dispatch-map slot
_MIN_MEMBERS = 8


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
    count.  The walk ends at a call barrier, a ``ret``, a branch whose
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
                        # trace (dispatched through its real closure)
                        return seq, count
                    nxt = (inst.iftrue.index if counts[1] > counts[0]
                           else inst.iffalse.index)
                break
            if not isinstance(inst, _PURE_KINDS):
                return seq, count  # call barrier
            count += 1
        else:
            return seq, count  # unterminated block (defensive)
        seq.append(nxt)
        if nxt in seq[:-1]:
            return seq, count
        cur = nxt


def derive_plan(program: CompiledProgram,
                edge_profile: Optional[dict]) -> dict:
    """Plan tier-2 traces for ``program`` from golden edge counts.

    Deterministic in (module, edge_profile): the same golden run yields
    the same plan on every worker.  The result is JSON-safe and travels
    inside golden artifacts; :func:`install_plan` re-derives the member
    structure from the module, so only block sequences and counts are
    stored.
    """
    traces: List[dict] = []
    profile = edge_profile or {}
    for func in program.module:
        for head in range(len(func.blocks)):
            seq, count = _walk(func, head, profile)
            # a loop always pays (entered once, iterates inside); a
            # single-block straight trace must beat the fused tier,
            # multi-block ones win on dispatch alone
            if (len(seq) > 1 and seq[-1] == head) or (
                    count >= _MIN_MEMBERS
                    and (len(seq) > 1 or count > _FUSE_MAX)):
                traces.append({"func": func.name, "head": head,
                               "blocks": [int(b) for b in seq],
                               "members": int(count)})
    return {"version": PLAN_VERSION, "traces": traces}


# ----------------------------------------------------------------------
# Codegen: one exec-compiled function per trace
# ----------------------------------------------------------------------

def _fpm_store_slow(m, addr, v, vp, addr_p):
    """Slow path of the inlined dual-chain store.

    Mirrors :func:`repro.vm.compiler._compile_fpm_store` (non-taint)
    exactly — validity trap, COW, shadow-table bookkeeping — but takes
    the already-evaluated operand *values* instead of re-reading
    ``f.regs``, so it stays correct when the trace has promoted
    registers to locals.  Returns the stored value so the fast-path
    assignment rewrites it in place (a no-op)."""
    mem = m.memory
    if not (0 <= addr < mem.capacity and mem.valid[addr]):
        raise Trap(TrapKind.MEM_FAULT, f"store to invalid address {addr}")
    fpm = m.fpm
    if not mem.page_owned[addr >> mem.page_shift]:
        mem.cow_page(addr)
    if addr_p == addr:
        mem.poke(addr, v)
        if v == vp or v != v and vp != vp:  # equal, or both NaN
            if addr in fpm.table:
                del fpm.table[addr]
        else:
            fpm.record(addr, vp, m.cycles)
    else:
        old = mem.peek(addr)
        mem.poke(addr, v)
        if not (old == v or (old != old and v != v)):
            fpm.record(addr, old, m.cycles)
        if 0 <= addr_p < mem.capacity and mem.valid[addr_p]:
            fpm.update(addr_p, mem.peek(addr_p), vp, m.cycles)
    return v


def _fpm_template(inst):
    """Tier-2-only inline template for the dual-chain memory ops.

    FpmLoad/FpmStore closures (plus their per-call operand getters)
    dominate fpm-mode golden replay, but fused segments cannot inline
    them: their prelude has no shadow-table bind.  Tier-2 traces do
    (``ht``), so the hot paths get spelled out as one source line each —
    same contract as :func:`repro.vm.compiler._inline_template`,
    bit-identical to the closures including trap kind and message.

    The store's fast path covers exactly the golden case (pristine
    address chain, empty shadow table, value chains equal); anything
    else defers to the full closure via :func:`_fpm_store_deopt` on the
    same line, so mid-trace contamination (post-fire tails) stays
    exact.  Taint-mode variants keep their closures.
    """
    if isinstance(inst, FpmLoad) and not inst.taint:
        d, dp = inst.dest.index, inst.dest_p.index
        addr, addr_p = inst.addr, inst.addr_p

        def tmpl(tag, d=d, dp=dp, addr=addr, addr_p=addr_p):
            binds = {f"lt{tag}": _ld_trap}
            a_src = _operand_expr(addr, f"c{tag}a", binds)
            p_src = _operand_expr(addr_p, f"c{tag}p", binds)
            a, q, v = f"a{tag}", f"q{tag}", f"v{tag}"
            line = (
                f"{a} = {a_src}; "
                f"{v} = (cf.item({a}) if fk[{a}] else ci.item({a})) "
                f"if 0 <= {a} < cap and valid[{a}] "
                f"else lt{tag}({a}); "
                f"{q} = {p_src}; "
                f"regs[{d}] = {v}; "
                f"regs[{dp}] = ((ht.get({a}, {v}) if ht else {v}) "
                f"if {q} == {a} else "
                f"(ht.get({q}, cf.item({q}) if fk[{q}] else ci.item({q})) "
                f"if 0 <= {q} < cap and valid[{q}] else {v}))"
            )
            return line, binds, True
        return tmpl

    if isinstance(inst, FpmStore) and not inst.taint:
        value, value_p = inst.value, inst.value_p
        addr, addr_p = inst.addr, inst.addr_p

        def tmpl(tag, value=value, value_p=value_p, addr=addr,
                 addr_p=addr_p):
            binds = {f"sl{tag}": _fpm_store_slow}
            a_src = _operand_expr(addr, f"c{tag}a", binds)
            p_src = _operand_expr(addr_p, f"c{tag}p", binds)
            v_src = _operand_expr(value, f"c{tag}v", binds)
            w_src = _operand_expr(value_p, f"c{tag}w", binds)
            a, q, v, w = f"a{tag}", f"q{tag}", f"v{tag}", f"w{tag}"
            line = (
                f"{a} = {a_src}; {q} = {p_src}; "
                f"{v} = {v_src}; {w} = {w_src}; "
                f"pk({a}, {v}) if ({q} == {a} and not ht "
                f"and ({v} == {w} or ({v} != {v} and {w} != {w})) "
                f"and 0 <= {a} < cap and valid[{a}] "
                f"and (owned[{a} >> psh] or co({a}))) "
                f"else sl{tag}(m, {a}, {v}, {w}, {q})"
            )
            return line, binds, True
        return tmpl

    return None

def _collect(func, seq: List[int], members: int):
    """Re-walk a planned block sequence into codegen member records.

    Returns ``(records, end)`` — records are ``(inst, kind, expected)``
    tuples with kind in ``pure`` / ``br`` (statically-known successor,
    a no-op line) / ``condbr`` (guarded majority edge, ``expected`` is
    the successor block) / ``ret`` / ``exit`` (trace-closing terminator
    dispatched through its closure) — and ``end`` is where tier-1
    dispatch resumes after a full trace: ``(block, ip)``, or None when
    the final member stages its own successor; ``end == (seq[0], 0)``
    is a path that loops, to be rolled.  Returns None whenever
    the plan does not match the module (plans travel through artifacts,
    so validate defensively rather than trust).
    """
    out: List[Tuple[object, str, Optional[int]]] = []
    pos, cur = 0, seq[0]
    nblocks = len(func.blocks)
    while True:
        if not 0 <= cur < nblocks:
            return None
        term_next = None
        for ip, inst in enumerate(func.blocks[cur].instructions):
            if len(out) == members:
                return out, (cur, ip)
            if isinstance(inst, _TERM_KINDS):
                nxt = seq[pos + 1] if pos + 1 < len(seq) else None
                if isinstance(inst, Ret):
                    if nxt is not None:
                        return None
                    out.append((inst, "ret", None))
                    return (out, None) if len(out) == members else None
                tgt = _static_target(inst)
                if tgt is not None:
                    if nxt is not None and nxt != tgt:
                        return None
                    out.append((inst, "br", tgt))
                elif nxt is None:
                    out.append((inst, "exit", None))
                    return (out, None) if len(out) == members else None
                elif nxt in (inst.iftrue.index, inst.iffalse.index):
                    out.append((inst, "condbr", nxt))
                    tgt = nxt
                else:
                    return None
                if len(out) == members:
                    return out, (tgt, 0)
                if nxt is None:
                    return None
                term_next = nxt
                break
            if not isinstance(inst, _PURE_KINDS):
                return None  # barrier where the plan expected members
            out.append((inst, "pure", None))
        else:
            return None  # block without terminator
        pos += 1
        cur = term_next


#: register-slot references in generated member lines; every operand and
#: destination is spelled ``regs[<int literal>]`` by the templates
_REG_RE = re.compile(r"regs\[(\d+)\]")
#: write positions only: ``regs[K] = <expr>`` (the lookahead rejects the
#: ``regs[K] == other`` comparisons the Cmp template emits)
_REG_WRITE_RE = re.compile(r"regs\[(\d+)\] = (?!=)")
#: guard-line placeholder the promotion pass replaces with flush code
_FLUSH = "§F§"


def _promote(member_lines, line_dests, loop: bool):
    """Promote ``regs[K]`` slots to Python locals ``rK``.

    Register traffic dominates trace bodies once dispatch and the fpm
    closures are gone; list indexing loses to ``LOAD_FAST``/
    ``STORE_FAST`` by a wide margin, so every slot a trace reads before
    writing it is loaded into a local up front and every dirty slot is
    written back at every exit:

    * guard lines flush (the ``_FLUSH`` placeholder) before staging
      their successor;
    * closure-dispatched members (``line_dests`` is not None) flush
      before the call and reload the destinations it names after it,
      all on the member's own source line — trace-closing terminators
      too (``ret`` pops the frame: flushing after would hit the wrong
      frame);
    * the epilogue flushes before staging ``end``.

    In a straight trace a slot is dirty from its first write on.  In a
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


def _is_marked(inst) -> bool:
    """Does ``inst`` advance ``machine.inj_counter`` when it executes?"""
    return inst.inject_site is not None and bool(_injectable_operands(inst))


def _codegen(records, end, loop: bool, program: CompiledProgram, label: str):
    """exec-compile one trace function from its member records.

    ``trace(m, f, rem, gap)`` runs members while they fit in ``rem``
    cycles and execute fewer than ``gap`` marked instructions: the run
    loop has checked the first block, and every terminator line with
    members after it checks the members up to the next such line and
    leaves to its successor block when they do not fit.  A rolled
    trace (``loop``) wraps one iteration in ``while True``, counts
    ``rem``/``gap`` down after it and goes round again while the first
    block still fits; its exits all flush the same slots, so they
    ``break`` to one shared flush-and-settle tail instead of each
    carrying its own.

    Follows the fused-segment source contract exactly — one line per
    member, traps recovered via the traceback line number into
    ``machine.fused_skew`` plus the inclusive marked-prefix owed to
    ``machine.inj_counter``, both on top of the iterations already
    completed — and extends it with guard lines, register promotion
    (:func:`_promote`) and a cycle count in ``machine.tier2_cycles``.
    """
    env: Dict[str, object] = {}
    member_lines: List[str] = []
    line_dests: List[Optional[list]] = []  # slots a closure call may write
    needs_mem = needs_fpm = False
    total = len(records)
    pfx = list(accumulate(int(_is_marked(rec[0])) for rec in records))
    marked = pfx[-1]
    # cycles / marked instructions of the iterations already completed
    done = "rem0 - rem + " if loop else ""
    owed = "gap0 - gap + " if loop else ""
    # how an exit settles once x, c, k, d hold its successor block, the
    # members and marked instructions it completed, and whether it deopts
    tail = (f"f.block = x; f.ip = 0; m.t2_deopts += d; "
            f"m.tier2_cycles = {done}c; m.inj_counter += {owed}k; return 1")
    # terminator index -> last member it must see fit before going on
    terms = [i for i, rec in enumerate(records) if rec[1] != "pure"]
    ahead = {a: b for a, b in zip(terms, terms[1:] + [total - 1]) if a < b}

    def short(j):
        """Condition: members up to ``j`` overrun the budget or gap."""
        return f"rem < {j + 1}" + (f" or gap <= {pfx[j]}" if pfx[j] else "")

    for i, (inst, kind, expected) in enumerate(records):
        if kind == "pure":
            tmpl = _inline_template(inst)
            if tmpl is None:
                tmpl = _fpm_template(inst)
                needs_fpm = needs_fpm or tmpl is not None
            if tmpl is not None:
                line, binds, mem = tmpl(f"_{i}")
                env.update(binds)
                member_lines.append(line)
                line_dests.append(None)
                needs_mem = needs_mem or mem
            else:
                nm = f"s{i}"
                env[nm] = _compile_entry(inst, program)[1]  # bare closure
                member_lines.append(f"{nm}(m, f)")
                line_dests.append([
                    getattr(inst, a).index for a in ("dest", "dest_p")
                    if getattr(inst, a, None) is not None])
        elif kind in ("br", "condbr"):
            # control flow is resolved at codegen time; the branch still
            # costs its cycle (one member line) and is where the trace
            # leaves: to the minority successor (a deopt), or to the
            # expected one when what follows overruns budget or gap
            conds = [short(ahead[i])] if i in ahead else []
            block, deopt = expected, 0
            if kind == "condbr":
                ci = inst.cond.index
                tt = inst.iftrue.index
                other = inst.iffalse.index if expected == tt else tt
                away = f"not regs[{ci}]" if expected == tt else f"regs[{ci}]"
                conds.insert(0, away)
                block = f"{other} if {away} else {expected}"
                deopt = f"1 if {away} else 0"
            line_dests.append(None)
            member_lines.append("pass" if not conds else (
                f"if {' or '.join(conds)}: x = {block}; c = {i + 1}; "
                f"k = {pfx[i]}; d = {deopt}; "
                + ("break" if loop else _FLUSH + tail)))
        else:  # ret / exit: the terminator closure closes the trace
            nm = f"s{i}"
            env[nm] = _compile_entry(inst, program)[1]
            member_lines.append(f"sig = {nm}(m, f)")
            line_dests.append([])
    member_lines, reg_loads, reg_flushes = _promote(
        member_lines, line_dests, loop)

    prelude = "regs = f.regs"
    if needs_mem:
        prelude += ("; mem = m.memory; ci = mem.cells_i; "
                    "cf = mem.cells_f; fk = mem.fkind; pk = mem.poke; "
                    "valid = mem.valid; cap = mem.capacity; "
                    "owned = mem.page_owned; psh = mem.page_shift; "
                    "co = mem.cow_page")
    if needs_fpm:
        # the dict is mutated in place by every shadow-table op, so the
        # bind stays live across members (restore() replaces the object,
        # but never mid-quantum, let alone mid-trace)
        prelude += "; ht = m.fpm.table"
    if reg_loads:
        prelude += "; " + reg_loads
    env["_pfx"] = tuple(pfx + [marked] * 2)  # + the two loop-footer lines
    params = ", ".join(f"{nm}={nm}" for nm in env)
    lines = [f"def trace(m, f, rem, gap, {params}):",
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
        lines.append(f"{indent}if {short(terms[0])}: "
                     f"x = {end[0]}; c = k = d = 0; break")
    lines += ["    except BaseException as e:",
              f"        p = e.__traceback__.tb_lineno - {first_line}",
              f"        m.fused_skew = {done}p"]
    lines += [f"        m.inj_counter += {owed}_pfx[p]",
              "        m.t2_deopts += 1", "        raise"]
    if reg_flushes and end is not None:
        lines.append(f"    {reg_flushes}")
    if loop:
        lines.append("    " + tail)
    else:
        lines.append(f"    m.tier2_cycles = {total}; m.inj_counter += {marked}")
        lines.append("    return sig" if end is None else
                     f"    f.block = {end[0]}; f.ip = {end[1]}; return 1")
    exec(compile("\n".join(lines), f"<tier2:{label}>", "exec"), env)
    return env["trace"]


def _lazy_trace(program: CompiledProgram, cfunc, head: int, label: str,
                records, end):
    """Trace-slot closure that compiles its trace on first entry.

    Called by the run loop exactly like a compiled trace.  It codegens
    the trace, swaps it into ``cfunc.tier2[head]`` (re-read at every
    head entry, so machines mid-run pick it up) and runs it — a trap
    inside that first run propagates exactly as from a compiled trace.

    A codegen failure is a harness fault, never an application trap: it
    must not reach the run loop's trap clause.  The slot is cleared
    instead, and the closure reports a zero-cycle jump to the same
    block head, so dispatch retries on tier-1 with no state touched.
    """
    def first_entry(m, f, rem, gap):
        t0 = time.perf_counter()
        try:
            trace = _codegen(records, end, end == (head, 0), program, label)
        except Exception as exc:
            trace = None
            warnings.warn(f"tier-2 codegen failed for {label}: {exc!r}; "
                          f"the trace runs on tier-1", stacklevel=2)
        program.tier2_codegen_s += time.perf_counter() - t0
        if trace is None:
            cfunc.tier2[head] = None
            m.tier2_cycles = 0
            f.ip = 0
            return SIG_JUMP
        cfunc.tier2[head] = (trace,) + cfunc.tier2[head][1:]
        program.tier2_compiled += 1
        m.t2_compiled += 1
        return trace(m, f, rem, gap)
    return first_entry


def install_plan(program: CompiledProgram, plan: Optional[dict]) -> int:
    """Validate ``plan`` and install its traces into ``program``.

    Mutates each :class:`CompiledFunction`'s ``tier2`` list in place, so
    machines constructed before installation pick the traces up on their
    next ``run``.  Every plan entry is walked against the module here
    and its ``(closure, members, marked)`` slot carries what the run
    loop tests before entering — the trace's first block; codegen waits
    for the first entry (:func:`_lazy_trace`).  Idempotent: a program
    is installed at most once per process.  Invalid or stale plan
    entries (module drift, unknown functions, out-of-range blocks) are
    skipped, never raised — a bad plan degrades to tier-1, it must not
    kill a campaign.  Returns the number of traces installed.
    """
    if program.tier2_installed:
        return program.tier2_traces
    installed = 0
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
            records, end = walked
            first = next((i + 1 for i, rec in enumerate(records)
                          if rec[1] != "pure"), len(records))
            cfunc.tier2[head] = (
                _lazy_trace(program, cfunc, head, f"{func.name}:b{head}",
                            records, end),
                first, sum(_is_marked(rec[0]) for rec in records[:first]))
            installed += 1
    program.tier2_installed = True
    program.tier2_traces = installed
    return installed
