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
(loop back-edges included, i.e. hot loops unroll) into trace plans.
:func:`install_plan` validates each plan against the module and installs
a ladder of prefix variants per head into the per-block
``CompiledFunction.tier2`` map the run loop consults at block heads.  A
variant is codegenned — one ``exec``-compiled function, registers as
locals, memory operations inlined against the flat buffers, cycle
accounting folded into a single per-trace increment — the first time the
run loop enters it: a campaign enters fewer than half of what a plan
installs, and each process pays only for the code it runs.

Deopt guards, and how each maps onto the machine contract:

* **injection pending** — the run loop selects ``tier2_off`` whenever
  ``inj_next != 0`` (same per-frame-entry points as the
  seg_armed/seg_free selection), so a trace can never swallow the
  occurrence counter of a fault that is still waiting to fire;
* **fork-epoch / quantum boundary** — a trace only starts when its
  maximum length fits in the remaining quantum budget, so epoch
  structure (and with it ``GoldenCursor`` pause points, CML sampling
  and MPI interleaving) is bit-identical to tier-1;
* **branch divergence** — every majority-edge branch inside a trace is
  a one-line guard: when the minority edge is taken (a faulty trial
  diverging from the golden path), the trace stores the exact cycles
  consumed in ``machine.tier2_cycles``, settles the injection-counter
  prefix, stages the real successor block and returns to tier-1
  dispatch mid-trace;
* **trap** — a raising member records the completed-member count in
  ``machine.fused_skew`` (the fused-segment mechanism, recovered from
  the traceback line number), so traps land on the same virtual cycle
  as tier-1;
* **chaos** — harness chaos (:mod:`repro.inject.chaos`) perturbs IO,
  workers and artifacts, never VM semantics, so no VM-level guard is
  needed; chaos-stressed campaigns inherit bit-identity from the
  guards above.

Plans (not code objects) are JSON-safe dicts so they ride golden
artifacts across workers: installation from a cached plan re-runs only
validation, never profiling or planning.
"""

from __future__ import annotations

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
PLAN_VERSION = 1

#: minimum members for a trace to be worth the dispatch-map slot
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


def _walk(func, head: int, edge_profile: dict, cap: int):
    """Follow the golden-hot path from block ``head``.

    Returns ``(seq, members)``: the block-index sequence (revisits
    allowed — loops unroll until ``cap``) and the member count.  The
    walk ends at a call barrier, a ``ret``, a branch whose golden edge
    counts are missing or tied (dual-exit: no majority to guard on), or
    the cap.
    """
    seq = [head]
    count = 0
    cur = head
    while True:
        nxt = None
        insts = func.blocks[cur].instructions
        for inst in insts:
            if count >= cap:
                return seq, count
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
        if count >= cap:
            return seq, count
        seq.append(nxt)
        cur = nxt


def derive_plan(program: CompiledProgram, edge_profile: Optional[dict],
                cap: int) -> dict:
    """Plan tier-2 traces for ``program`` from golden edge counts.

    Deterministic in (module, edge_profile, cap): the same golden run
    yields the same plan on every worker.  The result is JSON-safe and
    travels inside golden artifacts; :func:`install_plan` re-derives the
    member structure from the module, so only block sequences and
    counts are stored.
    """
    traces: List[dict] = []
    profile = edge_profile or {}
    for func in program.module:
        for head in range(len(func.blocks)):
            seq, count = _walk(func, head, profile, cap)
            # single-block traces must beat the fused tier to pay for
            # themselves; multi-block traces win on dispatch alone
            if count >= _MIN_MEMBERS and (len(seq) > 1 or count > _FUSE_MAX):
                traces.append({"func": func.name, "head": head,
                               "blocks": [int(b) for b in seq],
                               "members": int(count)})
    return {"version": PLAN_VERSION, "cap": int(cap), "traces": traces}


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
    the final member stages its own successor.  Returns None whenever
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


def _dest_indices(inst) -> List[int]:
    """Register slots a closure-dispatched pure member may write."""
    out = []
    for attr in ("dest", "dest_p"):
        reg = getattr(inst, attr, None)
        if reg is not None:
            out.append(reg.index)
    return out


def _promote(member_lines, line_meta):
    """Promote ``regs[K]`` slots to Python locals ``rK``.

    Register traffic dominates trace bodies once dispatch and the fpm
    closures are gone; list indexing loses to ``LOAD_FAST``/
    ``STORE_FAST`` by a wide margin, so every slot a trace touches is
    loaded into a local up front and written back at every exit:

    * guard lines flush the slots dirtied so far (the ``_FLUSH``
      placeholder) before staging the minority successor;
    * closure-dispatched members get dirty slots flushed before the
      call and their destinations reloaded after it, all on the
      member's own source line;
    * trace-closing terminators flush before the call (``ret`` pops the
      frame — flushing after would hit the wrong frame);
    * the epilogue flushes everything dirty before staging ``end``.

    The *trap* path deliberately does not flush: a raising member
    leaves the machine TRAPPED, and nothing observes a halted frame's
    registers (results come from memory, the shadow table and the trap
    itself).  Returns ``(lines, prelude_loads, epilogue_flush)``.
    """
    used = set()
    for line in member_lines:
        used.update(int(x) for x in _REG_RE.findall(line))
    if not used:
        return ([line.replace(_FLUSH, "") for line in member_lines],
                "", "")

    def sub(line):
        return _REG_RE.sub(lambda mo: f"r{mo.group(1)}", line)

    out = []
    dirty: List[int] = []  # insertion-ordered for deterministic codegen

    def flush():
        return "".join(f"regs[{k}] = r{k}; " for k in dirty)

    for line, meta in zip(member_lines, line_meta):
        writes = [int(x) for x in _REG_WRITE_RE.findall(line)]
        kind = meta[0]
        if kind == "guard":
            out.append(sub(line).replace(_FLUSH, flush()))
        elif kind == "call":
            reload = "".join(f"; r{k} = regs[{k}]" for k in meta[1]
                             if k in used)
            out.append(flush() + line + reload)
        elif kind == "term":
            out.append(flush() + line)
        else:
            out.append(sub(line))
        for k in writes:
            if k not in dirty:
                dirty.append(k)
    loads = "; ".join(f"r{k} = regs[{k}]" for k in sorted(used))
    flushes = "; ".join(f"regs[{k}] = r{k}" for k in dirty)
    return out, loads, flushes


def _is_marked(inst) -> bool:
    """Does ``inst`` advance ``machine.inj_counter`` when it executes?"""
    return inst.inject_site is not None and bool(_injectable_operands(inst))


def _codegen(records, end, program: CompiledProgram, label: str):
    """exec-compile one trace function from its member records.

    Follows the fused-segment source contract exactly — one line per
    member at generated line ``4 + i`` (def, try, prelude), traps
    recovered via the traceback line number into ``machine.fused_skew``
    plus the inclusive marked-prefix owed to ``machine.inj_counter`` —
    and extends it with guard lines (mid-trace deopt), register
    promotion (:func:`_promote`) and a variable cycle count in
    ``machine.tier2_cycles``.
    """
    env: Dict[str, object] = {}
    member_lines: List[str] = []
    line_meta: List[tuple] = []
    needs_mem = False
    needs_fpm = False
    pfx: List[int] = []
    c = 0
    total_members = len(records)
    for i, (inst, kind, expected) in enumerate(records):
        c += _is_marked(inst)
        pfx.append(c)
        if kind == "pure":
            tmpl = _inline_template(inst)
            if tmpl is None:
                tmpl = _fpm_template(inst)
                needs_fpm = needs_fpm or tmpl is not None
            if tmpl is not None:
                line, binds, mem = tmpl(f"_{i}")
                env.update(binds)
                member_lines.append(line)
                line_meta.append(("tmpl",))
                needs_mem = needs_mem or mem
            else:
                nm = f"s{i}"
                env[nm] = _compile_entry(inst, program)[1]  # bare closure
                member_lines.append(f"{nm}(m, f)")
                line_meta.append(("call", _dest_indices(inst)))
        elif kind == "br":
            # control flow is fully resolved at codegen time; the branch
            # still costs its cycle (one member line, position-counted)
            member_lines.append("pass")
            line_meta.append(("tmpl",))
        elif kind == "condbr":
            ci = inst.cond.index
            tt = inst.iftrue.index
            tf = inst.iffalse.index
            other = tf if expected == tt else tt
            test = f"not regs[{ci}]" if expected == tt else f"regs[{ci}]"
            body = [f"{_FLUSH}f.block = {other}; f.ip = 0; "
                    f"m.tier2_cycles = {i + 1}"]
            if pfx[i]:
                body.append(f"m.inj_counter += {pfx[i]}")
            body.append("return 1")
            member_lines.append(f"if {test}: " + "; ".join(body))
            line_meta.append(("guard",))
        else:  # ret / exit: the terminator closure closes the trace
            nm = f"s{i}"
            env[nm] = _compile_entry(inst, program)[1]
            member_lines.append(f"sig = {nm}(m, f)")
            line_meta.append(("term",))
    total_marked = pfx[-1] if pfx else 0
    member_lines, reg_loads, reg_flushes = _promote(member_lines, line_meta)

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
    env["_pfx"] = None  # replaced below; named param keeps it a local
    params = ", ".join(f"{nm}={nm}" for nm in env)
    lines = [f"def trace(m, f, {params}):",
             "    try:",
             f"        {prelude}"]
    lines.extend(f"        {line}" for line in member_lines)
    lines.append("    except BaseException as e:")
    lines.append("        p = e.__traceback__.tb_lineno - 4")
    lines.append("        m.fused_skew = p")
    if total_marked:
        lines.append("        m.inj_counter += _pfx[p]")
    lines.append("        raise")
    if reg_flushes and end is not None:
        lines.append(f"    {reg_flushes}")
    lines.append(f"    m.tier2_cycles = {total_members}")
    if total_marked:
        lines.append(f"    m.inj_counter += {total_marked}")
    if end is None:
        lines.append("    return sig")
    else:
        lines.append(f"    f.block = {end[0]}; f.ip = {end[1]}")
        lines.append("    return 1")
    env["_pfx"] = tuple(pfx)
    exec(compile("\n".join(lines), f"<tier2:{label}>", "exec"), env)
    return env["trace"]


def _lazy_variant(program: CompiledProgram, cfunc, func, head: int,
                  seq: List[int], members: int):
    """Ladder-slot closure that compiles its trace on first entry.

    Called by the run loop exactly like a compiled trace.  It codegens
    the variant, swaps the compiled closure into its slot of
    ``cfunc.tier2[head]`` (the run loop re-reads the ladder at every
    head entry, so machines mid-run pick it up) and runs it — a trap
    inside that first run propagates exactly as from an installed trace.

    A codegen failure is a harness fault, never an application trap: it
    must not reach the run loop's trap clause.  The variant is dropped
    from the ladder instead, and the closure reports a zero-cycle jump
    to the same block head, so dispatch retries on what is left of the
    ladder — tier-1 at worst — with no state touched.
    """
    def first_entry(m, f):
        label = f"{func.name}:b{head}:m{members}"
        t0 = time.perf_counter()
        try:
            records, end = _collect(func, seq, members)
            trace = _codegen(records, end, program, label)
        except Exception as exc:
            trace = None
            warnings.warn(f"tier-2 codegen failed for {label}: {exc!r}; "
                          f"the variant runs on tier-1", stacklevel=2)
        program.tier2_codegen_s += time.perf_counter() - t0
        ladder = cfunc.tier2[head] or ()
        if trace is None:
            left = tuple(c for c in ladder if c[0] is not first_entry)
            cfunc.tier2[head] = left or None
            m.tier2_cycles = 0
            f.ip = 0
            return SIG_JUMP
        cfunc.tier2[head] = tuple(
            (trace,) + c[1:] if c[0] is first_entry else c for c in ladder)
        program.tier2_compiled += 1
        m.t2_compiled += 1
        return trace(m, f)
    return first_entry


def install_plan(program: CompiledProgram, plan: Optional[dict]) -> int:
    """Validate ``plan`` and install its traces into ``program``.

    Mutates each :class:`CompiledFunction`'s ``tier2`` list in place, so
    machines constructed before installation pick the traces up on their
    next ``run``.  Every plan entry is walked against the module and its
    marked-instruction total counted here; codegen waits for a variant's
    first entry (:func:`_lazy_variant`).  Idempotent: a program is
    installed at most once per process.  Invalid or stale plan entries
    (module drift, unknown functions, out-of-range blocks) are skipped,
    never raised — a bad plan degrades to tier-1, it must not kill a
    campaign.  Returns the number of traces installed.
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
            # a ladder of prefix variants per head: the run loop picks
            # the longest one fitting the remaining quantum budget, so
            # coverage is not limited to one full-length entry per
            # quantum (prefixes of a valid trace are valid traces)
            variants = []
            m2 = members
            while True:
                walked = _collect(func, seq, m2)
                if walked is not None:
                    marked = sum(_is_marked(rec[0]) for rec in walked[0])
                    variants.append((_lazy_variant(
                        program, cfunc, func, head, seq, m2), m2, marked))
                if m2 <= _MIN_MEMBERS:
                    break
                m2 = max(m2 // 2, _MIN_MEMBERS)
            if not variants:
                continue
            cfunc.tier2[head] = tuple(variants)
            installed += 1
    program.tier2_installed = True
    program.tier2_traces = installed
    return installed
