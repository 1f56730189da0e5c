"""IR -> closure compiler for the VM.

Each IR instruction is compiled once per program into a Python closure
``step(machine, frame) -> signal`` with operands pre-resolved to register
indices or immediate constants ("threaded code").  The run loop in
:mod:`repro.vm.machine` dispatches on the returned signal:

* ``None``        — fall through to the next instruction,
* ``SIG_JUMP``    — the closure set ``frame.block``/``frame.ip``,
* ``SIG_CALL``    — a user-function call was staged in ``machine.pending_call``,
* ``SIG_RET``     — return values staged in ``machine.ret_val``/``ret_val_p``,
* ``SIG_BLOCK``   — an MPI operation must wait; re-execute when woken,
* ``SIG_INJECT``  — a fault was just injected (loop records the exact cycle).

Instructions marked by the fault-injection pass are wrapped with an
occurrence counter + bit-flip trigger, which implements LLFI's dynamic
fault model with near-zero overhead when no fault is armed.

Beyond single-instruction threading, the compiler also builds *fused
segments*: maximal straight-line runs of side-effect-free-signal
closures inside one basic block are compiled (via ``exec``) into one
superinstruction closure that calls its members back to back without
touching the dispatch loop.  Calls (user and intrinsic — anything that
may ``SIG_CALL``/``SIG_BLOCK``) are fusion barriers; block terminators
(``br``/``condbr``/``ret``) may close a segment, whose closure then
returns the terminator's signal.  Two segment layouts are produced per
block:

* ``seg_armed`` — injection-marked instructions are additional barriers
  and keep their per-instruction occurrence-counter wrapper (used while
  a fault is still pending on the machine);
* ``seg_free`` — marked instructions join segments as bare closures and
  the segment bulk-adds their count to ``machine.inj_counter`` (used
  when ``machine.inj_next == 0``: golden runs, unarmed ranks, and the
  post-fire tail of a faulty run).

Fused execution is cycle-exact: a member that raises records how many
members completed in ``machine.fused_skew`` (and the inclusive marked
count it owes the occurrence counter), so traps land on the same
virtual cycle as unfused execution.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ReproError
from ..ir import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    Cmp,
    CondBr,
    Copy,
    FpmLoad,
    FpmStore,
    Function,
    Load,
    Module,
    Register,
    Ret,
    Store,
)
from .intrinsics import BLOCK, get_intrinsic
from .ops import BINOP_FUNCS, CAST_FUNCS, CMP_FUNCS
from .traps import Trap, TrapKind

SIG_JUMP = 1
SIG_CALL = 2
SIG_RET = 3
SIG_BLOCK = 4
SIG_INJECT = 5


class CompiledFunction:
    """Executable form of one IR function."""

    __slots__ = ("name", "blocks", "num_regs", "param_indices", "is_dual",
                 "seg_armed", "seg_free", "tier2", "tier2_off")

    def __init__(self, func: Function) -> None:
        self.name = func.name
        self.blocks: List[List[Callable]] = []
        self.num_regs = 0
        self.param_indices: List[int] = [p.index for p in func.params]
        self.is_dual = func.is_dual
        #: per-block fused-dispatch maps, parallel to ``blocks``: the entry
        #: at a segment-start ip is ``(fused_closure, length)``, every other
        #: ip (barriers, mid-segment resume points) is None and single-steps
        #: through ``blocks``.  ``seg_armed`` treats injection-marked
        #: instructions as barriers; ``seg_free`` fuses them bare and is only
        #: valid while ``machine.inj_next == 0``.
        self.seg_armed: List[List[Optional[Tuple[Callable, int]]]] = []
        self.seg_free: List[List[Optional[Tuple[Callable, int]]]] = []
        #: tier-2 trace map, indexed by block: one ``(trace_closure,
        #: members, marked)`` slot for blocks that head a golden trace —
        #: the cycles and marked instructions of the trace's first block,
        #: which the run loop checks against budget and armed gap before
        #: entering — None elsewhere.  Populated in place by
        #: :func:`repro.vm.tier2.install_plan` (so machines built before
        #: installation see the traces) with closures that compile
        #: themselves on first entry and swap the result into their slot.
        #: ``tier2_off`` stays all-None forever — the run loop selects it
        #: when tier-2 is disabled, mirroring the seg_armed/seg_free
        #: selection.
        self.tier2: List[Optional[Tuple[Callable, int, int]]] = []
        self.tier2_off: List[None] = []


class CompiledProgram:
    """All functions of a module, compiled, plus instrumentation metadata."""

    __slots__ = ("module", "functions", "fpm_mode", "taint_mode",
                 "num_inject_sites", "site_table", "tier2_installed",
                 "tier2_traces", "tier2_compiled", "tier2_codegen_s")

    def __init__(self, module: Module) -> None:
        self.module = module
        self.functions: Dict[str, CompiledFunction] = {}
        self.taint_mode = "taintchain" in module.passes_applied
        self.fpm_mode = "dualchain" in module.passes_applied or self.taint_mode
        self.num_inject_sites = module.num_inject_sites
        #: site id -> (function name, block label, instruction text), for
        #: correlating injections back to source constructs
        self.site_table: Dict[int, Tuple[str, str, str]] = {}
        #: set by :func:`repro.vm.tier2.install_plan` (idempotence latch +
        #: trace count for observability)
        self.tier2_installed = False
        self.tier2_traces = 0
        #: traces compiled so far and the wall seconds that took — a
        #: trace compiles on its first entry, so both grow while trials
        #: run; callers timing a window read the seconds before and after
        self.tier2_compiled = 0
        self.tier2_codegen_s = 0.0

    def __getitem__(self, name: str) -> CompiledFunction:
        return self.functions[name]


def _injectable_operands(inst) -> Tuple[Tuple[int, bool, int], ...]:
    """(register index, is_float, shadow index) triples, one per primary
    register source operand; the shadow index is -1 when the register has
    no shadow twin (black-box builds).

    This is the set of "live registers used by the instruction" that LLFI's
    fault model flips a bit in.  For FPM-fused memory operations only the
    primary (potentially-corrupted) registers qualify; the pristine shadow
    must never be corrupted directly — taint builds do use the shadow index,
    but only to *mark* the flipped register as fault-derived.
    """
    if isinstance(inst, (BinOp, Cmp)):
        cands = (inst.lhs, inst.rhs)
    elif isinstance(inst, Cast):
        cands = (inst.src,)
    elif isinstance(inst, Load):
        cands = (inst.addr,)
    elif isinstance(inst, Store):
        cands = (inst.value, inst.addr)
    elif isinstance(inst, FpmLoad):
        cands = (inst.addr,)
    elif isinstance(inst, FpmStore):
        cands = (inst.value, inst.addr)
    else:
        cands = ()
    return tuple(
        (v.index, v.type.is_float,
         v.shadow.index if v.shadow is not None else -1)
        for v in cands if isinstance(v, Register)
    )


# ----------------------------------------------------------------------
# Per-instruction compilers
# ----------------------------------------------------------------------

def _compile_binop(inst: BinOp) -> Callable:
    return _compile_binop_like(
        inst.dest.index, inst.lhs, inst.rhs, BINOP_FUNCS[inst.op]
    )


def _compile_binop_like(d: int, lhs, rhs, fn: Callable) -> Callable:
    if isinstance(lhs, Register):
        li = lhs.index
        if isinstance(rhs, Register):
            ri = rhs.index

            def step(m, f, fn=fn, d=d, li=li, ri=ri):
                regs = f.regs
                regs[d] = fn(regs[li], regs[ri])
        else:
            rc = rhs.value

            def step(m, f, fn=fn, d=d, li=li, rc=rc):
                regs = f.regs
                regs[d] = fn(regs[li], rc)
    else:
        lc = lhs.value
        if isinstance(rhs, Register):
            ri = rhs.index

            def step(m, f, fn=fn, d=d, lc=lc, ri=ri):
                regs = f.regs
                regs[d] = fn(lc, regs[ri])
        else:
            rc = rhs.value

            def step(m, f, fn=fn, d=d, lc=lc, rc=rc):
                regs = f.regs
                regs[d] = fn(lc, rc)
    return step


def _compile_cast(inst: Cast) -> Callable:
    fn = CAST_FUNCS[inst.op]
    d = inst.dest.index
    src = inst.src
    if isinstance(src, Register):
        si = src.index

        def step(m, f, fn=fn, d=d, si=si):
            regs = f.regs
            regs[d] = fn(regs[si])
    else:
        sc = fn(src.value)

        def step(m, f, d=d, sc=sc):
            f.regs[d] = sc
    return step


def _compile_copy(inst: Copy) -> Callable:
    d = inst.dest.index
    src = inst.src
    if isinstance(src, Register):
        si = src.index

        def step(m, f, d=d, si=si):
            regs = f.regs
            regs[d] = regs[si]
    else:
        sc = src.value

        def step(m, f, d=d, sc=sc):
            f.regs[d] = sc
    return step


def _compile_alloca(inst: Alloca) -> Callable:
    d = inst.dest.index
    count = inst.count

    def step(m, f, d=d, count=count):
        f.regs[d] = m.memory.stack_alloc(count)
    return step


def _compile_load(inst: Load) -> Callable:
    d = inst.dest.index
    if isinstance(inst.addr, Register):
        ai = inst.addr.index

        def step(m, f, d=d, ai=ai):
            regs = f.regs
            addr = regs[ai]
            mem = m.memory
            if 0 <= addr < mem.capacity and mem.valid[addr]:
                regs[d] = (mem.cells_f.item(addr) if mem.fkind[addr]
                           else mem.cells_i.item(addr))
            else:
                raise Trap(TrapKind.MEM_FAULT, f"load from invalid address {addr}")
    else:
        ac = inst.addr.value

        def step(m, f, d=d, ac=ac):
            mem = m.memory
            if 0 <= ac < mem.capacity and mem.valid[ac]:
                f.regs[d] = (mem.cells_f.item(ac) if mem.fkind[ac]
                             else mem.cells_i.item(ac))
            else:
                raise Trap(TrapKind.MEM_FAULT, f"load from invalid address {ac}")
    return step


def _compile_store(inst: Store) -> Callable:
    get_v = _value_getter(inst.value)
    if isinstance(inst.addr, Register):
        ai = inst.addr.index

        def step(m, f, get_v=get_v, ai=ai):
            regs = f.regs
            addr = regs[ai]
            mem = m.memory
            if 0 <= addr < mem.capacity and mem.valid[addr]:
                if not mem.page_owned[addr >> mem.page_shift]:
                    mem.cow_page(addr)
                mem.poke(addr, get_v(regs))
            else:
                raise Trap(TrapKind.MEM_FAULT, f"store to invalid address {addr}")
    else:
        ac = inst.addr.value

        def step(m, f, get_v=get_v, ac=ac):
            mem = m.memory
            if 0 <= ac < mem.capacity and mem.valid[ac]:
                if not mem.page_owned[ac >> mem.page_shift]:
                    mem.cow_page(ac)
                mem.poke(ac, get_v(f.regs))
            else:
                raise Trap(TrapKind.MEM_FAULT, f"store to invalid address {ac}")
    return step


def _value_getter(value):
    if isinstance(value, Register):
        i = value.index
        return lambda regs, i=i: regs[i]
    c = value.value
    return lambda regs, c=c: c


def _compile_fpm_load(inst: FpmLoad) -> Callable:
    d = inst.dest.index
    dp = inst.dest_p.index
    get_a = _value_getter(inst.addr)
    get_ap = _value_getter(inst.addr_p)

    if inst.taint:
        # Naive taint semantics: loaded value is tainted when the location
        # is tainted or the address register is.
        def step(m, f, d=d, dp=dp, get_a=get_a, get_ap=get_ap):
            regs = f.regs
            addr = get_a(regs)
            mem = m.memory
            if 0 <= addr < mem.capacity and mem.valid[addr]:
                v = (mem.cells_f.item(addr) if mem.fkind[addr]
                     else mem.cells_i.item(addr))
            else:
                raise Trap(TrapKind.MEM_FAULT,
                           f"load from invalid address {addr}")
            regs[d] = v
            regs[dp] = 1 if (addr in m.fpm.table or get_ap(regs)) else 0
        return step

    def step(m, f, d=d, dp=dp, get_a=get_a, get_ap=get_ap):
        regs = f.regs
        addr = get_a(regs)
        mem = m.memory
        if 0 <= addr < mem.capacity and mem.valid[addr]:
            v = (mem.cells_f.item(addr) if mem.fkind[addr]
                 else mem.cells_i.item(addr))
        else:
            raise Trap(TrapKind.MEM_FAULT, f"load from invalid address {addr}")
        addr_p = get_ap(regs)
        ht = m.fpm.table
        if addr_p == addr:
            vp = ht.get(addr, v) if ht else v
        elif 0 <= addr_p < mem.capacity and mem.valid[addr_p]:
            # Corrupted address register: the pristine chain reads the cell
            # the fault-free execution would have read.
            base = (mem.cells_f.item(addr_p) if mem.fkind[addr_p]
                    else mem.cells_i.item(addr_p))
            vp = ht.get(addr_p, base)
        else:
            # The pristine address is no longer valid along this (diverged)
            # control path; fall back to the primary value so shadow
            # bookkeeping never crashes the run on its own.
            vp = v
        regs[d] = v
        regs[dp] = vp
    return step


def _compile_fpm_store(inst: FpmStore) -> Callable:
    get_v = _value_getter(inst.value)
    get_vp = _value_getter(inst.value_p)
    get_a = _value_getter(inst.addr)
    get_ap = _value_getter(inst.addr_p)

    if inst.taint:
        # Naive taint semantics: the location becomes tainted when the
        # stored value or the address register is tainted; an untainted
        # store is a strong update (clears the mark).
        def step(m, f, get_v=get_v, get_vp=get_vp, get_a=get_a,
                 get_ap=get_ap):
            regs = f.regs
            addr = get_a(regs)
            mem = m.memory
            if not (0 <= addr < mem.capacity and mem.valid[addr]):
                raise Trap(TrapKind.MEM_FAULT,
                           f"store to invalid address {addr}")
            v = get_v(regs)
            if not mem.page_owned[addr >> mem.page_shift]:
                mem.cow_page(addr)
            mem.poke(addr, v)
            m.fpm.update(addr, v, get_vp(regs) or get_ap(regs), m.cycles)
        return step

    def step(m, f, get_v=get_v, get_vp=get_vp, get_a=get_a, get_ap=get_ap):
        regs = f.regs
        addr = get_a(regs)
        mem = m.memory
        if not (0 <= addr < mem.capacity and mem.valid[addr]):
            raise Trap(TrapKind.MEM_FAULT, f"store to invalid address {addr}")
        v = get_v(regs)
        vp = get_vp(regs)
        addr_p = get_ap(regs)
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
            # Corrupted store address (paper Sec. 3.2 "Store addresses"):
            # 1) the wrongly-written cell is contaminated with its previous
            #    content as the pristine value;
            # 2) the cell that *should* have been written now misses the
            #    pristine value vp.
            old = (mem.cells_f.item(addr) if mem.fkind[addr]
                   else mem.cells_i.item(addr))
            mem.poke(addr, v)
            if not (old == v or (old != old and v != v)):
                fpm.record(addr, old, m.cycles)
            if 0 <= addr_p < mem.capacity and mem.valid[addr_p]:
                cur_p = (mem.cells_f.item(addr_p) if mem.fkind[addr_p]
                         else mem.cells_i.item(addr_p))
                fpm.update(addr_p, cur_p, vp, m.cycles)
    return step


def _compile_br(inst: Br) -> Callable:
    ti = inst.target.index

    def step(m, f, ti=ti):
        f.block = ti
        f.ip = 0
        return SIG_JUMP
    return step


def _compile_condbr(inst: CondBr, where=None) -> Callable:
    tt = inst.iftrue.index
    tf = inst.iffalse.index
    cond = inst.cond
    if isinstance(cond, Register):
        ci = cond.index

        if where is not None:
            # Branch-site identity for tier-2 edge profiling.  The profile
            # check costs one attribute load per dynamic branch and is None
            # outside golden profiling runs; constant-condition branches
            # keep the unprofiled closure below (their edge is static).
            def step(m, f, ci=ci, tt=tt, tf=tf, where=where):
                t = 1 if f.regs[ci] else 0
                f.block = tt if t else tf
                f.ip = 0
                ep = m.edge_profile
                if ep is not None:
                    c = ep.get(where)
                    if c is None:
                        c = ep[where] = [0, 0]
                    c[t] += 1
                return SIG_JUMP
            return step

        def step(m, f, ci=ci, tt=tt, tf=tf):
            f.block = tt if f.regs[ci] else tf
            f.ip = 0
            return SIG_JUMP
    else:
        target = tt if cond.value else tf

        def step(m, f, target=target):
            f.block = target
            f.ip = 0
            return SIG_JUMP
    return step


def _compile_ret(inst: Ret) -> Callable:
    if inst.value is None:

        def step(m, f):
            m.ret_val = None
            m.ret_val_p = None
            return SIG_RET
        return step
    get_v = _value_getter(inst.value)
    if inst.value_p is not None:
        get_vp = _value_getter(inst.value_p)

        def step(m, f, get_v=get_v, get_vp=get_vp):
            regs = f.regs
            m.ret_val = get_v(regs)
            m.ret_val_p = get_vp(regs)
            return SIG_RET
    else:

        def step(m, f, get_v=get_v):
            v = get_v(f.regs)
            m.ret_val = v
            m.ret_val_p = v
            return SIG_RET
    return step


def _compile_call(inst: Call, program: CompiledProgram) -> Callable:
    getters = [_value_getter(a) for a in inst.args]
    d = inst.dest.index if inst.dest is not None else None
    dp = inst.dest_p.index if inst.dest_p is not None else None

    spec = get_intrinsic(inst.callee)
    if spec is not None:
        handler = spec.handler

        def step(m, f, handler=handler, getters=getters, d=d):
            regs = f.regs
            args = [g(regs) for g in getters]
            res = handler(m, args)
            if res is BLOCK:
                return SIG_BLOCK
            if d is not None:
                regs[d] = res
            return None
        return step

    target = program.functions.get(inst.callee)
    if target is None:
        raise ReproError(
            f"call to unknown function {inst.callee!r} "
            f"(not in module, not an intrinsic)"
        )

    def step(m, f, target=target, getters=getters, d=d, dp=dp):
        regs = f.regs
        m.pending_call = (target, [g(regs) for g in getters], d, dp)
        return SIG_CALL
    return step


def _with_injection(step: Callable, opinfo, site: int) -> Callable:
    # The occurrence check is hoisted inline: the happy path is one
    # increment plus one compare against ``machine.inj_next`` (0 when no
    # fault is armed, so it never matches), and ``inject_now`` — the only
    # method call — runs solely on the occurrence that actually fires.
    def wrapped(m, f, step=step, opinfo=opinfo, site=site):
        c = m.inj_counter + 1
        m.inj_counter = c
        if c != m.inj_next:
            return step(m, f)
        m.inject_now(f, opinfo, site)
        r = step(m, f)
        return SIG_INJECT if r is None else r
    return wrapped


# ----------------------------------------------------------------------
# Fused-block dispatch
# ----------------------------------------------------------------------

#: instruction kinds whose closures always return None (fall-through)
_PURE_KINDS = (BinOp, Cmp, Cast, Copy, Alloca, Load, Store, FpmLoad, FpmStore)
#: block terminators: always return a signal, allowed to *close* a segment
_TERM_KINDS = (Br, CondBr, Ret)

#: maximum members per fused segment.  Segments only execute when they fit
#: in the remaining quantum budget (so epoch structure stays bit-identical
#: to single-step dispatch), which makes over-long segments useless: they
#: would rarely fit and the tail would fall back to single-stepping.
_FUSE_MAX = 16


def _fuse_enabled() -> bool:
    """Fusion default: on unless REPRO_FUSE is 0/false/off."""
    from ..core.settings import current_settings
    return current_settings().fuse


def _ld_trap(addr):
    raise Trap(TrapKind.MEM_FAULT, f"load from invalid address {addr}")


def _st_trap(addr):
    raise Trap(TrapKind.MEM_FAULT, f"store to invalid address {addr}")


_M64_LIT = repr((1 << 64) - 1)
_SIGN_LIT = repr(1 << 63)
_WRAP_LIT = repr(1 << 64)

#: ops whose 64-bit wrap can be spelled out inline in fused code
_INLINE_INT_OPS = {"add": "+", "sub": "-", "mul": "*", "padd": "+",
                   "psub": "-"}
#: IEEE float ops that are plain Python operators
_INLINE_FLOAT_OPS = {"fadd": "+", "fsub": "-", "fmul": "*"}
#: comparison predicates that are plain Python operators (NaN falls out
#: of every ordered predicate as False, matching the closure lambdas)
_INLINE_PREDS = {"eq": "==", "ne": "!=", "slt": "<", "sle": "<=",
                 "sgt": ">", "sge": ">=", "oeq": "==", "olt": "<",
                 "ole": "<=", "ogt": ">", "oge": ">="}


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


def _inline_template(inst):
    """Inline codegen template for one instruction, or None.

    Returns ``tmpl(tag) -> (line, binds, needs_mem)`` producing a single
    source line with the instruction's semantics spelled out directly, so
    fused segments skip the per-member closure call for the hot kinds.
    ``tag`` keeps bound names unique per member; the line must match the
    closure's observable behaviour exactly (results, trap kinds *and*
    trap messages).  Kinds without a template fall back to closure calls.
    """
    if isinstance(inst, BinOp):
        d, lhs, rhs, op = inst.dest.index, inst.lhs, inst.rhs, inst.op

        def tmpl(tag, d=d, lhs=lhs, rhs=rhs, op=op):
            binds = {}
            a = _operand_expr(lhs, f"c{tag}a", binds)
            b = _operand_expr(rhs, f"c{tag}b", binds)
            if op in _INLINE_INT_OPS:
                v = f"v{tag}"
                line = (f"{v} = ({a} {_INLINE_INT_OPS[op]} {b}) & {_M64_LIT}; "
                        f"regs[{d}] = {v} - {_WRAP_LIT} "
                        f"if {v} & {_SIGN_LIT} else {v}")
            elif op in _INLINE_FLOAT_OPS:
                line = f"regs[{d}] = {a} {_INLINE_FLOAT_OPS[op]} {b}"
            else:
                binds[f"g{tag}"] = BINOP_FUNCS[op]
                line = f"regs[{d}] = g{tag}({a}, {b})"
            return line, binds, False
        return tmpl

    if isinstance(inst, Cmp):
        d, lhs, rhs = inst.dest.index, inst.lhs, inst.rhs
        sym = _INLINE_PREDS.get(inst.pred)
        fn = CMP_FUNCS[(inst.kind, inst.pred)]

        def tmpl(tag, d=d, lhs=lhs, rhs=rhs, sym=sym, fn=fn):
            binds = {}
            a = _operand_expr(lhs, f"c{tag}a", binds)
            b = _operand_expr(rhs, f"c{tag}b", binds)
            if sym is not None:
                line = f"regs[{d}] = 1 if {a} {sym} {b} else 0"
            else:
                binds[f"g{tag}"] = fn
                line = f"regs[{d}] = g{tag}({a}, {b})"
            return line, binds, False
        return tmpl

    if isinstance(inst, Copy):
        d, src = inst.dest.index, inst.src

        def tmpl(tag, d=d, src=src):
            binds = {}
            return f"regs[{d}] = {_operand_expr(src, f'c{tag}', binds)}", \
                binds, False
        return tmpl

    if isinstance(inst, Cast):
        d, src, op = inst.dest.index, inst.src, inst.op
        if not isinstance(src, Register):
            sc = CAST_FUNCS[op](src.value)

            def tmpl(tag, d=d, sc=sc):
                binds = {f"c{tag}": sc}
                return f"regs[{d}] = c{tag}", binds, False
            return tmpl
        si = src.index
        if op in ("ptrtoint", "inttoptr"):
            return lambda tag, d=d, si=si: (f"regs[{d}] = regs[{si}]", {},
                                            False)
        if op == "sitofp":
            return lambda tag, d=d, si=si: (f"regs[{d}] = float(regs[{si}])",
                                            {}, False)
        fn = CAST_FUNCS[op]
        return lambda tag, d=d, si=si, fn=fn: (
            f"regs[{d}] = g{tag}(regs[{si}])", {f"g{tag}": fn}, False)

    if isinstance(inst, Alloca):
        d, count = inst.dest.index, inst.count
        return lambda tag, d=d, count=count: (
            f"regs[{d}] = mem.stack_alloc({count})", {}, True)

    if isinstance(inst, Load):
        d, addr = inst.dest.index, inst.addr

        def tmpl(tag, d=d, addr=addr):
            binds = {f"lt{tag}": _ld_trap}
            if isinstance(addr, Register):
                a = f"a{tag}"
                line = (f"{a} = regs[{addr.index}]; "
                        f"regs[{d}] = (cf.item({a}) if fk[{a}] "
                        f"else ci.item({a})) if 0 <= {a} < cap "
                        f"and valid[{a}] else lt{tag}({a})")
            else:
                ac = addr.value
                line = (f"regs[{d}] = (cf.item({ac}) if fk[{ac}] "
                        f"else ci.item({ac})) if 0 <= {ac} < cap "
                        f"and valid[{ac}] else lt{tag}({ac})")
            return line, binds, True
        return tmpl

    if isinstance(inst, Store):
        value, addr = inst.value, inst.addr

        def tmpl(tag, value=value, addr=addr):
            # the COW guard rides the validity conditional: `co(a)` saves
            # the pristine page and returns truthy, so an un-owned page is
            # privatised before the cell write — all still one source line
            # (the traceback-lineno member recovery depends on that)
            binds = {f"st{tag}": _st_trap}
            v = _operand_expr(value, f"c{tag}", binds)
            if isinstance(addr, Register):
                a = f"a{tag}"
                line = (f"{a} = regs[{addr.index}]; "
                        f"pk({a}, {v}) if 0 <= {a} < cap "
                        f"and valid[{a}] "
                        f"and (owned[{a} >> psh] or co({a})) "
                        f"else st{tag}({a})")
            else:
                ac = addr.value
                line = (f"pk({ac}, {v}) if 0 <= {ac} < cap "
                        f"and valid[{ac}] "
                        f"and (owned[{ac} >> psh] or co({ac})) "
                        f"else st{tag}({ac})")
            return line, binds, True
        return tmpl

    return None


def _make_fused(steps: List[Callable], marked: List[bool],
                templates: List[Optional[Callable]]) -> Callable:
    """exec-compile one superinstruction from ``steps``.

    Members with an inline template have their semantics spelled out
    directly in the generated source; the rest are closure calls bound as
    default parameters (so lookups are locals; the ``try`` is zero-cost
    on 3.11+).  Either way each member occupies exactly one source line:
    if a member raises, its index is recovered from the traceback line
    number, so the happy path carries no per-member bookkeeping.  The
    count of *completed* members lands in ``machine.fused_skew`` and the
    inclusive marked-instruction count through the raising member is
    added to ``machine.inj_counter`` — exactly what per-instruction
    dispatch would have charged.  The last member's signal (None for pure
    members, the jump/ret signal for a fused terminator) is returned.
    """
    k = len(steps)
    total = sum(1 for flag in marked if flag)
    env: Dict[str, object] = {}
    member_lines: List[str] = []
    needs_mem = False
    for i in range(k):
        tmpl = templates[i]
        if tmpl is not None:
            line, binds, mem = tmpl(f"_{i}")
            env.update(binds)
            member_lines.append(line)
            needs_mem = needs_mem or mem
        else:
            nm = f"s{i}"
            env[nm] = steps[i]
            call = f"{nm}(m, f)"
            member_lines.append(f"sig = {call}" if i == k - 1 else call)

    prelude = "regs = f.regs"
    if needs_mem:
        prelude += ("; mem = m.memory; ci = mem.cells_i; "
                    "cf = mem.cells_f; fk = mem.fkind; pk = mem.poke; "
                    "valid = mem.valid; cap = mem.capacity; "
                    "owned = mem.page_owned; psh = mem.page_shift; "
                    "co = mem.cow_page")
    env["_pfx"] = None  # replaced below; named param keeps it a local
    params = ", ".join(f"{nm}={nm}" for nm in env)
    lines = [f"def fused(m, f, {params}):",
             "    try:",
             f"        {prelude}"]
    for line in member_lines:
        lines.append(f"        {line}")
    lines.append("    except BaseException as e:")
    # member i sits on generated line 4 + i (def=1, try=2, prelude=3,
    # which cannot raise); the traceback head is this frame, so its
    # lineno names the raising member
    lines.append("        p = e.__traceback__.tb_lineno - 4")
    lines.append("        m.fused_skew = p")
    if total:
        lines.append("        m.inj_counter += _pfx[p]")
    lines.append("        raise")
    if total:
        lines.append(f"    m.inj_counter += {total}")
    lines.append("    return sig" if templates[k - 1] is None
                 else "    return None")
    # inclusive prefix: marked members among steps[0..p] — the wrapped
    # (unfused) form increments the counter *before* executing, so a
    # raising marked member is still counted
    pfx = []
    c = 0
    for flag in marked:
        c += 1 if flag else 0
        pfx.append(c)
    env["_pfx"] = tuple(pfx)
    exec(compile("\n".join(lines), "<fused-segment>", "exec"), env)
    return env["fused"]


def _segment_block(entries, include_marked: bool):
    """Build one block's fused-dispatch map.

    ``entries`` is the per-instruction compile record list; returns a list
    parallel to the block with ``(fused_closure, length)`` at each segment
    start and None elsewhere.  ``include_marked`` selects the seg_free
    layout (marked members fused bare with bulk counting) versus seg_armed
    (marked instructions are barriers).
    """
    n = len(entries)
    fmap: List[Optional[Tuple[Callable, int]]] = [None] * n
    runs: List[Tuple[int, int]] = []
    start: Optional[int] = None
    for i, (step, bare, kind, is_marked, _tmpl) in enumerate(entries):
        if kind == "pure" and (include_marked or not is_marked):
            if start is None:
                start = i
            continue
        if kind == "term" and start is not None:
            runs.append((start, i + 1))  # terminator closes the run
            start = None
            continue
        if start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, n))

    for a, b in runs:
        for lo in range(a, b, _FUSE_MAX):
            hi = min(lo + _FUSE_MAX, b)
            if hi - lo < 2:
                continue  # a lone instruction gains nothing from fusion
            chunk = entries[lo:hi]
            if include_marked:
                steps = [e[1] for e in chunk]       # bare closures
                flags = [e[3] for e in chunk]
            else:
                steps = [e[0] for e in chunk]       # none are marked here
                flags = [False] * len(chunk)
            # templates describe the *bare* op, valid in both layouts
            fmap[lo] = (_make_fused(steps, flags, [e[4] for e in chunk]),
                        hi - lo)
    return fmap


def _compile_cmp(inst: Cmp) -> Callable:
    return _compile_binop_like(
        inst.dest.index, inst.lhs, inst.rhs, CMP_FUNCS[(inst.kind, inst.pred)]
    )


#: precomputed opcode dispatch: instruction class -> (compiler, kind).
#: One dict hit replaces the former isinstance if/elif ladder for both
#: the per-instruction compiler and the fusion kind; ``Call`` and
#: ``CondBr`` take extra context, so their entries accept it.
_HANDLERS: Dict[type, Tuple[Callable, str]] = {
    BinOp: (lambda inst, program, where: _compile_binop(inst), "pure"),
    Cmp: (lambda inst, program, where: _compile_cmp(inst), "pure"),
    Cast: (lambda inst, program, where: _compile_cast(inst), "pure"),
    Copy: (lambda inst, program, where: _compile_copy(inst), "pure"),
    Alloca: (lambda inst, program, where: _compile_alloca(inst), "pure"),
    Load: (lambda inst, program, where: _compile_load(inst), "pure"),
    Store: (lambda inst, program, where: _compile_store(inst), "pure"),
    FpmLoad: (lambda inst, program, where: _compile_fpm_load(inst), "pure"),
    FpmStore: (lambda inst, program, where: _compile_fpm_store(inst), "pure"),
    Call: (lambda inst, program, where: _compile_call(inst, program),
           "barrier"),
    Br: (lambda inst, program, where: _compile_br(inst), "term"),
    CondBr: (lambda inst, program, where: _compile_condbr(inst, where),
             "term"),
    Ret: (lambda inst, program, where: _compile_ret(inst), "term"),
}


def _compile_entry(inst, program: CompiledProgram, where=None):
    """Compile one instruction to its dispatch closure plus fusion metadata.

    Returns ``(step, bare, kind, marked, template)``: ``step`` is what the
    dispatch loop runs (injection-wrapped when marked), ``bare`` the
    unwrapped closure fused segments may embed, ``kind`` one of ``"pure"``
    / ``"term"`` / ``"barrier"``, and ``template`` the optional inline
    codegen template fused segments prefer over calling ``bare``.

    ``where`` is the instruction's ``(function name, block index)``
    branch-site identity: when given, conditional branches get the
    edge-profiling closure tier-2 trace planning feeds on.  Pass None
    (the default) for context-free compilations — tier-2 member
    closures and tests — which must not observe ``machine.edge_profile``.
    """
    handler = _HANDLERS.get(inst.__class__)
    if handler is None:  # pragma: no cover - future instruction kinds
        raise ReproError(f"cannot compile instruction {inst.opcode!r}")
    compiler, kind = handler
    bare = compiler(inst, program, where)

    step = bare
    marked = False
    if inst.inject_site is not None:
        opinfo = _injectable_operands(inst)
        if opinfo:
            step = _with_injection(bare, opinfo, inst.inject_site)
            marked = True
    return step, bare, kind, marked, _inline_template(inst)


def _compile_instruction(inst, program: CompiledProgram) -> Callable:
    return _compile_entry(inst, program)[0]


def compile_program(module: Module, fuse: Optional[bool] = None) -> CompiledProgram:
    """Compile an IR module into executable closure code.

    ``fuse`` enables fused-segment dispatch maps (default: on, unless the
    REPRO_FUSE=0 environment override disables them); when off, every
    block's segment map is all-None and the run loop single-steps.
    """
    if fuse is None:
        fuse = _fuse_enabled()
    program = CompiledProgram(module)
    # Two-phase so call closures can capture their target CompiledFunction.
    for func in module:
        func.reindex_blocks()
        program.functions[func.name] = CompiledFunction(func)
    for func in module:
        cfunc = program.functions[func.name]
        cfunc.num_regs = func.num_regs
        for bi, block in enumerate(func.blocks):
            where = (func.name, bi)
            entries = [_compile_entry(inst, program, where) for inst in block]
            cfunc.blocks.append([e[0] for e in entries])
            cfunc.tier2.append(None)
            cfunc.tier2_off.append(None)
            if fuse:
                cfunc.seg_armed.append(_segment_block(entries, False))
                cfunc.seg_free.append(_segment_block(entries, True))
            else:
                none_map = [None] * len(entries)
                cfunc.seg_armed.append(none_map)
                cfunc.seg_free.append(none_map)
        for block in func.blocks:
            for inst in block:
                if inst.inject_site is not None:
                    program.site_table[inst.inject_site] = (
                        func.name, block.label, repr(inst)
                    )
    return program
