"""IR -> closure compiler for the VM: the reference interpreter.

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

(A loop region that spends the whole budget returns a negative value
instead: it has suspended itself on the machine — :mod:`repro.vm.tier2`.)

Instructions marked by the fault-injection pass are wrapped with an
occurrence counter + bit-flip trigger, which implements LLFI's dynamic
fault model with near-zero overhead when no fault is armed.

Nothing here generates code.  Closures alone are a complete
interpreter — ``compile_program(module, fuse=False)`` builds exactly
that, the reference every faster path is compared against — and by
default :func:`compile_program` also lets :mod:`repro.vm.tier2` fill
the per-function region maps with slots that compile straight-line
runs of these instructions on their first entry.
"""

from __future__ import annotations

from operator import itemgetter
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
                 "static", "tier2")

    def __init__(self, func: Function) -> None:
        self.name = func.name
        self.blocks: List[List[Callable]] = []
        self.num_regs = 0
        self.param_indices: List[int] = [p.index for p in func.params]
        self.is_dual = func.is_dual
        #: region maps, indexed ``[block][ip]`` parallel to ``blocks``: a
        #: ``[closure, members, marked]`` slot at each entry point of
        #: generated code — ``closure(machine, frame, rem, gap)`` plus
        #: the cycles and marked instructions of its first chunk, which
        #: the run loop checks against budget and armed gap before
        #: entering — None at every other ip, which single-steps through
        #: ``blocks``.  ``static`` needs no profile (golden profiling,
        #: plain jobs, ``use_tier2 = False`` machines); ``tier2`` holds
        #: the same slot objects except at the block heads a golden plan
        #: replaced (:func:`repro.vm.tier2.install_plan`).  A slot's
        #: closure compiles itself on first entry and swaps the result
        #: into ``slot[0]``.
        self.static: List[List[Optional[list]]] = []
        self.tier2: List[List[Optional[list]]] = []


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
        #: set by :func:`repro.vm.tier2.install_plan` (idempotence latch)
        self.tier2_installed = False
        #: region slots installed in the two maps, static ones included
        self.tier2_traces = 0
        #: regions compiled so far and the wall seconds that took — a
        #: region compiles on its first entry, so both grow while jobs
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
                regs[d] = mem.cells[addr]
            else:
                raise Trap(TrapKind.MEM_FAULT, f"load from invalid address {addr}")
    else:
        ac = inst.addr.value

        def step(m, f, d=d, ac=ac):
            mem = m.memory
            if 0 <= ac < mem.capacity and mem.valid[ac]:
                f.regs[d] = mem.cells[ac]
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
                mem.cells[addr] = get_v(regs)
            else:
                raise Trap(TrapKind.MEM_FAULT, f"store to invalid address {addr}")
    else:
        ac = inst.addr.value

        def step(m, f, get_v=get_v, ac=ac):
            mem = m.memory
            if 0 <= ac < mem.capacity and mem.valid[ac]:
                if not mem.page_owned[ac >> mem.page_shift]:
                    mem.cow_page(ac)
                mem.cells[ac] = get_v(f.regs)
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
                v = mem.cells[addr]
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
            v = mem.cells[addr]
        else:
            raise Trap(TrapKind.MEM_FAULT, f"load from invalid address {addr}")
        addr_p = get_ap(regs)
        if addr_p == addr:
            ht = m.fpm.table
            vp = ht.get(addr, v) if ht else v
        else:
            vp = _fpm_load_pristine(m, addr_p, v)
        regs[d] = v
        regs[dp] = vp
    return step


def _fpm_load_pristine(m, addr_p, v):
    """The dual-chain load's pristine value at a corrupted address.

    The pristine chain reads the cell the fault-free execution would
    have read, ``addr_p``: its table entry, else its content.  When
    ``addr_p`` is no longer valid along this (diverged) control path
    the primary value ``v`` stands in, so shadow bookkeeping never
    crashes the run on its own.  The one spelling of the rule off the
    ``addr_p == addr`` fast path: the closure above calls it, and so
    does every region's load line (:mod:`repro.vm.tier2`).
    """
    mem = m.memory
    if 0 <= addr_p < mem.capacity and mem.valid[addr_p]:
        return m.fpm.table.get(addr_p, mem.cells[addr_p])
    return v


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
            mem.cells[addr] = v
            m.fpm.update(addr, v, get_vp(regs) or get_ap(regs), m.cycles)
        return step

    def step(m, f, get_v=get_v, get_vp=get_vp, get_a=get_a, get_ap=get_ap):
        regs = f.regs
        addr = get_a(regs)
        m.memory.cells[addr] = _fpm_store(m, addr, get_v(regs), get_vp(regs),
                                          get_ap(regs))
    return step


def _fpm_store(m, addr, v, vp, addr_p):
    """The dual-chain store rule (non-taint), on operand *values*.

    Validity trap, COW page save and shadow-table bookkeeping for
    storing ``v`` (pristine ``vp``) at ``addr`` (pristine ``addr_p``);
    returns ``v`` for the caller's ``cells[addr] = ...``, after every
    check that can trap.  The one spelling of the rule: the closure
    above calls it, and so does every region's store line off its fast
    path (:mod:`repro.vm.tier2`), where registers may live in locals.
    """
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
        # Corrupted store address (paper Sec. 3.2 "Store addresses"):
        # 1) the wrongly-written cell keeps *its* pristine value — its
        #    table entry if it has one, its previous content only if it
        #    was clean;
        # 2) the cell that *should* have been written now misses the
        #    pristine value vp.
        fpm.update(addr, v, fpm.table.get(addr, mem.cells[addr]), m.cycles)
        if 0 <= addr_p < mem.capacity and mem.valid[addr_p]:
            fpm.update(addr_p, mem.cells[addr_p], vp, m.cycles)
    return v


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


def _args_reader(values) -> Callable:
    """``regs -> argument values``, reading register arguments by index:
    a C ``itemgetter`` when every argument is a register (a slice for
    one argument or none, so the result is always a sequence), else the
    constants' template with the registers filled in."""
    if all(isinstance(v, Register) for v in values):
        if len(values) > 1:
            return itemgetter(*(v.index for v in values))
        i = values[0].index if values else 0
        return itemgetter(slice(i, i + len(values)))
    template = [None if isinstance(v, Register) else v.value for v in values]
    slots = tuple((k, v.index) for k, v in enumerate(values)
                  if isinstance(v, Register))

    def read(regs, template=template, slots=slots):
        args = template.copy()
        for k, i in slots:
            args[k] = regs[i]
        return args
    return read


def _compile_call(inst: Call, program: CompiledProgram) -> Callable:
    read = _args_reader(inst.args)
    d = inst.dest.index if inst.dest is not None else None
    dp = inst.dest_p.index if inst.dest_p is not None else None

    spec = get_intrinsic(inst.callee)
    if spec is not None:
        handler = spec.handler

        def step(m, f, handler=handler, read=read, d=d):
            regs = f.regs
            res = handler(m, read(regs))
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

    def step(m, f, target=target, read=read, d=d, dp=dp):
        m.pending_call = (target, read(f.regs), d, dp)
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


#: instruction kinds whose closures always return None (fall-through)
_PURE_KINDS = (BinOp, Cmp, Cast, Copy, Alloca, Load, Store, FpmLoad, FpmStore)
#: block terminators: always return a signal
_TERM_KINDS = (Br, CondBr, Ret)


def _compile_cmp(inst: Cmp) -> Callable:
    return _compile_binop_like(
        inst.dest.index, inst.lhs, inst.rhs, CMP_FUNCS[(inst.kind, inst.pred)]
    )


#: precomputed opcode dispatch: instruction class -> closure compiler.
#: One dict hit replaces an isinstance if/elif ladder; ``Call`` and
#: ``CondBr`` take extra context, so every entry accepts it.
_HANDLERS: Dict[type, Callable] = {
    BinOp: lambda inst, program, where: _compile_binop(inst),
    Cmp: lambda inst, program, where: _compile_cmp(inst),
    Cast: lambda inst, program, where: _compile_cast(inst),
    Copy: lambda inst, program, where: _compile_copy(inst),
    Alloca: lambda inst, program, where: _compile_alloca(inst),
    Load: lambda inst, program, where: _compile_load(inst),
    Store: lambda inst, program, where: _compile_store(inst),
    FpmLoad: lambda inst, program, where: _compile_fpm_load(inst),
    FpmStore: lambda inst, program, where: _compile_fpm_store(inst),
    Call: lambda inst, program, where: _compile_call(inst, program),
    Br: lambda inst, program, where: _compile_br(inst),
    CondBr: lambda inst, program, where: _compile_condbr(inst, where),
    Ret: lambda inst, program, where: _compile_ret(inst),
}


def _compile_entry(inst, program: CompiledProgram, where=None):
    """Compile one instruction to ``(step, bare)``: ``step`` is what the
    dispatch loop runs (injection-wrapped when marked), ``bare`` the
    unwrapped closure generated regions embed for the kinds they do not
    spell out inline.

    ``where`` is the instruction's ``(function name, block index)``
    branch-site identity: when given, conditional branches get the
    edge-profiling closure trace planning feeds on.  None (the default)
    compiles a branch that never observes ``machine.edge_profile``.
    """
    handler = _HANDLERS.get(inst.__class__)
    if handler is None:  # pragma: no cover - future instruction kinds
        raise ReproError(f"cannot compile instruction {inst.opcode!r}")
    bare = handler(inst, program, where)
    if inst.inject_site is not None:
        opinfo = _injectable_operands(inst)
        if opinfo:
            return _with_injection(bare, opinfo, inst.inject_site), bare
    return bare, bare


def compile_program(module: Module, fuse: bool = True) -> CompiledProgram:
    """Compile an IR module into executable closure code.

    By default every function's region maps are filled with the static
    entry points of generated code (installed, not compiled: see
    :func:`repro.vm.tier2.install_static`).  ``fuse=False`` leaves both
    maps empty: the run loop single-steps every instruction — the
    reference interpreter tests compare every other path against.
    """
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
            steps = [_compile_entry(inst, program, where)[0] for inst in block]
            cfunc.blocks.append(steps)
            cfunc.static.append([None] * len(steps))
            cfunc.tier2.append([None] * len(steps))
        for block in func.blocks:
            for inst in block:
                if inst.inject_site is not None:
                    program.site_table[inst.inject_site] = (
                        func.name, block.label, repr(inst)
                    )
    if fuse:
        from .tier2 import install_static  # tier2 imports this module
        install_static(program)
    return program
