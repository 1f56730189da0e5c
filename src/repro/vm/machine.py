"""The virtual machine: one instance simulates one MPI process.

A :class:`Machine` executes a :class:`~repro.vm.compiler.CompiledProgram`
with an explicit call stack (no host recursion), so the scheduler can run
it in bounded quanta and suspend it mid-call on blocking MPI operations.
One executed instruction is one cycle of virtual time.

The machine also hosts the two instrumentation runtimes:

* **fault injection** — an occurrence counter over instructions marked by
  the fault-injection pass; when the counter hits an armed
  :class:`FaultSpec` occurrence, one bit of one live source register is
  flipped (the paper's register-level transient-error model);
* **FPM** — the shadow hash table of contaminated locations, updated by
  the ``fpm_load``/``fpm_store`` closures and purged when stack frames or
  heap blocks die.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, NamedTuple, Optional, Sequence, Tuple

from ..errors import SnapshotError
from ..fpm.shadow import ShadowTable
from ..fpm.taint import TaintTable
from ..obs import runtime as _obs
from .bitflip import flip_bit
from .compiler import (
    SIG_BLOCK,
    SIG_CALL,
    SIG_INJECT,
    SIG_JUMP,
    SIG_RET,
    CompiledFunction,
    CompiledProgram,
)
from .memory import ProcessMemory
from .rng import Lcg64
from .traps import Trap, TrapKind


#: ``gap`` handed to regions while no fault is pending: no region
#: executes this many marked instructions
_UNARMED = 1 << 62


class MachineStatus(Enum):
    READY = "ready"
    BLOCKED = "blocked"
    DONE = "done"
    TRAPPED = "trapped"


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject, LLFI-style.

    ``occurrence`` is the 1-based dynamic index among executions of marked
    (injectable) instructions on this rank; ``bit`` and ``operand`` default
    to "choose uniformly at random at injection time".
    """

    rank: int
    occurrence: int
    bit: Optional[int] = None
    operand: Optional[int] = None


@dataclass
class InjectionEvent:
    """Record of a fault that actually fired."""

    occurrence: int
    reg_index: int
    operand_index: int
    bit: int
    is_float: bool
    before: object
    after: object
    cycle: int = -1  # filled in by the run loop with the exact cycle
    #: static site id, resolvable via CompiledProgram.site_table
    site: int = -1


class Frame:
    """One activation record."""

    __slots__ = ("cfunc", "regs", "block", "ip", "saved_sp", "ret_dest", "ret_dest_p")

    def __init__(self, cfunc: CompiledFunction, saved_sp: int,
                 ret_dest: Optional[int], ret_dest_p: Optional[int]) -> None:
        self.cfunc = cfunc
        self.regs: list = [None] * cfunc.num_regs
        self.block = 0
        self.ip = 0
        self.saved_sp = saved_sp
        self.ret_dest = ret_dest
        self.ret_dest_p = ret_dest_p


class ExecutionState(NamedTuple):
    """Everything that determines a rank's future execution.

    Fields carry the name of the :class:`Machine` attribute they save,
    in plain immutable data (a snapshot is pickled into golden
    artifacts and digested by :mod:`repro.vm.fingerprint`).
    """

    status: str
    cycles: int
    iteration_count: int
    outputs: tuple
    rng: int
    inj_counter: int
    coll_seq: int
    #: the blocked MPI operation's sorted items, or None
    pending: Optional[tuple]
    ret_val: object
    ret_val_p: object
    #: per frame: (function name, regs, block, ip, saved_sp, ret_dest,
    #: ret_dest_p) — by name, so a state restores into any program
    #: compiled from the same source
    call_stack: Tuple[tuple, ...]
    #: :meth:`ProcessMemory.snapshot_state`; None when memory travels
    #: some other way (a COW transaction), a canonical form in digests
    memory: Optional[tuple]


class InstrumentationState(NamedTuple):
    """What observes the execution without steering it: the
    contamination table, the fault plan and what it fired.  Inert — and
    excluded from convergence digests — once the plan is spent and the
    table is empty."""

    fpm: Optional[tuple]
    armed: Tuple[FaultSpec, ...]
    armed_idx: int
    inj_next: int
    inj_rng: int
    injection_events: tuple


class MachineState(NamedTuple):
    """One rank's restorable state: :meth:`Machine.capture`'s result."""

    execution: ExecutionState
    instrumentation: InstrumentationState


class Machine:
    """One simulated MPI process executing a compiled program.

    An attribute is restorable state by being a field of
    :class:`ExecutionState` or :class:`InstrumentationState` — the one
    list snapshots, trial forks, roll-backs and digests all read.
    ``trap``, ``pending_call`` and ``fused_skew`` live within one
    :meth:`run` call and are reset by :meth:`restore`; everything else
    is configuration or counters.
    """

    def __init__(
        self,
        program: CompiledProgram,
        rank: int = 0,
        size: int = 1,
        runtime=None,
        *,
        seed: int = 12345,
        mem_capacity: int = 1 << 16,
        stack_words: int = 1 << 13,
        max_call_depth: int = 200,
        entry: str = "main",
    ) -> None:
        self.program = program
        self.rank = rank
        self.size = size
        self.runtime = runtime
        self.entry = entry
        self.memory = ProcessMemory(mem_capacity, stack_words, rank)
        self.rng = Lcg64(seed, stream=rank)
        if program.taint_mode:
            self.fpm: Optional[ShadowTable] = TaintTable()
        elif program.fpm_mode:
            self.fpm = ShadowTable()
        else:
            self.fpm = None

        self.call_stack: List[Frame] = []
        self.max_call_depth = max_call_depth
        self.status = MachineStatus.READY
        self.cycles = 0
        self.trap: Optional[Trap] = None
        self.outputs: list = []
        self.iteration_count = 0

        # MPI cooperation state (owned by the runtime).
        self.pending = None
        self.coll_seq = 0

        # Call/return staging used by the run loop.
        self.pending_call: Optional[Tuple] = None
        self.ret_val = None
        self.ret_val_p = None

        # Fault injection state.
        self.inj_counter = 0
        self.inj_next = 0  # 0 never matches: counter starts at 1
        self._armed: List[FaultSpec] = []
        self._armed_idx = 0
        self._inj_rng = Lcg64(seed ^ 0xFA17, stream=rank)
        self.injection_events: List[InjectionEvent] = []

        #: members completed by a region before one of them raised; the
        #: run loop folds this into its instruction count so trap cycles
        #: are identical to single-step dispatch
        self.fused_skew = 0

        # Compiled-region execution state.
        #: which region map ``run`` dispatches through: the profiled one
        #: or, when off, the static one.  Campaigns running --no-tier2
        #: share compiled programs (and their installed plans) with
        #: default campaigns through the prepared cache, so the choice
        #: must be per machine
        self.use_tier2 = True
        #: ``(func name, block index) -> [false count, true count]`` edge
        #: counts, filled by profiling condbr closures during golden runs
        #: (None — the default — keeps every branch on its fast path)
        self.edge_profile: Optional[dict] = None
        #: cycles consumed by the last region entry (written by the
        #: generated epilogues/exits, read by the run loop)
        self.tier2_cycles = 0
        #: observability counters over every region entry, drained by
        #: the scheduler at job end; ``t2_deopts`` is bumped by the
        #: regions themselves, on minority-edge guard exits and traps
        #: only (running out of budget or armed gap is how every entry
        #: ends)
        self.t2_enters = 0
        self.t2_deopts = 0
        self.t2_cycles_acc = 0
        #: regions this machine compiled by entering them first
        self.t2_compiled = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def arm_faults(self, specs: Sequence[FaultSpec], seed: Optional[int] = None) -> None:
        """Arm the fault plan for this rank (specs for other ranks ignored)."""
        mine = sorted(
            (s for s in specs if s.rank == self.rank), key=lambda s: s.occurrence
        )
        for s in mine:
            if s.occurrence < 1:
                raise ValueError(f"fault occurrence must be >= 1, got {s.occurrence}")
        self._armed = mine
        self._armed_idx = 0
        if seed is not None:
            self._inj_rng = Lcg64(seed ^ 0xFA17, stream=self.rank)
        self.inj_next = mine[0].occurrence if mine else 0

    def start(self, args: Optional[Sequence] = None) -> None:
        """Push the entry frame. Default arguments are ``(rank, size)``."""
        cfunc = self.program.functions.get(self.entry)
        if cfunc is None:
            raise Trap(TrapKind.BAD_CALL, f"no entry function {self.entry!r}",
                       rank=self.rank)
        if args is None:
            args = (self.rank, self.size)
        if cfunc.is_dual:
            dual_args = []
            for a in args:
                # dual-chain shadows start as the pristine value itself;
                # taint shadows start clean (0 = not derived from a fault)
                dual_args.extend((a, 0 if self.program.taint_mode else a))
            args = dual_args
        if len(args) != len(cfunc.param_indices):
            raise Trap(TrapKind.BAD_CALL,
                       f"entry {self.entry!r} expects {len(cfunc.param_indices)} "
                       f"args, got {len(args)}", rank=self.rank)
        frame = Frame(cfunc, self.memory.sp, None, None)
        for pi, av in zip(cfunc.param_indices, args):
            frame.regs[pi] = av
        self.call_stack = [frame]
        self.status = MachineStatus.READY

    # ------------------------------------------------------------------
    # Restorable state
    # ------------------------------------------------------------------
    def execution_state(self, memory: Optional[tuple]) -> ExecutionState:
        """The execution part, with ``memory`` as its memory field."""
        if self.pending_call is not None:  # pragma: no cover - epoch boundaries only
            raise SnapshotError("cannot capture a machine mid-call staging")
        pending = self.pending
        return ExecutionState(
            self.status.value,
            self.cycles,
            self.iteration_count,
            tuple(self.outputs),
            self.rng.state,
            self.inj_counter,
            self.coll_seq,
            tuple(sorted(pending.items())) if pending is not None else None,
            self.ret_val,
            self.ret_val_p,
            tuple(
                (fr.cfunc.name, tuple(fr.regs), fr.block, fr.ip,
                 fr.saved_sp, fr.ret_dest, fr.ret_dest_p)
                for fr in self.call_stack
            ),
            memory,
        )

    def capture(self, memory: bool = True) -> MachineState:
        """This rank's state at an epoch boundary, by value.

        ``memory=False`` leaves the words out: a forked trial's memory
        is undone by its COW transaction, not copied.
        """
        return MachineState(
            self.execution_state(
                self.memory.snapshot_state() if memory else None),
            InstrumentationState(
                self.fpm.snapshot_state() if self.fpm is not None else None,
                tuple(self._armed),
                self._armed_idx,
                self.inj_next,
                self._inj_rng.state,
                tuple(self.injection_events),
            ),
        )

    def restore(self, state: MachineState) -> None:
        """Rewind to a state :meth:`capture` returned — from this
        machine or from any machine of the same program and rank."""
        ex, ins = state
        stack: List[Frame] = []
        for name, regs, block, ip, saved_sp, ret_dest, ret_dest_p \
                in ex.call_stack:
            cfunc = self.program.functions.get(name)
            if cfunc is None:
                raise SnapshotError(
                    f"state references unknown function {name!r}; "
                    "restore target was compiled from a different program"
                )
            fr = Frame(cfunc, saved_sp, ret_dest, ret_dest_p)
            fr.regs = list(regs)
            fr.block = block
            fr.ip = ip
            stack.append(fr)
        if ins.fpm is not None and self.fpm is None:  # pragma: no cover
            raise SnapshotError("state has FPM data but machine has none")
        if ex.memory is not None:
            self.memory.restore_state(ex.memory)
        self.call_stack = stack
        self.status = MachineStatus(ex.status)
        self.cycles = ex.cycles
        self.iteration_count = ex.iteration_count
        self.outputs = list(ex.outputs)
        self.rng.state = ex.rng
        self.inj_counter = ex.inj_counter
        self.coll_seq = ex.coll_seq
        self.pending = dict(ex.pending) if ex.pending is not None else None
        self.ret_val = ex.ret_val
        self.ret_val_p = ex.ret_val_p
        if ins.fpm is not None:
            self.fpm.restore_state(ins.fpm)
        self._armed = list(ins.armed)
        self._armed_idx = ins.armed_idx
        self.inj_next = ins.inj_next
        self._inj_rng.state = ins.inj_rng
        self.injection_events = list(ins.injection_events)
        self.trap = None
        self.pending_call = None
        self.fused_skew = 0

    # ------------------------------------------------------------------
    # Fault injection (called from compiled closures)
    # ------------------------------------------------------------------
    def inject_now(self, frame: Frame, opinfo, site: int = -1) -> None:
        """Fire every armed fault whose occurrence equals the counter."""
        count = self.inj_counter
        while self._armed_idx < len(self._armed) and \
                self._armed[self._armed_idx].occurrence == count:
            spec = self._armed[self._armed_idx]
            self._armed_idx += 1
            if spec.operand is not None and 0 <= spec.operand < len(opinfo):
                op_i = spec.operand
            else:
                op_i = self._inj_rng.next_int(len(opinfo))
            reg_index, is_float, shadow_index = opinfo[op_i]
            bit = spec.bit if spec.bit is not None else self._inj_rng.next_int(64)
            before = frame.regs[reg_index]
            after = flip_bit(before, bit, is_float)
            frame.regs[reg_index] = after
            if self.program.taint_mode and shadow_index >= 0:
                # taint analysis marks the flipped register as derived
                # from the fault
                frame.regs[shadow_index] = 1
            event = InjectionEvent(count, reg_index, op_i, bit, is_float,
                                   before, after, site=site)
            # Approximate cycle (stale by at most one scheduler quantum);
            # the run loop overwrites it with the exact value unless the
            # injected instruction traps immediately.
            event.cycle = self.cycles + 1
            self.injection_events.append(event)
            if _obs._CURRENT is not None:
                _obs.inc("repro_injections_total")
                _obs.emit("injection", rank=self.rank, occurrence=count,
                          site=site, bit=bit, cycle=event.cycle)
        self.inj_next = (
            self._armed[self._armed_idx].occurrence
            if self._armed_idx < len(self._armed)
            else 0
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, budget: int) -> MachineStatus:
        """Execute up to ``budget`` instructions; returns the new status.

        Dispatch is two-level: at every ``(block, ip)`` the frame's
        region map is consulted first — a slot holds generated code for
        the straight-line run starting there (or, at a block head with a
        golden plan installed, for the whole hot path through it) and is
        entered when its first chunk fits the remaining budget and,
        while a fault is pending, executes fewer marked instructions
        than remain before the armed occurrence.  The region is handed
        both numbers, runs on for as long as they allow (compiling
        itself first if this is its first entry in the process) and
        stages the ``(block, ip)`` it left to, so epoch structure — and
        with it CML sampling and MPI interleaving — is bit-identical to
        single-step dispatch.  Everywhere else the single-instruction
        closure runs.  The map is chosen per frame change by
        ``use_tier2`` alone: ``tier2`` (static regions, head slots
        replaced by the golden plan's) or ``static``.
        """
        if self.status is not MachineStatus.READY:
            return self.status
        if not self.call_stack:
            raise RuntimeError("Machine.run() before start()")
        mem = self.memory
        stack = self.call_stack
        self.fused_skew = 0
        use2 = self.use_tier2
        f = stack[-1]
        cfunc = f.cfunc
        blocks = cfunc.blocks
        rblocks = cfunc.tier2 if use2 else cfunc.static
        code = blocks[f.block]
        rmap = rblocks[f.block]
        ip = f.ip
        n = 0
        t2n = t2c = 0
        try:
            while n < budget:
                if ((reg := rmap[ip]) is not None
                        and reg[1] <= (rem := budget - n)
                        and reg[2] < (gap := self.inj_next - self.inj_counter
                                      if self.inj_next else _UNARMED)):
                    # its first chunk fits the budget and stays short of
                    # a pending fault's occurrence; the region stops
                    # itself where (rem, gap) run out, so the fault still
                    # fires on the exact single-stepped marked instruction
                    t2n += 1
                    sig = reg[0](self, f, rem, gap)
                    c = self.tier2_cycles
                    n += c
                    t2c += c
                    if sig == SIG_JUMP:
                        ip = f.ip
                        b = f.block
                        code = blocks[b]
                        rmap = rblocks[b]
                        continue
                    # SIG_RET: the region ran through the function's
                    # return — fall through to the shared handling below.
                else:
                    sig = code[ip](self, f)
                    n += 1
                    if sig is None:
                        ip += 1
                        continue
                    if sig == SIG_JUMP:
                        ip = 0
                        code = blocks[f.block]
                        rmap = rblocks[f.block]
                        continue
                    if sig == SIG_CALL:
                        f.ip = ip + 1
                        target, args, dest, dest_p = self.pending_call
                        self.pending_call = None
                        if len(stack) >= self.max_call_depth:
                            raise Trap(TrapKind.STACK_OVERFLOW,
                                       f"call depth {len(stack)} exceeded")
                        nf = Frame(target, mem.sp, dest, dest_p)
                        regs = nf.regs
                        for pi, av in zip(target.param_indices, args):
                            regs[pi] = av
                        stack.append(nf)
                        f = nf
                        cfunc = target
                        blocks = target.blocks
                        rblocks = target.tier2 if use2 else target.static
                        code = blocks[0]
                        rmap = rblocks[0]
                        ip = 0
                        continue
                    if sig == SIG_BLOCK:
                        # Do not count the re-executed call against the clock
                        # twice; the blocked attempt itself still costs 1 cycle.
                        f.ip = ip
                        self.status = MachineStatus.BLOCKED
                        break
                    if sig == SIG_INJECT:
                        self.injection_events[-1].cycle = self.cycles + n
                        ip += 1
                        continue
                # SIG_RET (from either dispatch path)
                done = stack.pop()
                if not stack:
                    # Keep the entry frame's memory live so the final
                    # application state (and its contamination) remains
                    # inspectable after exit, like a core dump.
                    self.status = MachineStatus.DONE
                    break
                lo, hi = mem.stack_release(done.saved_sp)
                if self.fpm is not None and hi > lo:
                    self.fpm.purge_range(lo, hi)
                f = stack[-1]
                if done.ret_dest is not None:
                    f.regs[done.ret_dest] = self.ret_val
                if done.ret_dest_p is not None:
                    f.regs[done.ret_dest_p] = self.ret_val_p
                cfunc = f.cfunc
                blocks = cfunc.blocks
                rblocks = cfunc.tier2 if use2 else cfunc.static
                code = blocks[f.block]
                rmap = rblocks[f.block]
                ip = f.ip
            else:
                # Budget exhausted mid-run: stay READY for the next quantum.
                f.ip = ip
        except (Trap, ZeroDivisionError, OverflowError, ValueError,
                TypeError) as exc:
            # A region records how many members completed before the
            # raise; fold that skew exactly once so the trap lands on
            # the same virtual cycle as single-step dispatch, then
            # classify the exception into a Trap.
            n += self.fused_skew
            self.fused_skew = 0
            self.trap = self._as_trap(exc, self.cycles + n)
            self.status = MachineStatus.TRAPPED
        if t2n:
            self.t2_enters += t2n
            self.t2_cycles_acc += t2c
        self.cycles += n
        return self.status

    def _as_trap(self, exc: BaseException, cycle: int) -> Trap:
        """Normalise a raising instruction into a :class:`Trap` at ``cycle``.

        The shared tail of the dispatch loop's except-path: VM traps pass
        through with rank/cycle pinned; host-level errors are classified
        into the paper's trap taxonomy (ZeroDivisionError and the
        Overflow/ValueError pair are both ArithmeticError-adjacent, so
        the explicit isinstance order here is what keeps DIV_ZERO
        distinct from ARITH).
        """
        if isinstance(exc, Trap):
            if exc.rank is None:
                exc.rank = self.rank
            exc.cycle = cycle
            return exc
        if isinstance(exc, ZeroDivisionError):
            return Trap(TrapKind.DIV_ZERO, "integer division by zero",
                        rank=self.rank, cycle=cycle)
        if isinstance(exc, TypeError):
            return Trap(TrapKind.POISON, f"undefined value used: {exc}",
                        rank=self.rank, cycle=cycle)
        return Trap(TrapKind.ARITH, f"invalid arithmetic: {exc}",
                    rank=self.rank, cycle=cycle)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cml(self) -> int:
        """Current corrupted-memory-location count (0 without FPM)."""
        return len(self.fpm) if self.fpm is not None else 0

    @property
    def ever_contaminated(self) -> bool:
        return self.fpm is not None and self.fpm.ever_contaminated

    def wake(self) -> None:
        """Called by the MPI runtime when a blocking operation completed."""
        if self.status is MachineStatus.BLOCKED:
            self.status = MachineStatus.READY

    def __repr__(self) -> str:
        return (
            f"<Machine rank={self.rank}/{self.size} {self.status.value} "
            f"cycles={self.cycles} cml={self.cml}>"
        )
