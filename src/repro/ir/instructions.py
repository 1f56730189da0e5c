"""IR instruction set.

The instruction set is a small, typed register machine modelled on the
subset of LLVM IR that LLFI instruments:

* arithmetic / bitwise binary operations (``BinOp``),
* comparisons (``Cmp``), casts (``Cast``), register copies (``Copy``),
* memory operations (``Alloca``, ``Load``, ``Store``),
* calls (``Call``) — user functions and intrinsics share one opcode,
* control flow terminators (``Br``, ``CondBr``, ``Ret``),
* FPM fused memory operations (``FpmLoad``, ``FpmStore``) that only the
  dual-chain pass creates — they carry both the potentially-corrupted and
  the pristine register of the paper's primary/secondary chains.

Each instruction carries two pieces of instrumentation metadata:

``inject_site``
    Integer site id assigned by the fault-injection pass.  At runtime the
    VM counts dynamic executions of marked sites; the fault plan names a
    (site-occurrence) pair to corrupt, which reproduces LLFI's "flip a bit
    in a live source register" model.
``secondary``
    True for instructions replicated into the pristine chain; secondary
    instructions are never injection sites and never observable side
    effects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..errors import IRError
from .types import FLOAT, INT, PTR, Type
from .values import Register, Value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .basicblock import BasicBlock

# Integer binary opcodes (operands INT, result INT).
INT_BINOPS = ("add", "sub", "mul", "sdiv", "srem", "and", "or", "xor", "shl", "ashr")
# Float binary opcodes (operands FLOAT, result FLOAT).
FLOAT_BINOPS = ("fadd", "fsub", "fmul", "fdiv")
# Pointer arithmetic: ptr +/- int -> ptr.
PTR_BINOPS = ("padd", "psub")

ICMP_PREDS = ("eq", "ne", "slt", "sle", "sgt", "sge")
FCMP_PREDS = ("oeq", "one", "olt", "ole", "ogt", "oge")

CAST_OPS = ("sitofp", "fptosi", "ptrtoint", "inttoptr")


class Instruction:
    """Base class for all IR instructions."""

    __slots__ = ("dest", "inject_site", "secondary")

    opcode: str = "?"

    def __init__(self, dest: Optional[Register]) -> None:
        self.dest = dest
        self.inject_site: Optional[int] = None
        self.secondary: bool = False

    def operands(self) -> Tuple[Value, ...]:
        """All value operands read by this instruction."""
        return ()

    @property
    def is_terminator(self) -> bool:
        return False

    def __repr__(self) -> str:
        from .printer import format_instruction

        return format_instruction(self)


class BinOp(Instruction):
    """``dest = op lhs, rhs`` for arithmetic/bitwise/pointer opcodes."""

    __slots__ = ("op", "lhs", "rhs")

    opcode = "binop"

    def __init__(self, dest: Register, op: str, lhs: Value, rhs: Value) -> None:
        if op not in INT_BINOPS and op not in FLOAT_BINOPS and op not in PTR_BINOPS:
            raise IRError(f"unknown binary opcode {op!r}")
        super().__init__(dest)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def operands(self) -> Tuple[Value, ...]:
        return (self.lhs, self.rhs)


class Cmp(Instruction):
    """``dest = icmp/fcmp.pred lhs, rhs`` producing INT 0/1."""

    __slots__ = ("kind", "pred", "lhs", "rhs")

    opcode = "cmp"

    def __init__(
        self, dest: Register, kind: str, pred: str, lhs: Value, rhs: Value
    ) -> None:
        if kind == "icmp":
            if pred not in ICMP_PREDS:
                raise IRError(f"unknown icmp predicate {pred!r}")
        elif kind == "fcmp":
            if pred not in FCMP_PREDS:
                raise IRError(f"unknown fcmp predicate {pred!r}")
        else:
            raise IRError(f"unknown comparison kind {kind!r}")
        super().__init__(dest)
        self.kind = kind
        self.pred = pred
        self.lhs = lhs
        self.rhs = rhs

    def operands(self) -> Tuple[Value, ...]:
        return (self.lhs, self.rhs)


class Cast(Instruction):
    """``dest = castop src`` between INT, FLOAT and PTR."""

    __slots__ = ("op", "src")

    opcode = "cast"

    def __init__(self, dest: Register, op: str, src: Value) -> None:
        if op not in CAST_OPS:
            raise IRError(f"unknown cast opcode {op!r}")
        super().__init__(dest)
        self.op = op
        self.src = src

    def operands(self) -> Tuple[Value, ...]:
        return (self.src,)


class Copy(Instruction):
    """``dest = src`` — register move, created by scalar promotion."""

    __slots__ = ("src",)

    opcode = "copy"

    def __init__(self, dest: Register, src: Value) -> None:
        super().__init__(dest)
        self.src = src

    def operands(self) -> Tuple[Value, ...]:
        return (self.src,)


class Alloca(Instruction):
    """``dest = alloca count`` — reserve ``count`` words of stack memory.

    ``count`` is a compile-time constant; variable-length allocation goes
    through the ``malloc`` intrinsic instead.
    """

    __slots__ = ("count", "var_name")

    opcode = "alloca"

    def __init__(self, dest: Register, count: int, var_name: str = "") -> None:
        if count <= 0:
            raise IRError(f"alloca count must be positive, got {count}")
        super().__init__(dest)
        self.count = int(count)
        self.var_name = var_name


class Load(Instruction):
    """``dest = load addr``."""

    __slots__ = ("addr",)

    opcode = "load"

    def __init__(self, dest: Register, addr: Value) -> None:
        super().__init__(dest)
        self.addr = addr

    def operands(self) -> Tuple[Value, ...]:
        return (self.addr,)


class Store(Instruction):
    """``store value, addr``."""

    __slots__ = ("value", "addr")

    opcode = "store"

    def __init__(self, value: Value, addr: Value) -> None:
        super().__init__(None)
        self.value = value
        self.addr = addr

    def operands(self) -> Tuple[Value, ...]:
        return (self.value, self.addr)


class Call(Instruction):
    """``dest = call callee(args...)``; ``callee`` is resolved by name.

    Intrinsics (math library, MPI, I/O, memory management) use the same
    instruction with a name the VM recognises; see
    :mod:`repro.vm.intrinsics`.

    ``dest_p`` is set by the dual-chain pass on calls to dual functions:
    the callee returns a (primary, pristine) pair and the pristine half
    lands in ``dest_p``.
    """

    __slots__ = ("callee", "args", "dest_p")

    opcode = "call"

    def __init__(
        self, dest: Optional[Register], callee: str, args: Sequence[Value]
    ) -> None:
        super().__init__(dest)
        self.callee = callee
        self.args: List[Value] = list(args)
        self.dest_p: Optional[Register] = None

    def operands(self) -> Tuple[Value, ...]:
        return tuple(self.args)


class Br(Instruction):
    """Unconditional branch."""

    __slots__ = ("target",)

    opcode = "br"

    def __init__(self, target: "BasicBlock") -> None:
        super().__init__(None)
        self.target = target

    @property
    def is_terminator(self) -> bool:
        return True


class CondBr(Instruction):
    """``condbr cond, iftrue, iffalse`` — branches on INT truthiness.

    Control flow always consumes the *primary* (potentially-corrupted)
    register: the pristine chain follows the faulty control path, exactly
    as in the paper's replicated-instruction scheme.
    """

    __slots__ = ("cond", "iftrue", "iffalse")

    opcode = "condbr"

    def __init__(self, cond: Value, iftrue: "BasicBlock", iffalse: "BasicBlock") -> None:
        super().__init__(None)
        self.cond = cond
        self.iftrue = iftrue
        self.iffalse = iffalse

    def operands(self) -> Tuple[Value, ...]:
        return (self.cond,)

    @property
    def is_terminator(self) -> bool:
        return True


class Ret(Instruction):
    """``ret value`` or bare ``ret`` for void functions.

    ``value_p`` is set by the dual-chain pass in dual functions: the
    pristine half of the returned pair.
    """

    __slots__ = ("value", "value_p")

    opcode = "ret"

    def __init__(self, value: Optional[Value] = None) -> None:
        super().__init__(None)
        self.value = value
        self.value_p: Optional[Value] = None

    def operands(self) -> Tuple[Value, ...]:
        ops = []
        if self.value is not None:
            ops.append(self.value)
        if self.value_p is not None:
            ops.append(self.value_p)
        return tuple(ops)

    @property
    def is_terminator(self) -> bool:
        return True


class FpmLoad(Instruction):
    """Fused FPM load: ``dest = mem[addr]; dest_p = pristine(addr_p)``.

    Implements the paper's ``fpm_fetch``: the pristine value is the shadow
    hash-table entry for ``addr_p`` if the location is contaminated, else
    the memory cell itself.  A corrupted address register makes
    ``addr != addr_p``, in which case the pristine chain reads the cell the
    fault-free execution would have read.
    """

    __slots__ = ("dest_p", "addr", "addr_p", "taint")

    opcode = "fpm_load"

    def __init__(
        self, dest: Register, dest_p: Register, addr: Value, addr_p: Value
    ) -> None:
        super().__init__(dest)
        self.dest_p = dest_p
        self.addr = addr
        self.addr_p = addr_p
        #: True when created by the taintchain pass: dest_p carries a
        #: one-bit taint instead of a pristine value.
        self.taint = False

    def operands(self) -> Tuple[Value, ...]:
        return (self.addr, self.addr_p)


class FpmStore(Instruction):
    """Fused FPM store: ``mem[addr] = value`` plus contamination tracking.

    Implements the paper's ``fpm_store``: compares the potentially-
    corrupted value/address with the pristine ones and updates the shadow
    hash table, including the dual contamination effect of corrupted store
    addresses (Sec. 3.2, "Store addresses").
    """

    __slots__ = ("value", "value_p", "addr", "addr_p", "taint")

    opcode = "fpm_store"

    def __init__(self, value: Value, value_p: Value, addr: Value, addr_p: Value) -> None:
        super().__init__(None)
        self.value = value
        self.value_p = value_p
        self.addr = addr
        self.addr_p = addr_p
        #: True when created by the taintchain pass: value_p is a taint bit.
        self.taint = False

    def operands(self) -> Tuple[Value, ...]:
        return (self.value, self.value_p, self.addr, self.addr_p)


def result_type(op: str, lhs: Type, rhs: Type) -> Type:
    """Result type of a binary opcode applied to operand types.

    Raises :class:`~repro.errors.IRError` on an invalid combination; the
    verifier and the builder both funnel through this single rule table.
    """
    if op in INT_BINOPS:
        if lhs is INT and rhs is INT:
            return INT
        raise IRError(f"{op} requires int operands, got {lhs}, {rhs}")
    if op in FLOAT_BINOPS:
        if lhs is FLOAT and rhs is FLOAT:
            return FLOAT
        raise IRError(f"{op} requires float operands, got {lhs}, {rhs}")
    if op in PTR_BINOPS:
        if lhs is PTR and rhs is INT:
            return PTR
        raise IRError(f"{op} requires (ptr, int) operands, got {lhs}, {rhs}")
    raise IRError(f"unknown binary opcode {op!r}")
