"""Typed register-machine IR — the instrumentation substrate.

This package plays the role LLVM IR plays in the paper: the MiniHPC
frontend lowers programs to this IR, the fault-injection pass marks
injectable sites on it, and the dual-chain FPM pass rewrites it into
primary/secondary instruction chains (paper Sec. 3.2, Figs. 2-3).
"""

from .basicblock import BasicBlock
from .builder import IRBuilder
from .function import Function
from .instructions import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    Cmp,
    CondBr,
    Copy,
    FLOAT_BINOPS,
    FpmLoad,
    FpmStore,
    INT_BINOPS,
    Instruction,
    Load,
    PTR_BINOPS,
    Ret,
    Store,
    result_type,
)
from .module import Module
from .printer import format_function, format_instruction, format_module
from .types import FLOAT, INT, PTR, Type, VOID
from .values import Constant, Register, Value, const_float, const_int, const_ptr
from .verifier import verify_function, verify_module

__all__ = [
    "Alloca", "BasicBlock", "BinOp", "Br", "Call", "Cast", "Cmp", "CondBr",
    "Constant", "Copy", "FLOAT", "FLOAT_BINOPS", "FpmLoad", "FpmStore",
    "Function", "INT", "INT_BINOPS", "IRBuilder", "Instruction", "Load",
    "Module", "PTR", "PTR_BINOPS", "Register", "Ret", "Store", "Type",
    "VOID", "Value", "const_float", "const_int", "const_ptr",
    "format_function", "format_instruction", "format_module", "result_type",
    "verify_function", "verify_module",
]
