"""Scalar operation semantics: 64-bit wrapping ints, IEEE floats.

These functions define the machine arithmetic the VM simulates.  Integer
operations wrap to 64-bit two's complement (so an injected high-bit flip
behaves like hardware, not like Python bignums); float operations follow
IEEE-754 (division by zero gives ±inf/NaN rather than trapping).

Exceptions escaping these functions are converted to traps by the VM run
loop: ``ZeroDivisionError`` -> DIV_ZERO, ``OverflowError``/``ValueError``
-> ARITH, ``TypeError`` -> POISON (operation on an undefined register).
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Dict, Tuple

_M64 = (1 << 64) - 1
_LO, _HI = -(1 << 63), 1 << 63


def wrap_i64(v: int) -> int:
    """``v`` in 64-bit two's complement.  Nearly every result is already
    in range, and a range test — unlike masking with ``_M64`` — allocates
    no bignum; the class test keeps a float (an int register can hold
    one: memory is untyped) on the arm whose ``&`` raises TypeError."""
    return v if v.__class__ is int and _LO <= v < _HI else \
        ((v + _HI) & _M64) - _HI


def _iadd(a, b):
    v = a + b
    return v if v.__class__ is int and _LO <= v < _HI else \
        ((v + _HI) & _M64) - _HI


def _isub(a, b):
    v = a - b
    return v if v.__class__ is int and _LO <= v < _HI else \
        ((v + _HI) & _M64) - _HI


def _imul(a, b):
    v = a * b
    return v if v.__class__ is int and _LO <= v < _HI else \
        ((v + _HI) & _M64) - _HI


def _isdiv(a, b):
    # C semantics: truncation toward zero; b == 0 raises (-> DIV_ZERO trap).
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return wrap_i64(q)


def _isrem(a, b):
    # Sign follows the dividend, matching C's % operator.
    r = abs(a) % abs(b)
    return -r if a < 0 else r


def _iand(a, b):
    return wrap_i64(a & b)


def _ior(a, b):
    return wrap_i64(a | b)


def _ixor(a, b):
    return wrap_i64(a ^ b)


def _ishl(a, b):
    return wrap_i64(a << (b & 63))


def _iashr(a, b):
    # Python's >> on negative ints is arithmetic, which is exactly ashr
    # once `a` is within the signed 64-bit range.
    return wrap_i64(a) >> (b & 63)


def _fdiv(a, b):
    try:
        return a / b
    except ZeroDivisionError:
        a = float(a)
        if a != a or a == 0.0:
            return float("nan")
        sign = math.copysign(1.0, a) * math.copysign(1.0, b)
        return sign * math.inf


#: op name -> binary function.  Pointer arithmetic reuses wrapping int ops
#: (addresses are plain word indices).
BINOP_FUNCS: Dict[str, Callable] = {
    "add": _iadd,
    "sub": _isub,
    "mul": _imul,
    "sdiv": _isdiv,
    "srem": _isrem,
    "and": _iand,
    "or": _ior,
    "xor": _ixor,
    "shl": _ishl,
    "ashr": _iashr,
    "fadd": operator.add,
    "fsub": operator.sub,
    "fmul": operator.mul,
    "fdiv": _fdiv,
    "padd": _iadd,
    "psub": _isub,
}


def _one(a, b):
    # Ordered not-equal: false when either side is NaN.
    return 1 if (a < b or a > b) else 0


#: (kind, predicate) -> comparison function returning int 0/1.
CMP_FUNCS: Dict[Tuple[str, str], Callable] = {
    ("icmp", "eq"): lambda a, b: 1 if a == b else 0,
    ("icmp", "ne"): lambda a, b: 1 if a != b else 0,
    ("icmp", "slt"): lambda a, b: 1 if a < b else 0,
    ("icmp", "sle"): lambda a, b: 1 if a <= b else 0,
    ("icmp", "sgt"): lambda a, b: 1 if a > b else 0,
    ("icmp", "sge"): lambda a, b: 1 if a >= b else 0,
    ("fcmp", "oeq"): lambda a, b: 1 if a == b else 0,
    ("fcmp", "one"): _one,
    ("fcmp", "olt"): lambda a, b: 1 if a < b else 0,
    ("fcmp", "ole"): lambda a, b: 1 if a <= b else 0,
    ("fcmp", "ogt"): lambda a, b: 1 if a > b else 0,
    ("fcmp", "oge"): lambda a, b: 1 if a >= b else 0,
}


def cast_sitofp(a):
    return float(a)


def cast_fptosi(a):
    # int() truncates toward zero like C; inf/NaN raise -> ARITH trap,
    # matching the "undefined behaviour becomes a crash" model.
    return wrap_i64(int(a))


CAST_FUNCS: Dict[str, Callable] = {
    "sitofp": cast_sitofp,
    "fptosi": cast_fptosi,
    "ptrtoint": lambda a: a,
    "inttoptr": lambda a: a,
}
