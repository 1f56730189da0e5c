"""Intrinsic functions callable from MiniHPC programs.

Intrinsics are the boundary between application code and the "system":
math library, heap, I/O, and MPI.  The registry here serves two clients:

* the frontend semantic analyser reads the *signatures* to type-check
  calls (pointer parameters carry an element type the IR itself erases);
* the VM dispatches ``Call`` instructions whose callee name is registered
  here to the *handler*.

Purity matters to the dual-chain FPM pass: *pure* intrinsics are
replicated into the secondary chain and evaluated a second time with
pristine arguments (the paper's treatment of library calls like ``sin()``);
impure intrinsics run once with primary arguments and their result is
copied into the shadow register (replicating them would duplicate side
effects — "output values printed twice", Sec. 3.2).

Blocking matters to the region generator (:mod:`repro.vm.tier2`): only
an intrinsic whose handler can return ``BLOCK`` — a receive or a
collective, which may have to wait for another rank — cuts a
straight-line run.  Every other call completes in its one cycle and
takes only argument values, so it is an ordinary region member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .ops import wrap_i64
from .traps import Trap, TrapKind

#: Sentinel returned by blocking intrinsics (MPI) when the calling process
#: must suspend; the VM re-executes the call when the scheduler wakes it.
BLOCK = object()

# Frontend type codes used in signatures:
#   "int", "float"          scalars
#   "pi", "pf"              pointer to int / float words
#   "pa"                    pointer to anything (accepts pi/pf)
#   "void"                  (return only)

Signature = Tuple[Tuple[str, ...], str]


@dataclass(frozen=True)
class IntrinsicSpec:
    name: str
    params: Tuple[str, ...]
    ret: str
    pure: bool
    handler: Callable
    #: the handler may return ``BLOCK`` (suspend, re-execute when woken)
    blocking: bool = False


def _nan_guard(fn):
    """Wrap a math function so domain errors yield NaN (C math semantics)."""

    def call(x):
        try:
            return fn(x)
        except ValueError:
            return float("nan")
        except OverflowError:
            return float("inf")

    return call


_sqrt = _nan_guard(math.sqrt)
_log = _nan_guard(math.log)
_exp = _nan_guard(math.exp)


def _pow(a: float, b: float) -> float:
    try:
        r = a ** b
    except (ValueError, OverflowError, ZeroDivisionError):
        return float("nan")
    if isinstance(r, complex):
        return float("nan")
    return r


# ----------------------------------------------------------------------
# Handlers.  All take (machine, args) and return the result value, BLOCK,
# or None for void intrinsics.
# ----------------------------------------------------------------------

def _h_malloc(m, a):
    ptr = m.memory.malloc(int(a[0]))
    return ptr


def _h_free(m, a):
    lo, hi = m.memory.free(int(a[0]))
    if m.fpm is not None:
        m.fpm.purge_range(lo, hi)
    return None


def _h_emit(m, a):
    m.outputs.append(a[0])
    return None


def _h_mark_iteration(m, a):
    m.iteration_count += 1
    return None


def _h_rand(m, a):
    return m.rng.next_float()


def _h_mpi_abort(m, a):
    raise Trap(TrapKind.ABORT, f"mpi_abort({a[0]})", rank=m.rank, code=int(a[0]))


def _h_mpi_rank(m, a):
    return m.rank


def _h_mpi_size(m, a):
    return m.size


def _h_mpi_wtime(m, a):
    # Virtual time: one instruction = one cycle at a notional 1 GHz.
    return m.cycles * 1e-9


def _detached(m):
    raise Trap(TrapKind.MPI, "MPI runtime not attached", rank=m.rank)


# The MPI handlers hand the raw argument list to the runtime
# (:class:`repro.mpi.MPIRuntime`), which converts it and returns None or
# ``BLOCK`` itself.

def _h_mpi_send(m, a):
    return (m.runtime or _detached(m)).send(m, a)


def _h_mpi_recv(m, a):
    return (m.runtime or _detached(m)).recv(m, a)


def _h_mpi_barrier(m, a):
    return (m.runtime or _detached(m)).collective(m, "barrier", ())


def _h_mpi_bcast(m, a):
    return (m.runtime or _detached(m)).collective(
        m, "bcast", (int(a[0]), int(a[1]), int(a[2])))


def _h_mpi_allreduce(m, a):
    return (m.runtime or _detached(m)).collective(
        m, "allreduce", (int(a[0]), int(a[1]), int(a[2]), int(a[3])))


def _h_mpi_reduce(m, a):
    return (m.runtime or _detached(m)).collective(
        m, "reduce", (int(a[0]), int(a[1]), int(a[2]), int(a[3]), int(a[4])))


def _h_mpi_allgather(m, a):
    return (m.runtime or _detached(m)).collective(
        m, "allgather", (int(a[0]), int(a[1]), int(a[2])))


def _h_mpi_sendrecv(m, a):
    # sendrecv(sbuf, scount, dest, rbuf, rcount, src, tag)
    return (m.runtime or _detached(m)).sendrecv(m, a)


INTRINSICS: Dict[str, IntrinsicSpec] = {}


def _reg(name: str, params: Tuple[str, ...], ret: str, pure: bool,
         handler: Callable, blocking: bool = False) -> None:
    INTRINSICS[name] = IntrinsicSpec(name, params, ret, pure, handler,
                                     blocking)


# Math library (pure -> replicated into the secondary chain).
_reg("sqrt", ("float",), "float", True, lambda m, a: _sqrt(a[0]))
_reg("sin", ("float",), "float", True, lambda m, a: math.sin(a[0]))
_reg("cos", ("float",), "float", True, lambda m, a: math.cos(a[0]))
_reg("tan", ("float",), "float", True, lambda m, a: math.tan(a[0]))
_reg("exp", ("float",), "float", True, lambda m, a: _exp(a[0]))
_reg("log", ("float",), "float", True, lambda m, a: _log(a[0]))
_reg("fabs", ("float",), "float", True, lambda m, a: abs(a[0]))
_reg("floor", ("float",), "float", True, lambda m, a: float(math.floor(a[0])))
_reg("ceil", ("float",), "float", True, lambda m, a: float(math.ceil(a[0])))
_reg("pow", ("float", "float"), "float", True, lambda m, a: _pow(a[0], a[1]))
_reg("fmin", ("float", "float"), "float", True, lambda m, a: min(a[0], a[1]))
_reg("fmax", ("float", "float"), "float", True, lambda m, a: max(a[0], a[1]))
_reg("imin", ("int", "int"), "int", True, lambda m, a: min(a[0], a[1]))
_reg("imax", ("int", "int"), "int", True, lambda m, a: max(a[0], a[1]))
_reg("iabs", ("int",), "int", True, lambda m, a: wrap_i64(abs(a[0])))

# Memory management (impure: address-space side effects).
_reg("malloc", ("int",), "pa", False, _h_malloc)
_reg("free", ("pa",), "void", False, _h_free)

# Output and bookkeeping.
_reg("emit", ("float",), "void", False, _h_emit)
_reg("emiti", ("int",), "void", False, _h_emit)
_reg("mark_iteration", (), "void", False, _h_mark_iteration)
_reg("rand", (), "float", False, _h_rand)

# MPI.
_reg("mpi_rank", (), "int", False, _h_mpi_rank)
_reg("mpi_size", (), "int", False, _h_mpi_size)
_reg("mpi_wtime", (), "float", False, _h_mpi_wtime)
_reg("mpi_abort", ("int",), "void", False, _h_mpi_abort)
_reg("mpi_send", ("pa", "int", "int", "int"), "void", False, _h_mpi_send)
_reg("mpi_recv", ("pa", "int", "int", "int"), "void", False, _h_mpi_recv,
     blocking=True)
_reg("mpi_barrier", (), "void", False, _h_mpi_barrier, blocking=True)
_reg("mpi_bcast", ("pa", "int", "int"), "void", False, _h_mpi_bcast,
     blocking=True)
_reg("mpi_allreduce", ("pa", "pa", "int", "int"), "void", False,
     _h_mpi_allreduce, blocking=True)
_reg("mpi_reduce", ("pa", "pa", "int", "int", "int"), "void", False,
     _h_mpi_reduce, blocking=True)
_reg("mpi_allgather", ("pa", "int", "pa"), "void", False, _h_mpi_allgather,
     blocking=True)
_reg("mpi_sendrecv", ("pa", "int", "int", "pa", "int", "int", "int"), "void",
     False, _h_mpi_sendrecv, blocking=True)

#: MPI reduction op codes shared with MiniHPC sources.
MPI_OP_SUM = 0
MPI_OP_MIN = 1
MPI_OP_MAX = 2


def intrinsic_ret_ir_type(spec: IntrinsicSpec):
    """IR type of an intrinsic's return value (None for void)."""
    from ..ir.types import FLOAT, INT, PTR

    mapping = {"int": INT, "float": FLOAT, "pi": PTR, "pf": PTR, "pa": PTR,
               "void": None}
    return mapping[spec.ret]


def is_intrinsic(name: str) -> bool:
    return name in INTRINSICS


def get_intrinsic(name: str) -> Optional[IntrinsicSpec]:
    return INTRINSICS.get(name)
