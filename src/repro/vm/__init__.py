"""Virtual machine: the simulated processor + process substrate.

Plays the role of the paper's AMD Interlagos cluster nodes: it executes
the compiled IR of MiniHPC applications, provides word-addressed process
memory, converts undefined behaviour into crashes, and hosts the fault
injection and FPM instrumentation runtimes.
"""

from .bitflip import (
    bits_to_float,
    flip_bit,
    flip_float_bit,
    flip_int_bit,
    float_to_bits,
    to_signed64,
    to_unsigned64,
)
from .compiler import CompiledFunction, CompiledProgram, compile_program
from .fingerprint import FingerprintIndex, fingerprint_world, quick_signature
from .intrinsics import (
    BLOCK,
    INTRINSICS,
    MPI_OP_MAX,
    MPI_OP_MIN,
    MPI_OP_SUM,
    IntrinsicSpec,
    get_intrinsic,
    is_intrinsic,
)
from .machine import FaultSpec, Frame, InjectionEvent, Machine, MachineStatus
from .memory import ProcessMemory
from .ops import wrap_i64
from .rng import Lcg64
from .snapshot import SnapshotStore, WorldSnapshot, restore_world
from .tier2 import derive_plan, install_plan
from .traps import Trap, TrapKind

__all__ = [
    "BLOCK", "CompiledFunction", "CompiledProgram", "FaultSpec",
    "FingerprintIndex", "Frame",
    "INTRINSICS", "InjectionEvent", "IntrinsicSpec", "Lcg64", "MPI_OP_MAX",
    "MPI_OP_MIN", "MPI_OP_SUM", "Machine", "MachineStatus", "ProcessMemory",
    "SnapshotStore", "Trap", "TrapKind", "WorldSnapshot", "bits_to_float",
    "compile_program", "derive_plan", "fingerprint_world", "flip_bit",
    "flip_float_bit", "install_plan", "flip_int_bit",
    "float_to_bits", "get_intrinsic", "is_intrinsic", "quick_signature",
    "restore_world",
    "to_signed64", "to_unsigned64", "wrap_i64",
]
