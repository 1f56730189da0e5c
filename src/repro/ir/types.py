"""IR type system.

The IR is deliberately small: three first-class value types plus ``void``
for functions that return nothing.  Pointers are untyped word addresses —
the VM memory is word-addressed (one 64-bit integer or float per address),
which matches the paper's unit of contamination: one *memory location*.
"""

from __future__ import annotations


class Type:
    """A singleton IR type.

    Instances are compared by identity; use the module-level constants
    :data:`INT`, :data:`FLOAT`, :data:`PTR` and :data:`VOID`.  ``name``
    is how the IR printer spells the type.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name

    @property
    def is_int(self) -> bool:
        return self is INT

    @property
    def is_float(self) -> bool:
        return self is FLOAT

    @property
    def is_ptr(self) -> bool:
        return self is PTR

    @property
    def is_void(self) -> bool:
        return self is VOID

    @property
    def is_integral(self) -> bool:
        """Ints and pointers share a 64-bit integer runtime representation."""
        return self is INT or self is PTR


#: 64-bit signed integer.
INT = Type("int")
#: IEEE-754 binary64.
FLOAT = Type("float")
#: Word address into process memory (runtime representation: int).
PTR = Type("ptr")
#: Absence of a value (function returns only).
VOID = Type("void")
