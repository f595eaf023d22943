"""Runtime values and the three-valued port status lattice.

A port is Unknown until the synchronous fixed point decides it, after
which it is either Absent or Present with a value.  Knowledge only ever
grows within one iteration: Unknown -> Present/Absent, never back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .util import format_rational, time_decimal_text


class Value:
    """Base class for runtime values (booleans, integers, times, strings)."""

    __slots__ = ()


@dataclass(frozen=True)
class BoolVal(Value):
    value: bool

    def __repr__(self):
        return "true" if self.value else "false"


@dataclass(frozen=True)
class IntVal(Value):
    value: int

    def __repr__(self):
        return str(self.value)


@dataclass(frozen=True)
class TimeVal(Value):
    """An exact non-negative rational time amount."""

    value: Fraction

    def __post_init__(self):
        f = Fraction(self.value)
        if f < 0:
            raise ValueError(f"time values must be non-negative, got {f}")
        object.__setattr__(self, "value", f)

    def __repr__(self):
        return format_rational(self.value)


@dataclass(frozen=True)
class StringVal(Value):
    value: str

    def __repr__(self):
        return f'"{self.value}"'


TRUE = BoolVal(True)
FALSE = BoolVal(False)


def literal_text(v: Value) -> str:
    """Source form of a value, unambiguous about its kind.

    Integers print bare, times as exact decimals (or "p/q" for
    non-terminating ones) so the two kinds survive a print/parse
    round-trip; strings are quoted with backslash escapes.
    """
    if isinstance(v, BoolVal):
        return "true" if v.value else "false"
    if isinstance(v, IntVal):
        return str(v.value)
    if isinstance(v, TimeVal):
        return time_decimal_text(v.value)
    if isinstance(v, StringVal):
        body = v.value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{body}"'
    raise TypeError(f"not a value: {v!r}")


def value_key(v: Value):
    """A total order over values of all kinds (for canonical sorting only)."""
    if isinstance(v, BoolVal):
        return (0, v.value)
    if isinstance(v, IntVal):
        return (1, v.value)
    if isinstance(v, TimeVal):
        return (2, v.value)
    if isinstance(v, StringVal):
        return (3, v.value)
    raise TypeError(f"not a value: {v!r}")


class PortStatus:
    """Three-valued knowledge about a port within one iteration."""

    __slots__ = ()


@dataclass(frozen=True)
class Unknown(PortStatus):
    def __repr__(self):
        return "unknown"


@dataclass(frozen=True)
class Absent(PortStatus):
    def __repr__(self):
        return "absent"


@dataclass(frozen=True)
class Present(PortStatus):
    value: Value

    def __repr__(self):
        return f"present({self.value!r})"


UNKNOWN = Unknown()
ABSENT = Absent()
