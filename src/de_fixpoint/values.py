"""Runtime values and the three-valued port status lattice.

A port is Unknown until the synchronous fixed point decides it, after
which it is either Absent or Present with a value.  Knowledge only ever
grows within one iteration: Unknown -> Present/Absent, never back.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import EngineError
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

# An integer of at most this many bits has at most 603 digits, within the
# least limit ``sys.set_int_max_str_digits`` accepts (640), so only a
# longer one needs ``check_digits``.
LONG_BITS = 2000


def check_digits(n: int, what: str) -> None:
    """Raise EngineError naming ``what`` where ``str(n)`` would raise: when
    ``n`` has more digits than ``sys.get_int_max_str_digits()`` (0 is no
    limit).  A value that keeps growing ends here, not at the printer or
    when memory runs out."""
    limit = sys.get_int_max_str_digits()
    if limit and abs(n) >= 10**limit:
        raise EngineError(f"{what}: value too long (over {limit} digits)")


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
