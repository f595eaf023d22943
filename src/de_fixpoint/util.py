"""Small shared utilities: an immutable sorted mapping and exact time helpers."""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from .errors import NegativeTimer


class FrozenMap(Mapping):
    """An immutable mapping with canonical (sorted) iteration order.

    Equality and hashing are structural, so two maps built from the same
    entries in different orders compare equal.  Keys are expected to be
    strings.
    """

    __slots__ = ("_items", "_dict")

    def __init__(self, mapping=()):
        if isinstance(mapping, FrozenMap):
            self._items = mapping._items
            self._dict = mapping._dict
            return
        d = dict(mapping)
        self._items = tuple(sorted(d.items()))
        self._dict = d

    def __getitem__(self, key):
        return self._dict[key]

    def __iter__(self):
        return iter(k for k, _ in self._items)

    def __len__(self):
        return len(self._items)

    def items(self):
        return self._items

    def __eq__(self, other):
        if isinstance(other, FrozenMap):
            return self._items == other._items
        if isinstance(other, Mapping):
            return dict(self._items) == dict(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._items)

    def __repr__(self):
        inner = ", ".join(f"{k}: {v!r}" for k, v in self._items)
        return f"FrozenMap({{{inner}}})"


EMPTY_MAP = FrozenMap()


def time_amount(value) -> Fraction:
    """Coerce a number-like into a non-negative exact rational."""
    f = Fraction(value)
    if f < 0:
        raise NegativeTimer(f"time amounts must be non-negative, got {f}")
    return f


def format_rational(f: Fraction) -> str:
    """Render a rational as a bare integer or "p/q" (used by traces and errors)."""
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def rational_json(f: Fraction):
    """JSON form of an exact time: an integer when integral, else "p/q"."""
    if f.denominator == 1:
        return f.numerator
    return f"{f.numerator}/{f.denominator}"


def time_decimal_text(f: Fraction) -> str:
    """Render a rational as an exact decimal when one exists, else "p/q".

    Keeps at least one fractional digit ("1.0"), so time literals stay
    distinguishable from integer literals in model text.
    """
    d = f.denominator
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{f.numerator}/{f.denominator}"
    k = max(twos, fives)
    if k == 0:
        return f"{f.numerator}.0"
    digits = str(f.numerator * 10**k // f.denominator).rjust(k + 1, "0")
    frac = digits[-k:].rstrip("0") or "0"
    return f"{digits[:-k]}.{frac}"
