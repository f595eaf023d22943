"""Value kinds, the status lattice, and the shared helpers in util."""

import sys
from fractions import Fraction

import pytest

from de_fixpoint.errors import EngineError, NegativeTimer
from de_fixpoint.util import (
    EMPTY_MAP,
    FrozenMap,
    format_rational,
    rational_json,
    time_amount,
    time_decimal_text,
)
from de_fixpoint.values import (
    ABSENT,
    LONG_BITS,
    BoolVal,
    IntVal,
    Present,
    StringVal,
    TimeVal,
    check_digits,
    literal_text,
)


def test_time_val_is_exact():
    assert TimeVal(Fraction(1, 10)).value * 10 == 1
    assert TimeVal(Fraction(1, 3)).value == Fraction(1, 3)


def test_time_val_rejects_negative():
    with pytest.raises(ValueError):
        TimeVal(Fraction(-1, 2))


def test_values_compare_by_kind_and_content():
    assert IntVal(1) != TimeVal(Fraction(1))
    assert IntVal(1) != BoolVal(True)
    assert IntVal(3) == IntVal(3)


def test_literal_text_keeps_kinds_apart():
    assert literal_text(IntVal(1)) == "1"
    assert literal_text(TimeVal(Fraction(1))) == "1.0"
    assert literal_text(TimeVal(Fraction(1, 2))) == "0.5"
    assert literal_text(TimeVal(Fraction(1, 3))) == "1/3"
    assert literal_text(BoolVal(True)) == "true"
    assert literal_text(StringVal('say "hi"\n')) == '"say \\"hi\\"\\n"'


def test_time_decimal_text_exact_decimals():
    assert time_decimal_text(Fraction(0)) == "0.0"
    assert time_decimal_text(Fraction(1, 8)) == "0.125"
    assert time_decimal_text(Fraction(3, 20)) == "0.15"
    assert time_decimal_text(Fraction(7)) == "7.0"
    assert time_decimal_text(Fraction(1, 7)) == "1/7"


def test_status_lattice():
    assert Present(IntVal(1)) == Present(IntVal(1))
    assert Present(IntVal(1)) != Present(IntVal(2))
    assert Present(IntVal(1)) != ABSENT


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="this Python converts integers of any length")
@pytest.mark.parametrize("limit", [640, 4300, 0])
def test_check_digits_raises_exactly_where_str_would(limit):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        # The least limit Python accepts is 640, so LONG_BITS bits are short.
        check_digits(1 << LONG_BITS, "T.M.x")
        check_digits(-(1 << LONG_BITS), "T.M.x")
        around = (10 ** (limit or 5000) + d for d in (-1, 0, 1))
        for n in (m for base in around for m in (base, -base)):
            try:
                str(n)
            except ValueError:
                with pytest.raises(EngineError, match=rf"^T\.M\.x: value too long \(over {limit} digits\)$"):
                    check_digits(n, "T.M.x")
            else:
                check_digits(n, "T.M.x")
    finally:
        sys.set_int_max_str_digits(before)


def test_time_amount_coerces_and_validates():
    assert time_amount(Fraction(3, 2)) == Fraction(3, 2)
    assert time_amount(2) == Fraction(2)
    with pytest.raises(NegativeTimer):
        time_amount(-1)


def test_rational_json_small_ints_stay_ints():
    assert rational_json(Fraction(4)) == 4
    assert rational_json(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(5, 3)) == "5/3"


class TestFrozenMap:
    def test_sorted_items_and_equality(self):
        a = FrozenMap({"b": 2, "a": 1})
        b = FrozenMap({"a": 1, "b": 2})
        assert a == b
        assert hash(a) == hash(b)
        assert list(a) == ["a", "b"]
        assert list(a.items()) == [("a", 1), ("b", 2)]

    def test_empty_map_is_falsy(self):
        assert not EMPTY_MAP
        assert len(EMPTY_MAP) == 0
