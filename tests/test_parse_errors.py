"""Exact ParseError text for malformed models, formulas and propositions.

The corpus reaches every place the parsers reject input: each failing
grammar rule, both tokenizer errors, and the nesting limit (prefix
operators, parenthesised groups and operator chains one level too deep,
alone and mixed).  A change of wording or of the reported position shows
up here.
"""

import sys

import pytest

from de_fixpoint.errors import ParseError
from de_fixpoint.formula_parser import parse_formula, parse_prop
from de_fixpoint.parser import parse_model

def guard_model(guard):
    """A one-machine model whose only transition has ``guard``."""
    return (
        "format 1\ncomposite T {\n  fsm M {\n    input In\n    initial s\n"
        f"    transition s -> s {{ guard {guard} }}\n  }}\n}}\n"
    )


def prefix(op, depth, leaf):
    return f"{op} " * depth + leaf


def group(depth, inner):
    return "(" * depth + inner + ")" * depth


def chain(op, depth, leaf):
    return f" {op} ".join([leaf] * (depth + 1))

MODEL_ERRORS = [
    ('format 1\ncomposite T { k = "oops }', '2:19: unterminated string'),
    ('format 1\ncomposite T { k = "a\nb" }', '2:19: unterminated string'),
    ('format 1\ncomposite T { k = 1 $ }', "2:21: unexpected character '$'"),
    ('   \n ', '1:1: empty model document'),
    ('format 1\ncomposite T { fsm M { transition a -> b', "2:40: expected '{', found 'end of input'"),
    ('format 1\ncomposite T { fsm M { transition a b { } } }', "2:36: expected '->', found 'b'"),
    ('format 1\ncomposite 3 { }', "2:11: expected an actor name, found '3'"),
    ('format 1\ncomposite', "2:10: expected an actor name, found 'end of input'"),
    ('composite T { }', "1:1: expected 'format', found 'composite'"),
    ('format', "1:7: expected a format version, found 'end of input'"),
    ('format 2\ncomposite T { }', "1:8: unsupported format version '2'"),
    ('format 1\ncomposite T { } extra', "2:17: unexpected 'extra' after the top-level actor"),
    ('format 1\n', '2:1: expected an actor block'),
    ('format 1\nwidget T { }', '2:1: expected an actor kind (one of clock, composite, delay, fsm, modal, setvar)'),
    ('format 1\ncomposite T {', "2:14: unterminated actor block 'T'"),
    ('format 1\ncomposite T { fsm M { clock C { period = 1 } } }', '2:23: a fsm actor cannot contain inner actors'),
    ('format 1\ncomposite T { clock C { output tick } }', "2:32: a clock actor's ports are fixed and not declared"),
    ('format 1\ncomposite T { clock C { var n = 0 } }', '2:29: only state machines and composites hold variables'),
    ('format 1\ncomposite T { initial s }', "2:23: 'initial' belongs in a state machine"),
    ('format 1\ncomposite T { location s }', "2:24: 'location' belongs in a state machine"),
    ('format 1\ncomposite T { transition a -> b { } }', "2:15: 'transition' belongs in a state machine"),
    ('format 1\ncomposite T { controller C }', "2:26: 'controller' belongs in a modal actor"),
    ('format 1\ncomposite T { refine a -> X }', "2:22: 'refine' belongs in a modal actor"),
    ('format 1\ncomposite T { modal M { refine a -> X\n refine a -> Y } }', "3:16: location 'a' refined twice"),
    ('format 1\ncomposite T { modal M { connect A.x -> B.y } }', '2:33: modal actors take no explicit connections'),
    ('format 1\ncomposite T { fsm M { connect A.x -> B.y } }', "2:31: 'connect' belongs in a composite"),
    ('format 1\ncomposite T { clock C { period = 1\nperiod = 2 } }', "3:1: parameter 'period' set twice"),
    ('format 1\ncomposite T { widget W { } }', "2:15: unexpected 'widget' in a composite block"),
    ('format 1\ncomposite T { 3 }', "2:15: unexpected '3' in a composite block"),
    ('format 1\ncomposite T { fsm M { transition s -> s { output O = 1 output O = 2 } } }', "2:56: output 'O' assigned twice"),
    ('format 1\ncomposite T { fsm M { transition s -> s { set n = 1 set n = 2 } } }', "2:53: variable 'n' set twice"),
    ('format 1\ncomposite T { fsm M { transition s -> s { guard true', '2:53: unterminated transition block'),
    ('format 1\ncomposite T { fsm M { transition s -> s { when true } } }', "2:43: expected guard/output/set, found 'when'"),
    ('format 1\ncomposite T { k = -1.5 }', '2:20: only integer literals may be negative'),
    ('format 1\ncomposite T { k = -x }', '2:20: only integer literals may be negative'),
    ('format 1\ncomposite T { k = 1/0 }', '2:21: rational literals are integer/integer'),
    ('format 1\ncomposite T { k = 1/2.5 }', '2:21: rational literals are integer/integer'),
    ('format 1\ncomposite T { k = x }', "2:19: expected a literal, found 'x'"),
    ('format 1\ncomposite T { k = ', "2:19: expected a literal, found 'end of input'"),
    ('format 1\ncomposite T { k = "s" k2 = }', "2:28: expected a literal, found '}'"),
    ('format 1\ncomposite T { fsm M { transition s -> s { guard ', "2:49: expected an expression, found 'end of input'"),
    ('format 1\ncomposite T { connect A -> B.y }', "2:25: expected '.', found '->'"),
    ('format 1\ncomposite T { connect A.x B.y }', "2:27: expected '->', found 'B'"),
    ('format 1\ncomposite T { connect A.x -> B.y, }', "2:35: expected an actor name (or 'parent'), found '}'"),
    ('format 1\n// c\n\tcomposite T {\n\t  k = $ }', "4:8: unexpected character '$'"),
    ('format 1\r\ncomposite T {\r\n  k = $ }', "3:7: unexpected character '$'"),
    ('format "1"\ncomposite T { }', '1:8: unsupported format version \'"1"\''),
    ('format 1\ncomposite T { "connect" }', '2:15: unexpected \'"connect"\' in a composite block'),
]

GUARD_ERRORS = [
    (")", "6:31: expected an expression, found ')'"),
    ("isPresent(In) &&", "6:48: expected an expression, found '}'"),
    ("isPresent(3)", "6:41: expected a port name, found '3'"),
    ("isPresent(In", "6:44: expected ')', found '}'"),
    ("value In", "6:37: expected '(', found 'In'"),
    ("(isPresent(In)", "6:46: expected ')', found '}'"),
    ("isPresent(In) } }", "7:3: unexpected '}' after the top-level actor"),
    ("1 / x", "6:33: '/' only forms rational literals like 3/2"),
    ("n / 2", "6:33: '/' only forms rational literals like 3/2"),
    ("true output Out = n / 2", "6:51: '/' only forms rational literals like 3/2"),
    ('isPresent("In")', '6:41: expected a port name, found \'"In"\''),
    (prefix("!", 101, "true"), '6:233: nested more than 100 levels deep'),
    (group(101, "true"), '6:132: nested more than 100 levels deep'),
    (chain("&&", 101, "true"), '6:844: nested more than 100 levels deep'),
    (chain("-", 101, "1") + " == 1", '6:437: nested more than 100 levels deep'),
    ("!" * 50 + group(51, "true"), '6:132: nested more than 100 levels deep'),
    (group(50, chain("&&", 51, "true")), '6:542: nested more than 100 levels deep'),
    (prefix("!", 60, group(1, chain("||", 40, "true"))), '6:478: nested more than 100 levels deep'),
    ("true && " + group(100, "true"), '6:139: nested more than 100 levels deep'),
]

FORMULA_ERRORS = [
    ('', '1:1: empty formula'),
    ('  \n ', '1:1: empty formula'),
    ("'A @ 'a $", "1:9: unexpected character '$'"),
    ('\'T | \'x = "abc', '1:11: unterminated string'),
    ('\'T | \'x = "abc\ndef"', '1:11: unterminated string'),
    ("('A @ 'a", "1:9: expected ')', found 'end of input'"),
    ("'T | ('x = 1 'y = 2)", '1:14: expected \')\', found "\'y"'),
    ("'T | 'x 1", "1:9: expected '=', found '1'"),
    ("'A . B @ 'a", "1:6: expected an actor name (a quoted name like 'X), found 'B'"),
    ("'A @", "1:5: expected a location name (a quoted name like 'X), found 'end of input'"),
    ("'T | x = 1", "1:6: expected a variable name (a quoted name like 'X), found 'x'"),
    ("'A @ 'a 'B @ 'b", '1:9: unexpected "\'B" after the formula'),
    ('True )', "1:6: unexpected ')' after the formula"),
    ("M @ 'idle", "1:1: expected a formula, found 'M'"),
    ("'A @ 'a /\\", "1:11: expected a formula, found 'end of input'"),
    ("'A @ 'a -> ", "1:12: expected a formula, found 'end of input'"),
    ("'A", "1:3: expected '|', '@', or ':' after the name"),
    ("'A 'B", "1:4: expected '|', '@', or ':' after the name"),
    ("'T | 'x = -0.5", '1:15: time values are non-negative'),
    ("'T | 'x = -1/2", '1:15: time values are non-negative'),
    ("'T | 'x = 1/0", '1:13: rational values are integer/integer'),
    ("'T | 'x = 1/x", '1:13: rational values are integer/integer'),
    ("'T | 'x = 1/2.5", '1:13: rational values are integer/integer'),
    ("'T | 'x = 1/", '1:13: rational values are integer/integer'),
    ("'T | 'x = -True", "1:12: expected a number after '-'"),
    ("'T | 'x = ", "1:11: expected a value, found 'end of input'"),
    ("'T | 'x = 'y", '1:11: expected a value, found "\'y"'),
    ("'A : ", "1:6: expected a formula, found 'end of input'"),
    ("'A : 'B", "1:8: expected '|', '@', or ':' after the name"),
    ('()', "1:2: expected a formula, found ')'"),
    ("'A @ 'a\n  /\\ $", "2:6: unexpected character '$'"),
    ("'A @ 'a\n\t/\\ )", "2:5: expected a formula, found ')'"),
]

DEEP_FORMULA_ERRORS = [
    (prefix("~", 101, "True"), '1:203: nested more than 100 levels deep'),
    (group(101, "True"), '1:102: nested more than 100 levels deep'),
    (chain("/\\", 101, "True"), '1:813: nested more than 100 levels deep'),
    (prefix("[]", 101, "True"), '1:304: nested more than 100 levels deep'),
    (chain("->", 101, "True"), '1:809: nested more than 100 levels deep'),
    (chain("U", 101, "True"), '1:712: nested more than 100 levels deep'),
    (prefix("'A :", 101, "True"), '1:506: nested more than 100 levels deep'),
    (prefix("~ 'A :", 51, "True"), '1:353: nested more than 100 levels deep'),
    ("~ " * 50 + group(51, "True"), '1:152: nested more than 100 levels deep'),
    (group(50, chain("\\/", 51, "True")), '1:512: nested more than 100 levels deep'),
    (prefix("<>", 60, group(1, chain("U", 40, "True"))), '1:467: nested more than 100 levels deep'),
    ("True /\\ " + group(100, "True"), '1:109: nested more than 100 levels deep'),
]

PROP_ERRORS = [
    ('', '1:1: empty proposition'),
    ("'M @ 'a /\\ 'M @ 'b", "1:9: unexpected '/\\\\' after the proposition"),
    ("'A : 'M @ 'idle", '1:16: expected a variable or location proposition, not a scoped formula'),
    ("~ 'M @ 'a", "1:1: expected an actor name (a quoted name like 'X), found '~'"),
    ("'M", "1:3: expected '|', '@', or ':' after the name"),
    ("'M @ 'a $", "1:9: unexpected character '$'"),
    ('\'T | \'x = "a', '1:11: unterminated string'),
]

# Python (3.11, and patch releases of 3.10 on) converts no longer run of
# digits than sys.get_int_max_str_digits(), 4300 by default: a literal
# with one is a syntax error at that number, in every form a number takes.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
BIG = "9" * (DIGIT_LIMIT + 1)
TOO_LONG = f"number literal too long (over {DIGIT_LIMIT} digits)"

BIG_NUMBER_ERRORS = [
    (parse_model, f"format 1\ncomposite T {{ clock C {{ period = {BIG} }} }}", f"2:34: {TOO_LONG}"),
    (parse_model, f"format 1\ncomposite T {{ var x = {BIG} }}", f"2:23: {TOO_LONG}"),
    (parse_model, f"format 1\ncomposite T {{ k = -{BIG} }}", f"2:20: {TOO_LONG}"),
    (parse_model, f"format 1\ncomposite T {{ k = {BIG}/2 }}", f"2:19: {TOO_LONG}"),
    (parse_model, f"format 1\ncomposite T {{ k = 1/{BIG} }}", f"2:21: {TOO_LONG}"),
    (parse_model, f"format 1\ncomposite T {{ k = 1.{BIG} }}", f"2:19: {TOO_LONG}"),
    (parse_model, f"format 1\ncomposite T {{ k = {BIG}.5 }}", f"2:19: {TOO_LONG}"),
    (parse_model, guard_model(f"isPresent(In) && 1 < {BIG}"), f"6:52: {TOO_LONG}"),
    (parse_formula, f"'T | 'x = {BIG}", f"1:11: {TOO_LONG}"),
    (parse_formula, f"'T | 'x = -{BIG}", f"1:12: {TOO_LONG}"),
    (parse_formula, f"'T | 'x = {BIG}/2", f"1:11: {TOO_LONG}"),
    (parse_formula, f"'T | 'x = 1/{BIG}", f"1:13: {TOO_LONG}"),
    (parse_formula, f"'T | 'x = 0.{BIG}", f"1:11: {TOO_LONG}"),
    (parse_formula, f"[] ('T | ('x = 1, 'y = {BIG}))", f"1:24: {TOO_LONG}"),
    (parse_prop, f"'FlatTrafficLight | 'Cred = {BIG}", f"1:29: {TOO_LONG}"),
]


def mismatches(parse, cases):
    found = []
    for text, message in cases:
        try:
            parse(text)
            got = None
        except ParseError as err:
            got = str(err)
        if got != message:
            found.append((text[:60], message, got))
    return found


def test_model_errors():
    assert mismatches(parse_model, MODEL_ERRORS) == []


def test_guard_errors():
    assert mismatches(lambda guard: parse_model(guard_model(guard)), GUARD_ERRORS) == []


def test_formula_errors():
    assert mismatches(parse_formula, FORMULA_ERRORS + DEEP_FORMULA_ERRORS) == []


def test_prop_errors():
    assert mismatches(parse_prop, PROP_ERRORS) == []


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python converts integers of any length")
def test_numbers_past_the_digit_limit():
    found = [m for parse, text, message in BIG_NUMBER_ERRORS for m in mismatches(parse, [(text, message)])]
    assert found == []
