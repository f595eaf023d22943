"""The tokenizer against the reference scanner loop (``tokenize_ref.py``).

Both grammars, on every fixture, generated model texts, the benchmark's
formulas and propositions, and generated strings that mix tokens with
characters no token covers: the same ``(kind, text, pos)`` list, or the
same ParseError line, column and message.
"""

import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from de_fixpoint.errors import ParseError
from de_fixpoint.formula_parser import _FormulaParser
from de_fixpoint.parser import _ModelParser
from de_fixpoint.syntax import tokenize

from conftest import MODELS as MODEL_DIR
from families import MODELS
from tokenize_ref import (
    FORMULA_SKIP,
    FORMULA_TOKEN_RE,
    MODEL_SKIP,
    MODEL_TOKEN_RE,
    reference_tokenize,
)

sys.path.append(os.path.join(os.path.dirname(MODEL_DIR), "bench"))

import workloads  # noqa: E402

GRAMMARS = {
    "model": (_ModelParser.token_re, MODEL_TOKEN_RE, MODEL_SKIP),
    "formula": (_FormulaParser.token_re, FORMULA_TOKEN_RE, FORMULA_SKIP),
}


def outcome(tokenizer):
    try:
        return tokenizer()
    except ParseError as err:
        return ("error", err.line, err.col, err.message)


def assert_same_tokens(text, grammar):
    pattern, ref_pattern, ref_skip = GRAMMARS[grammar]
    got = outcome(lambda: [(t.kind, t.text, t.pos) for t in tokenize(text, pattern)])
    assert got == outcome(lambda: reference_tokenize(text, ref_pattern, ref_skip))


def fixture_texts():
    """Every model file in ``models/``, by file name."""
    texts = {}
    for name in sorted(os.listdir(MODEL_DIR)):
        if name.endswith(".model"):
            with open(os.path.join(MODEL_DIR, name), encoding="utf-8") as handle:
                texts[name] = handle.read()
    return texts


FIXTURE_TEXTS = fixture_texts()


def bench_inputs():
    """The benchmark's model texts and its formula and proposition texts."""
    fixtures = {name[: -len(".model")]: text for name, text in FIXTURE_TEXTS.items()}
    models, formulas = {}, set()
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, 23, fixtures)
        models.update(workload.models)
        formulas.update(r.text for r in workload.requests if r.text)
    return models, sorted(formulas)


BENCH_MODELS, BENCH_FORMULAS = bench_inputs()


@pytest.mark.parametrize("name", sorted(FIXTURE_TEXTS))
def test_fixtures_tokenize_as_before(name):
    assert_same_tokens(FIXTURE_TEXTS[name], "model")
    assert_same_tokens(FIXTURE_TEXTS[name], "formula")


@pytest.mark.parametrize("key", sorted(BENCH_MODELS))
def test_bench_models_tokenize_as_before(key):
    assert_same_tokens(BENCH_MODELS[key], "model")


def test_bench_formulas_tokenize_as_before():
    assert len(BENCH_FORMULAS) > 20
    for text in BENCH_FORMULAS:
        assert_same_tokens(text, "formula")
        assert_same_tokens(text, "model")


@given(MODELS)
def test_generated_models_tokenize_as_before(text):
    assert_same_tokens(text, "model")


PIECES = [
    "format", "1", "2.5", "3/2", "x_1", "'Top", "->", "==", "<=", "&&", "||",
    "[]", "<>", "/\\", "\\/", "~", "{", "}", "(", ")", ",", ".", "=", "|", "@",
    "#", ":", "-", "!", "*", "+", "/", "//", "// note\n", '"s"', '"a\\"b"',
    " ", "  ", "\t", "\n", "\r\n", "\f", "\v", "\xa0", '"', '"abc\n', "$", "%",
    "'", "^", "`", "?",
]  # fmt: skip


@settings(max_examples=300)
@given(st.lists(st.sampled_from(PIECES), max_size=30).map("".join))
def test_token_soup_tokenizes_as_before(text):
    assert_same_tokens(text, "model")
    assert_same_tokens(text, "formula")


@settings(max_examples=300)
@given(st.text(max_size=40))
def test_any_text_tokenizes_as_before(text):
    assert_same_tokens(text, "model")
    assert_same_tokens(text, "formula")


@pytest.mark.parametrize(
    "text, error",
    [
        ("a @ b", ("error", 1, 3, "unexpected character '@'")),
        ("a\n  \f", ("error", 2, 3, "unexpected character '\\x0c'")),
        ('x = "abc\n"', ("error", 1, 5, "unterminated string")),
        ('k "', ("error", 1, 3, "unterminated string")),
        ("a // c\n  $", ("error", 2, 3, "unexpected character '$'")),
    ],
)
def test_model_tokenizer_errors_keep_their_position(text, error):
    assert outcome(lambda: tokenize(text, _ModelParser.token_re)) == error
    assert_same_tokens(text, "model")
