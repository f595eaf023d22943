"""The tokenizer against the reference scanner loop (``tokenize_ref.py``).

A grammar's ``Lexicon`` gives a text's token strings and their kinds,
and the tokens' offsets only on request; zipped, they must be the
reference's ``(kind, text, pos)`` list.  Both grammars, on every
fixture, generated model texts, the benchmark's formulas and
propositions, and generated strings that mix tokens with characters no
token covers: the same list, or the same ParseError line, column and
message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from de_fixpoint.errors import ParseError
from de_fixpoint.formula_parser import _FormulaParser
from de_fixpoint.parser import _ModelParser

from corpus import BENCH_FORMULAS, BENCH_MODELS, FIXTURE_TEXTS, PIECES
from families import MODELS
from tokenize_ref import (
    FORMULA_SKIP,
    FORMULA_TOKEN_RE,
    MODEL_SKIP,
    MODEL_TOKEN_RE,
    reference_tokenize,
)

GRAMMARS = {
    "model": (_ModelParser.lexicon, MODEL_TOKEN_RE, MODEL_SKIP),
    "formula": (_FormulaParser.lexicon, FORMULA_TOKEN_RE, FORMULA_SKIP),
}


def outcome(tokenizer):
    try:
        return tokenizer()
    except ParseError as err:
        return ("error", err.line, err.col, err.message)


def triples(text, lexicon):
    """``(kind, text, pos)`` for each token of ``text``, the end of input's included."""
    tokens, kinds = lexicon.tokenize(text)
    return list(zip(kinds, tokens, lexicon.offsets(text), strict=True))


def assert_same_tokens(text, grammar):
    lexicon, ref_pattern, ref_skip = GRAMMARS[grammar]
    got = outcome(lambda: triples(text, lexicon))
    assert got == outcome(lambda: reference_tokenize(text, ref_pattern, ref_skip))


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
    assert outcome(lambda: _ModelParser.lexicon.tokenize(text)) == error
    assert_same_tokens(text, "model")
