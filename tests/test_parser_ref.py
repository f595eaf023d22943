"""The parsers against the reference parsers over ``Token`` objects (``parser_ref.py``).

Every input goes through all three front doors, ``parse_model``,
``parse_formula`` and ``parse_prop``, of both implementations: each
must give the same tree, or the same ParseError line, column and
message (or the same other exception).  Inputs: every fixture, the
benchmark's models, formulas and propositions, generated family
models, the corpus of ``test_parse_errors.py`` (which reaches every
place the parsers reject input), and token-level mutations of all of
these.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parser_ref
from de_fixpoint.errors import ParseError
from de_fixpoint.formula_parser import parse_formula, parse_prop
from de_fixpoint.parser import parse_model

from corpus import BENCH_FORMULAS, BENCH_MODELS, FIXTURE_TEXTS, KEYWORDS, PIECES
from families import FEEDBACK, MODELS
from test_parse_errors import (
    DEEP_FORMULA_ERRORS,
    FORMULA_ERRORS,
    GUARD_ERRORS,
    MODEL_ERRORS,
    PROP_ERRORS,
    guard_model,
)
from tokenize_ref import FORMULA_SKIP, FORMULA_TOKEN_RE, MODEL_SKIP, MODEL_TOKEN_RE, reference_tokenize

DOORS = [
    (parse_model, parser_ref.parse_model),
    (parse_formula, parser_ref.parse_formula),
    (parse_prop, parser_ref.parse_prop),
]


def outcome(parse, text):
    try:
        return ("tree", parse(text))
    except ParseError as err:
        return ("error", err.line, err.col, err.message)
    except Exception as err:  # noqa: BLE001 - any other outcome must match too
        return ("raised", type(err).__name__, str(err))


def assert_parses_as_before(text):
    for parse, reference in DOORS:
        assert outcome(parse, text) == outcome(reference, text), parse.__name__


def assert_model_parses(text):
    """The text is a model both parsers accept, and they agree on it."""
    assert outcome(parse_model, text)[0] == "tree"
    assert_parses_as_before(text)


@pytest.mark.parametrize("name", sorted(FIXTURE_TEXTS))
def test_fixtures_parse_as_before(name):
    assert_model_parses(FIXTURE_TEXTS[name])


@pytest.mark.parametrize("key", sorted(BENCH_MODELS))
def test_bench_models_parse_as_before(key):
    assert_model_parses(BENCH_MODELS[key])


def test_bench_formulas_parse_as_before():
    trees = 0
    for text in BENCH_FORMULAS:
        assert_parses_as_before(text)
        trees += outcome(parse_formula, text)[0] == "tree"
    assert trees > 20


@given(st.one_of(MODELS, FEEDBACK))
def test_generated_models_parse_as_before(text):
    assert_model_parses(text)


# Every literal form, operator and declaration of the two grammars.
MODEL_SHAPES = r"""format 1
// comment
composite T {
  var a = -3
  var b = 1.25
  var c = 3/4
  var d = "x\"y\\n\n"
  var e = true
  var f = false
  clock C { period = 1/2 offset = 0.5 emit = -7 }
  delay D { delay = 0 }
  setvar S { target = "a" }
  modal Q { input In controller K refine on -> A refine off -> B
    fsm K { input In initial on location off
      transition on -> off { guard isPresent(In) } transition off -> on { guard isPresent(In) } }
    composite A { input In } composite B { input In } }
  fsm M {
    input In
    output Out
    var n = -1
    initial s
    location t
    transition s -> t { guard isPresent(In) && -n < 2 || !(n == 3) && n != 4 output Out = value(In) + 2 * -n set n = n - 1 }
    transition t -> s { guard n >= 0 && n <= 5 || n > 6 output Out = "s" set n = 0 }
  }
  connect C.output -> M.In, D.input, Q.In
  connect M.Out -> S.input, parent.Out
}
"""
FORMULA_SHAPES = [
    "'A . 'B | ('x = -1, 'y = #2, 'z = 1/2, 'w = 1.5, 'v = True, 'u = \"s\\\"\", 'f = False)",
    "[] <> ~ 'A : ('M @ 'l U False) -> True \\/ 'A | 'x = 1 /\\ <> [] 'A | 'x = #-1",
]
MODEL_ERROR_TEXTS = [text for text, _ in MODEL_ERRORS] + [guard_model(guard) for guard, _ in GUARD_ERRORS]
FORMULA_ERROR_TEXTS = [text for text, _ in FORMULA_ERRORS + DEEP_FORMULA_ERRORS + PROP_ERRORS]


def test_every_shape_parses_as_before():
    assert_model_parses(MODEL_SHAPES)
    for text in FORMULA_SHAPES:
        assert outcome(parse_formula, text)[0] == "tree"
        assert_parses_as_before(text)


def test_the_error_corpus_parses_as_before():
    for text in MODEL_ERROR_TEXTS + FORMULA_ERROR_TEXTS:
        assert_parses_as_before(text)


# Token-level mutations. ------------------------------------------------------
#
# A text is cut into (gap, token) pairs by the reference tokenizer; an edit
# deletes, swaps or replaces a token, repeats a run of one to six tokens,
# or inserts a piece, and the gaps (whitespace and comments) stay where
# they were.

EDITS = st.lists(
    st.tuples(
        st.sampled_from(["delete", "repeat", "swap", "replace", "insert"]),
        st.integers(0, 10**6),
        st.sampled_from(PIECES + KEYWORDS),
        st.integers(1, 6),
    ),
    min_size=1,
    max_size=3,
)


LEXICONS = {"model": (MODEL_TOKEN_RE, MODEL_SKIP), "formula": (FORMULA_TOKEN_RE, FORMULA_SKIP)}


def cut(text, grammar):
    tokens = reference_tokenize(text, *LEXICONS[grammar])
    pairs, end = [], 0
    for _, token, pos in tokens[:-1]:
        pairs.append([text[end:pos], token])
        end = pos + len(token)
    return pairs, text[end:]


def seeds(texts, grammar):
    """The texts that tokenize, so that they can be cut."""
    kept = []
    for text in texts:
        try:
            cut(text, grammar)
        except ParseError:
            continue
        kept.append(text)
    return kept


def mutate(text, grammar, edits):
    pairs, tail = cut(text, grammar)
    for op, at, piece, run in edits:
        if not pairs:
            pairs.append([" ", piece])
            continue
        i = at % len(pairs)
        if op == "delete":
            del pairs[i]
        elif op == "repeat":
            pairs[i:i] = [[" ", token] for _, token in pairs[i : i + run]]
        elif op == "swap":
            j = (i + 1) % len(pairs)
            pairs[i][1], pairs[j][1] = pairs[j][1], pairs[i][1]
        elif op == "replace":
            pairs[i][1] = piece
        else:
            pairs.insert(i, [" ", piece])
    return "".join(gap + token for gap, token in pairs) + tail


MODEL_TEXTS = sorted(FIXTURE_TEXTS.values()) + [BENCH_MODELS[key] for key in sorted(BENCH_MODELS)]
MODEL_SEEDS = MODEL_TEXTS + [MODEL_SHAPES] + seeds(MODEL_ERROR_TEXTS, "model")
FORMULA_SEEDS = BENCH_FORMULAS + FORMULA_SHAPES + seeds(FORMULA_ERROR_TEXTS, "formula")


@settings(max_examples=150)
@given(st.one_of(st.sampled_from(MODEL_SEEDS), MODELS, FEEDBACK), EDITS)
def test_mutated_models_parse_as_before(text, edits):
    assert_parses_as_before(mutate(text, "model", edits))


@settings(max_examples=150)
@given(st.sampled_from(FORMULA_SEEDS), EDITS)
def test_mutated_formulas_parse_as_before(text, edits):
    assert_parses_as_before(mutate(text, "formula", edits))
