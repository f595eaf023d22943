"""Front-end inputs the tokenizer and parser tests share.

The fixtures' texts, the benchmark's model texts and its formula and
proposition texts, and the pieces token-level mutations splice in.
"""

from __future__ import annotations

import os
import sys

from conftest import MODELS as MODEL_DIR

sys.path.append(os.path.join(os.path.dirname(MODEL_DIR), "bench"))

import workloads  # noqa: E402


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

# Tokens of both grammars, characters no token covers, and whitespace.
PIECES = [
    "format", "1", "2.5", "3/2", "x_1", "'Top", "->", "==", "<=", "&&", "||",
    "[]", "<>", "/\\", "\\/", "~", "{", "}", "(", ")", ",", ".", "=", "|", "@",
    "#", ":", "-", "!", "*", "+", "/", "//", "// note\n", '"s"', '"a\\"b"',
    " ", "  ", "\t", "\n", "\r\n", "\f", "\v", "\xa0", '"', '"abc\n', "$", "%",
    "'", "^", "`", "?",
]  # fmt: skip

# Words the grammars give a meaning to.
KEYWORDS = [
    "composite", "modal", "fsm", "clock", "delay", "setvar", "input", "output",
    "var", "initial", "location", "transition", "guard", "set", "controller",
    "refine", "connect", "parent", "isPresent", "value", "true", "false",
    "True", "False", "U", "0", "-1", "1.5", "'x", "'A",
]  # fmt: skip
