"""Reference tokenizer: the scanner loop the parsers used before.

Every run of whitespace and every comment is a match of its own, and
the loop drops those kinds; a token regex has one named group per kind,
the dropped ones included.  ``syntax.tokenize`` is tested against it:
the same ``(kind, text, pos)`` list, or the same ParseError.
"""

from __future__ import annotations

import re

from de_fixpoint.errors import ParseError

MODEL_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>//[^\n]*)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"(?:\\.|[^"\\\n])*")
  | (?P<op>->|==|!=|<=|>=|&&|\|\||[{}(),.=<>+\-*!/])
    """,
    re.VERBOSE,
)
MODEL_SKIP = frozenset(("ws", "comment"))

FORMULA_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<qident>'[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"(?:\\.|[^"\\\n])*")
  | (?P<op>->|\[\]|<>|/\\|\\/|[~()|,=.@#:/\-])
    """,
    re.VERBOSE,
)
FORMULA_SKIP = frozenset(("ws",))


def reference_tokenize(text: str, pattern, skip) -> list:
    """``(kind, text, pos)`` triples ending with ``("eof", "", len(text))``."""
    tokens = []
    m = None
    for m in iter(pattern.scanner(text).match, None):
        kind = m.lastgroup
        if kind not in skip:
            tokens.append((kind, m.group(), m.start()))
    end = m.end() if m else 0
    if end < len(text):
        line = text.count("\n", 0, end) + 1
        col = end - text.rfind("\n", 0, end)
        if text[end] == '"':
            raise ParseError(line, col, "unterminated string")
        raise ParseError(line, col, f"unexpected character {text[end]!r}")
    tokens.append(("eof", "", end))
    return tokens
