"""Tokenizer for XSQL source text.

Token kinds:

* ``IDENT`` — names of classes, attributes, methods, objects, variables;
* ``CLASSVAR`` / ``METHODVAR`` — ``#X``, ``"Y`` (the paper's ``§X`` and
  ``"Y`` variable sorts, §3.1).  Path variables ``*Y`` are recognized by
  the parser (``*`` is also multiplication, as in the paper's
  ``RaiseMngrSalary`` definition, so the lexer cannot decide alone);
* ``NUMBER`` / ``STRING`` — literal objects;
* ``OP`` — comparators and arithmetic;
* punctuation — ``. , ( ) [ ] { } @ ; :`` and the signature arrows.

Keywords (SELECT, FROM, WHERE, ...) are matched case-insensitively, like
SQL; everything else is case-sensitive, like the paper's examples.
"""

from __future__ import annotations

import re
from typing import Iterator, List, NamedTuple, Optional, Tuple, Union

from repro.errors import XsqlSyntaxError

__all__ = [
    "Token",
    "tokenize",
    "split_script",
    "split_statements",
    "literal_value",
    "KEYWORDS",
]

KEYWORDS = frozenset(
    {
        "select",
        "from",
        "where",
        "oid",
        "function",
        "of",
        "and",
        "or",
        "not",
        "create",
        "view",
        "as",
        "subclass",
        "class",
        "alter",
        "add",
        "signature",
        "update",
        "set",
        "insert",
        "into",
        "values",
        "relation",
        "union",
        "minus",
        "intersect",
        "some",
        "all",
        "contains",
        "containseq",
        "subset",
        "subseteq",
        "subclassof",
        "instanceof",
        "applicableto",
        "count",
        "sum",
        "avg",
        "min",
        "max",
        "nil",
        "true",
        "false",
    }
)

_LEXEMES = r"""
    (?P<comment>--[^\n]*)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<string>'(?:[^'\\]|\\.)*')
  | (?P<classvar>\#[A-Za-z_][A-Za-z0-9_]*)
  | (?P<methodvar>"[A-Za-z_][A-Za-z0-9_]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<arrow>=>>|=>|->>|->)
  | (?P<op><>|!=|<=|>=|=|<|>|\+|-|\*|/)
  | (?P<punct>[.,()\[\]{}@;:])
"""
#: Whitespace as a lexeme of its own: the script splitter keeps it.
_TOKEN_RE = re.compile(r"(?P<ws>\s+) |" + _LEXEMES, re.VERBOSE)
#: One match per token, the whitespace before it skipped in the same
#: match: the tokenizer runs on every statement-cache lookup.
_NEXT_TOKEN_RE = re.compile(r"\s* (?:" + _LEXEMES + ")", re.VERBOSE)

_KINDS = {
    "number": "NUMBER",
    "string": "STRING",
    "arrow": "ARROW",
    "punct": "PUNCT",
    "op": "OP",
}


class Token(NamedTuple):
    kind: str  # IDENT, KEYWORD, NUMBER, STRING, CLASSVAR, METHODVAR,
    #            OP, ARROW, PUNCT, EOF
    text: str
    line: int
    column: int
    raw: Optional[str] = None  # original spelling (keywords lowercase text)

    def is_keyword(self, *names: str) -> bool:
        return self.kind == "KEYWORD" and self.text in names

    def is_punct(self, *chars: str) -> bool:
        return self.kind == "PUNCT" and self.text in chars

    def is_op(self, *ops: str) -> bool:
        return self.kind == "OP" and self.text in ops


#: Keywords that only act as keywords in one clause position; elsewhere
#: they are ordinary identifiers.  Figure 1 itself has an attribute named
#: ``Function``, so ``FUNCTION`` must stay usable as a name.
_SOFT_KEYWORDS = {
    "function": ("oid",),
    "of": ("function", "subclass"),
}


def tokenize(source: str) -> List[Token]:
    """Tokenize *source*, appending a trailing EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    next_token = _NEXT_TOKEN_RE.match
    line = 1
    line_start = 0
    pos = 0
    length = len(source)
    while True:
        match = next_token(source, pos)
        if match is None:  # only whitespace or a bad character is left
            start = length - len(source[pos:].lstrip())
        else:
            kind = match.lastgroup
            start = match.start(kind)
        newlines = source.count("\n", pos, start)
        if newlines:
            line += newlines
            line_start = source.rindex("\n", pos, start) + 1
        column = start - line_start + 1
        if match is None:
            if start < length:
                raise XsqlSyntaxError(
                    f"unexpected character {source[start]!r}", line, column
                )
            break
        pos = match.end()
        text = source[start:pos]
        if kind == "ident":
            lowered = text.lower()
            soft = _SOFT_KEYWORDS.get(lowered)
            if lowered not in KEYWORDS or (
                soft is not None
                and not (tokens and tokens[-1].is_keyword(*soft))
            ):
                append(Token("IDENT", text, line, column))
            else:
                append(Token("KEYWORD", lowered, line, column, text))
        elif kind == "comment":
            continue
        elif kind == "classvar":
            append(Token("CLASSVAR", text[1:], line, column))
        elif kind == "methodvar":
            append(Token("METHODVAR", text[1:], line, column))
        elif kind == "op" and text == "<>":
            append(Token("OP", "!=", line, column))
        else:
            append(Token(_KINDS[kind], text, line, column))
    append(Token("EOF", "", line, column))
    return tokens


def split_script(source: str) -> "Tuple[List[str], str]":
    """Split a script on *statement-level* ``;`` using the token scan.

    Returns ``(statements, remainder)`` where *remainder* is the text
    after the last semicolon (the incomplete trailing statement a REPL is
    still accumulating).  Because the split walks the same regex the
    tokenizer uses, semicolons inside string literals and ``--`` comments
    never split a statement — unlike a raw ``source.split(";")``.

    The scan is total: a character the tokenizer would reject is carried
    into the current statement verbatim, so the *parser* reports the
    error with position info when that statement is executed.
    """
    statements: List[str] = []
    start = 0
    pos = 0
    length = len(source)
    while pos < length:
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            # e.g. an unterminated string literal: leave the text in the
            # current statement and let the parser produce the error.
            pos += 1
            continue
        if match.lastgroup == "punct" and match.group() == ";":
            statements.append(source[start : match.start()])
            start = match.end()
        pos = match.end()
    return statements, source[start:]


def split_statements(source: str) -> List[str]:
    """All non-blank statements of a script (trailing ``;`` optional)."""
    statements, remainder = split_script(source)
    if remainder.strip():
        statements.append(remainder)
    return [s for s in statements if s.strip()]


def unescape_string(text: str) -> str:
    """Strip quotes and process backslash escapes of a STRING token."""
    body = text[1:-1]
    return body.replace("\\'", "'").replace("\\\\", "\\")


def literal_value(token: Token) -> Union[int, float, str]:
    """The payload of a NUMBER or STRING token (``1`` int, ``1.0`` float)."""
    if token.kind == "STRING":
        return unescape_string(token.text)
    return float(token.text) if "." in token.text else int(token.text)
