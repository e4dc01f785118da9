"""Tokenizer for CoreDSL source text.

Handles C-style identifiers, comments, punctuation, multi-character
operators, string literals, C integer literals (``42``, ``0xcafe``, ``0b101``,
octal ``017``) and Verilog-style sized literals (``6'd42``, ``3'b111``,
``12'shfff``), which the paper adopts for precise control over literal types
(Section 2.3).
"""

from __future__ import annotations

import dataclasses
import re
from typing import Iterator, List, Optional

from repro.utils.diagnostics import CoreDSLError, SourceLocation

KEYWORDS = {
    "import", "InstructionSet", "Core", "extends", "provides",
    "architectural_state", "instructions", "always", "functions",
    "if", "else", "for", "while", "do", "return", "spawn",
    "switch", "case", "default", "break",
    "register", "extern", "const", "volatile", "static",
    "signed", "unsigned", "int", "char", "short", "long", "bool", "void",
    "true", "false", "encoding", "behavior", "assembly",
}

#: Multi-character operators, longest first so maximal munch works.
OPERATORS = [
    "<<=", ">>=", "...",
    "::", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]

_VERILOG_RE = re.compile(r"(\d+)'(s?)([bdho])([0-9a-fA-F_xzXZ]+)")
_NUMBER_RE = re.compile(r"0[xX][0-9a-fA-F_]+|0[bB][01_]+|0[oO][0-7_]+|\d[\d_]*")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclasses.dataclass
class Token:
    """A single lexical token.

    ``kind`` is one of ``"ident"``, ``"keyword"``, ``"number"``,
    ``"verilog_number"``, ``"string"``, ``"op"`` or ``"eof"``.  Numeric tokens
    carry their integer ``value``; Verilog-sized literals additionally carry
    ``width`` and ``signed``.
    """

    kind: str
    text: str
    loc: SourceLocation
    value: Optional[int] = None
    width: Optional[int] = None
    signed: bool = False

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r})"


_RADIX = {"b": 2, "o": 8, "d": 10, "h": 16}


def _iter_tokens(text: str, filename: str) -> Iterator[Token]:
    pos = 0
    line = 1
    line_start = 0
    n = len(text)

    def loc() -> SourceLocation:
        return SourceLocation(filename, line, pos - line_start + 1)

    while pos < n:
        ch = text[pos]
        # -- whitespace and comments ----------------------------------------
        if ch == "\n":
            line += 1
            pos += 1
            line_start = pos
            continue
        if ch in " \t\r":
            pos += 1
            continue
        if text.startswith("//", pos):
            end = text.find("\n", pos)
            pos = n if end == -1 else end
            continue
        if text.startswith("/*", pos):
            end = text.find("*/", pos + 2)
            if end == -1:
                raise CoreDSLError("unterminated block comment", loc())
            line += text.count("\n", pos, end)
            if "\n" in text[pos:end]:
                line_start = text.rfind("\n", pos, end) + 1
            pos = end + 2
            continue
        # -- string literals -------------------------------------------------
        if ch == '"':
            end = pos + 1
            while end < n and text[end] != '"':
                if text[end] == "\\":
                    end += 1
                end += 1
            if end >= n:
                raise CoreDSLError("unterminated string literal", loc())
            yield Token("string", text[pos + 1:end], loc())
            pos = end + 1
            continue
        # -- Verilog-sized literals (must precede plain numbers) -------------
        m = _VERILOG_RE.match(text, pos)
        if m:
            width = int(m.group(1))
            is_signed = m.group(2) == "s"
            radix = _RADIX[m.group(3).lower()]
            digits = m.group(4).replace("_", "")
            try:
                value = int(digits, radix)
            except ValueError:
                raise CoreDSLError(f"invalid digits in literal {m.group(0)!r}", loc())
            if value >= (1 << width):
                raise CoreDSLError(
                    f"literal {m.group(0)!r} does not fit in {width} bits", loc()
                )
            yield Token("verilog_number", m.group(0), loc(), value=value,
                        width=width, signed=is_signed)
            pos = m.end()
            continue
        # -- plain numbers ----------------------------------------------------
        m = _NUMBER_RE.match(text, pos)
        if m:
            raw = m.group(0).replace("_", "")
            if raw[0] == "0" and raw.isdigit():
                raw = "0o" + raw  # C: a leading zero makes the literal octal
            try:
                value = int(raw, 0)
            except ValueError:
                raise CoreDSLError(
                    f"invalid digits in literal {m.group(0)!r}", loc())
            yield Token("number", m.group(0), loc(), value=value)
            pos = m.end()
            continue
        # -- identifiers / keywords -------------------------------------------
        m = _IDENT_RE.match(text, pos)
        if m:
            word = m.group(0)
            kind = "keyword" if word in KEYWORDS else "ident"
            yield Token(kind, word, loc())
            pos = m.end()
            continue
        # -- operators ----------------------------------------------------------
        for op in OPERATORS:
            if text.startswith(op, pos):
                yield Token("op", op, loc())
                pos += len(op)
                break
        else:
            raise CoreDSLError(f"unexpected character {ch!r}", loc())
    yield Token("eof", "", SourceLocation(filename, line, pos - line_start + 1))


def tokenize(text: str, filename: str = "<input>") -> List[Token]:
    """Tokenize CoreDSL source ``text`` into a list ending with an EOF token."""
    return list(_iter_tokens(text, filename))
