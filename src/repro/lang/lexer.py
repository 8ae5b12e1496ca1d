"""A C/C++ lexer.

Tokenizes full files *and* bare patch fragments (a hunk body is not a
complete translation unit, but it still lexes line by line).  The lexer is
error-tolerant: an unterminated string or block comment at end of input is
closed implicitly rather than raising, because patch fragments routinely cut
constructs in half.  Truly unlexable bytes raise :class:`LexError` only in
``strict`` mode; otherwise they become one-character PUNCT tokens.

The scanner is a single compiled master regex advanced with ``match(pos)``;
this is the hot path of the whole package (feature extraction, parsing, and
corpus generation all lex), so the loop avoids per-character Python work.
"""

from __future__ import annotations

import re

from ..errors import LexError
from .tokens import ALL_KEYWORDS, OPERATORS, Token, TokenKind

__all__ = ["tokenize", "code_tokens", "split_tokens_by_line"]

_OP_ALTERNATION = "|".join(re.escape(op) for op in OPERATORS)

# Leading whitespace is folded into every match, so each token costs one
# ``match`` call.  OTHER excludes the whitespace class: a whitespace-only
# tail then matches nothing and ends the scan (no possessive quantifier is
# needed, which keeps the pattern valid on Python 3.10).
_MASTER = re.compile(
    r"""
    [ \t\r\f\v]*
    (?:
      (?P<LINECONT>\\\n)
    | (?P<NEWLINE>\n)
    | (?P<COMMENT>//[^\n]*|/\*(?s:.*?)(?:\*/|$))
    | (?P<STRING>(?:u8|[LuU])?"(?:\\.|[^"\\\n])*(?:"|(?=\n)|$))
    | (?P<CHAR>(?:[LuU])?'(?:\\.|[^'\\\n])*(?:'|(?=\n)|$))
    | (?P<NUMBER>0[xX][0-9a-fA-F]+[uUlL]*|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?[uUlLfF]*)
    | (?P<IDENT>[A-Za-z_$][A-Za-z0-9_$]*)
    | (?P<PUNCT>[()\[\]{};])
    | (?P<OP>%s)
    | (?P<HASH>\#)
    | (?P<OTHER>[^ \t\r\f\v\n])
    )
    """
    % _OP_ALTERNATION,
    re.VERBOSE,
)

_G = _MASTER.groupindex
_LINECONT, _NEWLINE, _COMMENT, _STRING, _CHAR = (
    _G["LINECONT"], _G["NEWLINE"], _G["COMMENT"], _G["STRING"], _G["CHAR"]
)
_NUMBER, _IDENT, _HASH, _OTHER = _G["NUMBER"], _G["IDENT"], _G["HASH"], _G["OTHER"]
assert _LINECONT < _NEWLINE < _COMMENT < _STRING < _CHAR < _NUMBER < _IDENT < _HASH < _OTHER

#: Token kind per group index, for the groups that map to one kind.
_KIND_OF_GROUP: dict[int, TokenKind] = {
    _NUMBER: TokenKind.NUMBER,
    _G["PUNCT"]: TokenKind.PUNCT,
    _G["OP"]: TokenKind.OPERATOR,
    _HASH: TokenKind.PUNCT,  # '#' not at the start of a line
    _OTHER: TokenKind.PUNCT,
}


def tokenize(
    source: str,
    keep_comments: bool = False,
    keep_newlines: bool = False,
    strict: bool = False,
) -> list[Token]:
    """Tokenize C/C++ *source*.

    Args:
        source: source text (a full file or a fragment).
        keep_comments: include COMMENT tokens in the output.
        keep_newlines: include NEWLINE tokens (one per physical newline
            outside comments/strings).
        strict: raise :class:`LexError` on unexpected characters instead of
            passing them through as punctuation.

    Returns:
        Tokens in source order (no EOF sentinel).
    """
    tokens: list[Token] = []
    append = tokens.append
    match = _MASTER.match
    new = tuple.__new__  # new(Token, fields) skips NamedTuple's Python-level __new__
    keywords = ALL_KEYWORDS
    kind_of = _KIND_OF_GROUP
    KEYWORD, IDENTIFIER = TokenKind.KEYWORD, TokenKind.IDENTIFIER
    i = 0  # scan position
    line = 1
    line_start = 0  # index of column 1 on the current line
    at_line_start = True  # only whitespace seen since the last newline

    while True:
        m = match(source, i)
        if m is None:  # end of input, or a whitespace-only tail
            break
        i = m.end()
        g = m.lastindex
        if g > _CHAR:  # NUMBER, IDENT, PUNCT, OP, HASH, OTHER
            text = m.group(g)
            if g == _IDENT:
                kind = KEYWORD if text in keywords else IDENTIFIER
            elif g == _HASH and at_line_start:
                start = i - 1
                i = _end_of_directive(source, start)
                text = source[start:i]
                append(new(Token, (TokenKind.PREPROCESSOR, text, line, start - line_start + 1)))
                newlines = text.count("\n")
                if newlines:
                    line += newlines
                    line_start = i  # a continued directive's closing '\n' is column 1
                at_line_start = False
                continue
            else:
                if strict and g == _OTHER:
                    col = i - line_start  # of the one-character token ending at i
                    raise LexError(f"unexpected character {text!r} at line {line}, col {col}")
                kind = kind_of[g]
            append(new(Token, (kind, text, line, i - len(text) - line_start + 1)))
            at_line_start = False
        elif g == _NEWLINE:
            if keep_newlines:
                append(new(Token, (TokenKind.NEWLINE, "\n", line, i - line_start)))
            line += 1
            line_start = i
            at_line_start = True
        elif g == _COMMENT:
            text = m.group(g)
            if keep_comments:
                append(new(Token, (TokenKind.COMMENT, text, line, i - len(text) - line_start + 1)))
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = i - len(text) + text.rfind("\n") + 1
        elif g == _LINECONT:
            line += 1
            line_start = i
        else:  # STRING or CHAR; an unterminated literal is closed implicitly
            text = m.group(g)
            col = i - len(text) - line_start + 1
            quote = '"' if g == _STRING else "'"
            if not text.endswith(quote) or len(text.lstrip("Lu8U")) < 2:
                text += quote
            kind = TokenKind.STRING if g == _STRING else TokenKind.CHAR
            append(new(Token, (kind, text, line, col)))
            at_line_start = False

    return tokens


def _end_of_directive(source: str, i: int) -> int:
    """Index just past a preprocessor directive, honoring '\\' continuations."""
    n = len(source)
    while True:
        j = source.find("\n", i)
        if j < 0:
            return n
        k = j - 1
        while k >= 0 and source[k] in " \t\r":
            k -= 1
        if k >= 0 and source[k] == "\\":
            i = j + 1
            continue
        return j


def code_tokens(source: str) -> list[Token]:
    """Tokenize and keep only code tokens (no comments or newlines): what
    :func:`tokenize` returns with its defaults."""
    return tokenize(source)


def split_tokens_by_line(tokens: list[Token]) -> dict[int, list[Token]]:
    """Group tokens by their source line number."""
    by_line: dict[int, list[Token]] = {}
    for tok in tokens:
        by_line.setdefault(tok.line, []).append(tok)
    return by_line
