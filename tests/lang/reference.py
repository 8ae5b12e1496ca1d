"""Reference implementations the fast lexer and parser are pinned to.

``reference_tokenize`` is the straightforward scanner loop the lexer used
before its one-match-per-token rewrite: a separate ``WS`` alternative,
column bookkeeping per token, and ``Token`` built through its public
constructor.  ``ReferenceParser`` overrides the hot ``_Parser`` routines
with their cursor-method versions (``peek``/``next``/``at`` per token and a
handler dict rebuilt per keyword statement); like the production parser,
it raises ``ParseError`` where input ends before a required statement
(that path used to fail an ``assert``).  Both are test oracles only: the
parity tests in this package require the production code to return the
same tokens, the same ``LexError`` messages and the same ASTs.
"""

from __future__ import annotations

import re

from repro.errors import LexError, ParseError
from repro.lang.ast_nodes import BlockStmt, DeclStmt, ExprStmt, LabelStmt, NullStmt, Stmt, TranslationUnit
from repro.lang.lexer import _end_of_directive
from repro.lang.parser import _Parser
from repro.lang.tokens import ALL_KEYWORDS, OPERATORS, TYPE_KEYWORDS, Token, TokenKind

__all__ = ["reference_tokenize", "reference_parse_translation_unit", "reference_parse_function_body"]

_OP_ALTERNATION = "|".join(re.escape(op) for op in OPERATORS)

_MASTER = re.compile(
    r"""
    (?P<WS>[ \t\r\f\v]+)
  | (?P<LINECONT>\\\n)
  | (?P<NEWLINE>\n)
  | (?P<COMMENT>//[^\n]*|/\*(?s:.*?)(?:\*/|$))
  | (?P<STRING>(?:u8|[LuU])?"(?:\\.|[^"\\\n])*(?:"|(?=\n)|$))
  | (?P<CHAR>(?:[LuU])?'(?:\\.|[^'\\\n])*(?:'|(?=\n)|$))
  | (?P<NUMBER>0[xX][0-9a-fA-F]+[uUlL]*|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?[uUlLfF]*)
  | (?P<IDENT>[A-Za-z_$][A-Za-z0-9_$]*)
  | (?P<PUNCT>[()\[\]{};])
  | (?P<OP>%s)
  | (?P<HASH>\#)
  | (?P<OTHER>.)
    """
    % _OP_ALTERNATION,
    re.VERBOSE,
)

_QUOTE_FIX = {"STRING": '"', "CHAR": "'"}


def reference_tokenize(
    source: str,
    keep_comments: bool = False,
    keep_newlines: bool = False,
    strict: bool = False,
) -> list[Token]:
    """The scanner loop ``repro.lang.tokenize`` must agree with."""
    tokens: list[Token] = []
    append = tokens.append
    match = _MASTER.match
    i = 0
    line = 1
    col = 1
    n = len(source)
    at_line_start = True

    while i < n:
        m = match(source, i)
        kind = m.lastgroup
        text = m.group()
        tline, tcol = line, col

        if kind == "WS":
            i = m.end()
            col += len(text)
            continue
        if kind == "NEWLINE":
            if keep_newlines:
                append(Token(TokenKind.NEWLINE, "\n", tline, tcol))
            i = m.end()
            line += 1
            col = 1
            at_line_start = True
            continue
        if kind == "LINECONT":
            i = m.end()
            line += 1
            col = 1
            continue
        if kind == "COMMENT":
            if keep_comments:
                append(Token(TokenKind.COMMENT, text, tline, tcol))
            newlines = text.count("\n")
            if newlines:
                line += newlines
                col = len(text) - text.rfind("\n")
            else:
                col += len(text)
            i = m.end()
            continue
        if kind == "HASH" and at_line_start:
            j = _end_of_directive(source, i)
            text = source[i:j]
            append(Token(TokenKind.PREPROCESSOR, text, tline, tcol))
            newlines = text.count("\n")
            line += newlines
            col = 1 if newlines else col + len(text)
            i = j
            at_line_start = False
            continue

        at_line_start = False
        if kind == "STRING" or kind == "CHAR":
            quote = _QUOTE_FIX[kind]
            if not text.endswith(quote) or len(text.lstrip("Lu8U")) < 2:
                text_fixed = text + quote
            else:
                text_fixed = text
            tok_kind = TokenKind.STRING if kind == "STRING" else TokenKind.CHAR
            append(Token(tok_kind, text_fixed, tline, tcol))
        elif kind == "NUMBER":
            append(Token(TokenKind.NUMBER, text, tline, tcol))
        elif kind == "IDENT":
            tok_kind = TokenKind.KEYWORD if text in ALL_KEYWORDS else TokenKind.IDENTIFIER
            append(Token(tok_kind, text, tline, tcol))
        elif kind == "PUNCT":
            append(Token(TokenKind.PUNCT, text, tline, tcol))
        elif kind == "OP":
            append(Token(TokenKind.OPERATOR, text, tline, tcol))
        else:
            if strict and kind == "OTHER":
                raise LexError(f"unexpected character {text!r} at line {line}, col {col}")
            append(Token(TokenKind.PUNCT, text, tline, tcol))
        i = m.end()
        col += len(text)

    return tokens


class ReferenceParser(_Parser):
    """``_Parser`` with its hot routines in cursor-method form.

    Everything not overridden here (the cursor primitives ``peek``/``next``/
    ``eof``, function-definition scan, compound statements,
    ``text_between``, the line model) is shared with the production
    parser, so a disagreement isolates the rewritten loops.
    """

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text

    def skip_balanced(self, open_text: str) -> tuple[Token, Token]:
        open_tok = self.expect(open_text)
        close_text = {"(": ")", "[": "]", "{": "}"}[open_text]
        depth = 1
        last = open_tok
        while not self.eof():
            tok = self.next()
            last = tok
            if tok.text == open_text:
                depth += 1
            elif tok.text == close_text:
                depth -= 1
                if depth == 0:
                    return open_tok, tok
        return open_tok, last

    def parse_block(self) -> BlockStmt:
        open_tok = self.expect("{")
        stmts: list[Stmt] = []
        while not self.eof() and not self.at("}"):
            stmts.append(self.parse_statement())
        close_tok = self.next() if not self.eof() else self.tokens[-1]
        return BlockStmt(open_tok.line, close_tok.line, stmts=stmts)

    def parse_statement(self) -> Stmt:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input: statement expected")
        if tok.text == "{":
            return self.parse_block()
        if tok.kind is TokenKind.KEYWORD:
            handler = {
                "if": self._parse_if,
                "while": self._parse_while,
                "do": self._parse_do,
                "for": self._parse_for,
                "switch": self._parse_switch,
                "return": self._parse_return,
                "goto": self._parse_goto,
                "break": self._parse_break,
                "continue": self._parse_continue,
                "case": self._parse_case,
                "default": self._parse_case,
                "else": None,
            }.get(tok.text, self._parse_simple)
            if handler is None:
                return self._parse_simple()
            return handler()
        if tok.text == ";":
            self.next()
            return NullStmt(tok.line, tok.line)
        nxt = self.peek(1)
        if (
            tok.kind is TokenKind.IDENTIFIER
            and nxt is not None
            and nxt.text == ":"
            and (self.peek(2) is None or self.peek(2).text != ":")
        ):
            self.next()
            self.next()
            if self.eof() or self.at("}"):
                return LabelStmt(tok.line, tok.line, name=tok.text, stmt=None)
            inner = self.parse_statement()
            return LabelStmt(tok.line, inner.end_line, name=tok.text, stmt=inner)
        return self._parse_simple()

    def _parse_simple(self) -> Stmt:
        first = self.next()
        last = first
        depth = 0
        is_decl = first.kind is TokenKind.KEYWORD and first.text in TYPE_KEYWORDS
        if first.kind is TokenKind.IDENTIFIER:
            nxt = self.peek()
            if nxt is not None and (
                nxt.kind is TokenKind.IDENTIFIER
                or (nxt.text == "*" and self.peek(1) is not None and self.peek(1).kind is TokenKind.IDENTIFIER)
            ):
                is_decl = True
        while not self.eof():
            if depth == 0 and self.at(";"):
                self.next()
                break
            if depth == 0 and self.at("}"):
                break
            tok = self.next()
            last = tok
            if tok.text in ("(", "[", "{"):
                depth += 1
            elif tok.text in (")", "]", "}"):
                depth = max(0, depth - 1)
        text = self.text_between(first, last)
        if is_decl:
            return DeclStmt(first.line, last.line, text=text)
        return ExprStmt(first.line, last.line, text=text)


def _code_tokens(source: str) -> list[Token]:
    return [
        t
        for t in reference_tokenize(source)
        if t.kind not in (TokenKind.COMMENT, TokenKind.NEWLINE, TokenKind.PREPROCESSOR)
    ]


def reference_parse_translation_unit(source: str, path: str = "") -> TranslationUnit:
    """``parse_translation_unit`` over the reference lexer and parser."""
    return ReferenceParser(_code_tokens(source), source).parse_unit(path)


def reference_parse_function_body(source: str) -> BlockStmt:
    """``parse_function_body`` over the reference lexer and parser."""
    parser = ReferenceParser(_code_tokens(source), source)
    if not parser.at("{"):
        raise ParseError("function body must start with '{'")
    return parser.parse_block()
