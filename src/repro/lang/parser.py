"""Lightweight recursive-descent C parser.

Produces the AST of :mod:`repro.lang.ast_nodes` for full source files.  The
parser recognizes function definitions at the top level and statement
structure (blocks, ``if``/``else``, loops, ``switch``, jumps, declarations,
expression statements) inside bodies — exactly the structure the paper
extracts from LLVM ASTs to locate ``if`` statements (§III-C-2).

Robustness over completeness: constructs the grammar does not model
(templates, K&R definitions, GNU attributes) are skipped as opaque regions
rather than raising, so real-world files still parse.  :class:`ParseError`
is raised when a body is not brace-delimited, when input ends where a
statement is required, and when statements nest deeper than
:data:`MAX_NESTING` (instead of exhausting the interpreter's recursion
limit).
"""

from __future__ import annotations

from ..errors import ParseError
from .ast_nodes import (
    BlockStmt,
    BreakStmt,
    CaseLabel,
    ContinueStmt,
    DeclStmt,
    DoWhileStmt,
    Expr,
    ExprStmt,
    ForStmt,
    FunctionDef,
    GotoStmt,
    IfStmt,
    LabelStmt,
    NullStmt,
    ReturnStmt,
    Stmt,
    SwitchStmt,
    TranslationUnit,
    WhileStmt,
)
from .lexer import tokenize
from .tokens import TYPE_KEYWORDS, Token, TokenKind

__all__ = ["parse_translation_unit", "parse_function_body", "find_if_statements", "MAX_NESTING"]

#: Deepest statement nesting the parser accepts.  Each level costs at most
#: two interpreter frames, so input nested deeper raises ParseError well
#: before Python's default recursion limit of 1000 is reached, also when
#: the parser is entered from a deep call stack.
MAX_NESTING = 200

_CLOSE_FOR_OPEN = {"(": ")", "[": "]", "{": "}"}
_KEYWORD = TokenKind.KEYWORD
_IDENTIFIER = TokenKind.IDENTIFIER


def parse_translation_unit(source: str, path: str = "") -> TranslationUnit:
    """Parse a full C/C++ file into a :class:`TranslationUnit`."""
    parser = _Parser(_code_tokens(source), source)
    return parser.parse_unit(path)


def parse_function_body(source: str) -> BlockStmt:
    """Parse a brace-delimited block (``{...}``) in isolation."""
    parser = _Parser(_code_tokens(source), source)
    if not parser.at("{"):
        raise ParseError("function body must start with '{'")
    return parser.parse_block()


def _code_tokens(source: str) -> list[Token]:
    """Tokens the parser consumes: no preprocessor lines (``tokenize``
    already drops comments and newlines by default)."""
    directive = TokenKind.PREPROCESSOR
    return [t for t in tokenize(source) if t.kind is not directive]


def find_if_statements(unit: TranslationUnit) -> list[IfStmt]:
    """All ``if`` statements in the unit, in source order."""
    from .ast_nodes import walk

    found = [n for fn in unit.functions for n in walk(fn) if isinstance(n, IfStmt)]
    found.sort(key=lambda n: (n.start_line, n.cond_open_col))
    return found


class _Parser:
    """Token cursor with the recursive-descent routines.

    ``texts`` parallels ``tokens`` (the hot loops compare token texts and
    walk indices in locals), and ``source_lines`` splits the source at
    ``'\\n'`` only: the lexer counts no other line break, so token lines
    index it directly.
    """

    def __init__(self, tokens: list[Token], source: str) -> None:
        self.tokens = tokens
        self.texts = [t.text for t in tokens]
        self.n = len(tokens)
        self.pos = 0
        self.depth = 0  # statements currently open (see MAX_NESTING)
        # A CRLF break drops its '\r' with the '\n', as str.splitlines
        # did; every other character stays on its line.
        self.line_count = source.count("\n") + (not source.endswith("\n")) or 1
        self.source_lines = source.replace("\r\n", "\n").split("\n")

    # ---- cursor helpers -------------------------------------------------

    def peek(self, offset: int = 0) -> Token | None:
        idx = self.pos + offset
        if idx >= self.n:
            return None
        return self.tokens[idx]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        pos = self.pos
        return pos < self.n and self.texts[pos] == text

    def at_keyword(self, name: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind is _KEYWORD and tok.text == name

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok is None or tok.text != text:
            where = f"line {tok.line}" if tok else "EOF"
            raise ParseError(f"expected {text!r} at {where}, found {tok.text if tok else 'EOF'!r}")
        return self.next()

    def eof(self) -> bool:
        return self.pos >= self.n

    def skip_balanced(self, open_text: str) -> tuple[Token, Token]:
        """Consume from an *open_text* token through its matching close.

        Returns (open_token, close_token).  Unbalanced input consumes to EOF
        and returns the final token as the close.
        """
        open_tok = self.expect(open_text)
        close_text = _CLOSE_FOR_OPEN[open_text]
        texts = self.texts
        n = self.n
        i = self.pos
        depth = 1
        while i < n:
            text = texts[i]
            i += 1
            if text == open_text:
                depth += 1
            elif text == close_text:
                depth -= 1
                if depth == 0:
                    break
        self.pos = i
        return open_tok, self.tokens[i - 1]

    def text_between(self, first: Token, last: Token) -> str:
        """Exact source text from *first* through *last* (token-inclusive)."""
        lines = self.source_lines
        if first.line == last.line:
            line = lines[first.line - 1]
            return line[first.col - 1 : last.col - 1 + len(last.text)]
        parts = [lines[first.line - 1][first.col - 1 :]]
        parts.extend(lines[first.line : last.line - 1])
        parts.append(lines[last.line - 1][: last.col - 1 + len(last.text)])
        return "\n".join(parts)

    # ---- top level ------------------------------------------------------

    def parse_unit(self, path: str) -> TranslationUnit:
        functions: list[FunctionDef] = []
        while not self.eof():
            fn = self._try_function_def()
            if fn is not None:
                functions.append(fn)
                continue
            self._skip_top_level_item()
        return TranslationUnit(1, self.line_count, functions=functions, path=path)

    def _try_function_def(self) -> FunctionDef | None:
        """Parse a function definition starting at the cursor, or return None.

        A definition looks like ``<decl tokens> name ( params ) { body }``
        with no ``;`` between the ``)`` and the ``{``.
        """
        start = self.pos
        # Scan forward for 'ident (' ... ') {' without hitting ';' or '}' at
        # depth 0 first.
        i = self.pos
        name_idx = -1
        n = len(self.tokens)
        while i < n:
            tok = self.tokens[i]
            if tok.text in (";", "}", "="):
                break
            if (
                tok.kind is TokenKind.IDENTIFIER
                and i + 1 < n
                and self.tokens[i + 1].text == "("
            ):
                # Find matching ')' and check for '{'.
                depth = 0
                j = i + 1
                while j < n:
                    t = self.tokens[j].text
                    if t == "(":
                        depth += 1
                    elif t == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    j += 1
                if j < n and depth == 0:
                    k = j + 1
                    # Allow qualifiers between ')' and '{' (const, noexcept).
                    while k < n and self.tokens[k].kind is TokenKind.KEYWORD:
                        k += 1
                    if k < n and self.tokens[k].text == "{":
                        name_idx = i
                        params_open, params_close = i + 1, j
                        body_idx = k
                        break
                i = j if j > i else i + 1
                continue
            i += 1
        if name_idx < 0:
            self.pos = start
            return None

        name_tok = self.tokens[name_idx]
        ret_text = (
            self.text_between(self.tokens[start], self.tokens[name_idx - 1])
            if name_idx > start
            else ""
        )
        params_text = self.text_between(self.tokens[params_open], self.tokens[params_close])
        self.pos = body_idx
        body = self.parse_block()
        first = self.tokens[start]
        return FunctionDef(
            start_line=first.line,
            end_line=body.end_line,
            name=name_tok.text,
            params_text=params_text,
            return_type_text=ret_text.strip(),
            body=body,
        )

    def _skip_top_level_item(self) -> None:
        """Skip one non-function top-level construct (decl, struct, etc.)."""
        while not self.eof():
            tok = self.next()
            if tok.text == ";":
                return
            if tok.text == "{":
                depth = 1
                while not self.eof() and depth:
                    t = self.next().text
                    if t == "{":
                        depth += 1
                    elif t == "}":
                        depth -= 1
                # struct { ... } x; — keep consuming to the ';' if adjacent.
                if self.at(";"):
                    self.next()
                return

    # ---- statements -----------------------------------------------------

    def parse_block(self) -> BlockStmt:
        open_tok = self.expect("{")
        stmts: list[Stmt] = []
        texts = self.texts
        n = self.n
        while self.pos < n and texts[self.pos] != "}":
            stmts.append(self.parse_statement())
        if self.pos < n:
            close_tok = self.tokens[self.pos]
            self.pos += 1
        else:
            close_tok = self.tokens[-1]
        return BlockStmt(open_tok.line, close_tok.line, stmts=stmts)

    def parse_statement(self) -> Stmt:
        pos = self.pos
        if pos >= self.n:
            raise ParseError("unexpected end of input: statement expected")
        tok = self.tokens[pos]
        depth = self.depth
        if depth >= MAX_NESTING:
            raise ParseError(f"statements nested deeper than {MAX_NESTING} at line {tok.line}")
        self.depth = depth + 1
        text = tok.text
        if text == "{":
            stmt = self.parse_block()
        elif tok.kind is _KEYWORD:
            stmt = self._KEYWORD_STATEMENTS.get(text, _Parser._parse_simple)(self)
        elif text == ";":
            self.pos = pos + 1
            stmt = NullStmt(tok.line, tok.line)
        elif (
            # Label: 'ident :' not followed by ':' (avoid '::').
            tok.kind is _IDENTIFIER
            and pos + 1 < self.n
            and self.texts[pos + 1] == ":"
            and (pos + 2 >= self.n or self.texts[pos + 2] != ":")
        ):
            self.pos = pos + 2
            if self.eof() or self.at("}"):
                stmt = LabelStmt(tok.line, tok.line, name=text, stmt=None)
            else:
                inner = self.parse_statement()
                stmt = LabelStmt(tok.line, inner.end_line, name=text, stmt=inner)
        else:
            stmt = self._parse_simple()
        self.depth = depth
        return stmt

    def _parse_paren_expr(self) -> tuple[Expr, Token, Token]:
        """Parse ``( ... )`` returning (expr, open_token, close_token)."""
        open_idx = self.pos
        open_tok, close_tok = self.skip_balanced("(")
        close_idx = self.pos - 1
        if close_idx <= open_idx + 1:  # '()' or unbalanced-at-EOF
            expr = Expr(
                open_tok.line,
                close_tok.line,
                text="",
                start_col=open_tok.col + 1,
                end_col=close_tok.col if close_tok is not open_tok else open_tok.col + 1,
            )
            return expr, open_tok, close_tok
        first_inner = self.tokens[open_idx + 1]
        last_inner = self.tokens[close_idx - 1]
        expr = Expr(
            first_inner.line,
            last_inner.line,
            text=self.text_between(first_inner, last_inner),
            start_col=first_inner.col,
            end_col=last_inner.col + len(last_inner.text),
        )
        return expr, open_tok, close_tok

    def _parse_if(self) -> IfStmt:
        kw = self.next()
        cond, open_tok, close_tok = self._parse_paren_expr()
        then_braced = self.at("{")
        then = self.parse_statement()
        orelse: Stmt | None = None
        end_line = then.end_line
        if self.at_keyword("else"):
            self.next()
            orelse = self.parse_statement()
            end_line = orelse.end_line
        return IfStmt(
            kw.line,
            end_line,
            cond=cond,
            then=then,
            orelse=orelse,
            cond_open_line=open_tok.line,
            cond_open_col=open_tok.col,
            cond_close_line=close_tok.line,
            cond_close_col=close_tok.col,
            then_braced=then_braced,
        )

    def _parse_while(self) -> WhileStmt:
        kw = self.next()
        cond, _, _ = self._parse_paren_expr()
        body = self.parse_statement()
        return WhileStmt(kw.line, body.end_line, cond=cond, body=body)

    def _parse_do(self) -> DoWhileStmt:
        kw = self.next()
        body = self.parse_statement()
        end_line = body.end_line
        cond = Expr(end_line, end_line, text="")
        if self.at_keyword("while"):
            self.next()
            cond, _, close_tok = self._parse_paren_expr()
            end_line = close_tok.line
            if self.at(";"):
                self.next()
        return DoWhileStmt(kw.line, end_line, body=body, cond=cond)

    def _parse_for(self) -> ForStmt:
        kw = self.next()
        clauses, _, _ = self._parse_paren_expr()
        body = self.parse_statement()
        return ForStmt(kw.line, body.end_line, clauses=clauses.text, body=body)

    def _parse_switch(self) -> SwitchStmt:
        kw = self.next()
        cond, _, _ = self._parse_paren_expr()
        body = self.parse_statement()
        return SwitchStmt(kw.line, body.end_line, cond=cond, body=body)

    def _parse_case(self) -> CaseLabel:
        kw = self.next()
        first = kw
        last = kw
        while not self.eof() and not self.at(":"):
            last = self.next()
        if not self.eof():
            self.next()  # ':'
        return CaseLabel(first.line, last.line, label_text=self.text_between(first, last))

    def _parse_return(self) -> ReturnStmt:
        kw = self.next()
        first = None
        last = kw
        while not self.eof() and not self.at(";"):
            tok = self.next()
            if first is None:
                first = tok
            last = tok
            if tok.text == "(":
                # Balance inner parens (e.g. return f(a, b);).
                depth = 1
                while not self.eof() and depth:
                    t = self.next()
                    last = t
                    if t.text == "(":
                        depth += 1
                    elif t.text == ")":
                        depth -= 1
        if not self.eof():
            self.next()  # ';'
        value = self.text_between(first, last) if first is not None else ""
        return ReturnStmt(kw.line, last.line, value_text=value)

    def _parse_goto(self) -> GotoStmt:
        kw = self.next()
        label = ""
        last = kw
        if not self.eof() and self.peek().kind is TokenKind.IDENTIFIER:
            tok = self.next()
            label = tok.text
            last = tok
        if self.at(";"):
            self.next()
        return GotoStmt(kw.line, last.line, label=label)

    def _parse_break(self) -> BreakStmt:
        kw = self.next()
        if self.at(";"):
            self.next()
        return BreakStmt(kw.line, kw.line)

    def _parse_continue(self) -> ContinueStmt:
        kw = self.next()
        if self.at(";"):
            self.next()
        return ContinueStmt(kw.line, kw.line)

    def _parse_simple(self) -> Stmt:
        """Expression or declaration statement: consume to ';' at depth 0."""
        tokens = self.tokens
        texts = self.texts
        n = self.n
        i = self.pos
        first = tokens[i]
        i += 1
        is_decl = first.kind is _KEYWORD and first.text in TYPE_KEYWORDS
        if first.kind is _IDENTIFIER and i < n:
            nxt = tokens[i]
            # 'Type name ...' or 'Type *name ...' heuristics.
            if nxt.kind is _IDENTIFIER or (
                nxt.text == "*" and i + 1 < n and tokens[i + 1].kind is _IDENTIFIER
            ):
                is_decl = True
        last = i - 1
        depth = 0
        while i < n:
            text = texts[i]
            if depth == 0:
                if text == ";":
                    i += 1
                    break
                if text == "}":
                    break  # unterminated statement at block end
            last = i
            i += 1
            if text == "(" or text == "[" or text == "{":
                depth += 1
            elif depth and (text == ")" or text == "]" or text == "}"):
                depth -= 1
        self.pos = i
        last_tok = tokens[last]
        text = self.text_between(first, last_tok)
        if is_decl:
            return DeclStmt(first.line, last_tok.line, text=text)
        return ExprStmt(first.line, last_tok.line, text=text)

    #: Statement keyword -> handler; any other keyword starts a simple
    #: statement (a dangling ``else`` is treated as opaque).
    _KEYWORD_STATEMENTS = {
        "if": _parse_if,
        "while": _parse_while,
        "do": _parse_do,
        "for": _parse_for,
        "switch": _parse_switch,
        "return": _parse_return,
        "goto": _parse_goto,
        "break": _parse_break,
        "continue": _parse_continue,
        "case": _parse_case,
        "default": _parse_case,
    }
