"""Tests for the C/C++ lexer."""

import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexError
from repro.lang import Token, TokenKind, code_tokens, split_tokens_by_line, tokenize

from .reference import reference_tokenize


def kinds(source, **kw):
    return [t.kind for t in tokenize(source, **kw)]


def texts(source, **kw):
    return [t.text for t in tokenize(source, **kw)]


class TestBasicTokens:
    def test_keywords_vs_identifiers(self):
        toks = tokenize("int foo = sizeof(bar);")
        assert toks[0].kind is TokenKind.KEYWORD
        assert toks[1].kind is TokenKind.IDENTIFIER
        assert toks[3].kind is TokenKind.KEYWORD  # sizeof
        assert toks[5].kind is TokenKind.IDENTIFIER

    def test_cpp_keywords(self):
        toks = tokenize("new delete nullptr")
        assert all(t.kind is TokenKind.KEYWORD for t in toks)

    def test_punctuation(self):
        assert texts("(){}[];") == ["(", ")", "{", "}", "[", "]", ";"]
        assert all(k is TokenKind.PUNCT for k in kinds("(){}[];"))

    def test_operators_longest_match(self):
        assert texts("a <<= b >> c != d") == ["a", "<<=", "b", ">>", "c", "!=", "d"]

    def test_arrow_and_scope(self):
        assert texts("p->x; A::b") == ["p", "->", "x", ";", "A", "::", "b"]

    def test_ellipsis(self):
        assert "..." in texts("f(int, ...)")


class TestNumbers:
    @pytest.mark.parametrize(
        "lit",
        ["0", "42", "0x1F", "0XDEAD", "1.5", "1.5f", "2e10", "1.5e-3", "10UL", "0x40", "3."],
    )
    def test_numeric_literals(self, lit):
        toks = tokenize(lit)
        assert len(toks) == 1
        assert toks[0].kind is TokenKind.NUMBER
        assert toks[0].text == lit

    def test_member_access_not_float(self):
        assert texts("a.b") == ["a", ".", "b"]


class TestStringsAndChars:
    def test_string(self):
        toks = tokenize('"hello world"')
        assert toks[0].kind is TokenKind.STRING

    def test_string_with_escapes(self):
        toks = tokenize(r'"a\"b\\c"')
        assert len(toks) == 1
        assert toks[0].text == r'"a\"b\\c"'

    def test_char_literal(self):
        toks = tokenize("'x'")
        assert toks[0].kind is TokenKind.CHAR

    def test_prefixed_string(self):
        toks = tokenize('L"wide"')
        assert toks[0].kind is TokenKind.STRING

    def test_unterminated_string_closed(self):
        toks = tokenize('"abc\nint x;')
        assert toks[0].kind is TokenKind.STRING
        assert toks[0].text == '"abc"'
        assert any(t.text == "int" for t in toks)

    def test_empty_string(self):
        assert tokenize('""')[0].text == '""'


class TestComments:
    def test_line_comment_dropped_by_default(self):
        assert texts("x; // note") == ["x", ";"]

    def test_line_comment_kept(self):
        toks = tokenize("x; // note", keep_comments=True)
        assert toks[-1].kind is TokenKind.COMMENT

    def test_block_comment_multiline(self):
        toks = tokenize("a /* one\ntwo */ b", keep_comments=True)
        assert [t.kind for t in toks] == [
            TokenKind.IDENTIFIER,
            TokenKind.COMMENT,
            TokenKind.IDENTIFIER,
        ]
        assert toks[2].line == 2

    def test_unterminated_block_comment(self):
        toks = tokenize("a /* runs off", keep_comments=True)
        assert toks[-1].kind is TokenKind.COMMENT

    def test_division_not_comment(self):
        assert texts("a / b") == ["a", "/", "b"]


class TestPreprocessor:
    def test_include_directive(self):
        toks = tokenize("#include <stdio.h>\nint x;")
        assert toks[0].kind is TokenKind.PREPROCESSOR
        assert toks[0].text == "#include <stdio.h>"

    def test_directive_with_continuation(self):
        src = "#define MAX(a, b) \\\n    ((a) > (b) ? (a) : (b))\nint y;"
        toks = tokenize(src)
        assert toks[0].kind is TokenKind.PREPROCESSOR
        assert "? (a) : (b)" in toks[0].text
        assert toks[1].text == "int"

    def test_indented_directive(self):
        toks = tokenize("  #ifdef FOO\nint x;\n  #endif\n")
        assert sum(1 for t in toks if t.kind is TokenKind.PREPROCESSOR) == 2

    def test_hash_mid_line_is_punct(self):
        toks = tokenize("a # b")
        assert toks[1].kind is TokenKind.PUNCT


class TestPositions:
    def test_line_numbers(self):
        toks = tokenize("a\nb\nc")
        assert [t.line for t in toks] == [1, 2, 3]

    def test_columns(self):
        toks = tokenize("ab cd")
        assert toks[0].col == 1
        assert toks[1].col == 4

    def test_newline_tokens_optional(self):
        toks = tokenize("a\nb", keep_newlines=True)
        assert toks[1].kind is TokenKind.NEWLINE


class TestStrictMode:
    def test_strict_raises_on_garbage(self):
        with pytest.raises(LexError):
            tokenize("int a = `bad`;", strict=True)

    def test_lenient_passes_through(self):
        toks = tokenize("int a = `bad`;")
        assert any(t.text == "`" for t in toks)


class TestHelpers:
    def test_code_tokens_drops_comments(self):
        toks = code_tokens("a; // hi\nb;")
        assert all(t.kind is not TokenKind.COMMENT for t in toks)

    def test_split_by_line(self):
        by_line = split_tokens_by_line(tokenize("a b\nc"))
        assert [t.text for t in by_line[1]] == ["a", "b"]
        assert [t.text for t in by_line[2]] == ["c"]

    def test_empty_source(self):
        assert tokenize("") == []

    def test_token_is_identifier_helper(self):
        tok = Token(TokenKind.IDENTIFIER, "foo")
        assert tok.is_identifier()
        assert tok.is_identifier("foo")
        assert not tok.is_identifier("bar")


class TestTokenValue:
    """``Token`` is an immutable value: equal, hashable and printable by
    its four fields."""

    def test_defaults(self):
        tok = Token(TokenKind.IDENTIFIER, "foo")
        assert (tok.kind, tok.text, tok.line, tok.col) == (TokenKind.IDENTIFIER, "foo", 0, 0)

    def test_equal_by_value(self):
        a = Token(TokenKind.NUMBER, "42", 3, 7)
        assert a == Token(TokenKind.NUMBER, "42", 3, 7)
        assert a != Token(TokenKind.NUMBER, "42", 3, 8)
        assert a != Token(TokenKind.IDENTIFIER, "42", 3, 7)

    def test_hashable(self):
        a = Token(TokenKind.PUNCT, ";", 1, 1)
        assert len({a, Token(TokenKind.PUNCT, ";", 1, 1), Token(TokenKind.PUNCT, ";", 2, 1)}) == 2
        assert {a: 1}[Token(TokenKind.PUNCT, ";", 1, 1)] == 1

    def test_immutable(self):
        tok = Token(TokenKind.IDENTIFIER, "foo", 1, 1)
        with pytest.raises(AttributeError):
            tok.text = "bar"
        with pytest.raises(AttributeError):
            tok.extra = 1

    def test_keyword_construction(self):
        tok = Token(kind=TokenKind.OPERATOR, text="->", col=4, line=2)
        assert tok == Token(TokenKind.OPERATOR, "->", 2, 4)

    def test_repr(self):
        tok = Token(TokenKind.IDENTIFIER, "foo", 2, 5)
        assert repr(tok) == "Token(kind=<TokenKind.IDENTIFIER: 'identifier'>, text='foo', line=2, col=5)"

    def test_pickle_round_trip(self):
        tok = Token(TokenKind.STRING, '"s"', 9, 3)
        assert pickle.loads(pickle.dumps(tok)) == tok

    def test_lexed_tokens_equal_constructed_ones(self):
        assert tokenize("x") == [Token(TokenKind.IDENTIFIER, "x", 1, 1)]
        assert type(tokenize("x")[0]) is Token


#: C-like fragments: literal prefixes, comment and string edges, every
#: whitespace and line-break class the lexer treats specially, non-ASCII.
_FRAGMENTS = [
    "int", "char", "x", "foo_1", "$v", "L", "u", "U", "u8", "0", "0x1F", "1.5e-3", "3.", ".5", "10UL",
    '"', "'", '"ab"', "'c'", 'L"w"', "u8\"s\"", "U'x'", "\\", "\\\n", "\\ \n",
    "/*", "*/", "//", "/", "*", "#", "#include <a.h>", "#define M(a) \\\n  (a)",
    "(", ")", "{", "}", "[", "]", ";", ",", "->", "->*", "::", "...", "..", "<<=", ">>", "&&", "!", "?", ":",
    " ", "  ", "\t", "\n", "\r", "\r\n", "\f", "\v", "\x1c", "\x85", "\u2028", "\xa0",
    "`", "@", "\u00e9", "\u65e5", "\U0001f600",
]

_C_LIKE = st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join)


def _lex(fn, source, flags):
    try:
        return fn(source, *flags)
    except LexError as exc:
        return ("LexError", str(exc))


class TestReferenceParity:
    """The one-match-per-token scanner returns exactly what the reference
    scanner loop (``tests/lang/reference.py``) returns, under every flag
    combination: tokens, positions, and ``LexError`` messages."""

    FLAGS = list(itertools.product((False, True), repeat=3))  # comments, newlines, strict

    @settings(max_examples=300, deadline=None)
    @given(_C_LIKE)
    def test_c_like_text(self, source):
        for flags in self.FLAGS:
            assert _lex(tokenize, source, flags) == _lex(reference_tokenize, source, flags)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=60))
    def test_arbitrary_text(self, source):
        for flags in self.FLAGS:
            assert _lex(tokenize, source, flags) == _lex(reference_tokenize, source, flags)

    @pytest.mark.parametrize(
        "source",
        [
            "",
            "   ",
            "x   \t\f\v\r",
            "a\n  \n",
            "#if X\n  # define Y \\\n 1\nint a; # b\n",
            "#define A /* spans\nlines */ x\n",
            '"open\nL"wide\\\nu8"q',
            "'c\n'\\",
            "/* never closed\n x",
            "a \f b \v c \r d \x1c e \u2028 f",
            "int \u00e9t\u00e9 = `x`;  ",
        ],
    )
    def test_edge_cases(self, source):
        for flags in self.FLAGS:
            assert _lex(tokenize, source, flags) == _lex(reference_tokenize, source, flags)
