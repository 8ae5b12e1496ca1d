"""Token model and C/C++ vocabulary tables.

The tables here drive both the lexer and the syntactic feature counters of
Table I (arithmetic/relational/logical/bitwise/memory operators, loops,
jumps, etc.).
"""

from __future__ import annotations

import enum
from typing import NamedTuple

__all__ = [
    "TokenKind",
    "Token",
    "C_KEYWORDS",
    "CPP_KEYWORDS",
    "ALL_KEYWORDS",
    "TYPE_KEYWORDS",
    "LOOP_KEYWORDS",
    "JUMP_KEYWORDS",
    "ARITHMETIC_OPERATORS",
    "RELATIONAL_OPERATORS",
    "LOGICAL_OPERATORS",
    "BITWISE_OPERATORS",
    "ASSIGNMENT_OPERATORS",
    "MEMORY_FUNCTIONS",
    "OPERATORS",
    "PUNCTUATION",
]


class TokenKind(enum.Enum):
    """Lexical category of a token."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    CHAR = "char"
    OPERATOR = "operator"
    PUNCT = "punct"
    COMMENT = "comment"
    PREPROCESSOR = "preprocessor"
    NEWLINE = "newline"
    EOF = "eof"


class Token(NamedTuple):
    """A single lexical token.

    An immutable named tuple: a build makes hundreds of thousands of
    tokens, and a tuple is about half the construction cost of a frozen
    dataclass with the same fields, equality, hash and repr.

    Attributes:
        kind: lexical category.
        text: exact source text of the token.
        line: 1-based source line of the token's first character.
        col: 1-based source column of the token's first character.
    """

    kind: TokenKind
    text: str
    line: int = 0
    col: int = 0

    def is_identifier(self, name: str | None = None) -> bool:
        """True if the token is an identifier (optionally a specific one)."""
        return self.kind is TokenKind.IDENTIFIER and (name is None or self.text == name)


C_KEYWORDS: frozenset[str] = frozenset(
    """
    auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    _Bool _Complex _Imaginary _Alignas _Alignof _Atomic _Static_assert
    _Noreturn _Thread_local _Generic
    """.split()
)

CPP_KEYWORDS: frozenset[str] = frozenset(
    """
    alignas alignof and and_eq asm bitand bitor bool catch class compl
    constexpr const_cast decltype delete dynamic_cast explicit export false
    friend mutable namespace new noexcept not not_eq nullptr operator or
    or_eq private protected public reinterpret_cast static_assert
    static_cast template this throw true try typeid typename using virtual
    wchar_t xor xor_eq final override
    """.split()
)

ALL_KEYWORDS: frozenset[str] = C_KEYWORDS | CPP_KEYWORDS

#: Keywords that begin a type in declarations (used by the variable counter).
TYPE_KEYWORDS: frozenset[str] = frozenset(
    """
    void char short int long float double signed unsigned bool _Bool
    struct union enum const volatile static extern register auto size_t
    ssize_t uint8_t uint16_t uint32_t uint64_t int8_t int16_t int32_t
    int64_t
    """.split()
)

#: Keywords that open a loop (features 15-18).
LOOP_KEYWORDS: frozenset[str] = frozenset({"for", "while", "do"})

#: Jump statement keywords (Table V, type 9).
JUMP_KEYWORDS: frozenset[str] = frozenset({"goto", "break", "continue", "return"})

#: Binary arithmetic operators (features 23-26).  '*' and '-' are counted
#: even when unary; the paper's parser is a line-level approximation too.
ARITHMETIC_OPERATORS: frozenset[str] = frozenset({"+", "-", "*", "/", "%", "++", "--"})

#: Relational operators (features 27-30).
RELATIONAL_OPERATORS: frozenset[str] = frozenset({"==", "!=", "<", ">", "<=", ">="})

#: Logical operators (features 31-34).
LOGICAL_OPERATORS: frozenset[str] = frozenset({"&&", "||", "!"})

#: Bitwise operators (features 35-38).
BITWISE_OPERATORS: frozenset[str] = frozenset({"&", "|", "^", "~", "<<", ">>"})

#: Assignment operators (used to find variable writes).
ASSIGNMENT_OPERATORS: frozenset[str] = frozenset(
    {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}
)

#: Memory-management functions/operators (features 39-42).
MEMORY_FUNCTIONS: frozenset[str] = frozenset(
    """
    malloc calloc realloc free alloca new delete memcpy memmove memset
    memcmp strdup strndup kmalloc kzalloc kcalloc krealloc kfree vmalloc
    vfree mmap munmap brk sbrk
    """.split()
)

#: All multi/single character operators, longest first for maximal munch.
OPERATORS: tuple[str, ...] = tuple(
    sorted(
        {
            "<<=", ">>=", "...", "->*",
            "==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=",
            "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>", "->", "::", ".*",
            "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~",
            "?", ":", ".", ",",
        },
        key=len,
        reverse=True,
    )
)

#: Structural punctuation.
PUNCTUATION: frozenset[str] = frozenset({"(", ")", "{", "}", "[", "]", ";"})
