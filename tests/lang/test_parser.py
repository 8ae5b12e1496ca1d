"""Tests for the lightweight C parser."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.mutate import function_spans
from repro.errors import ParseError
from repro.lang import (
    BlockStmt,
    DoWhileStmt,
    ForStmt,
    GotoStmt,
    IfStmt,
    LabelStmt,
    ReturnStmt,
    SwitchStmt,
    WhileStmt,
    find_if_statements,
    parse_function_body,
    parse_translation_unit,
    walk,
)
from repro.lang.parser import MAX_NESTING
from repro.synthesis.locator import locate_ifs

from .reference import reference_parse_function_body, reference_parse_translation_unit

SAMPLE = """#include <stdio.h>

static int helper(int x) {
    if (x > 0 && x < 100) {
        return x * 2;
    } else if (x == 0)
        return 0;
    return -1;
}

int main(int argc, char **argv)
{
    int total = 0;
    char *buf = malloc(64);
    if (!buf)
        return 1;
    for (int i = 0; i < argc; i++) {
        total += helper(i);
        while (total > 1000) {
            total /= 2;
        }
    }
    switch (total) {
    case 0:
        break;
    default:
        printf("%d", total);
    }
    do {
        total--;
    } while (total > 10);
out:
    free(buf);
    return total;
}
"""


@pytest.fixture(scope="module")
def unit():
    return parse_translation_unit(SAMPLE, "sample.c")


class TestFunctions:
    def test_two_functions_found(self, unit):
        assert [f.name for f in unit.functions] == ["helper", "main"]

    def test_spans(self, unit):
        helper = unit.functions[0]
        assert helper.start_line == 3
        assert helper.end_line == 9

    def test_params_text(self, unit):
        assert unit.functions[1].params_text == "(int argc, char **argv)"

    def test_return_type(self, unit):
        assert unit.functions[0].return_type_text == "static int"

    def test_function_at(self, unit):
        assert unit.function_at(5).name == "helper"
        assert unit.function_at(20).name == "main"
        assert unit.function_at(1) is None


class TestIfStatements:
    def test_all_ifs_found(self, unit):
        ifs = find_if_statements(unit)
        assert len(ifs) == 3

    def test_conditions_extracted(self, unit):
        conds = [i.cond.text for i in find_if_statements(unit)]
        assert "x > 0 && x < 100" in conds
        assert "x == 0" in conds
        assert "!buf" in conds

    def test_else_if_nested(self, unit):
        outer = find_if_statements(unit)[0]
        assert isinstance(outer.orelse, IfStmt)

    def test_braced_flag(self, unit):
        ifs = find_if_statements(unit)
        assert ifs[0].then_braced
        assert not ifs[2].then_braced

    def test_condition_coordinates_align(self, unit):
        lines = SAMPLE.splitlines()
        for stmt in find_if_statements(unit):
            assert lines[stmt.cond_open_line - 1][stmt.cond_open_col - 1] == "("
            assert lines[stmt.cond_close_line - 1][stmt.cond_close_col - 1] == ")"


class TestOtherStatements:
    def test_loops_found(self, unit):
        nodes = [n for f in unit.functions for n in walk(f)]
        assert sum(1 for n in nodes if isinstance(n, ForStmt)) == 1
        assert sum(1 for n in nodes if isinstance(n, WhileStmt)) == 1
        assert sum(1 for n in nodes if isinstance(n, DoWhileStmt)) == 1

    def test_switch_found(self, unit):
        nodes = [n for f in unit.functions for n in walk(f)]
        switches = [n for n in nodes if isinstance(n, SwitchStmt)]
        assert len(switches) == 1
        assert switches[0].cond.text == "total"

    def test_label_found(self, unit):
        nodes = [n for f in unit.functions for n in walk(f)]
        labels = [n for n in nodes if isinstance(n, LabelStmt)]
        assert any(l.name == "out" for l in labels)

    def test_returns_found(self, unit):
        nodes = [n for f in unit.functions for n in walk(f)]
        returns = [n for n in nodes if isinstance(n, ReturnStmt)]
        assert len(returns) >= 4


class TestGoto:
    def test_goto_parsed(self):
        unit = parse_translation_unit("void f(void) {\n    if (1)\n        goto out;\nout:\n    return;\n}\n")
        gotos = [n for n in walk(unit.functions[0]) if isinstance(n, GotoStmt)]
        assert len(gotos) == 1
        assert gotos[0].label == "out"


class TestParseFunctionBody:
    def test_block_parse(self):
        block = parse_function_body("{ int x = 1; if (x) x = 2; }")
        assert isinstance(block, BlockStmt)
        assert len(block.stmts) == 2

    def test_raises_without_brace(self):
        from repro.errors import ParseError

        with pytest.raises(ParseError):
            parse_function_body("int x = 1;")


class TestRobustness:
    def test_struct_definitions_skipped(self):
        src = "struct point { int x; int y; };\n\nint get_x(struct point *p) {\n    return p->x;\n}\n"
        unit = parse_translation_unit(src)
        assert [f.name for f in unit.functions] == ["get_x"]

    def test_prototypes_not_definitions(self):
        src = "int foo(int x);\nint foo(int x) {\n    return x;\n}\n"
        unit = parse_translation_unit(src)
        assert len(unit.functions) == 1

    def test_global_declarations_skipped(self):
        src = "static int counter = 0;\nchar *names[] = { \"a\", \"b\" };\nvoid f(void) {\n    counter++;\n}\n"
        unit = parse_translation_unit(src)
        assert [f.name for f in unit.functions] == ["f"]

    def test_empty_file(self):
        unit = parse_translation_unit("")
        assert unit.functions == []

    def test_preprocessor_heavy_file(self):
        src = "#ifdef A\nint f(void) {\n#else\nint f(int x) {\n#endif\n    return 0;\n}\n"
        # Must not raise; structure is best-effort.
        parse_translation_unit(src)

    def test_unbalanced_braces_no_crash(self):
        parse_translation_unit("int f(void) {\n    if (x) {\n    return 0;\n")

    def test_multiline_condition(self):
        src = "int f(int a, int b) {\n    if (a > 0 &&\n        b < 10) {\n        return 1;\n    }\n    return 0;\n}\n"
        unit = parse_translation_unit(src)
        stmt = find_if_statements(unit)[0]
        assert "a > 0" in stmt.cond.text
        assert "b < 10" in stmt.cond.text
        assert stmt.cond_open_line == 2
        assert stmt.cond_close_line == 3

    def test_span_contains(self):
        unit = parse_translation_unit(SAMPLE)
        fn = unit.functions[0]
        assert fn.span_contains(fn.start_line)
        assert fn.span_contains(fn.end_line)
        assert not fn.span_contains(fn.end_line + 1)


#: Line-break characters ``str.splitlines`` honours but the lexer does not:
#: to the lexer they are ordinary in-line characters.
_NON_NEWLINE_BREAKS = ["\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineModel:
    """Parser lines are the lexer's lines: split at ``\\n`` only."""

    @pytest.mark.parametrize("brk", _NON_NEWLINE_BREAKS)
    def test_condition_text_after_a_non_newline_break(self, brk):
        src = f"int f(int a)\n{{\n/* page {brk} break */\n  if (a > 1) {{ return a; }}\n  return 0;\n}}\n"
        (stmt,) = find_if_statements(parse_translation_unit(src))
        assert stmt.cond.text == "a > 1"
        assert stmt.start_line == 4

    def test_form_feed_page_break(self):
        src = "int f(int a)\n{\n\x0c\n  if (a > 1) { return a; }\n  return 0;\n}\n"
        unit = parse_translation_unit(src)
        assert find_if_statements(unit)[0].cond.text == "a > 1"
        assert unit.end_line == 6

    def test_multiline_text_keeps_in_line_breaks(self):
        src = "int f(int a, int b) {\n  if (a >\x0c 1 &&\n      b) return 1;\n  return 0;\n}\n"
        (stmt,) = find_if_statements(parse_translation_unit(src))
        assert stmt.cond.text == "a >\x0c 1 &&\n      b"

    def test_crlf_break_reads_as_one_newline(self):
        src = "int f(int a)\r\n{\r\n  if (a &&\r\n      a > 1) { return a; }\r\n  return 0;\r\n}\r\n"
        unit = parse_translation_unit(src)
        (stmt,) = find_if_statements(unit)
        assert stmt.cond.text == "a &&\n      a > 1"
        assert unit.end_line == 6

    @pytest.mark.parametrize("src", ["", "\n", "int x;", "int x;\n", "a\n\n", "a\n\nb\n", "a\nb", "\n\n\n"])
    def test_end_line_of_newline_only_sources(self, src):
        assert parse_translation_unit(src).end_line == (len(src.splitlines()) or 1)


def _nested_ifs(levels: int) -> str:
    return "int f(int a) {" + "if (a) {" * levels + "}" * levels + "}"


class TestNestingLimit:
    """Input nested past MAX_NESTING raises ParseError, never RecursionError."""

    @pytest.mark.parametrize(
        "body",
        [
            "if (a) {" * 10_000 + "}" * 10_000,
            "{" * 10_000 + "}" * 10_000,
            "if (a) x; else " * 10_000 + "x;",
            "while (a) " * 10_000 + ";",
            "l: " * 10_000 + ";",
            "if (a) {" * 10_000,
        ],
        ids=["if-blocks", "blocks", "else-if-chain", "while-chain", "label-chain", "unclosed"],
    )
    def test_deep_input_raises_parse_error(self, body):
        with pytest.raises(ParseError, match="nested deeper than"):
            parse_translation_unit("int f(int a) {" + body + "}")
        with pytest.raises(ParseError, match="nested deeper than"):
            parse_function_body("{" + body + "}")

    def test_limit_boundary(self):
        def blocks(k):
            return "void f(void) {" + "{" * k + "}" * k + "}"

        parse_translation_unit(blocks(MAX_NESTING))
        with pytest.raises(ParseError):
            parse_translation_unit(blocks(MAX_NESTING + 1))

    def test_deepest_accepted_input_fits_two_frames_per_level(self):
        # Brace-less 'if' chains and nested blocks both cost two frames per
        # level; the parser must stay inside that budget so the limit holds
        # under Python's default recursion limit.
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        sources = [
            "void f(void) {" + "if (a) " * (MAX_NESTING - 1) + ";}",
            "void f(void) {" + "{" * MAX_NESTING + "}" * MAX_NESTING + "}",
        ]
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 2 * MAX_NESTING + 16)
        try:
            for src in sources:
                parse_translation_unit(src)
        finally:
            sys.setrecursionlimit(old)

    def test_corpus_callers_treat_it_as_unparseable(self):
        src = _nested_ifs(5_000)
        assert function_spans(src) == []
        assert locate_ifs(src, {1}) == []

    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=200), st.integers(0, 10_000), st.sampled_from(["if (a) {", "{", "x: ", "do ", "else "]))
    def test_any_text_raises_only_parse_error(self, text, levels, opener):
        for src in (text, "int f(void) {" + opener * levels + text, "{" + text):
            for parse in (parse_translation_unit, parse_function_body):
                try:
                    parse(src)
                except ParseError:
                    pass


#: C-like statement fragments for parser parity (bounded length, so the
#: reference parser, which has no nesting limit, cannot recurse too deep).
_PARSER_FRAGMENTS = [
    "int", "char *", "x", "y", "f", "a", "(", ")", "{", "}", "[", "]", ";", ",", ":", "::", "=", "*", "->", "==",
    "if", "else", "while", "do", "for", "switch", "case 1", "default", "return", "goto", "break", "continue",
    "sizeof", "struct s", "0", '"s"', "'c'", '"open', "/* c */", "// c\n", "#define X 1\n", "\n", " ", "\x0c",
    "\r\n", "lbl:", "int f(int a) ",
]

_C_PROGRAM = st.lists(st.sampled_from(_PARSER_FRAGMENTS), max_size=60).map(" ".join)


def _parsed(parse, source):
    try:
        return parse(source)
    except ParseError as exc:
        return ("ParseError", str(exc))


class TestReferenceParity:
    """The index-walking parser builds the same AST as the reference
    cursor-method parser (``tests/lang/reference.py``)."""

    def test_every_file_text_of_the_tiny_world(self, experiment_world):
        texts = set()
        for repo in experiment_world.world.repos.values():
            for sha in repo.shas():
                texts.update(repo.checkout(sha).values())
        assert len(texts) > 400
        for text in sorted(texts):
            assert _parsed(parse_translation_unit, text) == _parsed(reference_parse_translation_unit, text)

    def test_sample(self):
        assert parse_translation_unit(SAMPLE, "s.c") == reference_parse_translation_unit(SAMPLE, "s.c")

    @settings(max_examples=300, deadline=None)
    @given(_C_PROGRAM)
    def test_c_like_text(self, source):
        assert _parsed(parse_translation_unit, source) == _parsed(reference_parse_translation_unit, source)
        body = "{" + source + "}"
        assert _parsed(parse_function_body, body) == _parsed(reference_parse_function_body, body)
