"""Tests for the tokenizer and parser (Appendix A grammar)."""

import pytest
from oracles.lang import tokenize_reference

from repro.core.errors import ParseError
from repro.lang import Form, IndexedVar, Symbol, parse_program, parse_statement, tokenize


class TestTokenizer:
    def test_basic_tokens(self):
        kinds = [t.kind for t in tokenize('(foo 12 -3 "bar")')]
        assert kinds == ["lparen", "symbol", "int", "int", "string", "rparen"]

    def test_dot_is_a_token(self):
        tokens = tokenize("l.i")
        assert [t.kind for t in tokens] == ["symbol", "dot", "symbol"]

    def test_comments_stripped(self):
        tokens = tokenize("(a) ; comment\n(b)")
        assert len(tokens) == 6

    def test_line_numbers(self):
        tokens = tokenize("(a\n b)")
        assert tokens[2].line == 2

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize('(print "oops)')

    def test_negative_numbers_vs_minus_symbol(self):
        tokens = tokenize("(- 5 -3)")
        assert [t.kind for t in tokens] == ["lparen", "symbol", "int", "int", "rparen"]
        assert tokens[3].text == "-3"

    def test_empty_input(self):
        assert tokenize("") == []

    def test_underscore_symbols(self):
        assert tokenize("mk_instance")[0].text == "mk_instance"


def _tokens_or_error(tokenizer, text):
    try:
        return tokenizer(text)
    except ParseError as error:
        return ("ParseError", str(error))


class TestTokenizerOracle:
    """The one-pattern tokenizer gives the character-at-a-time oracle's
    tokens (kinds, texts, lines, columns) and its errors."""

    @pytest.mark.parametrize("name", ["DESIGN_FILE", "DESIGN_FILE_RETIMED", "PLA_DESIGN_FILE"])
    def test_shipped_design_files(self, name):
        from repro.multiplier import designfile as multiplier
        from repro.pla import designfile as pla

        text = getattr(multiplier, name, None) or getattr(pla, name)
        assert tokenize(text) == tokenize_reference(text)

    def test_differential_programs(self):
        from test_lang_differential import SEEDS, case

        for seed in SEEDS:
            text, _ = case(seed)
            assert tokenize(text) == tokenize_reference(text), seed

    @pytest.mark.parametrize("text", [
        "-", "(- 1)", "(-)", "- -", "-3", "(+ -3 --4 -0)", "a-1 -a 3-",
        ".", "l.i", "a.1.2", "x.(- i 1).j", "1.2", ". . .", "a..b",
        '"one\ntwo"', '(print "a\n\n b")\n x', '"a";b\n c', '""', '"(; .)"',
        '"unterminated', '(a "b', 'x\n\n"y', '"', "; only a comment", "a ;c\n;d\n b",
        "\t(\r\n a\f b)", "\u00b2 \u0661 \u00e9t\u00e9", "", " \n ",
    ])
    def test_edge_cases(self, text):
        assert _tokens_or_error(tokenize, text) == _tokens_or_error(tokenize_reference, text)


class TestParser:
    def test_atoms(self):
        assert parse_statement("42") == 42
        assert parse_statement('"hello"') == "hello"
        assert parse_statement("foo") == Symbol("foo")

    def test_nested_forms(self):
        form = parse_statement("(a (b c) 3)")
        assert isinstance(form, Form)
        assert form[0] == Symbol("a")
        assert isinstance(form[1], Form)
        assert form[2] == 3

    def test_indexed_variable_literal(self):
        var = parse_statement("l.1")
        assert isinstance(var, IndexedVar)
        assert var.base == "l"
        assert var.indices == [1]

    def test_indexed_variable_symbol(self):
        var = parse_statement("c.i")
        assert var.indices == [Symbol("i")]

    def test_indexed_variable_expression(self):
        """The Appendix B idiom: l.(- i 1)."""
        var = parse_statement("l.(- i 1)")
        assert isinstance(var.indices[0], Form)
        assert var.indices[0][0] == Symbol("-")

    def test_double_indexed(self):
        var = parse_statement("a.i.j")
        assert var.base == "a"
        assert len(var.indices) == 2

    def test_triple_index_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("a.1.2.3")

    def test_integer_cannot_be_indexed(self):
        with pytest.raises(ParseError):
            parse_statement("1.2")

    def test_program_sequence(self):
        program = parse_program("(a) (b) 7")
        assert len(program) == 3

    def test_unterminated_form(self):
        with pytest.raises(ParseError):
            parse_program("(a (b)")

    def test_stray_rparen(self):
        with pytest.raises(ParseError):
            parse_program(")")

    def test_trailing_input_rejected_by_parse_statement(self):
        with pytest.raises(ParseError):
            parse_statement("(a) (b)")

    def test_appendix_b_fragment_parses(self):
        """A representative slice of the real design file."""
        text = """
        (macro mline (xsize ysize currentline)
          (locals ref)
          (assign l.1 (mcell xsize ysize 1 currentline))
          (setq ref (subcell l.1 c))
          (do (i 2 (+ 1 i) (> i xsize))
            (assign l.i (mcell xsize ysize i currentline))
            (connect (subcell l.(- i 1) c) (subcell l.i c) hinum)))
        """
        (form,) = parse_program(text)
        assert form[0] == Symbol("macro")
        assert form[1] == Symbol("mline")

    def test_empty_form(self):
        form = parse_statement("()")
        assert isinstance(form, Form) and len(form) == 0
