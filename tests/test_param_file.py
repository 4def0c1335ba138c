"""Tests for parameter files (Appendix C)."""

import pytest

from repro.core.errors import ParseError
from repro.lang import Alias, parse_parameters


class TestBindings:
    def test_integers(self):
        params = parse_parameters("vinum=2\nhinum = 1\nneg=-3")
        assert params.bindings == {"vinum": 2, "hinum": 1, "neg": -3}

    def test_strings(self):
        params = parse_parameters('mularrayname="array"')
        assert params.bindings["mularrayname"] == "array"

    def test_bare_identifiers_become_aliases(self):
        params = parse_parameters("corecell=basiccell")
        assert params.bindings["corecell"] == Alias("basiccell")

    def test_mixed_appendix_c_style(self):
        text = """
        .example_file:/u/bamji/demo/mult.def
        .output_file:/u/bamji/demo/multout.cif
        vinum=2
        corecell=cell
        topregisters = "topregs"
        xsize=asize
        asize=16
        """
        params = parse_parameters(text)
        assert params.directives["example_file"] == "/u/bamji/demo/mult.def"
        assert params.directives["output_file"] == "/u/bamji/demo/multout.cif"
        assert params.bindings["asize"] == 16
        assert params.bindings["xsize"] == Alias("asize")
        assert params.bindings["topregisters"] == "topregs"

    def test_comments_and_blank_lines(self):
        params = parse_parameters("# header\n\n; lisp comment\nn=1\n")
        assert params.bindings == {"n": 1}

    def test_trailing_comment_on_value(self):
        params = parse_parameters("n=4  # four\n")
        assert params.bindings["n"] == 4

    def test_bad_line_raises(self):
        with pytest.raises(ParseError):
            parse_parameters("this is not a binding")

    def test_bad_value_raises(self):
        with pytest.raises(ParseError):
            parse_parameters("x=1.5")

    @pytest.mark.parametrize("value", ["--5", "²", "-²", "1²"])
    def test_digit_like_value_is_a_parse_error(self, value):
        """``str.isdigit`` admits these but ``int`` does not."""
        with pytest.raises(ParseError, match=r"line 2: bad parameter value"):
            parse_parameters(f"n=1\nx = {value}\n")

    @pytest.mark.parametrize("value", ["--5", "²"])
    def test_digit_like_indexed_value_is_a_parse_error(self, value):
        with pytest.raises(
            ParseError, match=r"line 1: indexed bindings take integer values"
        ):
            parse_parameters(f"x.1 = {value}\n")

    def test_integer_spellings_keep_their_bindings(self):
        """Every spelling ``int`` accepts after the digit test still parses
        to the same integer, non-ASCII decimal digits included."""
        params = parse_parameters("a=007\nb=-0\nc=\u0663\nd.1=-12\ne.2.3=\u0663")
        assert params.bindings == {
            "a": 7, "b": 0, "c": 3, ("d", (1,)): -12, ("e", (2, 3)): 3,
        }


class TestAliasChaining:
    def test_alias_chain_through_interpreter(self):
        """xsize=asize, asize=16 resolves through the global environment."""
        from repro.lang import Interpreter

        interp = Interpreter()
        params = parse_parameters("xsize=asize\nasize=16")
        interp.set_parameters(params.bindings)
        assert interp.run("xsize") == 16
