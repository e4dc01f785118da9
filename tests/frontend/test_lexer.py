"""Tests for the CoreDSL tokenizer."""

import pytest

from repro.frontend.lexer import tokenize
from repro.utils.diagnostics import CoreDSLError


def kinds(text):
    return [t.kind for t in tokenize(text)][:-1]


def texts(text):
    return [t.text for t in tokenize(text)][:-1]


class TestBasics:
    def test_empty_input_yields_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind == "eof"

    def test_identifiers_and_keywords(self):
        toks = tokenize("InstructionSet my_isa extends RV32I")
        assert [t.kind for t in toks[:-1]] == ["keyword", "ident", "keyword", "ident"]

    def test_punctuation(self):
        assert texts("{ } ( ) [ ] ; ,") == ["{", "}", "(", ")", "[", "]", ";", ","]

    def test_multichar_operators_maximal_munch(self):
        assert texts("a <<= b") == ["a", "<<=", "b"]
        assert texts("a << b") == ["a", "<<", "b"]
        assert texts("x::y") == ["x", "::", "y"]
        assert texts("i += 8") == ["i", "+=", "8"]
        assert texts("--COUNT") == ["--", "COUNT"]

    def test_line_comment(self):
        assert texts("a // comment\n b") == ["a", "b"]

    def test_block_comment(self):
        assert texts("a /* multi\nline */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(CoreDSLError):
            tokenize("/* never ends")

    def test_string_literal(self):
        toks = tokenize('import "RV32I.core_desc"')
        assert toks[1].kind == "string"
        assert toks[1].text == "RV32I.core_desc"

    def test_locations(self):
        toks = tokenize("a\n  b")
        assert toks[0].loc.line == 1 and toks[0].loc.column == 1
        assert toks[1].loc.line == 2 and toks[1].loc.column == 3


class TestNumbers:
    def test_decimal(self):
        tok = tokenize("42")[0]
        assert tok.kind == "number" and tok.value == 42

    def test_hex(self):
        assert tokenize("0xcafe")[0].value == 0xCAFE

    def test_binary(self):
        assert tokenize("0b1011")[0].value == 0b1011

    def test_underscores(self):
        assert tokenize("1_000_000")[0].value == 1000000

    def test_leading_zero_is_octal(self):
        assert tokenize("010")[0].value == 8
        assert tokenize("0001011")[0].value == 0o1011
        assert tokenize("0")[0].value == 0
        assert tokenize("00")[0].value == 0
        toks = tokenize("x = 010;")
        assert [t.text for t in toks[:-1]] == ["x", "=", "010", ";"]
        assert toks[2].value == 8

    @pytest.mark.parametrize("text", ["08", "09", "0_8", "x = 0019;"])
    def test_non_octal_digit_rejected_with_location(self, text):
        with pytest.raises(CoreDSLError) as excinfo:
            tokenize(text, filename="lit.core_desc")
        assert "invalid digits" in str(excinfo.value)
        assert excinfo.value.loc.filename == "lit.core_desc"
        assert excinfo.value.loc.column == text.index("0") + 1

    def test_verilog_decimal(self):
        tok = tokenize("6'd42")[0]
        assert tok.kind == "verilog_number"
        assert tok.value == 42 and tok.width == 6 and not tok.signed

    def test_verilog_binary(self):
        tok = tokenize("3'b111")[0]
        assert tok.value == 7 and tok.width == 3

    def test_verilog_hex(self):
        tok = tokenize("12'hfff")[0]
        assert tok.value == 0xFFF and tok.width == 12

    def test_verilog_signed(self):
        tok = tokenize("8'shff")[0]
        assert tok.signed and tok.width == 8 and tok.value == 0xFF

    def test_verilog_overflow_rejected(self):
        with pytest.raises(CoreDSLError):
            tokenize("3'd9")

    def test_verilog_bad_digits_rejected(self):
        with pytest.raises(CoreDSLError):
            tokenize("4'b3")


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(CoreDSLError):
            tokenize("a $ b")

    def test_unterminated_string(self):
        with pytest.raises(CoreDSLError):
            tokenize('"no end')
