"""Unit and property tests for two's-complement helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils import bits


class TestMaskTruncate:
    def test_mask_zero(self):
        assert bits.mask(0) == 0

    def test_mask_values(self):
        assert bits.mask(1) == 1
        assert bits.mask(8) == 0xFF
        assert bits.mask(32) == 0xFFFFFFFF

    def test_mask_negative_raises(self):
        with pytest.raises(ValueError):
            bits.mask(-1)

    def test_truncate(self):
        assert bits.truncate(0x1FF, 8) == 0xFF
        assert bits.truncate(-1, 4) == 0xF

    @pytest.mark.parametrize("helper", [bits.truncate, bits.to_unsigned])
    def test_negative_width_raises(self, helper):
        with pytest.raises(ValueError, match="width must be non-negative"):
            helper(5, -1)

    def test_to_signed_negative_width_raises(self):
        with pytest.raises(ValueError, match="width must be positive"):
            bits.to_signed(5, -3)


class TestSignedness:
    def test_to_signed_positive(self):
        assert bits.to_signed(5, 8) == 5

    def test_to_signed_negative(self):
        assert bits.to_signed(0xFF, 8) == -1
        assert bits.to_signed(0x80, 8) == -128

    def test_to_unsigned(self):
        assert bits.to_unsigned(-1, 8) == 0xFF
        assert bits.to_unsigned(-128, 8) == 0x80

    def test_to_signed_width_zero_raises(self):
        with pytest.raises(ValueError):
            bits.to_signed(0, 0)

    def test_sign_extend(self):
        assert bits.sign_extend(0x8, 4, 8) == 0xF8
        assert bits.sign_extend(0x7, 4, 8) == 0x07

    def test_sign_extend_narrowing_raises(self):
        with pytest.raises(ValueError):
            bits.sign_extend(1, 8, 4)

    @given(st.integers(min_value=1, max_value=64), st.integers())
    def test_roundtrip_signed_unsigned(self, width, value):
        raw = bits.to_unsigned(value, width)
        assert bits.to_unsigned(bits.to_signed(raw, width), width) == raw

    @given(st.integers(min_value=1, max_value=63))
    def test_to_signed_range(self, width):
        for raw in (0, 1, (1 << width) - 1, 1 << (width - 1)):
            signed = bits.to_signed(raw, width)
            assert -(1 << (width - 1)) <= signed < (1 << (width - 1))


class TestBitLengths:
    def test_unsigned_lengths(self):
        assert bits.bit_length_unsigned(0) == 1
        assert bits.bit_length_unsigned(1) == 1
        assert bits.bit_length_unsigned(42) == 6
        assert bits.bit_length_unsigned(0xCAFE) == 16

    def test_unsigned_negative_raises(self):
        with pytest.raises(ValueError):
            bits.bit_length_unsigned(-1)

    def test_signed_lengths(self):
        assert bits.bit_length_signed(0) == 1
        assert bits.bit_length_signed(-1) == 1
        assert bits.bit_length_signed(127) == 8
        assert bits.bit_length_signed(-128) == 8
        assert bits.bit_length_signed(128) == 9

    @given(st.integers(min_value=-(2 ** 40), max_value=2 ** 40))
    def test_signed_length_is_minimal(self, value):
        width = bits.bit_length_signed(value)
        assert -(1 << (width - 1)) <= value < (1 << (width - 1))
        if width > 1:
            smaller = width - 1
            fits = -(1 << (smaller - 1)) <= value < (1 << (smaller - 1))
            assert not fits


class TestExtractConcat:
    def test_extract(self):
        assert bits.extract_bits(0b101100, 3, 2) == 0b11
        assert bits.extract_bits(0xDEADBEEF, 31, 16) == 0xDEAD

    def test_extract_single(self):
        assert bits.extract_bits(0b100, 2, 2) == 1

    def test_extract_invalid_range(self):
        with pytest.raises(ValueError):
            bits.extract_bits(0, 1, 2)

    def test_replicate(self):
        assert bits.replicate_bits(1, 1, 4) == 0b1111
        assert bits.replicate_bits(0b10, 2, 3) == 0b101010

    def test_concat(self):
        assert bits.concat_bits((0b11, 2), (0b00, 2)) == 0b1100
        assert bits.concat_bits((1, 1), (0, 1), (1, 1)) == 0b101

    @given(
        st.integers(min_value=0, max_value=2 ** 16 - 1),
        st.integers(min_value=0, max_value=2 ** 16 - 1),
    )
    def test_concat_then_extract(self, hi, lo):
        word = bits.concat_bits((hi, 16), (lo, 16))
        assert bits.extract_bits(word, 31, 16) == hi
        assert bits.extract_bits(word, 15, 0) == lo
