"""Two's-complement bit-manipulation helpers.

All hardware values in the reproduction are carried around as Python ints in
*unsigned* representation (i.e. ``0 <= v < 2**width``).  These helpers convert
between signed/unsigned views, slice bit ranges, and concatenate fields, which
is the arithmetic substrate for the CoreDSL interpreter, the RTL simulator,
and the constant folder.
"""

from __future__ import annotations


def mask(width: int) -> int:
    """Return a bit mask with the ``width`` least-significant bits set."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def truncate(value: int, width: int) -> int:
    """Truncate ``value`` to ``width`` bits (unsigned result)."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return value & ((1 << width) - 1)


def to_signed(value: int, width: int) -> int:
    """Interpret the low ``width`` bits of ``value`` as a two's-complement
    signed number and return the Python int."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    value &= (1 << width) - 1
    if value >= 1 << (width - 1):
        value -= 1 << width
    return value


def to_unsigned(value: int, width: int) -> int:
    """Return the unsigned (bit-pattern) representation of ``value`` in
    ``width`` bits.  Accepts negative Python ints."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return value & ((1 << width) - 1)


def sign_extend(value: int, from_width: int, to_width: int) -> int:
    """Sign-extend the low ``from_width`` bits of ``value`` to ``to_width``
    bits; returns the unsigned representation."""
    if to_width < from_width:
        raise ValueError(
            f"cannot sign-extend from {from_width} to narrower {to_width}"
        )
    return to_unsigned(to_signed(value, from_width), to_width)


def bit_length_unsigned(value: int) -> int:
    """Minimal width of an unsigned type able to hold ``value`` (>= 1)."""
    if value < 0:
        raise ValueError("unsigned literal cannot be negative")
    return max(1, value.bit_length())


def bit_length_signed(value: int) -> int:
    """Minimal width of a signed type able to hold ``value`` (>= 1)."""
    if value >= 0:
        return value.bit_length() + 1
    return (-value - 1).bit_length() + 1


def extract_bits(value: int, hi: int, lo: int) -> int:
    """Return bits ``[hi:lo]`` of ``value`` (inclusive, hi >= lo)."""
    if hi < lo:
        raise ValueError(f"invalid bit range [{hi}:{lo}]")
    return (value >> lo) & mask(hi - lo + 1)


def replicate_bits(value: int, width: int, times: int) -> int:
    """Concatenate ``times`` copies of the ``width``-bit ``value``."""
    value = truncate(value, width)
    out = 0
    for _ in range(times):
        out = (out << width) | value
    return out


def concat_bits(*pairs: tuple) -> int:
    """Concatenate ``(value, width)`` pairs, first pair most significant."""
    out = 0
    for value, width in pairs:
        out = (out << width) | truncate(value, width)
    return out
