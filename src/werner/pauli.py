"""Pauli strings on p tensor factors: packed bit masks and dense matrices.

A Pauli string is a length-p tuple of base-4 digits, one digit per factor:

    0 -> identity, 1 -> sigma_x, 2 -> sigma_y, 3 -> sigma_z

Digit 0 of the tuple is the leftmost (most significant) Kronecker factor;
that convention is fixed once here and every dense realization follows it.

The product sigma_a . sigma_b of two single-factor Paulis is i^k
sigma_(a ^ b), with the quarter-turn count k tabulated in _PHASE; the
partition validator reads it to find products with an imaginary phase.

The symplectic encoding maps each digit to an (x, z) bit pair,

    0 <-> (0, 0), 1 <-> (1, 0), 2 <-> (1, 1), 3 <-> (0, 1),

and two strings commute iff the symplectic form x_a.z_b + x_b.z_a
vanishes mod 2. Packed into two p-bit masks, with digit 0 as the most
significant bit, a string is (-i)^(y count) Z^z X^x (since Y = -i Z X), so
its matrix is a signed permutation: row r holds one entry, at column r ^ x,
with value (-i)^(y count) (-1)^|r & z|. pauli_matrices realizes a whole
stack of strings that way, with Gaussian-integer entries and no Kronecker
products.
"""
from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "DIGIT_LETTERS",
    "all_strings",
    "bit_parity",
    "check_digits",
    "format_label",
    "packed",
    "pauli_matrices",
]

Digits = Tuple[int, ...]

DIGIT_LETTERS = "IXYZ"

# Quarter-turn phase of sigma_a . sigma_b (row a, column b), e.g. X.Y = i Z.
_PHASE = (
    (0, 0, 0, 0),
    (0, 0, 1, 3),
    (0, 3, 0, 1),
    (0, 1, 3, 0),
)

_XZ_BITS = np.array(((0, 0), (1, 0), (1, 1), (0, 1)))  # digit -> (x, z)
_XZ_DIGIT = ((0, 3), (1, 2))  # [x][z] -> digit
_DIGITS = frozenset(range(4))
_MINUS_I_POWERS = np.array([1, -1j, -1, 1j])


def check_digits(digits: Sequence[int]) -> Digits:
    """Normalize to a tuple and validate every digit is in {0, 1, 2, 3}."""
    out = tuple(map(int, digits))
    if not out:
        raise ValueError("a Pauli string needs at least one factor")
    if not _DIGITS.issuperset(out):
        raise ValueError(f"digits must be in 0..3, got {out!r}")
    return out


def bit_parity(v) -> np.ndarray:
    """Parity of the set bits of each entry of a nonnegative integer array."""
    v = np.asarray(v)
    for shift in (32, 16, 8, 4, 2, 1):
        v = v ^ (v >> shift)
    return v & 1


def packed(strings: Iterable[Sequence[int]]):
    """Digits (m, p) and the x and z masks (m,) of m equal-length strings.

    Bit p - 1 - k of a mask belongs to digit k. Strings are checked in
    order: a bad digit raises ValueError, and a length other than the first
    string's raises DimensionMismatch.
    """
    rows: list = []
    for s in strings:
        s = check_digits(s)
        if rows and len(s) != len(rows[0]):
            raise DimensionMismatch(f"strings act on {len(rows[0])} and {len(s)} factors")
        rows.append(s)
    digits = np.array(rows).reshape(len(rows), -1)
    weights = 1 << np.arange(digits.shape[1])[::-1]
    x, z = np.moveaxis(_XZ_BITS[digits], -1, 0) @ weights
    return digits, x, z


def pauli_matrices(strings: Iterable[Sequence[int]], dtype=complex) -> np.ndarray:
    """Dense (m, 2^p, 2^p) stack of signed permutations, digit 0 as the
    leftmost Kronecker factor; its entries are exact in complex64 too."""
    digits, x, z = packed(strings)
    m, p = digits.shape
    r = np.arange(1 << p)
    turns = np.count_nonzero(digits == 2, axis=1) % 4
    values = _MINUS_I_POWERS[turns, None] * (1 - 2 * bit_parity(r & z[:, None]))
    out = np.zeros((m, 1 << p, 1 << p), dtype=dtype)
    out[np.arange(m)[:, None], r, r ^ x[:, None]] = values
    return out


def format_label(digits: Sequence[int]) -> str:
    return "".join(DIGIT_LETTERS[d] for d in check_digits(digits))


def all_strings(p: int) -> Iterator[Digits]:
    """All 4^p index strings in ascending base-4 order."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    yield from product(range(4), repeat=p)
