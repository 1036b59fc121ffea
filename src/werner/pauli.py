"""Pauli strings on p tensor factors: (x, z) bit masks and dense matrices.

A Pauli string is a length-p tuple of base-4 digits, one digit per factor:

    0 -> identity, 1 -> sigma_x, 2 -> sigma_y, 3 -> sigma_z

Digit 0 of the tuple is the leftmost (most significant) Kronecker factor;
that convention is fixed once here and every dense realization follows it.

The symplectic encoding maps each digit to an (x, z) bit pair,

    0 <-> (0, 0), 1 <-> (1, 0), 2 <-> (1, 1), 3 <-> (0, 1),

and two strings commute iff the symplectic form x_a.z_b + x_b.z_a
vanishes mod 2. masks packs a string into two p-bit Python ints, with
digit 0 as the most significant bit; the helpers here other than
signed_permutations and pauli_matrices need no numpy. As masks a string is
(-i)^(y count) Z^z X^x (since Y = -i Z X), so its matrix is a signed
permutation: row r holds one entry, at column r ^ x, with value
(-i)^(y count) (-1)^|r & z|. signed_permutations realizes a whole stack of
(-i)^turns Z^z X^x that way, with entries 1, -1, i and -i and no Kronecker
products, and pauli_matrices realizes strings through it.
"""
from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, Iterable, Iterator, List, Sequence, Tuple

from .errors import DimensionMismatch

if TYPE_CHECKING:  # annotations only: signed_permutations imports numpy as it runs
    import numpy as np

__all__ = [
    "DIGIT_LETTERS",
    "all_strings",
    "bit_parity",
    "check_digits",
    "format_label",
    "masks",
    "pauli_matrices",
    "signed_permutations",
]

Digits = Tuple[int, ...]

DIGIT_LETTERS = "IXYZ"

_XZ_BITS = ((0, 0), (1, 0), (1, 1), (0, 1))  # digit -> (x, z)
_DIGITS = frozenset(range(4))


def check_digits(digits: Sequence[int]) -> Digits:
    """Normalize to a tuple and validate every digit is in {0, 1, 2, 3}."""
    out = tuple(map(int, digits))
    if not out:
        raise ValueError("a Pauli string needs at least one factor")
    if not _DIGITS.issuperset(out):
        raise ValueError(f"digits must be in 0..3, got {out!r}")
    return out


def masks(strings: Iterable[Sequence[int]]) -> Tuple[int, List[int], List[int]]:
    """(p, x, z): the factor count and the x and z masks, as ints, of one
    or more equal-length strings.

    Bit p - 1 - k of a mask belongs to digit k. Strings are checked in
    order: a bad digit raises ValueError, and a length other than the first
    string's raises DimensionMismatch.
    """
    p, x, z = None, [], []
    for s in strings:
        s = check_digits(s)
        if p is None:
            p = len(s)
        elif len(s) != p:
            raise DimensionMismatch(f"strings act on {p} and {len(s)} factors")
        xs = zs = 0
        for d in s:
            xs, zs = xs << 1 | _XZ_BITS[d][0], zs << 1 | _XZ_BITS[d][1]
        x.append(xs)
        z.append(zs)
    if p is None:
        raise ValueError("no strings given")
    return p, x, z


def bit_parity(v: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each entry of a nonnegative int64 array."""
    for shift in (32, 16, 8, 4, 2, 1):
        v = v ^ (v >> shift)
    return v & 1


def signed_permutations(
    p: int, x: Sequence[int], z: Sequence[int], turns: Sequence[int], dtype=complex
) -> np.ndarray:
    """Dense (m, 2^p, 2^p) stack of the (-i)^turns Z^z X^x over the masks:
    row r holds (-i)^turns (-1)^|r & z| at column r ^ x. Its entries are
    exact in complex64 too."""
    import numpy as np
    x, z = np.array(x), np.array(z)
    r = np.arange(1 << p)
    values = np.array((1, -1j, -1, 1j))[turns, None] * (1 - 2 * bit_parity(r & z[:, None]))
    out = np.zeros((len(x), 1 << p, 1 << p), dtype=dtype)
    out[np.arange(len(x))[:, None], r, r ^ x[:, None]] = values
    return out


def pauli_matrices(strings: Iterable[Sequence[int]], dtype=complex) -> np.ndarray:
    """Dense (m, 2^p, 2^p) stack of the strings, digit 0 as the leftmost
    Kronecker factor, as signed_permutations with turns the y count."""
    p, x, z = masks(strings)
    return signed_permutations(p, x, z, [(a & b).bit_count() % 4 for a, b in zip(x, z)], dtype)


def format_label(digits: Sequence[int]) -> str:
    return "".join(DIGIT_LETTERS[d] for d in check_digits(digits))


def all_strings(p: int) -> Iterator[Digits]:
    """All 4^p index strings in ascending base-4 order."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    yield from product(range(4), repeat=p)
