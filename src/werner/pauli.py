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
the three that realize matrices need no numpy. As masks a string is
(-i)^(y count) Z^z X^x (since Y = -i Z X), and a product of strings is
(-i)^turns Z^z X^x (X^x Z^z = (-1)^|x & z| Z^z X^x), whose row r holds one
entry D[r] = (-i)^turns (-1)^|r & z|, at column r ^ x. pattern_values gives
the D of a stack of them, and signed_permutations is the one scatter that
realizes any stack held as (x, D), with no Kronecker products.
"""
from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, Iterable, Iterator, List, Sequence, Tuple

from .errors import DimensionMismatch

if TYPE_CHECKING:  # annotations only: the numpy helpers import it as they run
    import numpy as np

__all__ = [
    "DIGIT_LETTERS",
    "all_strings",
    "bit_parity",
    "check_digits",
    "format_label",
    "masks",
    "pattern_values",
    "pauli_matrices",
    "signed_permutations",
]

Digits = Tuple[int, ...]

DIGIT_LETTERS = "IXYZ"

_XZ_BITS = ((0, 0), (1, 0), (1, 1), (0, 1))  # digit -> (x, z)
_BITS = dict(enumerate(_XZ_BITS))


def check_digits(digits: Sequence[int]) -> Digits:
    """Normalize to a tuple and validate every digit is in {0, 1, 2, 3}."""
    out = tuple(map(int, digits))
    if not out:
        raise ValueError("a Pauli string needs at least one factor")
    if not set(out) <= _BITS.keys():
        raise ValueError(f"digits must be in 0..3, got {out!r}")
    return out


def masks(strings: Iterable[Sequence[int]]) -> Tuple[int, List[int], List[int]]:
    """(p, x, z): the factor count and the x and z masks, as ints, of one
    or more equal-length strings.

    Bit p - 1 - k of a mask belongs to digit k. Each digit is checked as it
    is packed: a bad digit or an empty string raises ValueError, and a
    length other than the first string's raises DimensionMismatch.
    """
    p, x, z = None, [], []
    for s in strings:
        xs = zs = 0
        try:
            for a, b in map(_BITS.__getitem__, s):
                xs, zs = xs << 1 | a, zs << 1 | b
        except KeyError:
            raise ValueError(f"digits must be in 0..3, got {tuple(s)!r}") from None
        if not s:
            raise ValueError("a Pauli string needs at least one factor")
        if p is None:
            p = len(s)
        elif len(s) != p:
            raise DimensionMismatch(f"strings act on {p} and {len(s)} factors")
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


def pattern_values(p: int, z: Sequence[int], turns: Sequence[int]) -> np.ndarray:
    """The (m, 2^p) entries D[r] = (-i)^turns (-1)^|r & z| of the (-i)^turns Z^z X^x."""
    import numpy as np
    r = np.arange(1 << p)
    return np.array((1, -1j, -1, 1j))[turns, None] * (1 - 2 * bit_parity(r & np.array(z)[:, None]))


def signed_permutations(x: Sequence[int], values: np.ndarray) -> np.ndarray:
    """Dense (m, d, d) complex stack of the V[r, r ^ x] = D[r] over the
    patterns x and the (m, d) entries D."""
    import numpy as np
    m, d = np.shape(values)
    out = np.zeros((m, d, d), dtype=complex)
    out[np.arange(m)[:, None], np.arange(d), np.arange(d) ^ np.asarray(x)[:, None]] = values
    return out


def pauli_matrices(strings: Iterable[Sequence[int]]) -> np.ndarray:
    """Dense (m, 2^p, 2^p) stack of the strings, digit 0 as the leftmost
    Kronecker factor: the signed permutations with turns the y count."""
    p, x, z = masks(strings)
    turns = [(a & b).bit_count() % 4 for a, b in zip(x, z)]
    return signed_permutations(x, pattern_values(p, z, turns))


def format_label(digits: Sequence[int]) -> str:
    return "".join(DIGIT_LETTERS[d] for d in check_digits(digits))


def all_strings(p: int) -> Iterator[Digits]:
    """All 4^p index strings in ascending base-4 order."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    yield from product(range(4), repeat=p)
