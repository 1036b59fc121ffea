"""Exact Pauli-string algebra on p tensor factors.

A Pauli string is a length-p tuple of base-4 digits, one digit per factor:

    0 -> identity, 1 -> sigma_x, 2 -> sigma_y, 3 -> sigma_z

Digit 0 of the tuple is the leftmost (most significant) Kronecker factor;
that convention is fixed once here and every dense realization follows it.

Products carry an explicit global phase stored as a quarter-turn count
(a power of i), so the string algebra is exact. Floating point appears
only when a dense matrix is realized.

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
from typing import Iterable, Iterator, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "DIGIT_LETTERS",
    "PauliOperator",
    "all_strings",
    "bit_parity",
    "check_digits",
    "commutes",
    "format_label",
    "frobenius_distance",
    "from_symplectic",
    "index_string",
    "parse_label",
    "packed",
    "pauli_matrices",
    "pauli_matrix",
    "pauli_product",
    "string_index",
    "to_symplectic",
    "y_count",
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

# digit -> (x, z)
_DIGIT_XZ = ((0, 0), (1, 0), (1, 1), (0, 1))
_XZ_DIGIT = ((0, 3), (1, 2))  # [x][z] -> digit
_XZ_BITS = np.array(_DIGIT_XZ)
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


def pauli_matrices(strings: Iterable[Sequence[int]]) -> np.ndarray:
    """Dense (m, 2^p, 2^p) stack of signed permutations, digit 0 as the
    leftmost Kronecker factor."""
    digits, x, z = packed(strings)
    m, p = digits.shape
    r = np.arange(1 << p)
    turns = np.count_nonzero(digits == 2, axis=1) % 4
    values = _MINUS_I_POWERS[turns, None] * (1 - 2 * bit_parity(r & z[:, None]))
    out = np.zeros((m, 1 << p, 1 << p), dtype=complex)
    out[np.arange(m)[:, None], r, r ^ x[:, None]] = values
    return out


def pauli_matrix(digits: Sequence[int]) -> np.ndarray:
    """Dense 2^p x 2^p realization; a stack of one."""
    return pauli_matrices([digits])[0]


def to_symplectic(digits: Sequence[int]):
    x, z = zip(*(_DIGIT_XZ[d] for d in check_digits(digits)))
    return x, z


def from_symplectic(x_bits: Sequence[int], z_bits: Sequence[int]) -> Digits:
    if len(x_bits) != len(z_bits):
        raise DimensionMismatch("x and z bit strings differ in length")
    return tuple(_XZ_DIGIT[int(a) & 1][int(b) & 1] for a, b in zip(x_bits, z_bits))


def y_count(digits: Sequence[int]) -> int:
    """Number of y digits; the partial-transpose sign exponent."""
    return sum(1 for d in check_digits(digits) if d == 2)


def commutes(a: Sequence[int], b: Sequence[int]) -> bool:
    """Symplectic commutation test, equivalent to the dense matrices commuting."""
    _, x, z = packed([a, b])
    return not bit_parity(x[0] & z[1] ^ x[1] & z[0])


class PauliOperator(NamedTuple):
    """A Pauli string together with a global phase i**phase."""

    phase: int
    digits: Digits

    def matrix(self) -> np.ndarray:
        return (1j ** (self.phase % 4)) * pauli_matrix(self.digits)

    @property
    def is_hermitian(self) -> bool:
        return self.phase % 2 == 0

    @property
    def sign(self) -> int:
        # only meaningful for Hermitian operators
        if not self.is_hermitian:
            raise ValueError("operator carries an imaginary phase")
        return 1 if self.phase % 4 == 0 else -1


def _as_operator(x) -> PauliOperator:
    if isinstance(x, PauliOperator):
        return PauliOperator(x.phase % 4, check_digits(x.digits))
    return PauliOperator(0, check_digits(x))


def pauli_product(a, b) -> PauliOperator:
    """Phase-exact product; accepts PauliOperator values or bare digit tuples."""
    a = _as_operator(a)
    b = _as_operator(b)
    if len(a.digits) != len(b.digits):
        raise DimensionMismatch(
            f"operands act on {len(a.digits)} and {len(b.digits)} factors"
        )
    pairs = tuple(zip(a.digits, b.digits))
    phase = a.phase + b.phase + sum(_PHASE[da][db] for da, db in pairs)
    # the digit code is xor-linear: sigma_a . sigma_b is sigma_(a ^ b) up to phase
    return PauliOperator(phase % 4, tuple(da ^ db for da, db in pairs))


def format_label(digits: Sequence[int]) -> str:
    return "".join(DIGIT_LETTERS[d] for d in check_digits(digits))


def parse_label(text: str) -> Digits:
    """Parse either a letter string ("XZ") or a digit string ("13")."""
    text = text.strip()
    if not text:
        raise ValueError("empty Pauli label")
    if all(c in "0123" for c in text):
        return check_digits(int(c) for c in text)
    try:
        return check_digits(DIGIT_LETTERS.index(c) for c in text.upper())
    except ValueError:
        raise ValueError(f"not a Pauli label: {text!r}") from None


def string_index(digits: Sequence[int]) -> int:
    """Base-4 value of the string; the canonical ordering key."""
    r = 0
    for d in check_digits(digits):
        r = 4 * r + d
    return r


def index_string(r: int, p: int) -> Digits:
    if not 0 <= r < 4**p:
        raise ValueError(f"index {r} out of range for p={p}")
    out = []
    for _ in range(p):
        out.append(r % 4)
        r //= 4
    return tuple(reversed(out))


def all_strings(p: int) -> Iterator[Digits]:
    """All 4^p index strings in ascending base-4 order."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    yield from product(range(4), repeat=p)


def frobenius_distance(a, b) -> float:
    """Frobenius norm of a - b; the one residual measure of the toolkit."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.sqrt(np.sum(np.abs(a - b) ** 2)))
