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
vanishes mod 2.
"""
from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "DIGIT_LETTERS",
    "PAULI_I",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "SINGLE_QUBIT",
    "PauliOperator",
    "all_strings",
    "check_digits",
    "commutes",
    "format_label",
    "frobenius_distance",
    "from_symplectic",
    "index_string",
    "parse_label",
    "pauli_matrix",
    "pauli_product",
    "string_index",
    "to_symplectic",
    "y_count",
]

Digits = Tuple[int, ...]

DIGIT_LETTERS = "IXYZ"

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SINGLE_QUBIT = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)

# Quarter-turn phase of sigma_a . sigma_b (row a, column b), e.g. X.Y = i Z.
_PHASE = (
    (0, 0, 0, 0),
    (0, 0, 1, 3),
    (0, 3, 0, 1),
    (0, 1, 3, 0),
)

# Digit of sigma_a . sigma_b up to phase; xor in the symplectic encoding.
_XOR_DIGIT = (
    (0, 1, 2, 3),
    (1, 0, 3, 2),
    (2, 3, 0, 1),
    (3, 2, 1, 0),
)

# digit -> (x, z)
_DIGIT_XZ = ((0, 0), (1, 0), (1, 1), (0, 1))
_XZ_DIGIT = {(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1): 3}


def check_digits(digits: Sequence[int]) -> Digits:
    """Normalize to a tuple and validate every digit is in {0, 1, 2, 3}."""
    out = tuple(int(d) for d in digits)
    if not out:
        raise ValueError("a Pauli string needs at least one factor")
    if any(d not in (0, 1, 2, 3) for d in out):
        raise ValueError(f"digits must be in 0..3, got {out!r}")
    return out


def pauli_matrix(digits: Sequence[int]) -> np.ndarray:
    """Dense 2^p x 2^p realization, digit 0 as the leftmost Kronecker factor."""
    digits = check_digits(digits)
    m = SINGLE_QUBIT[digits[0]]
    for d in digits[1:]:
        m = np.kron(m, SINGLE_QUBIT[d])
    return m


def to_symplectic(digits: Sequence[int]):
    digits = check_digits(digits)
    x = tuple(_DIGIT_XZ[d][0] for d in digits)
    z = tuple(_DIGIT_XZ[d][1] for d in digits)
    return x, z


def from_symplectic(x_bits: Sequence[int], z_bits: Sequence[int]) -> Digits:
    if len(x_bits) != len(z_bits):
        raise DimensionMismatch("x and z bit strings differ in length")
    return tuple(_XZ_DIGIT[(int(a) & 1, int(b) & 1)] for a, b in zip(x_bits, z_bits))


def y_count(digits: Sequence[int]) -> int:
    """Number of y digits; the partial-transpose sign exponent."""
    return sum(1 for d in check_digits(digits) if d == 2)


def commutes(a: Sequence[int], b: Sequence[int]) -> bool:
    """Symplectic commutation test, equivalent to the dense matrices commuting."""
    a = check_digits(a)
    b = check_digits(b)
    if len(a) != len(b):
        raise DimensionMismatch(f"strings act on {len(a)} and {len(b)} factors")
    form = 0
    for da, db in zip(a, b):
        xa, za = _DIGIT_XZ[da]
        xb, zb = _DIGIT_XZ[db]
        form ^= (xa & zb) ^ (xb & za)
    return form == 0


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
    phase = a.phase + b.phase
    out = []
    for da, db in zip(a.digits, b.digits):
        phase += _PHASE[da][db]
        out.append(_XOR_DIGIT[da][db])
    return PauliOperator(phase % 4, tuple(out))


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
    for r in range(4**p):
        yield index_string(r, p)


def frobenius_distance(a, b) -> float:
    """Frobenius norm of a - b; the one residual measure of the toolkit."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.sqrt(np.sum(np.abs(a - b) ** 2)))
