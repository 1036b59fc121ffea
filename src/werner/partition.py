"""Partition of the nontrivial Pauli strings into maximal commuting classes.

The 4^p - 1 nontrivial strings on p factors split into 2^p + 1 disjoint
classes of 2^p - 1 strings such that members of a class pairwise commute
and, together with the identity, form an abelian group of order 2^p.

Construction: identify the x and z bit halves of a string with elements of
GF(2^p). Writing the x half in the polynomial basis {1, t, ..., t^(p-1)}
and the z half in coordinates v_i = Tr(t^i b) (the trace pairing), the
commutation form of (a, la.a) and (b, la.b) evaluates to Tr(la.a.b) +
Tr(la.b.a) = 0, so every slope la in GF(2^p) yields a fully commuting
class, and the x = 0 strings supply one more. The classes are exactly the
lines through the origin of a 2-dimensional GF(2^p) vector space, which is
why they tile the nonzero strings with nothing left over.

The field arithmetic is two tables per p, built once from one pinned
irreducible polynomial so the partition is reproducible byte for byte: the
multiplication table and the trace-pairing mask of each element. The
builder, gf_mul, gf_trace and dual_coords all read them; the validator
checks each class on packed (x, z) bit masks.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import UnsupportedFieldSize, WernerError
from .pauli import _PHASE, _XZ_DIGIT, Digits, bit_parity, format_label, packed, pauli_matrices

__all__ = [
    "IRREDUCIBLE_POLY",
    "CommutingClass",
    "Partition",
    "ValidationResult",
    "build_partition",
    "dual_basis",
    "dual_coords",
    "gf_mul",
    "gf_trace",
    "poly_coords",
    "validate_partition",
]

# bit k of the value is the coefficient of t^k; bit p is the leading term
IRREDUCIBLE_POLY = {
    1: 0b11,  # t + 1
    2: 0b111,  # t^2 + t + 1
    3: 0b1011,  # t^3 + t + 1
    4: 0b10011,  # t^4 + t + 1
    5: 0b100101,  # t^5 + t^2 + 1
    6: 0b1000011,  # t^6 + t + 1
    7: 0b10000011,  # t^7 + t + 1
    8: 0b100011011,  # t^8 + t^4 + t^3 + t + 1
}

_DENSE_CHECK_MAX_P = 3  # validate_partition's dense commutation check stops here
_PHASE_TABLE = np.array(_PHASE, dtype=float)  # BLAS sums these small integers exactly


def _poly(p: int) -> int:
    try:
        return IRREDUCIBLE_POLY[p]
    except KeyError:
        raise UnsupportedFieldSize(
            f"no irreducible polynomial pinned for p={p} (supported: 1..8)"
        ) from None


def _check_element(a: int, p: int) -> int:
    a = int(a)
    if not 0 <= a < (1 << p):
        raise ValueError(f"{a} is not a GF(2^{p}) element")
    return a


def gf_mul(a: int, b: int, p: int) -> int:
    """Product in GF(2^p) modulo the pinned polynomial for p."""
    mul, _ = _field_tables(p)
    return int(mul[_check_element(a, p), _check_element(b, p)])


def gf_trace(a: int, p: int) -> int:
    """Field trace a + a^2 + ... + a^(2^(p-1)); always lands in {0, 1}."""
    _, dual = _field_tables(p)
    return int(dual[_check_element(a, p)]) & 1  # Tr(t^0 a)


def poly_coords(a: int, p: int) -> Tuple[int, ...]:
    """Coordinates of a in the polynomial basis {1, t, ..., t^(p-1)}."""
    a = _check_element(a, p)
    return tuple((a >> i) & 1 for i in range(p))


def dual_coords(a: int, p: int) -> Tuple[int, ...]:
    """Coordinates v_i = Tr(t^i a); the pairing dual of poly_coords.

    With u = poly_coords(b) and v = dual_coords(a), the bit dot product
    u . v equals Tr(a b).
    """
    a = _check_element(a, p)
    _, dual = _field_tables(p)
    return tuple(int(dual[a]) >> i & 1 for i in range(p))


def dual_basis(p: int) -> Tuple[int, ...]:
    """Trace-dual basis of the polynomial basis: Tr(t^i b*_j) = delta_ij."""
    _, dual = _field_tables(p)
    # b*_j is the one element whose dual_coords are the unit vector e_j
    return tuple(int(np.flatnonzero(dual == 1 << j)[0]) for j in range(p))


# ---------------------------------------------------------------------------
# classes and the spread
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommutingClass:
    """2^p - 1 pairwise commuting strings; generators are p independent members."""

    members: Tuple[Digits, ...]
    generators: Tuple[Digits, ...]

    @property
    def p(self) -> int:
        return len(self.members[0])

    def labels(self) -> Tuple[str, ...]:
        return tuple(format_label(m) for m in self.members)


@dataclass(frozen=True)
class Partition:
    """The 2^p + 1 disjoint maximal commuting classes of nontrivial strings."""

    p: int
    classes: Tuple[CommutingClass, ...]


def _independent_generators(members: Sequence[Digits], p: int) -> Tuple[Digits, ...]:
    basis: Dict[int, int] = {}  # leading bit -> reduced vector
    gens: List[Digits] = []
    # base-4 string values are GF(2)-linear: a product's digits are the xor
    for m, v in zip(members, (np.array(members) @ 4 ** np.arange(p)[::-1]).tolist()):
        while v:
            lead = v.bit_length() - 1
            if lead not in basis:
                basis[lead] = v
                gens.append(m)
                break
            v ^= basis[lead]
        if len(gens) == p:
            break
    if len(gens) != p:
        raise WernerError("class members do not span p independent directions")
    return tuple(gens)


def build_partition(p: int) -> Partition:
    """Deterministic spread partition for any supported p.

    Class order: the x = 0 class first, then one class per slope in
    ascending field-element order; members ascend by base-4 string value.
    Built once per p: every call with the same p returns the same object.
    """
    # a plain function in front of the cache, so that wrappers of the
    # module's functions (profilers, the perfbench tracer) still see each call
    return _spread_partition(p)


@cache
def _field_tables(p: int):
    """GF(2^p) multiplication table and the dual_coords mask of each element.

    The only field arithmetic of the module: mul[a, b] is the carry-less
    product of a and b reduced by the pinned polynomial, and bit i of
    dual[a] is Tr(t^i a). Built once per p and returned read-only.
    """
    poly = _poly(p)
    a = np.arange(1 << p)
    mul, shifted = np.zeros((a.size, a.size), dtype=np.int64), a
    for k in range(p):  # gf_mul's carry-less loop, over every (a, b) at once
        mul ^= shifted[:, None] * ((a >> k) & 1)
        shifted = shifted << 1
        shifted = shifted ^ ((shifted >> p) & 1) * poly
    trace, power = a, a
    for _ in range(p - 1):
        power = mul[power, power]
        trace = trace ^ power
    dual = (trace[mul[1 << np.arange(p)]] << np.arange(p)[:, None]).sum(0)
    mul.flags.writeable = dual.flags.writeable = False
    return mul, dual


@cache
def _spread_partition(p: int) -> Partition:
    mul, dual = _field_tables(p)
    a = np.arange(1, 1 << p)
    # x and z masks of every class in poly_coords order: bit k is digit k
    x = np.vstack([0 * a, np.tile(a, (len(mul), 1))])
    z = np.vstack([a, dual[mul[:, 1:]]])
    k = np.arange(p)
    digits = np.array(_XZ_DIGIT)[(x[..., None] >> k) & 1, (z[..., None] >> k) & 1]
    order = np.argsort(digits @ (4 ** k[::-1]), axis=1)
    classes = []
    for members in np.take_along_axis(digits, order[..., None], 1).tolist():
        ordered = tuple(map(tuple, members))
        classes.append(CommutingClass(ordered, _independent_generators(ordered, p)))
    return Partition(p, tuple(classes))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    problems: Tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _class_problems(idx: int, members: Sequence[Digits], p: int) -> List[str]:
    """Commutation, product-phase and closure problems of one class, in the
    order of its member pairs (i < j), then of its ordered products (i, j)."""
    digits, x, z = packed(members)
    q = digits.shape[1]
    anti = bit_parity((x[:, None] & z) ^ (x & z[:, None])) == 1
    bad_pairs = anti.copy()
    if p <= _DENSE_CHECK_MAX_P:
        m = pauli_matrices(members)
        comm = m[:, None] @ m - m @ m[:, None]  # [i, j] = m_i m_j - m_j m_i
        bad_pairs |= np.abs(comm).max(axis=(2, 3)) > 1e-12
    problems = []
    for i, j in zip(*np.nonzero(np.triu(bad_pairs, 1))):
        a, b = format_label(members[i]), format_label(members[j])
        if anti[i, j]:
            problems.append(f"class {idx}: {a} and {b} anticommute")
        else:
            problems.append(f"class {idx}: dense commutator of {a} and {b} is nonzero")

    # sum_k _PHASE[d_ik][d_jk] as one product: table rows of i against one-hot digits of j
    onehot = (digits[..., None] == np.arange(4)).reshape(len(members), -1)
    imaginary = _PHASE_TABLE[digits].reshape(onehot.shape) @ onehot.T % 2 == 1
    keys = x << q | z  # a product's masks are the xor of its factors' masks
    closed = np.isin(keys[:, None] ^ keys, keys)
    np.fill_diagonal(closed, q == p)  # a square is the q-factor identity
    for i, j in zip(*np.nonzero(imaginary | ~closed)):
        if imaginary[i, j]:
            problems.append(f"class {idx}: product of commuting members has imaginary phase")
        if closed[i, j]:
            continue
        if i == j:
            problems.append(f"class {idx}: member does not square to the identity")
        else:
            problems.append(
                f"class {idx}: not closed under products "
                f"({format_label(members[i])} . {format_label(members[j])})"
            )
    return problems


def validate_partition(part: Partition) -> ValidationResult:
    """Check counts, disjoint coverage, commutation, and group closure.

    Up to p = _DENSE_CHECK_MAX_P, commutation is also confirmed on dense
    matrices (cost grows as 16^p).
    """
    p = part.p
    problems: List[str] = []

    expected_classes = 2**p + 1
    expected_size = 2**p - 1
    if len(part.classes) != expected_classes:
        problems.append(
            f"expected {expected_classes} classes, found {len(part.classes)}"
        )

    seen: Dict[Digits, int] = {}
    identity = (0,) * p
    for idx, cls in enumerate(part.classes):
        if len(cls.members) != expected_size:
            problems.append(
                f"class {idx} has {len(cls.members)} members, expected {expected_size}"
            )
        for m in cls.members:
            if len(m) != p:
                problems.append(f"class {idx} member {m} has wrong length")
            if m == identity:
                problems.append(f"class {idx} contains the identity string")
            if m in seen:
                problems.append(
                    f"string {format_label(m)} appears in classes {seen[m]} and {idx}"
                )
            seen[m] = idx

        if cls.members:
            problems.extend(_class_problems(idx, cls.members, p))

    missing = (4**p - 1) - len(seen)
    if missing:
        problems.append(f"{missing} nontrivial strings are not covered")

    return ValidationResult(not problems, tuple(problems))
