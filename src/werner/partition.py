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
multiplication table and the trace-pairing mask of each element.
build_partition reads them; the validator checks each class on packed
(x, z) bit masks.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import UnsupportedFieldSize, WernerError
from .pauli import _PHASE, _XZ_DIGIT, Digits, bit_parity, format_label, packed

__all__ = [
    "IRREDUCIBLE_POLY",
    "CommutingClass",
    "Partition",
    "ValidationResult",
    "build_partition",
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

_PHASE_TABLE = np.array(_PHASE, dtype=float)  # BLAS sums these small integers exactly


def _poly(p: int) -> int:
    try:
        return IRREDUCIBLE_POLY[p]
    except KeyError:
        raise UnsupportedFieldSize(
            f"no irreducible polynomial pinned for p={p} (supported: 1..8)"
        ) from None


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
    """GF(2^p) multiplication table and the trace-pairing mask of each element.

    The only field arithmetic of the module: mul[a, b] is the carry-less
    product of a and b reduced by the pinned polynomial, and bit i of
    dual[a] is Tr(t^i a). Built once per p and returned read-only.
    """
    poly = _poly(p)
    a = np.arange(1 << p)
    mul, shifted = np.zeros((a.size, a.size), dtype=np.int64), a
    for k in range(p):  # carry-less shift-and-add, over every (a, b) at once
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
    # x and z masks of every class in polynomial-basis order: bit k is digit k
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


def _class_problems(idx: int, members: Sequence[Digits]) -> List[str]:
    """Commutation, product-phase and closure problems of one class of
    length-p strings, in the order of its member pairs (i < j), then of its
    ordered products (i, j)."""
    digits, x, z = packed(members)
    p = digits.shape[1]
    anti = bit_parity((x[:, None] & z) ^ (x & z[:, None])) == 1
    problems = []
    for i, j in zip(*np.nonzero(np.triu(anti, 1))):
        a, b = format_label(members[i]), format_label(members[j])
        problems.append(f"class {idx}: {a} and {b} anticommute")

    # sum_k _PHASE[d_ik][d_jk] as one product: table rows of i against one-hot digits of j
    onehot = (digits[..., None] == np.arange(4)).reshape(len(members), -1)
    imaginary = _PHASE_TABLE[digits].reshape(onehot.shape) @ onehot.T % 2 == 1
    keys = x << p | z  # a product's masks are the xor of its factors' masks
    closed = np.isin(keys[:, None] ^ keys, keys)
    np.fill_diagonal(closed, True)  # a square is the identity
    for i, j in zip(*np.nonzero(imaginary | ~closed)):
        if imaginary[i, j]:
            problems.append(f"class {idx}: product of commuting members has imaginary phase")
        if not closed[i, j]:
            problems.append(
                f"class {idx}: not closed under products "
                f"({format_label(members[i])} . {format_label(members[j])})"
            )
    return problems


def validate_partition(part: Partition) -> ValidationResult:
    """Check counts, disjoint coverage, commutation, and group closure.

    Members are read as digit tuples. The commutation and closure checks
    run on a class whose members all have length p and digits in 0..3.
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
        members = tuple(map(tuple, cls.members))
        if len(members) != expected_size:
            problems.append(
                f"class {idx} has {len(members)} members, expected {expected_size}"
            )
        # the class-wide checks pack the members: length p, digits in 0..3
        packable = bool(members)
        for m in members:
            if len(m) != p:
                problems.append(f"class {idx} member {m} has wrong length")
                packable = False
            if not set(m) <= {0, 1, 2, 3}:
                problems.append(f"class {idx} member {m} has a digit outside 0..3")
                packable = False
                continue
            if m == identity:
                problems.append(f"class {idx} contains the identity string")
            if m in seen:
                problems.append(
                    f"string {format_label(m)} appears in classes {seen[m]} and {idx}"
                )
            seen[m] = idx

        if packable:
            problems.extend(_class_problems(idx, members))

    # only nontrivial strings of length p cover anything
    missing = (4**p - 1) - sum(len(m) == p and m != identity for m in seen)
    if missing:
        problems.append(f"{missing} nontrivial strings are not covered")

    return ValidationResult(not problems, tuple(problems))
