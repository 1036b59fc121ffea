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

Field arithmetic is bit-level with one pinned irreducible polynomial per p
so the partition is reproducible byte for byte.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import UnsupportedFieldSize, WernerError
from .pauli import (
    Digits,
    commutes,
    format_label,
    from_symplectic,
    pauli_matrix,
    pauli_product,
    string_index,
    to_symplectic,
)

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
    """Carry-less product reduced by the pinned polynomial for p."""
    poly = _poly(p)
    a = _check_element(a, p)
    b = _check_element(b, p)
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        if (a >> p) & 1:
            a ^= poly
        b >>= 1
    return acc


def gf_trace(a: int, p: int) -> int:
    """Field trace a + a^2 + ... + a^(2^(p-1)); always lands in {0, 1}."""
    _poly(p)
    a = _check_element(a, p)
    t = a
    acc = a
    for _ in range(p - 1):
        t = gf_mul(t, t, p)
        acc ^= t
    if acc not in (0, 1):
        raise WernerError(f"trace left the prime field: {acc}")  # cannot happen
    return acc


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
    return tuple(gf_trace(gf_mul(1 << i, a, p), p) for i in range(p))


def _invert_gf2(rows: Sequence[int], p: int) -> List[int]:
    # Gauss-Jordan on p-bit rows with an appended identity block.
    aug = [rows[i] | (1 << (p + i)) for i in range(p)]
    pivot_row = 0
    for col in range(p):
        hit = next((k for k in range(pivot_row, p) if (aug[k] >> col) & 1), None)
        if hit is None:
            raise WernerError("singular matrix over GF(2)")
        aug[pivot_row], aug[hit] = aug[hit], aug[pivot_row]
        for k in range(p):
            if k != pivot_row and (aug[k] >> col) & 1:
                aug[k] ^= aug[pivot_row]
        pivot_row += 1
    return [row >> p for row in aug]


def dual_basis(p: int) -> Tuple[int, ...]:
    """Trace-dual basis of the polynomial basis: Tr(t^i b*_j) = delta_ij."""
    _poly(p)
    gram = []
    for i in range(p):
        row = 0
        for j in range(p):
            row |= gf_trace(gf_mul(1 << i, 1 << j, p), p) << j
        gram.append(row)
    inv = _invert_gf2(gram, p)
    # gram is symmetric, so row j of the inverse is the j-th dual element
    dual = tuple(inv[j] for j in range(p))
    for i in range(p):
        for j in range(p):
            if gf_trace(gf_mul(1 << i, dual[j], p), p) != (1 if i == j else 0):
                raise WernerError("dual basis failed its defining identity")
    return dual


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


def _pack_symplectic(digits: Digits) -> int:
    x, z = to_symplectic(digits)
    v = 0
    for k, bit in enumerate(x + z):
        v |= bit << k
    return v


def _independent_generators(members: Sequence[Digits], p: int) -> Tuple[Digits, ...]:
    basis: Dict[int, int] = {}  # leading bit -> reduced vector
    gens: List[Digits] = []
    for m in members:
        v = _pack_symplectic(m)
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


def _class_from_members(members: Iterable[Digits], p: int) -> CommutingClass:
    ordered = tuple(sorted(members, key=string_index))
    return CommutingClass(ordered, _independent_generators(ordered, p))


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
def _spread_partition(p: int) -> Partition:
    _poly(p)
    n = 1 << p
    zero = (0,) * p

    classes = []
    inf_members = [
        from_symplectic(zero, poly_coords(b, p)) for b in range(1, n)
    ]
    classes.append(_class_from_members(inf_members, p))

    for slope in range(n):
        members = []
        for a in range(1, n):
            x_bits = poly_coords(a, p)
            z_bits = dual_coords(gf_mul(slope, a, p), p)
            members.append(from_symplectic(x_bits, z_bits))
        classes.append(_class_from_members(members, p))

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

        for i in range(len(cls.members)):
            for j in range(i + 1, len(cls.members)):
                a, b = cls.members[i], cls.members[j]
                if not commutes(a, b):
                    problems.append(
                        f"class {idx}: {format_label(a)} and {format_label(b)} anticommute"
                    )
                elif p <= _DENSE_CHECK_MAX_P:
                    ma, mb = pauli_matrix(a), pauli_matrix(b)
                    comm = ma @ mb - mb @ ma
                    if float(abs(comm).max()) > 1e-12:
                        problems.append(
                            f"class {idx}: dense commutator of {format_label(a)} "
                            f"and {format_label(b)} is nonzero"
                        )

        member_set = set(cls.members)
        for i in range(len(cls.members)):
            for j in range(len(cls.members)):
                prod = pauli_product(cls.members[i], cls.members[j])
                if prod.phase % 2:
                    problems.append(
                        f"class {idx}: product of commuting members has imaginary phase"
                    )
                target = prod.digits
                if i == j:
                    if target != identity:
                        problems.append(
                            f"class {idx}: member does not square to the identity"
                        )
                elif target not in member_set:
                    problems.append(
                        f"class {idx}: not closed under products "
                        f"({format_label(cls.members[i])} . {format_label(cls.members[j])})"
                    )

    missing = (4**p - 1) - len(seen)
    if missing:
        problems.append(f"{missing} nontrivial strings are not covered")

    return ValidationResult(not problems, tuple(problems))
