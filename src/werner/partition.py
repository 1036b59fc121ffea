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

The field arithmetic is two tables per p, tuples of ints built once from
one pinned irreducible polynomial so the partition is reproducible byte
for byte: the multiplication table and the trace-pairing mask of each
element. build_partition reads them; the validator checks each class on
the (x, z) int masks of its members, and neither needs numpy.
"""
from __future__ import annotations

from functools import cache
from itertools import islice
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .errors import UnsupportedFieldSize, WernerError
from .pauli import Digits, all_strings, format_label, masks

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


class CommutingClass(NamedTuple):
    """2^p - 1 pairwise commuting strings; generators are p independent members."""

    members: Tuple[Digits, ...]
    generators: Tuple[Digits, ...]

    @property
    def p(self) -> int:
        return len(self.members[0])

    def labels(self) -> Tuple[str, ...]:
        return tuple(format_label(m) for m in self.members)


class Partition(NamedTuple):
    """The 2^p + 1 disjoint maximal commuting classes of nontrivial strings."""

    p: int
    classes: Tuple[CommutingClass, ...]


def _spanning(keys: Sequence[int]) -> Iterator[int]:
    """Indices of the keys that each leave the GF(2) span of those before them."""
    basis: Dict[int, int] = {}  # bit length -> reduced key
    for k, v in enumerate(keys):
        while v.bit_length() in basis:
            v ^= basis[v.bit_length()]
        if v:
            basis[v.bit_length()] = v
            yield k


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

    The only field arithmetic of the module: mul[a][b] is the carry-less
    product of a and b reduced by the pinned polynomial, and bit i of
    dual[a] is Tr(t^i a). Built once per p, as tuples of ints.
    """
    poly = _poly(p)
    mul = []
    for a in range(1 << p):
        row = [0]
        for _ in range(p):  # b with bit k set: row[b] = row[b - 2^k] ^ a t^k
            row += [v ^ a for v in row]
            a <<= 1
            a ^= (a >> p) * poly
        mul.append(tuple(row))
    trace = power = range(1 << p)
    for _ in range(p - 1):
        power = [mul[v][v] for v in power]
        trace = [t ^ v for t, v in zip(trace, power)]
    dual = tuple(sum(trace[mul[1 << i][a]] << i for i in range(p)) for a in range(1 << p))
    return tuple(mul), dual


@cache
def _spread_partition(p: int) -> Partition:
    mul, dual = _field_tables(p)
    strings = list(all_strings(p))  # indexed by base-4 value
    # bit k of a mask is digit k, at base-4 place p - 1 - k; digit d is 2 z + (x ^ z)
    place = [sum((m >> k & 1) << 2 * (p - 1 - k) for k in range(p)) for m in range(1 << p)]
    nonzero = range(1, 1 << p)
    # (x, z) masks of every class in polynomial-basis order
    lines = [[(0, a) for a in nonzero]] + [[(a, dual[row[a]]) for a in nonzero] for row in mul]
    classes = []
    for line in lines:
        values = sorted(place[z] << 1 | place[x ^ z] for x, z in line)
        members = tuple(strings[v] for v in values)
        # base-4 values are GF(2)-linear: a product's digits are the xor
        gens = tuple(members[k] for k in islice(_spanning(values), p))
        if len(gens) != p:
            raise WernerError("class members do not span p independent directions")
        classes.append(CommutingClass(members, gens))
    return Partition(p, tuple(classes))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


class ValidationResult(NamedTuple):
    ok: bool
    problems: Tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _class_problems(idx: int, members: Sequence[Digits]) -> List[str]:
    """Commutation, product-phase and closure problems of one class of
    length-p strings, in the order of its member pairs (i < j), then of its
    ordered products (i, j)."""
    p, x, z = masks(members)
    # bit j of cols[k] is bit k of string j's x mask, and of its z mask
    cols = [[sum((v >> k & 1) << j for j, v in enumerate(m)) for m in (x, z)] for k in range(p)]
    problems, phases = [], []
    for i, (xi, zi) in enumerate(zip(x, z)):
        anti = 0  # bit j: string i's symplectic form with string j
        for k, (xk, zk) in enumerate(cols):
            a, b = -(xi >> k & 1), -(zi >> k & 1)  # every bit set, or none
            anti ^= a & zk ^ b & xk
        # the product of strings i and j has an odd number of quarter turns,
        # an imaginary phase, exactly where they anticommute
        phases.append(anti)
        for j in range(i + 1, len(members)):
            if anti >> j & 1:
                a, b = format_label(members[i]), format_label(members[j])
                problems.append(f"class {idx}: {a} and {b} anticommute")

    keys = [a << p | b for a, b in zip(x, z)]  # a product's key is the xor of its factors'
    known = set(keys)
    # distinct nonidentity keys, with the identity, are a group iff they span no more
    group = 0 not in known and len(known) == len(keys) == (1 << len(list(_spanning(keys)))) - 1
    for i, (key, imaginary) in enumerate(zip(keys, phases)):
        if group and not imaginary:
            continue
        for j, other in enumerate(keys):
            if imaginary >> j & 1:
                problems.append(f"class {idx}: product of commuting members has imaginary phase")
            if i != j and key ^ other not in known:  # a square is the identity
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
        problems.append(f"expected {expected_classes} classes, found {len(part.classes)}")

    seen: Dict[Digits, int] = {}
    identity = (0,) * p
    for idx, cls in enumerate(part.classes):
        members = tuple(map(tuple, cls.members))
        if len(members) != expected_size:
            problems.append(f"class {idx} has {len(members)} members, expected {expected_size}")
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
