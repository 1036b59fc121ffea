"""Field arithmetic and the maximal commuting partition."""
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import werner.partition
from dense_reference import PHASE, pauli_matrices
from werner.errors import UnsupportedFieldSize, WernerError
from werner.partition import (
    IRREDUCIBLE_POLY,
    CommutingClass,
    Partition,
    _class_problems,
    _field_tables,
    _spanning,
    _spread_partition,
    build_partition,
    validate_partition,
)
from werner.pauli import DIGIT_LETTERS, all_strings, masks

# --- GF(2^p) --------------------------------------------------------------


def _clmul(a, b, p):
    # reference: shift-and-add product, reducing each overflow of bit p
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        if (a >> p) & 1:
            a ^= IRREDUCIBLE_POLY[p]
        b >>= 1
    return acc


def _square_trace(a, p):
    # reference: a + a^2 + ... + a^(2^(p-1)) by repeated squaring
    t = acc = a
    for _ in range(p - 1):
        t = _clmul(t, t, p)
        acc ^= t
    return acc


def _dual_basis(dual, p):
    # b*_j is the one element whose trace-pairing mask is the unit vector e_j
    return tuple(dual.index(1 << j) for j in range(p))


@pytest.mark.parametrize("p", range(1, 9))
def test_field_tables_match_the_scalar_references(p):
    mul, dual = _field_tables(p)
    n = 1 << p
    want = [[_clmul(a, b, p) for b in range(n)] for a in range(n)]
    assert [list(row) for row in mul] == want
    traces = [_square_trace(a, p) for a in range(n)]
    assert set(traces) <= {0, 1}
    assert [dual[a] & 1 for a in range(n)] == traces  # bit 0 is Tr(t^0 a)
    for a in range(n):
        coords = tuple(_square_trace(_clmul(1 << i, a, p), p) for i in range(p))
        assert dual[a] == sum(bit << i for i, bit in enumerate(coords))
    assert _field_tables(p) is _field_tables(p)
    # read-only: tuples of ints
    assert all(type(t) is tuple for t in (mul, dual, *mul))
    assert all(type(v) is int for v in (*dual, *mul[-1]))


def test_gf4_frozen():
    # in GF(4) with modulus x^2 + x + 1: x . x = x + 1
    mul, dual = _field_tables(2)
    assert mul[2][2] == 3
    assert mul[2][3] == 1  # x (x + 1) = x^2 + x = 1
    assert [t & 1 for t in dual] == [0, 0, 1, 1]  # Tr(1) = 1 + 1 = 0, Tr(x) = 1


def test_unsupported_field():
    for p in (0, 9):
        with pytest.raises(UnsupportedFieldSize):
            build_partition(p)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_gf_is_a_field(p):
    mul, _ = _field_tables(p)
    n = 1 << p
    assert [row[1] for row in mul] == list(range(n))
    assert not any(mul[0])
    # every nonzero row of the multiplication table is a permutation
    for a in range(1, n):
        assert sorted(mul[a]) == list(range(n))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4), st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_gf_ring_axioms(p, a, b, c):
    mul, _ = _field_tables(p)
    n = 1 << p
    a, b, c = a % n, b % n, c % n
    assert mul[a][b] == mul[b][a]
    assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
    assert mul[a][b ^ c] == mul[a][b] ^ mul[a][c]


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4), st.integers(0, 15), st.integers(0, 15))
def test_gf_trace_properties(p, a, b):
    mul, dual = _field_tables(p)
    n = 1 << p
    a, b = a % n, b % n
    trace = [t & 1 for t in dual]
    assert trace[a ^ b] == trace[a] ^ trace[b]
    assert trace[mul[a][a]] == trace[a]  # Frobenius-invariant


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4), st.integers(0, 15), st.integers(0, 15))
def test_coordinate_pairing(p, a, b):
    # the polynomial-basis bits of b dotted with the mask dual[a] give Tr(a b)
    mul, dual = _field_tables(p)
    n = 1 << p
    a, b = a % n, b % n
    assert bin(b & dual[a]).count("1") % 2 == dual[mul[a][b]] & 1


def test_dual_basis_frozen_p2():
    # dual of {1, x} in GF(4) is {1 + x, 1}
    assert _dual_basis(_field_tables(2)[1], 2) == (3, 1)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_dual_basis_defining_identity(p):
    # Tr(t^i b*_j) = delta_ij, checked with the scalar references
    dual = _dual_basis(_field_tables(p)[1], p)
    for i in range(p):
        for j in range(p):
            assert _square_trace(_clmul(1 << i, dual[j], p), p) == (i == j)


# --- partition ------------------------------------------------------------


def test_partition_p1_frozen():
    part = build_partition(1)
    assert [cls.labels() for cls in part.classes] == [("Z",), ("X",), ("Y",)]


def test_partition_p2_frozen():
    part = build_partition(2)
    assert [cls.labels() for cls in part.classes] == [
        ("IZ", "ZI", "ZZ"),
        ("IX", "XI", "XX"),
        ("XZ", "YX", "ZY"),
        ("XY", "YZ", "ZX"),
        ("IY", "YI", "YY"),
    ]


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_partition_structure(p):
    part = build_partition(p)
    assert len(part.classes) == 2**p + 1
    covered = set()
    for cls in part.classes:
        assert len(cls.members) == 2**p - 1
        assert len(cls.generators) == p
        assert set(cls.generators) <= set(cls.members)
        # members ascend in base-4 value
        assert list(cls.members) == sorted(cls.members, key=lambda s: int("".join(map(str, s)), 4))
        covered.update(cls.members)
    assert len(covered) == 4**p - 1
    assert covered == set(all_strings(p)) - {(0,) * p}


@pytest.mark.parametrize("p", [1, 2, 3])
def test_generators_span_class(p):
    part = build_partition(p)
    for cls in part.classes:
        spanned = set()
        for mask in range(1, 2**p):
            # a product's digits are the xor of its factors' digits
            selected = [g for j, g in enumerate(cls.generators) if mask >> j & 1]
            spanned.add(tuple(np.bitwise_xor.reduce(selected, axis=0).tolist()))
        assert spanned == set(cls.members)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7, 8])
def test_validate_accepts_built_partition(p):
    res = validate_partition(build_partition(p))
    assert bool(res)
    assert res.problems == ()


def test_partition_is_deterministic():
    assert build_partition(3) == build_partition(3)


def test_partition_is_built_once_per_p():
    part = build_partition(3)
    assert build_partition(3) is part
    assert _spread_partition.__wrapped__(3) == part  # a fresh build agrees


def test_dense_commutation_on_small_p():
    part = build_partition(2)
    for cls in part.classes:
        m = pauli_matrices(cls.members)
        assert np.array_equal(m[:, None] @ m, m @ m[:, None])
        _, x, z = masks(cls.members)
        pairs = [(i, j) for i in range(len(x)) for j in range(len(x))]
        assert not any(((x[i] & z[j]) ^ (x[j] & z[i])).bit_count() & 1 for i, j in pairs)


# --- validator catches corruption ------------------------------------------


def _cls(*labels):
    members = tuple(tuple(DIGIT_LETTERS.index(c) for c in s) for s in labels)
    # bypass generator derivation: hand the first log2(len)+... members in
    p = len(members[0])
    gens = members[:p]
    return CommutingClass(members, gens)


def test_validator_flags_anticommuting_pair():
    bad = Partition(1, (_cls("X"), _cls("Y"), _cls("Z")))
    # classes themselves are fine; corrupt one by merging X and Z
    worse = Partition(1, (_cls("X"), _cls("Y"), CommutingClass(((1,), (3,)), ((1,),))))
    res = validate_partition(worse)
    assert not res
    assert any("anticommute" in msg for msg in res.problems)
    assert validate_partition(bad).ok


def test_validator_flags_duplicates_and_identity():
    dup = Partition(1, (_cls("X"), _cls("X"), _cls("Z")))
    res = validate_partition(dup)
    assert any("appears in classes" in msg for msg in res.problems)
    with_id = Partition(1, (_cls("I"), _cls("X"), _cls("Z")))
    # the identity covers no nontrivial string, so Y is missing
    assert validate_partition(with_id).problems == (
        "class 0 contains the identity string",
        "1 nontrivial strings are not covered",
    )


def test_validator_flags_wrong_counts():
    res = validate_partition(Partition(1, (_cls("X"), _cls("Y"))))
    assert any("expected 3 classes" in msg for msg in res.problems)
    assert any("not covered" in msg for msg in res.problems)


def test_validator_flags_non_closure():
    # {XZ, YX} commute but their product ZY is missing: not group-closed
    part = build_partition(2)
    broken_members = part.classes[2].members[:2]
    broken = Partition(
        2,
        part.classes[:2]
        + (CommutingClass(broken_members, broken_members),)
        + part.classes[3:],
    )
    res = validate_partition(broken)
    assert any("closed" in msg or "members" in msg for msg in res.problems)


def test_validator_problems_keep_their_text_and_order():
    merged = Partition(1, (_cls("X"), _cls("Y"), CommutingClass(((1,), (3,)), ((1,),))))
    assert validate_partition(merged).problems == (
        "class 2 has 2 members, expected 1",
        "string X appears in classes 0 and 2",
        "class 2: X and Z anticommute",
        "class 2: product of commuting members has imaginary phase",
        "class 2: not closed under products (X . Z)",
        "class 2: product of commuting members has imaginary phase",
        "class 2: not closed under products (Z . X)",
    )
    part = build_partition(2)
    pair = part.classes[2].members[:2]
    cut = Partition(2, part.classes[:2] + (CommutingClass(pair, pair),) + part.classes[3:])
    assert validate_partition(cut).problems == (
        "class 2 has 2 members, expected 3",
        "class 2: not closed under products (XZ . YX)",
        "class 2: not closed under products (YX . XZ)",
        "1 nontrivial strings are not covered",
    )
    long = Partition(1, (_cls("X"), _cls("Y"), CommutingClass(((3, 3),), ((3, 3),))))
    assert validate_partition(long).problems == (
        "class 2 member (3, 3) has wrong length",
        "1 nontrivial strings are not covered",
    )
    mixed = Partition(1, (_cls("X"), _cls("Y"), CommutingClass(((3,), (3, 3)), ((3,),))))
    assert validate_partition(mixed).problems == (
        "class 2 has 2 members, expected 1",
        "class 2 member (3, 3) has wrong length",
    )


def _last_member_of_class_0(last):
    part = build_partition(2)
    head = part.classes[0]
    return Partition(2, (CommutingClass(head.members[:-1] + (last,), head.generators),)
                     + part.classes[1:])


@pytest.mark.parametrize(
    "part, problems",
    [
        (_last_member_of_class_0((1,)),
         ("class 0 member (1,) has wrong length", "1 nontrivial strings are not covered")),
        (_last_member_of_class_0((1, 4)),
         ("class 0 member (1, 4) has a digit outside 0..3",
          "1 nontrivial strings are not covered")),
        # a list of digits reads as the string it spells: here X, so nothing is wrong
        (Partition(1, (CommutingClass(([1],), ([1],)), _cls("Y"), _cls("Z"))), ()),
        (Partition(1, (_cls("X"), _cls("Y"), CommutingClass(((3, 3),), ((3, 3),)))),
         ("class 2 member (3, 3) has wrong length", "1 nontrivial strings are not covered")),
    ],
    ids=["mixed-lengths", "bad-digit", "list-member", "long-class"],
)
def test_validator_reports_malformed_members_without_raising(part, problems):
    # the class-wide checks run only on members of length p with digits in 0..3
    res = validate_partition(part)
    assert res.ok == (problems == ())
    assert res.problems == problems


def test_generator_independence_check(monkeypatch):
    # ZI twice spans one direction: the second leaves nothing new
    assert list(_spanning([int("30", 4)] * 2)) == [0]
    # a class whose members span fewer than p directions is refused
    monkeypatch.setattr(werner.partition, "_spanning", lambda values: iter([0]))
    with pytest.raises(WernerError):
        _spread_partition.__wrapped__(2)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_phase_parity_is_the_phase_table_sum_and_the_symplectic_form(p):
    # the validator's integer parity counts the positions where both digits
    # are nontrivial and differ; the PHASE table sum is odd exactly there.
    # Per position, such digits anticommute, so the parity is always the
    # symplectic form's: an imaginary phase comes only with anticommuting pairs
    for a, b in product(all_strings(p), repeat=2):
        if a == b:
            continue
        problems = _class_problems(0, (a, b))
        odd = sum(PHASE[c][e] for c, e in zip(a, b)) % 2
        assert sum("imaginary phase" in msg for msg in problems) == 2 * odd, (a, b)
        assert sum("anticommute" in msg for msg in problems) == odd, (a, b)
