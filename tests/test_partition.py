"""Field arithmetic and the maximal commuting partition."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from werner.errors import DimensionMismatch, UnsupportedFieldSize, WernerError
from werner.partition import (
    CommutingClass,
    Partition,
    _spread_partition,
    build_partition,
    dual_basis,
    dual_coords,
    gf_mul,
    gf_trace,
    poly_coords,
    validate_partition,
)
from werner.pauli import (
    all_strings,
    commutes,
    format_label,
    pauli_matrix,
    pauli_product,
    string_index,
)

# --- GF(2^p) --------------------------------------------------------------


def test_gf4_frozen():
    # in GF(4) with modulus x^2 + x + 1: x . x = x + 1
    assert gf_mul(2, 2, 2) == 3
    assert gf_mul(2, 3, 2) == 1  # x (x + 1) = x^2 + x = 1
    assert gf_trace(0, 2) == 0
    assert gf_trace(1, 2) == 0  # Tr(1) = 1 + 1 = 0
    assert gf_trace(2, 2) == 1  # Tr(x) = x + x^2 = 1
    assert gf_trace(3, 2) == 1


def test_unsupported_field():
    with pytest.raises(UnsupportedFieldSize):
        gf_mul(1, 1, 9)
    with pytest.raises(UnsupportedFieldSize):
        build_partition(0)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_gf_is_a_field(p):
    n = 1 << p
    for a in range(n):
        assert gf_mul(a, 1, p) == a
        assert gf_mul(0, a, p) == 0
    # every nonzero row of the multiplication table is a permutation
    for a in range(1, n):
        row = {gf_mul(a, b, p) for b in range(n)}
        assert row == set(range(n))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4), st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_gf_ring_axioms(p, a, b, c):
    n = 1 << p
    a, b, c = a % n, b % n, c % n
    assert gf_mul(a, b, p) == gf_mul(b, a, p)
    assert gf_mul(gf_mul(a, b, p), c, p) == gf_mul(a, gf_mul(b, c, p), p)
    assert gf_mul(a, b ^ c, p) == gf_mul(a, b, p) ^ gf_mul(a, c, p)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4), st.integers(0, 15), st.integers(0, 15))
def test_gf_trace_properties(p, a, b):
    n = 1 << p
    a, b = a % n, b % n
    assert gf_trace(a ^ b, p) == gf_trace(a, p) ^ gf_trace(b, p)
    assert gf_trace(gf_mul(a, a, p), p) == gf_trace(a, p)  # Frobenius-invariant


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 4), st.integers(0, 15), st.integers(0, 15))
def test_coordinate_pairing(p, a, b):
    # dot(poly_coords(b), dual_coords(a)) = Tr(a b) mod 2
    n = 1 << p
    a, b = a % n, b % n
    u = poly_coords(b, p)
    v = dual_coords(a, p)
    dot = sum(x * y for x, y in zip(u, v)) % 2
    assert dot == gf_trace(gf_mul(a, b, p), p)


def test_dual_basis_frozen_p2():
    # dual of {1, x} in GF(4) is {1 + x, 1}
    assert dual_basis(2) == (3, 1)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_dual_basis_defining_identity(p):
    dual = dual_basis(p)
    for i in range(p):
        for j in range(p):
            want = 1 if i == j else 0
            assert gf_trace(gf_mul(1 << i, dual[j], p), p) == want


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
        assert list(cls.members) == sorted(cls.members, key=string_index)
        covered.update(cls.members)
    assert len(covered) == 4**p - 1
    assert covered == set(all_strings(p)) - {(0,) * p}


@pytest.mark.parametrize("p", [1, 2, 3])
def test_generators_span_class(p):
    part = build_partition(p)
    for cls in part.classes:
        spanned = set()
        for mask in range(1, 2**p):
            op = None
            for j in range(p):
                if (mask >> j) & 1:
                    g = cls.generators[j]
                    op = pauli_product(op, g) if op is not None else pauli_product(
                        g, (0,) * p
                    )
            spanned.add(op.digits)
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
        for a in cls.members:
            for b in cls.members:
                ma, mb = pauli_matrix(a), pauli_matrix(b)
                assert np.allclose(ma @ mb, mb @ ma, atol=0)
                assert commutes(a, b)


# --- validator catches corruption ------------------------------------------


def _cls(*labels):
    from werner.pauli import parse_label

    members = tuple(parse_label(s) for s in labels)
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
    res = validate_partition(with_id)
    assert any("identity" in msg for msg in res.problems)


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
        "class 2: member does not square to the identity",
    )
    mixed = Partition(1, (_cls("X"), _cls("Y"), CommutingClass(((3,), (3, 3)), ((3,),))))
    with pytest.raises(DimensionMismatch):
        validate_partition(mixed)


def test_generator_independence_check():
    from werner.partition import _independent_generators

    with pytest.raises(WernerError):
        _independent_generators([(3, 0), (3, 0)], 2)
