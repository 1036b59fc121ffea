"""String algebra against dense-matrix ground truth."""
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from werner.decompose import _class_sums, per_string_decomposition
from werner.errors import DimensionMismatch
from werner.model import WernerParams
from werner.partition import build_partition
from werner.pauli import (
    PauliOperator,
    all_strings,
    check_digits,
    commutes,
    format_label,
    frobenius_distance,
    from_symplectic,
    index_string,
    parse_label,
    pauli_matrices,
    pauli_matrix,
    pauli_product,
    string_index,
    to_symplectic,
    y_count,
)

digit_strings = st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple)


def test_single_factor_matrices():
    x = pauli_matrix((1,))
    y = pauli_matrix((2,))
    z = pauli_matrix((3,))
    assert np.array_equal(x, np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(y, np.array([[0, -1j], [1j, 0]]))
    assert np.array_equal(z, np.array([[1, 0], [0, -1]], dtype=complex))
    # X Y = i Z
    assert np.array_equal(x @ y, 1j * z)


def test_pauli_matrix_xz_frozen():
    # digit 0 is the leftmost kron factor: (1,3) realizes X (x) Z
    expect = np.array(
        [
            [0, 0, 1, 0],
            [0, 0, 0, -1],
            [1, 0, 0, 0],
            [0, -1, 0, 0],
        ],
        dtype=complex,
    )
    assert np.array_equal(pauli_matrix((1, 3)), expect)


def test_product_xx_times_xz_frozen():
    # sigma_11 . sigma_13 = -i sigma_02
    prod = pauli_product((1, 1), (1, 3))
    assert prod == PauliOperator(3, (0, 2))
    dense = pauli_matrix((1, 1)) @ pauli_matrix((1, 3))
    assert np.array_equal(prod.matrix(), dense)


@settings(deadline=None)
@given(digit_strings, digit_strings)
def test_product_matches_dense(a, b):
    if len(a) != len(b):
        with pytest.raises(DimensionMismatch):
            pauli_product(a, b)
        return
    prod = pauli_product(a, b)
    assert np.allclose(prod.matrix(), pauli_matrix(a) @ pauli_matrix(b), atol=0)


@settings(deadline=None)
@given(digit_strings, digit_strings, digit_strings)
def test_product_associative(a, b, c):
    if not len(a) == len(b) == len(c):
        return
    left = pauli_product(pauli_product(a, b), c)
    right = pauli_product(a, pauli_product(b, c))
    assert left == right


def test_every_string_squares_to_identity():
    for s in all_strings(2):
        sq = pauli_product(s, s)
        assert sq.phase == 0
        assert sq.digits == (0, 0)


def test_commutes_matches_dense_exhaustively_p2():
    for a in all_strings(2):
        ma = pauli_matrix(a)
        for b in all_strings(2):
            mb = pauli_matrix(b)
            dense = np.allclose(ma @ mb, mb @ ma)
            assert commutes(a, b) == dense


def test_commutes_rejects_unequal_lengths():
    with pytest.raises(DimensionMismatch):
        commutes((1,), (1, 3))


@settings(deadline=None)
@given(digit_strings)
def test_symplectic_roundtrip(s):
    x, z = to_symplectic(s)
    assert from_symplectic(x, z) == s


def test_from_symplectic_length_check():
    with pytest.raises(DimensionMismatch):
        from_symplectic((0, 1), (1,))


def test_y_count():
    assert y_count((0, 2, 2, 3)) == 2
    assert y_count((1,)) == 0


def test_operator_phase_and_sign():
    op = PauliOperator(2, (3,))
    assert op.is_hermitian and op.sign == -1
    assert np.array_equal(op.matrix(), -pauli_matrix((3,)))
    with pytest.raises(ValueError):
        _ = PauliOperator(1, (3,)).sign


def test_labels_roundtrip():
    assert format_label((0, 1, 2, 3)) == "IXYZ"
    assert parse_label("IXYZ") == (0, 1, 2, 3)
    assert parse_label("ixyz") == (0, 1, 2, 3)
    assert parse_label("0123") == (0, 1, 2, 3)
    for bad in ("", "Q", "5"):
        with pytest.raises(ValueError):
            parse_label(bad)


@settings(deadline=None)
@given(digit_strings)
def test_index_roundtrip(s):
    assert index_string(string_index(s), len(s)) == s


def test_all_strings_ordering():
    seq = list(all_strings(2))
    assert len(seq) == 16
    assert seq[0] == (0, 0)
    assert seq[-1] == (3, 3)
    assert [string_index(s) for s in seq] == list(range(16))
    with pytest.raises(ValueError):
        list(all_strings(0))
    with pytest.raises(ValueError):
        index_string(16, 2)


def test_check_digits_rejects_garbage():
    with pytest.raises(ValueError):
        check_digits(())
    with pytest.raises(ValueError):
        check_digits((4,))


def test_traces():
    # nontrivial strings are traceless; the identity string traces to 2^p
    assert np.trace(pauli_matrix((0, 0))) == 4
    for s in all_strings(2):
        if s != (0, 0):
            assert np.trace(pauli_matrix(s)) == 0


def test_matrix_utilities():
    a = np.array([[1.0, 2.0j], [0.0, 1.0]])
    assert frobenius_distance(a, a) == 0.0
    with pytest.raises(DimensionMismatch):
        frobenius_distance(a, np.eye(3))
    two = np.kron(pauli_matrix((1,)), pauli_matrix((3,)))
    assert np.array_equal(two, pauli_matrix((1, 3)))


# --- the signed-permutation realizer against the Kronecker product ----------


_SINGLE_FACTOR = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def _kron_matrix(digits):
    """Reference realization: digit 0 is the leftmost Kronecker factor."""
    return reduce(np.kron, [_SINGLE_FACTOR[d] for d in digits])


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_realizer_matches_kron_for_every_string(p):
    strings = list(all_strings(p))
    stack = pauli_matrices(strings)
    assert stack.shape == (4**p, 2**p, 2**p) and stack.dtype == complex
    for s, m in zip(strings, stack):
        assert np.array_equal(m, _kron_matrix(s)), s
    assert np.array_equal(pauli_matrix(strings[-1]), _kron_matrix(strings[-1]))


def test_realizer_rejects_mixed_lengths_and_bad_digits():
    with pytest.raises(DimensionMismatch):
        pauli_matrices([(1,), (1, 3)])
    with pytest.raises(ValueError):
        pauli_matrices([(1, 4)])


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_class_sums_are_bit_identical_to_kron_sums(p):
    n = 2**p
    chi = np.array([[(-1.0) ** bin(e & c).count("1") for c in range(1, n)] for e in range(n)])
    identity = PauliOperator(0, (0,) * p)
    for cls in build_partition(p).classes:
        # member c is the ordered product of the generators its bits select
        ops = [
            reduce(pauli_product, (g for j, g in enumerate(cls.generators) if c >> j & 1), identity)
            for c in range(1, n)
        ]
        members = np.array([op.sign * _kron_matrix(op.digits) for op in ops])
        want = np.tensordot(chi, members, 1).astype(np.complex64)
        assert _class_sums(cls).tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_per_string_factors_are_bit_identical_to_kron_factors(p):
    d = 2**p
    eye = np.eye(d, dtype=complex)
    for f in (0.0, 0.3 * 2.0 ** (1 - p), 2.0 ** (1 - p)):  # flipped, flipped, scale 1
        dec = per_string_decomposition(WernerParams(p, f))
        want = []
        for s in list(all_strings(p))[1:]:
            sig = _kron_matrix(s)
            plus, minus = (eye + dec.scale * sig) / d, (eye - dec.scale * sig) / d
            want += [(plus, minus), (minus, plus)] if d * f < 1 else [(plus, plus), (minus, minus)]
        assert len(want) == dec.n_terms
        for t, (a, b) in zip(dec.terms, want):
            assert t.state_a.tobytes() == a.tobytes() and t.state_b.tobytes() == b.tobytes()
