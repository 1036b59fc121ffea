"""Pauli strings against dense-matrix ground truth: the tests' Kronecker
products of I, X, Y and Z."""
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certificate_oracle import expand
from dense_reference import PHASE, pauli_matrices, realized
from werner.decompose import COMMUTING_CLASS, PER_STRING, _products, decompose_auto
from werner.errors import DimensionMismatch
from werner.model import WernerParams
from werner.partition import build_partition
from werner.pauli import (
    _XZ_BITS,
    DIGIT_LETTERS,
    all_strings,
    check_digits,
    format_label,
    masks,
)

digit_strings = st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple)


def _base4(s):
    return int("".join(map(str, s)), 4)


def _product(a, b):
    """sigma_a . sigma_b as (quarter turns, digits), from the single-factor PHASE table."""
    return sum(PHASE[x][y] for x, y in zip(a, b)) % 4, tuple(x ^ y for x, y in zip(a, b))


def test_single_factor_matrices():
    x, y, z = pauli_matrices([(1,), (2,), (3,)])
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
    assert np.array_equal(pauli_matrices([(1, 3)])[0], expect)


def test_product_xx_times_xz_frozen():
    # sigma_11 . sigma_13 = -i sigma_02
    assert _product((1, 1), (1, 3)) == (3, (0, 2))
    xx, xz, iy = pauli_matrices([(1, 1), (1, 3), (0, 2)])
    assert np.array_equal(xx @ xz, -1j * iy)


@settings(deadline=None)
@given(digit_strings, digit_strings)
def test_product_matches_dense(a, b):
    if len(a) != len(b):
        with pytest.raises(DimensionMismatch):
            masks([a, b])
        return
    turns, digits = _product(a, b)
    ma, mb, mc = pauli_matrices([a, b, digits])
    assert np.array_equal(ma @ mb, 1j**turns * mc)


@settings(deadline=None)
@given(digit_strings, digit_strings, digit_strings)
def test_product_associative(a, b, c):
    # the phase table is a cocycle: both bracketings carry the same phase
    if not len(a) == len(b) == len(c):
        return
    ab, bc = _product(a, b), _product(b, c)
    left, right = _product(ab[1], c), _product(a, bc[1])
    assert (ab[0] + left[0]) % 4 == (bc[0] + right[0]) % 4
    assert left[1] == right[1]


def test_every_string_squares_to_identity():
    for m in pauli_matrices(all_strings(2)):
        assert np.array_equal(m @ m, np.eye(4))


def test_commutes_matches_dense_exhaustively_p2():
    # the symplectic form on the int masks, as the class-sum check evaluates it
    strings = list(all_strings(2))
    _, x, z = masks(strings)
    m = pauli_matrices(strings)
    for i, ma in enumerate(m):
        for j, mb in enumerate(m):
            anti = ((x[i] & z[j]) ^ (x[j] & z[i])).bit_count() & 1
            assert (not anti) == np.allclose(ma @ mb, mb @ ma)


def test_commutes_rejects_unequal_lengths():
    with pytest.raises(DimensionMismatch):
        masks([(1,), (1, 3)])


@settings(deadline=None)
@given(digit_strings)
def test_symplectic_roundtrip(s):
    # the masks read back through the digit -> (x, z) table
    p, x, z = masks([s])
    bits = [(x[0] >> k & 1, z[0] >> k & 1) for k in range(len(s))][::-1]
    assert tuple(_XZ_BITS.index(xz) for xz in bits) == s
    assert p == len(s)


def test_y_count():
    # transposing sigma_s flips its sign iff s has an odd number of y digits
    for s, m in zip(all_strings(2), pauli_matrices(all_strings(2))):
        assert np.array_equal(m.T, (-1) ** s.count(2) * m), s


def test_labels_roundtrip():
    assert format_label((0, 1, 2, 3)) == "IXYZ"
    for s in all_strings(2):
        assert tuple(DIGIT_LETTERS.index(c) for c in format_label(s)) == s
    with pytest.raises(ValueError):
        format_label((4,))


@settings(deadline=None)
@given(digit_strings)
def test_index_roundtrip(s):
    # a string's place in all_strings is its base-4 value
    seq = list(all_strings(len(s)))
    assert seq.index(s) == _base4(s)
    assert seq[_base4(s)] == s


def test_all_strings_ordering():
    seq = list(all_strings(2))
    assert len(seq) == 16
    assert seq[0] == (0, 0)
    assert seq[-1] == (3, 3)
    assert [_base4(s) for s in seq] == list(range(16))
    with pytest.raises(ValueError):
        list(all_strings(0))


def test_check_digits_rejects_garbage():
    with pytest.raises(ValueError):
        check_digits(())
    with pytest.raises(ValueError):
        check_digits((4,))


def test_traces():
    # nontrivial strings are traceless; the identity string traces to 2^p
    m = pauli_matrices(all_strings(2))
    assert np.trace(m[0]) == 4
    for s in m[1:]:
        assert np.trace(s) == 0


def test_matrix_utilities():
    x, z = pauli_matrices([(1,), (3,)])
    assert np.array_equal(np.kron(x, z), pauli_matrices([(1, 3)])[0])


# --- the mask rule against the Kronecker product ------------------------------


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_realizer_matches_kron_for_every_string(p):
    # as masks a string is (-i)^(y count) Z^z X^x
    strings = list(all_strings(p))
    _, x, z = masks(strings)
    stack = realized(p, x, z, [(a & b).bit_count() for a, b in zip(x, z)])
    assert stack.shape == (4**p, 2**p, 2**p) and stack.dtype == complex
    for s, m, want in zip(strings, stack, pauli_matrices(strings)):
        assert np.array_equal(m, want), s


def test_masks_reject_mixed_lengths_and_bad_digits():
    with pytest.raises(DimensionMismatch):
        masks([(1,), (1, 3)])
    with pytest.raises(ValueError):
        masks([(1, 4)])


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_class_sums_are_bit_identical_to_kron_sums(p):
    n = 2**p
    chi = np.array([[(-1.0) ** bin(e & c).count("1") for c in range(1, n)] for e in range(n)])
    # at f = 1 the scale is 1, so term k n + e has the factor (I + T_e)/n of
    # class k, and n A - I is T_e exactly
    dec, eye = decompose_auto(WernerParams(p, 1.0), COMMUTING_CLASS), np.eye(n)
    assert dec.scale == 1.0
    x, z, t = _products(p, COMMUTING_CLASS)
    stack = realized(p, x, z, t).astype(np.complex64)
    for k, cls in enumerate(build_partition(p).classes):
        gens = pauli_matrices(cls.generators)
        # member c is the ordered product of the generators its bits select
        members = np.array(
            [reduce(np.matmul, (g for j, g in enumerate(gens) if c >> j & 1)) for c in range(1, n)]
        )
        want = np.tensordot(chi, members, 1).astype(np.complex64)
        assert np.array_equal(stack[k * (n - 1) : (k + 1) * (n - 1)], members)
        sums = np.array([n * t.state_a - eye for t in expand(dec)[k * n : (k + 1) * n]])
        assert sums.astype(np.complex64).tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_per_string_factors_are_bit_identical_to_kron_factors(p):
    d = 2**p
    eye = np.eye(d, dtype=complex)
    for f in (0.0, 0.3 * 2.0 ** (1 - p), 2.0 ** (1 - p)):  # flipped, flipped, scale 1
        dec = decompose_auto(WernerParams(p, f), PER_STRING)
        want = []
        for sig in pauli_matrices(list(all_strings(p))[1:]):
            plus, minus = (eye + dec.scale * sig) / d, (eye - dec.scale * sig) / d
            want += [(plus, minus), (minus, plus)] if d * f < 1 else [(plus, plus), (minus, minus)]
        assert len(want) == dec.n_terms
        for t, (a, b) in zip(expand(dec), want):
            assert t.state_a.tobytes() == a.tobytes() and t.state_b.tobytes() == b.tobytes()
