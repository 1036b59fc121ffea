"""Eigensolver and spectrum bookkeeping against numpy's LAPACK oracle."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from werner.errors import ConvergenceError, DimensionMismatch
from werner.linalg import (
    Spectrum,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    partial_transpose_b,
)


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (z + z.conj().T)


# --- Spectrum -----------------------------------------------------------


def test_spectrum_clustering():
    spec = Spectrum.from_values([2.0, 1.0, 1.0 + 1e-9])
    assert spec.multiplicities == (2, 1)
    assert spec.values[0] == pytest.approx(1.0 + 5e-10)
    assert spec.values[1] == 2.0


def test_spectrum_from_pairs_merges_ties():
    spec = Spectrum.from_pairs([(1.0, 2), (1.0 + 1e-12, 1), (3.0, 1)])
    assert spec.multiplicities == (3, 1)
    with pytest.raises(ValueError):
        Spectrum.from_pairs([(1.0, -1)])
    with pytest.raises(ValueError):
        Spectrum.from_values([])


def test_from_pairs_keeps_lone_pairs_and_weights_merged_ones():
    third = 1.0 / 3.0
    spec = Spectrum.from_pairs([(0.5, 7), (third, 10**30), (third + 3e-9, 2)])
    merged = (third * 10**30 + (third + 3e-9) * 2) / (10**30 + 2)
    assert spec.pairs == ((merged, 10**30 + 2), (0.5, 7))
    # a zero eigenvalue never comes out as -0.0
    (zero,) = Spectrum.from_pairs([(-0.0, 1), (1.0, 0)]).pairs
    assert zero[0].hex() == "0x0.0p+0" and zero[1] == 1


def test_spectrum_accessors():
    spec = Spectrum.from_pairs([(0.25, 2), (0.5, 1)])
    assert spec.weighted_sum() == pytest.approx(1.0)
    assert spec.min() == 0.25
    assert spec.flatten() == (0.25, 0.25, 0.5)
    assert spec.isclose(Spectrum.from_pairs([(0.25 + 1e-10, 2), (0.5, 1)]))
    # multiplicities must match exactly, values only within tolerance
    assert not spec.isclose(Spectrum.from_pairs([(0.25, 1), (0.5, 2)]))
    assert not spec.isclose(Spectrum.from_pairs([(0.25, 2), (0.6, 1)]))


# --- Jacobi eigensolver --------------------------------------------------


def test_real_symmetric_frozen():
    vals, _ = hermitian_eigensystem(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(vals, [1.0, 3.0], atol=1e-12)


def test_complex_hermitian_frozen():
    vals, _ = hermitian_eigensystem(np.array([[1.0, 1j], [-1j, 1.0]]))
    assert np.allclose(vals, [0.0, 2.0], atol=1e-12)


def test_one_by_one():
    vals, vecs = hermitian_eigensystem(np.array([[7.0]]), compute_vectors=True)
    assert vals[0] == 7.0
    assert vecs[0, 0] == 1.0


def test_diagonal_input_untouched():
    vals, _ = hermitian_eigensystem(np.diag([3.0, -1.0, 2.0]))
    assert np.array_equal(vals, [-1.0, 2.0, 3.0])


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 8), st.integers(0, 10_000))
def test_jacobi_matches_lapack(n, seed):
    a = random_hermitian(n, seed)
    vals, _ = hermitian_eigensystem(a)
    assert np.allclose(vals, np.linalg.eigvalsh(a), atol=1e-9)


@settings(deadline=None, max_examples=20)
@given(st.integers(2, 8), st.integers(0, 10_000))
def test_jacobi_eigenvectors(n, seed):
    a = random_hermitian(n, seed)
    vals, vecs = hermitian_eigensystem(a, compute_vectors=True)
    assert np.allclose(vecs.conj().T @ vecs, np.eye(n), atol=1e-9)
    for k in range(n):
        assert np.allclose(a @ vecs[:, k], vals[k] * vecs[:, k], atol=1e-8)


def test_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        hermitian_eigensystem(np.ones((2, 3)))


def test_sweep_exhaustion_raises():
    a = random_hermitian(4, 1)
    with pytest.raises(ConvergenceError) as exc:
        hermitian_eigensystem(a, max_sweeps=0)
    assert exc.value.residual > 0


def test_eigenvalue_helpers():
    a = np.diag([0.5, 0.5, -0.25])
    spec = hermitian_eigenvalues(a)
    assert spec.pairs == ((-0.25, 1), (0.5, 2))


# --- partial transpose ----------------------------------------------------


def pt_oracle(m, d_a, d_b):
    out = np.zeros_like(m)
    for i in range(d_a):
        for j in range(d_b):
            for k in range(d_a):
                for l in range(d_b):
                    out[i * d_b + j, k * d_b + l] = m[i * d_b + l, k * d_b + j]
    return out


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 3), st.integers(2, 3), st.integers(0, 1000))
def test_partial_transpose_matches_oracle(d_a, d_b, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((d_a * d_b, d_a * d_b)) + 1j * rng.standard_normal(
        (d_a * d_b, d_a * d_b)
    )
    assert np.array_equal(partial_transpose_b(m, d_a, d_b), pt_oracle(m, d_a, d_b))


def test_partial_transpose_involution():
    m = random_hermitian(6, 3)
    assert np.array_equal(partial_transpose_b(partial_transpose_b(m, 2, 3), 2, 3), m)


def test_partial_transpose_of_bell_projector():
    # the maximally entangled projector has PT eigenvalues {-1/2, 1/2 x3}
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    vals = np.linalg.eigvalsh(partial_transpose_b(rho, 2, 2))
    assert np.allclose(vals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_shape_check():
    with pytest.raises(DimensionMismatch):
        partial_transpose_b(np.eye(6), 2, 2)
