"""Eigensolver and spectrum bookkeeping against numpy's LAPACK oracle, and
the stacked Jacobi kernel against the per-matrix loop it replaced."""
import warnings
from math import atan2, cos, sin

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certificate_oracle import from_terms
from dense_reference import partial_transpose_b
from werner.decompose import _CHUNK_BYTES, COMMUTING_CLASS, PER_STRING, decompose_auto
from werner.errors import ConvergenceError, DimensionMismatch, MalformedInput
from werner.linalg import Spectrum, hermitian_eigensystem, hermitian_eigenvalues
from werner.model import WernerParams
from werner.verify import _eigensystems, verify_decomposition


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
    # the tolerance is 1e-10: one entry moved 1e-9 (1.4e-9 from the adjoint)
    # is refused, and one moved 1e-11 is noise that the symmetrization removes
    with pytest.raises(MalformedInput, match="not Hermitian"):
        hermitian_eigensystem(np.array([[1.0, 1e-9], [0.0, 1.0]]))
    vals, _ = hermitian_eigensystem(np.array([[1.0, 1e-11], [0.0, 1.0]]))
    assert vals.tolist() == pytest.approx([1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        hermitian_eigensystem(np.ones((2, 3)))


def test_sweep_exhaustion_raises(monkeypatch):
    a = random_hermitian(4, 1)
    monkeypatch.setattr("werner.linalg._MAX_SWEEPS", 0)
    with pytest.raises(ConvergenceError) as exc:
        hermitian_eigensystem(a)
    assert exc.value.residual > 0


def test_eigenvalue_helpers():
    a = np.diag([0.5, 0.5, -0.25])
    spec = hermitian_eigenvalues(a)
    assert spec.pairs == ((-0.25, 1), (0.5, 2))


# --- stacked kernel against the per-matrix loop ----------------------------


def _reference_eigensystem(a, tol=1e-12, max_sweeps=100, compute_vectors=False):
    """The per-matrix cyclic Jacobi loop, one pivot at a time in Python: the
    reference whose bits the stacked kernel must reproduce."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    work = 0.5 * (a + a.conj().T)
    vecs = np.eye(n, dtype=complex) if compute_vectors else None
    if n == 1:
        return np.array([work[0, 0].real]), vecs

    def offdiag_norm(w):
        return float(np.sqrt(np.sum(np.abs(w - np.diag(np.diag(w))) ** 2)))

    pivot_floor = tol / (2.0 * n * n)
    off = offdiag_norm(work)
    for _ in range(max_sweeps):
        if off <= tol:
            break
        for i in range(n - 1):
            for j in range(i + 1, n):
                beta = work[i, j]
                absb = abs(beta)
                if absb <= pivot_floor:
                    continue
                theta = 0.5 * atan2(2.0 * absb, work[i, i].real - work[j, j].real)
                c = cos(theta)
                s = sin(theta)
                e = beta / absb
                se = s * e
                sec = s * e.conjugate()
                col_i = work[:, i].copy()
                col_j = work[:, j]
                work[:, i] = c * col_i + sec * col_j
                work[:, j] = -se * col_i + c * col_j
                row_i = work[i, :].copy()
                row_j = work[j, :]
                work[i, :] = c * row_i + se * row_j
                work[j, :] = -sec * row_i + c * row_j
                work[i, j] = 0.0
                work[j, i] = 0.0
                if vecs is not None:
                    v_i = vecs[:, i].copy()
                    v_j = vecs[:, j]
                    vecs[:, i] = c * v_i + sec * v_j
                    vecs[:, j] = -se * v_i + c * v_j
        off = offdiag_norm(work)
    if off > tol:
        raise ConvergenceError(f"residual {off:.3e}", residual=off)
    vals = np.real(np.diag(work))
    order = np.argsort(vals, kind="stable")
    return vals[order], None if vecs is None else vecs[:, order]


def _assert_loop_bits(matrix, vals, vecs):
    ref_vals, ref_vecs = _reference_eigensystem(matrix, compute_vectors=vecs is not None)
    assert vals.tobytes() == ref_vals.tobytes()
    if vecs is not None:
        assert vecs.tobytes() == ref_vecs.tobytes()


def _mixed_stack(n, count, seed):
    """Dense members that need several sweeps, interleaved with diagonal ones
    (settled before the first sweep), scaled identities and degenerate
    spectra in a random basis."""
    rng = np.random.default_rng(seed)
    stack = np.array([random_hermitian(n, int(s)) for s in rng.integers(0, 10**6, count)])
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    degenerate = np.repeat([0.25, 0.5], (n + 1) // 2)[:n]
    stack[::4] = np.diag(rng.standard_normal(n))
    stack[1::4] = 0.25 * np.eye(n)
    stack[2::8] = q @ np.diag(degenerate) @ q.conj().T
    return stack


@pytest.mark.parametrize("scheme", [PER_STRING, COMMUTING_CLASS])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_certificate_factors_match_the_loop_bit_for_bit(p, scheme):
    # the verifier's own path: distinct factors, chunked stacks
    f = 0.3 * 2.0**-p if scheme == PER_STRING else 0.6
    dec = decompose_auto(WernerParams(p, f), scheme)
    for compute_vectors in (True,) if p == 5 else (False, True):
        rows, vals, vecs = _eigensystems(dec, compute_vectors)
        assert len(vals) == len({m.tobytes() for m in dec.factors})
        for mat, k in zip(dec.factors, rows, strict=True):
            _assert_loop_bits(mat, vals[k], None if vecs is None else vecs[k])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_mixed_stack_matches_the_loop_bit_for_bit(n):
    stack = _mixed_stack(n, 24, seed=n)
    for compute_vectors in (False, True):
        vals, vecs = hermitian_eigensystem(stack, compute_vectors=compute_vectors)
        assert vals.shape == (24, n)
        for k, matrix in enumerate(stack):
            _assert_loop_bits(matrix, vals[k], None if vecs is None else vecs[k])
        # a 2-D call is a stack of one
        one_vals, one_vecs = hermitian_eigensystem(stack[5], compute_vectors=compute_vectors)
        assert one_vals.tobytes() == vals[5].tobytes()
        if compute_vectors:
            assert one_vecs.tobytes() == vecs[5].tobytes()


def _sparse_coupled(rng, n, pairs):
    # a random diagonal with random couplings at the given pairs: a few
    # rotations per sweep
    m = np.diag(rng.random(n)).astype(complex)
    for i, j in pairs:
        z = 0.1 * complex(rng.standard_normal(), rng.standard_normal())
        m[i, j] += z
        m[j, i] += z.conjugate()
    return m


def test_component_stats_chunks_each_shape(monkeypatch):
    # 8x8 factors of two nonzero patterns: 5 dense ones, each repeated, and
    # 2 chunks + 3 of sparse ones, since stacks split at a chunk's end and at
    # a pattern change
    rng = np.random.default_rng(11)
    chunk = _CHUNK_BYTES // (16 * 8 * 8)
    dense = [random_hermitian(8, s) for s in range(5)]
    pairs = [rng.choice(8, 2, replace=False) for _ in range(3)]
    sparse = [_sparse_coupled(rng, 8, pairs) for _ in range(2 * chunk + 3)]
    terms = [(1.0 / len(sparse), dense[k % 5], b, f"t{k}") for k, b in enumerate(sparse)]
    dec = from_terms(WernerParams(3, 0.5), PER_STRING, 0.0, terms)

    stacks = []

    def counting(a, *args, **kwargs):
        stacks.append(a.shape)
        return hermitian_eigensystem(a, *args, **kwargs)

    monkeypatch.setattr("werner.verify.hermitian_eigensystem", counting)
    report = verify_decomposition(np.zeros((64, 64)), dec)
    assert sorted(stacks) == sorted([(5, 8, 8), (chunk, 8, 8), (chunk, 8, 8), (3, 8, 8)])

    ref = [_reference_eigensystem(m)[0] for m in dense + sparse]
    assert report.min_component_eigenvalue == min(float(v[0]) for v in ref)
    assert report.max_purity_deviation == max(abs(float(np.sum(v * v)) - 1.0) for v in ref)
    rows, vals, vecs = _eigensystems(dec, compute_vectors=True)
    for mat, k in zip(dec.factors, rows, strict=True):
        _assert_loop_bits(mat, vals[k], vecs[k])


@pytest.mark.parametrize("vector_above", [True, False])
def test_pivot_at_the_floor_is_decided_by_the_scalar_abs(vector_above, monkeypatch):
    # numpy's vector abs of z and the scalar abs differ in the last bit, and
    # the pivot floor tol / 18 of a 3x3 is the smaller of the two: the loop
    # skips that pivot when the scalar abs is the floor, else rotates it
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        z = complex(rng.standard_normal(), rng.standard_normal())
        scalar, vector = abs(z), float(np.abs(np.array([z]))[0])
        floor = min(scalar, vector)
        tol = floor * 18.0
        if (vector > scalar) == vector_above and scalar != vector and tol / 18.0 == floor:
            break
    else:
        pytest.fail("no candidate found")
    big = 20.0 * floor  # so the first sweep runs
    a = np.array([[1.0, z, 0.0], [z.conjugate(), 2.0, big], [0.0, big, 3.0]])
    monkeypatch.setattr("werner.linalg._TOL", tol)
    vals, vecs = hermitian_eigensystem(np.array([a, a]), compute_vectors=True)
    ref_vals, ref_vecs = _reference_eigensystem(a, tol=tol, compute_vectors=True)
    for k in range(2):
        assert vals[k].tobytes() == ref_vals.tobytes()
        assert vecs[k].tobytes() == ref_vecs.tobytes()


def test_stack_rejects_a_bad_member_up_front():
    stack = _mixed_stack(4, 6, seed=1)
    bad = stack.copy()
    bad[4, 0, 1] += 1.0
    with pytest.raises(MalformedInput, match="not Hermitian"):
        hermitian_eigensystem(bad)
    for value in (np.nan, np.inf):
        bad = stack.copy()
        bad[2, 1, 3] = bad[2, 3, 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning first
            with pytest.raises(MalformedInput, match="non-finite"):
                hermitian_eigensystem(bad)
            with pytest.raises(MalformedInput, match="non-finite"):
                hermitian_eigensystem(bad[2])
    for shape in ((3, 2, 4), (0, 0), (2, 0, 0), (2, 2, 2, 2)):
        with pytest.raises(DimensionMismatch):
            hermitian_eigensystem(np.zeros(shape))


def test_stack_exhaustion_reports_the_largest_residual(monkeypatch):
    stack = np.array([np.diag([1.0, 2.0, 3.0]), random_hermitian(3, 1), random_hermitian(3, 2)])
    monkeypatch.setattr("werner.linalg._MAX_SWEEPS", 0)
    with pytest.raises(ConvergenceError) as exc:
        hermitian_eigensystem(stack)
    offs = [np.linalg.norm(m - np.diag(np.diag(m))) for m in stack]
    assert exc.value.residual == pytest.approx(max(offs), rel=1e-12)
    assert exc.value.residual > 0
    # the diagonal member alone is settled before any sweep
    vals, _ = hermitian_eigensystem(stack[:1])
    assert vals.tolist() == [[1.0, 2.0, 3.0]]


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
