"""State constructions, the three spectrum routes, and the PPT boundary."""
import tracemalloc
import warnings
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import pauli_matrices, partial_transpose_b, two_buffer_invariance_residual
from werner.errors import DimensionMismatch, MalformedInput, PhysicalRangeError, WernerError
from werner.linalg import hermitian_eigensystem, hermitian_eigenvalues
from werner.model import (
    TRANSFORM_H,
    TRANSFORM_M,
    WernerParams,
    _CHUNK_BYTES,
    _conjugate_in_place,
    _eye_flip,
    _werner_values,
    invariance_residual,
    ppt_check,
    pt_spectrum_closed_form,
    random_unitary,
    spectrum_closed_form,
    spectrum_via_transform,
    spinor_coefficients,
    werner_dense,
    werner_spinor,
)
from werner.pauli import all_strings
from werner.rng import standard_normal

fs = st.floats(-1.0, 1.0, allow_nan=False)
ps = st.integers(1, 2)


def test_params_validation():
    with pytest.raises(ValueError):
        WernerParams(0, 0.5)
    with pytest.raises(ValueError):
        WernerParams(1.5, 0.5)
    with pytest.raises(ValueError):
        WernerParams(1, float("nan"))
    params = WernerParams(3, 0.25)
    assert params.d == 8
    with pytest.raises(ValueError):
        params._replace(p=0)
    assert params._replace(p=2.0, f=1) == (2, 1.0) and type(params._replace(p=2.0).p) is int
    assert params.require_physical() is params
    with pytest.raises(PhysicalRangeError):
        WernerParams(1, 1.0000001).require_physical()
    with pytest.raises(PhysicalRangeError):
        werner_dense(WernerParams(1, -1.1))


def _flip(d):
    """The swap P|i>|j> = |j>|i>, from the index writes werner_dense fills with."""
    return _eye_flip(d, (0.0, 1.0, 1.0))


def _pt(m, d):
    return partial_transpose_b(m, d, d)


def _expand(spec):
    """Every eigenvalue of a spectrum, each as often as its multiplicity."""
    return [v for v, m in spec.pairs for _ in range(m)]


def test_flip_operator_frozen():
    p2 = _flip(2)
    expect = np.zeros((4, 4))
    expect[0, 0] = expect[3, 3] = expect[1, 2] = expect[2, 1] = 1.0
    assert np.array_equal(p2, expect)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_flip_operator_algebra(d):
    p = _flip(d)
    assert np.array_equal(p @ p, np.eye(d * d))
    assert np.trace(p).real == d
    # swap acts as advertised on computational kets
    for i, j in [(0, 1), (1, 0), (d - 1, 0)]:
        ket = np.zeros(d * d)
        ket[i * d + j] = 1.0
        out = p @ ket
        assert out[j * d + i] == 1.0


def test_flip_equals_string_sum():
    # P = (1/d) sum_s sigma_s (x) sigma_s
    for p in (1, 2):
        d = 2**p
        acc = sum(np.kron(m, m) for m in pauli_matrices(all_strings(p)))
        assert np.allclose(acc / d, _flip(d), atol=1e-12)


def _reference_flip(d):
    # the swap as it was built before index writes: one entry per (i, j)
    p = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            p[j * d + i, i * d + j] = 1.0
    return p


def _reference_dense(params, flip):
    # the Werner state as the complex expression over dense I and P
    d, f = params.d, params.f
    eye = np.eye(d * d, dtype=complex)
    return ((d - f) * eye + (d * f - 1.0) * flip) / (d**3 - d)


@pytest.mark.parametrize("d", [2, 4, 8, 16, 32])
def test_flip_operator_is_the_loop_bit_for_bit(d):
    assert _flip(d).tobytes() == _reference_flip(d).tobytes()


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_werner_dense_is_the_expression_bit_for_bit(p):
    # a plain real division of the entries would differ in the last bit
    flip = _reference_flip(2**p)
    grid = [float(f) for f in np.linspace(-1.0, 1.0, 41)] + [2.0**-p, 1 / 3, -0.77]
    if p == 5:
        grid = grid[::4] + grid[-3:]
    for f in grid:
        params = WernerParams(p, f)
        assert werner_dense(params).tobytes() == _reference_dense(params, flip).tobytes(), f


def test_the_werner_values_are_the_complex_quotient_bit_for_bit():
    # Python floats a (1/(d^3 - d)) carry the bits of numpy's complex quotient
    # of the expression by d^3 - d; a plain a/(d^3 - d) differs at about a
    # third of these points
    for p in range(1, 6):
        d = 2**p
        for f in np.linspace(-1.0, 1.0, 3001).tolist():
            want = ((d - f) * np.array([1, 0, 1], dtype=complex)
                    + (d * f - 1.0) * np.array([0, 1, 1], dtype=complex)) / (d**3 - d)
            assert _werner_values(WernerParams(p, f)) == tuple(want.real.tolist()), (p, f)


@settings(deadline=None, max_examples=30)
@given(ps, fs)
def test_dense_and_spinor_agree(p, f):
    params = WernerParams(p, f)
    assert werner_dense(params).tobytes() == werner_spinor(params).tobytes()


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("f", [-1.0, -0.3, 0.0, "1/d", 0.77, 1.0])
def test_dense_and_spinor_agree_bit_for_bit(p, f):
    params = WernerParams(p, 1.0 / 2**p if f == "1/d" else f)
    assert werner_dense(params).tobytes() == werner_spinor(params).tobytes()


@settings(deadline=None, max_examples=30)
@given(ps, fs)
def test_state_is_valid_density_matrix(p, f):
    rho = werner_dense(WernerParams(p, f))
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rho, rho.conj().T, atol=1e-14)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


@settings(deadline=None, max_examples=30)
@given(ps, fs)
def test_extract_f_roundtrip(p, f):
    # f = Tr(rho P): the sum of the entries rho[(i, j), (j, i)]
    d = 2**p
    k = np.arange(d * d)
    rho = werner_dense(WernerParams(p, f))
    assert rho[k, k % d * d + k // d].sum().real == pytest.approx(f, abs=1e-12)


def test_spinor_coefficients_frozen():
    # p=1, f=0: (1/4, -1/12, -1/12, -1/12)
    a = spinor_coefficients(WernerParams(1, 0.0))
    assert np.allclose(a, [0.25, -1 / 12, -1 / 12, -1 / 12], atol=1e-15)
    # coefficient times string (x) string sums back to the state
    rho = sum(a[r] * np.kron(m, m) for r, m in enumerate(pauli_matrices(all_strings(1))))
    assert np.allclose(rho, werner_dense(WernerParams(1, 0.0)), atol=1e-14)


def test_spectrum_closed_form_frozen():
    # p=1: (1-f)/2 once, (1+f)/6 three times; ascending at f=0.2
    spec = spectrum_closed_form(WernerParams(1, 0.2))
    assert spec.multiplicities == (3, 1)
    assert spec.values[0] == pytest.approx(0.2, abs=1e-15)
    assert spec.values[1] == pytest.approx(0.4, abs=1e-15)


def test_singlet_spectrum():
    spec = spectrum_closed_form(WernerParams(1, -1.0))
    assert spec.pairs == ((0.0, 3), (1.0, 1))


def test_p2_f1_spectrum():
    spec = spectrum_closed_form(WernerParams(2, 1.0))
    assert spec.multiplicities == (6, 10)
    assert spec.values[0] == 0.0
    assert spec.values[1] == pytest.approx(0.1, abs=1e-15)


def test_degenerate_point_merges():
    # at f = 1/d both branches coincide at 1/d^2
    spec = spectrum_closed_form(WernerParams(2, 0.25))
    assert spec.pairs == ((0.0625, 16),)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 3), fs)
def test_transform_route_matches_closed_form(p, f):
    params = WernerParams(p, f)
    assert spectrum_via_transform(params).isclose(spectrum_closed_form(params), 1e-12)


@settings(deadline=None, max_examples=20)
@given(ps, fs)
def test_closed_form_matches_lapack(p, f):
    params = WernerParams(p, f)
    vals = np.linalg.eigvalsh(werner_dense(params))
    assert np.allclose(_expand(spectrum_closed_form(params)), vals, atol=1e-10)


@settings(deadline=None, max_examples=30)
@given(ps, fs)
def test_unit_trace_audit(p, f):
    params = WernerParams(p, f)
    for spec in (spectrum_closed_form(params), spectrum_via_transform(params)):
        assert abs(spec.weighted_sum() - 1.0) < 1e-10


@settings(deadline=None, max_examples=30)
@given(ps, fs)
def test_pt_routes_agree(p, f):
    # the swap's partial transpose is d times the maximally entangled projector
    params = WernerParams(p, f)
    d = params.d
    phi = np.eye(d).reshape(-1)
    closed = ((d - f) * np.eye(d * d) + (d * f - 1.0) * np.outer(phi, phi)) / (d**3 - d)
    assert np.allclose(_pt(werner_dense(params), d), closed, atol=1e-13)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("f", [-1.0, -0.3, 0.0, 0.25, 1.0])
def test_pt_equals_signed_string_sum_bitwise(p, f):
    # sigma_s^T = (-1)^(y count) sigma_s, and the string sum is exact
    params = WernerParams(p, f)
    d = params.d
    acc = sum(
        (-1.0 if s.count(2) % 2 else 1.0) * np.kron(m, m)
        for s, m in zip(all_strings(p), pauli_matrices(all_strings(p)))
    )
    eye = np.eye(d * d, dtype=complex)
    signed = ((d - f) * eye + ((d * f - 1.0) / d) * acc) / (2 ** (3 * p) - d)
    assert np.array_equal(_pt(werner_dense(params), d), signed)


def test_pt_spectrum_frozen_p2_f1():
    spec = pt_spectrum_closed_form(WernerParams(2, 1.0))
    assert spec.pairs[0][0] == pytest.approx(0.05, abs=1e-15)
    assert spec.pairs[0][1] == 15
    assert spec.pairs[1] == (0.25, 1)


@settings(deadline=None, max_examples=30)
@given(ps, fs)
def test_pt_spectrum_matches_lapack(p, f):
    params = WernerParams(p, f)
    vals = np.linalg.eigvalsh(_pt(werner_dense(params), params.d))
    closed = _expand(pt_spectrum_closed_form(params))
    assert np.allclose(closed, vals, atol=1e-10)


def test_ppt_boundary():
    for p in (1, 2, 3):
        assert not ppt_check(WernerParams(p, -0.01))
        assert ppt_check(WernerParams(p, 0.0))
        assert ppt_check(WernerParams(p, 0.01))
    with pytest.raises(PhysicalRangeError):
        ppt_check(WernerParams(1, 2.0))


def test_random_unitary_properties():
    u = random_unitary(4, 42)
    assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
    assert np.array_equal(u, random_unitary(4, 42))
    assert not np.allclose(u, random_unitary(4, 43))


# the seeds of the draws: 0..199, the edges of one and two 32-bit words, 60
# drawn ones, and seeds of up to thirteen words, whose words past the pool's
# four are mixed in last
_SEEDS = sorted(
    {*range(200), 2**31 - 1, 2**32 - 1, 2**32, 2**40 + 7, 2**63 + 5, 2**64 - 1,
     2**64 + 5, 2**96, 2**128 + 1, 2**200 + 12345}
    | {int(w) for w in np.random.default_rng(38).integers(1, 2**62, 60)}
    | {(7**k * 0x9E3779B97F4A7C15) % 2**k for k in range(70, 400, 7)}
)


def test_standard_normal_matches_numpy_bit_for_bit():
    assert len(_SEEDS) >= 300
    for seed in _SEEDS:
        want = np.random.default_rng(seed).standard_normal(640)
        assert np.array(standard_normal(seed, 640)).tobytes() == want.tobytes(), seed
    # n is a prefix of the stream, whatever n is
    assert standard_normal(5, 0) == []
    assert standard_normal(5, 3) == standard_normal(5, 10)[:3]


def test_standard_normal_matches_numpy_through_the_tail():
    # a million draws hold a few hundred beyond the ziggurat's base layer,
    # which only the log1p tail returns
    want = np.random.default_rng(2**64 + 5).standard_normal(10**6)
    got = np.array(standard_normal(2**64 + 5, 10**6))
    assert got.tobytes() == want.tobytes()
    assert (got < -3.6541528853610088).any() and (got > 3.6541528853610088).any()


def test_a_negative_seed_is_refused_as_numpy_refuses_it():
    for draw in (np.random.default_rng, lambda seed: standard_normal(seed, 1)):
        with pytest.raises(ValueError):
            draw(-1)


def _numpy_unitary(d, seed):
    """random_unitary as it is built on numpy.random."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z / sqrt(2.0))
    ph = np.diag(r).copy()
    return q * (ph / np.abs(ph))


@pytest.mark.parametrize("seed", [0, 42, 2**200 + 12345])
def test_random_unitary_is_the_numpy_construction(seed):
    for d in range(2, 33):
        assert random_unitary(d, seed).tobytes() == _numpy_unitary(d, seed).tobytes(), d


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("seed", [0, 7])
def test_invariance_under_uxu(p, seed):
    params = WernerParams(p, 0.37)
    assert invariance_residual(params, random_unitary(params.d, seed)) < 1e-12


def _residual(rho, u):
    """The probe on any rho: the in-place conjugation of a copy, minus rho."""
    x = np.array(rho, dtype=complex, order="C")
    _conjugate_in_place(x, u)
    x -= rho
    return sqrt(np.vdot(x, x).real)


def test_invariance_residual_detects_noninvariant_state():
    rho = np.diag([0.7, 0.1, 0.1, 0.1]).astype(complex)
    assert _residual(rho, random_unitary(2, 5)) > 1e-3


def _kron_residual(rho, u):
    # reference: explicit conjugation by the d^2 x d^2 matrix kron(u, u)
    w = np.kron(u, u)
    return np.linalg.norm(w @ rho @ w.conj().T - rho)


def _random_matrix(rng, n):
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_invariance_residual_matches_the_kron_conjugation(p):
    d = 2**p
    rng = np.random.default_rng(p)
    for seed in (0, 3):
        rho = _random_matrix(rng, d * d)
        u = random_unitary(d, seed)
        ref = _kron_residual(rho, u)
        assert ref > 1e-3
        assert abs(_residual(rho, u) - ref) <= 1e-12 * ref


def test_invariance_residual_reads_a_strided_view():
    rng = np.random.default_rng(9)
    big = _random_matrix(rng, 32)
    rho = big[::2, 1::2]
    assert not rho.flags.c_contiguous and not rho.flags.f_contiguous
    u = random_unitary(4, 1)
    ref = _kron_residual(rho, u)
    assert abs(_residual(rho, u) - ref) <= 1e-12 * ref
    assert _residual(rho.T, u) == pytest.approx(_kron_residual(rho.T, u), rel=1e-12)


def test_invariance_rejects_non_unitary():
    params = WernerParams(1, 0.0)
    with pytest.raises(WernerError):
        invariance_residual(params, np.ones((2, 2)))
    with pytest.raises(DimensionMismatch):
        invariance_residual(params, np.eye(3))
    with pytest.raises(DimensionMismatch):
        _conjugate_in_place(np.zeros((4, 4), dtype=complex), np.ones((2, 3)))


def test_invariance_rejects_a_nan_unitary():
    # a norm test of the form norm > 1e-9 is false for NaN
    params = WernerParams(1, 0.0)
    for u in (np.full((2, 2), np.nan), np.array([[1.0, 0.0], [0.0, np.nan]])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WernerError, match="non-finite"):
                invariance_residual(params, u)


def test_invariance_rejects_a_state_with_an_infinite_entry():
    rho = werner_dense(WernerParams(2, 0.3))
    u = random_unitary(4, 0)
    for bad in (np.inf, -np.inf, np.nan):
        broken = rho.copy()
        broken[5, 9] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(MalformedInput, match="matrix has non-finite entries"):
                _residual(broken, u)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_the_in_place_probe_keeps_the_two_buffer_bits(p):
    # Werner, non-Werner and strided inputs; the blocks of the in-place probe
    # must give every entry the bits of the whole products, and the Werner
    # probe, which subtracts the state's three values in place, the bits of
    # the whole difference
    d = 2**p
    rng = np.random.default_rng(p)
    params = [WernerParams(p, f) for f in (0.37, 0.02, -0.94, 1.0)]
    states = [werner_dense(params[0]), _random_matrix(rng, d * d)]
    for seed in (0, 3, 42):
        u = random_unitary(d, seed)
        for rho in states:
            for view in (rho, rho.T, rho[::-1]):
                assert _residual(view, u) == two_buffer_invariance_residual(view, u)
        for at in params:
            want = two_buffer_invariance_residual(werner_dense(at), u)
            assert invariance_residual(at, u) == want


def test_the_p5_probe_holds_one_working_copy():
    # the state, built into the buffer that is conjugated, and one block; the
    # caller holds no state (the two-buffer probe held the caller's state and
    # two copies)
    params = WernerParams(5, 0.3)
    u = random_unitary(32, 42)
    tracemalloc.start()
    try:
        invariance_residual(params, u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * params.d**4 + _CHUNK_BYTES + (1 << 17)


def test_kron_convention_consistency():
    # flip conjugation symmetry: P rho P = rho, using the same kron order
    params = WernerParams(2, 0.3)
    rho = werner_dense(params)
    p = _flip(4)
    assert np.allclose(p @ rho @ p, rho, atol=1e-14)
    u = random_unitary(4, 11)
    w = np.kron(u, u)
    assert np.allclose(w @ rho @ w.conj().T, rho, atol=1e-12)


# --- exact closed forms and the clustering they bypass ----------------------

F_GRID = (-1.0, -0.7, -0.3, 0.0, 0.2, 0.45, 0.6, 0.9, 1.0)  # avoids every 1/d


# from p = 12 the branches lie within an absolute 1e-8 of each other; the
# clustering is relative to the largest value, so they stay apart
@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 12, 13, 14, 20])
def test_closed_forms_are_the_formulas_bit_for_bit(p):
    d = 2**p
    for f in F_GRID:
        params = WernerParams(p, f)
        assert spectrum_closed_form(params).pairs == tuple(
            sorted(
                [
                    ((1.0 - f) / (d * (d - 1)), d * (d - 1) // 2),
                    ((1.0 + f) / (d * (d + 1)), d * (d + 1) // 2),
                ]
            )
        )
        assert pt_spectrum_closed_form(params).pairs == tuple(
            sorted([(f / d, 1), ((d - f) / (d * (d * d - 1)), d * d - 1)])
        )


def test_closed_forms_cost_nothing_in_p():
    params = WernerParams(40, 0.3)
    for spec in (spectrum_closed_form(params), pt_spectrum_closed_form(params)):
        assert sum(spec.multiplicities) == 4**40
        assert abs(spec.weighted_sum() - 1.0) < 1e-12


def test_ppt_check_compares_the_branches_unclustered():
    # ppt_check reads the sign of f/d from the unclustered branches, so its
    # verdict never depends on the spectrum's clustering tolerance
    assert not ppt_check(WernerParams(14, -1e-5), tol=0.0)
    assert not ppt_check(WernerParams(40, -0.5), tol=0.0)
    assert ppt_check(WernerParams(40, 0.0), tol=0.0)
    assert ppt_check(WernerParams(40, 0.0))


def _flat_clustering(values):
    """Spectrum clustering as it was before spectra kept pairs: sort every
    value, split where neighbours differ by more than 1e-8, average each run.
    Pairs come back with their values in hex so signed zeros count."""
    vals = sorted(float(v) for v in values)
    pairs = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > 1e-8:
            chunk = vals[start:i]
            pairs.append(((sum(chunk) / len(chunk)).hex(), len(chunk)))
            start = i
    return tuple(pairs)


def _hex_pairs(spec):
    return tuple((v.hex(), m) for v, m in spec.pairs)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_numeric_routes_cluster_as_before(p):
    d = 2**p
    kernel = (np.array(TRANSFORM_H) @ np.array(TRANSFORM_M)).astype(float)
    fs = [-1.0, -0.3, 0.0, 1 / d - 1e-9, 1 / d, 1 / d + 1e-9, 0.6, 1.0]
    for f in fs:
        params = WernerParams(p, f)
        t = spinor_coefficients(params).reshape((4,) * p)
        for axis in range(p):
            t = np.moveaxis(np.tensordot(kernel, t, axes=([1], [axis])), 0, axis)
        assert _hex_pairs(spectrum_via_transform(params)) == _flat_clustering(t.reshape(-1))
        if p <= 3:
            for m in (werner_dense(params), _pt(werner_dense(params), d)):
                vals, _ = hermitian_eigensystem(m)
                assert _hex_pairs(hermitian_eigenvalues(m)) == _flat_clustering(vals)
