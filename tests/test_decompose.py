"""Product-state decompositions: construction, ranges, reconstruction."""
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from werner.decompose import (
    _CHUNK_BYTES,
    _class_sums,
    COMMUTING_CLASS,
    PER_STRING,
    Decomposition,
    ProductTerm,
    class_decomposition,
    class_range,
    decompose_auto,
    per_string_decomposition,
    per_string_range,
    reconstruct,
)
from werner.errors import SchemeRangeError
from werner.linalg import Spectrum, hermitian_eigenvalues
from werner.model import WernerParams, werner_dense
from werner.partition import CommutingClass, build_partition
from werner.pauli import pauli_matrices
from werner.verify import refine_to_pure


def test_ranges():
    assert per_string_range(1) == (0.0, 1.0)
    assert per_string_range(2) == (0.0, 0.5)
    assert per_string_range(3) == (0.0, 0.25)
    assert class_range(1) == (0.5, 1.0)
    assert class_range(2) == (0.25, 1.0)


def test_per_string_component_frozen():
    # p = 1, f = 0.625: scale sqrt(2 f - 1) = 1/2, first term (I + X/2)/2
    dec = per_string_decomposition(WernerParams(1, 0.625))
    assert dec.scale == 0.5
    comp = dec.terms[0].state_a
    assert np.array_equal(comp, np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex))


def test_per_string_structure_p1():
    dec = per_string_decomposition(WernerParams(1, 0.0))
    assert dec.scheme == PER_STRING
    assert dec.n_terms == 6
    assert dec.scale == 1.0
    assert set(dec.weights) == {1 / 6}
    assert [t.label for t in dec.terms] == [
        "per_string:X:+",
        "per_string:X:-",
        "per_string:Y:+",
        "per_string:Y:-",
        "per_string:Z:+",
        "per_string:Z:-",
    ]
    # at scale 1 the components are rank-1 projectors
    for t in dec.terms:
        assert np.allclose(t.state_a @ t.state_a, t.state_a, atol=1e-14)


def test_per_string_sign_flip_below_boundary():
    # f < 1/d: the B factor takes the opposite sign to absorb the negative
    # expansion coefficient
    dec = per_string_decomposition(WernerParams(2, 0.1))
    for t in dec.terms:
        assert not np.array_equal(t.state_a, t.state_b)
    # f > 1/d (forced): both factors identical
    dec = per_string_decomposition(WernerParams(2, 0.4), force=True)
    for t in dec.terms:
        assert t.state_a is t.state_b or np.array_equal(t.state_a, t.state_b)


def test_per_string_range_enforcement():
    with pytest.raises(SchemeRangeError) as exc:
        per_string_decomposition(WernerParams(2, 0.6))
    assert exc.value.valid_range == (0.0, 0.5)
    assert exc.value.f == 0.6
    # force bypasses the gate; the verifier is the authority on positivity
    dec = per_string_decomposition(WernerParams(2, 0.6), force=True)
    assert dec.scale > 1.0


def test_class_structure_p2():
    dec = class_decomposition(WernerParams(2, 1.0))
    assert dec.scheme == COMMUTING_CLASS
    assert dec.n_terms == 20
    assert set(dec.weights) == {0.05}
    assert dec.scale == 1.0
    assert dec.terms[0].label == "class:0:00"
    assert dec.terms[3].label == "class:0:11"
    assert dec.terms[19].label == "class:4:11"
    # every factor pair is the same object (symmetric scheme)
    for t in dec.terms:
        assert t.state_a is t.state_b


def test_class_components_are_projectors_at_f1():
    dec = class_decomposition(WernerParams(2, 1.0))
    for t in dec.terms:
        c = t.state_a
        assert np.allclose(c @ c, c, atol=1e-13)
        assert np.trace(c).real == pytest.approx(1.0, abs=1e-13)


def test_class_boundary_is_maximally_mixed():
    dec = class_decomposition(WernerParams(2, 0.25))
    assert dec.scale == 0.0
    for t in dec.terms:
        assert np.array_equal(t.state_a, np.eye(4) / 4)


def test_class_range_enforcement():
    with pytest.raises(SchemeRangeError):
        class_decomposition(WernerParams(2, 0.1))
    # the scale is undefined below 1/d even when forced
    with pytest.raises(SchemeRangeError):
        class_decomposition(WernerParams(2, 0.1), force=True)
    dec = class_decomposition(WernerParams(2, 0.3), force=False)
    assert dec.scale == pytest.approx(sqrt((4 * 0.3 - 1) / 3))


def test_class_component_validation():
    dec = class_decomposition(WernerParams(2, 0.5))
    for t in dec.terms:
        comp = t.state_a
        assert np.allclose(comp, comp.conj().T, atol=0)
        assert np.trace(comp).real == pytest.approx(1.0)


def test_class_component_signs():
    # pure-Z class of p=1: label bits 0 give (I + s Z)/2, bits 1 the flip
    dec = class_decomposition(WernerParams(1, 0.745))
    s = dec.scale
    (z,) = pauli_matrices([(3,)])
    assert [t.label for t in dec.terms[:2]] == ["class:0:0", "class:0:1"]
    assert np.allclose(dec.terms[0].state_a, (np.eye(2) + s * z) / 2, atol=0)
    assert np.allclose(dec.terms[1].state_a, (np.eye(2) - s * z) / 2, atol=0)


def test_class_component_refuses_anticommuting_generators():
    # X and Z anticommute, so no sign pattern makes (I +- X)(I +- Z) Hermitian
    cls = CommutingClass(((1, 0), (3, 0), (2, 0)), ((1, 0), (3, 0)))
    with pytest.raises(ValueError, match="do not pairwise commute"):
        _class_sums(cls)


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 2), st.floats(0, 1, allow_nan=False))
def test_per_string_reconstructs_everywhere(p, f):
    # the algebraic identity holds for every f in [0, 1]; only positivity
    # of the factors breaks outside the scheme range
    params = WernerParams(p, f)
    dec = per_string_decomposition(params, force=True)
    assert np.allclose(reconstruct(dec), werner_dense(params), atol=1e-12)
    assert sum(dec.weights) == pytest.approx(1.0, abs=1e-12)


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 2), st.floats(0, 1, allow_nan=False))
def test_class_reconstructs_on_range(p, f):
    lo, hi = class_range(p)
    f = lo + (hi - lo) * f
    params = WernerParams(p, f)
    dec = class_decomposition(params)
    assert np.allclose(reconstruct(dec), werner_dense(params), atol=1e-12)
    assert sum(dec.weights) == pytest.approx(1.0, abs=1e-12)


def test_auto_scheme_selection():
    assert decompose_auto(WernerParams(2, 0.0)).scheme == PER_STRING
    assert decompose_auto(WernerParams(2, 0.2499)).scheme == PER_STRING
    # the boundary itself goes to the class scheme
    assert decompose_auto(WernerParams(2, 0.25)).scheme == COMMUTING_CLASS
    assert decompose_auto(WernerParams(2, 1.0)).scheme == COMMUTING_CLASS


def test_auto_rejects_negative_f():
    with pytest.raises(SchemeRangeError) as exc:
        decompose_auto(WernerParams(1, -0.25))
    assert exc.value.valid_range == (0.0, 1.0)


def _component_pairs(scheme, p, scale):
    """Closed-form component eigenvalues: (I +- s sigma)/d and (I + s T)/d."""
    d = 2**p
    if scheme == PER_STRING:
        return [((1.0 - scale) / d, d // 2), ((1.0 + scale) / d, d // 2)]
    return [((1.0 - scale) / d, d - 1), ((1.0 + (d - 1) * scale) / d, 1)]


def test_component_spectrum_matches_dense():
    for scheme, p, f in [
        (PER_STRING, 2, 0.05),
        (PER_STRING, 1, 0.4),
        (COMMUTING_CLASS, 2, 0.6),
        (COMMUTING_CLASS, 1, 0.9),
    ]:
        dec = decompose_auto(WernerParams(p, f), scheme)
        closed = Spectrum.from_pairs(_component_pairs(scheme, p, dec.scale))
        for t in dec.terms[:3]:
            assert hermitian_eigenvalues(t.state_a).isclose(closed, 1e-9)


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_component_spectrum_is_the_formula_bit_for_bit(p):
    # the formula holds because sigma^2 = I with tr sigma = 0 (eigenvalues
    # +-1, d/2 each) and T^2 = (d - 2) T + (d - 1) I with tr T = 0 (d - 1
    # once, -1 d - 1 times); both identities hold exactly in floating point
    d = 2**p
    eye = np.eye(d)
    for sigma in pauli_matrices([(k,) * p for k in (1, 2, 3)]):
        assert np.array_equal(sigma @ sigma, eye) and np.trace(sigma) == 0
    for cls in (build_partition(p).classes[0], build_partition(p).classes[-1]):
        for t in _class_sums(cls).astype(complex):
            assert np.array_equal(t @ t, (d - 2) * t + (d - 1) * eye)
            assert np.trace(t) == 0


def test_reconstruct_requires_terms():
    with pytest.raises(ValueError):
        reconstruct(Decomposition(WernerParams(1, 0.5), PER_STRING, 0.0, ()))


def _loop_class_sum(cls, e):
    # reference: T_eps accumulated member by member, as a plain loop; member c
    # is the ordered product of the generators its bits select
    gens = pauli_matrices(cls.generators)
    acc = np.zeros((2**cls.p, 2**cls.p), dtype=complex)
    for c in range(1, 2**cls.p):
        member = np.eye(2**cls.p, dtype=complex)
        for j in range(cls.p):
            if (c >> j) & 1:
                member = member @ gens[j]
        chi = -1 if bin(c & e).count("1") % 2 else 1
        acc += chi * member
    return acc


def test_class_sums_are_built_once_and_read_only():
    for p in (1, 2, 3):
        for cls in build_partition(p).classes:
            sums = _class_sums(cls)
            assert _class_sums(cls) is sums
            with pytest.raises(ValueError):
                sums[0, 0, 0] = 1.0
            for e in range(2**p):
                assert np.array_equal(sums[e], _loop_class_sum(cls, e))


def _same_terms(a, b):
    return (a.scheme, a.scale, a.weights) == (b.scheme, b.scale, b.weights) and all(
        s.label == t.label
        and np.array_equal(s.state_a, t.state_a)
        and np.array_equal(s.state_b, t.state_b)
        for s, t in zip(a.terms, b.terms, strict=True)
    )


@pytest.mark.parametrize("p", [1, 2, 3])
def test_shared_paths_are_bit_identical(p):
    part = build_partition(p)
    dec = class_decomposition(WernerParams(p, 0.9))
    eye = np.eye(2**p, dtype=complex)
    for e, term in enumerate(dec.terms):
        _, k, bits = term.label.split(":")
        cls = part.classes[int(k)]
        mask = sum(int(b) << j for j, b in enumerate(bits))  # label bit j is eps_j
        comp = (eye + dec.scale * _class_sums(cls)[mask].astype(complex)) / 2**p
        assert np.array_equal(comp, term.state_a)
        loop = (eye + dec.scale * _loop_class_sum(cls, e % 2**p)) / 2**p
        assert np.array_equal(loop, term.state_a)

    low, high = WernerParams(p, 2.0**-p / 2), WernerParams(p, 0.9)
    assert _same_terms(decompose_auto(low, PER_STRING), per_string_decomposition(low))
    assert _same_terms(decompose_auto(high, COMMUTING_CLASS), class_decomposition(high))
    assert _same_terms(decompose_auto(low, "auto"), per_string_decomposition(low))
    assert _same_terms(decompose_auto(high), class_decomposition(high))

    # an explicit scheme keeps its builder's range error, not auto's [0, 1]
    for scheme, builder, f in (
        (PER_STRING, per_string_decomposition, -0.5),
        (COMMUTING_CLASS, class_decomposition, 0.0),
    ):
        with pytest.raises(SchemeRangeError) as direct:
            builder(WernerParams(p, f))
        with pytest.raises(SchemeRangeError) as dispatched:
            decompose_auto(WernerParams(p, f), scheme)
        assert str(dispatched.value) == str(direct.value)
        assert dispatched.value.valid_range == direct.value.valid_range
    with pytest.raises(ValueError):
        decompose_auto(high, "bogus")


def _loop_reconstruct(dec):
    # reference: one kron per term, accumulated in term order
    first = dec.terms[0]
    dim = first.state_a.shape[0] * first.state_b.shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    for t in dec.terms:
        acc += t.weight * np.kron(t.state_a, t.state_b)
    return acc


def _random_state(rng, d):
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def _hand_built(da, db, n_terms, seed=0):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n_terms))
    terms = tuple(
        ProductTerm(w, _random_state(rng, da), _random_state(rng, db), f"t{k}")
        for k, w in enumerate(weights)
    )
    return Decomposition(WernerParams(1, 0.5), PER_STRING, 0.0, terms)


def _chunk_terms(da, db):
    # reconstruct's chunk: at least _CHUNK_BYTES, else a quarter of the accumulator
    return max(_CHUNK_BYTES, (da * db) ** 2 * 4) // (16 * (da * da + db * db))


_RECONSTRUCT_CASES = {
    **{
        f"per_string-p{p}": lambda p=p: per_string_decomposition(WernerParams(p, 0.5 / 2**p))
        for p in (1, 2, 3, 4)
    },
    **{f"class-p{p}": lambda p=p: class_decomposition(WernerParams(p, 0.7)) for p in (1, 2, 3, 4)},
    "refined-p2": lambda: refine_to_pure(class_decomposition(WernerParams(2, 0.6))),
    "forced-p2": lambda: per_string_decomposition(WernerParams(2, 0.9), force=True),
    "chunks-plus-3": lambda: _hand_built(8, 8, 2 * _chunk_terms(8, 8) + 3),
    "da2-db8": lambda: _hand_built(2, 8, 50, seed=1),
    "da8-db2": lambda: _hand_built(8, 2, 50, seed=2),
    # 131 terms: one accumulator-sized chunk of 128, then a ragged 3, each
    # added in four row blocks
    "da32-db32-chunk-plus-3": lambda: _hand_built(32, 32, _chunk_terms(32, 32) + 3, seed=3),
}


@pytest.mark.parametrize("case", sorted(_RECONSTRUCT_CASES))
def test_reconstruct_matches_the_kron_loop(case):
    dec = _RECONSTRUCT_CASES[case]()
    got = reconstruct(dec)
    ref = _loop_reconstruct(dec)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-15


def _one_block_reconstruct(dec):
    # reconstruct as it was before row blocks: 512 KiB chunks, one a.T @ b each
    first = dec.terms[0]
    da, db = first.state_a.shape[0], first.state_b.shape[0]
    step = max(1, _CHUNK_BYTES // (16 * (da * da + db * db)))
    acc = np.zeros((da * da, db * db), dtype=complex)
    for start in range(0, len(dec.terms), step):
        chunk = dec.terms[start : start + step]
        a = np.array([t.state_a for t in chunk], dtype=complex).reshape(len(chunk), da * da)
        b = np.array([t.state_b for t in chunk]).reshape(len(chunk), db * db)
        a *= np.array([t.weight for t in chunk])[:, None]
        acc += a.T @ b
    return acc.reshape(da, da, db, db).transpose(0, 2, 1, 3).reshape(da * db, da * db)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_reconstruct_keeps_its_bits_up_to_p4(p):
    # at p <= 4 the chunks stay at 512 KiB; the row blocks must not move a bit
    for dec in (
        per_string_decomposition(WernerParams(p, 0.5 / 2**p)),
        class_decomposition(WernerParams(p, 0.7)),
    ):
        assert reconstruct(dec).tobytes() == _one_block_reconstruct(dec).tobytes()
