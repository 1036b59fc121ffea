"""Product-state decompositions: construction, ranges, reconstruction."""
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import werner.decompose
from certificate_oracle import expand, from_terms
from dense_reference import pauli_matrices, realized
from werner.decompose import (
    _CHUNK_BYTES,
    _build,
    _products,
    COMMUTING_CLASS,
    PER_STRING,
    SCHEMES,
    decompose_auto,
    reconstruct,
)
from werner.errors import SchemeRangeError
from werner.linalg import Spectrum, hermitian_eigenvalues
from werner.model import WernerParams, werner_dense
from werner.partition import CommutingClass, build_partition
from werner.pauli import all_strings, masks
from werner.verify import refine_to_pure


def test_ranges():
    per_string_range, class_range = SCHEMES[PER_STRING].f_range, SCHEMES[COMMUTING_CLASS].f_range
    assert per_string_range(1) == (0.0, 1.0)
    assert per_string_range(2) == (0.0, 0.5)
    assert per_string_range(3) == (0.0, 0.25)
    assert class_range(1) == (0.5, 1.0)
    assert class_range(2) == (0.25, 1.0)


def test_per_string_component_frozen():
    # p = 1, f = 0.625: scale sqrt(2 f - 1) = 1/2, first term (I + X/2)/2
    dec = decompose_auto(WernerParams(1, 0.625), PER_STRING)
    assert dec.scale == 0.5
    comp = expand(dec)[0].state_a
    assert np.array_equal(comp, np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex))


def test_per_string_structure_p1():
    dec = decompose_auto(WernerParams(1, 0.0), PER_STRING)
    assert dec.scheme == PER_STRING
    assert dec.n_terms == 6
    assert dec.scale == 1.0
    assert set(dec.weights) == {1 / 6}
    assert list(dec.labels) == [
        "per_string:X:+",
        "per_string:X:-",
        "per_string:Y:+",
        "per_string:Y:-",
        "per_string:Z:+",
        "per_string:Z:-",
    ]
    # at scale 1 the components are rank-1 projectors
    for t in expand(dec):
        assert np.allclose(t.state_a @ t.state_a, t.state_a, atol=1e-14)


def test_per_string_sign_flip_below_boundary():
    # f < 1/d: the B factor takes the opposite sign to absorb the negative
    # expansion coefficient: it is the partner term's first factor, one row
    dec = decompose_auto(WernerParams(2, 0.1), PER_STRING)
    rows = np.arange(dec.n_terms)
    assert np.array_equal(dec.pairs, np.stack((rows, rows ^ 1), axis=1))
    for t in expand(dec):
        assert not np.array_equal(t.state_a, t.state_b)
    # f > 1/d: both factors are one row
    dec = decompose_auto(WernerParams(2, 0.4), PER_STRING)
    assert np.array_equal(dec.pairs, np.stack((rows, rows), axis=1))
    assert len(dec.factors) == dec.n_terms


def test_per_string_range_enforcement():
    with pytest.raises(SchemeRangeError) as exc:
        decompose_auto(WernerParams(2, 0.6), PER_STRING)
    assert exc.value.valid_range == (0.0, 0.5)
    assert exc.value.f == 0.6
    # the unguarded builder skips the gate; the verifier is the authority on
    # positivity
    dec = _build(WernerParams(2, 0.6), PER_STRING)
    assert dec.scale > 1.0


def test_class_structure_p2():
    dec = decompose_auto(WernerParams(2, 1.0), COMMUTING_CLASS)
    assert dec.scheme == COMMUTING_CLASS
    assert dec.n_terms == 20
    assert set(dec.weights) == {0.05}
    assert dec.scale == 1.0
    assert dec.labels[0] == "class:0:00"
    assert dec.labels[3] == "class:0:11"
    assert dec.labels[19] == "class:4:11"
    # every factor pair is one row (symmetric scheme)
    assert np.array_equal(dec.pairs[:, 0], dec.pairs[:, 1])
    assert len(dec.factors) == dec.n_terms


def test_class_components_are_projectors_at_f1():
    dec = decompose_auto(WernerParams(2, 1.0), COMMUTING_CLASS)
    for t in expand(dec):
        c = t.state_a
        assert np.allclose(c @ c, c, atol=1e-13)
        assert np.trace(c).real == pytest.approx(1.0, abs=1e-13)


def test_class_boundary_is_maximally_mixed():
    dec = decompose_auto(WernerParams(2, 0.25), COMMUTING_CLASS)
    assert dec.scale == 0.0
    for t in expand(dec):
        assert np.array_equal(t.state_a, np.eye(4) / 4)


def test_class_range_enforcement():
    with pytest.raises(SchemeRangeError):
        decompose_auto(WernerParams(2, 0.1), COMMUTING_CLASS)
    # the scale is undefined below 1/d even unguarded: only groups of order 2
    # have a partner term to take the sign
    with pytest.raises(SchemeRangeError, match="class scale is undefined below f = 0.25"):
        _build(WernerParams(2, 0.1), COMMUTING_CLASS)
    dec = decompose_auto(WernerParams(2, 0.3), COMMUTING_CLASS)
    assert dec.scale == pytest.approx(sqrt((4 * 0.3 - 1) / 3))


def test_class_component_validation():
    dec = decompose_auto(WernerParams(2, 0.5), COMMUTING_CLASS)
    for t in expand(dec):
        comp = t.state_a
        assert np.allclose(comp, comp.conj().T, atol=0)
        assert np.trace(comp).real == pytest.approx(1.0)


def test_class_component_signs():
    # pure-Z class of p=1: label bits 0 give (I + s Z)/2, bits 1 the flip
    dec = decompose_auto(WernerParams(1, 0.745), COMMUTING_CLASS)
    s = dec.scale
    (z,) = pauli_matrices([(3,)])
    terms = expand(dec)
    assert [t.label for t in terms[:2]] == ["class:0:0", "class:0:1"]
    assert np.allclose(terms[0].state_a, (np.eye(2) + s * z) / 2, atol=0)
    assert np.allclose(terms[1].state_a, (np.eye(2) - s * z) / 2, atol=0)


def test_class_component_refuses_anticommuting_generators(monkeypatch):
    # X and Z anticommute, so no sign pattern makes (I +- X)(I +- Z) Hermitian
    cls = CommutingClass(((1, 0), (3, 0), (2, 0)), ((1, 0), (3, 0)))
    table = SCHEMES[COMMUTING_CLASS]._replace(groups=lambda p: [cls.generators])
    monkeypatch.setitem(werner.decompose.SCHEMES, COMMUTING_CLASS, table)
    with pytest.raises(ValueError, match="do not pairwise commute"):
        _products(2, COMMUTING_CLASS)


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 2), st.floats(0, 1, allow_nan=False))
def test_per_string_reconstructs_everywhere(p, f):
    # the algebraic identity holds for every f in [0, 1]; only positivity
    # of the factors breaks outside the scheme range
    params = WernerParams(p, f)
    dec = _build(params, PER_STRING)
    assert np.allclose(reconstruct(dec), werner_dense(params), atol=1e-12)
    assert sum(dec.weights) == pytest.approx(1.0, abs=1e-12)


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 2), st.floats(0, 1, allow_nan=False))
def test_class_reconstructs_on_range(p, f):
    lo, hi = SCHEMES[COMMUTING_CLASS].f_range(p)
    f = lo + (hi - lo) * f
    params = WernerParams(p, f)
    dec = decompose_auto(params, COMMUTING_CLASS)
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
        for t in expand(dec)[:3]:
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
    for k in (0, 2**p):  # the first and last classes
        for t in _class_sums(p, k):
            assert np.array_equal(t @ t, (d - 2) * t + (d - 1) * eye)
            assert np.trace(t) == 0


def _realized(p, scheme, dtype=complex):
    """The dense stack of the scheme's products V_s, from their masks."""
    x, z, t = _products(p, scheme)
    return realized(p, x, z, t).astype(dtype)


def _class_sums(p, k):
    # T_e = sum_{s != 0} (-1)^|e & s| V_s over class k's products V_s, the
    # class sums that the builder takes
    d = 2**p
    chi = np.array([[(-1) ** bin(e & s).count("1") for s in range(1, d)] for e in range(d)])
    rows = slice(k * (d - 1), (k + 1) * (d - 1))
    return np.tensordot(chi, _realized(p, COMMUTING_CLASS, np.complex64)[rows], 1)


def test_reconstruct_requires_terms():
    with pytest.raises(ValueError):
        reconstruct(from_terms(WernerParams(1, 0.5), PER_STRING, 0.0, ()))


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


def test_the_class_products_hold_each_class_in_fold_order():
    # one (x, z, t) per call, class by class; row k (d - 1) + s - 1 is class
    # k's V_s (s != 0), the ordered product of the generators the bits of s
    # select
    for p in (1, 2, 3):
        d = 2**p
        x, z, t = _products(p, COMMUTING_CLASS)
        assert len(x) == len(z) == len(t) == d * d - 1
        assert all(type(v) is int for v in x + z + t)
        assert all(0 <= v < 4 for v in t)
        stack = _realized(p, COMMUTING_CLASS, np.complex64)
        for k, cls in enumerate(build_partition(p).classes):
            gens = pauli_matrices(cls.generators)
            for s in range(1, d):
                member = np.eye(d, dtype=complex)
                for j in range(p):
                    if (s >> j) & 1:
                        member = member @ gens[j]
                assert np.array_equal(stack[k * (d - 1) + s - 1], member)


def test_the_per_string_products_are_the_strings_in_order():
    # a group {I, sigma} has the one product V_1 = sigma, (-i)^(y count) Z^z X^x
    for p in (1, 2, 3):
        x, z, t = _products(p, PER_STRING)
        _, xs, zs = masks(list(all_strings(p))[1:])
        assert (x, z, t) == (xs, zs, [(a & c).bit_count() % 4 for a, c in zip(xs, zs)])
        assert np.array_equal(_realized(p, PER_STRING), pauli_matrices(list(all_strings(p))[1:]))


def _same_terms(a, b):
    return (a.scheme, a.scale) == (b.scheme, b.scale) and all(
        s.weight == t.weight
        and s.label == t.label
        and np.array_equal(s.state_a, t.state_a)
        and np.array_equal(s.state_b, t.state_b)
        for s, t in zip(expand(a), expand(b), strict=True)
    )


@pytest.mark.parametrize("p", [1, 2, 3])
def test_shared_paths_are_bit_identical(p):
    part = build_partition(p)
    dec = decompose_auto(WernerParams(p, 0.9), COMMUTING_CLASS)
    eye = np.eye(2**p, dtype=complex)
    for e, term in enumerate(expand(dec)):
        _, k, bits = term.label.split(":")
        cls = part.classes[int(k)]
        mask = sum(int(b) << j for j, b in enumerate(bits))  # label bit j is eps_j
        comp = (eye + dec.scale * _class_sums(p, int(k))[mask]) / 2**p
        assert np.array_equal(comp, term.state_a)
        loop = (eye + dec.scale * _loop_class_sum(cls, e % 2**p)) / 2**p
        assert np.array_equal(loop, term.state_a)

    low, high = WernerParams(p, 2.0**-p / 2), WernerParams(p, 0.9)
    assert _same_terms(decompose_auto(low, PER_STRING), _build(low, PER_STRING))
    assert _same_terms(decompose_auto(high, COMMUTING_CLASS), _build(high, COMMUTING_CLASS))
    assert _same_terms(decompose_auto(low, "auto"), _build(low, PER_STRING))
    assert _same_terms(decompose_auto(high), _build(high, COMMUTING_CLASS))

    # an explicit scheme keeps its own range error, not auto's [0, 1]
    for scheme, f in ((PER_STRING, -0.5), (COMMUTING_CLASS, 0.0)):
        lo, hi = SCHEMES[scheme].f_range(p)
        with pytest.raises(SchemeRangeError) as dispatched:
            decompose_auto(WernerParams(p, f), scheme)
        assert str(dispatched.value) == f"{scheme} needs f in [{lo}, {hi}], got {f}"
        assert dispatched.value.valid_range == (lo, hi)
    with pytest.raises(ValueError):
        decompose_auto(high, "bogus")


def _loop_reconstruct(dec):
    # reference: one kron per term, accumulated in term order
    terms = expand(dec)
    dim = terms[0].state_a.shape[0] * terms[0].state_b.shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    for t in terms:
        acc += t.weight * np.kron(t.state_a, t.state_b)
    return acc


def _random_state(rng, d):
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def _hand_built(d, n_terms, seed=0):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n_terms))
    terms = [
        (w, _random_state(rng, d), _random_state(rng, d), f"t{k}") for k, w in enumerate(weights)
    ]
    return from_terms(WernerParams(1, 0.5), PER_STRING, 0.0, terms)


def _chunk_terms(d):
    # reconstruct's chunk: at least _CHUNK_BYTES, else a quarter of the accumulator
    return max(_CHUNK_BYTES, d**4 * 4) // (32 * d * d)


_RECONSTRUCT_CASES = {
    **{
        f"per_string-p{p}": lambda p=p: decompose_auto(WernerParams(p, 0.5 / 2**p), PER_STRING)
        for p in (1, 2, 3, 4)
    },
    **{
        f"class-p{p}": lambda p=p: decompose_auto(WernerParams(p, 0.7), COMMUTING_CLASS)
        for p in (1, 2, 3, 4)
    },
    "refined-p2": lambda: refine_to_pure(decompose_auto(WernerParams(2, 0.6), COMMUTING_CLASS)),
    "forced-p2": lambda: _build(WernerParams(2, 0.9), PER_STRING),
    "chunks-plus-3": lambda: _hand_built(8, 2 * _chunk_terms(8) + 3),
    # 4,099 terms: one chunk of 4,096 2x2 factor pairs, then a ragged 3
    "d2-chunk-plus-3": lambda: _hand_built(2, _chunk_terms(2) + 3, seed=1),
    # 131 terms: one accumulator-sized chunk of 128, then a ragged 3, each
    # added in four row blocks
    "da32-db32-chunk-plus-3": lambda: _hand_built(32, _chunk_terms(32) + 3, seed=3),
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
    terms = expand(dec)
    da, db = terms[0].state_a.shape[0], terms[0].state_b.shape[0]
    step = max(1, _CHUNK_BYTES // (16 * (da * da + db * db)))
    acc = np.zeros((da * da, db * db), dtype=complex)
    for start in range(0, len(terms), step):
        chunk = terms[start : start + step]
        a = np.array([t.state_a for t in chunk], dtype=complex).reshape(len(chunk), da * da)
        b = np.array([t.state_b for t in chunk]).reshape(len(chunk), db * db)
        a *= np.array([t.weight for t in chunk])[:, None]
        acc += a.T @ b
    return acc.reshape(da, da, db, db).transpose(0, 2, 1, 3).reshape(da * db, da * db)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_reconstruct_keeps_its_bits_up_to_p4(p):
    # at p <= 4 the chunks stay at 512 KiB; the row blocks must not move a bit
    for dec in (
        decompose_auto(WernerParams(p, 0.5 / 2**p), PER_STRING),
        decompose_auto(WernerParams(p, 0.7), COMMUTING_CLASS),
    ):
        assert reconstruct(dec).tobytes() == _one_block_reconstruct(dec).tobytes()
