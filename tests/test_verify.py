"""The verifier as oracle, refinement to pure factors, end-to-end reports."""
import json
import threading
import tracemalloc
from dataclasses import replace
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import werner.verify
from werner.decompose import (
    _CHUNK_BYTES,
    Decomposition,
    ProductTerm,
    class_decomposition,
    decompose_auto,
    per_string_decomposition,
    reconstruct,
)
from werner.cli import main
from werner.errors import DimensionMismatch, MalformedInput, VerificationFailure
from werner.linalg import hermitian_eigensystem
from werner.model import WernerParams, ppt_check, werner_dense
from werner.serialize import decomposition_doc, doc_decomposition, dumps
from werner.verify import (
    _distinct_factors,
    refine_to_pure,
    separability_report,
    verify_decomposition,
)


def test_good_certificate_verifies():
    params = WernerParams(2, 0.9)
    rep = verify_decomposition(werner_dense(params), decompose_auto(params))
    assert rep.verdict
    assert rep.convex_ok and rep.positivity_ok
    assert rep.reconstruction_residual < 1e-9
    assert rep.weight_sum_error < 1e-12
    assert rep.diagnostics == ()


def test_perturbed_weight_breaks_convexity():
    params = WernerParams(2, 0.9)
    dec = decompose_auto(params)
    tampered = Decomposition(
        dec.params,
        dec.scheme,
        dec.scale,
        (replace(dec.terms[0], weight=dec.terms[0].weight + 0.01),) + dec.terms[1:],
    )
    rep = verify_decomposition(werner_dense(params), tampered)
    assert not rep.convex_ok
    assert not rep.verdict
    assert any("convex" in msg for msg in rep.diagnostics)


def test_forced_out_of_range_fails_positivity():
    # p=1, f=-0.5: scale sqrt(2), min component eigenvalue (1 - sqrt 2)/2
    params = WernerParams(1, -0.5)
    dec = per_string_decomposition(params, force=True)
    rep = verify_decomposition(werner_dense(params), dec)
    assert not rep.positivity_ok
    assert rep.min_component_eigenvalue == pytest.approx((1 - sqrt(2)) / 2, abs=1e-12)
    assert not rep.verdict
    # the reconstruction identity still holds; only positivity is lost
    assert rep.reconstruction_residual < 1e-9


def test_residual_equal_to_tol_passes():
    # inclusive, like the positivity check and ppt_check
    dec = decompose_auto(WernerParams(2, 0.9))
    target = werner_dense(WernerParams(2, 0.9 + 1e-6))
    residual = verify_decomposition(target, dec, 1.0).reconstruction_residual
    assert residual > 0
    assert verify_decomposition(target, dec, residual).verdict
    below = float(np.nextafter(residual, 0.0))
    rep = verify_decomposition(target, dec, below)
    assert not rep.verdict
    assert rep.diagnostics == (f"reconstruction residual {residual:.6e} > {below:g}",)


def test_wrong_target_fails_reconstruction():
    dec = decompose_auto(WernerParams(2, 0.9))
    rep = verify_decomposition(werner_dense(WernerParams(2, 0.5)), dec)
    assert not rep.verdict
    assert rep.reconstruction_residual > 1e-3
    assert rep.convex_ok and rep.positivity_ok


def test_verify_shape_and_empty_checks():
    dec = decompose_auto(WernerParams(1, 0.5))
    with pytest.raises(DimensionMismatch):
        verify_decomposition(np.eye(16) / 16, dec)
    with pytest.raises(ValueError):
        verify_decomposition(
            np.eye(4) / 4, Decomposition(WernerParams(1, 0.5), "per_string", 0.0, ())
        )


def test_purity_reported_not_enforced():
    params = WernerParams(2, 0.6)
    rep = verify_decomposition(werner_dense(params), decompose_auto(params))
    assert rep.verdict  # mixed factors are still a valid certificate
    assert not rep.purity_ok
    assert rep.max_purity_deviation > 1e-3


# --- refinement -------------------------------------------------------------


def test_refine_keeps_pure_terms():
    # p=1, f=0: components (I +- sigma)/2 are already rank-1
    dec = decompose_auto(WernerParams(1, 0.0))
    refined = refine_to_pure(dec)
    assert refined.n_terms == 6


@pytest.mark.parametrize("p,f", [(1, 0.3), (1, 0.7), (2, 0.3), (2, 0.7)])
def test_refine_yields_pure_factors(p, f):
    params = WernerParams(p, f)
    dec = decompose_auto(params)
    refined = refine_to_pure(dec)
    rep = verify_decomposition(werner_dense(params), refined, tol=1e-8)
    assert rep.verdict
    assert rep.max_purity_deviation < 1e-9
    assert rep.purity_ok
    assert rep.reconstruction_residual < 1e-8


def test_refine_labels_extend_parent():
    refined = refine_to_pure(decompose_auto(WernerParams(1, 0.3)))
    assert all(":a" in t.label and "b" in t.label for t in refined.terms)
    parent_labels = {t.label.split(":a")[0] for t in refined.terms}
    assert parent_labels == {t.label for t in decompose_auto(WernerParams(1, 0.3)).terms}


def test_refine_rejects_invalid_input():
    dec = per_string_decomposition(WernerParams(1, -0.5), force=True)
    with pytest.raises(VerificationFailure) as exc:
        refine_to_pure(dec)
    assert exc.value.report is not None
    assert not exc.value.report.positivity_ok


def test_refine_weights_still_convex():
    refined = refine_to_pure(decompose_auto(WernerParams(2, 0.5)))
    w = np.array(refined.weights)
    assert w.min() >= 0
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


# --- end-to-end reports -------------------------------------------------------


def test_separable_report():
    rep, refinement = separability_report(WernerParams(2, 0.6))
    assert rep.verdict == "SEPARABLE"
    assert rep.ppt
    assert rep.witness is None
    assert rep.scheme == "commuting_class"
    assert rep.n_terms == 20
    assert rep.verification.verdict
    assert rep.invariance_residual < 1e-9
    assert refinement is None


def test_entangled_report():
    rep, refinement = separability_report(WernerParams(2, -0.3))
    assert rep.verdict == "ENTANGLED"
    assert not rep.ppt
    assert rep.witness == pytest.approx(-0.075, abs=1e-12)  # f/d
    assert rep.scheme is None
    assert rep.n_terms == 0
    assert rep.verification is None
    assert refinement is None


def test_report_with_refinement():
    rep, refinement = separability_report(WernerParams(1, 1.0), refine=True)
    assert rep.verdict == "SEPARABLE"
    assert refinement is not None
    assert refinement.n_terms == 6
    assert refinement.max_purity_deviation < 1e-9
    assert refinement.reconstruction_residual < 1e-8


def test_report_ppt_decision_honours_tol():
    # pt_min = f/d = -1e-10: inside the default band, outside tol = 1e-12
    params = WernerParams(2, -4e-10)
    assert separability_report(params)[0].ppt
    rep, _ = separability_report(params, tol=1e-12)
    assert rep.verdict == "ENTANGLED"
    assert not rep.ppt
    assert rep.ppt == ppt_check(params, 1e-12)


def test_report_takes_its_ppt_verdict_from_ppt_check(monkeypatch):
    monkeypatch.setattr("werner.verify.ppt_check", lambda params, tol: False)
    rep, _ = separability_report(WernerParams(2, 0.6))
    assert not rep.ppt
    assert rep.verdict == "ENTANGLED"


def test_report_seed_is_recorded():
    rep, _ = separability_report(WernerParams(1, 0.5), seed=99)
    assert rep.seed == 99


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 2), st.floats(-1, 1, allow_nan=False))
def test_verdict_agrees_with_ppt(p, f):
    params = WernerParams(p, f)
    rep, _ = separability_report(params)
    assert rep.ppt == ppt_check(params)
    assert (f >= 0) == (rep.verdict == "SEPARABLE")


def test_component_dedup_by_identity():
    # symmetric terms share one factor object; verification must not count
    # the same matrix twice but must still scan both slots of mixed pairs
    params = WernerParams(1, 0.2)
    dec = per_string_decomposition(params)  # flipped: A and B differ
    rep = verify_decomposition(werner_dense(params), dec)
    assert rep.verdict
    sym = class_decomposition(WernerParams(1, 0.9))
    rep = verify_decomposition(werner_dense(WernerParams(1, 0.9)), sym)
    assert rep.verdict


def _exact(dec):
    # everything the certificate emitter writes, compared bit for bit
    terms = [
        (float(t.weight).hex(), t.label, t.state_a.tobytes(), t.state_b.tobytes())
        for t in dec.terms
    ]
    return dec.params, dec.scheme, float(dec.scale).hex(), terms


def test_parsed_certificate_checks_each_distinct_factor_once(monkeypatch):
    # parsing gives every slot its own array, so only content can tell that
    # state_a and state_b of a class term are the same factor
    params = WernerParams(3, 0.7)
    target = werner_dense(params)
    dec = class_decomposition(params)
    parsed = doc_decomposition(json.loads(dumps(decomposition_doc(dec))))
    assert parsed.n_terms == 72
    in_memory = verify_decomposition(target, dec)
    in_memory_refined = _exact(refine_to_pure(dec))

    calls = []  # matrices per kernel call

    def counting(a, *args, **kwargs):
        calls.append(len(a))
        return hermitian_eigensystem(a, *args, **kwargs)

    # the 72 distinct 8x8 factors fit in one chunk of _CHUNK_BYTES
    chunks = -(-72 // (_CHUNK_BYTES // (16 * 8 * 8)))
    monkeypatch.setattr("werner.verify.hermitian_eigensystem", counting)
    assert verify_decomposition(target, parsed) == in_memory
    assert sum(calls) == 72
    assert len(calls) <= chunks
    del calls[:]
    assert _exact(refine_to_pure(parsed)) == in_memory_refined
    assert sum(calls) == 2 * 72  # verification, then one eigenpair split each
    assert len(calls) <= 2 * chunks


def _counting_rows(monkeypatch):
    rows = []  # matrices solved, over all kernel calls

    def counting(a, *args, **kwargs):
        rows.append(len(a))
        return hermitian_eigensystem(a, *args, **kwargs)

    monkeypatch.setattr("werner.verify.hermitian_eigensystem", counting)
    return rows


def _copied(dec):
    # every factor slot its own object, with the same bytes
    terms = tuple(
        replace(t, state_a=t.state_a.copy(), state_b=t.state_b.copy()) for t in dec.terms
    )
    return Decomposition(dec.params, dec.scheme, dec.scale, terms)


def test_equal_factors_in_distinct_objects_are_solved_once(monkeypatch):
    params = WernerParams(2, 0.6)
    target = werner_dense(params)
    dec = class_decomposition(params)  # 20 terms, each one factor object twice
    shared = verify_decomposition(target, dec)
    rows = _counting_rows(monkeypatch)
    assert verify_decomposition(target, _copied(dec)) == shared
    assert sum(rows) == 20
    # an object held in both slots of a term is keyed once
    hashed = []

    def counting_hash(data):
        hashed.append(1)
        return hash(data)

    monkeypatch.setattr("werner.verify.hash", counting_hash, raising=False)
    _distinct_factors(dec)
    assert len(hashed) == 20


def test_a_forced_key_collision_keeps_different_factors_apart(monkeypatch):
    params = WernerParams(2, 0.6)
    target = werner_dense(params)
    dec = class_decomposition(params)
    honest = verify_decomposition(target, dec), _exact(refine_to_pure(dec))
    # every compact key collides; the exact fallback must tell the factors apart
    monkeypatch.setattr("werner.verify.hash", lambda data: 0, raising=False)
    copies = _copied(dec)
    groups, keys = _distinct_factors(copies)
    assert len(keys) == 40
    (by_key,) = groups.values()
    assert len(by_key) == len(set(keys.values())) == 20
    assert all(keys[id(t.state_a)] == keys[id(t.state_b)] for t in copies.terms)
    rows = _counting_rows(monkeypatch)
    assert (verify_decomposition(target, copies), _exact(refine_to_pure(copies))) == honest
    assert sum(rows) == 3 * 20  # verify; refine's own verification, then its split


def test_factor_keys_hold_no_copy_of_the_factors():
    # exact keys held the bytes of every distinct 32 x 32 factor: 17 MB
    dec = class_decomposition(WernerParams(5, 0.6))
    tracemalloc.start()
    try:
        groups, keys = _distinct_factors(dec)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(keys) == len(groups[(32, 32)]) == 1056
    assert held < 1 << 20


def _inline(first, second, overlap):
    return first(), second()


def _recording(monkeypatch, name, threads):
    fn = getattr(werner.verify, name)

    def recorded(*args):
        threads.append(threading.current_thread())
        return fn(*args)

    monkeypatch.setattr(f"werner.verify.{name}", recorded)


@pytest.mark.parametrize("f", [0.6, 0.02, -0.4])  # class, per-string, entangled
def test_p5_overlap_keeps_its_bits(monkeypatch, f):
    params = WernerParams(5, f)
    # a separable report carries verify_decomposition's own report; the
    # entangled point has none, so a forced certificate is verified alone
    forced = per_string_decomposition(params, force=True) if f < 0 else None
    threads = []
    _recording(monkeypatch, "_component_stats", threads)
    _recording(monkeypatch, "invariance_residual", threads)
    before = threading.active_count()
    overlapped = (
        separability_report(params),
        forced and verify_decomposition(werner_dense(params), forced),
    )
    assert threading.active_count() == before
    # f >= 0: the probe and Jacobi each ran on a worker; f < 0: the probe
    # runs inline, and the forced certificate's Jacobi on a worker
    workers = [t is not threading.main_thread() for t in threads]
    assert workers == ([True, True] if f >= 0 else [False, True])
    monkeypatch.setattr("werner.verify._overlapped", _inline)
    inline = (
        separability_report(params),
        forced and verify_decomposition(werner_dense(params), forced),
    )
    assert inline == overlapped
    assert overlapped[0][0].verdict == ("SEPARABLE" if f >= 0 else "ENTANGLED")
    assert forced is None or not overlapped[1].verdict


def test_p5_sweep_prints_the_same_bytes_inline(monkeypatch, capsys):
    argv = ["sweep", "--p", "5", "--f-start", "0.5", "--f-end", "1", "--f-step", "0.25"]
    assert main(argv) == 0
    overlapped = capsys.readouterr()
    monkeypatch.setattr("werner.verify._overlapped", _inline)
    assert main(argv) == 0
    assert capsys.readouterr() == overlapped
    assert overlapped.out.count("SEPARABLE") == 3


def _with_non_hermitian_factor(params, at):
    dec = class_decomposition(params)
    bad = dec.terms[at].state_a.copy()
    bad[0, 1] += 1e-3
    terms = list(dec.terms)
    terms[at] = replace(terms[at], state_a=bad)
    return Decomposition(params, dec.scheme, dec.scale, tuple(terms))


@pytest.mark.parametrize("at", [0, 1055])  # Jacobi's first stack, or its last
def test_p5_overlap_raises_the_inline_error(monkeypatch, capfd, at):
    params = WernerParams(5, 0.6)
    target = werner_dense(params)
    dec = _with_non_hermitian_factor(params, at)
    before = threading.active_count()
    with pytest.raises(MalformedInput) as overlapped:
        verify_decomposition(target, dec)
    assert threading.active_count() == before
    monkeypatch.setattr("werner.verify._overlapped", _inline)
    with pytest.raises(MalformedInput) as inline:
        verify_decomposition(target, dec)
    assert str(overlapped.value) == str(inline.value) == "matrix is not Hermitian within 1e-10"
    assert capfd.readouterr().err == ""


def test_when_both_stages_fail_the_first_error_wins(monkeypatch, capfd):
    params = WernerParams(5, 0.6)
    target = werner_dense(params)
    dec = _with_non_hermitian_factor(params, 0)

    def failing(*args):
        raise MemoryError("second stage failed")

    monkeypatch.setattr("werner.verify.reconstruct", failing)
    before = threading.active_count()
    with pytest.raises(MalformedInput, match="not Hermitian"):
        verify_decomposition(target, dec)
    assert threading.active_count() == before
    # the second stage's error alone still surfaces, after the join
    with pytest.raises(MemoryError, match="second stage failed"):
        verify_decomposition(target, class_decomposition(params))
    assert threading.active_count() == before
    # in separability_report the probe comes first
    monkeypatch.setattr("werner.verify.decompose_auto", failing)
    monkeypatch.setattr("werner.verify.invariance_residual", lambda *args: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        separability_report(params)
    assert threading.active_count() == before
    assert capfd.readouterr().err == ""
