"""The verifier as oracle, refinement to pure factors, end-to-end reports."""
import json
from dataclasses import replace
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from werner.decompose import (
    _CHUNK_BYTES,
    Decomposition,
    ProductTerm,
    class_decomposition,
    decompose_auto,
    per_string_decomposition,
    reconstruct,
)
from werner.errors import DimensionMismatch, VerificationFailure
from werner.linalg import hermitian_eigensystem
from werner.model import WernerParams, ppt_check, werner_dense
from werner.serialize import decomposition_doc, doc_decomposition, dumps
from werner.verify import (
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
