"""The verifier as oracle, refinement to pure factors, end-to-end reports."""
import json
import threading
import tracemalloc
from functools import cache
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import werner.verify
from certificate_oracle import Term, exact, expand, from_terms
from dense_reference import realized
from werner.decompose import (
    _CHUNK_BYTES,
    COMMUTING_CLASS,
    PER_STRING,
    SCHEMES,
    _build,
    auto_scheme,
    decompose_auto,
    reconstruct,
    scheme_scalars,
)
from werner.cli import main
from werner.errors import DimensionMismatch, MalformedInput, VerificationFailure
from werner.linalg import hermitian_eigensystem
from werner.model import WernerParams, ppt_check, werner_dense
from werner.serialize import certificate_chunks, doc_decomposition, parse_decomposition
from werner.verify import (
    _eigensystems,
    refine_to_pure,
    scheme_family,
    separability_report,
    verify_decomposition,
    verify_family,
)


def test_good_certificate_verifies():
    params = WernerParams(2, 0.9)
    rep = verify_decomposition(decompose_auto(params))
    assert rep.verdict
    assert rep.convex_ok and rep.positivity_ok
    assert rep.reconstruction_residual < 1e-9
    assert rep.weight_sum_error < 1e-12
    assert rep.diagnostics == ()


def test_perturbed_weight_breaks_convexity():
    params = WernerParams(2, 0.9)
    dec = decompose_auto(params)
    first, *rest = expand(dec)
    tampered = _with_terms(dec, [first._replace(weight=first.weight + 0.01)] + rest)
    rep = verify_decomposition(tampered)
    assert not rep.convex_ok
    assert not rep.verdict
    assert any("convex" in msg for msg in rep.diagnostics)


def test_forced_out_of_range_fails_positivity():
    # p=1, f=-0.5: scale sqrt(2), min component eigenvalue (1 - sqrt 2)/2
    params = WernerParams(1, -0.5)
    dec = _build(params, PER_STRING)
    rep = verify_decomposition(dec)
    assert not rep.positivity_ok
    assert rep.min_component_eigenvalue == pytest.approx((1 - sqrt(2)) / 2, abs=1e-12)
    assert not rep.verdict
    # the reconstruction identity still holds; only positivity is lost
    assert rep.reconstruction_residual < 1e-9


def test_residual_equal_to_tol_passes():
    # inclusive, like the positivity check and ppt_check
    # the certificate of f = 0.9, measured against the state of f = 0.9 + 1e-6
    dec = decompose_auto(WernerParams(2, 0.9))._replace(params=WernerParams(2, 0.9 + 1e-6))
    residual = verify_decomposition(dec, 1.0).reconstruction_residual
    assert residual > 0
    assert verify_decomposition(dec, residual).verdict
    below = float(np.nextafter(residual, 0.0))
    rep = verify_decomposition(dec, below)
    assert not rep.verdict
    assert rep.diagnostics == (f"reconstruction residual {residual:.6e} > {below:g}",)


def test_wrong_target_fails_reconstruction():
    # the certificate of f = 0.9 under a header that names f = 0.5
    dec = decompose_auto(WernerParams(2, 0.9))._replace(params=WernerParams(2, 0.5))
    rep = verify_decomposition(dec)
    assert not rep.verdict
    assert rep.reconstruction_residual > 1e-3
    assert rep.convex_ok and rep.positivity_ok


def test_verify_shape_and_empty_checks():
    # 2 x 2 factors under a header of p = 2, whose factors are 4 x 4
    dec = decompose_auto(WernerParams(1, 0.5))._replace(params=WernerParams(2, 0.5))
    with pytest.raises(DimensionMismatch, match=r"factor shape \(2, 2\) does not match p = 2"):
        verify_decomposition(dec)
    with pytest.raises(ValueError):
        verify_decomposition(from_terms(WernerParams(1, 0.5), "per_string", 0.0, ()))


def test_purity_reported_not_enforced():
    params = WernerParams(2, 0.6)
    rep = verify_decomposition(decompose_auto(params))
    assert rep.verdict  # mixed factors are still a valid certificate
    assert not rep.purity_ok
    assert rep.max_purity_deviation > 1e-3


# --- each tolerance of the verdict, directly and through `verify --input` ----


def _with_terms(dec, terms):
    return from_terms(dec.params, dec.scheme, dec.scale, terms)


def _verify_both(tmp_path, capsys, dec, tol=1e-9):
    """verify_decomposition's report on dec, and the verdict, exit code and
    stdout document of `verify --input` on dec's certificate file."""
    rep = verify_decomposition(dec, tol)
    path = tmp_path / "cert.json"
    path.write_text("".join(certificate_chunks(dec)))
    code = main(["verify", "--input", str(path), "--tol", repr(tol)])
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] is rep.verdict
    assert code == (0 if rep.verdict else 2)
    return rep, doc


@pytest.mark.parametrize("shift", [1e-10, 1e-3])
def test_a_negative_weight_fails_though_the_weights_sum_to_1(tmp_path, capsys, shift):
    # term 0 split into (w + shift, A, B) and (-shift, A, B): the same state
    dec = decompose_auto(WernerParams(2, 0.9))
    first, *rest = expand(dec)
    bad = _with_terms(
        dec, [first._replace(weight=first.weight + shift), first._replace(weight=-shift)] + rest
    )
    rep, doc = _verify_both(tmp_path, capsys, bad)
    assert rep.min_weight == doc["min_weight"] == -shift
    assert rep.weight_sum_error <= 1e-15
    assert rep.positivity_ok and rep.reconstruction_residual <= 1e-9
    assert not rep.convex_ok and not doc["convex_ok"]
    assert not rep.verdict


@pytest.mark.parametrize("off,ok", [(2e-12, False), (5e-13, True)])
def test_a_weight_sum_off_by_more_than_1e_12_fails(tmp_path, capsys, off, ok):
    dec = decompose_auto(WernerParams(2, 0.9))
    first, *rest = expand(dec)
    bad = _with_terms(dec, [first._replace(weight=first.weight + off)] + rest)
    rep, doc = _verify_both(tmp_path, capsys, bad)
    assert rep.weight_sum_error == pytest.approx(off, rel=1e-3)
    assert rep.min_weight >= 0 and rep.positivity_ok
    assert rep.reconstruction_residual <= 1e-9
    assert rep.convex_ok is doc["convex_ok"] is rep.verdict is ok


def _least_eigenvalue_certificate(least: float):
    """A forced p = 1 per-string certificate whose factors' least eigenvalue
    is (1 - s)/2 = least; it reconstructs its own state exactly."""
    s = 1.0 - 2.0 * least
    return _build(WernerParams(1, (1.0 - s * s) / 2.0), PER_STRING)


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
@pytest.mark.parametrize("ratio", [-2.0, -0.5])
def test_positivity_follows_the_tol_flag(tmp_path, capsys, tol, ratio):
    dec = _least_eigenvalue_certificate(ratio * tol)
    rep, doc = _verify_both(tmp_path, capsys, dec, tol)
    assert rep.min_component_eigenvalue == pytest.approx(ratio * tol, rel=1e-6)
    assert rep.convex_ok and rep.reconstruction_residual <= 1e-15
    assert rep.positivity_ok is doc["positivity_ok"] is rep.verdict is (ratio > -1.0)


@pytest.mark.parametrize("corner", ["first", "last"])
def test_a_certificate_wrong_in_one_corner_entry_fails(tmp_path, capsys, corner):
    # term 0's weight w moves x to a spike term x |kk><kk| (x) |kk><kk|, and
    # its first factor grows by w / (w - x): only entry (kd + k, kd + k) of
    # the reconstruction moves, by x
    params = WernerParams(2, 0.9)
    dec = decompose_auto(params)
    d, x, (first, *rest) = params.d, 1e-6, expand(dec)
    k = 0 if corner == "first" else d - 1
    spike = np.zeros((d, d), dtype=complex)
    spike[k, k] = 1.0
    bad = _with_terms(
        dec,
        [first._replace(weight=first.weight - x,
                        state_a=first.state_a * (first.weight / (first.weight - x)))]
        + rest
        + [Term(x, spike, spike, "spike")],
    )
    gap = np.abs(reconstruct(bad) - werner_dense(params))
    assert [tuple(ix) for ix in np.argwhere(gap > 1e-15)] == [(k * d + k, k * d + k)]
    rep, doc = _verify_both(tmp_path, capsys, bad)
    assert rep.convex_ok and rep.positivity_ok
    assert rep.reconstruction_residual == pytest.approx(x, rel=1e-6)
    assert not rep.verdict
    assert doc["diagnostics"] == list(rep.diagnostics) == [
        f"reconstruction residual {rep.reconstruction_residual:.6e} > 1e-09"
    ]


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
    rep = verify_decomposition(refined, tol=1e-8)
    assert rep.verdict
    assert rep.max_purity_deviation < 1e-9
    assert rep.purity_ok
    assert rep.reconstruction_residual < 1e-8


def test_refine_labels_extend_parent():
    refined = refine_to_pure(decompose_auto(WernerParams(1, 0.3)))
    assert all(":a" in label and "b" in label for label in refined.labels)
    parent_labels = {label.split(":a")[0] for label in refined.labels}
    assert parent_labels == set(decompose_auto(WernerParams(1, 0.3)).labels)


@pytest.mark.parametrize("scheme,f", [("class", "0.6"), ("per-string", "0.1")])
def test_no_dense_state_on_the_verify_path(tmp_path, capsys, monkeypatch, scheme, f):
    # a certificate is measured against the three values of the state its
    # header names: verify, refine and report's refinement build no dense
    # target, and print the same bytes. The report's invariance probe
    # conjugates the dense state by design, so it answers with its own value
    cert = tmp_path / "cert.json"
    assert main(["decompose", "--p", "2", "--f", f, "--scheme", scheme, "--output", str(cert)]) == 0
    calls = [["verify", "--input", str(cert)], ["refine", "--input", str(cert)],
             ["report", "--p", "2", "--f", f, "--refine"]]
    want = []
    for argv in calls:
        assert main(argv) == 0, argv
        want.append(capsys.readouterr())
    probe = json.loads(want[2].out)["invariance_residual"]

    def dense(params):
        raise AssertionError("a dense Werner state was built")

    monkeypatch.setattr("werner.model.werner_dense", dense)
    monkeypatch.setattr("werner.verify.werner_dense", dense, raising=False)
    monkeypatch.setattr("werner.verify.invariance_residual", lambda params, u: probe)
    for argv, out in zip(calls, want):
        assert main(argv) == 0, argv
        assert capsys.readouterr() == out, argv


def test_refine_rejects_invalid_input():
    dec = _build(WernerParams(1, -0.5), PER_STRING)
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


def _tampered_refinement(dec, tol=1e-9):
    # a refinement whose first weight moves by 1e-6: no longer convex
    refined = refine_to_pure(dec, tol)
    first, *rest = expand(refined)
    return _with_terms(refined, [first._replace(weight=first.weight + 1e-6)] + rest)


def test_a_failing_refinement_fails_the_report(monkeypatch, capsys):
    monkeypatch.setattr("werner.verify.refine_to_pure", _tampered_refinement)
    with pytest.raises(VerificationFailure) as exc:
        separability_report(WernerParams(2, 0.6), refine=True)
    assert not exc.value.report.convex_ok
    assert str(exc.value).startswith(
        "the refined certificate fails verification: weights are not convex"
    )
    # at the CLI: exit 2, no document, one JSON line
    assert main(["report", "--p", "2", "--f", "0.6", "--refine"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == "VerificationFailure"


@pytest.mark.parametrize("f", [0.0, 1.0])
def test_the_refinement_is_checked_at_tol(f):
    # at p = 1, f = 0 and 1 the family and the built certificate verify at
    # tol 0, and the refinement's residual is not 0, so tol 0 refuses it
    params = WernerParams(1, f)
    dec = decompose_auto(params)
    assert verify_decomposition(dec, 0.0).verdict
    refined = verify_decomposition(refine_to_pure(dec), 0.0)
    assert 0 < refined.reconstruction_residual < 1e-15
    _, refinement = separability_report(params, refine=True)
    assert refinement.reconstruction_residual == refined.reconstruction_residual
    with pytest.raises(VerificationFailure, match="the refined certificate fails") as exc:
        separability_report(params, tol=0.0, refine=True)
    assert exc.value.report == refined


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


# --- the family verifier (report, sweep) ---------------------------------------


@cache
def _family(p, scheme):
    return scheme_family(p, scheme)


def _both_verifiers(params):
    """verify_family's report on the point, with the family's scheme, n_terms
    and scale, and verify_decomposition's on the same certificate, built."""
    family = _family(params.p, auto_scheme(params))
    scale = scheme_scalars(params, family.scheme)[0]
    dec = decompose_auto(params)
    return (
        (verify_family(family, params.f), family.scheme, family.n_terms, scale),
        (verify_decomposition(dec), dec.scheme, dec.n_terms, dec.scale),
    )


def _assert_agree(params):
    (fam, *fam_meta), (term, *term_meta) = _both_verifiers(params)
    assert fam_meta == term_meta
    assert fam.verdict is term.verdict is True
    assert (fam.min_weight, fam.weight_sum_error) == (term.min_weight, term.weight_sum_error)
    assert abs(fam.min_component_eigenvalue - term.min_component_eigenvalue) <= 1e-14
    assert fam.reconstruction_residual <= 1e-15
    assert term.reconstruction_residual <= 1e-15
    assert fam.diagnostics == term.diagnostics == ()


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("f", ["0", "2^-p", "2^(1-p)", "0.3", "0.6", "1"])
def test_the_family_agrees_with_the_built_certificate(p, f):
    f = {"2^-p": 2.0**-p, "2^(1-p)": 2.0 ** (1 - p)}.get(f) or float(f)
    _assert_agree(WernerParams(p, f))


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 4), st.floats(0, 1, allow_nan=False))
def test_the_family_agrees_with_the_built_certificate_on_a_sample(p, f):
    _assert_agree(WernerParams(p, f))


def _family_generators(p, scheme):
    """The family's G_t, term by term: each group's T_e = sum_{s != 0}
    (-1)^|e & s| V_s over its products V_s, as the builder takes them, in
    complex128; +-sigma for the groups {I, sigma}."""
    d, m = 2**p, SCHEMES[scheme].order(p)
    chi = np.array([[(-1) ** bin(e & s).count("1") for s in range(1, m)] for e in range(m)])
    prods = realized(p, *werner.verify._products(p, scheme)).reshape(-1, m - 1, d * d)
    return np.matmul(chi, prods).reshape(-1, d, d)


def _tampered_family(monkeypatch, p, scheme, tamper):
    """scheme_family on the masks (x, z, t) of the scheme's V, first changed
    in place by tamper(x, z, t)."""
    x, z, t = werner.verify._products(p, scheme)
    tamper(x, z, t)
    monkeypatch.setattr("werner.verify._products", lambda p, scheme: (x, z, t))
    return scheme_family(p, scheme)


def _negate_odd_entries(x, z, t):
    # the first diagonal V (x = 0) negated on its odd rows: z ^= 1 makes it
    # another string, still Hermitian
    z[x.index(0)] ^= 1


def _negate_matrix(x, z, t):
    t[1] = (t[1] + 2) % 4  # (-i)^2 = -1


@pytest.mark.parametrize(
    "f,tamper,problems",
    [
        (0.6, _negate_odd_entries, ["nonzero trace", "V_s V_g = V_(s ^ g)", "closed form"]),
        (0.6, _negate_matrix, ["V_s V_g = V_(s ^ g)"]),
        (0.1, _negate_odd_entries, ["nonzero trace", "closed form"]),
    ],
)
def test_one_flipped_sign_in_one_generator_fails_the_family(monkeypatch, f, tamper, problems):
    params = WernerParams(2, f)
    honest = verify_family(_family(2, auto_scheme(params)), params.f)
    family = _tampered_family(monkeypatch, 2, auto_scheme(params), tamper)
    rep = verify_family(family, params.f)
    assert not rep.verdict
    # the residual reads S's proven closed form, never the tampered S, so the
    # family's problems alone fail the verdict; a class's negated V_1 leaves
    # S as it was, and only the class's products see it: V_1 V_2 is V_3, not
    # -V_3 (row 1 is the first class's V_2). In both schemes the first
    # diagonal V at p = 2 is IZ, and it becomes I, of trace 4, which leaves
    # IZ out of S
    assert rep.diagnostics == family.problems
    assert rep.reconstruction_residual == honest.reconstruction_residual
    assert len(family.problems) == len(problems)
    assert all(want in got for want, got in zip(problems, family.problems))


def test_a_string_generator_of_either_sign_gives_the_same_certificate(monkeypatch):
    # (I + s G)/d and (I - s G)/d are both factors, and G (x) G = (-G) (x) (-G)
    params = WernerParams(2, 0.1)
    honest = verify_family(_family(2, PER_STRING), params.f)
    family = _tampered_family(monkeypatch, 2, PER_STRING, _negate_matrix)
    assert family.problems == ()
    assert verify_family(family, params.f) == honest


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("scheme", [PER_STRING, COMMUTING_CLASS])
def test_the_proven_spectrum_is_jacobi_s_on_every_generator(p, scheme):
    gens = _family_generators(p, scheme)
    family = _family(p, scheme)
    assert family.problems == ()
    assert family.n_terms == len(gens)
    assert family.n_generators == 4**p - 1
    d = 2**p
    step = _CHUNK_BYTES // (16 * d * d)
    vals = d * np.concatenate(
        [hermitian_eigensystem(gens[k : k + step] / d)[0] for k in range(0, len(gens), step)]
    )
    assert np.abs(vals - family.spectrum).max() <= 1e-12


def _separable_points(p):
    d = 2**p
    return [0.0, 0.5 / d, 1 / d, 2 / d, 0.3, 0.6, 0.77, 1.0]


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_the_least_factor_eigenvalue_is_exact(p):
    for f in _separable_points(p):
        rep, _ = separability_report(WernerParams(p, f))
        assert rep.verdict == "SEPARABLE"
        assert rep.verification.min_component_eigenvalue == (1 - rep.scale) / 2**p


def _refusing(*args, **kwargs):
    raise AssertionError("report and sweep must not call this")


def test_report_and_sweep_need_no_eigensolver_and_no_thread(monkeypatch, capsys):
    monkeypatch.setattr("werner.verify.hermitian_eigensystem", _refusing)
    monkeypatch.setattr("threading.Thread", _refusing)
    for p in range(1, 6):
        for f in _separable_points(p) + [-0.4, -1.0]:
            rep, _ = separability_report(WernerParams(p, f))
            assert rep.verdict == ("SEPARABLE" if f >= 0 else "ENTANGLED")
        argv = ["sweep", "--p", str(p), "--f-start", "-1", "--f-end", "1", "--f-step", "0.25"]
        assert main(argv) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
        assert [row[8] for row in rows] == ["ENTANGLED"] * 4 + ["SEPARABLE"] * 5


@pytest.mark.parametrize("shift", [1e-12, 1e-6])
@pytest.mark.parametrize("f", [0.1, 0.6])
def test_weights_that_do_not_sum_to_1_fail_the_family(monkeypatch, f, shift):
    params = WernerParams(2, f)
    scale, weight, sign = scheme_scalars(params, auto_scheme(params))
    monkeypatch.setattr(
        "werner.verify.scheme_scalars", lambda params, scheme: (scale, weight + shift, sign)
    )
    family = _family(2, auto_scheme(params))
    rep = verify_family(family, params.f)
    assert rep.weight_sum_error == pytest.approx(family.n_terms * shift, rel=1e-3)
    assert rep.positivity_ok
    # the state's trace grows by n_terms * shift, and the residual with it
    assert (rep.reconstruction_residual > 1e-9) is (shift > 1e-9)
    assert not rep.convex_ok and not rep.verdict
    assert rep.diagnostics[0].startswith("weights are not convex")


def _dense_swap_sum(gens):
    """sum_t G_t (x) G_t over a stack by one product, (G_flat^T G_flat)
    [(i, j), (k, l)] put in the kron layout [(i, k), (j, l)]."""
    d, flat = gens.shape[1], gens.reshape(len(gens), -1)
    return (flat.T @ flat).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, -1)


def _closed_swap_sum(p):
    """sum_V V (x) V over the family's stack, where each nontrivial string
    appears once up to sign: d SWAP - I."""
    d = 2**p
    return werner.model._eye_flip(d, (-1, d, d - 1))


# each tamper changes V number k of the masks (x, z, t) in place


def _sign_flipped(x, z, t, k):
    t[k] = (t[k] + 2) % 4


def _entry_moved(x, z, t, k):
    # every entry of the V, to the next XOR pattern
    x[k] ^= 1


def _row_doubled(x, z, t, k):
    # the V before it, again: its string twice, and the V's string left out
    x[k], z[k], t[k] = x[k - 1], z[k - 1], t[k - 1]


def _i_added(x, z, t, k):
    t[k] = (t[k] + 1) % 4


def _rows_swapped(x, z, t, k):
    # V_1 and V_2 of the first class (of d - 1 rows) whose V_1 is not
    # diagonal; the two strings there for per_string
    d = 2 ** (len(x).bit_length() // 2)  # len(x) = d^2 - 1
    k = next(k for k in range(0, len(x), d - 1) if x[k])
    for v in (x, z, t):
        v[k], v[k + 1] = v[k + 1], v[k]


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("scheme", [PER_STRING, COMMUTING_CLASS])
@pytest.mark.parametrize(
    "tamper", [_sign_flipped, _entry_moved, _row_doubled, _i_added, _rows_swapped]
)
def test_no_tampered_stack_passes_with_a_wrong_s(monkeypatch, p, scheme, tamper):
    # the proof of S reads each V's (x, z) and whether it is Hermitian, so
    # it stands on the other identities: whenever the family reports no
    # problem, sum_V V (x) V over the realized stack is its closed form
    x, z, t = werner.verify._products(p, scheme)
    tamper(x, z, t, len(x) // 2)
    held = np.array_equal(_dense_swap_sum(realized(p, x, z, t)), _closed_swap_sum(p))
    monkeypatch.setattr("werner.verify._products", lambda p, scheme: (x, z, t))
    refused = bool(scheme_family(p, scheme).problems)
    assert held or refused
    # V (x) V = (-V) (x) (-V), so a V of the other sign keeps S
    assert held is (tamper in (_sign_flipped, _rows_swapped))
    # the proof asks more than the dense sum does. A group {I, -sigma} is as
    # good as {I, sigma}, but a class with one V negated no longer follows
    # its generators. A class with V_1 and V_2 swapped keeps S, but from p =
    # 3 its products no longer follow its generators (V_5 is V_4 V_1). At p
    # = 2 the swap is an automorphism of Z_2^2, which only relabels the V_s
    relabelled = tamper is _rows_swapped and p == 2
    assert refused is (not held or (scheme == COMMUTING_CLASS and not relabelled))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("scheme", [PER_STRING, COMMUTING_CLASS])
def test_a_float32_swap_sum_keeps_the_reports_of_its_float64_copy(p, scheme):
    # the family keeps no S: its report reads the closed form that S was
    # proven to equal. S formed here from the G_t (the class sums folded
    # from the V) by one complex64 product must be that closed form, and the
    # dense float64 gap w/d^2 (n_terms I + c S) - rho over all d^4 entries
    # must give the same report, residual bits included
    family = _family(p, scheme)
    gens = realized(p, *werner.verify._products(p, scheme)).astype(np.complex64)
    d, swap_sum = 2**p, _dense_swap_sum(_family_generators(p, scheme).astype(np.complex64))
    assert family.problems == ()
    assert np.array_equal(_dense_swap_sum(gens), _closed_swap_sum(p))
    a = family.m
    assert np.array_equal(swap_sum, werner.model._eye_flip(d, (-a, a * d, a * (d - 1))))
    swap_sum = swap_sum.real
    lo, hi = SCHEMES[scheme].f_range(p)
    corpus = (0.0, 2.0**-p, 2.0 ** (1 - p), 0.02, 0.05, 0.3, 0.6, 0.73, *np.linspace(0, 1, 21))
    fs = [f for f in corpus if lo <= f <= hi]
    assert len(fs) >= 5
    for f in fs:
        params = WernerParams(p, f)
        scale, weight, sign = scheme_scalars(params, scheme)
        gap = np.multiply(swap_sum, sign * scale * scale, dtype=np.float64)
        gap.flat[:: d * d + 1] += family.n_terms
        gap *= weight / (d * d)
        gap -= werner_dense(params).real
        vals = (1.0 + scale * np.array(family.spectrum)) / d
        weights = np.full(family.n_terms, weight)
        for tol in (1e-9, 0.0):
            dense = werner.verify._report(
                float(weights.min()),
                float(weights.sum()),
                float(vals.min()),
                abs(float(np.sum(vals * vals)) - 1.0),
                sqrt(float(np.vdot(gap, gap))),
                tol,
                family.problems,
            )
            assert verify_family(family, params.f, tol) == dense


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 127, 128, 129, 136, 256, 257, 1056, 2046, 4095])
def test_the_pairwise_sum_is_numpy_s_to_the_bit(n):
    # numpy's reduction adds the pairwise sum to 0.0: blocks of 8
    # accumulators up to 128 values, halves split at a multiple of 8 above
    rng = np.random.default_rng(n)
    for _ in range(20):
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-5, 6, n)
        assert (0.0 + werner.verify._pairwise(values.tolist())).hex() == float(np.sum(values)).hex()


@pytest.mark.parametrize("scheme", [PER_STRING, COMMUTING_CLASS])
def test_a_p5_family_point_costs_o1(scheme):
    # no field of the family holds more than d entries, and a point makes no
    # d^4 array: a dense float64 gap alone would take 8 MiB
    family = _family(5, scheme)
    assert all(np.size(getattr(family, name)) <= 32 for name in family._fields)
    params = WernerParams(5, 0.02 if scheme == PER_STRING else 0.6)
    tracemalloc.start()
    try:
        rep = verify_family(family, params.f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.verdict
    assert peak < 64 * 2**10


def test_component_dedup_by_identity():
    # symmetric terms index one factor row twice; verification must not count
    # the same matrix twice but must still scan both slots of mixed pairs
    params = WernerParams(1, 0.2)
    dec = decompose_auto(params, PER_STRING)  # flipped: A and B differ
    rep = verify_decomposition(dec)
    assert rep.verdict
    sym = decompose_auto(WernerParams(1, 0.9), COMMUTING_CLASS)
    rep = verify_decomposition(sym)
    assert rep.verdict


def test_parsed_certificate_checks_each_distinct_factor_once(monkeypatch):
    # the plain parse gives every slot its own row, so only content can tell
    # that state_a and state_b of a class term are the same factor
    params = WernerParams(3, 0.7)
    dec = decompose_auto(params, COMMUTING_CLASS)
    parsed = doc_decomposition(json.loads("".join(certificate_chunks(dec))))
    assert parsed.n_terms == 72
    in_memory = verify_decomposition(dec)
    in_memory_refined = exact(refine_to_pure(dec))

    calls = []  # matrices per kernel call

    def counting(a, *args, **kwargs):
        calls.append(len(a))
        return hermitian_eigensystem(a, *args, **kwargs)

    # the 72 distinct 8x8 factors take one stack per nonzero pattern, each
    # within one chunk of _CHUNK_BYTES
    assert 72 <= _CHUNK_BYTES // (16 * 8 * 8)
    chunks = len({(m != 0).tobytes() for m in dec.factors})
    monkeypatch.setattr("werner.verify.hermitian_eigensystem", counting)
    assert verify_decomposition(parsed) == in_memory
    assert sum(calls) == 72
    assert len(calls) <= chunks
    del calls[:]
    assert exact(refine_to_pure(parsed)) == in_memory_refined
    assert sum(calls) == 72  # one pass gives the verification and the split
    assert len(calls) <= chunks


def test_each_stack_shares_one_nonzero_pattern(monkeypatch):
    # p = 3 per-string: 126 distinct factors on 8 patterns, one per x mask,
    # all within one chunk; each matrix alone gives the stack's bits
    params = WernerParams(3, 0.1)
    dec = decompose_auto(params, PER_STRING)
    patterns = []

    def recording(a, *args, **kwargs):
        patterns.append({(m != 0).tobytes() for m in a})
        return hermitian_eigensystem(a, *args, **kwargs)

    monkeypatch.setattr("werner.verify.hermitian_eigensystem", recording)
    stacked = verify_decomposition(dec), exact(refine_to_pure(dec))
    assert len(patterns) == 2 * 8  # verify; refine's verification and split in one pass
    assert all(len(seen) == 1 for seen in patterns)

    def alone(a, compute_vectors=False):
        solved = [hermitian_eigensystem(m, compute_vectors=compute_vectors) for m in a]
        vals = np.array([v for v, _ in solved])
        return vals, np.array([v for _, v in solved]) if compute_vectors else None

    monkeypatch.setattr("werner.verify.hermitian_eigensystem", alone)
    assert (verify_decomposition(dec), exact(refine_to_pure(dec))) == stacked


def _counting_rows(monkeypatch):
    rows = []  # matrices solved, over all kernel calls

    def counting(a, *args, **kwargs):
        rows.append(len(a))
        return hermitian_eigensystem(a, *args, **kwargs)

    monkeypatch.setattr("werner.verify.hermitian_eigensystem", counting)
    return rows


def _copied(dec):
    # every factor slot its own row, with the same bytes
    terms = [t._replace(state_a=t.state_a.copy(), state_b=t.state_b.copy()) for t in expand(dec)]
    return _with_terms(dec, terms)


def test_equal_factors_in_distinct_objects_are_solved_once(monkeypatch):
    params = WernerParams(2, 0.6)
    dec = decompose_auto(params, COMMUTING_CLASS)  # 20 terms, each one factor row twice
    shared = verify_decomposition(dec)
    rows = _counting_rows(monkeypatch)
    assert verify_decomposition(_copied(dec)) == shared
    assert sum(rows) == 20
    # a row held in both slots of a term is keyed once
    hashed = []

    def counting_hash(data):
        hashed.append(1)
        return hash(data)

    monkeypatch.setattr("werner.verify.hash", counting_hash, raising=False)
    _eigensystems(dec)
    assert len(hashed) == 20


def test_repeated_rows_are_solved_once_per_distinct_content(monkeypatch):
    # the plain parse of a key-reordered file has one row per factor value, a
    # class term's two equal factors included; the builder at f = 1/d has 20
    # rows, each I/d
    params, low = WernerParams(2, 0.6), WernerParams(2, 0.25)
    dec = decompose_auto(params, COMMUTING_CLASS)
    doc = json.loads("".join(certificate_chunks(dec)), parse_int=lambda s: -0.0 if s == "-0" else int(s))
    for t in doc["terms"]:
        for side in ("state_a", "state_b"):
            t[side] = {key: t[side][key] for key in ("re", "im", "dim")}
    parsed = parse_decomposition(json.dumps(doc))
    assert len(parsed.factors) == 40
    mixed = decompose_auto(low, COMMUTING_CLASS)
    assert len(mixed.factors) == 20
    assert all(np.array_equal(m, np.eye(4) / 4) for m in mixed.factors)
    want = [verify_decomposition(dec), exact(refine_to_pure(dec)),
            verify_decomposition(mixed), exact(refine_to_pure(mixed))]
    rows = _counting_rows(monkeypatch)
    assert verify_decomposition(parsed) == want[0]
    assert exact(refine_to_pure(parsed)) == want[1]
    assert sum(rows) == 2 * 20  # verify; refine's verification and split in one pass
    del rows[:]
    assert verify_decomposition(mixed) == want[2]
    assert exact(refine_to_pure(mixed)) == want[3]
    assert rows == [1, 1]


def test_a_forced_key_collision_keeps_different_factors_apart(monkeypatch):
    params = WernerParams(2, 0.6)
    dec = decompose_auto(params, COMMUTING_CLASS)
    honest = verify_decomposition(dec), exact(refine_to_pure(dec))
    # every compact key collides; the exact fallback must tell the factors apart
    monkeypatch.setattr("werner.verify.hash", lambda data: 0, raising=False)
    copies = _copied(dec)
    keys, vals, _ = _eigensystems(copies)
    assert len(keys) == 40
    assert len(vals) == len(set(keys.tolist())) == 20
    assert np.array_equal(keys[copies.pairs[:, 0]], keys[copies.pairs[:, 1]])
    rows = _counting_rows(monkeypatch)
    assert (verify_decomposition(copies), exact(refine_to_pure(copies))) == honest
    assert sum(rows) == 2 * 20  # verify; refine's verification and split in one pass


def test_factor_keys_hold_no_copy_of_the_factors():
    # exact keys held the bytes of every distinct 32 x 32 factor: 17 MB; the
    # whole Jacobi pass, keys and stacks, peaks at 2.3 MiB
    dec = decompose_auto(WernerParams(5, 0.6), COMMUTING_CLASS)
    tracemalloc.start()
    try:
        keys, vals, _ = _eigensystems(dec)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(keys) == len(vals) == 1056
    assert held < 1 << 20
    assert peak < 4 << 20


@pytest.mark.parametrize("f", [0.6, 0.02, -0.4])  # class, per-string, entangled
def test_a_p5_report_holds_the_state_and_one_working_copy(f):
    # the probe's state (16 MiB, conjugated in place) and one block, or the
    # generators and S, set the peak, with the class sums built in it: the
    # caller's state beside the probe's copy reached 33.3 MiB, the two-buffer
    # probe and the family's whole-stack temporaries 50-51 MB
    params = WernerParams(5, f)
    tracemalloc.start()
    try:
        separability_report(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 22 * 2**20


@pytest.mark.parametrize("scheme", [PER_STRING, COMMUTING_CLASS])
def test_a_p5_family_holds_its_stack_and_chunk_sized_work_at_most(scheme):
    # its stack of V held as (x, D), 0.26 MB, and a few chunks of work: the
    # identities' products, the Gram matrices. A dense (4^p - 1, d, d)
    # complex64 stack of the V alone would take 8.4 MB, a (d^2, d^2) float32
    # S 4 MiB
    tracemalloc.start()
    try:
        scheme_family(5, scheme)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * _CHUNK_BYTES


@pytest.mark.parametrize("f,scheme", [(0.02, PER_STRING), (0.6, COMMUTING_CLASS)])
def test_a_p5_build_holds_its_factors_and_chunk_sized_work_at_most(f, scheme):
    # the factors (33.5 and 17.3 MB) and the realized V and sums of one
    # chunk of groups: a dense stack of every V would add 8.4 MB
    params = WernerParams(5, f)
    tracemalloc.start()
    try:
        factors = _build(params, scheme).factors.nbytes
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= factors + 3 * _CHUNK_BYTES


def _turn_last(x, z, t):
    t[-1] = (t[-1] + 1) % 4


def _lift_last(x, z, t):
    # the last V onto the identity string
    x[-1] = z[-1] = t[-1] = 0


@pytest.mark.parametrize("scheme", [PER_STRING, COMMUTING_CLASS])
@pytest.mark.parametrize("tamper", [_turn_last, _lift_last])
def test_the_identities_see_a_change_in_the_last_v(monkeypatch, scheme, tamper):
    # the identities read every V to the last
    problems = _tampered_family(monkeypatch, 2, scheme, tamper).problems
    assert (problems[0] == "a V is not Hermitian") is (tamper is _turn_last)
    assert any("nonzero trace" in x for x in problems) is (tamper is _lift_last)
    assert problems[-1] == "S = sum_t G_t (x) G_t differs from its closed form"


def _recording(monkeypatch, names):
    """(stage name, ran on a worker) of each call of the named verify stages,
    in the order the calls began."""
    calls = []
    for name in names:
        fn = getattr(werner.verify, name)

        def recorded(*args, _name=name, _fn=fn):
            calls.append((_name, threading.current_thread() is not threading.main_thread()))
            return _fn(*args)

        monkeypatch.setattr(f"werner.verify.{name}", recorded)
    return calls


_P5_STAGES = (
    "invariance_residual", "_products", "_group_law", "_swap_sum", "_eigensystems",
    "reconstruct",
)


@pytest.mark.parametrize("f", [0.6, 0.02, -0.4])  # class, per-string, entangled
def test_p5_overlap_keeps_its_bits(monkeypatch, f):
    # no stage overlaps another: each runs on this thread, in its order, and
    # no thread starts, so the reports are those of the plain calls
    params = WernerParams(5, f)
    # a separable report carries verify_family's report; the entangled point
    # has none, so a forced certificate goes through verify_decomposition
    forced = _build(params, PER_STRING) if f < 0 else None
    plain = (
        separability_report(params),
        forced and verify_decomposition(forced),
    )
    calls = _recording(monkeypatch, _P5_STAGES)
    monkeypatch.setattr("threading.Thread", _refusing)
    before = threading.active_count()
    recorded = (
        separability_report(params),
        forced and verify_decomposition(forced),
    )
    assert threading.active_count() == before
    if f >= 0:
        # the probe, the masks of each V, its group law, then S
        assert calls == [
            ("invariance_residual", False), ("_products", False), ("_group_law", False),
            ("_swap_sum", False),
        ]
    else:
        # the probe, then the forced certificate's Jacobi, then its reconstruction
        assert calls == [
            ("invariance_residual", False), ("_eigensystems", False), ("reconstruct", False)
        ]
    assert recorded == plain
    assert plain[0][0].verdict == ("SEPARABLE" if f >= 0 else "ENTANGLED")
    assert forced is None or not plain[1].verdict


def test_p5_sweep_prints_the_same_bytes_inline(monkeypatch, capsys):
    # entangled, per-string and two class rows: each family is built once
    argv = ["sweep", "--p", "5", "--f-start", "-0.5", "--f-end", "1", "--f-step", "0.5"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    calls = _recording(monkeypatch, _P5_STAGES)
    monkeypatch.setattr("threading.Thread", _refusing)
    assert main(argv) == 0
    assert capsys.readouterr() == plain
    # each family is built once, on this thread
    assert sorted(calls) == sorted(
        [("_products", False), ("_group_law", False), ("_swap_sum", False)] * 2
    )
    rows = [row.split(",") for row in plain.out.splitlines()[1:]]
    assert [(row[4], row[8]) for row in rows] == [
        ("", "ENTANGLED"),
        ("per_string", "SEPARABLE"),
        ("commuting_class", "SEPARABLE"),
        ("commuting_class", "SEPARABLE"),
    ]


def _with_non_hermitian_factor(params, at):
    dec = decompose_auto(params, COMMUTING_CLASS)
    terms = expand(dec)
    bad = terms[at].state_a.copy()
    bad[0, 1] += 1e-3
    terms[at] = terms[at]._replace(state_a=bad)
    return _with_terms(dec, terms)


@pytest.mark.parametrize("at", [0, 1055])  # Jacobi's first stack, or its last
def test_p5_overlap_raises_the_inline_error(monkeypatch, capfd, at):
    # Jacobi's error ends the call on this thread before the reconstruction
    # starts, and no thread starts
    params = WernerParams(5, 0.6)
    dec = _with_non_hermitian_factor(params, at)
    calls = _recording(monkeypatch, ("_eigensystems", "reconstruct"))
    monkeypatch.setattr("threading.Thread", _refusing)
    with pytest.raises(MalformedInput) as raised:
        verify_decomposition(dec)
    assert str(raised.value) == "matrix is not Hermitian within 1e-10"
    assert calls == [("_eigensystems", False)]
    assert capfd.readouterr().err == ""


def test_when_both_stages_fail_the_first_error_wins(monkeypatch, capfd):
    params = WernerParams(5, 0.6)
    dec = _with_non_hermitian_factor(params, 0)

    def failing(*args):
        raise MemoryError("second stage failed")

    monkeypatch.setattr("threading.Thread", _refusing)
    monkeypatch.setattr("werner.verify.reconstruct", failing)
    with pytest.raises(MalformedInput, match="not Hermitian"):
        verify_decomposition(dec)
    # the second stage's error alone still surfaces
    with pytest.raises(MemoryError, match="second stage failed"):
        verify_decomposition(decompose_auto(params, COMMUTING_CLASS))
    # separability_report runs the probe first, then the family's group law
    probe = werner.verify.invariance_residual
    monkeypatch.setattr("werner.verify._group_law", failing)
    monkeypatch.setattr("werner.verify.invariance_residual", lambda *args: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        separability_report(params)
    monkeypatch.setattr("werner.verify.invariance_residual", probe)
    with pytest.raises(MemoryError, match="second stage failed"):
        separability_report(params)
    assert capfd.readouterr().err == ""
