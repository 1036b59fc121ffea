"""Acceptance gates for the toolkit, one test per criterion.

Each test prints exactly one `[ACCEPTANCE] criterion k (...): PASS|FAIL`
line on the live terminal (bypassing capture) so a full run reads as a
ten-line scorecard. The assertions pin closed-form values, cross-route
agreement, certificate quality, and byte-level determinism.
"""
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from math import sqrt

import numpy as np
import pytest

from certificate_oracle import expand
from dense_reference import partial_transpose_b
from werner.decompose import COMMUTING_CLASS, PER_STRING, _build, decompose_auto
from werner.linalg import Spectrum, hermitian_eigenvalues
from werner.model import (
    WernerParams,
    invariance_residual,
    ppt_check,
    pt_spectrum_closed_form,
    random_unitary,
    spectrum_closed_form,
    spectrum_via_transform,
    werner_dense,
)
from werner.partition import build_partition, validate_partition
from werner.verify import refine_to_pure, verify_decomposition


@contextmanager
def criterion(capsys, k, name):
    def emit(status):
        with capsys.disabled():
            print(f"[ACCEPTANCE] criterion {k:2d} ({name}): {status}")

    try:
        yield
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


def f_grid(start, stop, steps):
    return [start + (stop - start) * k / steps for k in range(steps + 1)]


SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SI = np.eye(2, dtype=complex)
_LETTER = {"I": SI, "X": SX, "Y": SY, "Z": SZ}


def _numeric_pt(params):
    return partial_transpose_b(werner_dense(params), params.d, params.d)


def letters_matrix(label):
    m = _LETTER[label[0]]
    for c in label[1:]:
        m = np.kron(m, _LETTER[c])
    return m


def test_criterion_01_spectrum_triangle(capsys):
    with criterion(capsys, 1, "spectrum triangle"):
        for p in (1, 2, 3):
            d = 2**p
            for f in sorted({-1.0, -0.5, 0.0, 1.0 / d, 0.5, 1.0}):
                params = WernerParams(p, f)
                closed = spectrum_closed_form(params)
                trans = spectrum_via_transform(params)
                jac = hermitian_eigenvalues(werner_dense(params))
                assert closed.isclose(trans, 1e-9)
                assert closed.isclose(jac, 1e-9)
                assert trans.isclose(jac, 1e-9)
                if abs(f - 1.0 / d) > 1e-12:
                    expected = Spectrum.from_pairs(
                        [
                            ((1.0 - f) / (d * (d - 1)), d * (d - 1) // 2),
                            ((1.0 + f) / (d * (d + 1)), d * (d + 1) // 2),
                        ]
                    )
                    assert closed.multiplicities == expected.multiplicities
                    assert closed.isclose(expected, 1e-12)
                else:
                    # both branches coincide at f = 1/d
                    assert closed.pairs == ((pytest.approx(1.0 / d**2), d * d),)
                if p == 1:
                    want = sorted([(1.0 - f) / 2.0, (1.0 + f) / 6.0])
                    got = list(closed.values)
                    if abs(f - 0.5) < 1e-12:
                        want = [0.25]
                    assert got == pytest.approx(want, abs=1e-12)


def test_criterion_02_unit_trace_audit(capsys):
    with criterion(capsys, 2, "unit-trace audit"):
        for p in (1, 2, 3):
            for f in f_grid(-1.0, 1.0, 20):
                params = WernerParams(p, f)
                emitted = [
                    spectrum_closed_form(params),
                    spectrum_via_transform(params),
                    pt_spectrum_closed_form(params),
                ]
                if p <= 2:
                    emitted.append(hermitian_eigenvalues(werner_dense(params)))
                    emitted.append(hermitian_eigenvalues(_numeric_pt(params)))
                for spec in emitted:
                    assert abs(spec.weighted_sum() - 1.0) < 1e-10

        # documented negative test: two plausible-looking p=2 spectrum
        # candidates that fail the audit, frozen here so the failure stays
        # on record. Candidate A sums to 5/4 - f, candidate B to f + 3/4;
        # both only pass at the accidental point f = 1/4, which the grid
        # below avoids.
        for f in (0.0, 0.5, 0.75, 1.0):
            candidate_a = Spectrum.from_pairs(
                [((1.0 - 2.0 * f) / 8.0, 6), ((1.0 + f) / 20.0, 10)]
            )
            assert candidate_a.weighted_sum() == pytest.approx(1.25 - f, abs=1e-12)
            assert abs(candidate_a.weighted_sum() - 1.0) > 0.05

            candidate_b = Spectrum.from_pairs(
                [(f / 4.0, 6), ((3.0 - 2.0 * f) / 40.0, 10)]
            )
            assert candidate_b.weighted_sum() == pytest.approx(f + 0.75, abs=1e-12)
            assert abs(candidate_b.weighted_sum() - 1.0) > 0.05


def test_criterion_03_ppt_boundary(capsys):
    with criterion(capsys, 3, "PPT boundary"):
        for p in (1, 2, 3):
            d = 2**p
            grid = f_grid(-1.0, 1.0, 20)
            jacobi_grid = grid if p <= 2 else [-1.0, -0.5, 0.0, 0.1, 1.0]
            for f in grid:
                params = WernerParams(p, f)
                closed = pt_spectrum_closed_form(params)
                # the simple eigenvalue f/d is the minimum up to f = 1/d
                if f <= 1.0 / d + 1e-12:
                    assert abs(closed.min() - f / d) < 1e-9
                if p == 1:
                    # verbatim two-branch form: f/2 once, (2 - f)/6 thrice
                    expected = Spectrum.from_pairs([(f / 2.0, 1), ((2.0 - f) / 6.0, 3)])
                    assert closed.isclose(expected, 1e-12)
            for f in jacobi_grid:
                params = WernerParams(p, f)
                closed = pt_spectrum_closed_form(params)
                jac = hermitian_eigenvalues(_numeric_pt(params))
                assert closed.isclose(jac, 1e-9)
                if f <= 1.0 / d + 1e-12:
                    assert abs(jac.min() - f / d) < 1e-9
            assert not ppt_check(WernerParams(p, -0.01))
            assert ppt_check(WernerParams(p, 0.01))


def test_criterion_04_decomposition_reconstruction(capsys):
    with criterion(capsys, 4, "decomposition reconstruction"):
        cases = [(p, f) for p in (1, 2, 3) for f in f_grid(0.0, 1.0, 20)]
        cases += [(4, f) for f in (0.0, 0.05, 0.5, 1.0)]
        for p, f in cases:
            params = WernerParams(p, f)
            dec = decompose_auto(params)
            rep = verify_decomposition(dec)
            assert rep.weight_sum_error < 1e-12, (p, f)
            assert rep.min_component_eigenvalue >= -1e-9, (p, f)
            assert rep.reconstruction_residual < 1e-9, (p, f)
            assert rep.verdict, (p, f)


def test_criterion_05_scheme_ranges(capsys):
    with criterion(capsys, 5, "scheme validity ranges"):
        for p in (1, 2, 3):
            hi = 2.0 ** (1 - p)
            for f in f_grid(0.0, hi, 5):
                params = WernerParams(p, f)
                rep = verify_decomposition(decompose_auto(params, PER_STRING))
                assert rep.verdict, (p, f)
            lo = 2.0**-p
            for f in f_grid(lo, 1.0, 5):
                params = WernerParams(p, f)
                rep = verify_decomposition(decompose_auto(params, COMMUTING_CLASS))
                assert rep.verdict, (p, f)

            # just past the per-string ceiling the components go indefinite;
            # at p=1 that point is unphysical (f > 1), so its forced factors
            # are judged under a header that names the state at f = 1
            probe = WernerParams(p, hi + 0.01)
            dec = _build(probe, PER_STRING)
            if probe.f > 1.0:
                dec = dec._replace(params=probe._replace(f=1.0))
            rep = verify_decomposition(dec)
            assert not rep.positivity_ok
            assert rep.min_component_eigenvalue < -1e-6

        # at p=1 the two schemes produce the same six components wherever
        # both apply
        for f in f_grid(0.5, 1.0, 5):
            params = WernerParams(1, f)
            per = decompose_auto(params, PER_STRING)
            cls = decompose_auto(params, COMMUTING_CLASS)

            def multiset(dec):
                return sorted(
                    (t.weight, t.state_a.tobytes(), t.state_b.tobytes())
                    for t in expand(dec)
                )

            assert multiset(per) == multiset(cls), f


def test_criterion_06_hand_coded_anchors(capsys):
    with criterion(capsys, 6, "hand-coded construction anchors"):
        # p=2, commuting-class scheme: 20 terms of weight 1/20, scale
        # sqrt((4f-1)/3), every factor bit-equal to an independently
        # hand-built (I + s T)/4
        gen_labels = [("IZ", "ZI"), ("IX", "XI"), ("XZ", "YX"), ("XY", "YZ"), ("IY", "YI")]
        for f in (0.25, 0.4, 0.7, 1.0):
            dec = decompose_auto(WernerParams(2, f), COMMUTING_CLASS)
            assert dec.n_terms == 20
            assert all(w == 1.0 / 20.0 for w in dec.weights)
            s = sqrt((4 * f - 1.0) / 3.0)
            assert dec.scale == s

            hand = []
            for g1l, g2l in gen_labels:
                m1 = letters_matrix(g1l)
                m2 = letters_matrix(g2l)
                m3 = m1 @ m2
                for e in range(4):
                    s1 = -1.0 if e & 1 else 1.0
                    s2 = -1.0 if e & 2 else 1.0
                    acc = s1 * m1 + s2 * m2 + (s1 * s2) * m3
                    hand.append((np.eye(4, dtype=complex) + s * acc) / 4)
            assert len(hand) == 20
            for t, h in zip(expand(dec), hand):
                assert np.array_equal(t.state_a, h), t.label
                assert np.array_equal(t.state_b, h), t.label

        # p=1: six terms of weight 1/6 with components (I +- sqrt|2f-1| sig)/2
        for f in f_grid(0.0, 1.0, 8):
            dec = decompose_auto(WernerParams(1, f))
            assert dec.n_terms == 6
            assert all(w == 1.0 / 6.0 for w in dec.weights)
            s = sqrt(abs(2 * f - 1.0))
            assert dec.scale == s

            hand = []
            if f < 0.5:  # per-string ordering: X, Y, Z with signed pairs
                for sig in (SX, SY, SZ):
                    plus = (np.eye(2, dtype=complex) + s * sig) / 2
                    minus = (np.eye(2, dtype=complex) - s * sig) / 2
                    hand.append((plus, minus))
                    hand.append((minus, plus))
            else:  # class ordering: Z, X, Y with sign patterns +, -
                for sig in (SZ, SX, SY):
                    plus = (np.eye(2, dtype=complex) + s * sig) / 2
                    minus = (np.eye(2, dtype=complex) - s * sig) / 2
                    hand.append((plus, plus))
                    hand.append((minus, minus))
            for t, (ha, hb) in zip(expand(dec), hand):
                assert np.array_equal(t.state_a, ha), (f, t.label)
                assert np.array_equal(t.state_b, hb), (f, t.label)


def test_criterion_07_partition_validity(capsys):
    with criterion(capsys, 7, "partition validity"):
        for p in (1, 2, 3, 4, 5):
            part = build_partition(p)
            assert len(part.classes) == 2**p + 1
            assert all(len(c.members) == 2**p - 1 for c in part.classes)
            res = validate_partition(part)
            assert res.ok, res.problems[:3]


def test_criterion_08_local_unitary_invariance(capsys):
    with criterion(capsys, 8, "local-unitary invariance"):
        for p in (1, 2, 3):
            d = 2**p
            for f in (-0.6, 0.37):
                for seed in range(20):
                    assert invariance_residual(WernerParams(p, f), random_unitary(d, seed)) < 1e-9


def test_criterion_09_pure_refinement(capsys):
    with criterion(capsys, 9, "refinement to pure factors"):
        for p in (1, 2):
            for f in (0.0, 0.3, 0.7, 1.0):
                params = WernerParams(p, f)
                refined = refine_to_pure(decompose_auto(params))
                rep = verify_decomposition(refined, tol=1e-8)
                assert rep.verdict, (p, f)
                assert rep.max_purity_deviation < 1e-9, (p, f)
                assert rep.reconstruction_residual < 1e-8, (p, f)


def test_criterion_10_byte_determinism(capsys):
    with criterion(capsys, 10, "byte-identical reruns"):
        env = dict(os.environ)
        env.pop("WERNER_SEED", None)
        report_cmd = [
            sys.executable, "-m", "werner",
            "report", "--p", "2", "--f", "0.6", "--seed", "42",
        ]
        sweep_cmd = [
            sys.executable, "-m", "werner",
            "sweep", "--p", "1", "--f-start", "0", "--f-end", "1", "--f-step", "0.25",
        ]
        for cmd in (report_cmd, sweep_cmd):
            first = subprocess.run(cmd, capture_output=True, env=env)
            second = subprocess.run(cmd, capture_output=True, env=env)
            assert first.returncode == 0, first.stderr
            assert second.returncode == 0
            assert first.stdout == second.stdout
            assert first.stderr == second.stderr
            assert len(first.stdout) > 0
        rep = subprocess.run(report_cmd, capture_output=True, env=env)
        assert json.loads(rep.stdout)["verdict"] == "SEPARABLE"
