"""Command-line behavior: exit codes, document schemas, determinism."""
import argparse
import ast
import gc
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from certificate_oracle import expand, from_terms
from werner import cli, serialize
from werner.cli import _DISPATCH, _build_parser, _sweep_points, main
from werner.decompose import COMMUTING_CLASS, PER_STRING, SCHEMES, decompose_auto
from werner.model import WernerParams, werner_dense
from werner.serialize import doc_matrix, format_float


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_emits_the_state(capsys):
    code, out, err = run(capsys, "build", "--p", "1", "--f", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 1 and doc["f"] == 0.5
    state = doc_matrix(doc["state"])
    assert np.array_equal(state, werner_dense(WernerParams(1, 0.5)))


def test_build_writes_the_p5_state_a_block_of_rows_at_a_time(tmp_path):
    # the state and one block of row texts are live, never the whole 6.3 MB
    # document (which the writer of one string held several times: 36 MiB)
    path = tmp_path / "state.json"
    main(["build", "--p", "1", "--f", "0.6", "--output", str(path)])  # imports
    tracemalloc.start()
    try:
        code = main(["build", "--p", "5", "--f", "0.6", "--output", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    state = werner_dense(WernerParams(5, 0.6))
    assert peak < state.nbytes + (5 << 20)
    doc = {"p": 5, "f": 0.6, "state": serialize.matrix_doc(state)}
    assert path.read_text() == serialize.dumps(doc) + "\n"


def test_spectrum_routes_agree(capsys):
    code, out, _ = run(capsys, "spectrum", "--p", "2", "--f", "0.3")
    assert code == 0
    doc = json.loads(out)
    assert doc["agree"] is True
    assert doc["unit_trace_error"] < 1e-10
    assert doc["jacobi"] is not None
    assert [r["multiplicity"] for r in doc["closed_form"]] == [6, 10]


def test_spectrum_skips_jacobi_above_p3(capsys):
    code, out, _ = run(capsys, "spectrum", "--p", "4", "--f", "0.3")
    assert code == 0
    doc = json.loads(out)
    assert doc["jacobi"] is None
    assert doc["agree"] is True


def test_spectrum_invariance_probe(capsys):
    code, out, _ = run(capsys, "spectrum", "--p", "2", "--f", "0.3",
                       "--check-invariance", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 7
    assert doc["invariance_residual"] < 1e-9
    # the probe keys only appear when requested
    code, out, _ = run(capsys, "spectrum", "--p", "2", "--f", "0.3")
    assert code == 0
    assert "invariance_residual" not in json.loads(out)


def test_ppt_positive(capsys):
    code, out, err = run(capsys, "ppt", "--p", "1", "--f", "0.5")
    assert code == 0
    assert json.loads(out)["verdict"] == "PPT"
    assert err == ""


def test_ppt_negative_exits_2(capsys):
    code, out, err = run(capsys, "ppt", "--p", "1", "--f", "-0.5")
    assert code == 2
    doc = json.loads(out)
    assert doc["verdict"] == "NOT PPT"
    assert doc["min_pt_eigenvalue"] == -0.25
    diag = json.loads(err)
    assert diag["error"] == "NotPPT"


def test_partition_text_and_json(capsys):
    code, out, _ = run(capsys, "partition", "--p", "1")
    assert code == 0
    assert out == "Z\nX\nY\n"
    code, out, _ = run(capsys, "partition", "--p", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n_classes"] == 5
    assert doc["class_size"] == 3
    assert doc["valid"] is True
    assert doc["classes"][0] == ["IZ", "ZI", "ZZ"]
    assert len(doc["generators"][0]) == 2


def test_decompose_schemes(capsys):
    code, out, _ = run(capsys, "decompose", "--p", "2", "--f", "1", "--scheme", "class")
    assert code == 0
    doc = json.loads(out)
    assert doc["scheme"] == "commuting_class"
    assert len(doc["terms"]) == 20
    assert all(t["weight"] == 0.05 for t in doc["terms"])

    code, out, _ = run(capsys, "decompose", "--p", "1", "--f", "0.2", "--scheme", "per-string")
    assert json.loads(out)["scheme"] == "per_string"

    code, out, _ = run(capsys, "decompose", "--p", "1", "--f", "0.2")
    assert json.loads(out)["scheme"] == "per_string"


def test_the_scheme_flags_are_the_tables():
    # the parser spells the flags out, so that building it imports no numpy;
    # argparse lists them in the dict's order
    assert list(cli._SCHEMES) == ["auto", "class", "per-string"]
    assert cli._SCHEMES == {"auto": "auto", "class": COMMUTING_CLASS, "per-string": PER_STRING}
    assert set(SCHEMES) == {COMMUTING_CLASS, PER_STRING}


def test_decompose_out_of_range_exits_2(capsys):
    code, out, err = run(capsys, "decompose", "--p", "1", "--f", "-0.2")
    assert code == 2
    assert out == ""
    diag = json.loads(err)
    assert diag["error"] == "SchemeRangeError"
    assert diag["valid_range"] == [0, 1]


def test_decompose_verify_round_trip(capsys, tmp_path):
    path = tmp_path / "dec.json"
    code, out, _ = run(capsys, "decompose", "--p", "2", "--f", "0.8", "--output", str(path))
    assert code == 0
    assert out == ""
    code, out, _ = run(capsys, "verify", "--input", str(path))
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_verify_catches_tampering(capsys, tmp_path):
    path = tmp_path / "dec.json"
    run(capsys, "decompose", "--p", "1", "--f", "0.8", "--output", str(path))
    doc = json.loads(path.read_text())
    doc["terms"][0]["weight"] += 0.01
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 2
    assert json.loads(out)["verdict"] is False
    assert json.loads(err)["error"] == "VerificationFailed"


def test_refine_from_params(capsys):
    code, out, _ = run(capsys, "refine", "--p", "1", "--f", "0.3")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["terms"]) == 24
    assert all(":a" in t["label"] for t in doc["terms"])


def test_refine_from_file(capsys, tmp_path):
    path = tmp_path / "dec.json"
    run(capsys, "decompose", "--p", "1", "--f", "1", "--output", str(path))
    code, out, _ = run(capsys, "refine", "--input", str(path))
    assert code == 0
    assert len(json.loads(out)["terms"]) == 6


def test_refine_requires_input(capsys):
    code, _, err = run(capsys, "refine")
    assert code == 1
    assert json.loads(err)["error"] == "MissingInput"


def _never(*args, **kwargs):
    raise AssertionError("a refusal must come before any factor is built")


@pytest.mark.parametrize(
    "argv",
    [("refine", "--p", "5", "--f", "0.6"), ("report", "--p", "5", "--f", "0.6", "--refine")],
)
def test_refinement_above_p4_is_refused_up_front(capsys, monkeypatch, argv):
    # a refined p = 5 certificate would hold about a million terms
    monkeypatch.setattr("werner.decompose.decompose_auto", _never)
    monkeypatch.setattr("werner.verify.separability_report", _never)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    (line,) = err.splitlines()
    assert json.loads(line) == {
        "error": "UsageError",
        "message": "refinement is capped at p = 4, got p = 5",
    }


@pytest.mark.parametrize("field", ["weight", "state_b"])
def test_a_refused_certificate_leaves_no_file(monkeypatch, tmp_path, field):
    # the writer renders and checks every weight and factor before the
    # output is opened
    dec = decompose_auto(WernerParams(1, 0.6), COMMUTING_CLASS)
    nan = float("nan") if field == "weight" else np.full((2, 2), np.nan, dtype=complex)
    *head, last = expand(dec)
    broken = from_terms(dec.params, dec.scheme, dec.scale, [*head, last._replace(**{field: nan})])
    monkeypatch.setattr("werner.verify.refine_to_pure", lambda *args: broken)
    path = tmp_path / "cert.json"
    with pytest.raises(ValueError, match="non-finite"):
        main(["refine", "--p", "1", "--f", "0.6", "--output", str(path)])
    assert not path.exists()


def test_refine_input_above_p4_is_refused_before_its_factors_convert(
    capsys, monkeypatch, tmp_path
):
    dec = decompose_auto(WernerParams(5, 0.6), COMMUTING_CLASS)
    path = tmp_path / "cert5.json"
    one_term = from_terms(dec.params, dec.scheme, dec.scale, expand(dec)[:1])
    path.write_text("".join(serialize.certificate_chunks(one_term)))
    monkeypatch.setattr("werner.serialize.doc_matrix", _never)
    monkeypatch.setattr("werner.serialize._factor_arrays", _never)
    code, out, err = run(capsys, "refine", "--input", str(path))
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert json.loads(line) == {
        "error": "MalformedInput",
        "message": "certificate p=5 is above the cap of 4",
    }


def test_report_separable(capsys):
    code, out, _ = run(capsys, "report", "--p", "2", "--f", "0.9")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "SEPARABLE"
    assert doc["verification"]["reconstruction_residual"] < 1e-9
    assert doc["seed"] == 42


def test_report_at_zero_tol_accepts_an_exact_certificate(capsys):
    code, out, err = run(capsys, "report", "--p", "1", "--f", "0", "--tol", "0")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["verdict"] == "SEPARABLE"
    assert doc["verification"]["reconstruction_residual"] == 0.0


def test_report_entangled_exits_2(capsys):
    code, out, err = run(capsys, "report", "--p", "2", "--f", "-0.3")
    assert code == 2
    doc = json.loads(out)
    assert doc["verdict"] == "ENTANGLED"
    assert doc["witness"] == pytest.approx(-0.075)
    assert json.loads(err)["error"] == "NotSeparable"


def test_report_text_format(capsys):
    code, out, _ = run(capsys, "report", "--p", "1", "--f", "0.7", "--format", "text")
    assert code == 0
    assert "verdict: SEPARABLE" in out


def test_report_unphysical_exits_2(capsys):
    code, _, err = run(capsys, "report", "--p", "2", "--f", "1.5")
    assert code == 2
    assert json.loads(err)["error"] == "PhysicalRangeError"


def test_report_refine_flag(capsys):
    code, out, _ = run(capsys, "report", "--p", "1", "--f", "0.3", "--refine")
    assert code == 0
    doc = json.loads(out)
    assert doc["refined"]["n_terms"] == 24


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--p", "1", "--f-start", "0", "--f-end", "1", "--f-step", "0.25")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "f,min_eig_rho,min_eig_pt,ppt,scheme,n_terms,min_component_eig,"
        "reconstruction_residual,verdict"
    )
    assert len(lines) == 6
    assert lines[1].startswith("0,")
    assert lines[1].endswith("SEPARABLE")
    # min_eig_pt = f/2 on the first three rows
    for ln, f in zip(lines[1:4], (0.0, 0.25, 0.5)):
        assert float(ln.split(",")[2]) == pytest.approx(f / 2)


def test_sweep_entangled_rows(capsys):
    code, out, _ = run(capsys, "sweep", "--p", "2", "--f-start", "-0.25", "--f-end", "-0.25", "--f-step", "0.5")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[3] == "false"
    assert float(row[2]) == pytest.approx(-0.0625)
    assert row[4] == ""  # no scheme
    assert row[-1] == "ENTANGLED"


def test_sweep_row_agrees_with_report_inside_the_ppt_band(capsys):
    # a sweep row holds report's judgement at its point and tol, bit for bit
    def bits(value):
        return None if value in ("", None) else float(value).hex()

    verdicts = set()
    for p in range(1, 6):
        for f in (-0.4, -1e-10, 0.0, 2.0**-p, 2.0 ** (1 - p), 0.6, 1.0):
            for tol in ((), ("--tol", "0")):
                code, out, _ = run(capsys, "sweep", "--p", str(p), f"--f-start={f!r}",
                                   "--f-end", repr(f), "--f-step", "1", *tol)
                assert code == 0
                header, line = out.splitlines()
                row = dict(zip(header.split(","), line.split(",")))
                code, out, _ = run(capsys, "report", "--p", str(p), f"--f={f!r}", *tol)
                doc = json.loads(out)
                ver = doc["verification"] or {}
                assert code == (0 if doc["verdict"] == "SEPARABLE" else 2)
                assert (row["ppt"], row["verdict"]) == (json.dumps(doc["ppt"]), doc["verdict"])
                assert bits(row["min_eig_pt"]) == bits(doc["min_pt_eigenvalue"])
                assert int(row["n_terms"]) == doc["n_terms"]
                assert row["scheme"] == (doc["scheme"] or "")
                if doc["scheme"] is None:
                    assert doc["n_terms"] == 0 and doc["verification"] is None
                for column, key in (("min_component_eig", "min_component_eigenvalue"),
                                    ("reconstruction_residual", "reconstruction_residual")):
                    assert bits(row[column]) == bits(ver.get(key))
                verdicts.add(doc["verdict"])
    # --tol 0 holds some family rows to INVALID, as the golden sweep --p 3 --tol 0
    assert verdicts == {"SEPARABLE", "INVALID", "ENTANGLED"}
    # f = -1e-10 is PPT within tol, but f/d < 0 witnesses entanglement
    code, out, _ = run(capsys, "sweep", "--p", "2", "--f-start=-1e-10", "--f-end", "0", "--f-step", "1")
    assert code == 0
    row = dict(zip(out.splitlines()[0].split(","), out.splitlines()[1].split(",")))
    code, out, err = run(capsys, "report", "--p", "2", "--f=-1e-10")
    assert code == 2
    assert json.loads(err)["error"] == "NotSeparable"
    doc = json.loads(out)
    assert row["ppt"] == "true" and doc["ppt"] is True
    assert (row["scheme"], int(row["n_terms"]), row["verdict"]) == ("", 0, "ENTANGLED")
    assert (doc["scheme"], doc["n_terms"], doc["verdict"]) == (None, 0, "ENTANGLED")
    assert doc["witness"] == doc["min_pt_eigenvalue"] == -1e-10 / 4


@pytest.mark.parametrize("p, f", [("1", "-1.9e-9"), ("2", "-3.9e-9")])
def test_report_calls_every_negative_f_entangled(capsys, p, f):
    # both points pass PPT within the default tol; the f = 0 certificate
    # that once stood in for them missed rho by more than tol
    code, out, err = run(capsys, "report", "--p", p, f"--f={f}")
    assert code == 2
    doc = json.loads(out)
    assert (doc["verdict"], doc["ppt"], doc["scheme"]) == ("ENTANGLED", True, None)
    assert doc["witness"] == float(f) / 2 ** int(p)
    diag = json.loads(err)
    assert diag["error"] == "NotSeparable" and diag["witness"] == doc["witness"]


def test_sweep_rejects_bad_ranges(capsys):
    code, _, err = run(capsys, "sweep", "--p", "1", "--f-start", "0", "--f-end", "1", "--f-step", "-0.1")
    assert code == 2
    assert json.loads(err)["error"] == "InvalidRange"
    code, _, err = run(capsys, "sweep", "--p", "1", "--f-start", "0.5", "--f-end", "0.2", "--f-step", "0.1")
    assert code == 2
    code, _, err = run(capsys, "sweep", "--p", "1", "--f-start", "-2", "--f-end", "1", "--f-step", "0.5")
    assert code == 2


def test_sweep_rejects_oversized_grid_before_any_row(capsys, monkeypatch):
    def no_rows(params):
        raise AssertionError("a row was built")

    monkeypatch.setattr("werner.model.spectrum_closed_form", no_rows)
    code, out, err = run(capsys, "sweep", "--p", "1", "--f-start", "-1", "--f-end", "1", "--f-step=1e-12")
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == "InvalidRange"


def _loop_points(start, end, step):
    # reference: the sweep loop's own stopping rule, run point by point
    k = 0
    while start + k * step <= end + 1e-12:
        k += 1
    return k


@pytest.mark.parametrize(
    "start,end,step",
    [
        (0.0, 1.0, 0.25),
        (-1.0, 1.0, 0.025),
        (-0.25, -0.25, 0.5),
        (0.0, 1.0, 0.1),
        (0.1, 0.7, 0.2),
        (0.25 - 3e-9, 0.25 + 3e-9, 1e-9),
        (-1.0, 1.0, 2.0 / 3),
        (-1.0, -0.560000000001, 0.01),  # (end - start) / step rounds one point short
        (-0.44035407987583364, 0.006589723092040344, 0.012769822941967829),  # one over
        (0.0, 0.99999, 1e-5),  # 100,000 points, the cap
        (0.0, 1.0, 1e-5),  # one point more
    ],
)
def test_sweep_counts_points_by_the_loop_rule(start, end, step):
    assert _sweep_points(start, end, step) == _loop_points(start, end, step)


def test_usage_errors_exit_1(capsys):
    for argv in [
        ("nonsense",),
        (),
        ("build", "--p", "9", "--f", "0"),
        ("build", "--p", "1"),  # missing --f
        ("build", "--p", "1", "--f", "0", "--bogus"),
        # flags their subcommands never read
        ("build", "--p", "1", "--f", "0.5", "--seed", "1"),
        ("build", "--p", "1", "--f", "0.5", "--tol", "1e-9"),
        ("build", "--p", "1", "--f", "0.5", "--format", "json"),
        ("spectrum", "--p", "1", "--f", "0.5", "--tol", "1e-9"),
        ("spectrum", "--p", "1", "--f", "0.5", "--format", "json"),
        ("ppt", "--p", "1", "--f", "0.5", "--seed", "1"),
        ("ppt", "--p", "1", "--f", "0.5", "--format", "json"),
        ("decompose", "--p", "1", "--f", "0.5", "--seed", "1"),
        ("decompose", "--p", "1", "--f", "0.5", "--tol", "1e-9"),
        ("decompose", "--p", "1", "--f", "0.5", "--format", "json"),
        ("verify", "--input", "cert.json", "--format", "json"),
        ("refine", "--p", "1", "--f", "0.5", "--format", "json"),
        ("sweep", "--p", "1", "--f-start", "0", "--f-end", "1", "--f-step", "0.5", "--seed", "1"),
        # refine reads either a certificate or (p, f, scheme), never both
        ("refine", "--input", "cert.json", "--p", "1"),
        ("refine", "--input", "cert.json", "--f", "0.5"),
        ("refine", "--input", "cert.json", "--scheme", "auto"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "UsageError"


def test_each_subcommand_takes_only_the_flags_it_reads():
    # a flag is read when its handler names args.<dest>; --output via _write(args, ...)
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    unread, settable = [], 0
    for cmd, sp in sub.choices.items():
        source = inspect.getsource(_DISPATCH[cmd])
        for action in sp._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            settable += 1
            read = re.search(rf"\bargs\.{action.dest}\b", source) or (
                action.dest == "output" and "_write(args" in source
            )
            if not read:
                unread.append(f"{cmd} {action.option_strings[0]}")
    assert (unread, settable) == ([], 41)


def test_help_is_plain_usage_text(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: werner")
    assert err == ""


@pytest.mark.parametrize("cmd", ["verify", "refine"])
@pytest.mark.parametrize(
    "case",
    [
        "not-json",
        "missing-f",
        "short-re",
        "non-hermitian",
        "no-terms",
        "mixed-dims",
        "wrong-p",
        "nan-f",
        "nan-scale",
        "nan-weight",
        "inf-entry",
        "bogus-scheme",
        "string-p",
        "float-p",
        "float-dim",
        "string-weight",
        "string-entry",
        "bool-entry",
        "numeric-label",
        "huge-int-weight",
        "huge-p",
        "p-above-cap",
    ],
)
def test_malformed_certificate_exits_2_with_json(capsys, tmp_path, cmd, case):
    doc = json.loads(run(capsys, "decompose", "--p", "1", "--f", "0.5")[1])
    factor = doc["terms"][0]["state_a"]
    text = None
    if case == "not-json":
        text = "not json"
    elif case == "missing-f":
        text = '{"p": 2}'
    elif case == "short-re":
        factor["re"] = factor["re"][:1]  # 1x2 against dim 2
    elif case == "no-terms":
        doc["terms"] = []
    elif case == "mixed-dims":  # one 4x4 factor among 2x2 ones
        factor.update(dim=4, re=np.eye(4).tolist(), im=np.zeros((4, 4)).tolist())
    elif case == "wrong-p":  # p = 12 would build a 4^12 x 4^12 target first
        doc["p"] = 12
    elif case in ("nan-f", "nan-scale"):  # json.dumps writes NaN, json.loads reads it
        doc[case[4:]] = float("nan")
    elif case == "nan-weight":
        doc["terms"][0]["weight"] = float("nan")
    elif case == "inf-entry":
        factor["re"][0][0] = float("inf")
    elif case == "bogus-scheme":
        doc["scheme"] = "bogus"
    elif case == "string-p":  # these seven convert to valid values, but are mistyped
        doc["p"] = "1"
    elif case == "float-p":
        doc["p"] = 1.9
    elif case == "float-dim":
        factor["dim"] = 2.0
    elif case == "string-weight":
        doc["terms"][0]["weight"] = "0.5"
    elif case == "string-entry":
        factor["re"] = [[str(v) for v in row] for row in factor["re"]]
    elif case == "bool-entry":
        factor["im"][0][0] = False
    elif case == "numeric-label":
        doc["terms"][0]["label"] = 3
    elif case == "huge-int-weight":  # float() overflows
        doc["terms"][0]["weight"] = 10**400
    elif case == "huge-p":  # 2**p alone would never finish
        doc["p"] = 10**12
    elif case == "p-above-cap":  # a well-formed p = 6 certificate; its target is 4096^2
        doc["p"] = 6
        eye = np.eye(64).tolist()
        zero = np.zeros((64, 64)).tolist()
        doc["terms"] = [dict(doc["terms"][0], weight=1.0,
                             state_a=dict(dim=64, re=eye, im=zero),
                             state_b=dict(dim=64, re=eye, im=zero))]
    else:
        factor["re"] = [[0.0, 1.0], [0.0, 0.0]]
        factor["im"] = [[0.0, 0.0], [0.0, 0.0]]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc) if text is None else text)
    code, out, err = run(capsys, cmd, "--input", str(path))
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    diag = json.loads(line)
    assert diag["error"] == "MalformedInput"
    if case == "short-re":  # rejected by its shape, not later as non-Hermitian
        assert "shape" in diag["message"]


@pytest.mark.parametrize("p", [6, 10**12])
def test_refused_p_converts_no_factor(capsys, tmp_path, monkeypatch, p):
    # the header is checked first: a p above the cap costs no factor
    # conversion, even with well-formed 64x64 factors
    conversions = []
    for name in ("doc_matrix", "_factor_arrays"):  # one factor object, or all factor texts
        convert = getattr(serialize, name)
        monkeypatch.setattr(
            serialize, name, lambda arg, convert=convert: conversions.append(1) or convert(arg)
        )
    doc = json.loads(run(capsys, "decompose", "--p", "1", "--f", "0.5")[1])
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "verify", "--input", str(path))[0] == 0
    assert conversions  # the control: an accepted certificate converts its factors
    del conversions[:]
    eye, zero = np.eye(64).tolist(), np.zeros((64, 64)).tolist()
    doc["p"] = p
    doc["terms"] = [dict(doc["terms"][0], weight=1.0,
                         state_a=dict(dim=64, re=eye, im=zero),
                         state_b=dict(dim=64, re=eye, im=zero))]
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "MalformedInput"
    assert conversions == []


def test_closed_form_rows_print_the_formulas(capsys):
    # p = 2, f = 0.6 for spectrum and ppt; p = 3, f = 0.7 for report
    f, d = 0.6, 4
    out = run(capsys, "spectrum", "--p", "2", "--f", "0.6")[1]
    rows = [((1.0 - f) / (d * (d - 1)), 6), ((1.0 + f) / (d * (d + 1)), 10)]
    assert json.loads(out)["closed_form"] == [
        {"value": v, "multiplicity": m} for v, m in rows
    ]
    assert all(f'"value": {format_float(v)}' in out for v, _ in rows)

    out = run(capsys, "ppt", "--p", "2", "--f", "0.6")[1]
    rows = [((d - f) / (d * (d * d - 1)), 15), (f / d, 1)]
    doc = json.loads(out)
    assert doc["pt_spectrum"] == [{"value": v, "multiplicity": m} for v, m in rows]
    assert all(f'"value": {format_float(v)}' in out for v, _ in rows)
    assert f'"min_pt_eigenvalue": {format_float(rows[0][0])},' in out

    f, d = 0.7, 8
    out = run(capsys, "report", "--p", "3", "--f", "0.7")[1]
    pt_min = (d - f) / (d * (d * d - 1))
    assert pt_min < f / d
    assert f'"min_pt_eigenvalue": {format_float(pt_min)},' in out


@pytest.mark.parametrize(
    "env_seed,argv",
    [
        ("abc", ("report", "--p", "1", "--f", "0.5")),
        ("abc", ("spectrum", "--p", "1", "--f", "0.5")),
        ("-3", ("spectrum", "--p", "1", "--f", "0.5", "--check-invariance")),
        (None, ("report", "--p", "1", "--f", "0.5", "--seed", "-1")),
        (None, ("build", "--p", "1", "--f", "nan")),
        (None, ("report", "--p", "2", "--f", "inf")),
        (None, ("decompose", "--p", "2", "--f=-inf")),
        (None, ("refine", "--p", "2", "--f", "nan")),
        (None, ("sweep", "--p", "1", "--f-start", "0", "--f-end", "1", "--f-step", "nan")),
        (None, ("ppt", "--p", "1", "--f", "0.5", "--tol=-1e-9")),
        (None, ("report", "--p", "1", "--f", "0.5", "--tol", "nan")),
        (None, ("verify", "--input", "unused.json", "--tol", "-1")),
    ],
)
def test_unusable_inputs_exit_1_with_json(capsys, monkeypatch, env_seed, argv):
    if env_seed is not None:
        monkeypatch.setenv("WERNER_SEED", env_seed)
    else:
        monkeypatch.delenv("WERNER_SEED", raising=False)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == "UsageError"


@pytest.mark.parametrize(
    "line,code",
    [
        ("ppt --p 2 --f -1e-9", 0),
        ("report --p 1 --f -1E-10", 2),  # parsed, then NotSeparable
        ("spectrum --p 1 --f -.5", 0),
        ("sweep --p 1 --f-start -1e-3 --f-end 0 --f-step 1e-3", 0),
        ("sweep --p 1 --f-start -1 --f-end -0.5e0 --f-step 0.25", 0),
        ("ppt --p 1 --f 0.5 --tol -1e-9", 1),
        ("decompose --p 2 --f -inf", 1),
        ("build --p 1 --f -Infinity", 1),
        ("report --p 1 --f -nan", 1),
    ],
)
def test_negative_value_as_its_own_token(capsys, line, code):
    separate = line.split()
    joined = re.sub(r"(--[a-z-]+) (-[^-])", r"\1=\2", line).split()
    assert joined != separate
    result = run(capsys, *separate)
    assert result == run(capsys, *joined)
    assert result[0] == code
    if code == 1:
        assert json.loads(result[2])["error"] == "UsageError"


def test_unreadable_input_exits_1_with_json(capsys, tmp_path):
    code, out, err = run(capsys, "verify", "--input", str(tmp_path / "missing.json"))
    assert code == 1
    assert out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == "IOError"


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("stage,argv", [
    ("werner.serialize.parse_decomposition", ["verify", "--input"]),
    ("werner.verify.refine_to_pure", ["refine", "--input"]),
    ("werner.verify.refine_to_pure", ["report", "--p", "1", "--f", "0.6", "--refine"]),
], ids=["verify", "refine", "report"])
def test_running_out_of_memory_exits_1_with_json(capsys, monkeypatch, tmp_path, stage, argv):
    path = tmp_path / "cert.json"
    main(["decompose", "--p", "1", "--f", "0.6", "--output", str(path)])
    monkeypatch.setattr(stage, _out_of_memory)
    code, out, err = run(capsys, *argv, *([str(path)] if argv[-1] == "--input" else []))
    assert code == 1
    assert out == ""
    (line,) = err.splitlines()
    assert json.loads(line) == {"error": "ResourceError", "message": "out of memory"}


def test_running_out_of_memory_in_a_child_prints_no_traceback(tmp_path):
    # the child caps its own address space once its imports are done, then
    # reads a p = 5 certificate (a 55 MB text) that does not fit under the cap
    main(["decompose", "--p", "5", "--f", "0.6", "--output", str(tmp_path / "cert.json")])
    code = """\
import resource, sys
import numpy
from werner.cli import main
import werner.decompose, werner.serialize, werner.verify
with open("/proc/self/statm") as fh:
    size = int(fh.read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS, (size + (24 << 20), resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(main(["verify", "--input", "cert.json"]))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    (tmp_path / "cert.json").unlink()
    assert done.returncode == 1, done.stderr
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    (line,) = done.stderr.splitlines()
    assert json.loads(line)["error"] == "ResourceError"


@pytest.mark.parametrize("stream,argv", [
    ("stdin", ["verify", "--input", "-"]),
    ("stdout", ["report", "--p", "1", "--f", "0.5"]),
])
def test_a_closed_stream_exits_1_with_json(capsys, monkeypatch, stream, argv):
    # a process started with its stdin or stdout closed holds None there
    monkeypatch.setattr(f"sys.{stream}", None)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    (line,) = err.splitlines()
    assert json.loads(line) == {"error": "IOError", "message": f"{stream} is closed"}


class _RefusingStream(io.StringIO):
    """A stream whose writes fail, as on an fd opened read-only."""

    def write(self, text):
        raise OSError(9, "Bad file descriptor")


@pytest.mark.parametrize("stderr", [None, _RefusingStream()], ids=["closed", "refusing"])
@pytest.mark.parametrize(
    "argv,want",
    [
        (("ppt", "--p", "1", "--f", "-0.5"), 2),  # NOT PPT
        (("report", "--p", "1", "--f", "-0.5"), 2),  # NotSeparable
        (("ppt", "--p", "1", "--f", "9"), 2),  # outside [-1, 1]
        (("ppt", "--p", "1", "--no-such-flag"), 1),  # a usage error
    ],
    ids=["not-ppt", "not-separable", "out-of-range", "usage"],
)
def test_a_closed_stderr_keeps_the_exit_code(capsys, monkeypatch, stderr, argv, want):
    # a process started with stderr closed holds None there; the diagnostic
    # line is dropped and the exit code alone reports
    monkeypatch.setattr("sys.stderr", stderr)
    assert main(list(argv)) == want
    assert capsys.readouterr().out.startswith("{") == (argv[-1] == "-0.5")


def test_diagnostic_is_one_json_line(capsys):
    code, _, err = run(capsys, "report", "--p", "2", "--f", "-0.3")
    assert code == 2
    assert err.endswith("\n")
    (line,) = err.splitlines()
    doc = json.loads(line)
    assert doc["error"] == "NotSeparable"
    assert doc["witness"] == -0.075


def test_output_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = run(capsys, "ppt", "--p", "1", "--f", "0.5", "--output", str(path))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["verdict"] == "PPT"


@pytest.mark.parametrize("cmd", ["build", "decompose"])
def test_seedless_subcommands_ignore_werner_seed(capsys, monkeypatch, cmd):
    argv = (cmd, "--p", "1", "--f", "0.5")
    monkeypatch.delenv("WERNER_SEED", raising=False)
    plain = run(capsys, *argv)
    monkeypatch.setenv("WERNER_SEED", "abc")
    assert run(capsys, *argv) == plain
    assert plain[0] == 0 and plain[2] == ""


def test_env_seed_overrides_flag(capsys, monkeypatch):
    monkeypatch.setenv("WERNER_SEED", "7")
    _, with_env, _ = run(capsys, "report", "--p", "1", "--f", "0.5", "--seed", "3")
    monkeypatch.delenv("WERNER_SEED")
    _, explicit, _ = run(capsys, "report", "--p", "1", "--f", "0.5", "--seed", "7")
    assert with_env == explicit
    assert json.loads(explicit)["seed"] == 7


def test_repeat_runs_identical(capsys):
    argv = ("report", "--p", "1", "--f", "0.6")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


# a pass, a verification failure, a certificate written and read back, and a
# usage error: the exit codes are 0, 2, 0, 0 and 1
_ENTRY_CORPUS = [
    ("report", "--p", "2", "--f", "0.6"),
    ("ppt", "--p", "3", "--f", "-0.5"),
    ("decompose", "--p", "2", "--f", "0.6", "--output", "cert.json"),
    ("verify", "--input", "cert.json"),
    ("build", "--p", "1", "--f", "0.5", "--seed", "1"),
]


def _collector():
    return gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()


def test_main_in_process_leaves_the_collector_as_it_was(capsys, tmp_path, monkeypatch):
    # only the process entry turns the collector off and freezes the heap: in
    # a long-lived caller, either would leave its cycles uncollected
    monkeypatch.chdir(tmp_path)
    before = _collector()
    codes = [run(capsys, *argv)[0] for argv in _ENTRY_CORPUS]
    assert codes == [0, 2, 0, 0, 1]
    assert _collector() == before


# calls run with main replaced, then prints whether the collector was on
# while main ran, and the collector's state once run returned
_RUN_PROBE = """\
import gc, json
from werner import cli
seen = []
cli.main = lambda: seen.append(gc.isenabled()) or 3
status = cli.run()
print(json.dumps([status, seen, gc.isenabled(), gc.get_freeze_count() > 0]))
"""


def test_the_process_entry_runs_main_with_the_collector_off(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _RUN_PROBE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == [3, [False], False, True]


def test_the_console_script_and_python_m_werner_call_run():
    pyproject = (Path(cli.__file__).parents[2] / "pyproject.toml").read_text()
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.split() == ["werner", "=", '"werner.cli:run"']
    tree = ast.parse(Path(cli.__file__).with_name("__main__.py").read_text())
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert called == {"SystemExit", "run"}
    # and these two are the only process entries: cli.py runs nothing as a script
    guards = [node for node in ast.parse(Path(cli.__file__).read_text()).body
              if isinstance(node, ast.If) and "__main__" in ast.unparse(node.test)]
    assert guards == []


def test_python_m_werner_prints_and_writes_what_main_does(capsys, tmp_path, monkeypatch):
    # nothing the run wrote is lost when the process exits with a frozen heap
    monkeypatch.delenv("WERNER_SEED", raising=False)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    process, in_process = tmp_path / "process", tmp_path / "main"
    process.mkdir()
    in_process.mkdir()
    monkeypatch.chdir(in_process)
    for argv in _ENTRY_CORPUS:
        done = subprocess.run([sys.executable, "-m", "werner", *argv], cwd=process,
                              env=env, capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv)
    written = [{f.name: f.read_bytes() for f in d.iterdir()} for d in (process, in_process)]
    assert written[0] == written[1]
    assert list(written[0]) == ["cert.json"]


def test_a_utf8_certificate_reads_under_a_non_utf8_locale(tmp_path):
    # JSON is UTF-8 (RFC 8259): under the C locale, whose encoding is ASCII,
    # a label outside ASCII reads from a file and from stdin as in UTF-8
    # mode, and the output stays the same ASCII bytes
    main(["decompose", "--p", "1", "--f", "0.6", "--output", str(tmp_path / "cert.json")])
    doc = json.loads((tmp_path / "cert.json").read_text())
    doc["terms"][0]["label"] = "café"
    text = json.dumps(doc, ensure_ascii=False).encode("utf-8")
    (tmp_path / "u8.json").write_bytes(text)
    calls = [(cmd, source) for cmd in ("refine", "verify") for source in ("u8.json", "-")]
    runs = {}
    for mode, extra in (("utf-8", {"PYTHONUTF8": "1"}),
                        ("C", {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"})):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), **extra)
        runs[mode] = [
            subprocess.run([sys.executable, "-m", "werner", cmd, "--input", source], cwd=tmp_path,
                           env=env, input=text if source == "-" else b"", capture_output=True)
            for cmd, source in calls
        ]
    got = [[(done.returncode, done.stdout, done.stderr) for done in runs[mode]] for mode in runs]
    assert got[0] == got[1]
    assert [code for code, _, _ in got[0]] == [0, 0, 0, 0]
    refined = got[0][0][1]
    assert refined.isascii() and b'"label": "caf\\u00e9:a0b0"' in refined
    assert got[0][1][1] == refined
