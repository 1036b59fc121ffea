"""Byte-stable JSON/CSV emission and document round-trips."""
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certificate_oracle import expand
from werner.cli import _read_certificate
from werner.decompose import COMMUTING_CLASS, PER_STRING, _build, decompose_auto
from werner.errors import MalformedInput, SchemeRangeError
from werner.model import WernerParams
from werner.serialize import (
    certificate_chunks,
    csv_text,
    doc_decomposition,
    doc_matrix,
    dumps,
    format_float,
    matrix_doc,
    scheme_certificate_chunks,
    separability_doc,
    spectrum_rows,
    verification_doc,
)
from werner.linalg import Spectrum
from werner.verify import refine_to_pure, separability_report, verify_decomposition


@settings(deadline=None, max_examples=200)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_text_roundtrips_binary64(x):
    assert float(format_float(x)) == x


def test_float_text_rejects_non_finite():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            format_float(bad)


def test_dumps_scalars():
    assert dumps(True) == "true"
    assert dumps(False) == "false"
    assert dumps(None) == "null"
    assert dumps(3) == "3"
    assert dumps(0.5) == "0.5"
    assert dumps("a\"b") == '"a\\"b"'
    assert dumps(np.float64(0.25)) == "0.25"  # a float
    # documents hold Python scalars: no other numpy scalar is taken
    for bad in (1 + 2j, np.int64(7), np.bool_(True), np.float32(0.25)):
        with pytest.raises(TypeError, match="cannot serialize"):
            dumps(bad)


def test_dumps_layout():
    text = dumps({"a": [1, 2, 3], "b": {"c": None}})
    # scalar lists stay on one line; dicts get one key per line
    assert "[1, 2, 3]" in text
    assert text.startswith("{\n")
    assert json.loads(text) == {"a": [1, 2, 3], "b": {"c": None}}


def test_dumps_is_loadable_and_stable():
    doc = {"x": 1 / 3, "flags": [True, False], "arr": np.arange(3.0).reshape(1, 3)}
    a, b = dumps(doc), dumps(doc)
    assert a == b
    back = json.loads(a)
    assert back["x"] == 1 / 3
    assert back["arr"] == [[0.0, 1.0, 2.0]]


def test_matrix_roundtrip_exact():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    doc = matrix_doc(m)
    assert set(doc) == {"dim", "re", "im"}
    # through JSON text and back, bit-for-bit
    back = doc_matrix(json.loads(dumps(doc)))
    assert np.array_equal(back, m)


def test_doc_matrix_shape_check():
    with pytest.raises(ValueError):
        doc_matrix({"dim": 3, "re": [[0.0]], "im": [[0.0]]})


@pytest.mark.parametrize("bad", ["0.5", True, False, None])
@pytest.mark.parametrize("part", ["re", "im"])
def test_doc_matrix_refuses_entries_that_are_not_numbers(part, bad):
    doc = {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    doc[part][1][0] = bad
    with pytest.raises(MalformedInput):
        doc_matrix(doc)


def _certificate_text(dec):
    return "".join(certificate_chunks(dec))


def test_parsed_refined_certificate_re_emits_its_bytes(tmp_path, monkeypatch):
    # the reader keeps the sign of the "-0" that format_float writes for -0.0
    for p in (2, 3):
        text = _certificate_text(_refined_certificate(p))
        assert "-0, " in text and "[-0" in text  # signed zeros in both re and im
        path = tmp_path / "cert.json"
        path.write_text(text)
        assert _certificate_text(_read_certificate(str(path))) == text
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert _certificate_text(_read_certificate("-")) == text


def test_spectrum_rows():
    rows = spectrum_rows(Spectrum.from_pairs([(0.25, 2), (0.5, 1)]))
    assert rows == [
        {"value": 0.25, "multiplicity": 2},
        {"value": 0.5, "multiplicity": 1},
    ]


def test_decomposition_document_schema():
    dec = decompose_auto(WernerParams(1, 0.8))
    doc = json.loads(_certificate_text(dec))
    assert list(doc) == ["p", "f", "scheme", "scale", "terms"]
    term = doc["terms"][0]
    assert list(term) == ["weight", "label", "state_a", "state_b"]
    assert list(term["state_a"]) == ["dim", "re", "im"]


def test_decomposition_roundtrip_reverifies():
    params = WernerParams(2, 0.7)
    dec = decompose_auto(params)
    text = _certificate_text(dec)
    back = doc_decomposition(json.loads(text))
    assert back.params == params
    assert back.scheme == dec.scheme
    assert back.scale == dec.scale
    assert back.n_terms == dec.n_terms
    rep = verify_decomposition(back)
    assert rep.verdict


VERIFICATION_KEYS = [
    "convex_ok",
    "min_weight",
    "weight_sum_error",
    "positivity_ok",
    "min_component_eigenvalue",
    "reconstruction_residual",
    "purity_ok",
    "max_purity_deviation",
    "verdict",
    "diagnostics",
]
SEPARABILITY_KEYS = [
    "p",
    "f",
    "verdict",
    "ppt",
    "min_pt_eigenvalue",
    "witness",
    "scheme",
    "scale",
    "n_terms",
    "verification",
    "invariance_residual",
    "seed",
    "refined",
]


def test_verification_document():
    params = WernerParams(1, 0.6)
    rep = verify_decomposition(decompose_auto(params))
    doc = verification_doc(rep)
    assert doc["verdict"] is True
    assert doc["diagnostics"] == []
    assert list(doc) == VERIFICATION_KEYS


def test_separability_document():
    rep, refinement = separability_report(WernerParams(1, 0.9), refine=True)
    doc = separability_doc(rep, refinement)
    assert doc["verdict"] == "SEPARABLE"
    assert doc["refined"]["n_terms"] == refinement.n_terms
    assert list(doc) == SEPARABILITY_KEYS
    assert list(doc["verification"]) == VERIFICATION_KEYS
    assert doc["verification"]["diagnostics"] == []
    assert list(doc["refined"]) == [
        "n_terms",
        "max_purity_deviation",
        "reconstruction_residual",
    ]
    rep2, _ = separability_report(WernerParams(1, -0.9))
    doc2 = separability_doc(rep2)
    assert doc2["verdict"] == "ENTANGLED"
    assert doc2["verification"] is None
    assert doc2["refined"] is None
    assert list(doc2) == SEPARABILITY_KEYS
    assert json.loads(dumps(doc2))["witness"] == rep2.witness


def test_csv_shape():
    text = csv_text(["a", "b", "c"], [[1, None, True], [0.5, "x", False]])
    assert text == "a,b,c\n1,,true\n0.5,x,false\n"
    assert "\r" not in text


def test_csv_floats_17g():
    text = csv_text(["v"], [[1 / 3]])
    assert text == "v\n0.33333333333333331\n"
    assert float(text.splitlines()[1]) == 1 / 3


# ---------------------------------------------------------------------------
# the array-aware emitter against the per-scalar one it replaced
# ---------------------------------------------------------------------------


def _reference_scalar(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format_float(v)
    if v is None:
        return "null"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"cannot serialize {type(v).__name__}")


def _reference_emit(obj, pad="", step="  "):
    """Every value formatted where it stands, arrays through tolist()."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + step
        parts = [
            f"{inner}{json.dumps(str(k))}: {_reference_emit(v, inner, step)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in obj):
            return "[" + ", ".join(_reference_scalar(v) for v in obj) + "]"
        inner = pad + step
        parts = [f"{inner}{_reference_emit(v, inner, step)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    return _reference_scalar(obj)


def _certificate(p, scheme):
    # per_string holds on [0, 2^(1-p)], the class scheme on [2^-p, 1]
    f = 0.3 * 2.0 ** (1 - p) if scheme == PER_STRING else 0.6
    return decompose_auto(WernerParams(p, f), scheme)


def _certificate_doc(dec):
    """The certificate document, with every factor's own matrix document."""
    return {
        "p": dec.params.p,
        "f": dec.params.f,
        "scheme": dec.scheme,
        "scale": dec.scale,
        "terms": [
            {
                "weight": t.weight,
                "label": t.label,
                "state_a": matrix_doc(t.state_a),
                "state_b": matrix_doc(t.state_b),
            }
            for t in expand(dec)
        ],
    }


def _assert_written_as_the_per_scalar_emitter_writes(dec):
    text = _reference_emit(_certificate_doc(dec)) + "\n"
    assert _certificate_text(dec) == text
    assert dumps(_certificate_doc(dec)) + "\n" == text


@pytest.mark.parametrize("scheme", [PER_STRING, COMMUTING_CLASS])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_certificate_bytes_match_the_per_scalar_emitter(p, scheme):
    _assert_written_as_the_per_scalar_emitter_writes(_certificate(p, scheme))


def _digest(chunks):
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk.encode())
    return digest.hexdigest()


@pytest.mark.parametrize("scheme", [PER_STRING, COMMUTING_CLASS])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_the_code_writer_writes_the_bytes_of_the_built_certificate(p, scheme):
    # each scheme in and out of its range (forced certificates, f < 0
    # included), the scale-0 point f = 1/d, the flipped per-string branch
    # f < 1/d, and s = 1 at f = 0 and f = 1; below 1/d both refuse the
    # class scale of p > 1 (groups of order 2^p)
    for f in (-0.3, 0.0, 2.0**-p, 0.02, 0.11, 0.3, 2.0 ** (1 - p), 0.6, 0.9, 1.0):
        params = WernerParams(p, f)
        if scheme == COMMUTING_CLASS and p > 1 and f < 2.0**-p:
            with pytest.raises(SchemeRangeError):
                scheme_certificate_chunks(params, scheme)
            with pytest.raises(SchemeRangeError):
                _build(params, scheme)
            continue
        written = _digest(scheme_certificate_chunks(params, scheme))
        assert written == _digest(certificate_chunks(_build(params, scheme))), f


def _refined_certificate(p):
    return refine_to_pure(_certificate(p, COMMUTING_CLASS))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_refined_certificate_bytes_match_the_per_scalar_emitter(p):
    _assert_written_as_the_per_scalar_emitter_writes(_refined_certificate(p))


def test_array_edge_cases_match_the_per_scalar_emitter():
    tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
    signed = np.array([[-0.0, 0.0, tiny], [-tiny, 2.5e-310, -0.0]])
    assert "-0, 0, 4.9406564584124654e-324" in dumps(signed)
    factor = np.empty((3, 3), dtype=complex)
    factor.real, factor.imag = signed[[0, 1, 0]], -signed[[1, 0, 1]]
    doc = {
        "signed_zeros_and_subnormals": signed,
        "repeated": [signed, signed.copy(), -signed],
        "column": np.arange(3.0).reshape(3, 1),
        "row": np.array([[1 / 3, -1 / 3]]),
        "nested": {"m": matrix_doc(factor)},
    }
    assert dumps(doc) == _reference_emit(doc)
    # the one array a document holds is a matrix part: any other is refused,
    # as a value and inside a list
    for bad in (np.array([0.5, -0.0]), np.zeros((0, 0)), np.zeros((2, 0)),
                np.arange(4).reshape(2, 2), np.zeros((1, 1, 1)), np.eye(2, dtype=complex)):
        for doc in ({"bad": bad}, [signed, bad]):
            with pytest.raises(TypeError, match="cannot serialize"):
                dumps(doc)


def test_report_document_bytes_match_the_per_scalar_emitter():
    rep, refinement = separability_report(WernerParams(2, 0.6), refine=True)
    doc = separability_doc(rep, refinement)
    assert dumps(doc) == _reference_emit(doc)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_factor_entry_is_refused(bad):
    m = np.eye(2, dtype=complex)
    m[1, 0] = bad
    with pytest.raises(ValueError):
        dumps({"state": matrix_doc(m)})
