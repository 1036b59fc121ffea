"""Deterministic JSON and CSV emission.

Floating-point numbers are written as decimal text with 17 significant
digits, which round-trips binary64 exactly; the stdlib encoder cannot be
pinned to that format, hence the small emitter here. Dict insertion order
is the emission order, so identical inputs yield identical bytes. A 2-D
float64 array, such as a factor's re or im part, is rendered with each
distinct value formatted once, and an array repeated within one document
is rendered once; the bytes are those of formatting every entry in place.

The verification and separability documents are the report dataclasses of
verify.py as dicts: their keys are those classes' fields in declaration
order, and the separability document appends a "refined" key.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict
from itertools import chain
from typing import Iterable, List, Sequence

import numpy as np

from .decompose import COMMUTING_CLASS, PER_STRING, Decomposition, ProductTerm
from .errors import MalformedInput
from .linalg import Spectrum
from .model import WernerParams
from .verify import SeparabilityReport, VerificationReport, _content_key

__all__ = [
    "csv_text",
    "decomposition_doc",
    "doc_decomposition",
    "dumps",
    "format_float",
    "matrix_doc",
    "doc_matrix",
    "separability_doc",
    "spectrum_rows",
    "verification_doc",
]


def format_float(x) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("refusing to serialize a non-finite number")
    return format(x, ".17g")


def _scalar_text(v) -> str:
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


_CONTAINERS = (dict, list, tuple, np.ndarray)  # a list holding none is one line


def _matrix_text(a: np.ndarray, pad: str, step: str) -> str:
    """A 2-D float64 array as a list of one-line rows, formatting each
    distinct value once. Keys are bit patterns, so -0.0 and 0.0 stay apart."""
    keys, inverse = np.unique(a.ravel().view(np.int64), return_inverse=True)
    texts = np.array([format_float(v) for v in keys.view(np.float64)], dtype=object)
    inner = pad + step
    rows = texts[inverse].reshape(a.shape).tolist()
    return "[\n" + ",\n".join(f"{inner}[{', '.join(r)}]" for r in rows) + "\n" + pad + "]"


def _emit(obj, pad: str, step: str, memo: dict) -> str:
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + step
        parts = [
            f"{inner}{json.dumps(str(k))}: {_emit(v, inner, step, memo)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2 and obj.size and obj.dtype == np.float64:
            key = (pad, _content_key(obj))  # repeated factors render once
            if key not in memo:
                memo[key] = _matrix_text(obj, pad, step)
            return memo[key]
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not any(isinstance(v, _CONTAINERS) for v in obj):
            return "[" + ", ".join(_scalar_text(v) for v in obj) + "]"
        inner = pad + step
        parts = [f"{inner}{_emit(v, inner, step, memo)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    return _scalar_text(obj)


def dumps(obj) -> str:
    """JSON text (no trailing newline); parseable by json.loads."""
    return _emit(obj, "", "  ", {})


# ---------------------------------------------------------------------------
# document builders
# ---------------------------------------------------------------------------


def matrix_doc(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"dim": int(m.shape[0]), "re": m.real, "im": m.imag}


def _field(doc, key: str, kind):
    """doc[key], which must be a JSON value of the given type (a bool is no
    number), so that "2", 2.5 or true is never read as the integer 2."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise MalformedInput(f"field {key!r} must not be {type(value).__name__}")
    return value


def doc_matrix(doc) -> np.ndarray:
    dim = _field(doc, "dim", int)
    shape = (dim, dim)
    re = np.array(doc["re"], dtype=float)
    im = np.array(doc["im"], dtype=float)
    if re.shape != shape or im.shape != shape:
        raise MalformedInput("matrix document shape disagrees with its dim field")
    # np.array converts "0.5", true and null; the parsed rows still hold them
    if not {int, float}.issuperset(map(type, chain.from_iterable(chain(doc["re"], doc["im"])))):
        raise MalformedInput("matrix document has an entry that is not a JSON number")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise MalformedInput("matrix document has a non-finite entry")
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = re, im  # part by part: re + 1j * im loses the sign of a zero
    return out


def spectrum_rows(spec: Spectrum) -> List[dict]:
    return [{"value": v, "multiplicity": m} for v, m in spec.pairs]


def decomposition_doc(dec: Decomposition) -> dict:
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
            for t in dec.terms
        ],
    }


def doc_decomposition(doc) -> Decomposition:
    p, f = _field(doc, "p", int), float(_field(doc, "f", (int, float)))
    scheme, scale = _field(doc, "scheme", str), float(_field(doc, "scale", (int, float)))
    if not (math.isfinite(f) and math.isfinite(scale)):
        raise MalformedInput("certificate f and scale must be finite")
    if scheme not in (PER_STRING, COMMUTING_CLASS):
        raise MalformedInput(f"unknown scheme {scheme!r}")
    params = WernerParams(p, f)
    terms = tuple(
        ProductTerm(
            weight=float(_field(t, "weight", (int, float))),
            state_a=doc_matrix(t["state_a"]),
            state_b=doc_matrix(t["state_b"]),
            label=_field(t, "label", str),
        )
        for t in doc["terms"]
    )
    if not terms:
        raise MalformedInput("certificate has no terms")
    if not all(math.isfinite(t.weight) for t in terms):
        raise MalformedInput("certificate weights must be finite")
    if p >= 64:  # no parsed factor has 2**64 rows, and 2**p of a huge p never ends
        raise MalformedInput(f"certificate p={p} is too large")
    d = params.d
    if any(m.shape != (d, d) for t in terms for m in (t.state_a, t.state_b)):
        raise MalformedInput(f"certificate factors must all be {d}x{d} for p={params.p}")
    return Decomposition(params, scheme, scale, terms)


def verification_doc(rep: VerificationReport) -> dict:
    return dict(asdict(rep), diagnostics=list(rep.diagnostics))


def separability_doc(rep: SeparabilityReport, refinement=None) -> dict:
    doc = asdict(rep)
    if rep.verification is not None:
        doc["verification"] = verification_doc(rep.verification)
    doc["refined"] = None if refinement is None else asdict(refinement)
    return doc


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def _cell(v) -> str:
    """A JSON scalar's text, except that null is empty and strings are bare."""
    if v is None:
        return ""
    return v if isinstance(v, str) else _scalar_text(v)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Comma separator, '.' decimal point, LF endings, trailing newline."""
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"
