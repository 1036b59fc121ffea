"""Deterministic JSON and CSV emission.

Floating-point numbers are written as decimal text with 17 significant
digits, which round-trips binary64 exactly; the stdlib encoder cannot be
pinned to that format, hence the small emitter here. Dict insertion order
is the emission order, so identical inputs yield identical bytes.

The verification and separability documents are the report dataclasses of
verify.py as dicts: their keys are those classes' fields in declaration
order, and the separability document appends a "refined" key.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict
from typing import Iterable, List, Sequence

import numpy as np

from .decompose import COMMUTING_CLASS, PER_STRING, Decomposition, ProductTerm
from .errors import MalformedInput
from .linalg import Spectrum
from .model import WernerParams
from .verify import SeparabilityReport, VerificationReport

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


def _emit(obj, pad: str, step: str) -> str:
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + step
        parts = [
            f"{inner}{json.dumps(str(k))}: {_emit(v, inner, step)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not any(isinstance(v, _CONTAINERS) for v in obj):
            return "[" + ", ".join(_scalar_text(v) for v in obj) + "]"
        inner = pad + step
        parts = [f"{inner}{_emit(v, inner, step)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    return _scalar_text(obj)


def dumps(obj) -> str:
    """JSON text (no trailing newline); parseable by json.loads."""
    return _emit(obj, "", "  ")


# ---------------------------------------------------------------------------
# document builders
# ---------------------------------------------------------------------------


def matrix_doc(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"dim": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}


def doc_matrix(doc) -> np.ndarray:
    shape = (doc["dim"], doc["dim"])
    re = np.array(doc["re"], dtype=float)
    im = np.array(doc["im"], dtype=float)
    if re.shape != shape or im.shape != shape:
        raise MalformedInput("matrix document shape disagrees with its dim field")
    m = re + 1j * im
    if not np.isfinite(m).all():
        raise MalformedInput("matrix document has a non-finite entry")
    return m


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
    p, f = int(doc["p"]), float(doc["f"])
    scheme, scale = str(doc["scheme"]), float(doc["scale"])
    if not (math.isfinite(f) and math.isfinite(scale)):
        raise MalformedInput("certificate f and scale must be finite")
    if scheme not in (PER_STRING, COMMUTING_CLASS):
        raise MalformedInput(f"unknown scheme {scheme!r}")
    params = WernerParams(p, f)
    terms = tuple(
        ProductTerm(
            weight=float(t["weight"]),
            state_a=doc_matrix(t["state_a"]),
            state_b=doc_matrix(t["state_b"]),
            label=str(t["label"]),
        )
        for t in doc["terms"]
    )
    if not terms:
        raise MalformedInput("certificate has no terms")
    if not all(math.isfinite(t.weight) for t in terms):
        raise MalformedInput("certificate weights must be finite")
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
