"""Deterministic JSON and CSV emission, and the certificate reader.

Floating-point numbers are written as decimal text with 17 significant
digits, which round-trips binary64 exactly; the stdlib encoder cannot be
pinned to that format, hence the small emitter here. Dict insertion order
is the emission order, so identical inputs yield identical bytes. A 2-D
float64 array, such as a factor's re or im part, is rendered with each
distinct value formatted once, and an array repeated within one document
is rendered once; the bytes are those of formatting every entry in place.
A dict that recurs in one document, such as the matrix document
decomposition_doc hands out once per distinct factor, is looked up from its
third sighting on, so emitting a refined certificate costs in proportion to
its distinct factors and its terms, not to its text size.

parse_decomposition reads a certificate the same way round: each factor
whose text is plain numbers is cut out of the text, the small skeleton left
is parsed by json.loads, and each distinct factor text is parsed and
converted once, into one read-only array that every term holding that text
shares. The result, and every refusal with its message, is that of
doc_decomposition(json.loads(text)).

The verification and separability documents are the report dataclasses of
verify.py as dicts: their keys are those classes' fields in declaration
order, and the separability document appends a "refined" key.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import asdict
from itertools import chain
from typing import Iterable, List, Optional, Sequence

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
    "parse_decomposition",
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


def _lines(opening: str, parts: List[str], pad: str, closing: str) -> str:
    """opening, each part on a line of its own, then closing at indent pad,
    in one join: the parts are copied once, with no concatenated copy."""
    seq = [",\n"] * (2 * len(parts) + 1)
    seq[0] = opening + "\n"
    seq[1::2] = parts
    seq[-1] = "\n" + pad + closing
    return "".join(seq)


def _matrix_text(a: np.ndarray, pad: str, step: str) -> str:
    """A 2-D float64 array as a list of one-line rows, formatting each
    distinct value once. Keys are bit patterns, so -0.0 and 0.0 stay apart."""
    keys, inverse = np.unique(a.ravel().view(np.int64), return_inverse=True)
    texts = np.array([format_float(v) for v in keys.view(np.float64)], dtype=object)
    inner = pad + step
    rows = texts[inverse].reshape(a.shape).tolist()
    return _lines("[", [f"{inner}[{', '.join(r)}]" for r in rows], pad, "]")


def _emit(obj, pad: str, step: str, memo: dict) -> str:
    """obj's text at indent pad. memo holds, per dumps call, each key's text,
    each 2-D float array's text by (pad, content), and each dict's sightings
    by (pad, id) (the document keeps every dict alive until dumps returns):
    a dict's text is kept from its third sighting on, so a repeated factor
    document costs a lookup, while a dict seen once or twice (the root, a
    term, a factor both parties share) holds no second copy of its text."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        node = (pad, id(obj))
        seen = memo.get(node, 0)
        if type(seen) is str:
            return seen
        inner = pad + step
        keys = [memo.get(k) or memo.setdefault(k, json.dumps(k)) for k in map(str, obj)]
        parts = [
            f"{inner}{k}: {_emit(v, inner, step, memo)}" for k, v in zip(keys, obj.values())
        ]
        text = _lines("{", parts, pad, "}")
        memo[node] = text if seen == 2 else seen + 1
        return text
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2 and obj.size and obj.dtype == np.float64:
            key = (pad, obj.shape, obj.tobytes())  # repeated factors render once
            if key not in memo:
                memo[key] = _matrix_text(obj, pad, step)
            return memo[key]
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not any(isinstance(v, _CONTAINERS) for v in obj):
            return "[" + ", ".join(_scalar_text(v) for v in obj) + "]"
        inner = pad + step
        return _lines("[", [f"{inner}{_emit(v, inner, step, memo)}" for v in obj], pad, "]")
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
    real = np.array(doc["re"], dtype=float)
    imag = np.array(doc["im"], dtype=float)
    if real.shape != shape or imag.shape != shape:
        raise MalformedInput("matrix document shape disagrees with its dim field")
    # np.array converts "0.5", true and null; the parsed rows still hold them
    if not {int, float}.issuperset(map(type, chain.from_iterable(chain(doc["re"], doc["im"])))):
        raise MalformedInput("matrix document has an entry that is not a JSON number")
    if not (np.isfinite(real).all() and np.isfinite(imag).all()):
        raise MalformedInput("matrix document has a non-finite entry")
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = real, imag  # part by part: re + 1j * im loses the sign of a zero
    return out


def spectrum_rows(spec: Spectrum) -> List[dict]:
    return [{"value": v, "multiplicity": m} for v, m in spec.pairs]


def decomposition_doc(dec: Decomposition) -> dict:
    """The certificate document; a factor object held by several terms gets
    one matrix document, which dumps renders once."""
    docs = {}  # id -> matrix document; dec keeps every factor alive

    def factor_doc(m):
        key = id(m)
        if key not in docs:
            docs[key] = matrix_doc(m)
        return docs[key]

    return {
        "p": dec.params.p,
        "f": dec.params.f,
        "scheme": dec.scheme,
        "scale": dec.scale,
        "terms": [
            {
                "weight": t.weight,
                "label": t.label,
                "state_a": factor_doc(t.state_a),
                "state_b": factor_doc(t.state_b),
            }
            for t in dec.terms
        ],
    }


def _header(doc, max_p):
    """The certificate's (params, scheme, scale), checked before any factor
    is read, so a refused p never costs a factor conversion."""
    p, f = _field(doc, "p", int), float(_field(doc, "f", (int, float)))
    scheme, scale = _field(doc, "scheme", str), float(_field(doc, "scale", (int, float)))
    if not (math.isfinite(f) and math.isfinite(scale)):
        raise MalformedInput("certificate f and scale must be finite")
    if scheme not in (PER_STRING, COMMUTING_CLASS):
        raise MalformedInput(f"unknown scheme {scheme!r}")
    if p >= 64:  # no parsed factor has 2**64 rows, and 2**p of a huge p never ends
        raise MalformedInput(f"certificate p={p} is too large")
    if max_p is not None and p > max_p:
        raise MalformedInput(f"certificate p={p} is above the cap of {max_p}")
    return WernerParams(p, f), scheme, scale


def _decomposition(doc, max_p, factor) -> Decomposition:
    """doc's decomposition, with factor(t[side]) as each factor matrix."""
    params, scheme, scale = _header(doc, max_p)
    terms = tuple(
        ProductTerm(
            weight=float(_field(t, "weight", (int, float))),
            state_a=factor(t["state_a"]),
            state_b=factor(t["state_b"]),
            label=_field(t, "label", str),
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


def doc_decomposition(doc, max_p: Optional[int] = None) -> Decomposition:
    """The decomposition in a parsed certificate document; a p above max_p
    is refused before any factor is converted."""
    return _decomposition(doc, max_p, doc_matrix)


# A matrix document in matrix_doc's key order whose re and im hold nothing
# but JSON number text: its tokens with JSON's four blanks between them. Any
# other object (NaN, strings, booleans, other key orders or extra keys) stays
# in the skeleton and goes through doc_matrix. The classes are spelled out,
# not \s or \d, because a class of plain characters compiles to a bitmap,
# which scans three times as fast. re compiles (and caches) the pattern on
# the first parse, so the commands that read no certificate never pay it.
_ROWS = r"\[[0-9 \t\n\r.eE+\-,\[\]]*\]"
_FACTOR_TEXT = r"[ \t\n\r]*".join(
    [r"\{", '"dim"', ":", "[0-9]+", ",", '"re"', ":", _ROWS, ",", '"im"', ":", _ROWS, r"\}"]
)
# A cut-out factor leaves the JSON integer " <_SLOT><k> " in the skeleton, k
# indexing its distinct text. A number token holds no escape and no blank,
# so only a text that contains _SLOT itself could forge one; such a text (no
# 17-digit float holds this 20-digit run) is parsed whole instead.
_SLOT = "-98765432109876543210"


class _Slot:
    """What the skeleton parse returns for a cut-out factor's placeholder."""

    __slots__ = ("k",)

    def __init__(self, k: int):
        self.k = k


def _int_or_slot(text: str):
    return _Slot(int(text[len(_SLOT) :])) if text.startswith(_SLOT) else int(text)


def parse_decomposition(text: str, max_p: Optional[int] = None) -> Decomposition:
    """doc_decomposition(json.loads(text), max_p), reading each distinct
    factor text once: the terms holding one text share one read-only array.

    Only an accepted text is read that way. A refusal, or a placeholder found
    anywhere but at a factor (a cut-out object that stood in a label, an
    ignored field or no value position at all), leaves the last word to the
    plain parse of the whole text, so every diagnostic is the plain one.
    """
    if _SLOT[1:] in text:
        return doc_decomposition(json.loads(text), max_p)
    ks = {}  # factor text -> k
    skeleton, n_cut = re.subn(
        _FACTOR_TEXT, lambda m: f" {_SLOT}{ks.setdefault(m.group(), len(ks))} ", text
    )
    texts = list(ks)  # k -> factor text
    arrays = {}  # k -> the shared array
    placed = 0

    def factor(value):
        nonlocal placed
        if type(value) is not _Slot:
            return doc_matrix(value)
        placed += 1
        if value.k not in arrays:
            m = doc_matrix(json.loads(texts[value.k]))
            m.flags.writeable = False
            arrays[value.k] = m
        return arrays[value.k]

    try:
        dec = _decomposition(json.loads(skeleton, parse_int=_int_or_slot), max_p, factor)
        if placed == n_cut:
            return dec
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    return doc_decomposition(json.loads(text), max_p)


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
