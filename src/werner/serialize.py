"""Deterministic JSON and CSV emission, and the certificate writer and reader.

Floating-point numbers are written as decimal text with 17 significant
digits, which round-trips binary64 exactly; the stdlib encoder cannot be
pinned to that format, hence the small emitter here. Dict insertion order
is the emission order, so identical inputs yield identical bytes. Values
are dicts, lists, tuples, Python scalars and matrix parts. A matrix part is
a non-empty 2-D float64 array, such as a factor's re or im part; each of
its distinct values is formatted once, and the bytes are those of
formatting every entry in place. dump_chunks hands the same text out in
pieces, a block of rows at a time, so a large state is written without
ever being one string. The emitter imports no numpy: it looks for arrays
only once numpy is loaded.

Certificates cost what their distinct factors and their terms cost, both
ways. certificate_chunks renders each row of the decomposition's factor
table, each distinct re or im part and weight once, and hands the document
out a term at a time, never as one string. parse_decomposition cuts each
factor object out of the text and converts the distinct factor texts in
one batch, each distinct row split once and each distinct number converted
once, into one read-only table row per distinct text, which the terms
index. Any JSON layout is read, and the emitter's "-0" reads back as -0.0.
scheme_certificate_chunks writes the toolkit's own certificate at (p, f)
with no numpy, formatting the entries that decompose._entries computes: the
bytes that certificate_chunks writes of the built certificate.

The verification and separability documents are the report named tuples
of verify.py as dicts: their keys are those classes' fields in declaration
order, and the separability document appends a "refined" key.
"""
from __future__ import annotations

import json
import math
import re
import sys
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii  # json.dumps of a str
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence

from .errors import MalformedInput

if TYPE_CHECKING:  # annotations only: the reader imports what it builds as it runs
    import numpy as np

    from .decompose import Decomposition
    from .linalg import Spectrum
    from .model import WernerParams
    from .verify import SeparabilityReport, VerificationReport

__all__ = [
    "certificate_chunks",
    "csv_text",
    "doc_decomposition",
    "dump_chunks",
    "dumps",
    "format_float",
    "matrix_doc",
    "doc_matrix",
    "parse_decomposition",
    "scheme_certificate_chunks",
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
    if isinstance(v, float):
        return format_float(v)
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(int(v))
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"cannot serialize {type(v).__name__}")


def _lines(opening: str, items: Iterable[Iterable[str]], pad: str, closing: str):
    """opening, the pieces of each item on a line of its own, then closing at
    indent pad."""
    sep = opening + "\n"
    for pieces in items:
        yield sep
        yield from pieces
        sep = ",\n"
    yield "\n" + pad + closing


def _float_texts(a: np.ndarray) -> np.ndarray:
    """format_float of each entry of a float64 array, as an object array of
    a's shape, formatting each distinct value once. Keys are bit patterns, so
    -0.0 and 0.0 stay apart."""
    import numpy as np
    keys, inverse = np.unique(a.ravel().view(np.int64), return_inverse=True)
    texts = np.array([format_float(v) for v in keys.view(np.float64)], dtype=object)
    return texts[inverse].reshape(a.shape)


def _matrix_lines(a: np.ndarray, pad: str, step: str) -> Iterator[str]:
    """A 2-D float64 array as a list of one-line rows, in pieces of _CELLS
    numbers or fewer."""
    inner = pad + step
    block = max(1, _CELLS // a.shape[1])
    yield "[\n"
    for k in range(0, len(a), block):
        rows = _float_texts(a[k : k + block]).tolist()
        yield (",\n" if k else "") + ",\n".join(f"{inner}[{', '.join(r)}]" for r in rows)
    yield "\n" + pad + "]"


def _emit(obj, pad: str, step: str) -> Iterator[str]:
    """obj's text at indent pad, in pieces of at most a line each."""
    np = sys.modules.get("numpy")  # no value is a numpy object before numpy is imported
    is_array = np and isinstance(obj, np.ndarray)
    if is_array and obj.ndim == 2 and obj.size and obj.dtype == np.float64:
        return _matrix_lines(obj, pad, step)
    inner = pad + step
    if isinstance(obj, dict):
        if not obj:
            return iter(["{}"])
        items = (chain([f"{inner}{json.dumps(str(k))}: "], _emit(v, inner, step))
                 for k, v in obj.items())
        return _lines("{", items, pad, "}")
    if isinstance(obj, (list, tuple)):
        containers = (dict, list, tuple, np.ndarray) if np else (dict, list, tuple)
        if not any(isinstance(v, containers) for v in obj):  # one line
            return iter(["[" + ", ".join(_scalar_text(v) for v in obj) + "]"])
        return _lines("[", (chain([inner], _emit(v, inner, step)) for v in obj), pad, "]")
    return iter([_scalar_text(obj)])


def dump_chunks(obj) -> Iterator[str]:
    """dumps(obj) in pieces, so that a large array is never one string."""
    return _emit(obj, "", "  ")


def dumps(obj) -> str:
    """JSON text (no trailing newline); parseable by json.loads."""
    return "".join(_emit(obj, "", "  "))


# The certificate document as dumps renders it, around its terms and factors.
_HEAD = '{\n  "p": %s,\n  "f": %s,\n  "scheme": %s,\n  "scale": %s,\n  "terms": ['
_TERM = ',\n    {\n      "weight": %s,\n      "label": %s,\n'
_TERM += '      "state_a": %s,\n      "state_b": %s\n    }'
_FACTOR = '{\n        "dim": %d,\n        "re": %s,\n        "im": %s\n      }'


def certificate_chunks(dec: Decomposition) -> Iterator[str]:
    """dumps of dec's certificate document, and a newline, a term a chunk.
    Each row of dec's factor table is rendered once, each distinct re or im
    part and weight once, and all of them (a non-finite one refused) before
    this returns, so an output opened after the call is never left half
    written by a refusal."""
    import numpy as np
    parts, factors = {}, {}  # part content -> its text; (re, im) texts -> the factor's

    def part(x):
        key = x.tobytes()
        if key not in parts:
            parts[key] = "".join(_matrix_lines(x, " " * 8, "  "))
        return parts[key]

    def factor(a):
        pair = part(a.real), part(a.imag)
        if pair not in factors:
            factors[pair] = _FACTOR % (len(a), *pair)
        return factors[pair]

    rows = [factor(np.asarray(m, dtype=complex)) for m in dec.factors]
    weights = _float_texts(np.asarray(dec.weights, dtype=float)).tolist()
    terms = (_TERM % (w, encode_basestring_ascii(label), rows[a], rows[b])
             for w, label, a, b in zip(weights, dec.labels, *dec.pairs.T.tolist()))
    return _document((dec.params.p, dec.params.f, dec.scheme, dec.scale), terms)


def scheme_certificate_chunks(params: WernerParams, scheme: str) -> Iterator[str]:
    """certificate_chunks(decompose._build(params, scheme)), a term a chunk,
    written with no numpy from the entries of decompose._entries. Each
    distinct value is formatted once (no value is -0.0, so a value is a
    key), and each offset row's d rows are rendered once while it is among
    the last 4 d rendered, which hold the 4 d distinct offset rows of a
    per-string certificate. scheme_scalars' refusal and a non-finite scale
    raise before this returns."""
    from .decompose import _entries
    d = params.d
    scale, weight, flip, labels, groups = _entries(params, scheme)
    text = lru_cache(maxsize=None)(format_float)
    getters = [itemgetter(*[r ^ c for c in range(d)]) for r in range(d)]  # row r's column c: offset r ^ c

    @lru_cache(maxsize=4 * d)
    def rendered(values):  # each row r's text of an offset row
        cells = [text(v) for v in values]
        return [f"          [{', '.join(at(cells))}]" for at in getters]

    def part(rows, e, phi):
        return "[\n" + ",\n".join([rows[e ^ f][r] for r, f in enumerate(phi)]) + "\n        ]"

    def terms():
        w, names = format_float(weight), iter(labels)
        for phi, rows in groups:
            real, imag = zip(*[(rendered(a), rendered(b)) for a, b in rows])
            factors = [_FACTOR % (d, part(real, e, phi), part(imag, e, phi)) for e in range(len(rows))]
            for e, a in enumerate(factors):
                yield _TERM % (w, encode_basestring_ascii(next(names)), a, factors[e ^ flip])

    return _document((params.p, params.f, scheme, scale), terms())


def _document(head: Sequence, terms: Iterator[str]) -> Iterator[str]:
    """The certificate document with head's p, f, scheme and scale around
    terms, each a _TERM with its leading comma, and a newline."""
    head = _HEAD % tuple(map(_scalar_text, head))
    first = next(terms, ",")  # the first term follows "[" with no comma; no term at all leaves "[]"
    return chain((head, first[1:]), terms, ["]\n}\n" if first == "," else "\n  ]\n}\n"])


# ---------------------------------------------------------------------------
# document builders
# ---------------------------------------------------------------------------


def matrix_doc(m) -> dict:
    import numpy as np
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
    import numpy as np
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


def _header(doc, max_p):
    """The certificate's (params, scheme, scale), checked before any factor
    is read, so a refused p never costs a factor conversion."""
    from .decompose import SCHEMES
    from .model import WernerParams
    p, f = _field(doc, "p", int), float(_field(doc, "f", (int, float)))
    scheme, scale = _field(doc, "scheme", str), float(_field(doc, "scale", (int, float)))
    if not (math.isfinite(f) and math.isfinite(scale)):
        raise MalformedInput("certificate f and scale must be finite")
    if scheme not in SCHEMES:
        raise MalformedInput(f"unknown scheme {scheme!r}")
    if p >= 64:  # no parsed factor has 2**64 rows, and 2**p of a huge p never ends
        raise MalformedInput(f"certificate p={p} is too large")
    if max_p is not None and p > max_p:
        raise MalformedInput(f"certificate p={p} is above the cap of {max_p}")
    return WernerParams(p, f), scheme, scale


def _decomposition(doc, max_p, row, table) -> Decomposition:
    """doc's decomposition: row(t[side]) is each factor's row in the table
    that table() gives once every term is read."""
    import numpy as np

    from .decompose import Decomposition
    params, scheme, scale = _header(doc, max_p)
    terms = [
        (float(_field(t, "weight", (int, float))), row(t["state_a"]), row(t["state_b"]),
         _field(t, "label", str))
        for t in doc["terms"]
    ]
    if not terms:
        raise MalformedInput("certificate has no terms")
    weights, a, b, labels = zip(*terms)
    if not all(map(math.isfinite, weights)):
        raise MalformedInput("certificate weights must be finite")
    factors, d = table(), params.d
    if any(m.shape != (d, d) for m in factors):
        raise MalformedInput(f"certificate factors must all be {d}x{d} for p={params.p}")
    return Decomposition(params, scheme, scale, factors, np.stack((a, b), axis=1), np.array(weights), labels)


def doc_decomposition(doc, max_p: Optional[int] = None) -> Decomposition:
    """The decomposition in a parsed certificate document, one factor row
    per factor value; a p above max_p is refused before any factor is
    converted."""
    factors = []

    def row(value):
        factors.append(doc_matrix(value))
        return len(factors) - 1

    return _decomposition(doc, max_p, row, lambda: factors)


# A factor text, what stands between the braces of an object that holds no
# other object and opens with _RE_HEAD, is cut out for the JSON integer
# " <_SLOT><k> ", which the skeleton parse reads as the 1-tuple (k,), a type
# no JSON value has; k indexes its distinct text. Only a text that holds
# _SLOT (which no 17-digit float does) could forge one; it is parsed whole.
_SLOT = "-98765432109876543210"
_BLANKS = " \t\n\r"  # JSON's four
_B = f"[{_BLANKS}]*"
# The text up to re's first row, and from the "]" that ends re to im's first
# row. re compiles (and caches) these on the first parse, so the commands
# that read no certificate never pay for it.
_RE_HEAD = rf'{_B}"dim"{_B}:{_B}([1-9][0-9]*){_B},{_B}"re"{_B}:{_B}\[{_B}\['
_IM_HEAD = rf'{_B},{_B}"im"{_B}:{_B}\[{_B}\['
_NUMBER = rf"{_B}-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?{_B}"
_CELLS = 1 << 16  # number texts a batch holds at once, read or written


def _json_int(text: str):
    """json.loads's integer, except that "-0" (format_float's -0.0) keeps its sign."""
    return -0.0 if text == "-0" else int(text)


def _int_or_slot(text: str):
    return (int(text[len(_SLOT) :]),) if text.startswith(_SLOT) else _json_int(text)


def _cut(text: str):
    """(the skeleton, the distinct factor texts, the number of cuts)."""
    texts = {}  # factor text -> k
    parts = []
    done = 0  # text[:done] is in parts
    factor_head = re.compile(_RE_HEAD).match
    close = text.find("}")
    while close != -1:
        opening = text.rfind("{", done, close)
        if opening != -1 and factor_head(text, opening + 1):
            k = texts.setdefault(text[opening + 1 : close], len(texts))
            parts += (text[done:opening], f" {_SLOT}{k} ")
            done = close + 1
        close = text.find("}", close + 1)
    parts.append(text[done:])
    return "".join(parts), list(texts), len(parts) // 2


def _factor_arrays(texts: List[Optional[str]]) -> List[np.ndarray]:
    """The read-only matrix of each factor text, in one batch that splits
    each distinct row and converts each distinct number once; ValueError
    unless every text is '"dim": n, "re": [[...], ...], "im": [[...], ...]'
    with one n for all and n rows of n finite JSON numbers. A text is
    dropped once its rows are taken, and _CELLS numbers are split at a time,
    so the texts, the rows and the numbers are never all held at once."""
    import numpy as np
    re_head, im_head, number = map(re.compile, (_RE_HEAD, _IM_HEAD, _NUMBER))
    ids, slots = {}, []  # distinct row -> index; each text's 2n row indices
    n = int(re_head.match(texts[0])[1])
    for k, text in enumerate(texts):
        head = re_head.match(text)
        pieces = text.split("]")  # re's n rows and its end, then im's, then the tail
        im = head[1] == str(n) and len(pieces) == 2 * n + 3 and im_head.match(pieces[n + 1])
        if not im or (pieces[n] + pieces[2 * n + 1] + pieces[2 * n + 2]).strip(_BLANKS):
            raise ValueError("a factor text is not dim, re and im of one dim")
        texts[k] = None
        pieces[0], pieces[n + 1] = ",[" + pieces[0][head.end() :], ",[" + pieces[n + 1][im.end() :]
        slots.append([ids.setdefault(row, len(ids)) for row in pieces[:n] + pieces[n + 1 : -2]])
    rows, table = list(ids), np.empty((len(ids), n))
    values = {}  # number text -> its value
    step = max(1, _CELLS // n)
    for start in range(0, len(rows), step):
        cells = []
        for row in rows[start : start + step]:  # ", [" and n numbers
            lead, _, entries = row.partition("[")
            split = entries.split(",")
            if lead.strip(_BLANKS) != "," or len(split) != n:
                raise ValueError("a factor row is not dim numbers")
            cells += split
        for cell in set(cells).difference(values):
            if not number.fullmatch(cell):
                raise ValueError("a factor entry is not a JSON number")
            values[cell] = float(cell)
            if not math.isfinite(values[cell]):
                raise ValueError("a factor entry is not finite")
        chunk = np.fromiter(map(values.__getitem__, cells), float, len(cells))
        table[start : start + step] = chunk.reshape(-1, n)
    arrays = []
    for slot in slots:
        m = np.empty((n, n), dtype=complex)
        m.real, m.imag = table[slot[:n]], table[slot[n:]]
        m.flags.writeable = False
        arrays.append(m)
    return arrays


def parse_decomposition(text: str, max_p: Optional[int] = None) -> Decomposition:
    """doc_decomposition(json.loads(text, parse_int=_json_int), max_p), in
    which the factor table holds one read-only row per distinct factor text.

    Only an accepted text is read that way. A refusal, a factor value the
    cut did not take, a factor text the batch does not take, or a
    placeholder found anywhere but at a factor (a cut-out object that stood
    in a label, an ignored field or no value position at all) leaves the
    last word to the plain parse of the whole text, so every diagnostic is
    the plain one.
    """
    if _SLOT[1:] not in text:
        skeleton, texts, n_cut = _cut(text)
        placed = 0

        def row(value):
            nonlocal placed
            if type(value) is not tuple:
                raise TypeError("a factor the cut did not take")
            placed += 1
            return value[0]

        try:
            doc = json.loads(skeleton, parse_int=_int_or_slot)
            dec = _decomposition(doc, max_p, row, lambda: _factor_arrays(texts))
            if placed == n_cut:
                return dec
        except (KeyError, TypeError, ValueError, OverflowError):
            pass
    return doc_decomposition(json.loads(text, parse_int=_json_int), max_p)


def verification_doc(rep: VerificationReport) -> dict:
    return dict(rep._asdict(), diagnostics=list(rep.diagnostics))


def separability_doc(rep: SeparabilityReport, refinement=None) -> dict:
    doc = rep._asdict()
    if rep.verification is not None:
        doc["verification"] = verification_doc(rep.verification)
    doc["refined"] = None if refinement is None else refinement._asdict()
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
