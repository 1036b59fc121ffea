"""The plain certificate reader, kept as an oracle for the text-memoized one.

This is how `werner verify --input` read a certificate before it parsed
each distinct factor text once: json.loads of the whole text, one
conversion per factor object, the p guards after the factors, then the CLI
cap. Its integer hook reads the "-0" that werner writes for -0.0 back as
-0.0, as werner's reader does; every other integer is json.loads's own. The
tests hold werner's reader to it: the same decomposition, bit for bit, or a
refusal of the same kind (whose message is that of werner's own plain
parse, which checks the header before any factor).

A decomposition holds a factor table that its terms index; expand and
from_terms give the tests its terms one by one, and exact compares them.
"""
import io
import json
import math
import sys
from itertools import chain
from typing import NamedTuple

import numpy as np

from werner.cli import _read_certificate
from werner.decompose import COMMUTING_CLASS, PER_STRING, Decomposition
from werner.errors import MalformedInput
from werner.model import WernerParams
from werner.serialize import doc_decomposition

MAX_P = 5  # the CLI's --p cap


class Term(NamedTuple):
    """One term of a decomposition, its two factors read from the table."""

    weight: float
    state_a: np.ndarray
    state_b: np.ndarray
    label: str


def expand(dec: Decomposition):
    """dec's terms, in order, each factor the table row the term indexes."""
    return [
        Term(w, dec.factors[a], dec.factors[b], label)
        for w, (a, b), label in zip(dec.weights.tolist(), dec.pairs.tolist(), dec.labels, strict=True)
    ]


def from_terms(params, scheme, scale, terms) -> Decomposition:
    """The decomposition of (weight, state_a, state_b, label) terms, with one
    factor row per factor value."""
    terms = list(terms)
    factors = [m for t in terms for m in (t[1], t[2])]
    return Decomposition(
        params, scheme, scale, factors, np.arange(len(factors)).reshape(-1, 2),
        np.array([t[0] for t in terms], dtype=float), tuple(t[3] for t in terms),
    )


def _int(text):
    return -0.0 if text == "-0" else int(text)


def _field(doc, key, kind):
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise MalformedInput(f"field {key!r} must not be {type(value).__name__}")
    return value


def _matrix(doc):
    dim = _field(doc, "dim", int)
    shape = (dim, dim)
    re = np.array(doc["re"], dtype=float)
    im = np.array(doc["im"], dtype=float)
    if re.shape != shape or im.shape != shape:
        raise MalformedInput("matrix document shape disagrees with its dim field")
    if not {int, float}.issuperset(map(type, chain.from_iterable(chain(doc["re"], doc["im"])))):
        raise MalformedInput("matrix document has an entry that is not a JSON number")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise MalformedInput("matrix document has a non-finite entry")
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _decomposition(doc):
    p, f = _field(doc, "p", int), float(_field(doc, "f", (int, float)))
    scheme, scale = _field(doc, "scheme", str), float(_field(doc, "scale", (int, float)))
    if not (math.isfinite(f) and math.isfinite(scale)):
        raise MalformedInput("certificate f and scale must be finite")
    if scheme not in (PER_STRING, COMMUTING_CLASS):
        raise MalformedInput(f"unknown scheme {scheme!r}")
    params = WernerParams(p, f)
    terms = [
        Term(
            weight=float(_field(t, "weight", (int, float))),
            state_a=_matrix(t["state_a"]),
            state_b=_matrix(t["state_b"]),
            label=_field(t, "label", str),
        )
        for t in doc["terms"]
    ]
    if not terms:
        raise MalformedInput("certificate has no terms")
    if not all(math.isfinite(t.weight) for t in terms):
        raise MalformedInput("certificate weights must be finite")
    if p >= 64:
        raise MalformedInput(f"certificate p={p} is too large")
    d = params.d
    if any(m.shape != (d, d) for t in terms for m in (t.state_a, t.state_b)):
        raise MalformedInput(f"certificate factors must all be {d}x{d} for p={params.p}")
    return from_terms(params, scheme, scale, terms)


def oracle_read(text: str) -> Decomposition:
    try:
        dec = _decomposition(json.loads(text, parse_int=_int))
    except MalformedInput:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedInput(f"malformed certificate: {type(exc).__name__}: {exc}") from exc
    if dec.params.p > MAX_P:
        raise MalformedInput(f"certificate p={dec.params.p} is above the cap of {MAX_P}")
    return dec


def cli_read(text: str) -> Decomposition:
    """The decomposition werner's CLI reads from text (given on stdin)."""
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        return _read_certificate("-")
    finally:
        sys.stdin = stdin


def exact(dec: Decomposition):
    """Everything a decomposition holds, comparable bit for bit: each term
    expanded from the table, with its weight's bits, its label and both of
    its factors' bytes."""
    terms = [
        (float(t.weight).hex(), t.label, t.state_a.tobytes(), t.state_b.tobytes())
        for t in expand(dec)
    ]
    return dec.params, dec.scheme, float(dec.scale).hex(), terms


def _plain_read(text: str) -> Decomposition:
    """werner's own plain parse: doc_decomposition of the whole json.loads,
    with the same integer hook."""
    try:
        return doc_decomposition(json.loads(text, parse_int=_int), MAX_P)
    except MalformedInput:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedInput(f"malformed certificate: {type(exc).__name__}: {exc}") from exc


def outcome(read, text: str):
    """("ok", exact(decomposition)), or ("MalformedInput", its message)."""
    try:
        return "ok", exact(read(text))
    except MalformedInput as exc:
        return "MalformedInput", str(exc)


def assert_read_alike(text: str):
    """The CLI accepts text exactly when the oracle does, and reads the same
    decomposition; a refusal carries the message of werner's plain parse.
    Returns the outcome."""
    got = outcome(cli_read, text)
    want = outcome(oracle_read, text)
    assert got[0] == want[0]
    assert got == (want if got[0] == "ok" else outcome(_plain_read, text))
    return got
