"""The text-memoized certificate parse against the plain one it replaced.

serialize.parse_decomposition cuts each factor object out of the text,
parses the skeleton, and converts the distinct factor texts in one batch.
Whatever the text, the CLI must read what json.loads plus one conversion
per factor object read: the same decomposition bit for bit, or a refusal
of the same kind.
"""
import json
import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certificate_oracle import assert_read_alike, cli_read
from werner.decompose import COMMUTING_CLASS, PER_STRING, decompose_auto
from werner.model import WernerParams
from werner.serialize import _SLOT, certificate_chunks, parse_decomposition
from werner.verify import _eigensystems, refine_to_pure

SCHEMES = [PER_STRING, COMMUTING_CLASS]


@lru_cache(maxsize=None)
def _raw(p, scheme):
    # per_string holds on [0, 2^(1-p)], the class scheme on [2^-p, 1]
    f = 0.3 * 2.0 ** (1 - p) if scheme == PER_STRING else 0.6
    return decompose_auto(WernerParams(p, f), scheme)


@lru_cache(maxsize=None)
def _refined(p, scheme):
    return refine_to_pure(_raw(p, scheme))


def _text(dec):
    return "".join(certificate_chunks(dec))


def _agree(text):
    """Both readers accept text and read the same decomposition; returns it."""
    assert assert_read_alike(text)[0] == "ok"
    return cli_read(text)


def _refused_alike(text):
    assert assert_read_alike(text)[0] == "MalformedInput"


def _one_row_per_text(dec):
    """Whether the factor table holds one read-only row per distinct factor
    (an emitted text is one factor's), each indexed by some term."""
    rows = {m.tobytes() for m in dec.factors}
    return (
        len(rows) == len(dec.factors)
        and not any(m.flags.writeable for m in dec.factors)
        and set(dec.pairs.ravel().tolist()) == set(range(len(dec.factors)))
    )


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_raw_certificates_read_as_the_plain_parse_reads_them(p, scheme):
    assert _one_row_per_text(_agree(_text(_raw(p, scheme))))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("p", [1, 2, 3])
def test_refined_certificates_read_as_the_plain_parse_reads_them(p, scheme):
    assert _one_row_per_text(_agree(_text(_refined(p, scheme))))


def _reordered(doc):
    for t in doc["terms"]:
        for side in ("state_a", "state_b"):
            m = t[side]
            t[side] = {"re": m["re"], "im": m["im"], "dim": m["dim"]}
    return doc


@pytest.mark.parametrize(
    "layout, cut",
    [
        (lambda doc: json.dumps(doc), True),
        (lambda doc: json.dumps(doc, separators=(",", ":")), True),
        (lambda doc: json.dumps(doc, indent=3), True),
        (lambda doc: json.dumps(_reordered(doc)), False),  # stays in the skeleton
    ],
    ids=["compact", "tight", "indented", "reordered-keys"],
)
def test_other_layouts_read_alike(layout, cut):
    doc = json.loads(_text(_refined(2, COMMUTING_CLASS)))
    dec = _agree(layout(doc))
    distinct = {m.tobytes() for m in dec.factors}
    # the cut gives one row per distinct text, the plain parse one per value
    assert len(dec.factors) == (len(distinct) if cut else 2 * dec.n_terms)
    assert _one_row_per_text(dec) == cut


def test_label_holding_matrix_text_stays_a_label():
    doc = json.loads(_text(_raw(1, COMMUTING_CLASS)))
    factor_text = json.dumps(doc["terms"][1]["state_a"])
    doc["terms"][0]["label"] = factor_text
    dec = _agree(json.dumps(doc))
    assert dec.labels[0] == factor_text


def test_text_holding_the_marker_is_parsed_whole():
    doc = json.loads(_text(_raw(2, COMMUTING_CLASS)))
    doc["terms"][0]["label"] = f"x{_SLOT}0"
    dec = _agree(json.dumps(doc))
    assert dec.labels[0] == f"x{_SLOT}0"
    assert len(dec.factors) == 2 * dec.n_terms  # the plain path: one row per value


@pytest.mark.parametrize("forged", [f"{_SLOT}0", f"{_SLOT}1", f" {_SLOT}0 ", f'"{_SLOT}0"'])
def test_placeholder_forged_at_a_factor_is_refused(forged):
    text = _text(_raw(1, COMMUTING_CLASS))
    start, end = re.search(r'\{\s*"dim"[^{}]*\}', text).span()
    _refused_alike(text[:start] + forged + text[end:])


def _with(doc, where, value):
    doc = json.loads(json.dumps(doc))
    if where == "extra":
        doc["extra"] = value
    elif where == "label":
        doc["terms"][0]["label"] = value
    elif where == "term":
        doc["terms"][0] = value
    elif where == "terms":
        doc["terms"] = value
    return json.dumps(doc)


def test_matrix_text_away_from_a_factor_reads_as_the_plain_parse_reads_it():
    doc = json.loads(_text(_raw(1, COMMUTING_CLASS)))
    factor = doc["terms"][0]["state_a"]
    # an ignored field may hold a cut-out object, even one no factor could be
    overflow = json.dumps(factor).replace("[[", "[[1e999, ", 1).replace("]]", ", 1]]", 1)
    for value in (factor, "OVERFLOW"):
        text = _with(doc, "extra", value).replace('"OVERFLOW"', overflow)
        _agree(text)
    for where in ("label", "term", "terms"):
        _refused_alike(_with(doc, where, factor))
    _refused_alike(json.dumps(factor))  # a factor is no certificate
    text = json.dumps(doc)
    key = text.replace('{"p"', json.dumps(factor) + ': 1, "p"', 1)  # a factor as a key
    inside = text.replace('"label": "', '"label": "' + json.dumps(factor), 1)  # in a string
    for bad in (key, inside):
        _refused_alike(bad)


@pytest.mark.parametrize("bad", ["1.0.5", "--1", "1e", "[1", ",1", "1 1"])
def test_number_text_that_is_no_number_is_refused(bad):
    doc = json.loads(_text(_raw(1, COMMUTING_CLASS)))
    doc["terms"][0]["state_b"]["re"][0][0] = "BAD"
    _refused_alike(json.dumps(doc).replace('"BAD"', bad))


def test_refined_per_string_factors_are_shared_read_only_arrays():
    # the refined p = 3 per-string certificate: 16,128 factor slots, 232 texts
    dec = refine_to_pure(decompose_auto(WernerParams(3, 0.1), PER_STRING))
    parsed = parse_decomposition(_text(dec))
    assert parsed.pairs.shape == (8064, 2)
    assert len(parsed.factors) == len({m.tobytes() for m in parsed.factors}) == 232
    assert _one_row_per_text(parsed)
    with pytest.raises(ValueError):
        parsed.factors[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        parsed.factors[-1] *= 2
    assert len(_eigensystems(parsed)[1]) == 232
    assert np.array_equal(parsed.factors[parsed.pairs[0, 0]], dec.factors[dec.pairs[0, 0]])


# --- fuzzed edits of a p = 2 certificate -----------------------------------

_BAD_NUMBERS = ["01", "+1", "1.", ".5", "1e400", "-", "NaN"]


def _signed(text):
    return json.loads(text, parse_int=lambda s: -0.0 if s == "-0" else int(s))


_LAYOUTS = {
    "emitted": lambda text: text,
    "compact": lambda text: json.dumps(_signed(text), separators=(",", ":")),
    "indented": lambda text: json.dumps(_signed(text), indent=4),
}


@st.composite
def _edited_certificate(draw):
    """A p = 2 certificate of either scheme, in one of three layouts, with
    one edit: a number swapped for text that is no JSON number or no finite
    one, a row entry dropped or moved to the next row, or a dim off by one."""
    dec = _raw(2, draw(st.sampled_from(SCHEMES)))
    text = _LAYOUTS[draw(st.sampled_from(sorted(_LAYOUTS)))](_text(dec))
    kind = draw(st.sampled_from(["number", "drop", "move", "dim"]))
    if kind == "dim":
        dims = list(re.finditer(r'"dim": ?(\d+)', text))
        at = draw(st.sampled_from(dims)).span(1)
        new = int(text[at[0] : at[1]]) + draw(st.sampled_from([-1, 1]))
        return text[: at[0]] + str(new) + text[at[1] :]
    rows = list(re.finditer(r"\[([^\[\]]*)\]", text))  # the innermost arrays are rows
    k = draw(st.integers(0, len(rows) - 1))
    start, end = rows[k].span(1)
    entries = text[start:end].split(",")
    j = draw(st.integers(0, len(entries) - 1))
    if kind == "number":
        blank = re.match(r"\s*", entries[j]).group()
        entries[j] = blank + draw(st.sampled_from(_BAD_NUMBERS))
        return text[:start] + ",".join(entries) + text[end:]
    if kind == "drop":
        del entries[j]
        return text[:start] + ",".join(entries) + text[end:]
    # move the last entry to the front of the next row of the same array
    nxt = rows[k + 1] if k + 1 < len(rows) else None
    if nxt is None or not re.fullmatch(r"\s*,\s*", text[rows[k].end() : nxt.start()]):
        return text  # no next row: the unedited certificate
    last = entries.pop()
    return (
        text[:start] + ",".join(entries) + text[end : nxt.start(1)]
        + last.strip() + "," + text[nxt.start(1) :]
    )


@settings(deadline=None, max_examples=150)
@given(text=_edited_certificate())
def test_edited_certificates_read_as_the_plain_parse_reads_them(text):
    assert_read_alike(text)
