"""Fuzzed CLI inputs: every mutated certificate and every broken argv must end
with exit 1 or 2 and exactly one JSON diagnostic line, never a traceback; a
certificate whose factor text is mutated must be read as the plain parse
reads it."""
import contextlib
import io
import json
import os
import re
import tempfile
import warnings
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certificate_oracle import assert_read_alike
from werner.cli import main
from werner.decompose import COMMUTING_CLASS, PER_STRING, decompose_auto
from werner.model import WernerParams
from werner.serialize import certificate_chunks
from werner.verify import refine_to_pure


def _run(argv):
    """Exit code and stderr; a warning would print to stderr outside pytest,
    so it counts as a second line."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    return code, err.getvalue() + "".join(f"{w.message}\n" for w in caught)


def _assert_one_diagnostic(code, err):
    assert code in (1, 2), (code, err)
    assert err.endswith("\n") and len(err.splitlines()) == 1, err
    diag = json.loads(err)
    assert isinstance(diag, dict) and {"error", "message"} <= set(diag), err


@lru_cache(maxsize=None)
def _certificate_text() -> str:
    return "".join(certificate_chunks(decompose_auto(WernerParams(1, 0.6))))


# ---------------------------------------------------------------------------
# mutated certificates
# ---------------------------------------------------------------------------

_TOP = {"p": "number", "f": "number", "scheme": "string", "scale": "number", "terms": "list"}
_TERM = {"weight": "number", "label": "string", "state_a": "dict", "state_b": "dict"}
_MATRIX = {"dim": "number", "re": "list", "im": "list"}
_VALUES = {
    "number": [0, 1.5, -3],
    "string": ["", "x", "1"],
    "bool": [True, False],
    "null": [None],
    "list": [[], [1], [[1.0]]],
    "dict": [{}, {"dim": 2}],
}
_NON_FINITE = [float("nan"), float("inf"), -float("inf"), 10**400]


@st.composite
def _location(draw):
    """A fresh certificate, one of its dicts, and that dict's key -> JSON kind map."""
    doc = json.loads(_certificate_text())
    level = draw(st.sampled_from(["top", "term", "matrix"]))
    if level == "top":
        return doc, doc, _TOP
    term = doc["terms"][draw(st.integers(0, len(doc["terms"]) - 1))]
    if level == "term":
        return doc, term, _TERM
    return doc, term[draw(st.sampled_from(["state_a", "state_b"]))], _MATRIX


@st.composite
def _mutated_certificate(draw) -> str:
    kind = draw(
        st.sampled_from(
            ["drop", "retype", "truncate", "p", "dim", "non-finite", "no-terms", "scheme"]
        )
    )
    if kind == "truncate":  # a proper prefix of the object never closes it
        text = _certificate_text().rstrip()
        return text[: draw(st.integers(0, len(text) - 1))]
    doc, where, kinds = draw(_location())
    key = draw(st.sampled_from(sorted(kinds)))
    if kind == "drop":
        del where[key]
    elif kind == "retype":
        other = draw(st.sampled_from(sorted(set(_VALUES) - {kinds[key]})))
        where[key] = draw(st.sampled_from(_VALUES[other]))
    elif kind == "p":
        doc["p"] = draw(st.integers(-3, 70).filter(lambda p: p != 1) | st.just(10**12))
    elif kind == "dim":
        term = draw(st.sampled_from(doc["terms"]))
        side = draw(st.sampled_from(["state_a", "state_b"]))
        term[side]["dim"] = draw(st.integers(-1, 70).filter(lambda d: d != 2))
    elif kind == "non-finite":
        bad = draw(st.sampled_from(_NON_FINITE))
        if kinds is _MATRIX:
            part = draw(st.sampled_from(["re", "im"]))
            where[part][draw(st.integers(0, 1))][draw(st.integers(0, 1))] = bad
        elif kinds is _TERM:
            where["weight"] = bad
        else:
            doc[draw(st.sampled_from(["p", "f", "scale"]))] = bad
    elif kind == "no-terms":
        doc["terms"] = []
    else:
        known = (PER_STRING, COMMUTING_CLASS)
        doc["scheme"] = draw(st.text(max_size=12).filter(lambda s: s not in known))
    return json.dumps(doc)


@settings(deadline=None, max_examples=120)
@given(text=_mutated_certificate(), cmd=st.sampled_from(["verify", "refine"]))
def test_mutated_certificate_ends_in_one_diagnostic(text, cmd):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cert.json")
        with open(path, "w") as fh:
            fh.write(text)
        code, err = _run([cmd, "--input", path])
    _assert_one_diagnostic(code, err)


_DEEP = {
    "arrays": "[" * 200_000,
    "terms": '{"p": 1, "f": 0.5, "scheme": "per_string", "scale": 1, "terms": '
    + "[" * 100_000 + "]" * 100_000 + "}",
}


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("cmd", ["verify", "refine"])
@pytest.mark.parametrize("deep", sorted(_DEEP))
def test_deeply_nested_certificate_is_malformed_input(monkeypatch, tmp_path, deep, cmd, source):
    # the JSON parser gives up on such nesting with a RecursionError
    path = tmp_path / "cert.json"
    path.write_text(_DEEP[deep])
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.StringIO(_DEEP[deep]))
    code, err = _run([cmd, "--input", "-" if source == "stdin" else str(path)])
    _assert_one_diagnostic(code, err)
    assert code == 2
    assert json.loads(err)["error"] == "MalformedInput"


@lru_cache(maxsize=None)
def _refined_certificate_text() -> str:
    # 24 terms over a few distinct factor texts, so one mutated copy of a
    # text sits beside untouched copies of it
    dec = refine_to_pure(decompose_auto(WernerParams(1, 0.6)))
    return "".join(certificate_chunks(dec))


_FACTOR_SPAN = re.compile(r'\{\s*"dim"[^{}]*\}')


@st.composite
def _mutated_factor_text(draw) -> str:
    """One digit inside one factor's text swapped for a letter, a brace, a
    quote or a second decimal point."""
    text = draw(st.sampled_from([_certificate_text(), _refined_certificate_text()]))
    start, end = draw(st.sampled_from([m.span() for m in _FACTOR_SPAN.finditer(text)]))
    at = draw(st.sampled_from([i for i in range(start, end) if text[i].isdigit()]))
    return text[:at] + draw(st.sampled_from(["x", "e", "E", "}", '"', "."])) + text[at + 1 :]


@settings(deadline=None, max_examples=150)
@given(text=_mutated_factor_text())
def test_mutated_factor_text_is_read_as_the_plain_parse_reads_it(text):
    assert_read_alike(text)


# ---------------------------------------------------------------------------
# broken argv
# ---------------------------------------------------------------------------

_BAD_VALUES = {
    "--p": ["0", "6", "-1", "x", "1.5", "", "nan"],
    "--f": ["nan", "inf", "-inf", "x", "", "1e999", "2", "-2"],
    "--input": ["MISSING", "DIR", ""],
}
_BAD_EXTRAS = [
    ["--tol", "-1"],
    ["--tol", "-1e-9"],
    ["--tol", "nan"],
    ["--tol", "-inf"],
    ["--tol", "x"],
    ["--format", "csv"],
    ["--scheme", "bogus"],
    ["--seed", "-1"],
    ["--output", "DIR"],
    ["--bogus"],
    ["stray"],
    ["--tol"],
]


_VALID_ARGV = [
    ("verify", "--input", "CERT"),
    ("refine", "--input", "CERT"),
    ("refine", "--p", "1", "--f", "0.6"),
    ("report", "--p", "1", "--f", "0.6"),
]


@st.composite
def _broken_argv(draw):
    argv = list(draw(st.sampled_from(_VALID_ARGV)))
    kind = draw(st.sampled_from(["value", "extra", "no-value", "no-option", "subcommand"]))
    option = draw(st.sampled_from(range(1, len(argv), 2)))  # index of an option
    if kind == "value":
        argv[option + 1] = draw(st.sampled_from(_BAD_VALUES[argv[option]]))
    elif kind == "extra":
        extra = draw(st.sampled_from(_BAD_EXTRAS))
        at = draw(st.integers(1, len(argv)))
        at -= (at - 1) % 2  # between option pairs
        argv[at:at] = extra
    elif kind == "no-value":
        del argv[option + 1]
    elif kind == "no-option":
        del argv[option : option + 2]
    else:
        argv[0] = draw(st.sampled_from(["", "verfy", "--input"]))
    return argv


@settings(deadline=None, max_examples=120)
@given(argv=_broken_argv())
def test_broken_argv_ends_in_one_diagnostic(argv):
    with tempfile.TemporaryDirectory() as tmp:
        cert = os.path.join(tmp, "cert.json")
        with open(cert, "w") as fh:
            fh.write(_certificate_text())
        names = {"CERT": cert, "DIR": tmp, "MISSING": os.path.join(tmp, "missing.json")}
        code, err = _run([names.get(a, a) for a in argv])
    _assert_one_diagnostic(code, err)
