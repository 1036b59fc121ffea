"""Mutation tests of the verdict: named edits to verify.py, to model.ppt_check
and model.werner_spinor, to serialize's certificate reader, to
partition.validate_partition, to decompose.reconstruct, to linalg's Jacobi
kernel and to cli.py's exit codes, that a probe must see.

Each edit replaces one exact text of src/werner/verify.py, model.py,
serialize.py, partition.py, decompose.py, linalg.py or cli.py. The text must
occur exactly once, so a refactor that removes it fails here and the list
has to follow. The edited source is exec'd into a fresh module object (no
file is written), and a fixed set of small probes of that module runs
against it. A verify probe returns the boolean judgements of one report:
verdict, convex_ok, positivity_ok and purity_ok, or the verdicts of
separability_report at a few points; a model probe, ppt_check's verdicts or
whether werner_spinor keeps werner_dense's bytes; a serialize probe, which
certificate headers and which certificate texts are read; a partition probe,
the kinds of problem validate_partition reports for each broken partition; a
decompose probe, which certificates reconstruct
their state; a linalg probe, the judgements of the document verifier run on
the edited kernel, or the error it raises; a cli probe, the exit code and
the error name on stderr of calls of main, run in process. An edit is killed
when some probe's judgements differ from those of the unedited source.
"""
import io
import json
import os
import re
import tempfile
import types
from contextlib import redirect_stderr, redirect_stdout
from functools import cache

import numpy as np
import pytest

import werner.cli
import werner.decompose
import werner.linalg
import werner.model
import werner.partition
import werner.serialize
import werner.verify
from certificate_oracle import Term, expand, from_terms
from werner.decompose import COMMUTING_CLASS, PER_STRING, _build, decompose_auto, reconstruct
from werner.errors import MalformedInput, WernerError
from werner.model import WernerParams, werner_dense
from werner.partition import CommutingClass, Partition, build_partition
from werner.pauli import DIGIT_LETTERS, masks
from werner.verify import refine_to_pure


def _source(module):
    with open(module.__file__) as fh:
        return fh.read()


MODULES = {
    name: getattr(werner, name)
    for name in ("verify", "model", "serialize", "partition", "decompose", "linalg", "cli")
}
SOURCES = {name: _source(module) for name, module in MODULES.items()}


def _module(name, code):
    """code exec'd as a fresh module of the werner package."""
    mod = types.ModuleType(f"werner._{name}_mutant")
    mod.__package__ = "werner"
    exec(code, mod.__dict__)
    return mod


def _judgements(rep):
    return rep.verdict, rep.convex_ok, rep.positivity_ok, rep.purity_ok


# --- probes on documents (verify_decomposition) -------------------------------


def _document(m, dec, tol=1e-9):
    return _judgements(m.verify_decomposition(werner_dense(dec.params), dec, tol))


def _with_terms(dec, terms):
    return from_terms(dec.params, dec.scheme, dec.scale, terms)


def honest_document(m):
    return _document(m, decompose_auto(WernerParams(2, 0.9), COMMUTING_CLASS))


def negative_weight(m):
    # term 0 split into (w + 1e-10, A, B) and (-1e-10, A, B): the same state
    dec = decompose_auto(WernerParams(2, 0.9), COMMUTING_CLASS)
    first, *rest = expand(dec)
    return _document(m, _with_terms(
        dec, [first._replace(weight=first.weight + 1e-10), first._replace(weight=-1e-10)] + rest
    ))


def weight_sum_off(m):
    dec = decompose_auto(WernerParams(2, 0.9), COMMUTING_CLASS)
    first, *rest = expand(dec)
    return _document(m, _with_terms(dec, [first._replace(weight=first.weight + 2e-12)] + rest))


def _least_eigenvalue_certificate(least):
    # forced p = 1 per-string factors (I +- s sigma)/2 with (1 - s)/2 = least
    s = 1.0 - 2.0 * least
    return _build(WernerParams(1, (1.0 - s * s) / 2.0), PER_STRING)


def negative_factor(m):
    return _document(m, _least_eigenvalue_certificate(-2e-9))


def negative_factor_within_tol(m):
    return _document(m, _least_eigenvalue_certificate(-0.5e-9))


def negative_factor_under_colliding_keys(m):
    # half a p = 1 class certificate, then half the negative one: a
    # certificate of the state at the mean f. Every compact key collides, and
    # only the exact fallback keeps the negative factors apart from the
    # positive one seen first
    m.hash = lambda data: 0
    good = decompose_auto(WernerParams(1, 0.9), COMMUTING_CLASS)
    bad = _least_eigenvalue_certificate(-2e-9)
    params = WernerParams(1, (good.params.f + bad.params.f) / 2)
    terms = [t._replace(weight=t.weight / 2) for t in expand(good) + expand(bad)]
    return _document(m, from_terms(params, good.scheme, good.scale, terms))


def wrong_in_the_first_entry(m):
    # weight x moves from term 0 to a spike |00><00| (x) |00><00|, and term
    # 0's first factor grows by w / (w - x): only rho[0, 0] moves, by x
    dec = decompose_auto(WernerParams(2, 0.9), COMMUTING_CLASS)
    x, (first, *rest) = 5e-9, expand(dec)
    spike = np.zeros((4, 4), dtype=complex)
    spike[0, 0] = 1.0
    return _document(m, _with_terms(
        dec,
        [first._replace(weight=first.weight - x,
                        state_a=first.state_a * (first.weight / (first.weight - x)))]
        + rest
        + [Term(x, spike, spike, "spike")],
    ))


def stacks_by_pattern(m):
    # whether every stack the eigensolver gets holds one nonzero pattern: the
    # p = 2 per-string factors fall on 4 patterns. No verdict depends on the
    # stacks, since a matrix's results do not
    solve, shared = m.hermitian_eigensystem, []

    def recording(a, compute_vectors=False):
        shared.append(len({(x != 0).tobytes() for x in a}) == 1)
        return solve(a, compute_vectors)

    m.hermitian_eigensystem = recording
    dec = decompose_auto(WernerParams(2, 0.1), PER_STRING)
    m.verify_decomposition(werner_dense(dec.params), dec)
    return len(shared) > 1 and all(shared)


# --- probes on families (scheme_family, verify_family) ---------------------------


def _at(x, z, label):
    """The index of the V on the (x, z) masks of the string named by label."""
    _, (want_x,), (want_z,) = masks([[DIGIT_LETTERS.index(c) for c in label]])
    return next(k for k, (a, c) in enumerate(zip(x, z)) if (a, c) == (want_x, want_z))


def _family(m, p, f, scheme, tamper=None):
    """The judgements of verify_family on the scheme's family at p, the masks
    (x, z, t) of its V first changed in place by tamper(x, z, t)."""
    if tamper is not None:
        x, z, t = werner.verify._products(p, scheme)
        tamper(x, z, t)
        m._products = lambda p, scheme: (x, z, t)
    return _judgements(m.verify_family(m.scheme_family(p, scheme), WernerParams(p, f)))


def honest_classes(m):
    # at f = 1 every class factor is a rank-1 projector, so purity_ok holds
    return _family(m, 2, 1.0, COMMUTING_CLASS)


def honest_strings(m):
    return _family(m, 2, 0.1, PER_STRING)


def honest_p4_strings(m):
    # 510 weights: the pairwise sum splits them into halves
    return _family(m, 4, 0.05, PER_STRING)


def _honest_swap_sum(m):
    # S's check answers as for the honest family, which passes it
    m._swap_sum = lambda p, x, z, hermitian: ()


def negated_product(m):
    # the class of IX, XI and XX at p = 2: V_3 = XX becomes -XX (t + 2), so
    # V_1 V_2 is no longer V_3. -XX is Hermitian with trace 0, and S sums V
    # (x) V = (-V) (x) (-V), so only the law's turns see it
    def negate(x, z, t):
        k = _at(x, z, "XX")
        t[k] = (t[k] + 2) % 4

    return _family(m, 2, 0.6, COMMUTING_CLASS, negate)


def repeated_product(m):
    # the class of IX, XI and XX at p = 2: V_3 = XX becomes a second IX, and
    # only its x mask changes, so only the law's x masks show that V_1 V_2
    # is not V_3. S changes too, so its check is stubbed
    _honest_swap_sum(m)

    def repeat(x, z, t):
        x[_at(x, z, "XX")] = x[_at(x, z, "IX")]

    return _family(m, 2, 0.6, COMMUTING_CLASS, repeat)


def repeated_diagonal_product(m):
    # the class of IZ, ZI and ZZ at p = 2: V_3 = ZZ becomes a second IZ, and
    # only its z mask changes, so only the law's z masks show that V_1 V_2
    # is not V_3. S changes too, so its check is stubbed
    _honest_swap_sum(m)

    def repeat(x, z, t):
        z[_at(x, z, "ZZ")] = z[_at(x, z, "IZ")]

    return _family(m, 2, 0.6, COMMUTING_CLASS, repeat)


def doubled_string(m):
    # the string ZZ becomes a second XX: every V is Hermitian of trace 0 and
    # the groups {I, sigma} have no law, so only S's cover of the strings
    # sees that XX is counted twice and ZZ never
    def double(x, z, t):
        k, j = _at(x, z, "ZZ"), _at(x, z, "XX")
        x[k], z[k], t[k] = x[j], z[j], t[j]

    return _family(m, 2, 0.1, PER_STRING, double)


def imaginary_string(m):
    # X becomes -iX (t + 1): a signed permutation of units with trace 0, but
    # not Hermitian, so (I + s (-iX))/2 is no state. S changes sign in X (x)
    # X, so its check is stubbed to show that the Hermitian check alone
    # reaches the verdict
    _honest_swap_sum(m)

    def rotate(x, z, t):
        k = _at(x, z, "X")
        t[k] = (t[k] + 1) % 4

    return _family(m, 1, 0.3, PER_STRING, rotate)


def traced_string(m):
    # Z becomes I: Hermitian, and I^2 = I, but its trace is 2. A Hermitian
    # family whose S has its closed form has traces 0 (tr_1 S = sum_t
    # tr(G_t) G_t = 0, so sum_t tr(G_t)^2 = 0), so S's check is stubbed to
    # show that the trace identity alone reaches the verdict
    _honest_swap_sum(m)

    def lift(x, z, t):
        z[_at(x, z, "Z")] = 0

    return _family(m, 1, 0.3, PER_STRING, lift)


def shifted_state(m):
    # every value of the state moves by eps, so at p = 1 each of the three
    # groups of the gap, of 2 entries each, carries a third of the squared
    # residual 6 eps^2. tol sits between that residual and sqrt(5) eps, the
    # residual with a group counted once, so a group dropped or counted once
    # passes the verdict
    eps, values = 1e-10, m._werner_values
    m._werner_values = lambda params: tuple(v + eps for v in values(params))
    family = m.scheme_family(1, COMMUTING_CLASS)
    return _judgements(m.verify_family(family, WernerParams(1, 0.6), 2.35 * eps))


# --- probes on the decision at a point (_point, through separability_report) ---


def report_verdicts(m):
    # f = -1e-10 at p = 2 is PPT within tol, but f/d < 0 witnesses
    # entanglement; under tol 0 the p = 3 class family at f = 1/4 misses rho
    # by about 1e-17, so it is INVALID; f = 0.6 at p = 2 is SEPARABLE
    def verdict(p, f, tol=1e-9):
        try:
            return m.separability_report(WernerParams(p, f), tol=tol)[0].verdict
        except WernerError as exc:
            return type(exc).__name__

    return verdict(2, -1e-10), verdict(3, 0.25, 0.0), verdict(2, 0.6)


# --- probes on model.ppt_check and model.werner_spinor ---------------------------


def ppt_verdicts(m):
    # the least partial-transpose eigenvalue at p = 2 is f/4: -2 tol fails and
    # -tol/2 passes under tol = 1e-9 and 1e-6, and f = -0.5 is far below
    return tuple(
        m.ppt_check(WernerParams(2, 4 * x * tol), tol) for tol in (1e-9, 1e-6) for x in (-2, -0.5)
    ) + (m.ppt_check(WernerParams(2, -0.5)),)


def spinor_bits(m):
    # the string sum keeps werner_dense's bytes at p = 1..3
    return tuple(m.werner_spinor(WernerParams(p, 0.6)).tobytes()
                 == werner_dense(WernerParams(p, 0.6)).tobytes() for p in (1, 2, 3))


# --- probes on serialize._header -------------------------------------------------


def _read(m, p, max_p):
    doc = {"p": p, "f": 0.5, "scheme": COMMUTING_CLASS, "scale": 0.5}
    try:
        m._header(doc, max_p)
    except MalformedInput:
        return False
    return True


def header_caps(m):
    # p = 63 is read and p = 64 refused; under a cap of 1, p = 1 is read and
    # p = 2 refused
    return _read(m, 63, None), _read(m, 64, None), _read(m, 1, 1), _read(m, 2, 1)


_CERTIFICATE = "".join(
    werner.serialize.certificate_chunks(decompose_auto(WernerParams(1, 0.6), COMMUTING_CLASS))
)
_FACTOR = '{"dim": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}'
_ENTRY = "0.72360679774997894"  # the first entry of the first factor, ending row 0 with ", 0]"
# each refused, each by one check of the batched reader (or of what surrounds it)
_BROKEN_TEXTS = [
    _CERTIFICATE.replace(f"[{_ENTRY}", "[+1", 1),  # no JSON number
    _CERTIFICATE.replace(f"[{_ENTRY}", "[1e400", 1),  # no finite number
    _CERTIFICATE.replace(", 0],\n          [0, ", "],\n          [0, 0, ", 1),  # an entry moved
    _CERTIFICATE.replace("0],\n          [0", "0]\n          [0", 1),  # rows with no comma
    _CERTIFICATE.replace("106]\n        ],", "106] 5\n        ],", 1),  # a number after the rows
    _CERTIFICATE.replace('"im": [\n          [0, 0],\n', '"im": [\n', 1),  # im a row short
    '"dim": 3'.join(_CERTIFICATE.rsplit('"dim": 2', 1)),  # the last factor's dim
    _CERTIFICATE.replace('"im":', '"xx":', 1),  # no im
    _CERTIFICATE.replace('"class:0:0"', f'"a{_FACTOR}"', 1),  # a factor cut out of a label
    re.sub(r'"state_a": \{[^{}]*\}', f'"state_a": {werner.serialize._SLOT}0',  # a forged slot
           _CERTIFICATE.replace('"p": 1,', f'"x": {_FACTOR}, "p": 1,', 1), count=1),
]


def reader_verdicts(m):
    # the honest certificate is read, and every broken text refused with an
    # error the CLI reports (any other escapes as a traceback)
    def read(text):
        try:
            m.parse_decomposition(text, 5)
        except (KeyError, TypeError, ValueError, OverflowError):
            return False
        except Exception as exc:
            return type(exc).__name__
        return True

    return tuple(map(read, [_CERTIFICATE, *_BROKEN_TEXTS]))


# --- probes on partition.validate_partition -------------------------------------------


def _cls(*labels):
    members = tuple(tuple(DIGIT_LETTERS.index(c) for c in s) for s in labels)
    return CommutingClass(members, members[:1])


def _cut_class_2():
    part = build_partition(2)
    pair = part.classes[2].members[:2]
    return Partition(2, part.classes[:2] + (CommutingClass(pair, pair),) + part.classes[3:])


def _with_last_member(last):
    part = build_partition(2)
    head = part.classes[0]
    return Partition(2, (CommutingClass(head.members[:-1] + (last,), head.generators),)
                     + part.classes[1:])


_PROBLEM_KINDS = ["classes, found", "members, expected", "wrong length", "digit outside",
                  "identity string", "appears in classes", "anticommute", "imaginary phase",
                  "not closed", "not covered"]
_BROKEN_PARTITIONS = [
    Partition(1, (_cls("X"), _cls("Y"), CommutingClass(((1,), (3,)), ((1,),)))),  # X, Z merged
    Partition(1, (_cls("I"), _cls("X"), _cls("Z"))),
    Partition(1, (_cls("X"), _cls("Y"), _cls("ZZ"))),
    _with_last_member((1, 4)),
    _cut_class_2(),
    Partition(1, (_cls("X"), _cls("Y"))),
]


def partition_problems(m):
    def kinds(part):
        try:
            problems = m.validate_partition(part).problems
        except Exception as exc:  # a validator that raises has judged nothing
            return type(exc).__name__
        return tuple(k for k in _PROBLEM_KINDS if any(k in msg for msg in problems))

    return tuple(map(kinds, _BROKEN_PARTITIONS))


# --- probes on decompose.reconstruct -------------------------------------------


@cache
def _reconstructed():
    """Certificates and their states: a raw p = 2 class one (16 terms, one
    chunk), and a refined p = 3 per-string one of 8,064 terms, 32 chunks of
    256 terms. Their factors are complex, and their pairs take the partner
    term's factor as the second."""
    raw = decompose_auto(WernerParams(2, 0.6), COMMUTING_CLASS)
    refined = refine_to_pure(decompose_auto(WernerParams(3, 0.1), PER_STRING))
    assert refined.n_terms == 8064
    return [(dec, werner_dense(dec.params)) for dec in (raw, refined)]


def reconstruct_gaps(m):
    # whether each certificate reconstructs its state to 1e-12 in every entry
    return tuple(
        float(np.abs(m.reconstruct(dec) - target).max()) <= 1e-12 for dec, target in _reconstructed()
    )


# --- probes on linalg.hermitian_eigensystem, through the document verifier ------


def _verified(m, dec, target, tol=1e-9):
    """The judgements of a fresh verify module that solves dec's factors with
    m's kernel, or the name of the error it raises."""
    v = _module("verify", compile(SOURCES["verify"], MODULES["verify"].__file__, "exec"))
    v.hermitian_eigensystem = m.hermitian_eigensystem
    try:
        return _judgements(v.verify_decomposition(target, dec, tol))
    except WernerError as exc:
        return type(exc).__name__


def _one_term(m, factor, tol):
    """The judgements of factor (x) factor against its own reconstruction,
    under tol: only the factor's spectrum can fail it."""
    p = len(factor).bit_length() - 1
    dec = from_terms(WernerParams(p, 0.5), PER_STRING, 1.0, [Term(1.0, factor, factor, "x")])
    return _verified(m, dec, reconstruct(dec), tol)


def pure_factors(m):
    # the p = 2 class certificate at f = 1: rank-1 projectors, so purity_ok
    # holds only while the eigenvalues are 0 and 1
    dec = decompose_auto(WernerParams(2, 1.0), COMMUTING_CLASS)
    return _verified(m, dec, werner_dense(dec.params))


def dense_factor(m):
    # a dense 8x8 density matrix: it settles after 5 sweeps
    rng = np.random.default_rng(7)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    a = g @ g.conj().T
    return _one_term(m, a / np.trace(a).real, 1e-9)


def nearly_hermitian_factor(m):
    # I/2 with one entry moved by 1e-6: 1.4e-6 from its adjoint, so not
    # Hermitian within 1e-10, and refused
    a = np.eye(2, dtype=complex) / 2
    a[0, 1] = 1e-6
    return _one_term(m, a, 1e-9)


def small_pivots(m):
    # under tol 0, positivity sees the least eigenvalue -beta of a block
    # [[0, beta], [beta, 0]] that rotates: one of 1e-10 (off-diagonal norm
    # 1.4e-10, above the settle test's 1e-12), and one of 1e-13 beside a
    # block that needs a sweep (above the 4x4 pivot floor 1e-12 / 32); a
    # block left unrotated reads 0 and passes
    unsettled = np.array([[0, 1e-10], [1e-10, 0]], dtype=complex)
    floor = np.zeros((4, 4), dtype=complex)
    floor[:2, :2] = [[1, 0.5], [0.5, 1]]
    floor[2, 3] = floor[3, 2] = 1e-13
    return tuple(_one_term(m, a, 0.0) for a in (unsettled, floor))


# --- probes on cli.main -------------------------------------------------------


def _call(m, *argv):
    """(exit code, the error named on stderr or None) of main(argv)."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = m.main(list(argv))
    return code, json.loads(err.getvalue())["error"] if err.getvalue() else None


def exit_codes(m):
    # verify of an honest certificate and of one with a factor eigenvalue of
    # -2e-9, then report at a SEPARABLE point, at an INVALID one (the p = 3
    # class family at f = 1/4 under tol 0) and at an ENTANGLED one
    certificates = decompose_auto(WernerParams(1, 0.6)), _least_eigenvalue_certificate(-2e-9)
    with tempfile.TemporaryDirectory() as tmp:
        calls = []
        for k, dec in enumerate(certificates):
            path = os.path.join(tmp, f"{k}.json")
            with open(path, "w") as fh:
                fh.writelines(werner.serialize.certificate_chunks(dec))
            calls.append(_call(m, "verify", "--input", path))
    return (*calls, _call(m, "report", "--p", "2", "--f", "0.6"),
            _call(m, "report", "--p", "3", "--f", "0.25", "--tol", "0"),
            _call(m, "report", "--p", "2", "--f", "-0.5"))


PROBES = {"verify": [
    (honest_document, (True, True, True, False)),
    (negative_weight, (False, False, True, False)),
    (weight_sum_off, (False, False, True, False)),
    (negative_factor, (False, True, False, False)),
    (negative_factor_within_tol, (True, True, True, False)),
    (negative_factor_under_colliding_keys, (False, True, False, False)),
    (wrong_in_the_first_entry, (False, True, True, False)),
    (stacks_by_pattern, True),
    (honest_classes, (True, True, True, True)),
    (honest_strings, (True, True, True, False)),
    (honest_p4_strings, (True, True, True, False)),
    (negated_product, (False, True, True, False)),
    (repeated_product, (False, True, True, False)),
    (repeated_diagonal_product, (False, True, True, False)),
    (doubled_string, (False, True, True, False)),
    (imaginary_string, (False, True, True, False)),
    (traced_string, (False, True, True, False)),
    (shifted_state, (False, True, True, False)),
    (report_verdicts, ("ENTANGLED", "INVALID", "SEPARABLE")),
], "model": [
    (ppt_verdicts, (False, True, False, True, False)),
    (spinor_bits, (True, True, True)),
], "serialize": [
    (header_caps, (True, False, True, False)),
    (reader_verdicts, (True,) + (False,) * len(_BROKEN_TEXTS)),
], "partition": [
    (partition_problems, (
        ("members, expected", "appears in classes", "anticommute", "imaginary phase",
         "not closed"),
        ("identity string", "not covered"),
        ("wrong length", "not covered"),
        ("digit outside", "not covered"),
        ("members, expected", "not closed", "not covered"),
        ("classes, found", "not covered"),
    )),
], "decompose": [
    (reconstruct_gaps, (True, True)),
], "linalg": [
    (pure_factors, (True, True, True, True)),
    (dense_factor, (True, True, True, False)),
    (nearly_hermitian_factor, "MalformedInput"),
    (small_pivots, ((False, True, False, False), (False, True, False, False))),
], "cli": [
    (exit_codes, ((0, None), (2, "VerificationFailed"), (0, None), (2, "VerificationFailed"),
                  (2, "NotSeparable"))),
]}

# (name, module, exact text of its source, the replacement)
MUTANTS = [
    # the five that once survived the whole suite
    ("convexity accepts a weight of -1", "verify",
     "min_weight >= -_WEIGHT_TOL", "min_weight >= -1.0"),
    ("convexity accepts a weight sum off by 1e-3", "verify",
     "weight_sum_error <= _WEIGHT_TOL", "weight_sum_error <= 1e-3"),
    ("the weight tolerance is 1e-9", "verify",
     "_WEIGHT_TOL = 1e-12", "_WEIGHT_TOL = 1e-9"),
    ("positivity ignores tol", "verify",
     "min_component_eigenvalue >= -tol", "min_component_eigenvalue >= -1e-6"),
    ("the residual skips entry (0, 0)", "verify",
     "    gap -= target\n", "    gap -= target\n    gap[0, 0] = 0\n"),
    # the four the suite already killed then
    ("the residual bound is 10 tol", "verify",
     "recon_ok = residual <= tol", "recon_ok = residual <= 10 * tol"),
    ("the verdict ignores positivity", "verify",
     "verdict=convex_ok and positivity_ok and", "verdict=convex_ok and"),
    ("the least eigenvalue is read from the top", "verify",
     "least = min(vals[:, 0].tolist())", "least = min(vals[:, -1].tolist())"),
    ("equal compact keys mean equal factors", "verify",
     "if k < len(distinct) and distinct[k].tobytes() != data:", "if False:"),
    # the family's own checks
    ("the family's problems do not reach the verdict", "verify",
     "tol, family.problems)", "tol, ())"),
    ("no check of S against its closed form", "verify",
     '("S = sum_t G_t (x) G_t differs from its closed form",)', "()"),
    ("S held to its closed form by the count of its strings alone", "verify",
     "sorted(zip(x, z)) == list(product(range(1 << p), repeat=2))[1:]", "len(x) == 4**p - 1"),
    # the identities that prove the spectrum
    ("no check that the G_t are Hermitian", "verify",
     'problems = [] if hermitian else ["a V is not Hermitian"]', "problems = []"),
    ("no check of the traces", "verify",
     'problems.append("a V has a nonzero trace")', "pass"),
    ("no check of the class products", "verify",
     """problems.append("a group's V fail V_s V_g = V_(s ^ g) for a generator g")""", "pass"),
    ("the class products held by their patterns alone", "verify",
     "\n                and zs ^ zg == zu and (ts + tg + 2 * (xs & zg).bit_count() - tu) % 4 == 0", ""),
    ("the class products held by their entries alone", "verify",
     "xs ^ xg == xu\n                and ", ""),
    ("the class products' z masks not held", "verify", "zs ^ zg == zu and ", ""),
    ("the class products' turns not held", "verify",
     " and (ts + tg + 2 * (xs & zg).bit_count() - tu) % 4 == 0", ""),
    ("the turns of a product ignore that X^x Z^z = (-1)^|x & z| Z^z X^x", "verify",
     " + 2 * (xs & zg).bit_count()", ""),
    ("the class sums' multiplicities swapped", "verify",
     "(-1.0,) * (d - d // m) + (m - 1.0,) * (d // m)", "(-1.0,) * (d // m) + (m - 1.0,) * (d - d // m)"),
    ("the spectrum's top eigenvalue is m", "verify", "(m - 1.0,)", "(float(m),)"),
    # a group {I, sigma} has no V_0 row: V_1 V_1 read as V_0 is its V_1
    ("the group law asks V_g V_g = V_0 of a per-string group", "verify",
     "for s in range(1, m) if s != g]", "for s in range(1, m)]"),
    # the family's two sums, in numpy's pairwise order
    ("the pairwise sum drops the values after the last block of 8", "verify",
     "reduce(add, values[stop:], ", "reduce(add, [], "),
    ("the pairwise sum drops its second half", "verify",
     "_pairwise(values[:half]) + _pairwise(values[half:])", "_pairwise(values[:half])"),
    # the family's residual over the three groups of the gap
    ("no n_terms on the first diagonal group", "verify",
     "+ n_terms) * w - rho[0]", ") * w - rho[0]"),
    ("no n_terms on the third diagonal group", "verify",
     "+ n_terms) * w - rho[2]", ") * w - rho[2]"),
    ("the first group dropped", "verify", "off * (only_i * only_i) + ", ""),
    ("the second group dropped", "verify", " + off * (only_p * only_p)", ""),
    ("the third group dropped", "verify", " + d * (both * both)", ""),
    ("the first group counted once", "verify", "off * (only_i * only_i)", "(only_i * only_i)"),
    ("the second group counted once", "verify", "off * (only_p * only_p)", "(only_p * only_p)"),
    ("the third group counted once", "verify", "d * (both * both)", "(both * both)"),
    # the one decision at a point, of report and sweep alike
    ("the PPT band is taken as separable", "verify", " and params.f >= 0", ""),
    ("an INVALID family is reported SEPARABLE", "verify",
     '"SEPARABLE" if ver.verdict else "INVALID"', '"SEPARABLE"'),
    # the factor stacks of a document's eigen-checks
    ("the factor stacks ignore the nonzero pattern", "verify",
     "runs.setdefault((mat != 0).tobytes(), [])", "runs.setdefault(0, [])"),
    # the PPT verdict
    ("ppt_check ignores tol", "model",
     "_pt_pairs(params)) >= -tol", "_pt_pairs(params)) >= -1e-6"),
    ("ppt_check reads the greater PT eigenvalue", "model",
     "min(v for v, _ in _pt_pairs(params))", "max(v for v, _ in _pt_pairs(params))"),
    # the string sum of werner_spinor
    ("the string sum drops the sign (-1)^|r & z|", "model", "2 * count", "count"),
    ("the string sum scatters at column ik ^ x", "model", "ik ^ x * (d + 1)", "ik ^ x"),
    # the certificate reader's caps on p
    ("the reader admits p = 64", "serialize", "if p >= 64:", "if p > 64:"),
    ("the reader refuses p = 63", "serialize", "if p >= 64:", "if p >= 63:"),
    ("the reader admits one p above the cap", "serialize",
     "p > max_p:", "p > max_p + 1:"),
    ("the reader refuses p at the cap", "serialize", "p > max_p:", "p >= max_p:"),
    # the batched certificate reader's checks, and the placeholders' own
    ("the reader takes any number text", "serialize",
     "if not number.fullmatch(cell):", "if False:"),
    ("the reader takes a number that is not finite", "serialize",
     "if not math.isfinite(values[cell]):", "if False:"),
    ("the reader counts no row's numbers", "serialize", " or len(split) != n", ""),
    ("the reader takes any text before a row", "serialize",
     'lead.strip(_BLANKS) != "," or ', ""),
    ("the reader takes any text after the rows", "serialize",
     " or (pieces[n] + pieces[2 * n + 1] + pieces[2 * n + 2]).strip(_BLANKS)", ""),
    ("the reader counts no rows", "serialize", "len(pieces) == 2 * n + 3 and ", ""),
    ("the reader takes factors of other dims", "serialize", "head[1] == str(n) and ", ""),
    ("the reader takes any key for im", "serialize",
     '"im"{_B}', '"\\w+"{_B}'),
    ("the reader returns with a placeholder left over", "serialize",
     "if placed == n_cut:", "if True:"),
    ("the reader trusts a text that holds a placeholder", "serialize",
     "if _SLOT[1:] not in text:", "if True:"),
    # validate_partition's class checks
    ("the validator counts no classes", "partition",
     "if len(part.classes) != expected_classes:", "if False:"),
    ("the validator counts no members", "partition",
     "if len(members) != expected_size:", "if False:"),
    ("the validator takes members of any length", "partition", "if len(m) != p:", "if False:"),
    ("the validator takes any digit", "partition",
     "if not set(m) <= {0, 1, 2, 3}:", "if False:"),
    ("the validator takes the identity string", "partition", "if m == identity:", "if False:"),
    ("the validator takes a string twice", "partition", "if m in seen:", "if False:"),
    ("the validator skips the class-wide checks", "partition",
     "problems.extend(_class_problems(idx, members))", "pass"),
    ("the validator takes anticommuting members", "partition",
     'problems.append(f"class {idx}: {a} and {b} anticommute")', "pass"),
    ("the validator takes imaginary phases", "partition",
     'problems.append(f"class {idx}: product of commuting members has imaginary phase")', "pass"),
    ("the validator takes a class not closed under products", "partition",
     "if i != j and key ^ other not in known:", "if False:"),
    ("the validator takes strings left uncovered", "partition", "if missing:", "if False:"),
    # the reconstruction of a document's certificate
    ("reconstruct drops the weights", "decompose",
     "        a *= dec.weights[start : start + step, None]\n", ""),
    # reconstruct holds no conjugation to drop: the edit takes the conjugate
    # transpose of the first factors where the plain one belongs
    ("reconstruct conjugates the first factors", "decompose",
     "a[:, r : r + rows].T @ b", "a[:, r : r + rows].conj().T @ b"),
    ("reconstruct leaves out the kron transpose", "decompose",
     ".transpose(0, 2, 1, 3)", ""),
    ("reconstruct skips one term between chunks", "decompose",
     "range(0, dec.n_terms, step)", "range(0, dec.n_terms, step + 1)"),
    # the Jacobi kernel behind a document's factor spectra
    ("the Hermiticity tolerance is 1e-3", "linalg",
     "_HERMITICITY_TOL = 1e-10", "_HERMITICITY_TOL = 1e-3"),
    ("the symmetrization drops the matrix", "linalg", "    work += stack\n", ""),
    ("the symmetrization drops the halving", "linalg", "    work *= 0.5\n", ""),
    ("a rotation's sign flipped", "linalg", "-q * x_i + c * x_j", "q * x_i + c * x_j"),
    ("the pivot floor is tol / 2n", "linalg",
     "_TOL / (2.0 * n * n)", "_TOL / (2.0 * n)"),
    ("the settle test is 1e3 tol", "linalg", "off <= _TOL", "off <= 1e3 * _TOL"),
    ("the sweep cap is 3", "linalg", "_MAX_SWEEPS = 100", "_MAX_SWEEPS = 3"),
    # the CLI's exit codes and error names on a verdict
    ("verify exits 0 on a failed verdict", "cli",
     "p=dec.params.p, f=dec.params.f)\n        return 2", "p=dec.params.p, f=dec.params.f)\n        return 0"),
    ("report names INVALID as NotSeparable", "cli",
     '"NotSeparable" if rep.verdict == "ENTANGLED" else "VerificationFailed"', '"NotSeparable"'),
]


def _run(module, source):
    """Each probe's judgements, each on its own module, since probes patch it."""
    code = compile(source, MODULES[module].__file__, "exec")
    return [probe(_module(module, code)) for probe, _ in PROBES[module]]


def test_the_probes_judge_the_unedited_source_as_expected():
    for module, probes in PROBES.items():
        assert _run(module, SOURCES[module]) == [want for _, want in probes], module


@pytest.mark.parametrize(
    "name,module,old,new", MUTANTS, ids=[name for name, _, _, _ in MUTANTS]
)
def test_each_edit_changes_a_judgement(name, module, old, new):
    source = SOURCES[module]
    assert source.count(old) == 1, f"the text of {name!r} must occur exactly once"
    changed = [
        probe.__name__
        for (probe, want), got in zip(PROBES[module], _run(module, source.replace(old, new)))
        if got != want
    ]
    assert changed, f"no probe sees {name!r}"
