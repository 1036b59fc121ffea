"""Mutation tests of the verdict: named edits to verify.py, to model.ppt_check,
to serialize's certificate reader and to partition.validate_partition, that a
probe must see.

Each edit replaces one exact text of src/werner/verify.py, model.py,
serialize.py or partition.py. The text must occur exactly once, so a refactor
that removes it fails here and the list has to follow. The edited source is
exec'd into a fresh module object (no file is written), and a fixed set of
small probes of that module runs against it. A verify probe returns the
boolean judgements of one report: verdict, convex_ok, positivity_ok and
purity_ok, or the verdicts of separability_report at a few points; a model
probe, ppt_check's verdicts; a serialize probe, which certificate headers and
which certificate texts are read; a partition probe, the kinds of problem
validate_partition reports for each broken partition. An edit is killed when
some probe's judgements differ from those of the unedited source.
"""
import re
import types
import numpy as np
import pytest

import werner.model
import werner.partition
import werner.serialize
import werner.verify
from certificate_oracle import Term, expand, from_terms
from werner.decompose import COMMUTING_CLASS, PER_STRING, _build, decompose_auto
from werner.errors import MalformedInput, WernerError
from werner.model import WernerParams, werner_dense
from werner.partition import CommutingClass, Partition, build_partition
from werner.pauli import DIGIT_LETTERS, pauli_matrices


def _source(module):
    with open(module.__file__) as fh:
        return fh.read()


MODULES = {name: getattr(werner, name) for name in ("verify", "model", "serialize", "partition")}
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


# --- probes on families (scheme_family, verify_family) ---------------------------


def _string(label):
    return pauli_matrices([[DIGIT_LETTERS.index(c) for c in label]])[0]


def _family(m, p, f, scheme, tamper=None):
    """The judgements of verify_family on the scheme's family at p, its V
    first changed in place by tamper."""
    if tamper is not None:
        gens = werner.verify._products(p, scheme)
        tamper(gens)
        m._products = lambda p, scheme: gens
    return _judgements(m.verify_family(m.scheme_family(p, scheme), WernerParams(p, f)))


def honest_classes(m):
    # at f = 1 every class factor is a rank-1 projector, so purity_ok holds
    return _family(m, 2, 1.0, COMMUTING_CLASS)


def honest_strings(m):
    return _family(m, 2, 0.1, PER_STRING)


def _honest_swap_sum(m):
    # S's checks answer as for the honest family, which passes them
    m._swap_sum = lambda x, diagonals: ()


def negated_product(m):
    # the class of IX, XI and XX at p = 2: V_3 = XX becomes -XX, so V_1 V_2
    # is no longer V_3. -XX is a Hermitian signed permutation of trace 0,
    # and S sums V (x) V = (-V) (x) (-V), so only the law's entries see it
    def negate(gens):
        (at,) = np.flatnonzero((gens == _string("XX")).all(axis=(1, 2)))
        gens[at] *= -1

    return _family(m, 2, 0.6, COMMUTING_CLASS, negate)


def repeated_product(m):
    # the class of IX, XI and XX at p = 2: V_3 = XX becomes a second IX.
    # Every entry of the class is 1, and IX has trace 0, so only the
    # patterns show that V_1 V_2 is not V_3. S changes too, so its checks
    # are stubbed
    _honest_swap_sum(m)

    def repeat(gens):
        (at,) = np.flatnonzero((gens == _string("XX")).all(axis=(1, 2)))
        gens[at] = _string("IX")

    return _family(m, 2, 0.6, COMMUTING_CLASS, repeat)


def non_real_swap_sum(m):
    # IX, ZX, IY, ZY become A, A, C, D with A = P0 X + P1 Y, C = P0 Y + P1 X,
    # D = P0 Y - P1 X: Hermitian signed permutations of units with trace 0,
    # the real part of S is unchanged, and 2 A (x) A adds the imaginary
    # 2 (P0 X (x) P1 Y + P1 Y (x) P0 X)
    p0, p1 = np.diag([1, 0]), np.diag([0, 1])
    x, y = _string("X"), _string("Y")
    a = np.kron(p0, x) + np.kron(p1, y)
    swaps = {"IX": a, "ZX": a, "IY": np.kron(p0, y) + np.kron(p1, x),
             "ZY": np.kron(p0, y) - np.kron(p1, x)}

    def mix(gens):
        for label, new in swaps.items():
            (at,) = np.flatnonzero((gens == _string(label)).all(axis=(1, 2)))
            gens[at] = new

    return _family(m, 2, 0.1, PER_STRING, mix)


def imaginary_string(m):
    # X becomes iX: a signed permutation of units with trace 0, but not
    # Hermitian, so (I + s iX)/2 is no state. S changes sign in X (x) X, so
    # its checks are stubbed to show that the Hermitian check alone reaches
    # the verdict
    _honest_swap_sum(m)

    def rotate(gens):
        (at,) = np.flatnonzero((gens == _string("X")).all(axis=(1, 2)))
        gens[at] *= 1j

    return _family(m, 1, 0.3, PER_STRING, rotate)


def traced_string(m):
    # Z becomes I: Hermitian, and I^2 = I, but its trace is 2. A Hermitian
    # family whose S has its closed form has traces 0 (tr_1 S = sum_t
    # tr(G_t) G_t = 0, so sum_t tr(G_t)^2 = 0), so S's checks are stubbed
    # to show that the trace identity alone reaches the verdict
    _honest_swap_sum(m)

    def lift(gens):
        (at,) = np.flatnonzero((gens == _string("Z")).all(axis=(1, 2)))
        gens[at] = np.eye(2)

    return _family(m, 1, 0.3, PER_STRING, lift)


def mixed_commuting_strings(m):
    # ZII, IZI, IIZ and ZZZ commute, and become (1/2) sum_b H_ab sigma_b for
    # the 4 x 4 Hadamard matrix H: diagonal, real, traceless, with the same
    # S, but (ZII + IZI + IIZ + ZZZ)/2 has entries 0 and 2 and eigenvalue 2,
    # so its factor (I - s G)/d is not positive
    labels = ["ZII", "IZI", "IIZ", "ZZZ"]
    hadamard = np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]])

    def mix(gens):
        at = [np.flatnonzero((gens == _string(x)).all(axis=(1, 2)))[0] for x in labels]
        gens[at] = np.tensordot(hadamard / 2, gens[at], axes=1)

    return _family(m, 3, 0.0, PER_STRING, mix)


def shifted_state(m):
    # every value of the state moves by eps, so at p = 1 each of the three
    # groups of the gap, of 2 entries each, carries a third of the squared
    # residual 6 eps^2. tol sits between that residual and sqrt(5) eps, the
    # residual with a group counted once, so a group dropped or counted once
    # passes the verdict
    eps, values = 1e-10, m._werner_values
    m._werner_values = lambda params: values(params) + eps
    family = m.scheme_family(1, COMMUTING_CLASS)
    return _judgements(m.verify_family(family, WernerParams(1, 0.6), 2.35 * eps))


def _closed_form_changed(m, change):
    """verify_family's judgements on an honest family whose S was held to a
    closed form with one entry changed by change(only_i, only_p, both)."""
    entries = m._eye_flip_entries

    def changed(d):
        return change(*entries(d))

    m._eye_flip_entries = changed
    family = m.scheme_family(2, PER_STRING)
    m._eye_flip_entries = entries
    return _judgements(m.verify_family(family, WernerParams(2, 0.1)))


def changed_closed_form(m):
    # the first entry where only I is 1 holds the value of the |i>|i> entries
    def change(only_i, only_p, both):
        (rows, cols), (b_rows, b_cols) = only_i, both
        moved = np.append(b_rows, rows[0]), np.append(b_cols, cols[0])
        return (rows[1:], cols[1:]), only_p, moved

    return _closed_form_changed(m, change)


def dropped_closed_form_entry(m):
    # the first entry where only I is 1 is 0: only S's comparison with 0 off
    # the closed form's entries sees it
    return _closed_form_changed(
        m, lambda only_i, only_p, both: ((only_i[0][1:], only_i[1][1:]), only_p, both)
    )


def off_pattern_closed_form(m):
    # the first entry where only P is 1, ((0, 1), (1, 0)), moves to ((0, 1),
    # (1, 1)), off every XOR pattern ((i, k), (i ^ x, k ^ x)); filed under
    # the x of its first index, it would land where the old entry was
    def change(only_i, only_p, both):
        rows, cols = only_p
        return only_i, (rows, np.append(cols[0] + 1, cols[1:])), both

    return _closed_form_changed(m, change)


def off_pattern_string(m):
    # ZI gains 1 at (0, 1) and (1, 0), off its XOR pattern x = 0: its pattern
    # part, and so every identity read on it and the Gram matrices of S, are
    # as before, but ZI is no signed permutation, and S is not as before

    def spread(gens):
        (at,) = np.flatnonzero((gens == _string("ZI")).all(axis=(1, 2)))
        gens[at, 0, 1] = gens[at, 1, 0] = 1

    return _family(m, 2, 0.1, PER_STRING, spread)


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


# --- probes on model.ppt_check ------------------------------------------------


def ppt_verdicts(m):
    # the least partial-transpose eigenvalue at p = 2 is f/4: -2 tol fails and
    # -tol/2 passes under tol = 1e-9 and 1e-6, and f = -0.5 is far below
    return tuple(
        m.ppt_check(WernerParams(2, 4 * x * tol), tol) for tol in (1e-9, 1e-6) for x in (-2, -0.5)
    ) + (m.ppt_check(WernerParams(2, -0.5)),)


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


PROBES = {"verify": [
    (honest_document, (True, True, True, False)),
    (negative_weight, (False, False, True, False)),
    (weight_sum_off, (False, False, True, False)),
    (negative_factor, (False, True, False, False)),
    (negative_factor_within_tol, (True, True, True, False)),
    (negative_factor_under_colliding_keys, (False, True, False, False)),
    (wrong_in_the_first_entry, (False, True, True, False)),
    (honest_classes, (True, True, True, True)),
    (honest_strings, (True, True, True, False)),
    (negated_product, (False, True, True, False)),
    (repeated_product, (False, True, True, False)),
    (non_real_swap_sum, (False, True, True, False)),
    (changed_closed_form, (False, True, True, False)),
    (dropped_closed_form_entry, (False, True, True, False)),
    (off_pattern_closed_form, (False, True, True, False)),
    (off_pattern_string, (False, True, True, False)),
    (imaginary_string, (False, True, True, False)),
    (traced_string, (False, True, True, False)),
    (mixed_commuting_strings, (False, True, True, False)),
    (shifted_state, (False, True, True, False)),
    (report_verdicts, ("ENTANGLED", "INVALID", "SEPARABLE")),
], "model": [
    (ppt_verdicts, (False, True, False, True, False)),
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
     "        family.problems,\n", "        (),\n"),
    ("no check that S is real", "verify",
     'problems.append("S = sum_t G_t (x) G_t is not real")', "pass"),
    ("no check of S against its closed form", "verify",
     'problems.append("S = sum_t G_t (x) G_t differs from its closed form")', "pass"),
    # the identities that prove the spectrum
    ("no check that the V are signed permutations of units", "verify",
     'problems.append("a V is not a signed permutation of 1, -1, i and -i")', "pass"),
    ("a V with entries off its pattern is taken", "verify",
     "off += np.count_nonzero(nonzero) - np.count_nonzero(diagonal.view(np.float32))", "pass"),
    ("the V's entries are not held to 1, -1, i and -i", "verify",
     "not ((abs(re) + abs(im) == 1) & (re * im == 0)).all()", "False"),
    ("no check that the G_t are Hermitian", "verify",
     'problems.append("a V is not Hermitian")', "pass"),
    ("no check of the traces", "verify",
     'problems.append("a V has a nonzero trace")', "pass"),
    ("no check of the class products", "verify",
     """problems.append("a group's V fail V_s V_g = V_(s ^ g) for a generator g")""", "pass"),
    ("the class products held by their patterns alone", "verify",
     "law = law and np.array_equal(ds[:, s - 1] * ds[groups, g - 1, partner], ds[:, (s ^ g) - 1])",
     "pass"),
    ("the class products held by their entries alone", "verify",
     "law = law and np.array_equal(xs[:, s - 1] ^ xs[:, g - 1, None], xs[:, (s ^ g) - 1])", "pass"),
    ("the class sums' multiplicities swapped", "verify",
     "[d - d // m, d // m]", "[d // m, d - d // m]"),
    ("the spectrum's top eigenvalue is m", "verify", "[-1.0, m - 1.0]", "[-1.0, float(m)]"),
    # a group {I, sigma} has no V_0 row: V_1 V_1 read as V_0 is its V_1
    ("the group law asks V_g V_g = V_0 of a per-string group", "verify",
     "[s for s in range(1, m) if s != g]", "list(range(1, m))"),
    ("S held to its closed form by its nonzero count off the XOR patterns alone", "verify",
     "off == 0 and np.array_equal(gram.real, closed))", "off == 0)"),
    ("S held to its closed form only where that is nonzero", "verify",
     "np.array_equal(gram.real, closed)",
     "np.array_equal(gram.real[closed != 0], closed[closed != 0])"),
    ("a closed-form entry off every XOR pattern is taken", "verify",
     "off += np.count_nonzero((into ^ out) // d != (into ^ out) % d)", "pass"),
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
    # the PPT verdict
    ("ppt_check ignores tol", "model",
     "_pt_pairs(params)) >= -tol", "_pt_pairs(params)) >= -1e-6"),
    ("ppt_check reads the greater PT eigenvalue", "model",
     "min(v for v, _ in _pt_pairs(params))", "max(v for v, _ in _pt_pairs(params))"),
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
