"""Oracle-grade checking of separability certificates, and refinement to
pure factors.

Two verifiers, one for each kind of input; a certificate is valid exactly
when the verdict is true.

verify_decomposition checks a decomposition as a document, term by term,
and trusts nothing about how it was built: it re-derives the weight
statistics, re-diagonalizes every distinct factor with the in-house
eigensolver, and measures the Frobenius gap of the reconstruction to the
target. `verify --input`, `refine` and the refinement half of `report
--refine` use it. At p = 5 its Jacobi runs on a worker thread while this
thread reconstructs.

scheme_family and verify_family check the toolkit's own certificates, as
`report` (separability_report) and `sweep` build them. Each factor is
(I + s G_t)/d, for per_string also (I - s G_t)/d, with G_t a class sum or a
Pauli string; only the scale s and the weights depend on f. Exact integer
identities prove every G_t's spectrum with no eigensolver: a class sum T
has T^2 = (d - 2) T + (d - 1) I and trace 0, so eigenvalue d - 1 once and
-1 d - 1 times (Bandyopadhyay et al., Algorithmica 34 (2002) 512); a string
has sigma^2 = I and trace 0, so +-1 d/2 times each. A factor's eigenvalues
are (1 + s lambda)/d (Golub & Van Loan, Matrix Computations, section 8.5),
and the reconstruction is w/d^2 (N I + c S), with S = sum_t G_t (x) G_t
proven equal to its closed form in O(n d^2), never formed. A point costs O(1).

refine_to_pure spectrally splits each mixed factor so the certificate uses
only rank-1 factors, at the cost of more terms.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from math import sqrt
from typing import List, Optional, Tuple

import numpy as np

from .decompose import (
    _CHUNK_BYTES,
    COMMUTING_CLASS,
    PER_STRING,
    Decomposition,
    ProductTerm,
    _class_sum_stack,
    auto_scheme,
    decompose_auto,
    reconstruct,
    scheme_scalars,
)
from .errors import DimensionMismatch, VerificationFailure
from .linalg import hermitian_eigensystem
from .model import (
    WernerParams,
    _eye_flip_entries,
    _werner_values,
    invariance_residual,
    ppt_check,
    pt_spectrum_closed_form,
    random_unitary,
    werner_dense,
)
from .pauli import all_strings, pauli_matrices

__all__ = [
    "Family",
    "RefinementSummary",
    "SeparabilityReport",
    "VerificationReport",
    "refine_to_pure",
    "scheme_family",
    "separability_report",
    "verify_decomposition",
    "verify_family",
]

_WEIGHT_TOL = 1e-12
_EIGENVALUE_FLOOR = 1e-12  # refinement discards spectral weight below this


@dataclass(frozen=True)
class VerificationReport:
    convex_ok: bool
    min_weight: float
    weight_sum_error: float
    positivity_ok: bool
    min_component_eigenvalue: float
    reconstruction_residual: float
    purity_ok: bool
    max_purity_deviation: float
    verdict: bool
    diagnostics: Tuple[str, ...]


def _content_key(mat):
    """A compact key of mat's content: its dtype, shape and bytes' hash."""
    return mat.dtype.str, mat.shape, hash(mat.tobytes())


def _distinct_factors(dec: Decomposition):
    """(groups, keys): the distinct factors of dec by shape, then by key, in
    first-seen order, and the key of each factor object by id.

    Each object is keyed once; dec keeps every one alive, so no id is
    reused. A compact key that hits a different matrix falls back to the
    exact (dtype, shape, bytes) key, so equal keys still mean equal bytes.
    """
    groups, keys = {}, {}
    for term in dec.terms:
        for mat in (term.state_a, term.state_b):
            if id(mat) in keys:
                continue
            by_key = groups.setdefault(mat.shape, {})
            key = _content_key(mat)
            kept = by_key.setdefault(key, mat)
            if kept is not mat and kept.tobytes() != mat.tobytes():
                key = mat.dtype.str, mat.shape, mat.tobytes()
                by_key.setdefault(key, mat)
            keys[id(mat)] = key
    return groups, keys


def _eigensystems(dec: Decomposition, compute_vectors: bool = False):
    """Yield (key, values, vectors) once for each distinct factor of dec.

    The distinct factors go to the eigensolver in stacks of at most
    _CHUNK_BYTES, of one shape and one nonzero pattern each: 33 calls for a
    p = 5 certificate's 1,056 factors, whose stacks rotate at one set of
    pivots (2,046 per-string factors: 0.13 s, against 0.30 s in first-seen
    stacks). A matrix's results do not depend on its stack.
    """
    groups, _ = _distinct_factors(dec)
    runs = {}
    for by_key in groups.values():
        for key, mat in by_key.items():
            runs.setdefault((mat.shape, (mat != 0).tobytes()), []).append((key, mat))
    for run in runs.values():
        step = max(1, _CHUNK_BYTES // (16 * run[0][1].size))
        for start in range(0, len(run), step):
            chunk = run[start : start + step]
            vals, vecs = hermitian_eigensystem(
                np.array([mat for _, mat in chunk], dtype=complex),
                compute_vectors=compute_vectors,
            )
            for k, (key, _) in enumerate(chunk):
                yield key, vals[k], None if vecs is None else vecs[k]


def _component_stats(dec: Decomposition):
    """Min eigenvalue and max purity deviation over all distinct factors."""
    min_eig = np.inf
    max_purity_dev = 0.0
    for _, vals, _ in _eigensystems(dec):
        purity = float(np.sum(vals * vals))  # trace of the square
        min_eig = min(min_eig, float(vals[0]))
        max_purity_dev = max(max_purity_dev, abs(purity - 1.0))
    return float(min_eig), float(max_purity_dev)


def _overlapped(first, second, overlap: bool):
    """(first(), second()), called in that order, or with first on a worker
    thread while this thread runs second when overlap is true.

    Either way an error of first wins over one of second, as in the inline
    order, and the worker is joined before anything is returned or raised.
    """
    if not overlap:
        return first(), second()
    outcome = {}

    def work():
        try:
            outcome["value"] = first()
        except BaseException as exc:  # handed to this thread, which raises it
            outcome["error"] = exc

    worker = threading.Thread(target=work)
    worker.start()
    try:
        later = second()
    finally:
        worker.join()
        if "error" in outcome:
            raise outcome["error"]
    return outcome["value"], later


def _report(
    weights, min_component_eigenvalue, max_purity_deviation, residual, tol, problems=()
) -> VerificationReport:
    """The verdict on a certificate from its weights and its measured
    factor spectra and residual; problems are failed checks of its own."""
    min_weight = float(weights.min())
    weight_sum_error = abs(float(weights.sum()) - 1.0)
    convex_ok = min_weight >= -_WEIGHT_TOL and weight_sum_error <= _WEIGHT_TOL
    positivity_ok = min_component_eigenvalue >= -tol
    recon_ok = residual <= tol
    diagnostics: List[str] = []
    if not convex_ok:
        diagnostics.append(
            f"weights are not convex: min={min_weight:.3e}, "
            f"sum error={weight_sum_error:.3e}"
        )
    if not positivity_ok:
        diagnostics.append(
            f"a factor has eigenvalue {min_component_eigenvalue:.6e} < -{tol:g}"
        )
    if not recon_ok:
        diagnostics.append(f"reconstruction residual {residual:.6e} > {tol:g}")
    diagnostics.extend(problems)
    return VerificationReport(
        convex_ok=convex_ok,
        min_weight=min_weight,
        weight_sum_error=weight_sum_error,
        positivity_ok=positivity_ok,
        min_component_eigenvalue=min_component_eigenvalue,
        reconstruction_residual=residual,
        purity_ok=max_purity_deviation <= 1e-9,
        max_purity_deviation=max_purity_deviation,
        verdict=convex_ok and positivity_ok and recon_ok and not problems,
        diagnostics=tuple(diagnostics),
    )


def verify_decomposition(
    target, dec: Decomposition, tol: float = 1e-9
) -> VerificationReport:
    """Convexity, factor positivity, and exact reconstruction, all re-derived."""
    target = np.asarray(target, dtype=complex)
    if not dec.terms:
        raise ValueError("decomposition has no terms")
    dim = dec.terms[0].state_a.shape[0] * dec.terms[0].state_b.shape[0]
    if target.shape != (dim, dim):
        raise DimensionMismatch(
            f"target shape {target.shape} does not match term dimension {dim}"
        )

    # at p = 5, where reconstruct's chunks are accumulator-sized, its GEMMs
    # leave the GIL free for the GIL-bound Jacobi stage on a worker. Jacobi
    # makes only small allocations, so the big buffers stay in this thread's
    # malloc arena. At p <= 4 the reconstruction takes milliseconds, so
    # there is little to hide, and the stages run inline in their order.
    (min_component_eigenvalue, max_purity_deviation), gap = _overlapped(
        lambda: _component_stats(dec),
        lambda: reconstruct(dec),
        target.nbytes // 4 > _CHUNK_BYTES,
    )
    # the Frobenius residual, taken in the reconstruction's own buffer: a
    # separate difference array would set the peak memory at p = 5
    gap -= target
    residual = float(np.sqrt(np.sum(np.abs(gap) ** 2)))
    return _report(
        np.array(dec.weights), min_component_eigenvalue, max_purity_deviation, residual, tol
    )


@dataclass(frozen=True, eq=False)  # holds an array
class Family:
    """What the certificates of one scheme at one p share for every f.

    The certificate at f has, for each G_t, the term (w, (I + s G_t)/d,
    (I + s G_t)/d) under commuting_class, and the two terms
    (w, (I + s G_t)/d, (I + sign s G_t)/d) and (w, (I - s G_t)/d,
    (I - sign s G_t)/d) under per_string, with (s, w, sign) from
    scheme_scalars.
    """

    scheme: str
    p: int
    n_generators: int
    spectrum: np.ndarray  # (d,): the eigenvalues of every G_t, ascending
    problems: Tuple[str, ...]  # the exact identities the G_t and S fail

    @property
    def signs(self) -> int:
        return 2 if self.scheme == PER_STRING else 1

    @property
    def n_terms(self) -> int:
        return self.signs * self.n_generators


def _generators(p: int, scheme: str) -> np.ndarray:
    """The (n, d, d) complex64 stack of G_t, built for this call: the class
    sums, class by class, or the nontrivial strings in term order."""
    if scheme == COMMUTING_CLASS:
        return _class_sum_stack(p)
    if scheme == PER_STRING:
        return pauli_matrices(list(all_strings(p))[1:], np.complex64)
    raise ValueError(f"unknown scheme {scheme!r}")


def _chunks(stack):
    """Consecutive slices of stack of at most _CHUNK_BYTES (one row at least),
    so that a check over the stack makes no stack-sized temporary."""
    step = max(1, _CHUNK_BYTES // stack[0].nbytes)
    return (stack[k : k + step] for k in range(0, len(stack), step))


def _spectrum(gens, scheme: str):
    """(spectrum, problems): the eigenvalues every G_t has, ascending, and
    which identities fail: Hermitian, trace 0, G_t^2 = a G_t + b I, whose
    roots the trace counts, and Gaussian integers with 2 n max|Re, Im|^2 <
    2^24, under which the complex64 products here and in _swap_sum are exact."""
    n, d, _ = gens.shape
    if scheme == COMMUTING_CLASS:
        (a, b), spectrum = (d - 2, d - 1), np.repeat([-1.0, d - 1.0], [d - 1, 1])
    else:
        (a, b), spectrum = (0, 1), np.repeat([-1.0, 1.0], d // 2)
    hermitian = traceless = squares = exact = True
    for g in _chunks(gens):
        hermitian = hermitian and np.array_equal(g, g.conj().swapaxes(1, 2))
        traceless = traceless and not np.trace(g, axis1=1, axis2=2).any()
        square = g * np.complex64(a)
        square[:, range(d), range(d)] += b
        squares = squares and np.array_equal(g @ g, square)
        parts = np.abs(g.view(np.float32))  # |Re| and |Im|
        exact = exact and n * parts.max() ** 2 < 2**23 and np.array_equal(np.rint(parts), parts)
    problems = []
    if not hermitian:
        problems.append("a G_t is not Hermitian")
    if not traceless:
        problems.append("a G_t has a nonzero trace")
    if not squares:
        problems.append(f"a G_t fails G_t^2 = {a} G_t + {b} I")
    if not exact:
        problems.append("the G_t are not Gaussian integers small enough for an exact S")
    return spectrum, tuple(problems)


def _swap_sum(gens, scheme: str):
    """The exact identities that fail, with S = sum_t G_t (x) G_t proven
    equal to its closed form in O(n d^2), never formed: d SWAP - I for the
    strings, d (d SWAP - I) for the class sums, whose stack must sum to 0.
    A class's d sums T_e sign its Pauli strings (Bandyopadhyay et al.,
    Algorithmica 34 (2002) 512): its fold V = H T by the Sylvester matrix
    H[s, e] = (-1)^|s & e| is d times each, exact as |V| <= d max|Re, Im|,
    and as H^T H = d I, d S = sum_V V (x) V. A string is its own V. Each V
    must lie on one XOR pattern, V[r, r ^ x] = D[r] with x read at its first
    nonzero entry, so c S (c = d or 1) is the exact complex128 Gram matrix
    sum_{V: x_V = x} D D^T at ((i, k), (i ^ x, k ^ x)) and 0 elsewhere. It is
    compared with the closed form, whose entries must lie on XOR patterns.
    """
    n, d, _ = gens.shape
    c = d if scheme == COMMUTING_CLASS else 1
    problems = []
    if scheme == COMMUTING_CLASS and gens.reshape(n, -1).sum(axis=0).any():
        problems.append("the class sums do not sum to 0")
    hadamard = np.array([[(-1) ** (s & e).bit_count() for e in range(c)] for s in range(c)], np.float32)
    rows, off, found = np.arange(d), 0, []  # off: entries off their XOR pattern
    for chunk in _chunks(gens.view(np.float32).reshape(n // c, c, 2 * d * d)):
        v = (hadamard @ chunk if c > 1 else chunk).view(np.complex64).reshape(-1, d, d)
        nonzero = v.reshape(len(v), -1).view(np.float32) != 0  # real and imaginary parts
        x = np.bitwise_xor(*np.divmod(np.argmax(nonzero, axis=1) // 2, d))
        diagonal = v[np.arange(len(v))[:, None], rows, rows ^ x[:, None]]
        off += np.count_nonzero(nonzero) - np.count_nonzero(diagonal.view(np.float32))
        found.append((x, diagonal))
    patterns, diagonals = (np.concatenate(parts) for parts in zip(*found))
    gram = np.empty((d, d, d), dtype=complex)
    for x in range(d):
        on = diagonals[patterns == x].astype(complex)
        gram[x] = on.T @ on
    if gram.imag.any():
        problems.append("S = sum_t G_t (x) G_t is not real")
    closed = np.zeros((d, d, d))  # at [x, i, k], c S at ((i, k), (i ^ x, k ^ x))
    for (into, out), value in zip(_eye_flip_entries(d), (-c, c * d, c * (d - 1))):
        off += np.count_nonzero((into ^ out) // d != (into ^ out) % d)
        closed[(into ^ out) // d, into // d, into % d] = c * value
    if not (off == 0 and np.array_equal(gram.real, closed)):
        problems.append("S = sum_t G_t (x) G_t differs from its closed form")
    return tuple(problems)


def scheme_family(p: int, scheme: str) -> Family:
    """The scheme's family at p, proven from its G_t by exact identities."""
    gens = _generators(p, scheme)
    spectrum, problems = _spectrum(gens, scheme)
    return Family(scheme, p, len(gens), spectrum, problems + _swap_sum(gens, scheme))


def verify_family(
    family: Family, params: WernerParams, tol: float = 1e-9
) -> VerificationReport:
    """verify_decomposition's checks on the family's certificate for the
    Werner state at params.f, in O(1) from the family's f-independent data.

    The weights are the certificate's n_terms copies of w. The factor
    eigenvalues are (1 + s lambda)/d over the family's spectrum; for
    per_string that spectrum is symmetric, so (1 - s lambda)/d gives the
    same values. The terms linear in s cancel, so the reconstruction is
    w/d^2 (n_terms I + c S) with c = signs * sign * s^2. The proven S, a
    (d SWAP - I), and the state are one value on each of _eye_flip_entries'
    three groups, the first and third on the diagonal, and 0 elsewhere; so is
    the float64 gap, whose values take the dense gap's operations in order.
    """
    d = params.d
    if family.p != params.p:
        raise DimensionMismatch(f"family of p = {family.p} does not match p = {params.p}")
    scale, weight, sign = scheme_scalars(params, family.scheme)
    n_terms = family.n_terms
    vals = (1.0 + scale * family.spectrum) / d
    c = family.signs * sign * scale * scale
    a = d if family.scheme == COMMUTING_CLASS else 1
    w = weight / (d * d)
    rho = _werner_values(params).real
    only_i = (-a * c + n_terms) * w - rho[0]
    only_p = a * d * c * w - rho[1]
    both = (a * (d - 1) * c + n_terms) * w - rho[2]
    off = d * d - d  # the size of each off-|i>|i> group
    return _report(
        np.full(n_terms, weight),
        float(vals.min()),
        abs(float(np.sum(vals * vals)) - 1.0),
        sqrt(off * (only_i * only_i) + off * (only_p * only_p) + d * (both * both)),
        tol,
        family.problems,
    )


def refine_to_pure(dec: Decomposition, tol: float = 1e-9) -> Decomposition:
    """Split every mixed factor into its eigenpairs; purity is informational
    on input and mandatory on output.

    Term (w, A, B) becomes the family (w a_j b_k, |a_j><a_j|, |b_k><b_k|)
    over eigenpairs above the spectral floor. Requires the input to verify
    against its own parameters first.
    """
    report = verify_decomposition(werner_dense(dec.params), dec, tol)
    if not report.verdict:
        raise VerificationFailure(
            "refusing to refine a decomposition that fails verification: "
            + "; ".join(report.diagnostics),
            report=report,
        )

    _, keys = _distinct_factors(dec)
    eig_cache = {}
    for key, vals, vecs in _eigensystems(dec, compute_vectors=True):
        keep = []
        for k in range(len(vals)):
            if vals[k] > _EIGENVALUE_FLOOR:
                v = vecs[:, k]
                v = v / np.sqrt(np.sum(np.abs(v) ** 2))
                keep.append((float(vals[k]), np.outer(v, v.conj())))
        eig_cache[key] = keep

    terms: List[ProductTerm] = []
    for term in dec.terms:
        pairs_b = eig_cache[keys[id(term.state_b)]]
        for j, (alpha, proj_a) in enumerate(eig_cache[keys[id(term.state_a)]]):
            for k, (beta, proj_b) in enumerate(pairs_b):
                terms.append(
                    ProductTerm(
                        term.weight * alpha * beta,
                        proj_a,
                        proj_b,
                        f"{term.label}:a{j}b{k}",
                    )
                )
    return Decomposition(dec.params, dec.scheme, dec.scale, tuple(terms))


@dataclass(frozen=True)
class RefinementSummary:
    n_terms: int
    max_purity_deviation: float
    reconstruction_residual: float


@dataclass(frozen=True)
class SeparabilityReport:
    p: int
    f: float
    verdict: str  # SEPARABLE, ENTANGLED, or INVALID
    ppt: bool
    min_pt_eigenvalue: float
    witness: Optional[float]  # the negative PT eigenvalue, when entangled
    scheme: Optional[str]
    scale: Optional[float]
    n_terms: int
    verification: Optional[VerificationReport]
    invariance_residual: float
    seed: int


def separability_report(
    params: WernerParams,
    seed: int = 42,
    tol: float = 1e-9,
    refine: bool = False,
):
    """End-to-end pipeline: PPT test, construction, verification, refinement.

    Returns (report, refinement) where refinement is None unless requested
    and the state is separable; a refinement that fails verification at tol
    raises VerificationFailure.
    """
    params.require_physical()
    pt_min = pt_spectrum_closed_form(params).min()
    ppt = ppt_check(params, tol)
    # taken first, so that the probe's state is freed before S is formed
    inv_res = invariance_residual(params, random_unitary(params.d, seed))
    if not (ppt and params.f >= 0):
        report = SeparabilityReport(
            p=params.p,
            f=params.f,
            verdict="ENTANGLED",
            ppt=ppt,
            min_pt_eigenvalue=float(pt_min),
            witness=float(pt_min),
            scheme=None,
            scale=None,
            n_terms=0,
            verification=None,
            invariance_residual=inv_res,
            seed=seed,
        )
        return report, None

    family = scheme_family(params.p, auto_scheme(params))
    ver = verify_family(family, params, tol)
    verdict = "SEPARABLE" if ver.verdict else "INVALID"
    refinement = None
    if refine and ver.verdict:
        refined = refine_to_pure(decompose_auto(params), tol)
        refined_ver = verify_decomposition(werner_dense(params), refined, tol)
        if not refined_ver.verdict:
            raise VerificationFailure(
                "the refined certificate fails verification: "
                + "; ".join(refined_ver.diagnostics),
                report=refined_ver,
            )
        refinement = RefinementSummary(
            n_terms=refined.n_terms,
            max_purity_deviation=refined_ver.max_purity_deviation,
            reconstruction_residual=refined_ver.reconstruction_residual,
        )
    report = SeparabilityReport(
        p=params.p,
        f=params.f,
        verdict=verdict,
        ppt=True,
        min_pt_eigenvalue=float(pt_min),
        witness=None,
        scheme=family.scheme,
        scale=scheme_scalars(params, family.scheme)[0],
        n_terms=family.n_terms,
        verification=ver,
        invariance_residual=inv_res,
        seed=seed,
    )
    return report, refinement
