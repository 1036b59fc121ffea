"""Oracle-grade checking of separability certificates, and refinement to
pure factors.

Two verifiers, one for each kind of input; a certificate is valid exactly
when the verdict is true.

verify_decomposition checks a decomposition as a document, term by term,
and trusts nothing about how it was built: it re-derives the weight
statistics, re-diagonalizes every distinct factor of the table (distinct by
content, whatever rows hold it) with the in-house eigensolver, and
measures the Frobenius gap of the reconstruction to the target. `verify
--input` and the refinement half of `report --refine` use it.

scheme_family and verify_family check the toolkit's own certificates, and
_point is the one decision at a point of both `report`
(separability_report) and `sweep`: entangled by the PPT witness, else the
family's verdict. Both schemes are one construction (see decompose): each
factor is (I + s T)/d, with T = sum_{s != 0} (-1)^|e & s| V_s a character
sum over the non-identity products V_s of an abelian group of order m; only
the scale s and the weights depend on f. Each V_s = (-i)^t Z^z X^x is held
as its int masks (x, z, t) (Gottesman, quant-ph/9705052), and exact
identities on the masks prove every T's spectrum in O(n p), with no
eigensolver, no array and no matrix: T has eigenvalue m - 1 d/m times and
-1 d - d/m times (Bandyopadhyay et al., Algorithmica 34 (2002) 512). A
factor's eigenvalues are (1 + s lambda)/d (Golub & Van Loan, Matrix
Computations, section 8.5), and the reconstruction is w/d^2 (N I + c S),
with S = sum_t G_t (x) G_t over the terms' T proven equal to its closed
form, never formed. A point costs O(1), in Python floats: `sweep` needs no
numpy, which only the functions that build arrays import.

refine_to_pure spectrally splits each factor so the certificate uses only
rank-1 factors, at the cost of more terms; the same Jacobi pass gives its
input's verdict and the split.
"""
from __future__ import annotations

from functools import cache, reduce
from itertools import product
from math import sqrt
from operator import add
from typing import List, NamedTuple, Optional, Tuple

from .decompose import (
    _CHUNK_BYTES,
    SCHEMES,
    Decomposition,
    _products,
    auto_scheme,
    decompose_auto,
    reconstruct,
    scheme_scalars,
)
from .errors import DimensionMismatch, VerificationFailure
from .linalg import hermitian_eigensystem
from .model import (
    WernerParams,
    _werner_values,
    invariance_residual,
    ppt_check,
    pt_spectrum_closed_form,
    random_unitary,
    werner_dense,
)

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


class VerificationReport(NamedTuple):
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


def _eigensystems(dec: Decomposition, compute_vectors: bool = False):
    """(rows, values, vectors): each factor row's index among dec's distinct
    factors, and the ascending eigenvalues (and vectors, if asked) of each,
    in stack order. Rows are one factor when their bytes are: a row is keyed
    by its bytes' hash, and a hash that hits a different matrix falls back
    to the bytes themselves. The distinct factors go to the eigensolver in stacks
    of at most _CHUNK_BYTES, of one nonzero pattern each: 33 calls for a
    p = 5 certificate's 1,056 factors, whose stacks rotate at one set of
    pivots (2,046 per-string factors: 0.13 s, against 0.30 s in first-seen
    stacks). A matrix's results do not depend on its stack.
    """
    import numpy as np
    keys, distinct, rows = {}, [], []
    for mat in dec.factors:
        data = mat.tobytes()
        k = keys.setdefault(hash(data), len(distinct))
        if k < len(distinct) and distinct[k].tobytes() != data:  # a hash collision
            k = keys.setdefault(data, len(distinct))
        if k == len(distinct):
            distinct.append(mat)
        rows.append(k)
    runs = {}  # nonzero pattern -> its distinct factors
    for k, mat in enumerate(distinct):
        runs.setdefault((mat != 0).tobytes(), []).append(k)
    n, at = len(distinct[0]), 0
    vals = np.empty((len(distinct), n))
    vecs = np.empty((len(distinct), n, n), dtype=complex) if compute_vectors else None
    place = np.empty(len(distinct), dtype=int)  # each distinct factor's stack order
    step = max(1, _CHUNK_BYTES // (16 * n * n))
    for run in runs.values():
        for start in range(0, len(run), step):
            chunk = run[start : start + step]
            place[chunk], stop = range(at, at + len(chunk)), at + len(chunk)
            vals[at:stop], found = hermitian_eigensystem(
                np.array([distinct[k] for k in chunk]), compute_vectors=compute_vectors
            )
            if compute_vectors:
                vecs[at:stop] = found
            at = stop
    return place[rows], vals, vecs


def _report(min_weight, weight_sum, min_component_eigenvalue, max_purity_deviation, residual, tol,
            problems=()) -> VerificationReport:
    """The verdict on a certificate from its least weight, its weight sum and
    its measured factor spectra and residual; problems are failed checks of
    its own."""
    weight_sum_error = abs(weight_sum - 1.0)
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


def verify_decomposition(target, dec: Decomposition, tol: float = 1e-9) -> VerificationReport:
    """Convexity, factor positivity, and exact reconstruction, all re-derived."""
    return _verify(target, dec, tol)[0]


def _verify(target, dec: Decomposition, tol: float, compute_vectors: bool = False):
    """(verify_decomposition's report, _eigensystems(dec, compute_vectors)),
    from one Jacobi pass: the vectors never feed the values' bits."""
    import numpy as np
    target = np.asarray(target, dtype=complex)
    if not dec.n_terms:
        raise ValueError("decomposition has no terms")
    dim = len(dec.factors[0]) ** 2
    if target.shape != (dim, dim):
        raise DimensionMismatch(f"target shape {target.shape} does not match term dimension {dim}")

    found = _eigensystems(dec, compute_vectors)
    vals = found[1]
    least = min(vals[:, 0].tolist())  # the first in stack order: a zero keeps the stacks' sign
    deviation = float(np.abs(np.sum(vals * vals, axis=1) - 1.0).max())  # tr A^2 against 1
    if not compute_vectors:
        found = vals = None  # the reconstruction sets the peak: hold no values through it
    gap = reconstruct(dec)
    # the Frobenius residual, taken in the reconstruction's own buffer: a
    # separate difference array would set the peak memory at p = 5
    gap -= target
    residual = float(np.sqrt(np.sum(np.abs(gap) ** 2)))
    return _report(float(dec.weights.min()), float(dec.weights.sum()), least, deviation, residual, tol), found


class Family(NamedTuple):
    """What the certificates of one scheme at one p share for every f.

    The certificate at f has, for each group and each character e of it,
    the term (w, (I + s T_e)/d, (I + s T_e)/d), or (w, (I + s T_e)/d,
    (I + s T_(e ^ 1))/d) when sign < 0 (groups of order 2, T_(e ^ 1) =
    -T_e), with (s, w, sign) from scheme_scalars.
    """

    scheme: str
    p: int
    m: int  # the order of each group
    n_generators: int  # the count of V: groups (m - 1)
    spectrum: Tuple[float, ...]  # (d,): the eigenvalues of every T, ascending
    problems: Tuple[str, ...]  # the exact identities the V and S fail

    @property
    def n_terms(self) -> int:
        return self.n_generators // (self.m - 1) * self.m


def _group_law(x, z, t, m: int) -> bool:
    """Whether each group's rows V_1 .. V_(m - 1) satisfy V_s V_g = V_(s ^ g)
    for each generator g = 2^j and s != g: x_s ^ x_g = x_(s ^ g), z likewise,
    and t_(s ^ g) = t_s + t_g + 2 |x_s & z_g| (mod 4)."""
    groups = list(zip(*[iter(zip(x, z, t))] * (m - 1)))  # group k's row s - 1 is its V_s
    for g in (1 << j for j in range(m.bit_length() - 1)):
        pairs = [(s - 1, (s ^ g) - 1) for s in range(1, m) if s != g]
        for group in groups:
            xg, zg, tg = group[g - 1]
            if not all(
                xs ^ xg == xu
                and zs ^ zg == zu and (ts + tg + 2 * (xs & zg).bit_count() - tu) % 4 == 0
                for (xs, zs, ts), (xu, zu, tu) in ((group[v], group[u]) for v, u in pairs)
            ):
                return False
    return True


def _swap_sum(p: int, x, z, hermitian: bool):
    """The exact identities that fail, with S = sum_t G_t (x) G_t over the
    terms' T_e proven equal to its closed form m (d SWAP - I), never formed.
    A group's T_e = sum_{s != 0} H[e, s] V_s for the Sylvester matrix H[e,
    s] = (-1)^|e & s|, and H^T H = m I, so S = m sum_V V (x) V. A Hermitian V
    is +-P for a Pauli string P, and the P (x) P over the 4^p - 1 nontrivial
    strings sum to d SWAP - I: S is held to every V Hermitian and the (x, z)
    covering those strings once each."""
    covered = sorted(zip(x, z)) == list(product(range(1 << p), repeat=2))[1:]
    return () if hermitian and covered else ("S = sum_t G_t (x) G_t differs from its closed form",)


def scheme_family(p: int, scheme: str) -> Family:
    """The scheme's family at p, proven from the masks (x, z, t) of its V =
    (-i)^t Z^z X^x in O(n p): a signed permutation of units by its form, so
    S is real. Each V must be Hermitian, t = |x & z| (mod 2), so an
    involution, and of trace 0, (x, z) != 0, and each group's V must follow
    _group_law. With V_0 = I they then represent Z_2^k by commuting
    involutions, so (I + T_e)/m = sum_s (-1)^|e & s| V_s / m is a projector
    of trace d/m: T_e has eigenvalue m - 1 d/m times and -1 d - d/m times
    (Bandyopadhyay et al., Algorithmica 34 (2002) 512)."""
    x, z, t = _products(p, scheme)
    d, m = 1 << p, SCHEMES[scheme].order(p)
    hermitian = all((u - (a & c).bit_count()) % 2 == 0 for a, c, u in zip(x, z, t))
    problems = [] if hermitian else ["a V is not Hermitian"]
    if not all(a or c for a, c in zip(x, z)):
        problems.append("a V has a nonzero trace")
    if not _group_law(x, z, t, m):
        problems.append("a group's V fail V_s V_g = V_(s ^ g) for a generator g")
    problems += _swap_sum(p, x, z, hermitian)
    spectrum = (-1.0,) * (d - d // m) + (m - 1.0,) * (d // m)
    return Family(scheme, p, m, len(x), spectrum, tuple(problems))


def _pairwise(values) -> float:
    """numpy's pairwise sum of a float64 vector (pairwise_sum_DOUBLE): under
    8 values a loop from 0.0; up to 128, eight accumulators over strided
    runs, added pairwise, then the rest in turn; above that, the sums of two
    halves, split at a multiple of 8."""
    n = len(values)
    if n < 8:
        return reduce(add, values, 0.0)
    if n <= 128:
        stop = n - n % 8
        r = [reduce(add, values[j:stop:8]) for j in range(8)]
        return reduce(add, values[stop:], ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))
    half = n // 2 - n // 2 % 8
    return _pairwise(values[:half]) + _pairwise(values[half:])


@cache
def _weight_sum(weight: float, n_terms: int) -> float:
    return _pairwise([weight] * n_terms)  # once per family and weight


def verify_family(
    family: Family, params: WernerParams, tol: float = 1e-9
) -> VerificationReport:
    """verify_decomposition's checks on the family's certificate for the
    Werner state at params.f, in O(1) from the family's f-independent data.

    The weights are the certificate's n_terms copies of w. The factor
    eigenvalues are (1 + s lambda)/d over the family's spectrum; a second
    party's (I - s T)/d = (I + s T_(e ^ 1))/d is another term's first. The
    terms linear in s cancel (sum_e T_e = 0), so the reconstruction is
    w/d^2 (n_terms I + c S) with c = sign * s^2. The proven S, m (d SWAP -
    I), and the state are one value on each of model._eye_flip_entries'
    three groups, the first and third on the diagonal, and 0 elsewhere; so
    is the float64 gap, whose values take the dense gap's operations in
    order, in Python floats; the two sums are numpy's (_pairwise).
    """
    d = params.d
    if family.p != params.p:
        raise DimensionMismatch(f"family of p = {family.p} does not match p = {params.p}")
    scale, weight, sign = scheme_scalars(params, family.scheme)
    n_terms, a, c, w = family.n_terms, family.m, sign * scale * scale, weight / (d * d)
    vals = [(1.0 + scale * v) / d for v in family.spectrum]
    rho = _werner_values(params)
    only_i = (-a * c + n_terms) * w - rho[0]
    only_p = a * d * c * w - rho[1]
    both = (a * (d - 1) * c + n_terms) * w - rho[2]
    off = d * d - d  # the size of each off-|i>|i> group
    deviation = abs(_pairwise([v * v for v in vals]) - 1.0)
    residual = sqrt(off * (only_i * only_i) + off * (only_p * only_p) + d * (both * both))
    return _report(weight, _weight_sum(weight, n_terms), min(vals), deviation, residual, tol, family.problems)


def refine_to_pure(dec: Decomposition, tol: float = 1e-9) -> Decomposition:
    """Split every factor into its eigenpairs above the spectral floor: term
    (w, A, B) becomes (w a_j b_k, |a_j><a_j|, |b_k><b_k|), labelled
    label:a{j}b{k}, so the certificate has rank-1 factors and more terms.
    The input must verify against its own parameters first; its verdict and
    its split come from one Jacobi pass. Nothing checks the output's purity:
    each projector has rank 1 by construction, and only `report --refine`
    re-verifies the refined certificate."""
    import numpy as np
    report, (rows, vals, vecs) = _verify(werner_dense(dec.params), dec, tol, compute_vectors=True)
    if not report.verdict:
        raise VerificationFailure(
            "refusing to refine a decomposition that fails verification: "
            + "; ".join(report.diagnostics),
            report=report,
        )

    keep = vals > _EIGENVALUE_FLOOR  # [distinct factor, eigenpair]
    v = vecs.transpose(0, 2, 1)[keep]  # the kept eigenvectors, factor by factor
    v /= np.sqrt(np.sum(np.abs(v) ** 2, axis=1))[:, None]
    count, values = keep.sum(axis=1), vals[keep]
    first = np.cumsum(count) - count  # each distinct factor's first projector
    a, b = rows[dec.pairs].T
    size = count[a] * count[b]  # the refined terms of each term
    term = np.repeat(np.arange(dec.n_terms), size)
    j, k = np.divmod(np.arange(len(term)) - np.repeat(np.cumsum(size) - size, size), count[b][term])
    pairs = np.stack((first[a][term] + j, first[b][term] + k), axis=1)
    spans = zip(dec.labels, count[a].tolist(), count[b].tolist())
    labels = tuple(f"{t}:a{j}b{k}" for t, n_a, n_b in spans for j in range(n_a) for k in range(n_b))
    projectors = v[:, :, None] * v.conj()[:, None, :]
    weights = dec.weights[term] * values[pairs[:, 0]] * values[pairs[:, 1]]
    return Decomposition(dec.params, dec.scheme, dec.scale, projectors, pairs, weights, labels)


class RefinementSummary(NamedTuple):
    n_terms: int
    max_purity_deviation: float
    reconstruction_residual: float


class SeparabilityReport(NamedTuple):
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


def _point(params: WernerParams, tol: float, families: dict):
    """report's and sweep's one decision at params: (verdict, ppt, family,
    its check), the last two None where the point is entangled: off the PPT
    band, or at f < 0 in it, where f/d is an exact witness. families maps a
    scheme to its family at params.p, and one missing there is built into it."""
    ppt = ppt_check(params, tol)
    if not (ppt and params.f >= 0):
        return "ENTANGLED", ppt, None, None
    scheme = auto_scheme(params)
    if scheme not in families:
        families[scheme] = scheme_family(params.p, scheme)
    family = families[scheme]
    ver = verify_family(family, params, tol)
    return ("SEPARABLE" if ver.verdict else "INVALID"), ppt, family, ver


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
    pt_min = float(pt_spectrum_closed_form(params).min())
    # the probe first, so that its state is freed before the family is built
    inv_res = invariance_residual(params, random_unitary(params.d, seed))
    verdict, ppt, family, ver = _point(params, tol, {})
    refinement = None
    if refine and verdict == "SEPARABLE":
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
    entangled = family is None
    report = SeparabilityReport(
        p=params.p,
        f=params.f,
        verdict=verdict,
        ppt=ppt,
        min_pt_eigenvalue=pt_min,
        witness=pt_min if entangled else None,
        scheme=None if entangled else family.scheme,
        scale=None if entangled else scheme_scalars(params, family.scheme)[0],
        n_terms=0 if entangled else family.n_terms,
        verification=ver,
        invariance_residual=inv_res,
        seed=seed,
    )
    return report, refinement
