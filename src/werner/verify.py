"""Oracle-grade checking of claimed decompositions, and refinement to pure factors.

verify_decomposition trusts nothing about how a decomposition was built: it
re-derives weight statistics, re-diagonalizes every local factor with the
in-house eigensolver, and measures the Frobenius gap to the target. A
decomposition is a separability certificate exactly when the verdict is
true.

refine_to_pure spectrally splits each mixed factor so the certificate uses
only rank-1 factors, at the cost of more terms.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .decompose import (
    _CHUNK_BYTES,
    Decomposition,
    ProductTerm,
    decompose_auto,
    reconstruct,
)
from .errors import DimensionMismatch, VerificationFailure
from .linalg import hermitian_eigensystem
from .model import (
    WernerParams,
    invariance_residual,
    ppt_check,
    pt_spectrum_closed_form,
    random_unitary,
    werner_dense,
)

__all__ = [
    "RefinementSummary",
    "SeparabilityReport",
    "VerificationReport",
    "certify_ppt_point",
    "refine_to_pure",
    "separability_report",
    "verify_decomposition",
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
    """Equal keys mean equal bytes, so one Jacobi solve serves every copy."""
    return mat.dtype.str, mat.shape, mat.tobytes()


def _eigensystems(dec: Decomposition, compute_vectors: bool = False):
    """Yield (key, values, vectors) once for each distinct factor of dec.

    The distinct factors, grouped by shape, go to the eigensolver as stacks
    of at most _CHUNK_BYTES each, so a p = 5 certificate's 1,056 factors
    take 33 calls instead of 1,056 and peak memory stays bounded.
    """
    groups = {}
    for term in dec.terms:
        for mat in (term.state_a, term.state_b):
            groups.setdefault(mat.shape, {}).setdefault(_content_key(mat), mat)
    for by_key in groups.values():
        keys = list(by_key)
        step = max(1, _CHUNK_BYTES // (16 * by_key[keys[0]].size))
        for start in range(0, len(keys), step):
            chunk = keys[start : start + step]
            vals, vecs = hermitian_eigensystem(
                np.array([by_key[k] for k in chunk], dtype=complex),
                compute_vectors=compute_vectors,
            )
            for k, key in enumerate(chunk):
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

    diagnostics: List[str] = []

    weights = np.array(dec.weights)
    min_weight = float(weights.min())
    weight_sum_error = abs(float(weights.sum()) - 1.0)
    convex_ok = min_weight >= -_WEIGHT_TOL and weight_sum_error <= _WEIGHT_TOL
    if not convex_ok:
        diagnostics.append(
            f"weights are not convex: min={min_weight:.3e}, "
            f"sum error={weight_sum_error:.3e}"
        )

    min_component_eigenvalue, max_purity_deviation = _component_stats(dec)
    positivity_ok = min_component_eigenvalue >= -tol
    if not positivity_ok:
        diagnostics.append(
            f"a factor has eigenvalue {min_component_eigenvalue:.6e} < -{tol:g}"
        )

    # the Frobenius residual, taken in the reconstruction's own buffer: a
    # separate difference array would set the peak memory at p = 5
    gap = reconstruct(dec)
    gap -= target
    residual = float(np.sqrt(np.sum(np.abs(gap) ** 2)))
    recon_ok = residual < tol
    if not recon_ok:
        diagnostics.append(f"reconstruction residual {residual:.6e} >= {tol:g}")

    purity_ok = max_purity_deviation <= 1e-9

    return VerificationReport(
        convex_ok=convex_ok,
        min_weight=min_weight,
        weight_sum_error=weight_sum_error,
        positivity_ok=positivity_ok,
        min_component_eigenvalue=min_component_eigenvalue,
        reconstruction_residual=float(residual),
        purity_ok=purity_ok,
        max_purity_deviation=max_purity_deviation,
        verdict=convex_ok and positivity_ok and recon_ok,
        diagnostics=tuple(diagnostics),
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
        pairs_b = eig_cache[_content_key(term.state_b)]
        for j, (alpha, proj_a) in enumerate(eig_cache[_content_key(term.state_a)]):
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


def certify_ppt_point(params: WernerParams, rho, tol: float):
    """Certificate of a point with f >= 0, verified against its own state rho.

    Returns (verdict, decomposition, verification) with verdict SEPARABLE or
    INVALID. A point with f < 0 has no product decomposition: f/d is an
    exact witness, even inside the PPT tolerance band.
    """
    dec = decompose_auto(params)
    ver = verify_decomposition(rho, dec, tol)
    return ("SEPARABLE" if ver.verdict else "INVALID"), dec, ver


def separability_report(
    params: WernerParams,
    seed: int = 42,
    tol: float = 1e-9,
    refine: bool = False,
):
    """End-to-end pipeline: PPT test, construction, verification, refinement.

    Returns (report, refinement) where refinement is None unless requested
    and the state is separable.
    """
    params.require_physical()
    pt_min = pt_spectrum_closed_form(params).min()
    ppt = ppt_check(params, tol)

    rho = werner_dense(params)
    inv_res = invariance_residual(rho, random_unitary(params.d, seed))

    if not ppt or params.f < 0:
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

    verdict, dec, ver = certify_ppt_point(params, rho, tol)
    refinement = None
    if refine and ver.verdict:
        refined = refine_to_pure(dec, tol)
        refined_ver = verify_decomposition(rho, refined, tol * 10.0)
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
        scheme=dec.scheme,
        scale=dec.scale,
        n_terms=dec.n_terms,
        verification=ver,
        invariance_residual=inv_res,
        seed=seed,
    )
    return report, refinement
