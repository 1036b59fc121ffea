"""Minimal dense Hermitian linear algebra.

The eigensolver is a cyclic complex Jacobi scheme implemented here so the
certificate path has no opaque numerical dependency. For a pivot block

    [[alpha, beta], [conj(beta), gamma]],  beta = |beta| e^{i phi},

the unitary

    U = [[c, -s e^{i phi}], [s e^{-i phi}, c]],
    theta = atan2(2 |beta|, alpha - gamma) / 2,  c = cos theta, s = sin theta,

annihilates the pivot: U = E R E* with E = diag(e^{i phi/2}, e^{-i phi/2})
reduces the block to the real symmetric case solved by the plain rotation R.
Each rotation removes 2 |beta|^2 from the squared off-diagonal mass, so the
sweep loop decreases monotonically; matrices at this toolkit's scale settle
in well under the sweep cap.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import atan2, cos, sin
from typing import Tuple

import numpy as np

from .errors import ConvergenceError, DimensionMismatch, MalformedInput
from .pauli import frobenius_distance

__all__ = [
    "Spectrum",
    "hermitian_eigensystem",
    "hermitian_eigenvalues",
    "partial_transpose_b",
]

DEFAULT_CLUSTER_TOL = 1e-8
_HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Multiset of (eigenvalue, multiplicity) pairs in ascending order.

    Neighbouring values closer than DEFAULT_CLUSTER_TOL (absolute) share one
    pair, so a spectrum is as long as its number of distinct eigenvalues.
    """

    pairs: Tuple[Tuple[float, int], ...]

    @classmethod
    def from_values(cls, values):
        """Cluster a flat list of eigenvalues into multiplicities."""
        return cls.from_pairs((v, 1) for v in values)

    @classmethod
    def from_pairs(cls, pairs):
        """Sort (value, multiplicity) pairs and merge neighbours within the
        tolerance. A lone pair keeps its value bit for bit; a merged cluster
        takes the multiplicity-weighted mean. Cost grows with the number of
        pairs, not with the total multiplicity.
        """
        # + 0.0 folds -0.0 into 0.0, so a zero eigenvalue never prints as -0
        items = sorted((float(v) + 0.0, int(m)) for v, m in pairs)
        if any(m < 0 for _, m in items):
            raise ValueError("negative multiplicity")
        clusters = []
        for v, m in items:
            if m == 0:
                continue
            if not clusters or v - clusters[-1][-1][0] > DEFAULT_CLUSTER_TOL:
                clusters.append([])
            clusters[-1].append((v, m))
        if not clusters:
            raise ValueError("empty spectrum")
        merged = []
        for chunk in clusters:
            if len(chunk) == 1:
                merged.append(chunk[0])
                continue
            count = sum(m for _, m in chunk)
            merged.append((sum(v * m for v, m in chunk) / count, count))
        return cls(tuple(merged))

    @property
    def values(self) -> Tuple[float, ...]:
        return tuple(v for v, _ in self.pairs)

    @property
    def multiplicities(self) -> Tuple[int, ...]:
        return tuple(m for _, m in self.pairs)

    def weighted_sum(self) -> float:
        """Sum of multiplicity * eigenvalue (the trace of the matrix)."""
        return float(sum(v * m for v, m in self.pairs))

    def min(self) -> float:
        return self.pairs[0][0]

    def flatten(self) -> Tuple[float, ...]:
        out = []
        for v, m in self.pairs:
            out.extend([v] * m)
        return tuple(out)

    def isclose(self, other: "Spectrum", tol: float = 1e-9) -> bool:
        """Same multiplicities exactly and values within tol."""
        if self.multiplicities != other.multiplicities:
            return False
        return all(abs(a - b) <= tol for a, b in zip(self.values, other.values))


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.sqrt(np.sum(np.abs(off) ** 2)))


def _require_hermitian(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if frobenius_distance(a, a.conj().T) > _HERMITICITY_TOL:
        raise MalformedInput("matrix is not Hermitian within 1e-10")
    return a


def hermitian_eigensystem(
    a,
    tol: float = 1e-12,
    max_sweeps: int = 100,
    compute_vectors: bool = False,
):
    """Eigenvalues (ascending) of a Hermitian matrix by cyclic Jacobi rotations.

    Returns (values, vectors) where vectors is None unless requested; column
    k of vectors is the eigenvector for values[k].
    """
    a = _require_hermitian(a)
    n = a.shape[0]
    work = 0.5 * (a + a.conj().T)  # symmetrize away the representation noise
    vecs = np.eye(n, dtype=complex) if compute_vectors else None

    if n == 1:
        vals = np.array([work[0, 0].real])
        return (vals, vecs) if compute_vectors else (vals, None)

    # skip pivots too small to matter; if all are skipped the sweep check passes
    pivot_floor = tol / (2.0 * n * n)

    converged = False
    off = _offdiag_norm(work)
    for _ in range(max_sweeps):
        if off <= tol:
            converged = True
            break
        for i in range(n - 1):
            for j in range(i + 1, n):
                beta = work[i, j]
                absb = abs(beta)
                if absb <= pivot_floor:
                    continue
                alpha = work[i, i].real
                gamma = work[j, j].real
                theta = 0.5 * atan2(2.0 * absb, alpha - gamma)
                c = cos(theta)
                s = sin(theta)
                e = beta / absb  # e^{i phi}
                se = s * e
                sec = s * e.conjugate()

                col_i = work[:, i].copy()
                col_j = work[:, j]
                work[:, i] = c * col_i + sec * col_j
                work[:, j] = -se * col_i + c * col_j

                row_i = work[i, :].copy()
                row_j = work[j, :]
                work[i, :] = c * row_i + se * row_j
                work[j, :] = -sec * row_i + c * row_j

                # pivot is zero by construction; write it exactly
                work[i, j] = 0.0
                work[j, i] = 0.0

                if vecs is not None:
                    v_i = vecs[:, i].copy()
                    v_j = vecs[:, j]
                    vecs[:, i] = c * v_i + sec * v_j
                    vecs[:, j] = -se * v_i + c * v_j
        off = _offdiag_norm(work)
    else:
        converged = off <= tol
    if not converged:
        raise ConvergenceError(
            f"Jacobi sweeps exhausted with off-diagonal residual {off:.3e}",
            residual=off,
        )

    vals = np.real(np.diag(work))
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    if vecs is not None:
        vecs = vecs[:, order]
    return vals, vecs


def hermitian_eigenvalues(a) -> Spectrum:
    vals, _ = hermitian_eigensystem(a)
    return Spectrum.from_values(vals)


def partial_transpose_b(m, d_a: int, d_b: int) -> np.ndarray:
    """Transpose the second tensor factor: <i,j|M'|k,l> = <i,l|M|k,j>."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != d_a * d_b:
        raise DimensionMismatch(
            f"matrix of shape {m.shape} does not factor as {d_a}x{d_b}"
        )
    t = m.reshape(d_a, d_b, d_a, d_b)
    return t.transpose(0, 3, 2, 1).reshape(d_a * d_b, d_a * d_b)
