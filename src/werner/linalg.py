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

One call solves a whole stack of matrices with one cyclic (i, j) schedule
(Golub & Van Loan, Matrix Computations, section 8.5). At each pivot only the
matrices that are still unsettled and whose |beta| exceeds the pivot floor
rotate, and a rotation rewrites only the two rows, the two columns and the two
eigenvector columns it touches, in those matrices. A matrix leaves the
schedule once its own off-diagonal norm is within _TOL, exactly where it would
stop if solved alone. Every matrix therefore sees the same IEEE operations,
in the same order, as in a solve of its own: |beta| from the scalar complex
abs, the angle from math.atan2, cos and sin, and elementwise numpy for the
rest. The eigenvalues and eigenvectors do not depend on what else is stacked.
"""
from __future__ import annotations

from math import atan2, cos, sin
from typing import TYPE_CHECKING, NamedTuple, Tuple

from .errors import ConvergenceError, DimensionMismatch, MalformedInput

if TYPE_CHECKING:  # annotations only: each function that builds an array imports numpy
    import numpy as np

__all__ = [
    "Spectrum",
    "hermitian_eigensystem",
    "hermitian_eigenvalues",
]

DEFAULT_CLUSTER_TOL = 1e-8  # relative to the spectrum's largest |value|
_HERMITICITY_TOL = 1e-10
_TOL = 1e-12
_MAX_SWEEPS = 100
_PROPOSE = 1.0 - 1e-9  # relative margin of the vector abs that proposes pivots


class Spectrum(NamedTuple):
    """Multiset of (eigenvalue, multiplicity) pairs in ascending order.

    Neighbouring values within DEFAULT_CLUSTER_TOL times the largest |value|
    share one pair, so a spectrum is as long as its number of distinct
    eigenvalues at any scale of d.
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
        items = [(v, m) for v, m in items if m]
        if not items:
            raise ValueError("empty spectrum")
        tol = DEFAULT_CLUSTER_TOL * max(-items[0][0], items[-1][0])
        clusters = []
        for v, m in items:
            if not clusters or v - clusters[-1][-1][0] > tol:
                clusters.append([])
            clusters[-1].append((v, m))
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

    def isclose(self, other: "Spectrum", tol: float = 1e-9) -> bool:
        """Same multiplicities exactly and values within tol."""
        if self.multiplicities != other.multiplicities:
            return False
        return all(abs(a - b) <= tol for a, b in zip(self.values, other.values))


def _offdiag_norms(work: np.ndarray) -> np.ndarray:
    """Frobenius norm of the off-diagonal part of each matrix in a stack."""
    import numpy as np
    sq = np.abs(work)
    sq *= sq
    diag = np.arange(work.shape[-1])
    sq[:, diag, diag] = 0.0
    return np.sqrt(np.sum(sq, axis=(1, 2)))


def _rotate(x, at_i, at_j, c, p, q) -> None:
    """x[at_i], x[at_j] <- c x_i + p x_j, -q x_i + c x_j, in place."""
    x_i = x[at_i].copy()
    x_j = x[at_j]
    x[at_i] = c * x_i + p * x_j
    x[at_j] = -q * x_i + c * x_j


def hermitian_eigensystem(a, compute_vectors: bool = False):
    """Eigenvalues (ascending) of a Hermitian matrix, or of each matrix of a
    stack, by cyclic Jacobi rotations.

    a is one (n, n) matrix or an (m, n, n) stack. Returns (values, vectors):
    values has shape (n,) or (m, n); vectors is None unless requested, and
    column k of a matrix of vectors is the eigenvector for its values[k].
    A matrix is settled once its off-diagonal norm is within _TOL, and
    ConvergenceError is raised if one is not after _MAX_SWEEPS sweeps.
    """
    import numpy as np
    a = np.asarray(a, dtype=complex)
    stack = a[None] if a.ndim == 2 else a
    if stack.ndim != 3 or not stack.shape[1] == stack.shape[2] > 0:
        raise DimensionMismatch(
            f"expected a nonempty square matrix or a stack of them, got shape {a.shape}"
        )
    if not np.isfinite(stack).all():
        raise MalformedInput("matrix has non-finite entries")
    work = np.conjugate(stack.swapaxes(1, 2), order="C")  # the adjoints
    gap = np.abs(stack - work)
    gap *= gap
    if (np.sqrt(np.sum(gap, axis=(1, 2))) > _HERMITICITY_TOL).any():
        raise MalformedInput("matrix is not Hermitian within 1e-10")
    del gap
    # symmetrize away the representation noise, in place; a^H + a has the
    # bits of a + a^H
    work += stack
    work *= 0.5
    m, n, _ = stack.shape
    vecs = np.tile(np.eye(n, dtype=complex), (m, 1, 1)) if compute_vectors else None

    # skip pivots too small to matter; if all are skipped the sweep check passes
    pivot_floor = _TOL / (2.0 * n * n)

    live = np.arange(m)
    sel = slice(None)  # a basic slice while every matrix is live: fancy indexing copies
    for sweep in range(_MAX_SWEEPS + 1):
        off = _offdiag_norms(work[sel])
        unsettled = ~(off <= _TOL)
        live = live[unsettled]
        if not live.size:
            break
        if sweep == _MAX_SWEEPS:
            residual = float(off[unsettled].max())
            raise ConvergenceError(
                f"Jacobi sweeps exhausted with off-diagonal residual {residual:.3e}",
                residual=residual,
            )
        sel = live if live.size < m else slice(None)
        for i in range(n - 1):
            j = i
            while True:
                # the next pivot of row i that may rotate in some live matrix;
                # the entries before it are untouched since they were compared.
                # numpy's vector abs can differ from the scalar complex abs in
                # the last bit, so it only proposes pivots, with a margin; the
                # scalar abs decides and gives the angle
                big = ~(np.abs(work[sel, i, j + 1 :]) <= _PROPOSE * pivot_floor)
                hits = np.flatnonzero(big.any(axis=0))
                if not hits.size:
                    break
                j += 1 + int(hits[0])
                idx = live[big[:, hits[0]]]
                beta = work[idx, i, j]
                absb = np.array([abs(b) for b in beta.tolist()])
                rot = ~(absb <= pivot_floor)
                if not rot.all():
                    idx, beta, absb = idx[rot], beta[rot], absb[rot]
                    if not idx.size:
                        continue
                # a basic slice for a full stack keeps one matrix off fancy indexing
                at = slice(None) if idx.size == m else idx
                # math's trig, one call per matrix: numpy's vector trig rounds
                # differently
                theta = [
                    0.5 * atan2(y, x)
                    for y, x in zip(
                        (2.0 * absb).tolist(),
                        (work[at, i, i].real - work[at, j, j].real).tolist(),
                    )
                ]
                c = np.array([cos(t) for t in theta])[:, None]
                s = np.array([sin(t) for t in theta])
                e = beta / absb  # e^{i phi}
                se = (s * e)[:, None]
                sec = (s * e.conj())[:, None]
                _rotate(work, (at, slice(None), i), (at, slice(None), j), c, sec, se)
                _rotate(work, (at, i), (at, j), c, se, sec)
                # pivot is zero by construction; write it exactly
                work[at, i, j] = 0.0
                work[at, j, i] = 0.0
                if vecs is not None:
                    _rotate(vecs, (at, slice(None), i), (at, slice(None), j), c, sec, se)

    vals = work.diagonal(axis1=1, axis2=2).real
    order = np.argsort(vals, axis=1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=1)
    if vecs is not None:
        vecs = np.take_along_axis(vecs, order[:, None, :], axis=2)
    if a.ndim == 2:
        return vals[0], None if vecs is None else vecs[0]
    return vals, vecs


def hermitian_eigenvalues(a) -> Spectrum:
    vals, _ = hermitian_eigensystem(a)
    return Spectrum.from_values(vals)
