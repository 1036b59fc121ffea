"""Construction and spectra of Werner states on 2^p x 2^p systems.

A Werner state is the one-parameter family invariant under every U (x) U
conjugation. The parameter is the flip expectation f = Tr(rho P), physical
on [-1, 1], where P is the swap P|i>|j> = |j>|i>. Three independent routes
to the spectrum are provided: the dense construction fed to the in-house
eigensolver, a closed form, and a 4x4 sign-kernel transform applied to the
string expansion coefficients axis by axis. The three must agree; tests
hold them to 1e-9.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import DimensionMismatch, PhysicalRangeError, WernerError
from .linalg import Spectrum
from .pauli import all_strings, pauli_matrices

__all__ = [
    "TRANSFORM_H",
    "TRANSFORM_M",
    "WernerParams",
    "invariance_residual",
    "ppt_check",
    "pt_spectrum_closed_form",
    "random_unitary",
    "spectrum_closed_form",
    "spectrum_via_transform",
    "spinor_coefficients",
    "werner_dense",
    "werner_spinor",
]


@dataclass(frozen=True)
class WernerParams:
    """(p, f) pair: local dimension d = 2^p and flip expectation f."""

    p: int
    f: float

    def __post_init__(self):
        if int(self.p) != self.p or self.p < 1:
            raise ValueError(f"p must be a positive integer, got {self.p!r}")
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(self, "f", float(self.f))
        if not np.isfinite(self.f):
            raise ValueError("f must be finite")

    @property
    def d(self) -> int:
        return 2**self.p

    def require_physical(self):
        if not -1.0 <= self.f <= 1.0:
            raise PhysicalRangeError(
                f"f={self.f} outside the physical range [-1, 1]"
            )
        return self


# Sign kernel of the coefficient-to-eigenvalue transform. H carries the
# character table of the single-factor strings; M flips the z column.
TRANSFORM_H = np.array(
    [
        [1, 1, 1, 1],
        [1, -1, 1, -1],
        [1, 1, -1, -1],
        [1, -1, -1, 1],
    ],
    dtype=int,
)
TRANSFORM_M = np.diag([1, 1, 1, -1]).astype(int)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def _eye_flip(d: int, values) -> np.ndarray:
    """Entries of a (d^2, d^2) combination of I and the swap P, by index writes.

    values[0] goes where only I is 1, values[1] where only P is 1, values[2]
    on the d diagonal entries |i>|i> where both are; every other entry is 0.
    """
    k = np.arange(d * d)
    both = k[:: d + 1]
    out = np.zeros((d * d, d * d), dtype=complex)
    out[k, k] = values[0]
    out[k, k % d * d + k // d] = values[1]
    out[both, both] = values[2]
    return out


def werner_dense(params: WernerParams) -> np.ndarray:
    """((d - f) I + (d f - 1) P) / (d^3 - d); unit trace, PSD for f in [-1, 1].

    The three distinct entries are that expression evaluated in complex
    arithmetic on the (I, P) patterns (1, 0), (0, 1) and (1, 1), so they
    carry its bits; the matrix is filled without forming I or P.
    """
    params.require_physical()
    d = params.d
    f = params.f
    values = (
        (d - f) * np.array([1, 0, 1], dtype=complex)
        + (d * f - 1.0) * np.array([0, 1, 1], dtype=complex)
    ) / (d**3 - d)
    return _eye_flip(d, values)


def werner_spinor(params: WernerParams) -> np.ndarray:
    """Same state assembled from the string basis sigma_s (x) sigma_s."""
    params.require_physical()
    p, f = params.p, params.f
    d = params.d
    m = pauli_matrices(all_strings(p)).reshape(4**p, d * d)
    # sum_s sigma_s[i, j] sigma_s[k, l] in the kron layout (ik, jl)
    acc = (m.T @ m).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    eye = np.eye(d * d, dtype=complex)
    return ((d - f) * eye + ((d * f - 1.0) / d) * acc) / (2 ** (3 * p) - d)


def spinor_coefficients(params: WernerParams) -> np.ndarray:
    """Expansion coefficients a[r] of the state over sigma_r (x) sigma_r.

    Index r runs over base-4 string values; r = 0 is the identity string.
    a[0] = 1/4^p and a[r] = (2^p f - 1)/(2^(4p) - 2^(2p)) for r > 0.
    """
    p, f = params.p, params.f
    d = params.d
    a = np.full(4**p, (d * f - 1.0) / (2 ** (4 * p) - 2 ** (2 * p)))
    a[0] = 1.0 / 4**p
    return a


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def spectrum_via_transform(params: WernerParams) -> Spectrum:
    """Eigenvalues from the coefficient vector by the 4x4 kernel, axis by axis.

    The 4^p x 4^p transform (H M)^(x p) is never materialized; the kernel is
    contracted along each base-4 axis of the coefficient tensor.
    """
    p = params.p
    kernel = (TRANSFORM_H @ TRANSFORM_M).astype(float)
    t = spinor_coefficients(params).reshape((4,) * p)
    for axis in range(p):
        t = np.moveaxis(np.tensordot(kernel, t, axes=([1], [axis])), 0, axis)
    return Spectrum.from_values(t.reshape(-1))


def spectrum_closed_form(params: WernerParams) -> Spectrum:
    """Two eigenvalue branches with multiplicities d(d-1)/2 and d(d+1)/2.

    The antisymmetric branch (1 - f)/(d(d - 1)) and symmetric branch
    (1 + f)/(d(d + 1)) pass the unit-trace audit for every f; degenerate
    points (f = 1/d) merge into a single pair. Werner, Phys. Rev. A 40,
    4277 (1989).
    """
    d = params.d
    f = params.f
    return Spectrum.from_pairs(
        [
            ((1.0 - f) / (d * (d - 1)), d * (d - 1) // 2),
            ((1.0 + f) / (d * (d + 1)), d * (d + 1) // 2),
        ]
    )


def _pt_pairs(params: WernerParams):
    d = params.d
    f = params.f
    return [(f / d, 1), ((d - f) / (d * (d * d - 1)), d * d - 1)]


def pt_spectrum_closed_form(params: WernerParams) -> Spectrum:
    """Partial-transpose spectrum: f/d once, (d - f)/(d (d^2 - 1)) else.

    The simple eigenvalue sits on the maximally entangled direction, so the
    sign of f alone decides positivity of the partial transpose.
    """
    return Spectrum.from_pairs(_pt_pairs(params))


def ppt_check(params: WernerParams, tol: float = 1e-9) -> bool:
    """True iff the least partial-transpose eigenvalue is >= -tol (Peres,
    PRL 77, 1413 (1996)).

    The two branches are compared unclustered, so the verdict never
    depends on the spectrum's clustering tolerance.
    """
    params.require_physical()
    return min(v for v, _ in _pt_pairs(params)) >= -tol


# ---------------------------------------------------------------------------
# invariance probe
# ---------------------------------------------------------------------------


def random_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-like d x d unitary from a seeded complex Gaussian matrix.

    QR with the phases of the triangular diagonal pushed back into Q makes
    the draw independent of the QR sign convention; the result is exactly
    reproducible for a given seed.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z / sqrt(2.0))
    ph = np.diag(r).copy()
    ph = ph / np.abs(ph)
    return q * ph


def invariance_residual(rho, u) -> float:
    """Frobenius norm of (U (x) U) rho (U (x) U)^dag - rho.

    U acts on each of the four tensor indices of rho, viewed as (d, d, d, d):
    u on i1, u on i2, conj(u) on j1, conj(u) on j2, one matmul each between
    two (d^2, d^2) buffers. That is 4 d^5 multiply-adds against the 2 d^6 of
    two GEMMs with the d^2 x d^2 kron(u, u), which is never formed.
    """
    rho = np.asarray(rho, dtype=complex)
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatch(f"expected a square unitary, got shape {u.shape}")
    d = u.shape[0]
    if rho.shape != (d * d, d * d):
        raise DimensionMismatch(
            f"state of shape {rho.shape} does not match local dimension {d}"
        )
    if np.linalg.norm(u.conj().T @ u - np.eye(d)) > 1e-9:
        raise WernerError("matrix is not unitary within 1e-9")
    uc = u.conj()
    x = np.empty_like(rho, order="C")
    y = np.empty_like(x)
    np.matmul(u, rho.reshape(d, d**3), out=x.reshape(d, d**3))
    np.matmul(u, x.reshape(d, d, d * d), out=y.reshape(d, d, d * d))
    np.matmul(uc, y.reshape(d * d, d, d), out=x.reshape(d * d, d, d))
    np.matmul(x.reshape(d**3, d), uc.T, out=y.reshape(d**3, d))
    y -= rho
    return sqrt(np.vdot(y, y).real)
