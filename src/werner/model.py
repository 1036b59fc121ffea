"""Construction and spectra of Werner states on 2^p x 2^p systems.

A Werner state is the one-parameter family invariant under every U (x) U
conjugation. The parameter is the flip expectation f = Tr(rho P), physical
on [-1, 1], where P is the swap P|i>|j> = |j>|i>. Three independent routes
to the spectrum are provided: the dense construction fed to the in-house
eigensolver, a closed form, and a 4x4 sign-kernel transform applied to the
string expansion coefficients axis by axis. The three must agree; tests
hold them to 1e-9. numpy is imported only by the functions that build
arrays: WernerParams, the closed forms and ppt_check run without it.
"""
from __future__ import annotations

from math import isfinite, sqrt
from typing import TYPE_CHECKING, NamedTuple, Tuple

from .errors import DimensionMismatch, MalformedInput, PhysicalRangeError, WernerError
from .linalg import Spectrum

if TYPE_CHECKING:  # annotations only: each function that builds an array imports numpy
    import numpy as np

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


class WernerParams(NamedTuple("WernerParams", [("p", int), ("f", float)])):
    """(p, f) pair: local dimension d = 2^p and flip expectation f."""

    __slots__ = ()

    def __new__(cls, p, f):
        if int(p) != p or p < 1:
            raise ValueError(f"p must be a positive integer, got {p!r}")
        f = float(f)
        if not isfinite(f):
            raise ValueError("f must be finite")
        return super().__new__(cls, int(p), f)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks its values too
        return cls(*iterable)

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
TRANSFORM_H = (
    (1, 1, 1, 1),
    (1, -1, 1, -1),
    (1, 1, -1, -1),
    (1, -1, -1, 1),
)
TRANSFORM_M = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def _eye_flip_entries(d: int):
    """((rows, cols), (rows, cols), (rows, cols)): the entries of a (d^2, d^2)
    combination of I and the swap P where only I is 1, where only P is 1,
    and the d diagonal entries |i>|i> where both are; every other entry is 0.
    """
    import numpy as np
    k = np.arange(d * d)
    one = k[k % (d + 1) != 0]  # |i>|i> is k = i (d + 1)
    both = k[:: d + 1]
    return (one, one), (one, one % d * d + one // d), (both, both)


def _eye_flip(d: int, values) -> np.ndarray:
    """The complex (d^2, d^2) combination of I and P with its three values at
    _eye_flip_entries, by index writes."""
    import numpy as np
    out = np.zeros((d * d, d * d), dtype=complex)
    for (rows, cols), value in zip(_eye_flip_entries(d), values):
        out[rows, cols] = value
    return out


def _werner_values(params: WernerParams) -> Tuple[float, float, float]:
    """werner_dense's three distinct entries, in _eye_flip's order: the
    values of ((d - f) I + (d f - 1) P) on the (I, P) patterns (1, 0), (0,
    1) and (1, 1), each times 1/(d^3 - d), the bits of numpy's complex
    quotient by d^3 - d."""
    params.require_physical()
    d, f = params.d, params.f
    inverse = 1 / (d**3 - d)
    return (d - f) * inverse, (d * f - 1.0) * inverse, ((d - f) + (d * f - 1.0)) * inverse


def werner_dense(params: WernerParams) -> np.ndarray:
    """((d - f) I + (d f - 1) P) / (d^3 - d); unit trace, PSD for f in [-1, 1].

    The matrix holds _werner_values at _eye_flip_entries, filled without
    forming I or P.
    """
    return _eye_flip(params.d, _werner_values(params))


def werner_spinor(params: WernerParams) -> np.ndarray:
    """Same state assembled from the string basis sigma_s (x) sigma_s, summed
    on the masks of the strings (-i)^|x & z| Z^z X^x. Row r of one holds
    (-i)^(|x & z| + 2 |r & z|) at column r ^ x, so the d strings of one x,
    with D[z, r] their entries, add (D^T D)[i, k] at row ik, column
    ik ^ x (d + 1). Every entry is a small integer, so the sum is exact.
    """
    import numpy as np
    params.require_physical()
    p, f = params.p, params.f
    d = params.d
    count = np.array([[(a & b).bit_count() for b in range(d)] for a in range(d)])
    unit = np.array((1, -1j, -1, 1j))
    ik = np.arange(d * d)
    acc = np.zeros((d * d, d * d), dtype=complex)
    for x in range(d):
        D = unit[(count[x, :, None] + 2 * count) % 4]
        acc[ik, ik ^ x * (d + 1)] = (D.T @ D).reshape(-1)
    eye = np.eye(d * d, dtype=complex)
    return ((d - f) * eye + ((d * f - 1.0) / d) * acc) / (2 ** (3 * p) - d)


def spinor_coefficients(params: WernerParams) -> np.ndarray:
    """Expansion coefficients a[r] of the state over sigma_r (x) sigma_r.

    Index r runs over base-4 string values; r = 0 is the identity string.
    a[0] = 1/4^p and a[r] = (2^p f - 1)/(2^(4p) - 2^(2p)) for r > 0.
    """
    import numpy as np
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
    import numpy as np
    p = params.p
    kernel = (np.array(TRANSFORM_H) @ np.array(TRANSFORM_M)).astype(float)
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

# bytes of the blocks that the d^4 and stacked stages work in: the probe's
# block products here; in decompose the factors of the groups that _build
# gathers from their codes at a time, and reconstruct's GEMM factors (256
# terms at p = 3, 64 at p = 4) and row blocks (at least this many bytes);
# in verify the factor stacks of the eigensolver. A refined certificate (69,632 terms at p = 4) is never
# stacked whole, and small runs stay within a megabyte of the per-term
# loop's peak RSS.
_CHUNK_BYTES = 1 << 19


def random_unitary(d: int, seed: int) -> np.ndarray:
    """Haar-like d x d unitary from a seeded complex Gaussian matrix.

    QR with the phases of the triangular diagonal pushed back into Q makes
    the draw independent of the QR sign convention; the result is exactly
    reproducible for a given seed.
    """
    import numpy as np
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z / sqrt(2.0))
    ph = np.diag(r).copy()
    ph = ph / np.abs(ph)
    return q * ph


def _conjugate_in_place(x: np.ndarray, u) -> None:
    """Overwrite x, a C-ordered complex (d^2, d^2) array viewed as
    (d, d, d, d), with (U (x) U) x (U (x) U)^dag: u on i1 and i2, conj(u) on
    j1 and j2. Each step is a run of block products of at most _CHUNK_BYTES,
    written back in place, so the conjugation holds x and one block: 4 d^5
    multiply-adds against the 2 d^6 of two GEMMs with kron(u, u), which is
    never formed. At p <= 3 each step is one product; at p = 4 and 5 the
    blocks are whole batches or 1,024 to 2,048 columns or rows wide, and
    every entry keeps the bits one product over the step gives it
    (one-column blocks change the last bits).
    """
    import numpy as np
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatch(f"expected a square unitary, got shape {u.shape}")
    d = u.shape[0]
    if x.shape != (d * d, d * d):
        raise DimensionMismatch(
            f"state of shape {x.shape} does not match local dimension {d}"
        )
    x2 = x.reshape(-1, d)
    wide = _CHUNK_BYTES // (16 * d)  # columns or rows of a (d, wide) block
    rows = range(0, len(x2), wide)
    if not (np.isfinite(u).all() and all(np.isfinite(x2[r : r + wide]).all() for r in rows)):
        raise MalformedInput("matrix has non-finite entries")
    if not np.linalg.norm(u.conj().T @ u - np.eye(d)) <= 1e-9:
        raise WernerError("matrix is not unitary within 1e-9")
    uc = u.conj()
    # u on i1 and i2, conj(u) on j1: (d, d) @ (d, cols), batched
    steps = (u, x.reshape(1, d, -1)), (u, x.reshape(d, d, -1)), (uc, x.reshape(d * d, d, d))
    for m, x3 in steps:
        cols = min(x3.shape[2], wide)
        step = max(1, wide // cols)
        for a in range(0, len(x3), step):
            for c in range(0, x3.shape[2], cols):
                block = x3[a : a + step, :, c : c + cols]
                block[...] = m @ block
    # conj(u) on j2: (rows, d) @ conj(u)^T
    for r in rows:
        x2[r : r + wide] = x2[r : r + wide] @ uc.T


def invariance_residual(params: WernerParams, u) -> float:
    """Frobenius norm of (U (x) U) rho (U (x) U)^dag - rho for the Werner
    state at params, conjugated in the one buffer it is built into. rho is 0
    off its three values, so subtracting them in place keeps x - rho's bits.
    """
    import numpy as np
    x = werner_dense(params)
    _conjugate_in_place(x, u)
    for (rows, cols), value in zip(_eye_flip_entries(params.d), _werner_values(params)):
        x[rows, cols] -= value
    return sqrt(np.vdot(x, x).real)
