"""Dense references that the tests build their oracles on.

The toolkit itself never forms a partial transpose: its PPT verdict comes
from the closed-form spectrum. The tests form one here, checked against an
index loop in test_linalg.py, to hold that spectrum to Jacobi and LAPACK.
The two-buffer invariance probe is the toolkit's earlier probe, kept as the
oracle of the bits of the in-place one. The toolkit holds Pauli strings as
(x, z) masks and never forms their matrices; the tests form them here as
Kronecker products, so the oracle shares no mask rule with the code it
checks.
"""
from functools import reduce
from math import sqrt

import numpy as np

# Quarter-turn phase of sigma_a . sigma_b (row a, column b), e.g. X.Y = i Z:
# sigma_a . sigma_b = i^PHASE[a][b] sigma_(a ^ b)
PHASE = (
    (0, 0, 0, 0),
    (0, 0, 1, 3),
    (0, 3, 0, 1),
    (0, 1, 3, 0),
)


_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_SINGLE_FACTOR = (_I, _X, np.array([[0, -1j], [1j, 0]]), _Z)


def pauli_matrices(strings):
    """Dense (m, 2^p, 2^p) stack of the strings, each the Kronecker product
    of its digits' I, X, Y and Z, digit 0 leftmost."""
    return np.array([reduce(np.kron, [_SINGLE_FACTOR[k] for k in s]) for s in strings])


def _power(m, mask, p):
    """m^mask on p factors: m on each set bit, I elsewhere, bit p - 1 leftmost."""
    return reduce(np.kron, [m if mask >> k & 1 else _I for k in reversed(range(p))])


def realized(p, x, z, t):
    """Dense (m, 2^p, 2^p) stack of the (-i)^t Z^z X^x over masks x and z and
    quarter turns t, from Kronecker powers of Z and X."""
    return np.array([(1, -1j, -1, 1j)[u % 4] * _power(_Z, c, p) @ _power(_X, a, p)
                     for a, c, u in zip(x, z, t)])


def partial_transpose_b(m, d_a, d_b):
    """Transpose the second tensor factor: <i,j|M'|k,l> = <i,l|M|k,j>."""
    m = np.asarray(m, dtype=complex)
    t = m.reshape(d_a, d_b, d_a, d_b)
    return t.transpose(0, 3, 2, 1).reshape(d_a * d_b, d_a * d_b)


def two_buffer_invariance_residual(rho, u):
    """Frobenius norm of (U (x) U) rho (U (x) U)^dag - rho, with U applied to
    the four tensor indices of rho as four whole products between two
    (d^2, d^2) buffers: u on i1, u on i2, conj(u) on j1, conj(u) on j2."""
    rho = np.asarray(rho, dtype=complex)
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    uc = u.conj()
    x = np.empty_like(rho, order="C")
    y = np.empty_like(x)
    np.matmul(u, rho.reshape(d, d**3), out=x.reshape(d, d**3))
    np.matmul(u, x.reshape(d, d, d * d), out=y.reshape(d, d, d * d))
    np.matmul(uc, y.reshape(d * d, d, d), out=x.reshape(d * d, d, d))
    np.matmul(x.reshape(d**3, d), uc.T, out=y.reshape(d**3, d))
    y -= rho
    return sqrt(np.vdot(y, y).real)
