"""Dense references that the tests build their oracles on.

The toolkit itself never forms a partial transpose: its PPT verdict comes
from the closed-form spectrum. The tests form one here, checked against an
index loop in test_linalg.py, to hold that spectrum to Jacobi and LAPACK.
"""
import numpy as np


def partial_transpose_b(m, d_a, d_b):
    """Transpose the second tensor factor: <i,j|M'|k,l> = <i,l|M|k,j>."""
    m = np.asarray(m, dtype=complex)
    t = m.reshape(d_a, d_b, d_a, d_b)
    return t.transpose(0, 3, 2, 1).reshape(d_a * d_b, d_a * d_b)
