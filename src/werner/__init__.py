"""Werner-state toolkit: exact spectra, PPT tests, and separability certificates.

The package builds symmetric two-party Werner states on p-qubit pairs,
diagonalizes them three independent ways, and (on the separable range)
produces explicit convex decompositions into product states that an
oracle-grade verifier re-checks from scratch. Only the documented API is
exported here; everything else is imported from its submodule.
"""
from .decompose import decompose_auto
from .errors import WernerError
from .linalg import hermitian_eigenvalues
from .model import (
    WernerParams,
    ppt_check,
    spectrum_closed_form,
    spectrum_via_transform,
    werner_dense,
    werner_spinor,
)
from .partition import build_partition, validate_partition
from .verify import refine_to_pure, separability_report, verify_decomposition

__version__ = "0.1.0"

__all__ = [
    "WernerError",
    "WernerParams",
    "build_partition",
    "decompose_auto",
    "hermitian_eigenvalues",
    "ppt_check",
    "refine_to_pure",
    "separability_report",
    "spectrum_closed_form",
    "spectrum_via_transform",
    "validate_partition",
    "verify_decomposition",
    "werner_dense",
    "werner_spinor",
]
