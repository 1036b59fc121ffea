"""Werner-state toolkit: exact spectra, PPT tests, and separability certificates.

The package builds symmetric two-party Werner states on p-qubit pairs,
diagonalizes them three independent ways, and (on the separable range)
produces explicit convex decompositions into product states that an
oracle-grade verifier re-checks from scratch. Only the documented API is
exported here; everything else is imported from its submodule.

`import werner` loads no submodule and no numpy: each exported name is
imported from its home module on first access (PEP 562).
"""
import importlib

__version__ = "0.1.0"

# each exported name -> the submodule that defines it
_HOME = {
    "WernerError": "errors",
    "WernerParams": "model",
    "build_partition": "partition",
    "decompose_auto": "decompose",
    "hermitian_eigenvalues": "linalg",
    "ppt_check": "model",
    "refine_to_pure": "verify",
    "separability_report": "verify",
    "spectrum_closed_form": "model",
    "spectrum_via_transform": "model",
    "validate_partition": "partition",
    "verify_decomposition": "verify",
    "werner_dense": "model",
    "werner_spinor": "model",
}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
