"""Convex product-state decompositions over the separable parameter range.

Two schemes cover [0, 1] between them:

  per_string      valid on [0, 2^(1-p)]; one pair of signed terms per
                  nontrivial Pauli string, component (I +- s' sigma)/2^p
                  with s' = sqrt(|2^p f - 1|). When 2^p f - 1 < 0 the second
                  party takes the opposite sign, which is what absorbs the
                  negative expansion coefficient while both factors stay
                  positive.

  commuting_class valid on [1/2^p, 1]; one term per (class, sign pattern)
                  over the maximal commuting partition, component
                  (I + s T_eps)/2^p with s = sqrt((2^p f - 1)/(2^p - 1)) and
                  T_eps the character-signed sum over the class. The signed
                  members together with the identity close under exact
                  products, so at s = 1 every component is a rank-1
                  projector.

Both schemes use equal weights and reconstruct the state exactly; the
verifier, not the constructor, is the authority on positivity, so forced
out-of-range constructions are allowed and simply fail verification.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from math import sqrt
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import SchemeRangeError, WernerError
from .linalg import Spectrum
from .model import WernerParams
from .partition import CommutingClass, Partition, build_partition, validate_partition
from .pauli import (
    PauliOperator,
    all_strings,
    bit_parity,
    format_label,
    pauli_matrices,
    pauli_matrix,
    pauli_product,
)

__all__ = [
    "COMMUTING_CLASS",
    "PER_STRING",
    "Decomposition",
    "ProductTerm",
    "class_component",
    "class_decomposition",
    "class_range",
    "component_spectrum",
    "decompose_auto",
    "per_string_component",
    "per_string_decomposition",
    "per_string_range",
    "reconstruct",
]

PER_STRING = "per_string"
COMMUTING_CLASS = "commuting_class"

# bytes of complex factors stacked per GEMM in reconstruct: 16 terms at p = 5,
# 256 at p = 3. A refined certificate (69,632 terms at p = 4) is never stacked
# whole, and small runs stay within a megabyte of the per-term loop's peak RSS.
_CHUNK_BYTES = 1 << 19


@dataclass(frozen=True)
class ProductTerm:
    weight: float
    state_a: np.ndarray
    state_b: np.ndarray
    label: str


@dataclass(frozen=True)
class Decomposition:
    params: WernerParams
    scheme: str
    scale: float
    terms: Tuple[ProductTerm, ...]

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def weights(self) -> Tuple[float, ...]:
        return tuple(t.weight for t in self.terms)


def per_string_range(p: int) -> Tuple[float, float]:
    return 0.0, 2.0 ** (1 - p)


def class_range(p: int) -> Tuple[float, float]:
    return 2.0**-p, 1.0


def per_string_component(digits, scale: float, sign: int) -> np.ndarray:
    """(1/2^p)(I + sign * scale * sigma); returned even when scale > 1.

    A scale above 1 makes the matrix indefinite; it is still constructed so
    the verifier can exhibit the failure instead of the builder hiding it.
    """
    if all(d == 0 for d in digits):
        raise ValueError("the identity string has no signed component")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    sig = pauli_matrix(digits)
    d = sig.shape[0]
    return (np.eye(d, dtype=complex) + (sign * scale) * sig) / d


def per_string_decomposition(params: WernerParams, force: bool = False) -> Decomposition:
    """Two signed terms of weight (1/2)/(4^p - 1) per nontrivial string."""
    p, f = params.p, params.f
    d = params.d
    lo, hi = per_string_range(p)
    if not force and not lo <= f <= hi:
        raise SchemeRangeError(
            f"per_string needs f in [{lo}, {hi}], got {f}",
            f=f,
            valid_range=(lo, hi),
        )
    delta = d * f - 1.0
    scale = sqrt(abs(delta))
    weight = 0.5 / (4**p - 1)
    eye = np.eye(d, dtype=complex)

    strings = list(all_strings(p))[1:]
    step = pauli_matrices(strings)
    step *= scale
    pluses, minuses = eye + step, eye - step
    pluses /= d
    minuses /= d
    seconds = (minuses, pluses) if delta < 0 else (pluses, minuses)
    terms = []
    for s, plus, minus, b_plus, b_minus in zip(strings, pluses, minuses, *seconds):
        name = format_label(s)
        terms.append(ProductTerm(weight, plus, b_plus, f"per_string:{name}:+"))
        terms.append(ProductTerm(weight, minus, b_minus, f"per_string:{name}:-"))
    return Decomposition(params, PER_STRING, scale, tuple(terms))


def _group_elements(cls: CommutingClass):
    """All 2^p - 1 nontrivial products of the generators, with exact signs.

    Element c (a nonzero bit mask over generators) is the ordered product of
    the selected generators. Commuting Hermitian strings multiply to a
    Hermitian string, so every phase is +-1; anything else means the class
    was not commuting in the first place.
    """
    identity = PauliOperator(0, (0,) * cls.p)
    elems = []
    for c in range(1, 2**cls.p):
        gens = (g for j, g in enumerate(cls.generators) if c >> j & 1)
        op = reduce(pauli_product, gens, identity)
        elems.append((c, op.sign, op.digits))
    return elems


@cache
def _class_sums(cls: CommutingClass) -> np.ndarray:
    """T_eps for every sign pattern, stacked; bit j of the index is eps_j.

    Row e of the character table chi holds (-1)^|c & e| for each nontrivial
    element c. Every entry of T_eps is a small Gaussian integer, so the sum
    is exact in any order, and exact again in complex64, which halves what
    the cache holds (8 MB for the 33 classes at p = 5). Built once per class,
    since it does not depend on f, and returned read-only because every
    caller shares it.
    """
    n = 2**cls.p
    chi = 1.0 - 2.0 * bit_parity(np.arange(n)[:, None] & np.arange(1, n))
    _, signs, strings = zip(*_group_elements(cls))
    members = np.array(signs)[:, None, None] * pauli_matrices(strings)
    sums = np.tensordot(chi, members, 1).astype(np.complex64)
    sums.flags.writeable = False
    return sums


def class_component(cls: CommutingClass, eps: Sequence[int], scale: float) -> np.ndarray:
    """(1/2^p)(I + scale * T) with T the character-signed class sum.

    eps assigns a sign (-1)^eps_j to generator j and extends multiplicatively
    to the whole class, so the signed members plus the identity stay closed
    under products. At scale = 1 the result is a rank-1 projector.
    """
    p = cls.p
    eps = tuple(int(b) & 1 for b in eps)
    if len(eps) != p:
        raise ValueError(f"sign pattern needs {p} bits, got {len(eps)}")
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    eps_mask = 0
    for j, bit in enumerate(eps):
        eps_mask |= bit << j
    d = 2**p
    sums = _class_sums(cls)[eps_mask].astype(complex)
    return (np.eye(d, dtype=complex) + scale * sums) / d


def class_decomposition(
    params: WernerParams,
    part: Optional[Partition] = None,
    force: bool = False,
) -> Decomposition:
    """One term per (class, sign pattern): (2^p + 1) 2^p equal weights."""
    p, f = params.p, params.f
    d = params.d
    lo, hi = class_range(p)
    if not force and not lo <= f <= hi:
        raise SchemeRangeError(
            f"commuting_class needs f in [{lo}, {hi}], got {f}",
            f=f,
            valid_range=(lo, hi),
        )
    if d * f - 1.0 < 0:
        raise SchemeRangeError(
            f"class scale is undefined below f = {lo}",
            f=f,
            valid_range=(lo, hi),
        )
    scale = sqrt((d * f - 1.0) / (d - 1.0))
    weight = 1.0 / ((d + 1) * d)

    if part is None:
        part = build_partition(p)
    else:
        result = validate_partition(part)
        if not result:
            raise WernerError(
                "refusing to decompose over an invalid partition: "
                + "; ".join(result.problems[:3])
            )

    eye = np.eye(d, dtype=complex)
    terms = []
    for k, cls in enumerate(part.classes):
        comps = (eye + scale * _class_sums(cls).astype(complex)) / d
        for e, comp in enumerate(comps):
            bits = "".join(str((e >> j) & 1) for j in range(p))
            terms.append(ProductTerm(weight, comp, comp, f"class:{k}:{bits}"))
    return Decomposition(params, COMMUTING_CLASS, scale, tuple(terms))


def decompose_auto(params: WernerParams, scheme: str = "auto") -> Decomposition:
    """Build the decomposition of the named scheme, or pick one when "auto".

    PER_STRING and COMMUTING_CLASS go straight to their builders, which
    enforce their own validity intervals. "auto" picks the scheme whose
    interval holds f and rejects f outside [0, 1]. The intervals overlap on
    [1/2^p, 2^(1-p)]; the boundary f = 1/2^p goes to the class scheme (both
    reduce to maximally mixed components there).
    """
    if scheme == PER_STRING:
        return per_string_decomposition(params)
    if scheme == COMMUTING_CLASS:
        return class_decomposition(params)
    if scheme != "auto":
        raise ValueError(f"unknown scheme {scheme!r}")
    f = params.f
    if not 0.0 <= f <= 1.0:
        raise SchemeRangeError(
            f"f={f} is outside [0, 1]; no product decomposition exists "
            "(the partial transpose is negative for f < 0)",
            f=f,
            valid_range=(0.0, 1.0),
        )
    if f < 2.0**-params.p:
        return per_string_decomposition(params)
    return class_decomposition(params)


def component_spectrum(scheme: str, p: int, scale: float) -> Spectrum:
    """Closed-form component eigenvalues for either scheme."""
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    d = 2**p
    if scheme == PER_STRING:
        pairs = [((1.0 - scale) / d, d // 2), ((1.0 + scale) / d, d // 2)]
    elif scheme == COMMUTING_CLASS:
        pairs = [((1.0 - scale) / d, d - 1), ((1.0 + (d - 1) * scale) / d, 1)]
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return Spectrum.from_pairs(pairs)


def reconstruct(dec: Decomposition) -> np.ndarray:
    """Sum of weight * state_a (x) state_b over all terms.

    One GEMM per chunk of terms: acc[(i,j),(k,l)] = sum_t w_t A_t[i,j] B_t[k,l]
    is (w A_flat).T @ B_flat, and one transpose puts it in the kron layout.
    """
    if not dec.terms:
        raise ValueError("decomposition has no terms")
    first = dec.terms[0]
    da, db = first.state_a.shape[0], first.state_b.shape[0]
    step = max(1, _CHUNK_BYTES // (16 * (da * da + db * db)))
    acc = np.zeros((da * da, db * db), dtype=complex)
    for start in range(0, len(dec.terms), step):
        chunk = dec.terms[start : start + step]
        a = np.array([t.state_a for t in chunk], dtype=complex).reshape(len(chunk), da * da)
        b = np.array([t.state_b for t in chunk]).reshape(len(chunk), db * db)
        a *= np.array([t.weight for t in chunk])[:, None]
        acc += a.T @ b
    return acc.reshape(da, da, db, db).transpose(0, 2, 1, 3).reshape(da * db, da * db)
