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
                  T_eps the character-signed sum over the class. The class
                  is the group of its p commuting generators G_j: its
                  products V_s in fold order give T_eps = sum_s
                  (-1)^|eps & s| V_s - I, so I + T_eps = prod_j (I +
                  (-1)^eps_j G_j), and at s = 1 every component is a rank-1
                  projector.

Both schemes use equal weights and reconstruct the state exactly; the
verifier, not the constructor, is the authority on positivity, so forced
out-of-range constructions are allowed and simply fail verification.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Sequence, Tuple

import numpy as np

from .errors import SchemeRangeError
from .model import _CHUNK_BYTES, WernerParams
from .partition import CommutingClass, build_partition
from .pauli import all_strings, format_label, masks, pauli_matrices, signed_permutations

__all__ = [
    "COMMUTING_CLASS",
    "PER_STRING",
    "Decomposition",
    "ProductTerm",
    "auto_scheme",
    "class_decomposition",
    "class_range",
    "decompose_auto",
    "per_string_decomposition",
    "per_string_range",
    "reconstruct",
    "scheme_scalars",
]

PER_STRING = "per_string"
COMMUTING_CLASS = "commuting_class"

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
    scale, weight, sign = scheme_scalars(params, PER_STRING)
    eye = np.eye(d, dtype=complex)

    strings = list(all_strings(p))[1:]
    step = pauli_matrices(strings)
    step *= scale
    pluses, minuses = eye + step, eye - step
    pluses /= d
    minuses /= d
    seconds = (minuses, pluses) if sign < 0 else (pluses, minuses)
    terms = []
    for s, plus, minus, b_plus, b_minus in zip(strings, pluses, minuses, *seconds):
        name = format_label(s)
        terms.append(ProductTerm(weight, plus, b_plus, f"per_string:{name}:+"))
        terms.append(ProductTerm(weight, minus, b_minus, f"per_string:{name}:-"))
    return Decomposition(params, PER_STRING, scale, tuple(terms))


def _class_products(classes: Sequence[CommutingClass]) -> np.ndarray:
    """V: each class's d products in fold order, class by class, as one
    ((d + 1) d, d, d) complex64 stack of signed permutations for the
    2^p + 1 classes of build_partition(p). Row k d + s is class k's
    V_s = prod_j G_j^(s_j) over ascending j, so V_0 = I.

    The products are taken on masks, with Python ints: as (-i)^t Z^z X^x,
    V_s G_j = (-i)^(t + y_j + 2 |x_s & z_j|) Z^(z_s ^ z_j) X^(x_s ^ x_j),
    since X^x Z^z = (-1)^|x & z| Z^z X^x, with y_j the y count of G_j. One
    scatter realizes them all.
    """
    prods = []  # (x, z, t) of each V_s
    for cls in classes:
        _, x, z = masks(cls.generators)
        if any(((a & d) ^ (b & c)).bit_count() & 1 for a, c in zip(x, z) for b, d in zip(x, z)):
            raise ValueError("class generators do not pairwise commute")
        first = len(prods)
        prods.append((0, 0, 0))
        for a, c in zip(x, z):
            prods += [(px ^ a, pz ^ c, (t + (a & c).bit_count() + 2 * (px & c).bit_count()) % 4)
                      for px, pz, t in prods[first:]]
    return signed_permutations(classes[0].p, *map(list, zip(*prods)), np.complex64)


def class_decomposition(params: WernerParams, force: bool = False) -> Decomposition:
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
    scale, weight, _ = scheme_scalars(params, COMMUTING_CLASS)

    # T_e = sum_s H[e, s] V_s - I with the Sylvester matrix H[s, e] =
    # (-1)^|s & e|, so I + T_e = prod_j (I + (-1)^e_j G_j); its entries are
    # small integers, exact in float32
    hadamard = np.array([[(-1) ** (s & e).bit_count() for e in range(d)] for s in range(d)], np.float32)
    eye = np.eye(d, dtype=complex)
    terms = []
    for k, prods in enumerate(_class_products(build_partition(p).classes).reshape(-1, d, d, d)):
        sums = (hadamard @ prods.view(np.float32).reshape(d, -1)).view(np.complex64).reshape(d, d, d)
        sums[:, range(d), range(d)] -= 1
        comps = (eye + scale * sums.astype(complex)) / d
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
    if scheme == "auto":
        scheme = auto_scheme(params)
    if scheme == PER_STRING:
        return per_string_decomposition(params)
    if scheme == COMMUTING_CLASS:
        return class_decomposition(params)
    raise ValueError(f"unknown scheme {scheme!r}")


def auto_scheme(params: WernerParams) -> str:
    """The scheme "auto" picks at params.f; f outside [0, 1] is refused."""
    f = params.f
    if not 0.0 <= f <= 1.0:
        raise SchemeRangeError(
            f"f={f} is outside [0, 1]; no product decomposition exists "
            "(the partial transpose is negative for f < 0)",
            f=f,
            valid_range=(0.0, 1.0),
        )
    return PER_STRING if f < 2.0**-params.p else COMMUTING_CLASS


def scheme_scalars(params: WernerParams, scheme: str) -> Tuple[float, float, float]:
    """(s, w, sign): the scale s and the equal weight w of the scheme's terms
    at params.f, and the sign of the second party's s (per_string: the sign
    of 2^p f - 1; always 1 for commuting_class). The builders and the family
    verifier share these bits."""
    d, f = params.d, params.f
    if scheme == PER_STRING:
        delta = d * f - 1.0
        return sqrt(abs(delta)), 0.5 / (4**params.p - 1), -1.0 if delta < 0 else 1.0
    return sqrt((d * f - 1.0) / (d - 1.0)), 1.0 / ((d + 1) * d), 1.0


def reconstruct(dec: Decomposition) -> np.ndarray:
    """Sum of weight * state_a (x) state_b over all terms.

    One GEMM per chunk of terms: acc[(i,j),(k,l)] = sum_t w_t A_t[i,j] B_t[k,l]
    is (w A_flat).T @ B_flat, and one transpose puts it in the kron layout.
    Each chunk costs a pass over the accumulator, so a chunk's factors may
    take max(_CHUNK_BYTES, a quarter of the accumulator's bytes): 128 terms
    at p = 5, unchanged at p <= 4. The product goes into the accumulator in
    row blocks of that size, so no accumulator-sized temporary exists.
    """
    if not dec.terms:
        raise ValueError("decomposition has no terms")
    first = dec.terms[0]
    da, db = first.state_a.shape[0], first.state_b.shape[0]
    acc = np.zeros((da * da, db * db), dtype=complex)
    block = max(_CHUNK_BYTES, acc.nbytes // 4)
    step = max(1, block // (16 * (da * da + db * db)))
    rows = max(1, block // (16 * db * db))
    for start in range(0, len(dec.terms), step):
        chunk = dec.terms[start : start + step]
        a = np.array([t.state_a for t in chunk], dtype=complex).reshape(len(chunk), da * da)
        b = np.array([t.state_b for t in chunk]).reshape(len(chunk), db * db)
        a *= np.array([t.weight for t in chunk])[:, None]
        for r in range(0, da * da, rows):
            acc[r : r + rows] += a[:, r : r + rows].T @ b
    return acc.reshape(da, da, db, db).transpose(0, 2, 1, 3).reshape(da * db, da * db)
