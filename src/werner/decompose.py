"""Convex product-state decompositions over the separable parameter range.

Both schemes are one construction over groups of order m: each group is an
abelian group of signed Pauli strings with k commuting generators G_j
(m = 2^k), and its non-identity products V_s = prod_j G_j^(s_j) (ascending
j, fold order) are m - 1 distinct nontrivial strings. The groups of a
scheme hold each of the 4^p - 1 nontrivial strings once. Each group and
each character e of Z_2^k give one term of weight w = 1/(groups m), with

    A_e = (I + s T_e)/2^p,   T_e = sum_{s != 0} (-1)^|e & s| V_s,

so that I + T_e = prod_j (I + (-1)^e_j G_j) is m times a projector
(Bandyopadhyay, Boykin, Roychowdhury & Vatan, Algorithmica 34 (2002) 512),
and s = sqrt(|2^p f - 1|/(m - 1)). The second party takes A_e itself, or,
when 2^p f < 1, the partner term's A_(e ^ 1), which absorbs the negative
coefficient while both factors stay positive; only order-2 groups, where
T_(e ^ 1) = -T_e, may do so.

  per_string      the groups {I, sigma}, m = 2; valid on [0, 2^(1-p)].
  commuting_class the 2^p + 1 classes of the maximal commuting partition,
                  m = 2^p; valid on [1/2^p, 1], rank-1 factors at s = 1.

Both reconstruct the state exactly. The verifier, not the constructor, is
the authority on positivity: the unguarded builder makes out-of-range
(forced) certificates, and they simply fail verification.

A Decomposition holds each factor once, in a table that its terms index:
the builder's table is its stack of the A_e, and term t takes row t as its
first factor and row t, or t ^ 1 when sign < 0, as its second. The entries
of T_e are computed once per group from the masks of its V_s, as integer
codes (_group_codes): _build realizes the A_e from them as arrays, and
serialize.scheme_certificate_chunks writes them as text with no numpy.
"""
from __future__ import annotations

from itertools import chain, combinations, islice
from math import sqrt
from typing import TYPE_CHECKING, Callable, Iterator, List, NamedTuple, Sequence, Tuple

from .errors import SchemeRangeError
from .model import _CHUNK_BYTES, WernerParams
from .partition import build_partition
from .pauli import Digits, all_strings, format_label, masks

if TYPE_CHECKING:  # annotations only: the builder and reconstruct import numpy as they run
    import numpy as np

__all__ = [
    "COMMUTING_CLASS",
    "PER_STRING",
    "Decomposition",
    "SCHEMES",
    "Scheme",
    "auto_scheme",
    "decompose_auto",
    "reconstruct",
    "scheme_scalars",
]

PER_STRING = "per_string"
COMMUTING_CLASS = "commuting_class"


class Decomposition(NamedTuple):
    """A certificate: term t is weights[t] factors[pairs[t, 0]] (x)
    factors[pairs[t, 1]], labelled labels[t]. Each factor is a (d, d)
    complex array held once, for every term that indexes its row."""

    params: WernerParams
    scheme: str
    scale: float
    factors: Sequence[np.ndarray]
    pairs: np.ndarray  # (n, 2) int
    weights: np.ndarray  # (n,) float64
    labels: Tuple[str, ...]

    # equal only to itself, as tuple equality cannot compare arrays
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @property
    def n_terms(self) -> int:
        return len(self.weights)


class Scheme(NamedTuple):
    """A scheme's certificate name, its --scheme flag, the order m of its
    groups, its f range, and the generators of each of its groups at p; the
    label of group k's term e is label(k, generators) + ":" + marks(p)[e]."""

    name: str
    flag: str
    order: Callable[[int], int]
    f_range: Callable[[int], Tuple[float, float]]
    groups: Callable[[int], List[Sequence[Digits]]]
    label: Callable[[int, Sequence[Digits]], str]
    marks: Callable[[int], Sequence[str]]


SCHEMES = {
    scheme.name: scheme
    for scheme in (
        Scheme(PER_STRING, "per-string", lambda p: 2, lambda p: (0.0, 2.0 ** (1 - p)),
               lambda p: list(zip(all_strings(p)))[1:],
               lambda k, gens: f"per_string:{format_label(gens[0])}", lambda p: "+-"),
        # a class term's mark is its character's bits e_0 .. e_(p-1)
        Scheme(COMMUTING_CLASS, "class", lambda p: 2**p, lambda p: (2.0**-p, 1.0),
               lambda p: [cls.generators for cls in build_partition(p).classes],
               lambda k, gens: f"class:{k}",
               lambda p: ["".join(str((e >> j) & 1) for j in range(p)) for e in range(2**p)]),
    )
}


def _products(p: int, scheme: str) -> Tuple[List[int], List[int], List[int]]:
    """(x, z, t): the int masks of each group's m - 1 non-identity products
    V_s = (-i)^t Z^z X^x = prod_j G_j^(s_j) over ascending j (s = 1 .. m -
    1), in fold order, group by group, as lists.

    The products are taken on the masks of all groups at once: V_s G_j =
    (-i)^(t + y_j + 2 |x_s & z_j|) Z^(z_s ^ z_j) X^(x_s ^ x_j), since X^x
    Z^z = (-1)^|x & z| Z^z X^x, with y_j the y count of G_j.
    """
    groups = SCHEMES[scheme].groups(p)
    _, gx, gz = masks(chain.from_iterable(groups))
    k = len(gx) // len(groups)
    gens = [(gx[j::k], gz[j::k]) for j in range(k)]  # generator j of every group
    for (xa, za), (xb, zb) in combinations(gens, 2):
        if any(((a & d) ^ (b & c)).bit_count() & 1 for a, c, b, d in zip(xa, za, xb, zb)):
            raise ValueError("group generators do not pairwise commute")
    xs, zs, ts = ([[0] * len(groups)] for _ in range(3))  # [s][group]: V_0 = I
    for a, c in gens:
        ts += [[(tv + (xj & zj).bit_count() + 2 * (xv & zj).bit_count()) % 4
                for tv, xv, xj, zj in zip(t_s, x_s, a, c)] for t_s, x_s in zip(ts, xs)]
        xs += [[u ^ v for u, v in zip(x_s, a)] for x_s in xs]
        zs += [[u ^ v for u, v in zip(z_s, c)] for z_s in zs]
    return tuple(list(chain.from_iterable(zip(*rows[1:]))) for rows in (xs, zs, ts))


_UNITS = ((1, 0), (0, -1), (-1, 0), (0, 1))  # (-i)^t as (re, im)


def _group_codes(p: int, scheme: str) -> Iterator[Tuple[List[int], List[Tuple[Tuple[int, ...], ...]]]]:
    """(phi, rows) for each group in order: the integer codes of its m
    character sums, entry T_e[r, r ^ o] = a + b i with a = rows[f][0][o]
    and b = rows[f][1][o] at f = e ^ phi[r].

    Row r of V_s holds (-i)^t_s (-1)^|r & z_s| at column r ^ x_s. Since
    V_(2^j) = G_j and z is additive over s, |r & z_s| = |phi(r) & s| mod 2,
    with bit j of phi(r) the parity of r & z_(2^j). So row r of T_e is the
    offset row f = e ^ phi(r), sum_{s != 0} (-1)^|f & s| (-i)^t_s at
    offset x_s, read at column r ^ offset: m offset rows of d codes hold
    a group's m d^2 entries, each |a|, |b| <= m - 1.
    """
    d, m = 1 << p, SCHEMES[scheme].order(p)
    x, z, t = _products(p, scheme)
    parity = [v.bit_count() & 1 for v in range(d)]
    for k in range(0, len(x), m - 1):
        phi = [0] * d
        for j in range(m.bit_length() - 1):
            c = z[k + (1 << j) - 1]
            phi = [v | parity[r & c] << j for r, v in enumerate(phi)]
        rows = []
        for f in range(m):
            re, im = [0] * d, [0] * d
            for s, o, u in zip(range(1, m), x[k : k + m - 1], t[k : k + m - 1]):
                a, b = _UNITS[(u + 2 * (f & s).bit_count()) % 4]
                re[o] += a
                im[o] += b
            rows.append((tuple(re), tuple(im)))
        yield phi, rows


def _labels(p: int, scheme: str) -> Tuple[str, ...]:
    """Each term's label, group by group: the group's label, ":", the mark
    of its character."""
    table = SCHEMES[scheme]
    marks = table.marks(p)
    return tuple(f"{label}:{mark}" for k, gens in enumerate(table.groups(p))
                 for label in (table.label(k, gens),) for mark in marks)


def _build(params: WernerParams, scheme: str) -> Decomposition:
    """The scheme's certificate at params.f with no range check, so that a
    forced (out-of-range) certificate fails only verification: group k's
    term e has A = (I + s T_e)/d, and B = A, or the partner term's A_(e ^ 1)
    when sign < 0."""
    import numpy as np
    p, d = params.p, params.d
    m, (scale, weight, sign) = SCHEMES[scheme].order(p), scheme_scalars(params, scheme)
    labels = _labels(p, scheme)
    comps = np.empty((len(labels), d, d), complex)
    # A chunk of groups is gathered from its codes (int8, |a| <= m - 1 < 32)
    # and becomes A in cache, on the float parts: (a s + delta)/d, delta
    # the I's part, rounded as serialize.scheme_certificate_chunks rounds it
    eye = np.eye(d, dtype=complex).view(np.float64)
    r = np.arange(d)
    offsets = r[:, None] ^ r  # row r's column c is at offset r ^ c
    chars = np.arange(m)[:, None]
    step = max(1, _CHUNK_BYTES // comps[:m].nbytes)  # in groups
    groups = _group_codes(p, scheme)
    for start in range(0, len(comps), step * m):
        phis, rows = zip(*islice(groups, step))
        # each code's (a, b) as one int16, at [group, e ^ phi, offset]
        codes = np.ascontiguousarray(np.array(rows, np.int8).transpose(0, 1, 3, 2)).view(np.int16).ravel()
        at = np.arange(0, len(codes), m * d)[:, None, None] + (chars ^ np.array(phis)[:, None]) * d
        parts = comps[start : start + len(rows) * m].view(np.float64)
        gathered = codes[at[..., None] + offsets].view(np.int8)  # [group, e, r, 2c + (0 | 1)]
        np.multiply(gathered.reshape(parts.shape), scale, out=parts, dtype=np.float64)
        parts += eye
        parts *= 1 / d  # d = 2^p, so this is the quotient, exactly
    terms = np.arange(len(comps))
    pairs = np.stack((terms, terms ^ 1 if sign < 0 else terms), axis=1)
    return Decomposition(params, scheme, scale, comps, pairs, np.full(len(terms), weight), labels)


def decompose_auto(params: WernerParams, scheme: str = "auto") -> Decomposition:
    """Build the decomposition of the named scheme, or of the one "auto"
    picks (auto_scheme), refusing f outside the scheme's interval.

    The intervals overlap on [1/2^p, 2^(1-p)]; the boundary f = 1/2^p goes
    to the class scheme under "auto" (both reduce to maximally mixed
    components there).
    """
    return _build(params, _in_range(params, scheme))


def _in_range(params: WernerParams, scheme: str) -> str:
    """The scheme decompose_auto builds at params: auto_scheme's, refused
    outside its f interval."""
    scheme = auto_scheme(params, scheme)
    f, (lo, hi) = params.f, SCHEMES[scheme].f_range(params.p)
    if not lo <= f <= hi:
        raise SchemeRangeError(f"{scheme} needs f in [{lo}, {hi}], got {f}", f=f, valid_range=(lo, hi))
    return scheme


def auto_scheme(params: WernerParams, scheme: str = "auto") -> str:
    """The scheme named, or the one "auto" picks at params.f, where f
    outside [0, 1] is refused. An unknown name raises ValueError."""
    if scheme != "auto":
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        return scheme
    f = params.f
    if not 0.0 <= f <= 1.0:
        raise SchemeRangeError(f"f={f} is outside [0, 1]; no product decomposition exists (the "
                               "partial transpose is negative for f < 0)", f=f, valid_range=(0.0, 1.0))
    return PER_STRING if f < 2.0**-params.p else COMMUTING_CLASS


def scheme_scalars(params: WernerParams, scheme: str) -> Tuple[float, float, float]:
    """(s, w, sign): the scale s = sqrt(|2^p f - 1|/(m - 1)) and the equal
    weight w = 1/(groups m) of the scheme's terms at params.f, and the sign
    of 2^p f - 1, which the second party's s takes. Below f = 1/2^p only
    groups of order 2 have a certificate: the class scale is refused there.
    The builder and the family verifier share these bits."""
    d, f = params.d, params.f
    m = SCHEMES[scheme].order(params.p)
    delta = d * f - 1.0
    if delta < 0 and m > 2:
        lo, hi = SCHEMES[scheme].f_range(params.p)
        raise SchemeRangeError(f"class scale is undefined below f = {lo}", f=f, valid_range=(lo, hi))
    return sqrt(abs(delta) / (m - 1)), 1.0 / ((d * d - 1) // (m - 1) * m), -1.0 if delta < 0 else 1.0


def reconstruct(dec: Decomposition) -> np.ndarray:
    """Sum of w_t A_t (x) B_t over all terms, A_t and B_t gathered from the
    factor table by the term's pair of rows.

    One GEMM per chunk of terms: acc[(i,j),(k,l)] = sum_t w_t A_t[i,j] B_t[k,l]
    is (w A_flat).T @ B_flat, and one transpose puts it in the kron layout.
    Each chunk costs a pass over the accumulator, so a chunk's factors may
    take max(_CHUNK_BYTES, a quarter of the accumulator's bytes): 128 terms
    at p = 5, unchanged at p <= 4. The product goes into the accumulator in
    row blocks of that size, so no accumulator-sized temporary exists.
    """
    import numpy as np
    if not dec.n_terms:
        raise ValueError("decomposition has no terms")
    d = len(dec.factors[0])
    acc = np.zeros((d * d, d * d), dtype=complex)
    block = max(_CHUNK_BYTES, acc.nbytes // 4)
    step = max(1, block // (32 * d * d))
    rows = max(1, block // (16 * d * d))
    for start in range(0, dec.n_terms, step):
        at_a, at_b = dec.pairs[start : start + step].T.tolist()
        a = np.array([dec.factors[k] for k in at_a], dtype=complex).reshape(-1, d * d)
        b = np.array([dec.factors[k] for k in at_b], dtype=complex).reshape(-1, d * d)
        a *= dec.weights[start : start + step, None]
        for r in range(0, d * d, rows):
            acc[r : r + rows] += a[:, r : r + rows].T @ b
    return acc.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
