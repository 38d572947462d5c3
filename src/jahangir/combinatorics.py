"""Spanning-tree counting for J(n, m): the spoke-subset derivation and the
closed forms that production counts use.

Every spanning tree keeps a nonempty subset of the m spokes.  Fixing the k
kept spokes splits the rim into k arcs; a tree deletes exactly one rim edge
per arc, and an arc spanning a gap of g skipped spokes offers (g + 1) * n
choices.  Summing n^k * prod(gap_j + 1) over all k-subsets and all k gives
the count.  Subsets are grouped by their sorted gap vector (the signature)
since the product depends on nothing else.  class_census, class_contribution
and gap_transform keep this derivation; it walks all 2^m subsets, so only
tests call it, as the oracle for the closed forms below.

Signatures are multisets of gaps, not rotation classes: from m >= 6, k >= 3
two subsets that are not rotations of one another can share a signature
(m=6, {1,2,4} and {1,2,5} both give (0,1,2)).  Multiplicities count
combinations, so the totals are unaffected.

The census sums in closed form: the trees keeping k spokes number n^k * A_k
with A_k = (m/k) * C(m+k-1, 2k-1), and sigma(n, m) = L_m - 2 where L_0 = 2,
L_1 = n + 2 and L_m = (n + 2) L_{m-1} - L_{m-2}, stepped only in _totals:
sigma_total reads one value of it, sigma_table its first rows.  Only a
per-k breakdown needs sigma.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb, prod

from .errors import ParameterDomainError, require_int, require_ints, trusted


@dataclass(frozen=True)
class SpokeCombination:
    """A choice of k of the m spokes, indices strictly increasing in 1..m."""

    m: int
    k: int
    indices: tuple[int, ...]

    def __post_init__(self):
        require_int(self.m, 3, "m")
        require_int(self.k, 1, "k", self.m)
        object.__setattr__(self, "indices", require_ints(self.indices, 1, "index", self.m))
        if len(self.indices) != self.k:
            raise ParameterDomainError("index count does not match k")
        if list(self.indices) != sorted(set(self.indices)):
            raise ParameterDomainError("indices must be strictly increasing")


@dataclass(frozen=True)
class GapSignature:
    """Sorted vector of skipped-spoke counts between consecutive kept spokes."""

    k: int
    gaps: tuple[int, ...]

    def __post_init__(self):
        require_int(self.k, 1, "k")
        object.__setattr__(self, "gaps", require_ints(self.gaps, 0, "gap"))
        if len(self.gaps) != self.k:
            raise ParameterDomainError("gap count does not match k")
        if list(self.gaps) != sorted(self.gaps):
            raise ParameterDomainError("gaps must be sorted ascending")


@dataclass(frozen=True)
class TreeCountBreakdown:
    """sigma split by number of kept spokes: per_k[i] counts trees keeping i+1."""

    n: int
    m: int
    per_k: tuple[int, ...]
    total: int

    def __post_init__(self):
        require_int(self.n, 2, "n")
        require_int(self.m, 3, "m")
        object.__setattr__(self, "per_k", require_ints(self.per_k, 0, "per_k entry"))
        if len(self.per_k) != self.m:
            raise ParameterDomainError("per_k must have one entry per k = 1..m")
        require_int(self.total, 0, "total")
        if self.total != sum(self.per_k):
            raise ParameterDomainError("total does not equal the sum of per_k")


def _gaps(indices: tuple[int, ...], m: int) -> tuple[int, ...]:
    # raw gap vector in cyclic order, wrap gap last
    k = len(indices)
    out = [indices[j + 1] - indices[j] - 1 for j in range(k - 1)]
    out.append(indices[0] - indices[k - 1] + m - 1)
    return tuple(out)


def gap_transform(b: SpokeCombination) -> GapSignature:
    """Sorted gaps between cyclically consecutive chosen spokes.

    Gap j is the count of unchosen spokes strictly between chosen spoke j
    and the next chosen one going around the cycle; the k gaps sum to m - k.
    Rotating the combination leaves the result unchanged.
    """
    return trusted(GapSignature, b.k, tuple(sorted(_gaps(b.indices, b.m))))


def class_census(m: int, k: int) -> list[tuple[GapSignature, int]]:
    """Distinct gap signatures over all C(m, k) spoke combinations, with
    multiplicities, sorted by gap vector.  Multiplicities sum to C(m, k).
    The census streams through the combinations; nothing of size C(m, k)
    is ever materialized.
    """
    require_int(m, 3, "m")
    require_int(k, 1, "k", m)
    counts: dict[tuple[int, ...], int] = {}
    for combo in combinations(range(1, m + 1), k):
        sig = tuple(sorted(_gaps(combo, m)))
        counts[sig] = counts.get(sig, 0) + 1
    return [(trusted(GapSignature, k, gaps), mult) for gaps, mult in sorted(counts.items())]


def class_contribution(n: int, sig: GapSignature) -> int:
    """Trees per combination in the class: n^k * prod(gap + 1)."""
    require_int(n, 2, "n")
    return n ** sig.k * prod(g + 1 for g in sig.gaps)


def _coefficient(m: int, k: int) -> int:
    # A_k = (m/k) * C(m+k-1, 2k-1), the census sum of mult * prod(gap + 1)
    return m * comb(m + k - 1, 2 * k - 1) // k


def sigma_k(n: int, m: int, k: int) -> int:
    """Number of spanning trees of J(n, m) that keep exactly k spokes."""
    require_int(n, 2, "n")
    require_int(m, 3, "m")
    require_int(k, 1, "k", m)
    return n ** k * _coefficient(m, k)


def sigma(n: int, m: int) -> TreeCountBreakdown:
    """Spanning-tree count of J(n, m) with its per-k breakdown."""
    require_int(n, 2, "n")
    per_k = tuple(n ** k * a for k, a in enumerate(polynomial_coefficients(m), 1))
    return trusted(TreeCountBreakdown, n, m, per_k, sum(per_k))


def polynomial_coefficients(m: int) -> tuple[int, ...]:
    """Coefficients (A_1, ..., A_m) with sigma(n, m) == sum A_k * n^k.

    The leading coefficient is 1 and A_1 is m squared.  Built term by term,
    A_{k+1} = A_k * (m + k)(m - k) / (2(k + 1)(2k + 1)), the division exact.
    """
    require_int(m, 3, "m")
    coeffs = [m * m]
    for k in range(1, m):
        coeffs.append(coeffs[-1] * ((m + k) * (m - k)) // (2 * (k + 1) * (2 * k + 1)))
    return tuple(coeffs)


def _totals(n: int):
    # sigma(n, 3), sigma(n, 4), ... as L_m - 2, one recurrence step a row
    prev, cur = n + 2, (n + 2) ** 2 - 2  # L_1, L_2
    while True:
        prev, cur = cur, (n + 2) * cur - prev
        yield cur - 2


def sigma_total(n: int, m: int) -> int:
    """sigma(n, m) alone, in O(1) memory: the (m - 3)-th value of the recurrence."""
    require_int(n, 2, "n")
    require_int(m, 3, "m")
    return next(islice(_totals(n), m - 3, None))


def sigma_table(n: int, m_max: int) -> tuple[tuple[int, int], ...]:
    """Rows (m, sigma(n, m)) for m = 3..m_max, from one pass of the recurrence."""
    require_int(n, 2, "n")
    require_int(m_max, 3, "m_max")
    return tuple(zip(range(3, m_max + 1), _totals(n)))
