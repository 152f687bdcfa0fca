"""The paper's closed-form cardinalities of the support classes (public
API, which the construction does not read), the block allocation
arithmetic, the density threshold, and the communication-cost lower bound.

Conventions: f families of equal size (s in the divisible case, s0
otherwise) tile the leading file indices; g excluded files sit above them.
The support of a tuple is the set of families it touches; beta denotes the
support size.  All counts are exact integers.
"""

from __future__ import annotations

import math

from .combinatorics import as_text, binomial
from .errors import (
    BetaOutOfRange,
    DegenerateDenominator,
    IndexOutOfRange,
    InvalidPhi,
)
from .records import Record


def _covering_d_from(size: int, beta: int, d: int) -> int:
    # d-subsets of beta disjoint families of the given size touching all
    # beta of them: inclusion-exclusion over the families left empty
    return sum(
        (-1) ** (beta - i) * binomial(beta, i) * binomial(size * i, d)
        for i in range(beta + 1)
    )


def beta_range_interior(size: int, d: int) -> range:
    """Valid support sizes for tuples drawn from the families alone."""
    return range(-(-d // size), d + 1)


def t_beta(s: int, f: int, d: int, beta: int) -> int:
    """Number of d-tuples whose support equals one fixed beta-set of
    families, each family of size s.  Identical for every choice of the
    beta-set; t_beta(s, f, d, d) == s**d."""
    if beta not in beta_range_interior(s, d) or beta > f:
        raise BetaOutOfRange(
            f"beta={beta} outside [{-(-d // s)}, {d}] or exceeds f={f}"
        )
    return _covering_d_from(s, beta, d)


def card_C_beta(s: int, f: int, d: int, beta: int) -> int:
    """Number of d-tuples supported by exactly beta families in total:
    binomial(f, beta) * t_beta."""
    return binomial(f, beta) * t_beta(s, f, d, beta)


def m_beta(f: int, d: int, beta: int) -> int:
    """Number of eligible group labels: d-subsets of [f] containing one
    fixed beta-subset."""
    if beta < 0 or beta > d or d > f:
        raise BetaOutOfRange(f"need 0 <= beta <= d <= f, got {beta}, {d}, {f}")
    return binomial(f - beta, d - beta)


def beta_range_excluded(s0: int, g: int, d: int) -> range:
    """Valid support sizes for tuples touching the excluded tail."""
    lo = -(-max(0, d - g) // s0)
    return range(lo, d)


def card_R_beta_I(s0: int, f: int, g: int, d: int, beta: int) -> int:
    """Number of excluded d-tuples (>= 1 element above the families)
    supported by exactly one fixed beta-set of families of size s0.

    Splits on the number m of excluded elements; the remaining d - m
    elements must touch all beta families, counted by inclusion-exclusion
    with the same sign convention as t_beta.
    """
    rng = beta_range_excluded(s0, g, d)
    if beta not in rng or beta > f:
        raise BetaOutOfRange(
            f"beta={beta} outside [{rng.start}, {d - 1}] or exceeds f={f}"
        )
    total = 0
    for m in range(1, min(d - beta, g) + 1):
        total += binomial(g, m) * _covering_d_from(s0, beta, d - m)
    return total


def block_bounds(t: int, m: int, j: int) -> tuple[int, int]:
    """1-based inclusive bounds [start, end] of the j-th of m near-equal
    contiguous blocks tiling [1, t].

    The first t mod m blocks have size floor(t/m) + 1, the rest
    floor(t/m); an empty block has start > end.
    """
    if j < 1 or j > m:
        raise IndexOutOfRange(f"block index {j} outside [1, {m}]")
    q, r = divmod(t, m)
    start = (j - 1) * q + min(j - 1, r) + 1
    end = j * q + min(j, r)
    return start, end


def block_slices(items, m: int) -> list:
    """items cut into the m near-equal contiguous blocks of block_bounds,
    in order; a block past the last item is empty."""
    bounds = (block_bounds(len(items), m, j) for j in range(1, m + 1))
    return [items[start - 1 : end] for start, end in bounds]


def block_index(t: int, m: int, position: int) -> int:
    """Inverse of block_bounds: the j with start_j <= position <= end_j."""
    if position < 1 or position > t:
        raise IndexOutOfRange(f"position {position} outside [1, {t}]")
    q, r = divmod(t, m)
    boundary = r * (q + 1)
    if position <= boundary:
        return (position - 1) // (q + 1) + 1
    return r + (position - boundary - 1) // q + 1


class PhiMinResult(Record):
    """Density threshold plus a flag telling whether it exceeds 1, in which
    case the high-probability balance guarantee is silent."""

    value: float
    vacuous: bool


def phi_min(n: int, d: int, N: int) -> PhiMinResult:
    """Threshold density above which the refined partition keeps its
    balance guarantee: 96 N ln(2 N n) / (C(n, d) - 2^(d+2) N)."""
    denom = binomial(n, d) - (1 << (d + 2)) * N
    if denom <= 0:
        raise DegenerateDenominator(
            f"C({n},{d}) must exceed 2^{d + 2}*{N}; got margin {as_text(denom)}"
        )
    num, den = (96.0 * N * math.log(2 * N * n)).as_integer_ratio()  # exact past float range
    value = num / (den * denom)
    return PhiMinResult(value=value, vacuous=value > 1.0)


def pi_lower_bound(n: int, d: int, N: int, phi: float) -> float:
    """Converse on the communication cost of any N-way partition of a task
    set of density phi: phi^(1/d) * n / N^(1/d)."""
    if not 0.0 < phi <= 1.0:
        raise InvalidPhi(f"phi must lie in (0, 1], got {phi}")
    if N < 1:
        raise InvalidPhi(f"N must be >= 1, got {N}")
    return phi ** (1.0 / d) * n / N ** (1.0 / d)


def pi_lower_bound_int(n: int, d: int, N: int, phi: float) -> int:
    """Integer-feasible version of the converse: at least ceil of the real
    bound (with a 1e-9 guard against float noise) and never below d."""
    real = pi_lower_bound(n, d, N, phi)
    return max(d, math.ceil(real - 1e-9))
