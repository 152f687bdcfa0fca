"""Cost evaluation of any partition: communication cost pi, computation
cost delta, average replication factor, the converse lower bound, and the
promised bounds a construction-produced partition must satisfy.

Counts are exact integers; ratios are double precision, and every
real-valued inequality is checked at tolerance TOL = 1e-9 (strict
inequalities are compared exactly)."""

from __future__ import annotations

import math

from .combinatorics import binomial
from .counting import phi_min, pi_lower_bound, pi_lower_bound_int
from .errors import DegenerateDenominator
from .design import DIVISIBLE, ICParameters, Partition, footprint_sizes
from .records import Record
from .tasks import GENERATOR_ID

TOL = 1e-9


def pi_of(p: Partition) -> int:
    """Communication cost: max over groups of distinct-file count.  0 for
    an all-empty partition."""
    return max(footprint_sizes(p), default=0)


def delta_of(p: Partition) -> float:
    """Computation cost: max group size over the ideal load ceil(|X|/N),
    N the number of groups.  0 when X is empty."""
    total = sum(len(g) for g in p.groups)
    if total == 0:
        return 0.0
    return max(len(g) for g in p.groups) / math.ceil(total / len(p.groups))


def arf_of(p: Partition) -> float:
    """Average replication factor: (1/n) * sum of group footprint sizes.
    Empty groups contribute 0."""
    return sum(footprint_sizes(p)) / p.n


class BoundCheck(Record):
    """One promised inequality: its value, whether this partition is in its
    scope, and whether it holds."""

    name: str
    value: float
    applicable: bool
    satisfied: bool | None
    detail: str = ""


class CostReport(Record):
    """Every metric of one partition plus the applicable promised bounds."""

    n: int
    d: int
    N: int
    case: str | None
    phi: float
    task_count: int
    pi: int
    delta: float
    arf: float
    pi_lb: float
    pi_lb_int: int
    gap: float
    bounds: tuple[BoundCheck, ...] = ()

    @property
    def bounds_ok(self) -> bool:
        return all(b.satisfied for b in self.bounds if b.applicable)

    def as_dict(self) -> dict:
        # the fields in declaration order, the bounds moved after bounds_ok
        out = {**self.__dict__, "bounds_ok": self.bounds_ok}
        out["bounds"] = [b.as_dict() for b in out.pop("bounds")]
        return out


def guarantee_regime(params: ICParameters) -> bool:
    """The parameter region where the constant-factor cost guarantees are
    promised: d <= n/32, N <= (0.9 * sqrt(n/d))^d, and k not clipped at n."""
    n, d, N = params.n, params.d, params.N
    return (
        not params.k_capped
        and d <= n / 32
        and N <= (0.9 * math.sqrt(n / d)) ** d + TOL
    )


def promised_bounds(
    params: ICParameters,
    phi: float,
    pi: int,
    delta: float,
    arf: float,
    random_x: bool,
) -> list[BoundCheck]:
    """The construction's cost bounds; delta_X <= 5 only for a random X (random_x)."""
    n, d, N = params.n, params.d, params.N
    checks: list[BoundCheck] = []

    cap = params.family_size * d + params.g  # g = 0 in the divisible case
    if params.case == DIVISIBLE:
        name, formula = "pi_le_sd", "s*d"
    else:
        name, formula = "pi_le_s0d_plus_g", "s0*d + g"
    checks.append(BoundCheck(name, cap, True, pi <= cap, f"max footprint vs {formula}"))

    regime = guarantee_regime(params)
    scaling = 4 * math.e * n / N ** (1.0 / d)
    checks.append(
        BoundCheck(
            "pi_le_4e_scaling", scaling, regime, pi <= scaling + TOL,
            "max footprint vs 4e*n/N^(1/d)",
        )
    )
    checks.append(
        BoundCheck(
            "delta_le_4", 4.0, regime and phi == 1.0, delta <= 4.0 + TOL,
            "balance of the complete task set",
        )
    )

    try:
        pm = phi_min(n, d, N)
        checks.append(
            BoundCheck(
                "delta_x_le_5", 5.0, random_x and regime and not pm.vacuous and phi >= pm.value,
                delta <= 5.0 + TOL,
                f"high-probability balance (phi_min={pm.value:.6g}"
                f"{', vacuous' if pm.vacuous else ''}); holds w.p. >= 1 - 1/n" if random_x
                else "X is not a random thinning",
            )
        )
    except DegenerateDenominator:
        checks.append(
            BoundCheck("delta_x_le_5", 5.0, False, None, "phi_min undefined here")
        )

    if d == 2:
        if params.case == DIVISIBLE:
            v = math.sqrt(2 * N)
            checks.append(
                BoundCheck(
                    "arf_lt_sqrt_2N", v, phi == 1.0, arf < v,
                    "replication factor, divisible case",
                )
            )
        elif N >= 3:
            v = 2 * math.sqrt(2 * N)
            checks.append(
                BoundCheck(
                    "arf_le_2sqrt_2N", v, phi == 1.0, arf <= v + TOL,
                    "replication factor, non-divisible case",
                )
            )
    return checks


def full_report(
    p: Partition,
    params: ICParameters | None = None,
    phi: float | None = None,
) -> CostReport:
    """Assemble every metric plus each applicable promised bound.

    phi defaults to the realized density |X| / C(n, d).  Bounds are only
    attached when the partition carries construction parameters; baseline
    partitions get the universal checks alone.
    """
    if params is None:
        params = p.params
    n, d, N = p.n, p.d, len(p.groups)
    task_count = sum(len(g) for g in p.groups)
    if phi is None:
        phi = task_count / binomial(n, d)

    sizes = footprint_sizes(p)  # one footprint per group serves pi and arf
    pi = max(sizes, default=0)
    delta = delta_of(p)
    arf = sum(sizes) / n

    if task_count > 0 and phi > 0:
        pi_lb = pi_lower_bound(n, d, N, min(phi, 1.0))
        pi_lb_int = pi_lower_bound_int(n, d, N, min(phi, 1.0))
        gap = pi / pi_lb
    else:
        pi_lb, pi_lb_int, gap = 0.0, 0, 0.0

    checks: list[BoundCheck] = []
    if task_count > 0:
        checks.append(
            BoundCheck(
                "pi_ge_lower_bound", pi_lb, True,
                pi >= pi_lb - TOL and pi >= pi_lb_int,
                "converse on any valid partition",
            )
        )
    arf_cap = N * pi / n
    checks.append(
        BoundCheck(
            "arf_le_N_pi_over_n", arf_cap, True, arf <= arf_cap + TOL,
            "replication never exceeds N*pi/n",
        )
    )
    if params is not None:
        random_x = (task_count == binomial(n, d)
                    or (p.metadata or {}).get("generator_id") == GENERATOR_ID)
        checks.extend(promised_bounds(params, phi, pi, delta, arf, random_x))

    return CostReport(
        n=n,
        d=d,
        N=N,
        case=params.case if params is not None else None,
        phi=phi,
        task_count=task_count,
        pi=pi,
        delta=delta,
        arf=arf,
        pi_lb=pi_lb,
        pi_lb_int=pi_lb_int,
        gap=gap,
        bounds=tuple(checks),
    )
