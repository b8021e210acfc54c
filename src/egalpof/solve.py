"""Exhaustive (and optionally pruned) welfare optimization under property
filters, and welfare-ratio computation with the 0/0 = 1 convention."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import prod
from operator import add
from typing import Callable, Iterator

from .model import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_RR_BRANCH_CAP,
    Allocation,
    ExtendedValue,
    Instance,
    extended_ratio,
    iter_allocations_scaled,
    scaled_rows,
    scaled_utilities,
)
from .properties import is_balanced, is_ef1
from .roundrobin import enumerate_rr_allocations


class Objective(str, Enum):
    EGALITARIAN = "egalitarian"
    UTILITARIAN = "utilitarian"
    NASH = "nash"


class PropertyFilter(str, Enum):
    NONE = "none"
    EF1 = "ef1"
    BALANCED = "ba"
    ROUND_ROBIN = "rr"
    MAX_UTILITARIAN = "muw"
    MAX_NASH = "mnw"


@dataclass(frozen=True)
class SolveResult:
    """Exact optimum, its lexicographically smallest witness, and the number
    of candidate allocations examined.

    What `explored` counts depends on the path: n**m for the none, ef1 and ba
    filters; 2 * n**m for muw and mnw (one pass finds the welfare maximum,
    one optimizes over its argmax set); the leaves reached by the pruned
    search; and the distinct round-robin outcomes for rr.
    """

    value: Fraction
    witness: Allocation
    explored: int


def enumerate_allocations(
    inst: Instance, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[Allocation]:
    """All n**m allocations as owner vectors in lexicographic order."""
    for owner, _ in iter_allocations_scaled(inst, cap):
        yield Allocation(inst.n, tuple(owner))


def _scaled_objective(objective: Objective) -> Callable[[list[int]], int]:
    if objective is Objective.EGALITARIAN:
        return min
    if objective is Objective.UTILITARIAN:
        return sum
    return prod


def _true_value(objective: Objective, scaled: int, scale: int, n: int) -> Fraction:
    if objective is Objective.NASH:
        return Fraction(scaled, scale**n)
    return Fraction(scaled, scale)


def max_welfare(
    inst: Instance,
    objective: Objective,
    prop: PropertyFilter = PropertyFilter.NONE,
    cap: int = DEFAULT_ENUMERATION_CAP,
    rr_cap: int = DEFAULT_RR_BRANCH_CAP,
    pruned: bool = False,
) -> SolveResult:
    """Exact optimum of `objective` over allocations satisfying `prop`.

    One loop keeps the first strict improvement over a lexicographically
    ordered stream of candidates, so the witness is the lex-first optimum.
    EF1 and balancedness are checked only on improvements. The
    welfare-maximizer filters first compute that welfare's global maximum
    and then stream its argmax set. `pruned` enables branch-and-bound for
    the plain egalitarian objective; results are identical to the
    exhaustive scan.
    """
    objective = Objective(objective)
    prop = PropertyFilter(prop)
    if pruned and (objective, prop) != (Objective.EGALITARIAN, PropertyFilter.NONE):
        raise ValueError("pruning only applies to the unfiltered egalitarian solve")

    n, m = inst.n, inst.m
    scale, rows = scaled_rows(inst)
    value = _scaled_objective(objective)
    accept: Callable[[tuple[int, ...]], bool] | None = None
    skipped = 0  # leaves below prefixes the pruned search rejected
    best: int | None = None
    if prop is PropertyFilter.ROUND_ROBIN:
        outcomes = enumerate_rr_allocations(inst, rr_cap)  # lexicographic
        candidates = ((a.owner, scaled_utilities(rows, n, a.owner)) for a in outcomes)
        explored = len(outcomes)
    elif prop in (PropertyFilter.MAX_UTILITARIAN, PropertyFilter.MAX_NASH):
        welfare = sum if prop is PropertyFilter.MAX_UTILITARIAN else prod
        top = max(welfare(util) for _, util in iter_allocations_scaled(inst, cap))
        candidates = (
            (owner, util)
            for owner, util in iter_allocations_scaled(inst, cap)
            if welfare(util) == top
        )
        explored = 2 * n**m
    elif pruned:
        # rest[k][i]: the most agent i+1 can still gain from goods k+1..m
        rest = [tuple(sum(row[k:]) for row in rows) for k in range(m + 1)]

        def cannot_improve(prefix: list[int], k: int) -> bool:
            nonlocal skipped
            if best is not None and min(map(add, prefix, rest[k])) <= best:
                skipped += n ** (m - k)
                return True
            return False

        candidates = iter_allocations_scaled(inst, cap, prune=cannot_improve)
        explored = n**m
    else:
        candidates = iter_allocations_scaled(inst, cap)
        explored = n**m
        if prop is PropertyFilter.EF1:
            accept = lambda owner: is_ef1(inst, Allocation(n, owner))
        elif prop is PropertyFilter.BALANCED:
            accept = lambda owner: is_balanced(Allocation(n, owner))

    witness: tuple[int, ...] | None = None
    for owner, util in candidates:
        v = value(util)
        if (best is None or v > best) and (accept is None or accept(tuple(owner))):
            best = v
            witness = tuple(owner)
    assert best is not None and witness is not None
    return SolveResult(
        value=_true_value(objective, best, scale, n),
        witness=Allocation(n, witness),
        explored=explored - skipped,
    )


def price_of_fairness(
    inst: Instance,
    prop: PropertyFilter,
    cap: int = DEFAULT_ENUMERATION_CAP,
    rr_cap: int = DEFAULT_RR_BRANCH_CAP,
) -> ExtendedValue:
    """Best egalitarian welfare divided by the best achievable under `prop`
    (0/0 evaluates to 1, positive/0 to infinity)."""
    unrestricted = max_welfare(inst, Objective.EGALITARIAN, PropertyFilter.NONE, cap)
    restricted = max_welfare(inst, Objective.EGALITARIAN, prop, cap, rr_cap)
    return extended_ratio(unrestricted.value, restricted.value)
