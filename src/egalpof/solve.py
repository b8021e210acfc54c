"""Exact welfare optimization under property filters by branch-and-bound,
and welfare-ratio computation with the 0/0 = 1 convention."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from math import prod
from operator import add
from typing import Callable, Iterator

from .model import (
    DEFAULT_ENUMERATION_CAP,
    Allocation,
    ExtendedValue,
    Instance,
    extended_ratio,
    iter_allocations_scaled,
    scaled_rows,
)
from .properties import is_balanced, is_ef1
from .roundrobin import BY_FREE_AND_UTILITIES, layered_rr_search


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
    """Exact optimum, its lexicographically smallest witness, and `explored`:
    the candidates the solve loop received. These are the allocations the
    branch-and-bound search reached, or for round-robin the final states of
    the layered search, one per distinct utility vector that some
    round-robin run reaches."""

    value: Fraction
    witness: Allocation
    explored: int


def enumerate_allocations(
    inst: Instance, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[Allocation]:
    """All n**m allocations as owner vectors in lexicographic order."""
    for owner, _ in iter_allocations_scaled(inst, cap):
        yield Allocation(inst.n, tuple(owner))


def _ceilings(rows: tuple[tuple[int, ...], ...]) -> dict[Callable, Callable[[list[int], int], int]]:
    """`ceilings[f](p, k)` bounds f over every allocation whose goods 1..k give
    the scaled utilities `p` from above: f of every agent taking all remaining
    goods (min, prod), or f of an equal split of the prefix total plus the
    remaining goods' top values (sum, where it is exact; prod)."""
    n = len(rows)
    suffix_sums = lambda values: list(accumulate(reversed(values), initial=0))[::-1]
    # rest[k][i]: agent i+1's value for goods k+1..m; top[k]: their top values
    rest = list(zip(*map(suffix_sums, rows)))
    top = suffix_sums(list(map(max, zip(*rows))))
    return {
        sum: lambda p, k: sum(p) + top[k],
        min: lambda p, k: min(map(add, p, rest[k])),
        # no split beats an equal one for Schur-concave prod; // is safe as products are integers
        prod: lambda p, k: min(prod(map(add, p, rest[k])), (sum(p) + top[k]) ** n // n**n),
    }


def max_welfare(
    inst: Instance,
    objective: Objective,
    prop: PropertyFilter = PropertyFilter.NONE,
    cap: int = DEFAULT_ENUMERATION_CAP,
    pruned: bool = False,
) -> SolveResult:
    """Exact optimum of `objective` over allocations satisfying `prop`.

    One loop keeps the first strict improvement of a key over a
    lexicographically ordered stream of candidates, so the witness is the
    lex-first optimum. The key is the objective, or the (filter welfare,
    objective) pair for the welfare-maximizer filters. For round-robin the
    stream is the sorted final states of `layered_rr_search` keyed by
    plan, free goods and utilities: each key keeps the lex-smallest
    owner vector, and states with the same key have the same completions,
    so the optimum and its lex-first witness survive the merging. Otherwise
    the stream is a branch-and-bound search that skips a prefix once a
    ceiling on the key over its completions is at or below the incumbent's,
    so nothing skipped could improve. EF1 and balancedness are checked
    only on improvements. `cap` bounds every search. `pruned` is accepted
    and ignored: every solve is pruned.
    """
    objective = Objective(objective)
    prop = PropertyFilter(prop)
    n = inst.n
    scale, rows = scaled_rows(inst)
    value = {Objective.EGALITARIAN: min, Objective.UTILITARIAN: sum, Objective.NASH: prod}[objective]
    key: Callable[[list[int]], object] = value
    accept: Callable[[tuple[int, ...]], bool] | None = None
    floor = [None]  # the incumbent's key, as the branch-and-bound search reads it
    if prop is PropertyFilter.ROUND_ROBIN:
        candidates = sorted(layered_rr_search(inst, BY_FREE_AND_UTILITIES, cap))
    else:
        ceilings = _ceilings(rows)
        ceiling = ceilings[value]
        if prop in (PropertyFilter.MAX_UTILITARIAN, PropertyFilter.MAX_NASH):
            welfare = sum if prop is PropertyFilter.MAX_UTILITARIAN else prod
            key = lambda util: (welfare(util), value(util))
            first, then = ceilings[welfare], ceiling
            ceiling = lambda prefix, k: (first(prefix, k), then(prefix, k))
        elif prop is PropertyFilter.EF1:
            accept = lambda owner: is_ef1(inst, Allocation(n, owner))
        elif prop is PropertyFilter.BALANCED:
            accept = lambda owner: is_balanced(Allocation(n, owner))
        candidates = iter_allocations_scaled(inst, cap, ceiling, floor)

    best = witness = None
    for explored, (owner, util) in enumerate(candidates, 1):
        score = key(util)
        if (best is None or score > best) and (accept is None or accept(tuple(owner))):
            best = floor[0] = score
            best_util = util[:]
            witness = tuple(owner)
    assert witness is not None
    # a product of n scaled utilities carries the scale n times
    scale **= n if objective is Objective.NASH else 1
    return SolveResult(Fraction(value(best_util), scale), Allocation(n, witness), explored)


def price_of_fairness(
    inst: Instance,
    prop: PropertyFilter,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> ExtendedValue:
    """Best egalitarian welfare divided by the best achievable under `prop`
    (0/0 evaluates to 1, positive/0 to infinity)."""
    unrestricted = max_welfare(inst, Objective.EGALITARIAN, PropertyFilter.NONE, cap)
    restricted = max_welfare(inst, Objective.EGALITARIAN, prop, cap)
    return extended_ratio(unrestricted.value, restricted.value)
