"""Exact welfare optimization under property filters by branch-and-bound,
and welfare-ratio computation with the 0/0 = 1 convention."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from math import prod
from operator import add, gt, sub
from typing import Callable

from .model import (
    DEFAULT_ENUMERATION_CAP,
    Allocation,
    Ceiling,
    ExtendedValue,
    Instance,
    extended_ratio,
    iter_allocations_scaled,
    scaled_rows,
)
from .roundrobin import layered_rr_search


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
    the candidates the solve loop received. These are the canonical
    allocations the branch-and-bound search reached, one per class of
    allocations that differ only by permuting identical goods, or for
    round-robin the final states of the layered search, one per distinct
    utility vector that some round-robin run reaches."""

    value: Fraction
    witness: Allocation
    explored: int


def _ceilings(rows: tuple[tuple[int, ...], ...]) -> tuple[list, dict[Callable, Ceiling]]:
    """`rest[k][i]`, agent i+1's value for goods k+1..m, and `ceilings[f]`,
    which bounds f from above over every allocation whose goods 1..k give
    the scaled utilities `p`: f of every agent taking all remaining goods
    (min, prod), or f of an equal split of the prefix total plus the
    remaining goods' top values (sum, where it is exact; prod)."""
    n = len(rows)
    suffix_sums = lambda values: list(accumulate(reversed(values), initial=0))[::-1]
    rest = list(zip(*map(suffix_sums, rows)))
    top = suffix_sums(list(map(max, zip(*rows))))
    return rest, {
        sum: lambda _, p, k: sum(p) + top[k],
        min: lambda _, p, k: min(map(add, p, rest[k])),
        # no split beats an equal one for Schur-concave prod; // is safe as products are integers
        prod: lambda _, p, k: min(prod(map(add, p, rest[k])), (sum(p) + top[k]) ** n // n**n),
    }


def _count_ceiling(rows: tuple[tuple[int, ...], ...], ceiling: Ceiling, floor: list) -> Ceiling:
    """The egalitarian key passes f = floor[0] only if every agent i with
    p_i <= f gains f + 1 - p_i, which takes at least ceil((f + 1 - p_i) /
    M_i) of the m - k remaining goods, M_i being its largest value among
    them. When these counts sum past m - k, every completion's key is at
    most f, so f bounds them. Every other prefix gets `ceiling`, the `min`
    ceiling of all remaining goods to each agent; the count is not taken
    when that ceiling is already at or below f (so M_i > 0 wherever it is
    taken) or when no agent is at or below f."""
    m = len(rows[0])
    suffix_max = lambda values: list(accumulate(reversed(values), max, initial=0))[::-1]
    top = []  # top[k][i]: agent i+1's largest value among goods k+1..m, built on first use

    def count(owner, util, k):
        bound = ceiling(owner, util, k)
        f = floor[0]
        if bound <= f or min(util) > f:
            return bound
        if not top:
            top[:] = zip(*map(suffix_max, rows))
        need = 0
        for p, t in zip(util, top[k]):
            if p <= f:
                need -= (p - f - 1) // t  # ceil((f + 1 - p) / t)
        return f if need > m - k else bound

    return count


# The filter ceilings below return -1, under every key, for a prefix that no
# admissible allocation extends, and at k = m, where they are exact, for an
# allocation the filter rejects. They keep one row of state per depth and
# read the parent's, which the search asked about just before.


def _balanced_ceiling(
    rows: tuple[tuple[int, ...], ...], ceiling: Ceiling, egalitarian: bool
) -> Ceiling:
    """Balanced allocations give every agent at most q = ceil(m/n) goods,
    and q to at most m mod n agents when n does not divide m; a prefix
    within both limits has a balanced completion, and is balanced at k = m.
    For the egalitarian key agent i, holding c_i goods, gains at most its
    q - c_i best remaining values; other keys keep `ceiling`."""
    n, m = len(rows), len(rows[0])
    q = -(-m // n)
    full = m % n or n  # agents that may end with q goods
    counts = [[0] * n for _ in range(m + 1)]  # counts[k][i]: agent i+1's goods in owner[:k]
    at_q = [0] * (m + 1)  # agents holding q goods in owner[:k]
    if egalitarian:
        # room[k][i][c]: the sum of agent i+1's q - c best values among goods k+1..m
        top_q = lambda values: (sorted(values, reverse=True) + [0] * q)[:q]
        room = [[list(accumulate(top_q(row[k:]), initial=0))[::-1] for row in rows] for k in range(m + 1)]

    def balanced(owner, util, k):
        held = counts[k]
        held[:] = counts[k - 1]
        a = owner[k - 1] - 1
        held[a] += 1
        at_q[k] = at_q[k - 1] + (held[a] == q)
        if held[a] > q or at_q[k] > full:
            return -1
        if egalitarian:
            return min(p + r[c] for p, r, c in zip(util, room[k], held))
        return ceiling(owner, util, k)

    return balanced


def _ef1_ceiling(rows: tuple[tuple[int, ...], ...], rest: list, ceiling: Ceiling, floor: list) -> Ceiling:
    """A pair (i, j) with u_i(A_j) - max_{g in A_j} u_i(g) > u_i(A_i) +
    u_i(goods k+1..m) rules out every completion: the left side never falls
    as A_j grows, and the right side bounds agent i's final utility. At
    k = m this is the EF1 test itself. A kept prefix gets `ceiling`.

    `bundles[k]` holds, for bundle j of owner[:k], every agent's value for
    it at j and for its best good at n + j; the new good changes only its
    owner's two entries. `envy[k][i]` is agent i's largest left side."""
    n, m = len(rows), len(rows[0])
    goods = list(zip(*rows))  # goods[g][i]: agent i+1's value for good g+1
    bundles = [[(0,) * n] * (2 * n) for _ in range(m + 1)]
    envy = [(0,) * n] * (m + 1)

    def ef1(owner, util, k):
        bound = ceiling(owner, util, k)
        if bound <= floor[0]:
            return bound  # skipped: no extension reads this depth's rows
        a = owner[k - 1] - 1
        good = goods[k - 1]
        held = bundles[k]
        held[:] = bundles[k - 1]
        worth = held[a] = tuple(map(add, held[a], good))
        best = held[n + a] = tuple(map(max, held[n + a], good))
        # agent a's entry also counts its own bundle, which is at most
        # util[a], a value that never falls, so it rejects nothing
        left = envy[k] = tuple(map(max, envy[k - 1], map(sub, worth, best)))
        return -1 if any(map(gt, left, map(add, util, rest[k]))) else bound

    return ef1


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
    stream is the sorted final states of `layered_rr_search` with `merge`:
    one per utility vector reached, the lex-first outcome with it. States
    with the same key have the same completions, and the one kept gives
    every completion a lex-smaller class-sorted owner vector; each final
    state's owner vector is class-sorted, the lex-first of its mirror
    allocations, so the optimum and its lex-first witness survive both the
    twin skip and the merging. Otherwise
    the stream is the canonical allocations of `iter_allocations_scaled`,
    which keep both as every key and filter is invariant under permuting
    identical goods, in a branch-and-bound search that skips a prefix once a
    ceiling on the key over its completions is at or below the incumbent's,
    so nothing skipped could improve. The floor starts at -1, under every
    key of nonnegative utilities, which every `Instance` has, so every
    prefix entered is asked. The unfiltered egalitarian solve also counts
    the goods its lowest agents need (`_count_ceiling`). For EF1 and
    balancedness the filter's ceiling also skips each prefix that no
    admissible allocation extends. Asked at k = m about an improving
    allocation, whose key is its own ceiling, it is -1 exactly when the
    filter rejects it. `cap` bounds every search. `pruned` is accepted and
    ignored: every solve is pruned.
    """
    objective = Objective(objective)
    prop = PropertyFilter(prop)
    n, m = inst.n, inst.m
    scale, rows = scaled_rows(inst)
    value = {Objective.EGALITARIAN: min, Objective.UTILITARIAN: sum, Objective.NASH: prod}[objective]
    key: Callable[[list[int]], object] = value
    judge: Ceiling | None = None  # the filter's ceiling, asked at k = m
    pair = prop in (PropertyFilter.MAX_UTILITARIAN, PropertyFilter.MAX_NASH)
    floor = [(-1, -1) if pair else -1]  # the incumbent's key, under every key until there is one
    if prop is PropertyFilter.ROUND_ROBIN:
        candidates = sorted(layered_rr_search(inst, True, cap))
    else:
        rest, ceilings = _ceilings(rows)
        ceiling = ceilings[value]
        if pair:
            welfare = sum if prop is PropertyFilter.MAX_UTILITARIAN else prod
            key = lambda util: (welfare(util), value(util))
            first, then = ceilings[welfare], ceiling
            ceiling = lambda owner, prefix, k: (first(owner, prefix, k), then(owner, prefix, k))
        elif value is min and prop is PropertyFilter.NONE:
            ceiling = _count_ceiling(rows, ceiling, floor)
        elif m and prop is PropertyFilter.EF1:  # m = 0 has no last good to read
            ceiling = judge = _ef1_ceiling(rows, rest, ceiling, floor)
        elif m and prop is PropertyFilter.BALANCED:
            ceiling = judge = _balanced_ceiling(rows, ceiling, value is min)
        candidates = iter_allocations_scaled(inst, cap, ceiling, floor)

    witness = None
    for explored, (owner, util) in enumerate(candidates, 1):
        score = key(util)
        if score > floor[0] and (judge is None or judge(owner, util, m) != -1):
            floor[0] = score
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
