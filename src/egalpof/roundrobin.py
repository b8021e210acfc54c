"""The round-robin picking algorithm, its full outcome set, and the
constructive procedures that round arbitrary allocations into balanced or
round-robin ones with bounded egalitarian loss."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from .errors import BudgetExceeded, EmptyBundle, PreconditionViolated
from .model import (
    DEFAULT_ENUMERATION_CAP,
    Allocation,
    Instance,
    _check_pair,
    scaled_rows,
    scaled_utilities,
)
from .properties import envy_graph, strictly_dominates, weakly_dominates


@dataclass(frozen=True)
class RRSchedule:
    """Agent ordering plus per-agent strict priority over goods.

    priority[i-1] lists agent i's goods from most to least preferred and
    must refine her utility order: a good never appears after one she
    values strictly less.
    """

    ordering: tuple[int, ...]
    priority: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class RRTrace:
    """The picks (round, agent, good) of one round-robin run plus the result."""

    picks: tuple[tuple[int, int, int], ...]
    allocation: Allocation


def priority_order(
    inst: Instance, agent: int, prefer: int | None = None
) -> tuple[int, ...]:
    """Goods sorted by descending utility; `prefer` jumps to the front of its
    utility-tie class; remaining ties fall back to ascending good index."""
    row = inst.u[agent - 1]
    return tuple(
        sorted(
            inst.goods(),
            key=lambda g: (-row[g - 1], 0 if g == prefer else 1, g),
        )
    )


def default_schedule(
    inst: Instance,
    ordering: tuple[int, ...] | None = None,
    prefer: Mapping[int, int] | None = None,
) -> RRSchedule:
    if ordering is None:
        ordering = tuple(inst.agents())
    prefer = prefer or {}
    priority = tuple(
        priority_order(inst, i, prefer.get(i)) for i in inst.agents()
    )
    return RRSchedule(tuple(ordering), priority)


def _check_schedule(inst: Instance, sched: RRSchedule) -> None:
    if sorted(sched.ordering) != list(inst.agents()):
        raise ValueError("ordering is not a permutation of the agents")
    if len(sched.priority) != inst.n:
        raise ValueError("need one priority order per agent")
    for i, prio in enumerate(sched.priority, start=1):
        if sorted(prio) != list(inst.goods()):
            raise ValueError(f"agent {i}'s priority is not a permutation of goods")
        row = inst.u[i - 1]
        for g, h in zip(prio, prio[1:]):
            if row[g - 1] < row[h - 1]:
                raise ValueError(f"agent {i}'s priority does not refine her utilities")


def run_round_robin(inst: Instance, sched: RRSchedule) -> RRTrace:
    """Cycle through the ordering; each picker takes her highest-priority
    remaining good (equivalently: utility-maximal, ties by the schedule)."""
    _check_schedule(inst, sched)
    remaining = [True] * (inst.m + 1)
    cursor = [0] * (inst.n + 1)  # per-agent position in her priority list
    owner = [0] * inst.m
    picks: list[tuple[int, int, int]] = []
    for k in range(inst.m):
        agent = sched.ordering[k % inst.n]
        prio = sched.priority[agent - 1]
        pos = cursor[agent]
        while not remaining[prio[pos]]:
            pos += 1
        cursor[agent] = pos + 1
        good = prio[pos]
        remaining[good] = False
        owner[good - 1] = agent
        picks.append((k // inst.n + 1, agent, good))
    return RRTrace(tuple(picks), Allocation(inst.n, tuple(owner)))


def enumerate_rr_allocations(
    inst: Instance, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[Allocation]:
    """Every allocation some (ordering, tiebreak) pair can produce.

    Only the first min(n, m) pickers of an ordering ever pick, so for each
    ordering of those pickers, builds the distinct partial allocations one
    pick at a time: each extends by every remaining good tied for the
    picker's maximum utility. `cap` bounds the number of these partial
    allocations, summed over the orderings; BudgetExceeded fires at the
    first one over it. Returns the outcomes in lexicographic owner order.
    """
    _, rows = scaled_rows(inst)
    n, m = inst.n, inst.m
    outcomes: set[tuple[int, ...]] = set()
    states = 0
    for ordering in itertools.permutations(inst.agents(), min(n, m)):
        # partial owner vector (0 = still free) -> its free 0-based goods
        layer = {(0,) * m: tuple(range(m))}
        for k in range(m):
            agent = ordering[k % n]
            row = rows[agent - 1]
            after: dict[tuple[int, ...], tuple[int, ...]] = {}
            for owner, free in layer.items():
                top = max(map(row.__getitem__, free))
                for i, g in enumerate(free):
                    if row[g] == top:
                        child = owner[:g] + (agent,) + owner[g + 1 :]
                        if child not in after:
                            states += 1
                            if states > cap:
                                raise BudgetExceeded(cap + 1, cap)
                            after[child] = free[:i] + free[i + 1 :]
            layer = after
        outcomes.update(layer)
    return [Allocation(n, o) for o in sorted(outcomes)]


def is_rr(inst: Instance, alloc: Allocation, cap: int = DEFAULT_ENUMERATION_CAP) -> bool:
    _check_pair(inst, alloc)
    return alloc in enumerate_rr_allocations(inst, cap)


def _ranked_bundles(inst: Instance, alloc: Allocation) -> list[tuple[int, ...]]:
    """Each agent's bundle, most valuable good first, in her priority order."""
    return [
        tuple(g for g in priority_order(inst, i) if alloc.owner[g - 1] == i)
        for i in inst.agents()
    ]


def balanced_from_mew(inst: Instance, alloc: Allocation) -> Allocation:
    """Round any allocation into a balanced one, each agent keeping her most
    valuable q = ceil(m/n) goods (at most r = m mod n agents may keep q,
    larger original bundles first, ties by agent index). Leftover goods fill
    agents below quota in ascending index. Guarantees every agent keeps at
    least 1/n of her original bundle value.
    """
    _check_pair(inst, alloc)
    n, m = inst.n, inst.m
    q = -(-m // n)  # exact ceiling, no float division
    r = m % n or n
    ranked = _ranked_bundles(inst, alloc)
    sizes = [len(b) for b in ranked]

    candidates = sorted(
        (i for i in range(n) if sizes[i] >= q), key=lambda i: (-sizes[i], i)
    )
    keeps_q = set(candidates[:r])
    # a bundle below quota has at most q - 1 goods, so it is kept whole
    keep = [list(ranked[i][: q if i in keeps_q else q - 1]) for i in range(n)]

    target = [q - 1] * n
    slots = r
    for i in sorted(keeps_q):
        target[i] = q
        slots -= 1
    for i in range(n):
        if slots == 0:
            break
        if i not in keeps_q:
            target[i] = q
            slots -= 1

    kept = {g for goods in keep for g in goods}
    pool = [g for g in inst.goods() if g not in kept]
    for i in range(n):
        while len(keep[i]) < target[i]:
            keep[i].append(pool.pop(0))
    assert not pool

    owner = [0] * m
    for i in range(n):
        for g in keep[i]:
            owner[g - 1] = i + 1
    return Allocation(n, tuple(owner))


def dominating_rr_one_good(
    inst: Instance, alloc: Allocation
) -> tuple[Allocation, RRSchedule]:
    """For m = n and a one-good-each allocation, return a round-robin
    producible allocation weakly dominating it, plus a schedule replaying it.

    Picks a maximal element (under strong domination) of the finite set of
    one-good-each allocations weakly dominating the input, scanning
    lexicographically; its envy graph is then acyclic, and running
    round-robin in reverse topological order with each agent's own good
    boosted within its tie class reproduces it exactly.
    """
    _check_pair(inst, alloc)
    if inst.m != inst.n:
        raise PreconditionViolated(f"need m = n, got m={inst.m}, n={inst.n}")
    if any(s != 1 for s in alloc.sizes()):
        raise PreconditionViolated("every agent must hold exactly one good")

    _, rows = scaled_rows(inst)
    base = scaled_utilities(rows, inst.n, alloc.owner)
    dominating = []
    # permutations of the agents = owner vectors of all one-good-each
    # allocations, already in lexicographic order
    for p in itertools.permutations(inst.agents()):
        util = scaled_utilities(rows, inst.n, p)
        if weakly_dominates(util, base):
            dominating.append((p, util))

    current, cur_util = alloc.owner, base
    improved = True
    while improved:
        improved = False
        for cand, util in dominating:
            if strictly_dominates(util, cur_util):
                current, cur_util = cand, util
                improved = True
                break

    result = Allocation(inst.n, current)
    order = envy_graph(inst, result).topological_order()
    ordering = tuple(reversed(order))
    assigned = {a: j + 1 for j, a in enumerate(current)}
    sched = default_schedule(inst, ordering=ordering, prefer=assigned)
    return result, sched


def rr_from_mew(inst: Instance, alloc: Allocation) -> tuple[Allocation, RRSchedule]:
    """Round any all-bundles-nonempty allocation into a round-robin one whose
    egalitarian welfare is at least a 1/(2n-1) share of the original.

    Each agent's most valuable own good seeds a reduced instance on those n
    goods (utilities restricted, deliberately not re-normalized); the
    one-good dominator found there fixes the ordering and the per-agent
    boosted good for the full run.
    """
    _check_pair(inst, alloc)
    ranked = _ranked_bundles(inst, alloc)
    for i, b in enumerate(ranked, start=1):
        if not b:
            raise EmptyBundle(i)
    best_good = [b[0] for b in ranked]

    reduced_goods = sorted(best_good)
    reduced_u = tuple(
        tuple(inst.u[i][g - 1] for g in reduced_goods) for i in range(inst.n)
    )
    reduced = Instance(inst.n, inst.n, reduced_u)
    reduced_owner = tuple(
        best_good.index(g) + 1 for g in reduced_goods
    )
    dominator, reduced_sched = dominating_rr_one_good(
        reduced, Allocation(inst.n, reduced_owner)
    )
    prefer = {
        a: reduced_goods[k] for k, a in enumerate(dominator.owner)
    }
    sched = default_schedule(inst, ordering=reduced_sched.ordering, prefer=prefer)
    return run_round_robin(inst, sched).allocation, sched
