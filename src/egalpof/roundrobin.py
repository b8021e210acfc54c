"""The round-robin picking algorithm, a layered search over its outcomes,
and the constructive procedures that round arbitrary allocations into
balanced or round-robin ones with bounded egalitarian loss."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from .errors import BudgetExceeded, EmptyBundle, PreconditionViolated
from .model import (
    DEFAULT_ENUMERATION_CAP,
    Allocation,
    Instance,
    _check_pair,
    _identical,
    mirror_allocations,
    scaled_rows,
    scaled_utilities,
)
from .properties import envy_graph, weakly_dominates


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
    row = scaled_rows(inst)[1][agent - 1]
    # the sort is stable, so ties keep ascending good index
    return tuple(sorted(inst.goods(), key=lambda g: (-row[g - 1], g != prefer)))


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


def layered_rr_search(
    inst: Instance,
    merge: bool,
    cap: int = DEFAULT_ENUMERATION_CAP,
    target: Sequence[int] | None = None,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The final (owner, per-agent scaled utilities) states of round-robin,
    built one pick per layer.

    A state is a tuple (plan, owner, tag, util): the part of the agent
    ordering that the rest of the run depends on, the partial owner vector
    (0 = still free), the merge tag and the scaled utilities. Of the
    first-round pickers, the first `again` pick again: min(n, m - n), or
    none when m <= n. During the first round the plan is the agents that
    have picked, the first `again` in pick order and the rest sorted, and
    the next picker is any agent not in it. From the first round's last
    pick on, the plan is the next min(n, picks left) pickers: the picker is
    `plan[0]` and the plan rotates by one, so every final plan is ().
    States thus merge once their futures agree; when m >= 2n the middle
    rounds still carry the whole first-round order.

    A state extends by every free good tied for the picker's top utility,
    or with `target` only by those the picker owns in `target`. Of a class
    of identical goods (`_identical` of the columns; with `target`, of each
    good's column and owner there) the picker takes only the lowest-index
    free one, so a class's taken goods are its first ones, and the owner
    vector keeps their owners sorted: states that differ only in which twin
    was taken collapse. Each layer keeps one state per key, the one with
    the lexicographically smallest owner vector. The key is (plan, owner)
    or, with `merge`, (plan, tag, utilities). The tag's low m bits are the
    free goods; with `merge`, its higher bits count, per class of two or
    more goods and per agent, the class's goods the agent holds, which
    fixes the owners of those goods. States equal on that key have the same
    completions, which only fill free goods and sort new pickers into
    classes, so the owners where they differ stay as they are and their
    completed vectors compare the way they do. After the last pick no good
    is free and no class is open, so the merge key drops the tag there.
    `cap` bounds the states kept summed over the layers; BudgetExceeded
    fires at the first one over it.
    """
    (_, rows), twins, classes = inst._scaled
    if target is not None:  # identical goods with the same owner in `target`
        twins, _ = _identical(zip(zip(*rows), target))
    n, m = inst.n, inst.m
    agents = inst.agents()
    again = min(n, max(m - n, 0))
    # each agent's 0-based goods, most valuable first
    ranked = [[g - 1 for g in priority_order(inst, i)] for i in agents]
    # step[a][g]: what agent a + 1 taking good g adds to the tag
    taken = [-(1 << g) for g in range(m)]
    step = [taken] * n
    if merge and classes:  # then count each agent's goods per class
        step = [taken[:] for _ in agents]
        bit = m
        for goods in classes:
            for counts in step:
                for h in goods:
                    counts[h] += 1 << bit
                bit += len(goods).bit_length()

    def moves(plan: tuple[int, ...], k: int) -> list[tuple[int, tuple[int, ...]]]:
        """The (picker, next plan) pairs of pick k from `plan`."""
        if k >= n:
            return [(plan[0], (plan[1:] + plan[:1])[: m - k - 1])]
        pairs = []
        for a in agents:
            if a not in plan:
                picked = plan + (a,)
                # after the first round's last pick only those who pick again stay
                rest = () if k == min(n, m) - 1 else tuple(sorted(picked[again:]))
                pairs.append((a, picked[:again] + rest))
        return pairs

    layer = [((), (0,) * m, (1 << m) - 1, (0,) * n)]
    states = 0
    for k in range(m):
        after: dict[Hashable, tuple] = {}
        # one list per plan, so the states of a plan share their next plans
        moves_of: dict[tuple, list] = {}
        for plan, owner, tag, util in layer:
            if plan not in moves_of:
                moves_of[plan] = moves(plan, k)
            for agent, next_plan in moves_of[plan]:
                row, steps = rows[agent - 1], step[agent - 1]
                top = None
                for g in ranked[agent - 1]:
                    if owner[g]:
                        continue
                    if top is None:
                        top = row[g]
                        gained = util[: agent - 1] + (util[agent - 1] + top,) + util[agent:]
                    elif row[g] != top:
                        break
                    if target is not None and target[g] != agent:
                        continue
                    t = twins[g]
                    if t is not None and not owner[t]:
                        continue  # an earlier twin is still free
                    # sort the agent in among its class's taken goods
                    slots = list(owner)
                    j = g
                    while t is not None and slots[t] > agent:
                        slots[j] = slots[t]
                        j, t = t, twins[t]
                    slots[j] = agent
                    child = tuple(slots)
                    new = (next_plan, child, tag + steps[g], gained)
                    if not merge:
                        at = (next_plan, child)
                    elif k < m - 1:
                        at = (next_plan, new[2], gained)
                    else:
                        at = (next_plan, gained)
                    held = after.setdefault(at, new)
                    if held is new:
                        states += 1
                        if states > cap:
                            raise BudgetExceeded(cap + 1, cap)
                    elif child < held[1]:
                        after[at] = new
        layer = after.values()
    return [(owner, util) for _, owner, _, util in layer]


def enumerate_rr_allocations(
    inst: Instance, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[Allocation]:
    """Every allocation some (ordering, tiebreak) pair can produce, in
    lexicographic owner order.

    Runs `layered_rr_search` without `merge`, one state per (plan, owner
    vector). Every final plan is (), so its final states are the outcomes
    whose classes of identical goods hold sorted owners. Permuting
    identical goods maps outcomes to outcomes (they tie for every agent, so
    swapped tiebreaks replay the run), so `mirror_allocations` lists every
    ordering of each class's owners too. `cap` bounds the search's states
    and, separately, the outcomes listed.
    """
    owners = [owner for owner, _ in layered_rr_search(inst, False, cap)]
    return [Allocation(inst.n, owner) for owner in mirror_allocations(inst, owners, cap)]


def is_rr(inst: Instance, alloc: Allocation, cap: int = DEFAULT_ENUMERATION_CAP) -> bool:
    """Whether some (ordering, tiebreak) pair produces `alloc`: a layered
    search in which every picker may take only a top free good that it owns
    in `alloc` reaches a complete allocation."""
    _check_pair(inst, alloc)
    return bool(layered_rr_search(inst, False, cap, alloc.owner))


def _ranked_bundles(inst: Instance, alloc: Allocation) -> list[tuple[int, ...]]:
    """Each agent's bundle, most valuable good first, in her priority order."""
    _, rows = scaled_rows(inst)
    # the sort is stable on ascending goods, so ties keep index order
    return [
        tuple(sorted(bundle, key=lambda g: -row[g - 1]))
        for row, bundle in zip(rows, alloc.bundles())
    ]


def balanced_from_mew(inst: Instance, alloc: Allocation) -> Allocation:
    """Round any allocation into a balanced one, each agent keeping her most
    valuable q = ceil(m/n) goods (at most r = m mod n agents may keep q,
    larger original bundles first, ties by agent index). The free goods, in
    ascending order, fill agents below quota in ascending index. Guarantees
    every agent keeps at least 1/n of her original bundle value.
    """
    _check_pair(inst, alloc)
    n, m = inst.n, inst.m
    q = -(-m // n)  # exact ceiling, no float division
    r = m % n or n
    ranked = _ranked_bundles(inst, alloc)
    sizes = [len(b) for b in ranked]

    # the first r agents get quota q and the rest q - 1: agents holding at
    # least q goods first, larger bundles first, then the rest by index
    order = sorted(range(n), key=lambda i: (-sizes[i], i) if sizes[i] >= q else (0, i))
    target = [q - 1] * n
    for i in order[:r]:
        target[i] = q
    # a bundle below quota has at most q - 1 goods, so it is kept whole
    owner = [0] * m
    for i in range(n):
        for g in ranked[i][: target[i]]:
            owner[g - 1] = i + 1
    # the quotas sum to m, so the free goods fill them exactly
    free = iter([g for g in range(m) if not owner[g]])
    for i in range(n):
        for _ in range(target[i] - sizes[i]):  # empty for a bundle at or over quota
            owner[next(free)] = i + 1
    return Allocation(n, tuple(owner))


def dominating_rr_one_good(
    inst: Instance, alloc: Allocation
) -> tuple[Allocation, RRSchedule]:
    """For m = n and a one-good-each allocation, return a round-robin
    producible allocation weakly dominating it, plus a schedule replaying it.

    Scans the one-good-each allocations once, lexicographically, moving to
    each one whose utilities strictly dominate the current ones. That meets
    the chain of restarting the scan after every move, where c_(i+1) is the
    lex-first strict dominator of c_i (c_0 the input): a strict dominator
    of c_i is also one of c_(i-1), of which c_i was the lex-first, so it
    comes after c_i. The chain ends at a maximal element (under
    strong domination) of the allocations weakly dominating the input; its
    envy graph is then acyclic, and running round-robin in reverse
    topological order with each agent's own good boosted within its tie
    class reproduces it exactly.
    """
    _check_pair(inst, alloc)
    if inst.m != inst.n:
        raise PreconditionViolated(f"need m = n, got m={inst.m}, n={inst.n}")
    if any(s != 1 for s in alloc.sizes()):
        raise PreconditionViolated("every agent must hold exactly one good")

    _, rows = scaled_rows(inst)
    current, cur_util = alloc.owner, scaled_utilities(rows, inst.n, alloc.owner)
    # permutations of the agents = owner vectors of all one-good-each
    # allocations, already in lexicographic order
    for p in itertools.permutations(inst.agents()):
        util = scaled_utilities(rows, inst.n, p)
        if weakly_dominates(util, cur_util) and util != cur_util:
            current, cur_util = p, util

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
