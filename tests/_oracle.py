"""Exhaustive reference solver: the test oracle for `max_welfare`.

It prunes nothing and skips no mirror allocation. It scans every
allocation `enumerate_allocations` yields, a plain `itertools.product` loop
that shares no code with the search kernel (`iter_allocations_scaled`),
evaluates each welfare in `Fraction`s and keeps, per filter, the
allocations the filter admits. The round-robin allocations are those
`every_top_pick_outcome` reaches: per ordering, every sequence of picks in
which each picker takes a free good it values most. `every_schedule_outcome`,
which runs `run_round_robin` over every ordering and every profile of
utility-refining priorities, gives the same set and is kept to check that.
`restart_dominator` is the reference for `dominating_rr_one_good`, and
`strictly_dominates` the reference Pareto relation on utility vectors.
`fraction_validate_instance` and `fraction_normalize_instance` check and
normalize rows with `Fraction` sums, the reference for the integer checks
of `validate_instance` and `normalize_instance`. `ef1_by_pairs` is the
pair-by-pair reference for `is_ef1`.
"""

import itertools
from fractions import Fraction
from operator import ge, gt

from egalpof import (
    DEFAULT_ENUMERATION_CAP,
    Allocation,
    BudgetExceeded,
    Instance,
    NegativeUtility,
    Objective,
    PropertyFilter,
    RRSchedule,
    RowSumNotOne,
    TooFewAgents,
    ZeroRow,
    agent_utilities,
    default_schedule,
    egalitarian_welfare,
    envy_graph,
    is_balanced,
    is_ef1,
    max_welfare,
    nash_welfare,
    run_round_robin,
    utilitarian_welfare,
)
from egalpof.model import _to_rows

WELFARE = {
    Objective.EGALITARIAN: egalitarian_welfare,
    Objective.UTILITARIAN: utilitarian_welfare,
    Objective.NASH: nash_welfare,
}


def enumerate_allocations(inst, cap=DEFAULT_ENUMERATION_CAP):
    """All n**m allocations in lexicographic order, refused up front when
    n**m > cap."""
    if inst.n**inst.m > cap:
        raise BudgetExceeded(inst.n**inst.m, cap)
    for owner in itertools.product(inst.agents(), repeat=inst.m):
        yield Allocation(inst.n, owner)


def fraction_validate_instance(raw):
    """Every cell's sign, row-major, then row sums of 1, checked with
    `Fraction` sums."""
    rows = _to_rows(raw)
    n = len(rows)
    if n < 2:
        raise TooFewAgents(n)
    for i, row in enumerate(rows, start=1):
        for j, x in enumerate(row, start=1):
            if x < 0:
                raise NegativeUtility(i, j)
    for i, row in enumerate(rows, start=1):
        total = sum(row, Fraction(0))
        if total != 1:
            raise RowSumNotOne(i, total)
    return Instance(n, len(rows[0]), tuple(tuple(row) for row in rows))


def fraction_normalize_instance(raw):
    """Each row divided by its `Fraction` sum, then validated."""
    rows = _to_rows(raw)
    if len(rows) < 2:
        raise TooFewAgents(len(rows))
    scaled = []
    for i, row in enumerate(rows, start=1):
        for j, x in enumerate(row, start=1):
            if x < 0:
                raise NegativeUtility(i, j)
        total = sum(row, Fraction(0))
        if total == 0:
            raise ZeroRow(i)
        scaled.append([x / total for x in row])
    return fraction_validate_instance(scaled)


def ef1_by_pairs(inst, alloc):
    """EF1 pair by pair, in `Fraction`s: for each i != j whose bundle is not
    empty, i values its own bundle at least as much as j's less the good of
    j's that i values most."""
    bundles = alloc.bundles()
    for i in inst.agents():
        row = inst.row(i)
        own = sum((row[g - 1] for g in bundles[i - 1]), Fraction(0))
        for j in inst.agents():
            values = [row[g - 1] for g in bundles[j - 1]]
            if i != j and values and own < sum(values) - max(values):
                return False
    return True


def _refining_priorities(inst, agent):
    """Every strict priority over the goods that refines the agent's utilities."""
    row = inst.row(agent)
    classes = [
        [g for g in inst.goods() if row[g - 1] == value]
        for value in sorted(set(row), reverse=True)
    ]
    for parts in itertools.product(*(itertools.permutations(c) for c in classes)):
        yield tuple(g for part in parts for g in part)


def every_schedule_outcome(inst):
    """(ordering, allocation) for every ordering of the agents and every
    profile of utility-refining priorities."""
    profiles = list(
        itertools.product(*(_refining_priorities(inst, i) for i in inst.agents()))
    )
    for ordering in itertools.permutations(inst.agents()):
        for priority in profiles:
            trace = run_round_robin(inst, RRSchedule(ordering, priority))
            yield ordering, trace.allocation


def every_top_pick_outcome(inst):
    """The owner vectors reached, for some ordering of the agents, when each
    picker may take any free good that it values most."""
    outcomes = set()
    for ordering in itertools.permutations(inst.agents()):
        layer = {(0,) * inst.m}
        for k in range(inst.m):
            agent = ordering[k % inst.n]
            row = inst.row(agent)
            picked = set()
            for owner in layer:
                free = [g for g in range(inst.m) if not owner[g]]
                top = max(row[g] for g in free)
                picked.update(owner[:g] + (agent,) + owner[g + 1 :] for g in free if row[g] == top)
            layer = picked
        outcomes |= layer
    return outcomes


def strictly_dominates(x, y):
    """Is every entry of utility vector x at least the matching entry of y,
    and some entry greater?"""
    return all(map(ge, x, y)) and any(map(gt, x, y))


def restart_dominator(inst, alloc):
    """The one-good dominator by first improvement, with `Fraction`
    utilities: of the one-good-each allocations weakly dominating `alloc`,
    move to the lex-first whose utilities strictly dominate the current
    ones and restart the scan after every move. Returns the allocation and
    the schedule that replays it: reverse topological order of its envy
    graph, each agent's own good boosted."""

    def utilities(owner):
        return agent_utilities(inst, Allocation(inst.n, owner))

    base = utilities(alloc.owner)
    dominating = []
    for p in itertools.permutations(inst.agents()):
        util = utilities(p)
        if all(map(ge, util, base)):
            dominating.append((p, util))
    current, cur_util = alloc.owner, base
    improved = True
    while improved:
        improved = False
        for cand, util in dominating:
            if all(map(ge, util, cur_util)) and util != cur_util:
                current, cur_util = cand, util
                improved = True
                break
    result = Allocation(inst.n, current)
    ordering = tuple(reversed(envy_graph(inst, result).topological_order()))
    prefer = {a: j + 1 for j, a in enumerate(current)}
    return result, default_schedule(inst, ordering=ordering, prefer=prefer)


def exhaustive_optima(inst, props=tuple(PropertyFilter)):
    """{(objective, filter): (value, lex-first witness)} for every objective
    and every filter in `props`."""
    allocs = list(enumerate_allocations(inst))
    welfare = {obj: [f(inst, a) for a in allocs] for obj, f in WELFARE.items()}

    def argmax(values):
        top = max(values)
        return [v == top for v in values]

    def round_robin():
        outcomes = every_top_pick_outcome(inst)
        return [a.owner in outcomes for a in allocs]

    admitted = {
        PropertyFilter.NONE: lambda: [True] * len(allocs),
        PropertyFilter.EF1: lambda: [is_ef1(inst, a) for a in allocs],
        PropertyFilter.BALANCED: lambda: [is_balanced(a) for a in allocs],
        PropertyFilter.MAX_UTILITARIAN: lambda: argmax(welfare[Objective.UTILITARIAN]),
        PropertyFilter.MAX_NASH: lambda: argmax(welfare[Objective.NASH]),
        PropertyFilter.ROUND_ROBIN: round_robin,
    }
    optima = {}
    for prop in props:
        keep = admitted[prop]()
        for obj, values in welfare.items():
            kept = [(v, a) for v, a, k in zip(values, allocs, keep) if k]
            best = max(v for v, _ in kept)
            optima[obj, prop] = next((v, a) for v, a in kept if v == best)
    return optima


def assert_solver_matches_oracle(inst, props=tuple(PropertyFilter)):
    """`max_welfare` agrees with the oracle on value and witness for every
    filter in `props`."""
    for (objective, prop), expected in exhaustive_optima(inst, props).items():
        result = max_welfare(inst, objective, prop)
        assert (result.value, result.witness) == expected, (objective, prop)
