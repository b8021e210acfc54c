"""Exhaustive reference solver: the test oracle for `max_welfare`.

It prunes nothing. It scans every allocation `enumerate_allocations` yields,
evaluates each welfare in `Fraction`s and keeps, per filter, the
allocations the filter admits.
"""

from egalpof import (
    Objective,
    PropertyFilter,
    egalitarian_welfare,
    enumerate_allocations,
    is_balanced,
    is_ef1,
    max_welfare,
    nash_welfare,
    utilitarian_welfare,
)

WELFARE = {
    Objective.EGALITARIAN: egalitarian_welfare,
    Objective.UTILITARIAN: utilitarian_welfare,
    Objective.NASH: nash_welfare,
}


def exhaustive_optima(inst):
    """{(objective, filter): (value, lex-first witness)} for every objective
    and every filter except round-robin."""
    allocs = list(enumerate_allocations(inst))
    welfare = {obj: [f(inst, a) for a in allocs] for obj, f in WELFARE.items()}

    def argmax(values):
        top = max(values)
        return [v == top for v in values]

    admitted = {
        PropertyFilter.NONE: [True] * len(allocs),
        PropertyFilter.EF1: [is_ef1(inst, a) for a in allocs],
        PropertyFilter.BALANCED: [is_balanced(a) for a in allocs],
        PropertyFilter.MAX_UTILITARIAN: argmax(welfare[Objective.UTILITARIAN]),
        PropertyFilter.MAX_NASH: argmax(welfare[Objective.NASH]),
    }
    optima = {}
    for prop, keep in admitted.items():
        for obj, values in welfare.items():
            kept = [(v, a) for v, a, k in zip(values, allocs, keep) if k]
            best = max(v for v, _ in kept)
            optima[obj, prop] = next((v, a) for v, a in kept if v == best)
    return optima


def assert_solver_matches_oracle(inst):
    """`max_welfare` agrees with the oracle on value and witness."""
    for (objective, prop), expected in exhaustive_optima(inst).items():
        result = max_welfare(inst, objective, prop)
        assert (result.value, result.witness) == expected, (objective, prop)
