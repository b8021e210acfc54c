"""Property-based checks of the exact-arithmetic invariants."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import (
    WELFARE,
    assert_solver_matches_oracle,
    enumerate_allocations,
    every_schedule_outcome,
    every_top_pick_outcome,
    restart_dominator,
    strictly_dominates,
)
from _strategies import instances, instances_with_allocation
from egalpof import (
    Allocation,
    Objective,
    PropertyFilter,
    balanced_from_mew,
    agent_utilities,
    default_schedule,
    dominating_rr_one_good,
    egalitarian_welfare,
    enumerate_rr_allocations,
    envy_graph,
    is_balanced,
    is_ef1,
    is_pareto_optimal,
    is_rr,
    max_welfare,
    nash_welfare,
    normalize_instance,
    parse_instance_file,
    pareto_optimal_allocations,
    rr_from_mew,
    run_round_robin,
    utilitarian_welfare,
    validate_instance,
    write_instance_file,
)
from egalpof.verify import _ef1_existential


@given(instances_with_allocation())
def test_welfare_chain_am_gm(pair):
    inst, alloc = pair
    ew = egalitarian_welfare(inst, alloc)
    uw = utilitarian_welfare(inst, alloc)
    nw = nash_welfare(inst, alloc)
    mean = uw / inst.n
    assert 0 <= ew <= mean <= 1
    assert nw <= mean**inst.n


@given(instances_with_allocation())
def test_min_welfare_positive_iff_supported(pair):
    inst, alloc = pair
    if egalitarian_welfare(inst, alloc) > 0:
        assert all(alloc.bundle(i) for i in inst.agents())
    if inst.m < inst.n:
        assert egalitarian_welfare(inst, alloc) == 0


@given(
    st.lists(
        st.lists(st.integers(0, 30), min_size=3, max_size=3).filter(any),
        min_size=2,
        max_size=4,
    )
)
def test_normalize_then_validate_never_errors(rows):
    inst = normalize_instance(rows)
    assert validate_instance(inst.u) == inst


@given(instances_with_allocation(max_m=4))
def test_ef1_forms_agree(pair):
    inst, alloc = pair
    assert is_ef1(inst, alloc) == _ef1_existential(inst, alloc)


@given(instances_with_allocation(max_m=4))
def test_envy_graph_edges_match_bundle_values(pair):
    inst, alloc = pair
    graph = envy_graph(inst, alloc)
    value = [
        [sum((inst.utility(i, g) for g in alloc.bundle(j)), F(0)) for j in inst.agents()]
        for i in inst.agents()
    ]
    assert graph.edges == {
        (i, j) for i in inst.agents() for j in inst.agents() if value[i - 1][i - 1] < value[i - 1][j - 1]
    }


@settings(max_examples=50, deadline=None)
@given(instances(max_m=4))
def test_rr_outputs_are_ef1_and_balanced(inst):
    for alloc in enumerate_rr_allocations(inst):
        assert is_ef1(inst, alloc)
        assert is_balanced(alloc)


@settings(max_examples=200, deadline=None)
@given(instances(max_m=4, max_value=2))
def test_rr_search_matches_every_schedule(inst):
    # tie-heavy instances; the oracle runs round-robin once per ordering and
    # per profile of utility-refining priorities
    expected = sorted({alloc.owner for _, alloc in every_schedule_outcome(inst)})
    assert [a.owner for a in enumerate_rr_allocations(inst)] == expected
    # the targeted search agrees on every allocation
    for alloc in enumerate_allocations(inst):
        assert is_rr(inst, alloc) == (alloc.owner in expected)


@settings(max_examples=60, deadline=None)
@given(instances(max_m=4, max_value=3, repeat_columns=True))
def test_rr_search_matches_every_schedule_on_repeated_columns(inst):
    # the search takes one good per class of identical goods and lists the
    # orderings of each class's owners; the targeted search splits each
    # class by the queried allocation's owners
    expected = sorted({alloc.owner for _, alloc in every_schedule_outcome(inst)})
    assert [a.owner for a in enumerate_rr_allocations(inst)] == expected
    for alloc in enumerate_allocations(inst):
        assert is_rr(inst, alloc) == (alloc.owner in expected)


@settings(max_examples=100, deadline=None)
@given(st.one_of(instances(max_m=4, max_value=2), instances(max_m=4, max_value=3, repeat_columns=True)))
def test_rr_oracles_agree(inst):
    # a top pick is the good that leaves first among the picker's free goods
    # of that value, so ranking each utility class by pick time gives one
    # priority profile that replays every run of top picks
    expected = {alloc.owner for _, alloc in every_schedule_outcome(inst)}
    assert every_top_pick_outcome(inst) == expected


@settings(max_examples=100, deadline=None)
@given(st.one_of(instances(max_m=5, max_value=2, repeat_columns=True), instances()))
def test_pareto_matches_brute_force(inst):
    # the kernel scans canonical allocations and lists their mirrors; the
    # brute force compares the utility vectors of every allocation
    allocs = list(enumerate_allocations(inst))
    utils = [agent_utilities(inst, a) for a in allocs]
    vectors = set(utils)
    optimal = [
        a for a, u in zip(allocs, utils) if not any(strictly_dominates(v, u) for v in vectors)
    ]
    assert list(pareto_optimal_allocations(inst)) == optimal
    for alloc in allocs:
        assert is_pareto_optimal(inst, alloc) == (alloc in optimal)


@given(instances(max_m=4), st.data())
def test_rr_picks_are_utility_maximal_among_remaining(inst, data):
    ordering = tuple(data.draw(st.permutations(list(inst.agents()))))
    prefer = {i: data.draw(st.sampled_from(list(inst.goods()))) for i in inst.agents()}
    trace = run_round_robin(inst, default_schedule(inst, ordering, prefer))
    remaining = set(inst.goods())
    for k, (rnd, agent, good) in enumerate(trace.picks):
        assert agent == ordering[k % inst.n]
        assert rnd == k // inst.n + 1
        row = inst.row(agent)
        assert row[good - 1] == max(row[g - 1] for g in remaining)
        remaining.discard(good)


@given(instances_with_allocation(max_m=4))
def test_balanced_rounding_per_agent_floor(pair):
    inst, alloc = pair
    rounded = balanced_from_mew(inst, alloc)
    assert is_balanced(rounded)
    before = agent_utilities(inst, alloc)
    after = agent_utilities(inst, rounded)
    assert all(inst.n * b >= a for a, b in zip(before, after))


@settings(max_examples=60, deadline=None)
@given(instances_with_allocation(max_m=4))
def test_rr_rounding_welfare_floor(pair):
    inst, alloc = pair
    if not all(alloc.bundle(i) for i in inst.agents()):
        return
    result, sched = rr_from_mew(inst, alloc)
    assert run_round_robin(inst, sched).allocation == result
    assert (2 * inst.n - 1) * egalitarian_welfare(inst, result) >= egalitarian_welfare(
        inst, alloc
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: instances(n, n, n, n, max_value=3)))
def test_dominator_matches_restart_scan(inst):
    # one forward scan of the matchings meets the chain of first strict
    # improvements that restarting after every move takes
    matchings = {
        p: agent_utilities(inst, Allocation(inst.n, p))
        for p in itertools.permutations(inst.agents())
    }
    for start in matchings:
        found, sched = dominating_rr_one_good(inst, Allocation(inst.n, start))
        assert (found, sched) == restart_dominator(inst, Allocation(inst.n, start))
        util = matchings[found.owner]
        assert not any(strictly_dominates(v, util) for v in matchings.values())


@settings(max_examples=40, deadline=None)
@given(instances(max_m=4))
def test_filter_set_containment(inst):
    mew_rr = max_welfare(inst, Objective.EGALITARIAN, PropertyFilter.ROUND_ROBIN).value
    mew_ef1 = max_welfare(inst, Objective.EGALITARIAN, PropertyFilter.EF1).value
    mew_ba = max_welfare(inst, Objective.EGALITARIAN, PropertyFilter.BALANCED).value
    mew = max_welfare(inst, Objective.EGALITARIAN).value
    assert mew_ef1 >= mew_rr
    assert mew_ba >= mew_rr
    assert mew >= max(mew_ef1, mew_ba)
    assert inst.n * mew_ba >= mew
    assert (2 * inst.n - 1) * mew_rr >= mew


@settings(max_examples=40, deadline=None)
@given(instances(max_m=4))
def test_explored_counts_examined_candidates(inst):
    # the pruned search examines at least one and at most every owner
    # vector; rr examines the final states of its layered search, one per
    # utility vector that some schedule reaches
    final = {agent_utilities(inst, alloc) for _, alloc in every_schedule_outcome(inst)}
    for objective in Objective:
        for prop in PropertyFilter:
            explored = max_welfare(inst, objective, prop).explored
            if prop is PropertyFilter.ROUND_ROBIN:
                assert explored == len(final)
            else:
                assert 1 <= explored <= inst.n**inst.m


@settings(max_examples=80, deadline=None)
@given(st.one_of(instances(max_m=4), instances(max_m=4, max_value=2)))
def test_pruned_solver_matches_exhaustive(inst):
    # tie-heavy instances make the round-robin search merge states
    assert_solver_matches_oracle(inst)


@settings(max_examples=60, deadline=None)
@given(instances(max_m=6, max_value=3, repeat_columns=True))
def test_search_matches_exhaustive_on_repeated_columns(inst):
    # the search visits one canonical allocation per class of identical
    # goods; value and witness still equal the exhaustive scan's
    assert_solver_matches_oracle(inst)


@settings(max_examples=60, deadline=None)
@given(instances(max_m=4, max_value=3, repeat_columns=True))
def test_rr_search_matches_exhaustive_on_repeated_columns(inst):
    # the solver's key holds the owners of identical goods until the last
    # pick, so the lex-first witness survives although twins collapse
    assert_solver_matches_oracle(inst, (PropertyFilter.ROUND_ROBIN,))


def assert_rr_matches_enumerated_outcomes(inst):
    """Past the exhaustive oracle's reach: `enumerate_rr_allocations` keys
    its states by owner vector, so no key holds two states, and the
    lex-first optimum over its sorted outcomes is the reference for the
    solver's merge key (plan, free goods, utilities, owners of identical
    goods)."""
    outcomes = enumerate_rr_allocations(inst)
    reached = {agent_utilities(inst, alloc) for alloc in outcomes}
    for objective, welfare in WELFARE.items():
        values = [welfare(inst, alloc) for alloc in outcomes]
        best = max(values)
        result = max_welfare(inst, objective, PropertyFilter.ROUND_ROBIN)
        assert (result.value, result.witness) == (best, outcomes[values.index(best)]), objective
        assert result.explored == len(reached)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        instances(max_m=7, max_value=3, repeat_columns=True),
        instances(max_n=4, min_m=4, max_m=7, max_value=1, repeat_columns=True),
    )
)
def test_rr_search_matches_enumerated_outcomes(inst):
    # 0/1 values with tied agents are where a merge key without the owners
    # of identical goods returns a wrong witness
    assert_rr_matches_enumerated_outcomes(inst)


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 0, 1, 0, 1, 0, 1], [1] * 7, [1] * 7],
        [[1] * 7, [1] * 7, [0, 0, 1, 0, 1, 0, 0]],
    ],
)
def test_rr_search_matches_enumerated_outcomes_pinned(rows):
    # leaving the owners of identical goods out of the merge key returns a
    # wrong egalitarian witness on both, and keeping them after the last
    # pick a wrong `explored`
    assert_rr_matches_enumerated_outcomes(normalize_instance(rows))


@given(instances())
def test_instance_file_round_trip(inst):
    text = write_instance_file(inst)
    assert parse_instance_file(text) == inst
    assert write_instance_file(parse_instance_file(text)) == text
