import random
from fractions import Fraction as F

import pytest

from egalpof import (
    Allocation,
    BudgetExceeded,
    EmptyBundle,
    PreconditionViolated,
    RRSchedule,
    agent_utilities,
    balanced_from_mew,
    default_schedule,
    dominates,
    dominating_rr_one_good,
    egalitarian_welfare,
    enumerate_rr_allocations,
    gen_thm1,
    gen_thm5,
    is_rr,
    rr_from_mew,
    run_round_robin,
    validate_instance,
)
from egalpof.verify import random_instance

IDENTITY = validate_instance([[1, 0], [0, 1]])


class TestRunRoundRobin:
    def test_identity_each_takes_own(self):
        trace = run_round_robin(IDENTITY, default_schedule(IDENTITY))
        assert trace.allocation.owner == (1, 2)

    def test_thm5_trace(self):
        inst = gen_thm5(F(3, 2), F(2, 5))
        trace = run_round_robin(inst, default_schedule(inst))
        assert trace.picks == ((1, 1, 1), (1, 2, 3), (2, 1, 2))
        assert trace.allocation.owner == (1, 1, 2)

    def test_tiebreak_prefers_boosted_good(self):
        inst = validate_instance([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
        sched = default_schedule(inst, prefer={1: 2})
        trace = run_round_robin(inst, sched)
        assert trace.picks[0] == (1, 1, 2)

    def test_rejects_bad_schedules(self):
        good = default_schedule(IDENTITY)
        with pytest.raises(ValueError):
            run_round_robin(IDENTITY, RRSchedule((1, 1), good.priority))
        with pytest.raises(ValueError):
            # priority (2, 1) for agent 1 puts the zero-value good first
            run_round_robin(IDENTITY, RRSchedule((1, 2), ((2, 1), (2, 1))))


class TestEnumerateRR:
    def test_identity_unique_outcome(self):
        assert [a.owner for a in enumerate_rr_allocations(IDENTITY)] == [(1, 2)]

    def test_uniform_ties_branch(self):
        inst = validate_instance([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
        assert [a.owner for a in enumerate_rr_allocations(inst)] == [(1, 2), (2, 1)]

    def test_thm1_sizes(self):
        inst = gen_thm1(3, 5, F(1, 100))
        for alloc in enumerate_rr_allocations(inst):
            assert sorted(alloc.sizes()) == [1, 2, 2]

    def test_is_rr(self):
        assert is_rr(IDENTITY, Allocation(2, (1, 2)))
        assert not is_rr(IDENTITY, Allocation(2, (2, 1)))
        assert not is_rr(IDENTITY, Allocation(2, (1, 1)))

    def test_branch_budget(self):
        inst = validate_instance([[F(1, 4)] * 4, [F(1, 4)] * 4])
        with pytest.raises(BudgetExceeded) as err:
            enumerate_rr_allocations(inst, cap=10)
        assert (err.value.needed, err.value.cap) == (11, 10)


class TestBalancedFromMew:
    def test_thm1_rounding(self):
        inst = gen_thm1(3, 5, F(1, 100))
        start = Allocation(3, (1, 2, 3, 3, 3))
        rounded = balanced_from_mew(inst, start)
        assert sorted(rounded.sizes()) == [1, 2, 2]
        assert rounded.bundle(3) == (3, 4)
        assert egalitarian_welfare(inst, rounded) == F(2, 10000)
        before = agent_utilities(inst, start)
        after = agent_utilities(inst, rounded)
        assert all(3 * b >= a for a, b in zip(before, after))

    def test_already_balanced_unchanged(self):
        inst = gen_thm1(3, 5, F(1, 100))
        start = Allocation(3, (1, 1, 2, 2, 3))
        assert balanced_from_mew(inst, start) == start

    def test_one_good_each_unchanged(self):
        start = Allocation(2, (1, 2))
        assert balanced_from_mew(IDENTITY, start) == start


class TestDominatingRROneGood:
    def test_mixed_two_agents(self):
        inst = validate_instance([[F(1, 2), F(1, 2)], [F(3, 4), F(1, 4)]])
        found, sched = dominating_rr_one_good(inst, Allocation(2, (1, 2)))
        assert found.owner == (2, 1)
        assert dominates(inst, found, Allocation(2, (1, 2))).weak
        assert run_round_robin(inst, sched).allocation == found

    def test_identity_fixed_point(self):
        found, _ = dominating_rr_one_good(IDENTITY, Allocation(2, (1, 2)))
        assert found.owner == (1, 2)

    def test_cycle_resolution(self):
        inst = validate_instance([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        found, sched = dominating_rr_one_good(inst, Allocation(3, (1, 2, 3)))
        assert agent_utilities(inst, found) == (1, 1, 1)
        assert run_round_robin(inst, sched).allocation == found

    def test_preconditions(self):
        inst = gen_thm1(3, 5, F(1, 100))
        with pytest.raises(PreconditionViolated):
            dominating_rr_one_good(inst, Allocation(3, (1, 2, 3, 3, 3)))
        with pytest.raises(PreconditionViolated):
            dominating_rr_one_good(IDENTITY, Allocation(2, (1, 1)))


class TestRRFromMew:
    def test_identity(self):
        result, sched = rr_from_mew(IDENTITY, Allocation(2, (1, 2)))
        assert result.owner == (1, 2)
        assert run_round_robin(IDENTITY, sched).allocation == result

    def test_thm1_bound(self):
        inst = gen_thm1(3, 5, F(1, 100))
        start = Allocation(3, (1, 2, 3, 3, 3))
        result, _ = rr_from_mew(inst, start)
        assert 5 * egalitarian_welfare(inst, result) >= egalitarian_welfare(inst, start)

    def test_empty_bundle_rejected(self):
        with pytest.raises(EmptyBundle) as err:
            rr_from_mew(IDENTITY, Allocation(2, (1, 1)))
        assert err.value.agent == 2

    def test_bound_on_random_two_agent_instances(self):
        rng = random.Random(20250810)
        for _ in range(40):
            inst = random_instance(rng, 2, 4)
            owner = tuple(rng.randint(1, 2) for _ in range(4))
            if len(set(owner)) < 2:
                continue  # both agents need a nonempty bundle
            start = Allocation(2, owner)
            result, sched = rr_from_mew(inst, start)
            assert run_round_robin(inst, sched).allocation == result
            assert 3 * egalitarian_welfare(inst, result) >= egalitarian_welfare(
                inst, start
            )
