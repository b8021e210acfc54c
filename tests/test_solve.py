import random
from fractions import Fraction as F

import pytest

from egalpof import (
    Allocation,
    BudgetExceeded,
    INFINITY,
    Objective,
    PropertyFilter,
    enumerate_allocations,
    extended_ratio,
    gen_thm1,
    gen_thm5,
    gen_thm7,
    max_welfare,
    price_of_fairness,
    validate_instance,
)
from egalpof.verify import random_instance


class TestEnumerateAllocations:
    def test_lexicographic_order(self):
        inst = validate_instance([[1, 0], [0, 1]])
        owners = [a.owner for a in enumerate_allocations(inst)]
        assert owners == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_count(self):
        inst = gen_thm1(3, 5, F(1, 100))
        assert sum(1 for _ in enumerate_allocations(inst)) == 243

    def test_budget(self):
        inst = validate_instance([[F(1, 30)] * 30, [F(1, 30)] * 30])
        with pytest.raises(BudgetExceeded):
            list(enumerate_allocations(inst, cap=10**6))


class TestMaxWelfare:
    def test_thm1_egalitarian(self):
        inst = gen_thm1(3, 5, F(1, 100))
        result = max_welfare(inst, Objective.EGALITARIAN)
        assert result.value == F(3, 10000)
        assert result.witness.owner == (1, 2, 3, 3, 3)

    def test_thm1_ef1_restricted(self):
        inst = gen_thm1(3, 5, F(1, 100))
        result = max_welfare(inst, Objective.EGALITARIAN, PropertyFilter.EF1)
        assert result.value == F(2, 10000)

    def test_thm7_nash(self):
        inst = gen_thm7(F(1, 10))
        result = max_welfare(inst, Objective.NASH)
        assert result.value == F(1, 300)
        assert result.witness.owner == (1, 3, 2)

    def test_witness_is_lex_smallest(self):
        inst = validate_instance([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
        result = max_welfare(inst, Objective.EGALITARIAN)
        assert result.value == F(1, 2)
        assert result.witness.owner == (1, 2)

    def test_argmax_restricted_filters(self):
        inst = gen_thm5(F(3, 2), F(2, 5))
        mnw = max_welfare(inst, Objective.EGALITARIAN, PropertyFilter.MAX_NASH)
        assert mnw.value == F(2, 5)
        assert mnw.witness.owner == (1, 1, 2)
        # the utilitarian argmax is unique here: every good to its top valuer
        muw = max_welfare(inst, Objective.EGALITARIAN, PropertyFilter.MAX_UTILITARIAN)
        assert muw.value == F(2, 5)
        assert muw.witness.owner == (1, 1, 2)

    def test_rr_filter(self):
        inst = gen_thm1(3, 5, F(1, 100))
        result = max_welfare(inst, Objective.EGALITARIAN, PropertyFilter.ROUND_ROBIN)
        assert result.value == F(2, 10000)
        assert sorted(result.witness.sizes()) == [1, 2, 2]

    def test_utilitarian_matches_per_good_argmax(self):
        rng = random.Random(5)
        for _ in range(25):
            inst = random_instance(rng, rng.randint(2, 3), rng.randint(1, 5))
            expected = sum(
                (max(inst.u[i][j] for i in range(inst.n)) for j in range(inst.m)),
                F(0),
            )
            assert max_welfare(inst, Objective.UTILITARIAN).value == expected

    def test_pruned_equals_exhaustive(self):
        rng = random.Random(9)
        for _ in range(30):
            inst = random_instance(rng, rng.randint(2, 3), rng.randint(1, 5))
            plain = max_welfare(inst, Objective.EGALITARIAN)
            pruned = max_welfare(inst, Objective.EGALITARIAN, pruned=True)
            assert (plain.value, plain.witness) == (pruned.value, pruned.witness)

    def test_pruned_explored_counts(self):
        # leaves reached, pinned so a change to the pruning order shows
        rng = random.Random(5)
        explored = [
            max_welfare(random_instance(rng, 2, 12), Objective.EGALITARIAN, pruned=True).explored
            for _ in range(3)
        ]
        assert explored == [36, 30, 218]

    def test_pruned_rejected_elsewhere(self):
        inst = gen_thm5(F(3, 2), F(2, 5))
        with pytest.raises(ValueError):
            max_welfare(inst, Objective.NASH, pruned=True)
        with pytest.raises(ValueError):
            max_welfare(
                inst, Objective.EGALITARIAN, PropertyFilter.BALANCED, pruned=True
            )

    def test_budget(self):
        inst = validate_instance([[F(1, 30)] * 30, [F(1, 30)] * 30])
        with pytest.raises(BudgetExceeded):
            max_welfare(inst, Objective.EGALITARIAN, cap=10**6)


class TestPriceOfFairness:
    def test_thm1_all_three_properties(self):
        inst = gen_thm1(3, 5, F(1, 100))
        for prop in (
            PropertyFilter.EF1,
            PropertyFilter.BALANCED,
            PropertyFilter.ROUND_ROBIN,
        ):
            assert price_of_fairness(inst, prop) == F(3, 2)

    def test_zero_over_zero_is_one(self):
        inst = validate_instance([[1], [1], [1]])  # fewer goods than agents
        for prop in PropertyFilter:
            if prop is PropertyFilter.NONE:
                continue
            assert price_of_fairness(inst, prop) == 1

    def test_ratio_conventions_directly(self):
        assert extended_ratio(F(1, 3), F(0)) == INFINITY
        assert extended_ratio(F(0), F(0)) == 1
