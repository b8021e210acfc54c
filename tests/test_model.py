import dataclasses
import itertools
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given

from _strategies import instances
from egalpof import (
    INFINITY,
    Allocation,
    BudgetExceeded,
    ExtendedValue,
    GoodOutOfRange,
    NegativeUtility,
    RowSumNotOne,
    TooFewAgents,
    ZeroRow,
    agent_utilities,
    bundle_utility,
    egalitarian_welfare,
    extended_ratio,
    nash_welfare,
    normalize_instance,
    utilitarian_welfare,
    validate_instance,
)
from egalpof.model import iter_allocations_scaled, scaled_rows
from egalpof import gen_thm4, gen_thm5


class TestValidateInstance:
    def test_valid(self):
        inst = validate_instance([[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
        assert (inst.n, inst.m) == (2, 2)
        assert inst.utility(2, 1) == F(1, 4)

    def test_row_sum_not_one(self):
        with pytest.raises(RowSumNotOne) as err:
            validate_instance([[F(1, 2), F(1, 3)], [F(1, 4), F(3, 4)]])
        assert err.value.agent == 1
        assert err.value.total == F(5, 6)

    def test_negative_utility(self):
        with pytest.raises(NegativeUtility) as err:
            validate_instance([[1, 0], [F(-1, 2), F(3, 2)]])
        assert (err.value.agent, err.value.good) == (2, 1)

    def test_too_few_agents(self):
        with pytest.raises(TooFewAgents):
            validate_instance([[1]])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            validate_instance([[0.5, 0.5], [0.5, 0.5]])

    def test_rational_strings_accepted(self):
        inst = validate_instance([["1/2", "1/2"], ["1/4", "3/4"]])
        assert inst.utility(1, 1) == F(1, 2)


class TestNormalizeInstance:
    def test_scales_rows(self):
        inst = normalize_instance([[2, 2], [1, 3]])
        assert inst.u == ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))

    def test_zero_row(self):
        with pytest.raises(ZeroRow) as err:
            normalize_instance([[0, 0], [1, 1]])
        assert err.value.agent == 1

    def test_already_normalized_is_identity(self):
        rows = [[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]]
        assert normalize_instance(rows) == validate_instance(rows)


class TestBundleUtility:
    def test_partial_bundle(self):
        inst = gen_thm4(F(1, 8))
        assert bundle_utility(inst, 2, {2, 3}) == F(5, 8)

    def test_empty_bundle(self):
        inst = gen_thm4(F(1, 8))
        assert bundle_utility(inst, 1, ()) == 0

    def test_all_goods(self):
        inst = gen_thm4(F(1, 8))
        for i in inst.agents():
            assert bundle_utility(inst, i, inst.goods()) == 1

    def test_good_out_of_range(self):
        inst = gen_thm4(F(1, 8))
        with pytest.raises(GoodOutOfRange):
            bundle_utility(inst, 1, {4})

    def test_duplicates_count_once(self):
        inst = gen_thm4(F(1, 8))
        assert bundle_utility(inst, 1, [1, 1]) == F(1, 2)


IDENTITY = validate_instance([[1, 0], [0, 1]])


class TestWelfares:
    def test_egalitarian_thm4(self):
        inst = gen_thm4(F(1, 8))
        assert egalitarian_welfare(inst, Allocation(2, (1, 2, 2))) == F(1, 2)

    def test_egalitarian_identity_diagonal(self):
        assert egalitarian_welfare(IDENTITY, Allocation(2, (1, 2))) == 1

    def test_empty_bundle_means_zero(self):
        assert egalitarian_welfare(IDENTITY, Allocation(2, (1, 1))) == 0

    def test_utilitarian_thm4(self):
        inst = gen_thm4(F(1, 8))
        assert utilitarian_welfare(inst, Allocation(2, (1, 1, 2))) == F(5, 4)

    def test_utilitarian_identity(self):
        assert utilitarian_welfare(IDENTITY, Allocation(2, (1, 2))) == 2

    def test_utilitarian_single_agent_gets_all(self):
        assert utilitarian_welfare(IDENTITY, Allocation(2, (1, 1))) == 1

    def test_nash_thm5(self):
        inst = gen_thm5(F(3, 2), F(2, 5))
        assert nash_welfare(inst, Allocation(2, (1, 1, 2))) == F(2, 5)
        assert nash_welfare(inst, Allocation(2, (1, 2, 2))) == F(9, 25)

    def test_nash_zero_with_empty_bundle(self):
        assert nash_welfare(IDENTITY, Allocation(2, (2, 2))) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            egalitarian_welfare(IDENTITY, Allocation(2, (1, 2, 1)))


class TestAllocation:
    def test_bundles_and_sizes(self):
        alloc = Allocation(3, (1, 2, 3, 3, 3))
        assert alloc.bundle(3) == (3, 4, 5)
        assert alloc.bundles() == ((1,), (2,), (3, 4, 5))
        assert alloc.sizes() == (1, 1, 3)

    def test_invalid_owner(self):
        with pytest.raises(ValueError):
            Allocation(2, (1, 3))

    def test_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Allocation(2, (1, 2)).n = 3


class TestExtendedValue:
    def test_ratio_conventions(self):
        assert extended_ratio(F(0), F(0)) == 1
        assert extended_ratio(F(1, 2), F(0)) == INFINITY
        assert extended_ratio(F(1, 2), F(1, 4)) == 2

    def test_ordering(self):
        assert ExtendedValue.finite(F(3, 2)) < INFINITY
        assert INFINITY <= INFINITY
        assert not INFINITY < INFINITY
        assert ExtendedValue.finite(2) <= 2
        assert INFINITY > 1000000

    def test_str(self):
        assert str(ExtendedValue.finite(F(3, 2))) == "3/2"
        assert str(ExtendedValue.finite(25)) == "25"
        assert str(INFINITY) == "inf"

    def test_as_fraction(self):
        assert ExtendedValue.finite(F(3, 2)).as_fraction() == F(3, 2)
        with pytest.raises(ValueError):
            INFINITY.as_fraction()


@given(instances())
def test_scaled_rows_is_exact_and_computed_once(inst):
    scale, rows = scaled_rows(inst)
    assert scale == lcm(*(x.denominator for row in inst.u for x in row))
    for i in range(inst.n):
        for j in range(inst.m):
            assert F(rows[i][j], scale) == inst.u[i][j]
    assert scaled_rows(inst) is scaled_rows(inst)


def test_iter_allocations_scaled_lexicographic():
    inst = gen_thm5(F(3, 2), F(2, 5))
    scale, _ = scaled_rows(inst)
    seen = []
    for owner, util in iter_allocations_scaled(inst):
        seen.append(tuple(owner))
        alloc = Allocation(inst.n, tuple(owner))
        assert [F(x, scale) for x in util] == list(agent_utilities(inst, alloc))
    assert seen[:3] == [(1, 1, 1), (1, 1, 2), (1, 2, 1)]
    assert seen == sorted(seen) and len(set(seen)) == 2**3
    with pytest.raises(BudgetExceeded) as err:
        next(iter_allocations_scaled(inst, cap=7))
    assert (err.value.needed, err.value.cap) == (8, 7)


def test_iter_allocations_scaled_prune_skips_extensions():
    inst = validate_instance([[F(1, 5)] * 5] * 3)  # every scaled entry is 1
    asked = []

    def two_at_agent_2(prefix_util, k):
        asked.append(k)
        assert sum(prefix_util) == k  # goods 1..k only
        return prefix_util[1] >= 2

    kept = [tuple(o) for o, _ in iter_allocations_scaled(inst, prune=two_at_agent_2)]
    # whole allocations (k = m) are never asked about
    expected = [o for o in itertools.product((1, 2, 3), repeat=5) if o[:-1].count(2) < 2]
    assert kept == expected
    assert set(asked) == {1, 2, 3, 4}
