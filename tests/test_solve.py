import itertools
import random
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egalpof import (
    Allocation,
    BudgetExceeded,
    INFINITY,
    Objective,
    PropertyFilter,
    extended_ratio,
    gen_thm1,
    gen_thm5,
    gen_thm7,
    is_balanced,
    is_ef1,
    max_welfare,
    normalize_instance,
    price_of_fairness,
    solve,
    validate_instance,
)
from egalpof.model import iter_allocations_scaled, scaled_rows, scaled_utilities
from egalpof.solve import _balanced_ceiling, _ceilings, _count_ceiling, _ef1_ceiling
from egalpof.verify import random_instance

from _oracle import assert_solver_matches_oracle, enumerate_allocations
from _strategies import instances


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
            assert_solver_matches_oracle(inst)

    def test_pruned_explored_counts(self):
        # allocations the default search reaches, pinned so a change to the
        # pruning order shows. They were 36, 30 and 218 before the
        # egalitarian unfiltered solve gained its goods-count cut
        rng = random.Random(5)
        explored = [
            max_welfare(random_instance(rng, 2, 12), Objective.EGALITARIAN).explored
            for _ in range(3)
        ]
        assert explored == [34, 30, 48]

    def test_budget(self):
        # 2**30 allocations: the search is refused only when its count of
        # states passes the cap, not by an up-front n**m check; the columns
        # differ, so no good mirrors another
        inst = normalize_instance([list(range(1, 31)), [1] * 30])
        with pytest.raises(BudgetExceeded) as err:
            max_welfare(inst, Objective.EGALITARIAN, cap=10**4)
        assert (err.value.needed, err.value.cap) == (10**4 + 1, 10**4)

    def test_never_refused_within_allocation_count(self):
        # 2**10 allocations fit the cap; the search asks about 15 prefixes
        # and yields 2 allocations
        inst = validate_instance([[F(1, 10)] * 10, [F(0)] * 9 + [F(1)]])
        result = max_welfare(inst, Objective.EGALITARIAN, PropertyFilter.BALANCED, cap=2**10)
        assert (result.value, result.witness.owner) == (F(1, 2), (1,) * 5 + (2,) * 5)
        # distinct columns, 2**7 allocations: the search asks about 104
        # prefixes and yields 52 allocations, 156 states, and is still not
        # refused
        inst = normalize_instance([list(range(1, 8)), [1] * 7])
        result = max_welfare(inst, Objective.EGALITARIAN, PropertyFilter.BALANCED, cap=2**7)
        assert (result.value, result.witness.owner) == (F(4, 7), (2, 2, 1, 2, 2, 1, 1))
        # every allocation is worth 1, so the sum's ceiling stops the search
        # at the second allocation
        tied = validate_instance([[F(1, 20)] * 20, [F(1, 20)] * 20])
        assert max_welfare(tied, Objective.UTILITARIAN).explored == 2

    def test_round_robin_explored_counts_utility_vectors(self):
        # all tied: every run of 4 agents over 8 goods gives each agent 1/4,
        # one utility vector, so the search ends in one final state
        inst = validate_instance([[F(1, 8)] * 8] * 4)
        result = max_welfare(inst, Objective.EGALITARIAN, PropertyFilter.ROUND_ROBIN)
        assert (result.value, result.witness.owner) == (F(1, 4), (1, 1, 2, 2, 3, 3, 4, 4))
        assert result.explored == 1

    def test_round_robin_keeps_unbeaten_states(self):
        # goods 2-4 are twins for agents 1-2; a merge key without the owners
        # of those goods returns (1, 1, 2, 4, 3) for the egalitarian key, as
        # the same later picks move where two sorted classes first differ;
        # the witnesses are the exhaustive oracle's
        inst = normalize_instance([[0, 1, 1, 1, 0], [0, 1, 1, 1, 0], [0, 1, 0, 0, 0], [0, 0, 1, 1, 0]])
        expected = {
            Objective.EGALITARIAN: (F(0), (1, 1, 2, 3, 4)),
            Objective.UTILITARIAN: (F(11, 6), (1, 3, 1, 4, 2)),
            Objective.NASH: (F(0), (1, 1, 2, 3, 4)),
        }
        for objective, (value, owner) in expected.items():
            result = max_welfare(inst, objective, PropertyFilter.ROUND_ROBIN)
            assert (result.value, result.witness.owner, result.explored) == (value, owner, 7)
        assert_solver_matches_oracle(inst, (PropertyFilter.ROUND_ROBIN,))

    @pytest.mark.parametrize(
        "family, n, m, states",
        [
            ("thm1", 3, 12, 66),
            ("thm1", 3, 16, 87),
            ("thm1", 3, 20, 117),
            ("thm1", 3, 30, 174),
            ("thm1", 3, 40, 231),
            ("thm1", 5, 20, 1_850),
            ("tied", 6, 6, 63),
            ("tied", 4, 8, 105),
        ],
    )
    def test_round_robin_kept_states(self, family, n, m, states):
        # the states the rr solve keeps summed over its layers, pinned so a
        # change to the merge key shows: the search needs exactly this cap
        inst = gen_thm1(n, m) if family == "thm1" else _tied(n, m)
        max_welfare(inst, Objective.EGALITARIAN, PropertyFilter.ROUND_ROBIN, cap=states)
        with pytest.raises(BudgetExceeded) as err:
            max_welfare(inst, Objective.EGALITARIAN, PropertyFilter.ROUND_ROBIN, cap=states - 1)
        assert (err.value.needed, err.value.cap) == (states, states - 1)

    @settings(max_examples=50, deadline=None)
    @given(st.one_of(instances(max_m=5, repeat_columns=True), instances(max_m=5)))
    def test_every_entered_prefix_is_asked(self, inst):
        # the floor starts under every key, so each search asks about the
        # prefixes of its first path, and every later prefix right after
        # its parent
        for objective, prop in itertools.product(Objective, PropertyFilter):
            if prop is PropertyFilter.ROUND_ROBIN:
                continue
            asked = []

            def spy(inst, cap, ceiling, floor):
                def ask(owner, util, k):
                    asked.append(tuple(owner[:k]))
                    return ceiling(owner, util, k)

                return iter_allocations_scaled(inst, cap, ask, floor)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(solve, "iter_allocations_scaled", spy)
                max_welfare(inst, objective, prop)
            assert asked[:1] == ([(1,)] if inst.m > 1 else []), (objective, prop)
            last = {0: ()}
            for prefix in asked:
                assert prefix[:-1] == last[len(prefix) - 1], (objective, prop, prefix)
                last[len(prefix)] = prefix

    @pytest.mark.parametrize(
        "objective, states", [(Objective.EGALITARIAN, 7_972), (Objective.UTILITARIAN, 2_100)]
    )
    def test_unfiltered_searched_states(self, objective, states):
        # prefixes asked, the first path's included, plus allocations
        # reached, pinned so a change to the ask rule or the ceilings shows
        inst = _tie_free_4x12()
        max_welfare(inst, objective, cap=states)
        with pytest.raises(BudgetExceeded) as err:
            max_welfare(inst, objective, cap=states - 1)
        assert (err.value.needed, err.value.cap) == (states, states - 1)

    @pytest.mark.parametrize(
        "prop, pof", [(PropertyFilter.EF1, F(5, 3)), (PropertyFilter.BALANCED, F(5, 2))]
    )
    def test_reach_past_allocation_count(self, prop, pof):
        # 3**12 = 531,441 allocations are over the cap; the pruned search is not
        inst = gen_thm1(3, 12, F(1, 1000))
        mew = max_welfare(inst, Objective.EGALITARIAN, cap=200_000)
        mew_p = max_welfare(inst, Objective.EGALITARIAN, prop, cap=200_000)
        assert extended_ratio(mew.value, mew_p.value) == pof


def _tied(n, m):
    return validate_instance([[F(1, m)] * m] * n)


def _tie_free_4x12():
    # no two goods are identical, and the all-remaining-goods ceiling alone
    # needs more than the default cap of 2,000,000 egalitarian states here
    return normalize_instance([[(i + 2) * (j + 3) * 7919 % 97 + 1 for j in range(12)] for i in range(4)])


class TestCountCeiling:
    """The egalitarian unfiltered solve cuts a prefix when the agents at or
    below the incumbent cannot all pass it with the remaining goods."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(instances(max_m=6, repeat_columns=True), instances()))
    def test_never_below_best_completion(self, inst):
        # under floors around and at the best completion's key, the ceiling
        # is never below that key, so the search cuts no prefix that some
        # completion could lift past its floor
        n, m = inst.n, inst.m
        _, rows = scaled_rows(inst)
        best = {}
        for owner in itertools.product(range(1, n + 1), repeat=m):
            key = min(scaled_utilities(rows, n, owner))
            for k in range(1, m):
                best[owner[:k]] = max(best.get(owner[:k], key), key)
        floor = [-1]
        _, ceilings = _ceilings(rows)
        ceiling = _count_ceiling(rows, ceilings[min], floor)
        for prefix, top in best.items():
            util = scaled_utilities(rows, n, prefix)
            for f in (-1, 0, top - 1, top, top + 1):
                floor[0] = f
                assert ceiling(list(prefix), util, len(prefix)) >= top, (prefix, f)

    def test_tie_free_4x12(self):
        result = max_welfare(_tie_free_4x12(), Objective.EGALITARIAN)
        assert (result.value, result.witness.owner) == (F(92, 277), (1, 4, 4, 1, 3, 3, 4, 1, 2, 3, 2, 2))


class TestFilterPrunes:
    """Balanced and EF1 prefixes are cut inside the branch-and-bound search."""

    def test_matches_oracle_past_hypothesis_sizes(self):
        rng = random.Random(17)
        draws = [random_instance(rng, 2, rng.randint(5, 8)) for _ in range(8)]
        draws += [random_instance(rng, 3, rng.randint(5, 7)) for _ in range(6)]
        draws += [_tied(n, m) for n, m_max in ((2, 8), (3, 7), (4, 6)) for m in range(1, m_max + 1)]
        for inst in draws:
            assert_solver_matches_oracle(inst, (PropertyFilter.BALANCED, PropertyFilter.EF1))

    def test_explored_counts(self):
        # canonical allocations the search reaches on thm1 n=3 m=11 for the
        # three objectives, pinned so a change to the cuts shows. Over every
        # allocation, not only canonical ones, the cuts reached 6, 18,900 and
        # 9,729 (ba) and 2,487, 2,745 and 2,430 (ef1); the objective's
        # ceiling alone reached 21,723, 44,046 and 21,444 (ba) and 10,683,
        # 11,232 and 4,707 (ef1)
        inst = gen_thm1(3, 11)
        explored = {
            prop: [max_welfare(inst, objective, prop).explored for objective in Objective]
            for prop in (PropertyFilter.BALANCED, PropertyFilter.EF1)
        }
        assert explored == {
            PropertyFilter.BALANCED: [2, 6, 6],
            PropertyFilter.EF1: [7, 14, 10],
        }

    @pytest.mark.parametrize("prop", [PropertyFilter.BALANCED, PropertyFilter.EF1])
    def test_rejected_prefix_has_no_admissible_completion(self, prop):
        admissible = {
            PropertyFilter.BALANCED: lambda inst, alloc: is_balanced(alloc),
            PropertyFilter.EF1: is_ef1,
        }[prop]
        rng = random.Random(23)
        draws = [random_instance(rng, n, rng.randint(3, 6 if n == 2 else 5)) for n in (2, 3) * 10]
        draws += [_tied(3, 5), gen_thm1(3, 6)]
        cut = 0
        for inst in draws:
            n, m = inst.n, inst.m
            _, rows = scaled_rows(inst)
            rest, ceilings = _ceilings(rows)
            for key in (min, sum):
                floor = [-1]
                if prop is PropertyFilter.BALANCED:
                    hook = _balanced_ceiling(rows, ceilings[key], key is min)
                else:
                    hook = _ef1_ceiling(rows, rest, ceilings[key], floor)
                verdicts = []

                def ask(owner, util, k):
                    verdict = hook(owner, util, k)
                    verdicts.append((tuple(owner[:k]), verdict == -1))
                    return verdict

                for _ in iter_allocations_scaled(inst, ceiling=ask, floor=floor):
                    pass
                for prefix, rejected in verdicts:
                    completions = itertools.product(range(1, n + 1), repeat=m - len(prefix))
                    some = any(admissible(inst, Allocation(n, prefix + c)) for c in completions)
                    # the balanced cut is exact; the EF1 cut may keep a prefix
                    # that no EF1 allocation extends
                    assert not (rejected and some)
                    assert rejected or some or prop is PropertyFilter.EF1
                    cut += rejected
        assert cut > 0

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(instances(max_m=5, repeat_columns=True), instances()))
    def test_last_depth_judges_the_allocation(self, inst):
        # max_welfare admits an improving allocation when the filter's
        # ceiling at k = m is not -1, after the search has asked about
        # owner[:1] .. owner[:m-1] in order and cut at the first -1
        n = inst.n
        _, rows = scaled_rows(inst)
        rest, ceilings = _ceilings(rows)
        for key in (min, sum, prod):
            hooks = {
                PropertyFilter.BALANCED: _balanced_ceiling(rows, ceilings[key], key is min),
                PropertyFilter.EF1: _ef1_ceiling(rows, rest, ceilings[key], [-1]),
            }
            for alloc in enumerate_allocations(inst):
                for prop, hook in hooks.items():
                    util = [0] * n
                    for k, a in enumerate(alloc.owner, 1):
                        util[a - 1] += rows[a - 1][k - 1]
                        verdict = hook(list(alloc.owner), util, k)
                        if verdict == -1:
                            break
                    admissible = is_ef1(inst, alloc) if prop is PropertyFilter.EF1 else is_balanced(alloc)
                    assert (verdict != -1) == admissible, (key, prop, alloc.owner)
                    # an admitted allocation's answer is its own key
                    assert verdict in (-1, key(util))


def _repeated_columns(rng, n, m):
    """An n x m instance whose goods each take one of 2-3 drawn columns, in
    random order, so that identical goods need not be adjacent."""
    while True:
        pool = [[rng.randint(0, 3) for _ in range(n)] for _ in range(rng.randint(2, 3))]
        columns = [rng.choice(pool) for _ in range(m)]
        rows = [list(row) for row in zip(*columns)]
        if all(map(any, rows)):
            return normalize_instance(rows)


class TestIdenticalGoods:
    """The search visits one canonical allocation per class of identical goods."""

    def test_matches_oracle_on_interleaved_repeated_columns(self):
        rng = random.Random(31)
        props = tuple(p for p in PropertyFilter if p is not PropertyFilter.ROUND_ROBIN)
        draws = [
            _repeated_columns(rng, n, rng.randint(4, m_max))
            for n, m_max in ((2, 8), (3, 7), (4, 6))
            for _ in range(4)
        ]
        # A B A C B: two interleaved pairs of identical goods
        a, b, c = [3, 1, 0], [1, 1, 2], [0, 2, 1]
        draws.append(normalize_instance([list(row) for row in zip(a, b, a, c, b)]))
        for inst in draws:
            assert_solver_matches_oracle(inst, props)


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
