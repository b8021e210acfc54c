import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from _oracle import ef1_by_pairs
from egalpof import (
    Allocation,
    BudgetExceeded,
    Instance,
    agent_utilities,
    envy_graph,
    gen_thm1,
    is_balanced,
    is_ef1,
    is_pareto_optimal,
    normalize_instance,
    pareto_optimal_allocations,
    validate_instance,
)
from egalpof.properties import EnvyGraph, _maxima, _pareto_fronts, weakly_dominates

IDENTITY = validate_instance([[1, 0], [0, 1]])
MIXED = validate_instance([[F(1, 2), F(1, 2)], [F(3, 4), F(1, 4)]])
# each agent only values the next agent's good
CYCLIC = validate_instance([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


class TestEF1:
    def test_lopsided_split_fails(self):
        inst = gen_thm1(3, 5, F(1, 100))
        assert not is_ef1(inst, Allocation(3, (1, 2, 3, 3, 3)))

    def test_even_split_passes(self):
        inst = gen_thm1(3, 5, F(1, 100))
        assert is_ef1(inst, Allocation(3, (1, 2, 2, 3, 3)))

    @given(st.data())
    def test_raw_matrix_matches_pair_form(self, data):
        # a raw matrix's rows need not sum to 1; bundles may be empty
        n = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(0, 5))
        cell = st.builds(F, st.integers(0, 3), st.integers(1, 3))
        u = tuple(tuple(data.draw(cell) for _ in range(m)) for _ in range(n))
        owner = tuple(data.draw(st.integers(1, n)) for _ in range(m))
        inst, alloc = Instance(n, m, u), Allocation(n, owner)
        assert is_ef1(inst, alloc) == ef1_by_pairs(inst, alloc)

    def test_single_good_instance(self):
        inst = validate_instance([[1], [1]])
        assert is_ef1(inst, Allocation(2, (1,)))

    def test_uniform_utilities_balanced_implies_ef1(self):
        uniform = normalize_instance([[1] * 5, [1] * 5, [1] * 5])
        for owner in ((1, 1, 2, 2, 3), (3, 2, 1, 2, 3), (1, 2, 3, 1, 2)):
            alloc = Allocation(3, owner)
            assert is_balanced(alloc) and is_ef1(uniform, alloc)


class TestBalanced:
    @pytest.mark.parametrize(
        "n,owner,expected",
        [
            (3, (1, 1, 2, 2, 3), True),
            (2, (1, 1, 1, 2), False),
            (2, (1,), True),
        ],
    )
    def test_examples(self, n, owner, expected):
        assert is_balanced(Allocation(n, owner)) is expected


class TestEnvyGraph:
    def test_one_sided_envy(self):
        graph = envy_graph(MIXED, Allocation(2, (1, 2)))
        assert graph.edges == {(2, 1)}

    def test_identity_no_envy(self):
        assert envy_graph(IDENTITY, Allocation(2, (1, 2))).edges == frozenset()

    def test_three_cycle(self):
        graph = envy_graph(CYCLIC, Allocation(3, (1, 2, 3)))
        assert graph.edges == {(1, 2), (2, 3), (3, 1)}
        assert not graph.is_acyclic()

    def test_topological_order_ties_ascending(self):
        graph = envy_graph(IDENTITY, Allocation(2, (1, 2)))
        assert graph.topological_order() == (1, 2)
        with pytest.raises(ValueError):
            envy_graph(CYCLIC, Allocation(3, (1, 2, 3))).topological_order()

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.frozensets(
                    st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
                ),
            )
        )
    )
    def test_topological_order_is_lex_smallest(self, case):
        n, edges = case
        graph = EnvyGraph(n, edges)
        # permutations come in lexicographic order, so the first valid one is the smallest
        orders = [
            p
            for p in itertools.permutations(range(1, n + 1))
            if all(p.index(i) < p.index(j) for i, j in edges)
        ]
        if orders:
            assert graph.topological_order() == orders[0]
        else:
            with pytest.raises(ValueError):
                graph.topological_order()


class TestDominates:
    DIAGONAL = agent_utilities(MIXED, Allocation(2, (1, 2)))
    ANTI_DIAGONAL = agent_utilities(MIXED, Allocation(2, (2, 1)))

    def test_reflexive_weak(self):
        assert weakly_dominates(self.DIAGONAL, self.DIAGONAL)

    def test_strict_improvement(self):
        assert weakly_dominates(self.ANTI_DIAGONAL, self.DIAGONAL)
        assert self.ANTI_DIAGONAL != self.DIAGONAL

    def test_reversed_roles(self):
        assert not weakly_dominates(self.DIAGONAL, self.ANTI_DIAGONAL)


class TestParetoOptimal:
    def test_dominated_diagonal(self):
        assert not is_pareto_optimal(MIXED, Allocation(2, (1, 2)))

    def test_anti_diagonal_optimal(self):
        assert is_pareto_optimal(MIXED, Allocation(2, (2, 1)))

    def test_identity_diagonal_optimal(self):
        assert is_pareto_optimal(IDENTITY, Allocation(2, (1, 2)))

    def test_budget(self):
        # 2**30 allocations, none of them identical; the fronts of 30 goods
        # form 930 candidates, two per front vector, and are the whole check
        inst = normalize_instance([list(range(1, 31)), list(range(30, 0, -1))])
        everything = Allocation(2, tuple([1] * 30))
        assert is_pareto_optimal(inst, everything, cap=930)
        with pytest.raises(BudgetExceeded) as err:
            is_pareto_optimal(inst, everything, cap=929)
        assert (err.value.needed, err.value.cap) == (930, 929)

    def test_identical_goods_scan_canonical_allocations(self):
        # 2**30 allocations, but the fronts of 30 identical goods hold at
        # most 31 vectors each
        inst = normalize_instance([[1] * 30, [1] * 30])
        assert is_pareto_optimal(inst, Allocation(2, tuple([1] * 30)))
        # every allocation is Pareto-optimal, and listing their mirrors
        # counts against the budget
        with pytest.raises(BudgetExceeded) as err:
            list(pareto_optimal_allocations(inst, cap=1000))
        assert (err.value.needed, err.value.cap) == (1001, 1000)

    def test_search_past_cap_on_fronts(self):
        # tie-free 2x12: all 4,096 allocations are canonical, over the cap of
        # 1,000 that a scan of every one of them exceeds; the fronts and the
        # search of prefixes on them stay under it
        inst = normalize_instance(
            [
                [121, 327, 514, 974, 524, 662, 880, 975, 105, 905, 228, 916],
                [615, 636, 569, 430, 802, 586, 560, 862, 748, 795, 786, 502],
            ]
        )
        expected = list(pareto_optimal_allocations(inst))
        assert len(expected) == 34
        assert list(pareto_optimal_allocations(inst, cap=1000)) == expected

    def test_front_build_budget(self):
        # the fronts of 30 goods form 930 candidates, two per front vector
        inst = normalize_instance([list(range(1, 31)), list(range(30, 0, -1))])
        assert len(_pareto_fronts(inst, 930)) == 31
        with pytest.raises(BudgetExceeded) as err:
            _pareto_fronts(inst, 929)
        assert (err.value.needed, err.value.cap) == (930, 929)
        with pytest.raises(BudgetExceeded) as err:
            list(pareto_optimal_allocations(inst, cap=929))
        assert (err.value.needed, err.value.cap) == (930, 929)

    def test_enumeration_matches_single_checks(self):
        inst = normalize_instance([[3, 1, 4, 1], [5, 9, 2, 6], [5, 3, 5, 8]])
        expected = {
            a.owner
            for a in (
                Allocation(3, o)
                for o in __import__("itertools").product((1, 2, 3), repeat=4)
            )
            if is_pareto_optimal(inst, a)
        }
        assert {a.owner for a in pareto_optimal_allocations(inst)} == expected


@settings(max_examples=100)
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.lists(st.tuples(*[st.integers(0, 3)] * d), max_size=30)
    )
)
def test_maxima_matches_brute_force(vectors):
    # small entries give duplicates, zeros and ties in leading entries
    expected = {
        v for v in vectors if not any(w != v and weakly_dominates(w, v) for w in vectors)
    }
    assert _maxima(vectors) == sorted(expected, reverse=True)
