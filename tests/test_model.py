import dataclasses
import itertools
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import (
    enumerate_allocations,
    fraction_normalize_instance,
    fraction_validate_instance,
)
from _strategies import instances, instances_with_allocation
from egalpof import (
    INFINITY,
    Allocation,
    BudgetExceeded,
    EgalpofError,
    ExtendedValue,
    GoodOutOfRange,
    NegativeUtility,
    RowSumNotOne,
    TooFewAgents,
    ZeroRow,
    agent_utilities,
    egalitarian_welfare,
    extended_ratio,
    nash_welfare,
    normalize_instance,
    utilitarian_welfare,
    validate_instance,
)
from egalpof.model import (
    Instance,
    _identical,
    iter_allocations_scaled,
    mirror_allocations,
    scaled_rows,
)
from egalpof import gen_thm4, gen_thm5
from egalpof.solve import Objective, PropertyFilter, max_welfare


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

    def test_negative_cell_before_row_sum(self):
        # row 1 sums to 0, but every cell's sign is checked before any sum
        with pytest.raises(NegativeUtility) as err:
            validate_instance([[0, 0], [-1, 0]])
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


class TestInstance:
    @pytest.mark.parametrize(
        "u",
        [
            # keys below the solves' -1 floor: a search from it reports an
            # egalitarian optimum of 0 here, where it is 1 ...
            ((-1, -1, 1), (1, 0, -1)),
            # ... and finds no allocation at all here
            ((-1, -1), (-1, -1)),
        ],
    )
    def test_negative_cell_rejected_at_construction(self, u):
        with pytest.raises(NegativeUtility) as err:
            Instance(2, len(u[0]), u)
        assert (err.value.agent, err.value.good) == (1, 1)

    @pytest.mark.parametrize("cell", [0.5, "1/2"])
    def test_non_rational_cell_rejected_at_construction(self, cell):
        with pytest.raises(TypeError, match="floats are not allowed"):
            Instance(2, 1, ((cell,), (cell,)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_instance_names_first_negative_cell(data):
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(0, 5))
    cell = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
    u = tuple(tuple(data.draw(cell) for _ in range(m)) for _ in range(n))
    negative = [(i, j) for i in range(1, n + 1) for j in range(1, m + 1) if u[i - 1][j - 1] < 0]
    if negative:
        with pytest.raises(NegativeUtility) as err:
            Instance(n, m, u)
        assert (err.value.agent, err.value.good) == negative[0]
    else:
        assert Instance(n, m, u).u == u


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


@st.composite
def _cells(draw, value):
    """`value` as an int (when integral), a Fraction or a "p/q" string,
    possibly unreduced."""
    k = draw(st.integers(1, 3))
    forms = [value, f"{value.numerator * k}/{value.denominator * k}"]
    if value.denominator == 1:
        forms.append(value.numerator)
    return draw(st.sampled_from(forms))


@st.composite
def _raw_matrices(draw):
    """n in 1..3 (n = 1 only raises), m in 0..5. Most rows have their last
    cell set so that the row sums to 1, which may make it negative; half
    the matrices have one other cell negated."""
    n = draw(st.sampled_from((1, 2, 2, 3, 3)))
    m = draw(st.integers(0, 5))
    negated = draw(st.integers(-n * m, n * m))
    raw = []
    for i in range(n):
        values = [F(draw(st.integers(0, 4)), draw(st.integers(1, 12))) for _ in range(m)]
        if 0 <= negated - i * m < m:
            values[negated - i * m] *= -1
        if m and draw(st.integers(0, 3)):
            values[-1] = 1 - sum(values[:-1])
        raw.append([draw(_cells(v)) for v in values])
    return raw


def _outcome(build, raw):
    try:
        return build(raw)
    except EgalpofError as exc:
        return type(exc), str(exc), vars(exc)


@settings(max_examples=300, deadline=None)
@given(_raw_matrices())
def test_integer_checks_match_fraction_checks(raw):
    for build, oracle in (
        (validate_instance, fraction_validate_instance),
        (normalize_instance, fraction_normalize_instance),
    ):
        got = _outcome(build, raw)
        assert got == _outcome(oracle, raw)
        if isinstance(got, Instance):
            # the record validation returns is the one built directly
            assert vars(got)["_scaled"] == Instance(got.n, got.m, got.u)._scaled


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
    # no two goods are identical, so every allocation is canonical
    assert seen == sorted(seen) and len(set(seen)) == 2**3
    # the budget fires as the scan runs, at the eighth allocation
    with pytest.raises(BudgetExceeded) as err:
        for _ in iter_allocations_scaled(inst, cap=7):
            pass
    assert (err.value.needed, err.value.cap) == (8, 7)


def test_iter_allocations_scaled_prune_skips_extensions():
    inst = validate_instance([[F(1, 5)] * 5] * 3)  # every scaled entry is 1
    asked = []

    def ceiling(owner, prefix_util, k):
        asked.append(k)
        assert sum(prefix_util) == k  # goods 1..k only
        return -prefix_util[1]  # at or below -2 once agent 2 holds two goods

    kept = [tuple(o) for o, _ in iter_allocations_scaled(inst, ceiling=ceiling, floor=[-2])]
    # the five goods are identical, so the search visits only the canonical
    # allocations, whose owners never decrease; whole allocations (k = m)
    # are never asked about
    canonical = [o for o in itertools.product((1, 2, 3), repeat=5) if list(o) == sorted(o)]
    expected = [o for o in canonical if o[:-1].count(2) < 2]
    assert kept == expected and len(expected) < len(canonical)
    assert set(asked) == {1, 2, 3, 4}
    # under a floor below every ceiling, every prefix entered is asked, the
    # first path's too, in depth-first (here lexicographic) order, and
    # nothing is skipped
    entered = []
    record = lambda owner, prefix_util, k: entered.append(tuple(owner[:k])) or 0
    assert [tuple(o) for o, _ in iter_allocations_scaled(inst, ceiling=record, floor=[-1])] == canonical
    assert entered[:4] == [(1,), (1, 1), (1, 1, 1), (1, 1, 1, 1)]
    assert entered == sorted({o[:k] for o in canonical for k in range(1, 5)})


def test_iter_allocations_scaled_search_visits_canonical_allocations():
    # goods 1, 3 and 2, 5 are identical pairs (A B A C B); good 4 has no twin
    a, b, c = [2, 1], [1, 1], [0, 0]
    inst = normalize_instance([list(row) for row in zip(a, b, a, c, b)])
    assert inst._scaled[1] == [None, None, 0, None, 1]
    every = list(itertools.product((1, 2), repeat=5))
    # the oracle scan yields every allocation; the enumerator, with or
    # without a ceiling, only those whose owners do not decrease within
    # each identical pair
    assert [a.owner for a in enumerate_allocations(inst)] == every
    canonical = [o for o in every if o[0] <= o[2] and o[1] <= o[4]]
    assert len(canonical) == 18
    assert [tuple(o) for o, _ in iter_allocations_scaled(inst)] == canonical
    search = iter_allocations_scaled(inst, ceiling=lambda o, p, k: 1, floor=[0])
    assert [tuple(o) for o, _ in search] == canonical
    # the mirrors of the canonical allocations are every allocation, once
    assert mirror_allocations(inst, canonical) == every
    with pytest.raises(BudgetExceeded) as err:
        mirror_allocations(inst, canonical, cap=31)
    assert (err.value.needed, err.value.cap) == (32, 31)


def test_identical_twins_and_classes():
    a, b, c = (2, 1), (1, 1), (0, 0)
    twins, classes = _identical([a, b, a, c, b])
    assert twins == [None, None, 0, None, 1]
    # each class of two or more goods once, in order of its first good
    assert classes == [[0, 2], [1, 4]]
    # split by owner: goods 1 and 3 share one, goods 2 and 5 do not
    twins, classes = _identical(zip([a, b, a, c, b], (1, 2, 1, 1, 1)))
    assert twins == [None, None, 0, None, None]
    assert classes == [[0, 2]]
    # no two keys equal: no classes
    assert _identical([a, b, c]) == ([None, None, None], [])
    # every instance holds its record from construction, a directly built
    # one the same record as a validated one
    inst = normalize_instance([list(row) for row in zip(a, b, a, c, b)])
    assert "_scaled" in vars(inst)
    assert scaled_rows(inst) is inst._scaled[0]
    direct = Instance(inst.n, inst.m, inst.u)
    assert "_scaled" in vars(direct)
    assert direct._scaled == inst._scaled


@given(instances_with_allocation(max_m=6, max_value=2, repeat_columns=True))
def test_identical_by_owner_matches_brute_force(case):
    inst, alloc = case
    columns = list(zip(*scaled_rows(inst)[1]))
    keys = list(zip(columns, alloc.owner))
    twins, classes = _identical(keys)
    expected = []
    for g, key in enumerate(keys):
        same = [h for h, other in enumerate(keys) if other == key]
        earlier = [h for h in same if h < g]
        assert twins[g] == (earlier[-1] if earlier else None)
        if len(same) > 1 and not earlier:
            expected.append(same)
    # every class of two or more goods once, ascending, by first good
    assert classes == expected
    assert bool(classes) == (len(set(keys)) < len(keys))


def test_iter_allocations_scaled_unbeatable_floor_yields_nothing():
    inst = validate_instance([[F(1, 5)] * 5] * 3)
    # a floor set from the start is asked about the first path's prefixes too
    assert list(iter_allocations_scaled(inst, ceiling=lambda o, p, k: 0, floor=[0])) == []


def test_iter_allocations_scaled_no_goods_is_one_empty_allocation():
    inst = Instance(2, 0, ((), ()))
    assert [(tuple(o), tuple(u)) for o, u in iter_allocations_scaled(inst)] == [((), (0, 0))]
    for objective, prop in itertools.product(Objective, PropertyFilter):
        result = max_welfare(inst, objective, prop)
        assert (result.value, result.witness.owner, result.explored) == (0, (), 1)


def test_iter_allocations_scaled_counts_states_as_it_runs():
    inst = gen_thm5(F(3, 2), F(2, 5))  # n=2, m=3
    never = lambda owner, prefix_util, k: 1  # above the floor, so nothing is skipped
    search = lambda cap: iter_allocations_scaled(inst, cap, never, [0])

    # 8 allocations and 6 prefixes asked about, but 2**3 fits the cap as a
    # scan, so the search is never refused
    assert len(list(search(8))) == 8
    # past the cap states are counted: prefixes (1,) and (1,1), (1,1,1),
    # (1,1,2), prefix (1,2), (1,2,1), (1,2,2), then prefix (2,) is the eighth
    seen = []
    with pytest.raises(BudgetExceeded) as err:
        for owner, _ in search(7):
            seen.append(tuple(owner))
    assert (err.value.needed, err.value.cap) == (8, 7)
    assert seen == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)]
