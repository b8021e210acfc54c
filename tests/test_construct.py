from decimal import Decimal, getcontext
from fractions import Fraction as F
from math import ceil

import pytest

from egalpof import (
    InfeasibleParams,
    Objective,
    ParamOutOfRange,
    PropertyFilter,
    gen_thm1,
    gen_thm4,
    gen_thm5,
    gen_thm7,
    max_welfare,
    nash_welfare,
    egalitarian_welfare,
    Allocation,
    pad_instance,
    price_of_fairness,
    thm5_x_feasible,
    validate_instance,
)


class TestGenThm1:
    def test_instantiated_rows(self):
        inst = gen_thm1(3, 5, F(1, 100))
        assert inst.row(1) == (1, 0, 0, 0, 0)
        assert inst.row(2) == (F(96, 100), F(1, 100), F(1, 100), F(1, 100), F(1, 100))
        assert inst.row(3) == (F(9996, 10000),) + (F(1, 10000),) * 4

    def test_param_errors(self):
        with pytest.raises(ParamOutOfRange, match=r"\(m-1\)\*eps"):
            gen_thm1(3, 5, F(1, 2))
        with pytest.raises(ParamOutOfRange):
            gen_thm1(2, 5, F(1, 100))
        with pytest.raises(ParamOutOfRange):
            gen_thm1(3, 2, F(1, 100))
        with pytest.raises(ParamOutOfRange):
            gen_thm1(3, 5, 0)
        # (m-1)*eps = 3/4 < 1, but agent 2's first good would be worth only eps
        with pytest.raises(ParamOutOfRange, match=r"eps must stay below 1 - \(m-1\)\*eps"):
            gen_thm1(3, 4, F(1, 4))

    def test_default_eps(self):
        inst = gen_thm1(3, 5)
        assert inst.utility(2, 2) == F(1, 50)

    def test_closed_forms_match_solver(self):
        eps = F(1, 100)
        for n in (3, 4):
            for m in range(n, 9):
                inst = gen_thm1(n, m, eps)
                mew = max_welfare(inst, Objective.EGALITARIAN).value
                ef1 = max_welfare(inst, Objective.EGALITARIAN, PropertyFilter.EF1).value
                ba = max_welfare(
                    inst, Objective.EGALITARIAN, PropertyFilter.BALANCED
                ).value
                assert mew == (m - n + 1) * eps**2
                assert ef1 == ceil(F(m - 1, n - 1)) * eps**2
                assert ba == ceil(F(m, n)) * eps**2

    def test_pof_ba_stays_below_n_and_running_sup_grows(self):
        values = [
            price_of_fairness(gen_thm1(3, m, F(1, 100)), PropertyFilter.BALANCED)
            for m in range(3, 9)
        ]
        assert all(v < 3 for v in values)
        sups = []
        for v in values:
            sups.append(v if not sups or v > sups[-1] else sups[-1])
        assert sups == sorted(sups)
        assert sups[-1] == 2  # climbs toward 3 only at larger m

    def test_pof_rr_closed_form(self):
        # agent 1 must pick first or lose good 1; agent 3 at best picks
        # second, which leaves it floor((m+1)/3) goods
        for m in range(3, 14):
            for eps in (F(1, 10 * m), F(1, 1000)):
                pof = price_of_fairness(gen_thm1(3, m, eps), PropertyFilter.ROUND_ROBIN)
                assert pof == F(m - 2, (m + 1) // 3)

    @pytest.mark.parametrize("m, pof", [(14, F(12, 5)), (15, F(13, 5)), (16, F(14, 5))])
    def test_pof_rr_reach(self, m, pof):
        # 3**m allocations are over the cap; the round-robin search is not
        assert price_of_fairness(gen_thm1(3, m), PropertyFilter.ROUND_ROBIN) == pof

    @pytest.mark.parametrize(
        "n, m, pof",
        [
            (3, 20, F(18, 7)),
            (3, 30, F(14, 5)),
            (3, 40, F(38, 13)),
            (4, 12, F(3)),
            (4, 16, F(13, 4)),
            (4, 20, F(17, 5)),
            (5, 15, F(11, 3)),
        ],
    )
    def test_conjectured_pof_rr_at_large_m(self, n, m, pof):
        """Values read off the solver's table. They fit the conjecture
        pof_rr = (m-n+1)/floor((m+n-2)/n), the n = 3 closed form above with
        agent n picking second; it is not proved for n > 3. Goods 2..m are
        identical, so each picker takes only the first free one of them."""
        assert pof == F(m - n + 1, (m + n - 2) // n)
        assert price_of_fairness(gen_thm1(n, m), PropertyFilter.ROUND_ROBIN) == pof

    @pytest.mark.parametrize("m", range(14, 21))
    def test_pof_ba_reach(self, m):
        # 3**m allocations are over the cap; the search cut to prefixes with
        # a balanced completion is not
        pof = price_of_fairness(gen_thm1(3, m), PropertyFilter.BALANCED)
        assert pof == F(m - 2, ceil(F(m, 3)))

    def test_pof_ef1_reach(self):
        # agent 3 may hold at most one good more than agent 2
        m = 15
        pof = price_of_fairness(gen_thm1(3, m), PropertyFilter.EF1)
        assert pof == F(m - 2, ceil(F(m - 1, 2))) == F(13, 7)

    @pytest.mark.parametrize("m, pof", [(11, F(8, 3)), (12, F(3))])
    def test_n4_pof_ba_reach(self, m, pof):
        assert price_of_fairness(gen_thm1(4, m), PropertyFilter.BALANCED) == pof

    @pytest.mark.parametrize("n, m", [(3, 30), (3, 60), (4, 20), (4, 30), (5, 15), (5, 20)])
    def test_conjectured_forms_at_large_m(self, n, m):
        """pof_ba = (m-n+1)/ceil(m/n) and pof_ef1 = pof_mnw =
        (m-n+1)/floor((m+n-3)/(n-1)) are conjectures: they fit the solver's
        tables at n = 3, 4, 5 and none is proved. Goods 2..m are identical,
        so the search visits one allocation per class of mirror allocations
        and n**m is no limit."""
        inst = gen_thm1(n, m)
        ef1 = F(m - n + 1, (m + n - 3) // (n - 1))
        assert price_of_fairness(inst, PropertyFilter.BALANCED) == F(m - n + 1, ceil(F(m, n)))
        assert price_of_fairness(inst, PropertyFilter.EF1) == ef1
        assert price_of_fairness(inst, PropertyFilter.MAX_NASH) == ef1


class TestGenThm4:
    def test_rows(self):
        inst = gen_thm4(F(1, 100))
        assert inst.row(1) == (F(1, 2), F(1, 2), 0)
        assert inst.row(2) == (F(49, 100), F(49, 100), F(2, 100))

    def test_pof_closed_form(self):
        for eps in (F(1, 100), F(1, 40)):
            inst = gen_thm4(eps)
            assert price_of_fairness(inst, PropertyFilter.MAX_UTILITARIAN) == 1 / (
                4 * eps
            )

    def test_param_errors(self):
        with pytest.raises(ParamOutOfRange):
            gen_thm4(F(1, 3))
        with pytest.raises(ParamOutOfRange):
            gen_thm4(0)


def _interval_bounds_decimal(x: F) -> tuple[Decimal, Decimal]:
    getcontext().prec = 60
    dx = Decimal(x.numerator) / Decimal(x.denominator)
    lower = 1 / (dx + dx.sqrt())
    upper = 1 / (dx * dx)
    return lower, upper


def _search_feasible_y(x: F, max_denominator: int = 1000) -> F | None:
    """Nonempty-interval witness: try the largest y = p/q below 1/x^2."""
    upper = 1 / x**2
    for q in range(1, max_denominator + 1):
        p = (upper.numerator * q) // upper.denominator
        if F(p, q) == upper:
            p -= 1
        if p < 1:
            continue
        try:
            gen_thm5(x, F(p, q))
            return F(p, q)
        except InfeasibleParams:
            continue
    return None


class TestThm5Feasibility:
    def test_bracketing_values(self):
        assert thm5_x_feasible(F(3, 2))
        assert not thm5_x_feasible(F(16, 9))
        assert thm5_x_feasible(F(101, 100))
        with pytest.raises(ParamOutOfRange):
            thm5_x_feasible(1)

    def test_against_high_precision_interval(self):
        # the closed form must agree with a 60-digit evaluation of the
        # y-interval endpoints on a grid straddling the boundary
        for k in range(1, 21):
            x = 1 + F(k, 20)
            lower, upper = _interval_bounds_decimal(x)
            assert thm5_x_feasible(x) == (lower < upper)

    def test_against_witness_search(self):
        for k in range(1, 21):
            x = 1 + F(k, 20)
            assert thm5_x_feasible(x) == (_search_feasible_y(x) is not None)


class TestGenThm5:
    def test_rows(self):
        inst = gen_thm5(F(3, 2), F(2, 5))
        assert inst.row(1) == (F(3, 5), F(2, 5), 0)
        assert inst.row(2) == (F(2, 5), F(1, 5), F(2, 5))

    def test_witnesses(self):
        inst = gen_thm5(F(3, 2), F(2, 5))
        mew = max_welfare(inst, Objective.EGALITARIAN)
        assert (mew.value, mew.witness.owner) == (F(3, 5), (1, 2, 2))
        mnw = max_welfare(inst, Objective.NASH)
        assert mnw.witness.owner == (1, 1, 2)

    def test_x_at_most_one(self):
        with pytest.raises(ParamOutOfRange, match="need x > 1, got 1"):
            gen_thm5(1, F(1, 2))

    def test_infeasible_y_above_upper(self):
        with pytest.raises(InfeasibleParams, match="1/x"):
            gen_thm5(F(3, 2), F(1, 2))

    def test_infeasible_y_below_lower(self):
        # 1/(x + sqrt(x)) at x = 3/2 is about 0.366
        with pytest.raises(InfeasibleParams, match="sqrt"):
            gen_thm5(F(3, 2), F(1, 3))

    def test_table_of_welfares_symbolic(self):
        grid = [
            (F(3, 2), F(2, 5)),
            (F(11, 10), F(1, 2)),
            (F(101, 100), F(60, 100)),
            (F(7, 4), F(163, 500)),
        ]
        for x, y in grid:
            inst = gen_thm5(x, y)
            one_one_two = Allocation(2, (1, 1, 2))
            one_two_two = Allocation(2, (1, 2, 2))
            two_one_two = Allocation(2, (2, 1, 2))
            assert nash_welfare(inst, one_one_two) == y
            assert nash_welfare(inst, one_two_two) == x**2 * y**2
            assert nash_welfare(inst, two_one_two) == (1 - x * y) * (1 - (x - 1) * y)
            assert egalitarian_welfare(inst, one_one_two) == y
            assert egalitarian_welfare(inst, one_two_two) == x * y
            assert egalitarian_welfare(inst, two_one_two) == 1 - x * y


class TestGenThm7:
    def test_rows(self):
        inst = gen_thm7(F(1, 10))
        assert inst.row(1) == (1, 0, 0)
        assert inst.row(2) == (F(17, 60), F(1, 20), F(2, 3))
        assert inst.row(3) == (F(189, 200), F(1, 200), F(1, 20))

    def test_pof_closed_form(self):
        for eps in (F(1, 10), F(1, 20)):
            assert price_of_fairness(gen_thm7(eps), PropertyFilter.MAX_NASH) == 1 / eps

    def test_param_errors(self):
        with pytest.raises(ParamOutOfRange):
            gen_thm7(1)
        with pytest.raises(ParamOutOfRange):
            gen_thm7(F(1, 5))


class TestPadInstance:
    def test_shape_and_rows(self):
        inst = pad_instance(gen_thm4(F(1, 100)), 1)
        assert (inst.n, inst.m) == (3, 4)
        assert inst.row(3) == (0, 0, 0, 1)
        assert inst.row(1) == (F(1, 2), F(1, 2), 0, 0)

    def test_identity_pad(self):
        inst = gen_thm4(F(1, 100))
        assert pad_instance(inst, 0) == inst

    def test_preserves_restricted_welfares(self):
        generic = validate_instance([[F(3, 10), F(7, 10)], [F(2, 5), F(3, 5)]])
        for base in (gen_thm4(F(1, 100)), generic):
            for prop in (
                PropertyFilter.MAX_UTILITARIAN,
                PropertyFilter.MAX_NASH,
            ):
                base_value = max_welfare(base, Objective.EGALITARIAN, prop).value
                base_mew = max_welfare(base, Objective.EGALITARIAN).value
                for k in (1, 2):
                    padded = pad_instance(base, k)
                    assert max_welfare(padded, Objective.EGALITARIAN).value == base_mew
                    assert (
                        max_welfare(padded, Objective.EGALITARIAN, prop).value
                        == base_value
                    )

    def test_negative_pad_rejected(self):
        with pytest.raises(ParamOutOfRange):
            pad_instance(gen_thm4(F(1, 100)), -1)


def test_all_generators_validate():
    for inst in (
        gen_thm1(3, 5, F(1, 100)),
        gen_thm1(4, 8, F(1, 100)),
        gen_thm4(F(1, 100)),
        gen_thm5(F(3, 2), F(2, 5)),
        gen_thm7(F(1, 10)),
        pad_instance(gen_thm7(F(1, 10)), 2),
    ):
        assert validate_instance(inst.u) == inst
