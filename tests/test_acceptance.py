"""Acceptance gate.

Every check here is an exact rational equality or exact inequality; there
are no tunable tolerances. Each test prints one pass/fail line, visible
with `pytest -s tests/test_acceptance.py`.
"""

import random
from contextlib import contextmanager
from fractions import Fraction as F
from math import ceil

from egalpof import (
    Allocation,
    Objective,
    PropertyFilter,
    gen_thm1,
    gen_thm4,
    gen_thm5,
    gen_thm7,
    is_ef1,
    max_welfare,
    pad_instance,
    price_of_fairness,
    run_suite,
    thm5_x_feasible,
)
from egalpof.cli import main
from egalpof.verify import _EF1_SAMPLE_CAP, _ef1_existential, _owner_from_index, random_instance

from _oracle import assert_solver_matches_oracle

CORPUS = ((2, 11), (3, 12))  # (agent count, seed); 250 trials each, m <= 6
TRIALS = 250
M_MAX = 6


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def test_a1_thm1_exact_desk_scale_values():
    with criterion("A1 thm1 exact values and prices"):
        n, m, eps = 3, 5, F(1, 100)
        inst = gen_thm1(n, m, eps)
        mew = max_welfare(inst, Objective.EGALITARIAN)
        assert mew.value == F(3, 10000) == (m - (n - 1)) * eps**2
        restricted = {
            prop: max_welfare(inst, Objective.EGALITARIAN, prop).value
            for prop in (
                PropertyFilter.EF1,
                PropertyFilter.BALANCED,
                PropertyFilter.ROUND_ROBIN,
            )
        }
        assert restricted[PropertyFilter.EF1] == F(2, 10000) == ceil(F(m - 1, n - 1)) * eps**2
        assert restricted[PropertyFilter.BALANCED] == F(2, 10000) == ceil(F(m, n)) * eps**2
        assert restricted[PropertyFilter.ROUND_ROBIN] == F(2, 10000)
        for prop in restricted:
            assert price_of_fairness(inst, prop) == F(3, 2)


def _pof_ba_sequence():
    return [
        price_of_fairness(gen_thm1(3, m, F(1, 100)), PropertyFilter.BALANCED).as_fraction()
        for m in range(3, 9)
    ]


def test_a1_thm1_pof_balanced_below_n():
    with criterion("A1 thm1 pof_ba < n over m=3..8"):
        assert all(v < 3 for v in _pof_ba_sequence())


def test_a1_thm1_pof_balanced_monotone_trend():
    """pof_ba of thm1 (n = 3) is exactly (m-2)/ceil(m/3) and rises toward 3
    at each fixed residue of m mod 3, over m = 3..8.

    The unrestricted optimum is (m-2)*eps^2 (agent 2 takes one good, agent 3
    the rest of goods 2..m); balancedness caps agent 3 at ceil(m/3) goods,
    so the balanced optimum is ceil(m/3)*eps^2. The ratio dips whenever the
    quota ceil(m/3) steps up (1, 1, 3/2, 2, 5/3, 2), so it is not pointwise
    monotone. For m = 3k+r it is 3 - 2/k, 3 - 4/(k+1) and 3 - 3/(k+1) for
    r = 0, 1, 2, each strictly rising toward n = 3.
    """
    with criterion("A1 thm1 pof_ba == (m-2)/ceil(m/3) over m=3..8, rising to 3 per m mod 3"):
        values = dict(zip(range(3, 9), _pof_ba_sequence()))
        assert values == {m: F(m - 2, ceil(F(m, 3))) for m in range(3, 9)}
        for m in (3, 4, 5):
            assert values[m] < values[m + 3] < 3, f"m={m}: {values[m]}, m={m + 3}: {values[m + 3]}"


def test_a2_thm4_muw_price_and_padding():
    with criterion("A2 thm4 muw prices and padding invariance"):
        for eps, expected in ((F(1, 100), 25), (F(1, 1000), 250)):
            inst = gen_thm4(eps)
            assert price_of_fairness(inst, PropertyFilter.MAX_UTILITARIAN) == expected
            for k in (1, 2):
                padded = pad_instance(inst, k)
                assert (
                    price_of_fairness(padded, PropertyFilter.MAX_UTILITARIAN)
                    == expected
                )


def test_a3_thm5_witnesses_price_and_feasibility():
    with criterion("A3 thm5 witnesses, price, feasibility bracket"):
        inst = gen_thm5(F(3, 2), F(2, 5))
        nash = max_welfare(inst, Objective.NASH)
        assert nash.witness.owner == (1, 1, 2)
        egal = max_welfare(inst, Objective.EGALITARIAN)
        assert egal.witness.owner == (1, 2, 2)
        assert price_of_fairness(inst, PropertyFilter.MAX_NASH) == F(3, 2)
        assert thm5_x_feasible(F(3, 2))
        assert not thm5_x_feasible(F(16, 9))


def test_a4_thm7_mnw_price_doubling():
    with criterion("A4 thm7 mnw prices at eps, eps/2"):
        assert price_of_fairness(gen_thm7(F(1, 10)), PropertyFilter.MAX_NASH) == 10
        assert price_of_fairness(gen_thm7(F(1, 20)), PropertyFilter.MAX_NASH) == 20


def test_a5_bound_suite_zero_violations():
    with criterion("A5 bounds suite, 500 seeded instances"):
        total = 0
        for n, seed in CORPUS:
            report = run_suite("bounds", n=n, m_max=M_MAX, trials=TRIALS, seed=seed)
            assert report.passed, report.to_text()
            total += TRIALS
        assert total >= 500


def test_a6_constructive_suite_zero_violations():
    with criterion("A6 facts and lemmas suites on the same corpus"):
        for n, seed in CORPUS:
            for suite in ("facts", "lemmas"):
                report = run_suite(suite, n=n, m_max=M_MAX, trials=TRIALS, seed=seed)
                assert report.passed, report.to_text()


def test_a7_oracle_equivalence():
    with criterion("A7 solver-vs-exhaustive-oracle and EF1-form equivalence"):
        rng = random.Random(303)
        for k in range(200):
            inst = random_instance(rng, 2 + k % 2, rng.randint(1, M_MAX))
            assert_solver_matches_oracle(inst)

        rng = random.Random(404)
        for k in range(200):
            inst = random_instance(rng, 2 + k % 2, rng.randint(1, M_MAX))
            total = inst.n**inst.m
            if total <= _EF1_SAMPLE_CAP:
                indices = range(total)
            else:
                indices = rng.sample(range(total), _EF1_SAMPLE_CAP)
            for index in indices:
                alloc = Allocation(inst.n, _owner_from_index(index, inst.n, inst.m))
                assert is_ef1(inst, alloc) == _ef1_existential(inst, alloc)


def test_a8_finite_stand_ins_for_limit_statements():
    """The unbounded-parameter statements are checked only as finite trends:
    growth under parameter shrinking, bracketing of the feasibility
    boundary, and a running maximum approaching its cap from below."""
    with criterion("A8 finite trend and bracketing stand-ins"):
        pof25 = price_of_fairness(gen_thm4(F(1, 100)), PropertyFilter.MAX_UTILITARIAN)
        pof250 = price_of_fairness(gen_thm4(F(1, 1000)), PropertyFilter.MAX_UTILITARIAN)
        assert pof25 < pof250  # grows without bound as eps shrinks

        assert price_of_fairness(
            gen_thm7(F(1, 10)), PropertyFilter.MAX_NASH
        ) < price_of_fairness(gen_thm7(F(1, 20)), PropertyFilter.MAX_NASH)

        assert thm5_x_feasible(F(7, 4)) and not thm5_x_feasible(F(9, 5))

        running = F(0)
        for value in _pof_ba_sequence():
            running = max(running, value)
            assert running < 3

        running = F(0)
        for m in range(3, 9):
            pof_ef1 = price_of_fairness(
                gen_thm1(3, m, F(1, 100)), PropertyFilter.EF1
            ).as_fraction()
            running = max(running, pof_ef1)
            assert running < 2  # climbs toward n - 1 from below


def test_a9_reproduce_byte_identical(tmp_path):
    with criterion("A9 reproduce determinism"):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["reproduce", "--format", "csv", "--out", str(first)]) == 0
        assert main(["reproduce", "--format", "csv", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
