import random

import pytest

from egalpof import (
    Allocation,
    ParamOutOfRange,
    random_instance,
    run_suite,
    validate_instance,
)
from egalpof.verify import _ef1_existential
from egalpof import is_ef1


class TestRandomInstance:
    def test_normalized_and_deterministic(self):
        a = random_instance(random.Random(3), 3, 4)
        b = random_instance(random.Random(3), 3, 4)
        assert a == b
        assert validate_instance(a.u) == a

    def test_denominators_bounded_by_row_sums(self):
        inst = random_instance(random.Random(3), 3, 4, denom_bound=20)
        for row in inst.u:
            assert all(x.denominator <= 20 * inst.m for x in row)

    @pytest.mark.parametrize("m, denom_bound", [(0, 20), (-1, 20), (3, 0)])
    def test_out_of_range_params(self, m, denom_bound):
        # no row of such a draw is ever nonzero, so resampling would not end
        with pytest.raises(ParamOutOfRange):
            random_instance(random.Random(3), 2, m, denom_bound)


class TestSuites:
    @pytest.mark.parametrize("suite", ["bounds", "facts", "lemmas"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_small_runs_pass(self, suite, n):
        report = run_suite(suite, n=n, m_max=5, trials=30, seed=7)
        assert report.passed
        assert all(c.violations == 0 for c in report.checks)
        assert all(c.tried > 0 for c in report.checks)

    def test_report_text_deterministic(self):
        first = run_suite("bounds", n=2, m_max=4, trials=10, seed=42).to_text()
        second = run_suite("bounds", n=2, m_max=4, trials=10, seed=42).to_text()
        assert first == second
        assert first.endswith("overall: PASS\n")

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nope", n=2, m_max=4, trials=1, seed=1)


def test_ef1_existential_matches_clean_cases():
    inst = validate_instance([[1, 0], [0, 1]])
    assert _ef1_existential(inst, Allocation(2, (1, 2)))
    assert _ef1_existential(inst, Allocation(2, (2, 2))) == is_ef1(
        inst, Allocation(2, (2, 2))
    )
