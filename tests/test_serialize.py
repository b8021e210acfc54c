from fractions import Fraction as F

import pytest

from egalpof import (
    ParseError,
    RowSumNotOne,
    gen_thm4,
    parse_instance_file,
    validate_instance,
    write_instance_file,
)
from egalpof.serialize import format_rational, parse_rational


class TestParseRational:
    @pytest.mark.parametrize(
        "text,expected",
        [("1/3", F(1, 3)), ("0", F(0)), ("7/100", F(7, 100)), ("-2/4", F(-1, 2)), ("5", F(5))],
    )
    def test_valid(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["1//3", "1/3/5", "", "1.5", "+1/2", " 1/2", "1/0", "a/b"])
    def test_invalid(self, text):
        with pytest.raises(ParseError):
            parse_rational(text)


class TestInstanceFiles:
    def test_parse_valid(self):
        text = '{"n":2, "m":2, "utilities":[["1/2","1/2"],["1/4","3/4"]]}'
        inst = parse_instance_file(text)
        assert inst.utility(2, 2) == F(3, 4)

    def test_row_sum_error_carries_row(self):
        text = '{"n":2, "m":2, "utilities":[["1/2","1/3"],["1/4","3/4"]]}'
        with pytest.raises(RowSumNotOne) as err:
            parse_instance_file(text)
        assert err.value.agent == 1

    def test_malformed_rational_reports_cell(self):
        text = '{"n":2, "m":2, "utilities":[["1//3","1/2"],["1/4","3/4"]]}'
        with pytest.raises(ParseError, match=r"utilities\[1\]\[1\]"):
            parse_instance_file(text)

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError, match="line"):
            parse_instance_file('{"n": 2,')

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '{"n":2, "m":2}',
            '{"n":2, "m":2, "utilities":[["1/2","1/2"]]}',
            '{"n":2, "m":3, "utilities":[["1/2","1/2"],["1/4","3/4"]]}',
            '{"n":"2", "m":2, "utilities":[["1/2","1/2"],["1/4","3/4"]]}',
            '{"n":2, "m":2.0, "utilities":[["1/2","1/2"],["1/4","3/4"]]}',
        ],
    )
    def test_structural_errors(self, text):
        with pytest.raises(ParseError):
            parse_instance_file(text)

    def test_round_trip_exact(self):
        inst = gen_thm4(F(1, 100))
        assert parse_instance_file(write_instance_file(inst)) == inst

    def test_write_is_canonical_idempotent(self):
        inst = gen_thm4(F(1, 100))
        text = write_instance_file(inst)
        assert write_instance_file(parse_instance_file(text)) == text
        assert '"49/100"' in text

    def test_integers_without_denominator(self):
        inst = validate_instance([[1, 0], [0, 1]])
        text = write_instance_file(inst)
        assert '"1"' in text and "1/1" not in text
        assert format_rational(F(4, 2)) == "2"
