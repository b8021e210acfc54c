"""Desk-scale report over the built-in families.

Emits one row per (construction, property) pair at fixed exact parameters.
Every row is recomputed by the exact solver and, where the family has
a closed form (for thm1 a conjectured one), checked against it during
emission; a mismatch raises CrossCheckError instead of producing a wrong
report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .construct import gen_thm1, gen_thm4, gen_thm5, gen_thm7
from .errors import CrossCheckError
from .model import ExtendedValue, Instance, extended_ratio
from .solve import Objective, PropertyFilter, max_welfare


@dataclass(frozen=True)
class ReportRow:
    family: str
    n: int
    m: int
    params: str
    prop: str
    mew: Fraction
    mew_p: Fraction
    pof: ExtendedValue


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CrossCheckError(message)


def _rows(
    inst: Instance, family: str, params: str, *props: PropertyFilter
) -> Iterator[ReportRow]:
    """One row per property; the unrestricted optimum is solved once."""
    mew = max_welfare(inst, Objective.EGALITARIAN, PropertyFilter.NONE).value
    for prop in props:
        mew_p = max_welfare(inst, Objective.EGALITARIAN, prop).value
        yield ReportRow(
            family=family,
            n=inst.n,
            m=inst.m,
            params=params,
            prop=prop.value,
            mew=mew,
            mew_p=mew_p,
            pof=extended_ratio(mew, mew_p),
        )


def build_report() -> list[ReportRow]:
    rows: list[ReportRow] = []

    eps = Fraction(1, 100)
    n = 3
    props = (PropertyFilter.EF1, PropertyFilter.BALANCED, PropertyFilter.ROUND_ROBIN)
    for m in range(3, 9):
        # conjectured forms, read off solved tables: pof = (m - n + 1) / d
        divisors = ((m + n - 3) // (n - 1), -(-m // n), (m + n - 2) // n)
        solved = _rows(gen_thm1(n, m, eps), "thm1", f"eps={eps}", *props)
        for prop, d, row in zip(props, divisors, solved):
            _check(row.mew == (m - n + 1) * eps**2, f"thm1 m={m}: unexpected mew {row.mew}")
            _check(row.pof == Fraction(m - n + 1, d), f"thm1 m={m}: unexpected pof_{prop.value} {row.pof}")
            rows.append(row)

    for eps in (Fraction(1, 100), Fraction(1, 1000)):
        [row] = _rows(gen_thm4(eps), "thm4", f"eps={eps}", PropertyFilter.MAX_UTILITARIAN)
        _check(row.pof == Fraction(1, 4) / eps, f"thm4 eps={eps}: unexpected pof {row.pof}")
        rows.append(row)

    x, y = Fraction(3, 2), Fraction(2, 5)
    [row] = _rows(gen_thm5(x, y), "thm5", f"x={x};y={y}", PropertyFilter.MAX_NASH)
    _check(row.pof == x, f"thm5: unexpected pof {row.pof}")
    rows.append(row)

    for eps in (Fraction(1, 10), Fraction(1, 20)):
        [row] = _rows(gen_thm7(eps), "thm7", f"eps={eps}", PropertyFilter.MAX_NASH)
        _check(row.pof == 1 / eps, f"thm7 eps={eps}: unexpected pof {row.pof}")
        rows.append(row)

    return rows


def render_csv(rows: list[ReportRow]) -> str:
    lines = ["family,n,m,params,property,mew,mew_p,pof"]
    for r in rows:
        lines.append(
            f"{r.family},{r.n},{r.m},{r.params},{r.prop},{r.mew},{r.mew_p},{r.pof}"
        )
    return "\n".join(lines) + "\n"


def render_markdown(rows: list[ReportRow]) -> str:
    lines = [
        "| family | n | m | params | property | mew | mew_p | pof |",
        "| --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for r in rows:
        lines.append(
            f"| {r.family} | {r.n} | {r.m} | {r.params} | {r.prop} "
            f"| {r.mew} | {r.mew_p} | {r.pof} |"
        )
    return "\n".join(lines) + "\n"
