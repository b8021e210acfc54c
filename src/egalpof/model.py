"""Instances, allocations and the three welfare functions.

Everything is exact: utilities are `fractions.Fraction` values and no float
ever enters a computation. Agents and goods are 1-indexed throughout the
public API.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    BudgetExceeded,
    GoodOutOfRange,
    NegativeUtility,
    RowSumNotOne,
    TooFewAgents,
    ZeroRow,
)

Rational = Fraction

ONE = Fraction(1)
ZERO = Fraction(0)

DEFAULT_ENUMERATION_CAP = 2_000_000
DEFAULT_RR_BRANCH_CAP = 1_000_000


def as_rational(value) -> Fraction:
    """Convert ints, rational strings like "3/7" or Fractions; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not allowed; use Fraction, int or 'p/q' strings")
    return Fraction(value)


@dataclass(frozen=True)
class Instance:
    """n agents with additive utilities over m goods.

    Build instances through :func:`validate_instance` or
    :func:`normalize_instance`, which enforce nonnegative entries and exact
    row sums of 1. The constructor itself only checks the shape, so that
    internal reduced instances (restricted good sets, rows deliberately not
    re-normalized) can reuse the same type.
    """

    n: int
    m: int
    u: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.n < 1 or self.m < 0:
            raise ValueError("instance needs n >= 1 agents and m >= 0 goods")
        if len(self.u) != self.n or any(len(row) != self.m for row in self.u):
            raise ValueError("utility matrix shape does not match n x m")

    def utility(self, agent: int, good: int) -> Fraction:
        if not 1 <= good <= self.m:
            raise GoodOutOfRange(good, self.m)
        if not 1 <= agent <= self.n:
            raise ValueError(f"agent {agent} outside 1..{self.n}")
        return self.u[agent - 1][good - 1]

    def row(self, agent: int) -> tuple[Fraction, ...]:
        return self.u[agent - 1]

    def agents(self) -> range:
        return range(1, self.n + 1)

    def goods(self) -> range:
        return range(1, self.m + 1)

    @cached_property
    def _scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        # cached_property writes the instance __dict__ directly, so it works
        # on a frozen dataclass without entering __eq__ or __hash__
        scale = 1
        for row in self.u:
            for x in row:
                scale = lcm(scale, x.denominator)
        return scale, tuple(tuple(int(x * scale) for x in row) for row in self.u)


@dataclass(frozen=True)
class Allocation:
    """A partition of the goods: owner[j] is the agent holding good j+1."""

    n: int
    owner: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("allocation needs n >= 1 agents")
        for j, a in enumerate(self.owner, start=1):
            if not 1 <= a <= self.n:
                raise ValueError(f"good {j} assigned to invalid agent {a}")

    @property
    def m(self) -> int:
        return len(self.owner)

    def bundle(self, agent: int) -> tuple[int, ...]:
        """Goods held by `agent`, ascending."""
        return tuple(j for j, a in enumerate(self.owner, start=1) if a == agent)

    def bundles(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for j, a in enumerate(self.owner, start=1):
            out[a - 1].append(j)
        return tuple(tuple(b) for b in out)

    def sizes(self) -> tuple[int, ...]:
        counts = [0] * self.n
        for a in self.owner:
            counts[a - 1] += 1
        return tuple(counts)


def _to_rows(raw) -> list[list[Fraction]]:
    rows = [[as_rational(x) for x in row] for row in raw]
    if not rows:
        raise TooFewAgents(0)
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("ragged utility matrix")
    return rows


def validate_instance(raw: Sequence[Sequence]) -> Instance:
    """Check nonnegativity and exact row sums of 1, then build the Instance."""
    rows = _to_rows(raw)
    n = len(rows)
    if n < 2:
        raise TooFewAgents(n)
    for i, row in enumerate(rows, start=1):
        for j, x in enumerate(row, start=1):
            if x < 0:
                raise NegativeUtility(i, j)
        total = sum(row, ZERO)
        if total != 1:
            raise RowSumNotOne(i, total)
    return Instance(n, len(rows[0]), tuple(tuple(row) for row in rows))


def normalize_instance(raw: Sequence[Sequence]) -> Instance:
    """Divide each row by its sum so the result passes validate_instance."""
    rows = _to_rows(raw)
    if len(rows) < 2:
        raise TooFewAgents(len(rows))
    scaled = []
    for i, row in enumerate(rows, start=1):
        for j, x in enumerate(row, start=1):
            if x < 0:
                raise NegativeUtility(i, j)
        total = sum(row, ZERO)
        if total == 0:
            raise ZeroRow(i)
        scaled.append([x / total for x in row])
    return validate_instance(scaled)


def _check_pair(inst: Instance, alloc: Allocation) -> None:
    if alloc.n != inst.n or alloc.m != inst.m:
        raise ValueError("allocation does not match instance dimensions")


def bundle_utility(inst: Instance, agent: int, goods: Iterable[int]) -> Fraction:
    """Exact additive value of a set of goods; the empty set is worth 0."""
    if not 1 <= agent <= inst.n:
        raise ValueError(f"agent {agent} outside 1..{inst.n}")
    row = inst.u[agent - 1]
    total = ZERO
    for g in set(goods):
        if not 1 <= g <= inst.m:
            raise GoodOutOfRange(g, inst.m)
        total += row[g - 1]
    return total


def agent_utilities(inst: Instance, alloc: Allocation) -> tuple[Fraction, ...]:
    """u_i(A_i) for every agent, in one pass over the goods."""
    _check_pair(inst, alloc)
    totals = [ZERO] * inst.n
    for j, a in enumerate(alloc.owner):
        totals[a - 1] += inst.u[a - 1][j]
    return tuple(totals)


def egalitarian_welfare(inst: Instance, alloc: Allocation) -> Fraction:
    return min(agent_utilities(inst, alloc))


def utilitarian_welfare(inst: Instance, alloc: Allocation) -> Fraction:
    return sum(agent_utilities(inst, alloc), ZERO)


def nash_welfare(inst: Instance, alloc: Allocation) -> Fraction:
    return prod(agent_utilities(inst, alloc), start=ONE)


@dataclass(frozen=True)
class ExtendedValue:
    """A finite exact value or positive infinity.

    Welfare ratios land here: 0/0 evaluates to 1 and positive/0 to infinity.
    """

    value: Fraction | None  # None encodes infinity

    @classmethod
    def finite(cls, value) -> "ExtendedValue":
        return cls(as_rational(value))

    @classmethod
    def infinite(cls) -> "ExtendedValue":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def as_fraction(self) -> Fraction:
        if self.value is None:
            raise ValueError("infinite value has no fraction form")
        return self.value

    @staticmethod
    def _coerce(other):
        if isinstance(other, ExtendedValue):
            return other
        if isinstance(other, (int, Fraction)):
            return ExtendedValue(Fraction(other))
        return None

    def __eq__(self, other) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self.value == coerced.value

    def __hash__(self):
        return hash(self.value)

    def __lt__(self, other) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        if self.is_infinite:
            return False
        if coerced.is_infinite:
            return True
        return self.value < coerced.value

    def __le__(self, other) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self == coerced or self < coerced

    def __gt__(self, other) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return coerced < self

    def __ge__(self, other) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return coerced <= self

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)

    def __repr__(self) -> str:
        return f"ExtendedValue({self})"


INFINITY = ExtendedValue(None)


def extended_ratio(numerator: Fraction, denominator: Fraction) -> ExtendedValue:
    """numerator/denominator with the conventions 0/0 = 1 and x/0 = infinity."""
    if denominator != 0:
        return ExtendedValue(numerator / denominator)
    if numerator == 0:
        return ExtendedValue(ONE)
    return INFINITY


def scaled_rows(inst: Instance) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Utilities rescaled to integers by the common denominator.

    Integer arithmetic on the scaled matrix is exact and much faster than
    Fraction arithmetic in enumeration loops; divide by the returned scale
    (or scale**n for products) to recover true values. Computed once per
    instance; every call returns the same object.
    """
    return inst._scaled


def scaled_utilities(
    rows: Sequence[Sequence[int]], n: int, owner: Sequence[int]
) -> list[int]:
    """Per-agent scaled utilities of the allocation given by `owner`."""
    util = [0] * n
    for j, a in enumerate(owner):
        util[a - 1] += rows[a - 1][j]
    return util


def iter_allocations_scaled(
    inst: Instance,
    cap: int = DEFAULT_ENUMERATION_CAP,
    prune: Callable[[list[int], int], bool] | None = None,
) -> Iterator[tuple[list[int], list[int]]]:
    """Yield (owner, per-agent scaled utility) in lexicographic order.

    Raises BudgetExceeded before yielding anything when n**m exceeds `cap`.
    The yielded lists are reused between iterations; copy before storing.

    After the first allocation, `prune(util, k)` is asked about every prefix
    owner[:k] with 0 < k < m that the enumeration enters, where util holds
    the scaled utilities of goods 1..k alone (valid only during the call).
    Returning True skips every allocation that extends that prefix.
    """
    n, m = inst.n, inst.m
    total = n**m
    if total > cap:
        raise BudgetExceeded(total, cap)
    _, rows = scaled_rows(inst)
    owner = [1] * m
    util = [0] * n
    row0 = rows[0]
    for j in range(m):
        util[0] += row0[j]
    # tail[k]: agent 1's value for goods k+1..m. A carry resets every later
    # good to agent 1, so util less tail[k] on agent 1 is the prefix's util.
    tail = [0] * (m + 1)
    for j in range(m - 1, -1, -1):
        tail[j] = tail[j + 1] + row0[j]
    while True:
        yield owner, util
        j = m - 1
        while j >= 0:
            a = owner[j]
            util[a - 1] -= rows[a - 1][j]
            if a == n:
                owner[j] = 1
                util[0] += row0[j]
                j -= 1
                continue
            owner[j] = a + 1
            util[a] += rows[a][j]
            if prune is None:
                break
            for k in range(j + 1, m):
                util[0] -= tail[k]
                rejected = prune(util, k)
                util[0] += tail[k]
                if rejected:
                    j = k - 1  # advance the last good of the rejected prefix
                    break
            else:
                break
        if j < 0:
            return
