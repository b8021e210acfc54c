"""Instances, allocations and the three welfare functions.

Everything is exact: utilities are `fractions.Fraction` values and no float
ever enters a computation. Agents and goods are 1-indexed throughout the
public API.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import inf, lcm, prod
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .errors import (
    BudgetExceeded,
    GoodOutOfRange,
    NegativeUtility,
    ParamOutOfRange,
    RowSumNotOne,
    TooFewAgents,
    ZeroRow,
)

ONE = Fraction(1)
ZERO = Fraction(0)

DEFAULT_ENUMERATION_CAP = 2_000_000
Ceiling = Callable[[list[int], list[int], int], object]


def _check_list_size(name: str, size: int) -> None:
    """Reject a length no Python list can have, before anything allocates."""
    if size > sys.maxsize:
        raise ParamOutOfRange(f"need {name} <= {sys.maxsize}, got {size}")


def _check_cells(n: int, m: int, cap: int) -> None:
    """Reject an n x m instance with more utility cells than `cap`, before
    anything allocates."""
    if n * m > cap:
        raise ParamOutOfRange(f"need at most {cap} utility cells, got {n} x {m} = {n * m}")


def as_rational(value) -> Fraction:
    """Convert ints, rational strings like "3/7" or Fractions; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not allowed; use Fraction, int or 'p/q' strings")
    return Fraction(value)


def _identical(keys: Iterable[Hashable]) -> tuple[list[int | None], list[list[int]]]:
    """The identical-goods rule: goods with equal keys are identical.

    `twins[g]` is the last good before g with g's key, or None; `classes`
    lists each class of two or more goods ascending, in order of its first
    good, and is empty when no two keys are equal."""
    twins: list[int | None] = []
    seen: dict[Hashable, list[int]] = {}
    for g, key in enumerate(keys):
        goods = seen.setdefault(key, [])
        twins.append(goods[-1] if goods else None)
        goods.append(g)
    return twins, [goods for goods in seen.values() if len(goods) > 1]


@dataclass(frozen=True)
class Instance:
    """n agents with additive, nonnegative utilities over m goods.

    The constructor checks the shape, rejects float cells, and raises
    NegativeUtility for the first negative cell in row-major order. Rows
    need not sum to 1, so that internal reduced instances (restricted good
    sets, rows deliberately not re-normalized) can reuse the type; build
    input instances through :func:`validate_instance` or
    :func:`normalize_instance`. Every instance carries its record
    `_scaled` from construction: ((scale, rows), twins, classes), each cell
    times the lcm of all denominators, and `_identical` of those columns.
    """

    n: int
    m: int
    u: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.n < 1 or self.m < 0:
            raise ValueError("instance needs n >= 1 agents and m >= 0 goods")
        if len(self.u) != self.n or any(len(row) != self.m for row in self.u):
            raise ValueError("utility matrix shape does not match n x m")
        # a list, not a generator: with `lcm(*generator)` here, peak RSS kept
        # rising through a 30 s run of thousands of small verify suites
        try:
            scale = lcm(*[x.denominator for row in self.u for x in row])
        except AttributeError:
            raise TypeError("utilities must be Fractions or ints; floats are not allowed") from None
        rows = tuple(tuple(x.numerator * (scale // x.denominator) for x in row) for row in self.u)
        for i, row in enumerate(rows, start=1):
            for j, x in enumerate(row, start=1):
                if x < 0:
                    raise NegativeUtility(i, j)
        # not a field, so __eq__ and __hash__ ignore it
        object.__setattr__(self, "_scaled", ((scale, rows), *_identical(zip(*rows))))

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
    """Build the Instance of `raw` and check its exact row sums of 1 on the
    scaled matrix. Errors come in this order: a malformed matrix, fewer than
    two agents, the first negative cell (row-major), the first row whose
    sum is not 1."""
    rows = _to_rows(raw)
    n = len(rows)
    if n < 2:
        raise TooFewAgents(n)
    inst = Instance(n, len(rows[0]), tuple(tuple(row) for row in rows))
    scale, scaled = inst._scaled[0]
    for i, row in enumerate(scaled, start=1):
        total = sum(row)
        if total != scale:
            raise RowSumNotOne(i, Fraction(total, scale))
    return inst


def normalize_instance(raw: Sequence[Sequence]) -> Instance:
    """Divide each row by its sum so the result passes validate_instance."""
    rows = _to_rows(raw)
    if len(rows) < 2:
        raise TooFewAgents(len(rows))
    scaled = []
    for i, row in enumerate(rows, start=1):
        scale = lcm(*[x.denominator for x in row])
        ints = [x.numerator * (scale // x.denominator) for x in row]
        for j, x in enumerate(ints, start=1):
            if x < 0:
                raise NegativeUtility(i, j)
        total = sum(ints)
        if total == 0:
            raise ZeroRow(i)
        scaled.append([Fraction(x, total) for x in ints])
    return validate_instance(scaled)


def _check_pair(inst: Instance, alloc: Allocation) -> None:
    if alloc.n != inst.n or alloc.m != inst.m:
        raise ValueError("allocation does not match instance dimensions")


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


@total_ordering
@dataclass(frozen=True)
class ExtendedValue:
    """A finite exact value or positive infinity.

    Welfare ratios land here: 0/0 evaluates to 1 and positive/0 to infinity.
    """

    value: Fraction | None  # None encodes infinity

    @classmethod
    def finite(cls, value) -> "ExtendedValue":
        return cls(as_rational(value))

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
    return inst._scaled[0]


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
    ceiling: Ceiling | None = None,
    floor: list | None = None,
) -> Iterator[tuple[list[int], list[int]]]:
    """Yield (owner, per-agent scaled utility) in lexicographic order.

    The yielded lists are reused between iterations; copy before storing.

    One depth-first loop walks the prefixes owner[:k]. It extends a prefix
    by putting good k+1 on its start agent, or moves the prefix's last good
    to the next agent and takes it off again after agent n. `util` always
    holds the scaled utilities of the goods in the current prefix.

    Goods with equal columns (every agent values them alike) are identical.
    A good starts at its previous twin's owner (agent 1 if none), so only
    the lex-smallest allocation of each class of mirror allocations is
    yielded. Mirrors keep every bundle's value and size for every agent, so
    no lex-first optimum of such a key is lost; `mirror_allocations` lists them.

    With `ceiling` the enumeration is also a branch-and-bound search.
    `floor` is a one-element list in which the consumer keeps its
    incumbent's comparison key, or a value below every key until it has
    one. `ceiling(owner, util, k)` is asked about every prefix owner[:k]
    with 0 < k < m that the loop enters, in depth-first order, util being
    that prefix's utilities (both valid only during the call). A prefix
    whose ceiling is at or below floor[0] is skipped with every allocation
    that extends it, so owner[:k - 1] was asked, and kept, just before
    owner[:k].

    A search with n**m <= cap is never refused. Otherwise states
    (allocations yielded, prefixes asked about) are counted as they are
    visited and BudgetExceeded(cap + 1, cap) fires at the first over `cap`.
    """
    n, m = inst.n, inst.m
    limit = cap if n**m > cap else inf
    # good k+1 starts at agent 1, or at its previous twin's owner
    (_, rows), twins, _ = inst._scaled
    owner = [0] * m
    util = [0] * n
    states = 0
    k = 0  # owner[:k] is the current prefix
    entered = True  # False while leaving owner[:k] for the next prefix
    while True:
        if entered and (k == m or k and ceiling is not None):
            states += 1
            if states > limit:
                raise BudgetExceeded(cap + 1, cap)
            if k == m:
                yield owner, util
                entered = False
            else:
                entered = not ceiling(owner, util, k) <= floor[0]
        if entered:  # extend: good k+1 goes to its start agent
            t = twins[k]
            if t is None:
                owner[k] = 1
                util[0] += rows[0][k]
            else:
                a = owner[k] = owner[t]
                util[a - 1] += rows[a - 1][k]
            k += 1
            continue
        k -= 1  # good k+1 moves to the next agent, or is taken off after agent n
        if k < 0:
            return
        a = owner[k]
        util[a - 1] -= rows[a - 1][k]
        if a < n:
            owner[k] = a + 1
            util[a] += rows[a][k]
            k += 1
            entered = True


def _orders(owners: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every distinct ordering of `owners`."""
    if not owners:
        yield ()
    for a in sorted(set(owners)):
        i = owners.index(a)
        for rest in _orders(owners[:i] + owners[i + 1 :]):
            yield (a,) + rest


def mirror_allocations(
    inst: Instance, owners: Iterable[tuple[int, ...]], cap: int = DEFAULT_ENUMERATION_CAP
) -> list[tuple[int, ...]]:
    """Every allocation that permutes identical goods in one of the distinct
    canonical `owners` (each class's owners sorted), in sorted order. Raises
    BudgetExceeded(cap + 1, cap) once it would list more than `cap`."""
    _, _, classes = inst._scaled
    for goods in classes:
        spread = []
        for owner in owners:
            for order in _orders(itemgetter(*goods)(owner)):
                slots = list(owner)
                for h, a in zip(goods, order):
                    slots[h] = a
                spread.append(tuple(slots))
                if len(spread) > cap:
                    raise BudgetExceeded(cap + 1, cap)
        owners = spread
    return sorted(owners)
