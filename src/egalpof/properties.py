"""Fairness and efficiency predicates: EF1, balancedness, Pareto-optimality
and the envy graph."""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import inf
from operator import ge
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceeded
from .model import (
    DEFAULT_ENUMERATION_CAP,
    Allocation,
    Instance,
    _check_pair,
    iter_allocations_scaled,
    mirror_allocations,
    scaled_rows,
    scaled_utilities,
)


@dataclass(frozen=True)
class EnvyGraph:
    """Directed graph with an edge i -> j when i strictly prefers j's bundle."""

    n: int
    edges: frozenset[tuple[int, int]]

    def is_acyclic(self) -> bool:
        return self._kahn() is not None

    def topological_order(self) -> tuple[int, ...]:
        """Topological order, ties broken by ascending agent index."""
        order = self._kahn()
        if order is None:
            raise ValueError("envy graph has a cycle")
        return order

    def _kahn(self) -> tuple[int, ...] | None:
        indegree = {v: 0 for v in range(1, self.n + 1)}
        for _, j in self.edges:
            indegree[j] += 1
        order: list[int] = []
        ready = [v for v, d in indegree.items() if d == 0]  # ascending, so a heap
        while ready:
            v = heappop(ready)
            order.append(v)
            for i, j in self.edges:
                if i == v:
                    indegree[j] -= 1
                    if indegree[j] == 0:
                        heappush(ready, j)
        return tuple(order) if len(order) == self.n else None


def is_balanced(alloc: Allocation) -> bool:
    sizes = alloc.sizes()
    return max(sizes) - min(sizes) <= 1


def is_ef1(inst: Instance, alloc: Allocation) -> bool:
    """Envy-free up to one good.

    For every ordered pair (i, j): either j's bundle is empty, or removing
    the good i values most from it leaves nothing i still envies. For
    nonnegative utilities, which every `Instance` has, removing the most
    valued good is optimal, so this matches the existential form with
    removal sets of size at most one.
    """
    _check_pair(inst, alloc)
    _, rows = scaled_rows(inst)
    owner = alloc.owner
    size = inst.n + 1
    for i, row in enumerate(rows, start=1):
        # one pass: i's value of each bundle and of its best good, None for
        # an empty bundle
        value = [0] * size
        best = [None] * size
        for a, x in zip(owner, row):
            value[a] += x
            b = best[a]
            if b is None or x > b:
                best[a] = x
        own = value[i]
        for j in range(1, size):
            b = best[j]
            if b is not None and j != i and own < value[j] - b:
                return False
    return True


def envy_graph(inst: Instance, alloc: Allocation) -> EnvyGraph:
    _check_pair(inst, alloc)
    _, rows = scaled_rows(inst)
    owner = alloc.owner
    size = inst.n + 1
    edges = []
    for i, row in enumerate(rows, start=1):
        value = [0] * size  # i's value of each bundle, in one pass
        for a, x in zip(owner, row):
            value[a] += x
        own = value[i]
        edges.extend((i, j) for j in range(1, size) if own < value[j])
    return EnvyGraph(inst.n, frozenset(edges))


def weakly_dominates(x: Sequence, y: Sequence) -> bool:
    """Is every entry of utility vector x at least the matching entry of y?"""
    return all(map(ge, x, y))


def is_pareto_optimal(
    inst: Instance, alloc: Allocation, cap: int = DEFAULT_ENUMERATION_CAP
) -> bool:
    """Is the allocation's utility vector on the last Pareto front?

    That front holds exactly the maximal achievable vectors, the ones with
    no strict dominator. The front build counts against `cap` as in
    `_pareto_fronts`.
    """
    _check_pair(inst, alloc)
    _, rows = scaled_rows(inst)
    util = scaled_utilities(rows, inst.n, alloc.owner)
    return tuple(util) in _pareto_fronts(inst, cap)[-1]


def _maxima(vectors: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The distinct vectors of which no other vector is a weak dominator.

    In lex-descending order every weak dominator of a vector comes before
    it, and an earlier w has w[0] >= v[0], so w is a weak dominator of v
    exactly when w[1:] is one of v[1:]. Each vector is therefore checked
    only against the maximal tails of the maxima kept so far.
    """
    kept: list[tuple[int, ...]] = []
    tails: list[tuple[int, ...]] = []
    for vec in sorted(set(vectors), reverse=True):
        tail = vec[1:]
        if any(weakly_dominates(t, tail) for t in tails):
            continue
        kept.append(vec)
        tails = [t for t in tails if not weakly_dominates(tail, t)]
        tails.append(tail)
    return kept


def _pareto_fronts(inst: Instance, cap: int) -> list[set[tuple[int, ...]]]:
    """fronts[k]: the maximal scaled utility vectors of allocations of goods 1..k.

    Pareto-optimality is hereditary on prefixes: a dominator of owner[:k],
    extended by the same goods k+1..m, is a dominator of the whole
    allocation, as utilities are additive. So fronts[k] is the maxima of
    fronts[k - 1] with good k added to each agent in turn. The n candidates formed per
    vector count against `cap` under the enumerator's rule: never refused
    when n**m <= cap, else BudgetExceeded(cap + 1, cap) once over it.
    """
    n, m = inst.n, inst.m
    _, rows = scaled_rows(inst)
    limit = cap if n**m > cap else inf
    fronts = [{(0,) * n}]
    formed = 0
    for k in range(m):
        candidates = []
        for vec in fronts[k]:
            formed += n
            if formed > limit:
                raise BudgetExceeded(cap + 1, cap)
            for a in range(n):
                cand = list(vec)
                cand[a] += rows[a][k]
                candidates.append(tuple(cand))
        fronts.append(set(_maxima(candidates)))
    return fronts


def pareto_optimal_allocations(
    inst: Instance, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[Allocation]:
    """All Pareto-optimal allocations, in lexicographic owner order.

    The fronts are built one good at a time; the canonical allocations,
    which attain every utility vector, are then searched with every prefix
    off its front skipped, and the ones on the last front are listed with
    their mirrors. The front build, the search and the mirrors each count
    against `cap` on their own.
    """
    fronts = _pareto_fronts(inst, cap)
    in_front = lambda owner, util, k: tuple(util) in fronts[k]
    owners = [
        tuple(owner)
        for owner, util in iter_allocations_scaled(inst, cap, in_front, [False])
        if tuple(util) in fronts[-1]
    ]
    for owner in mirror_allocations(inst, owners, cap):
        yield Allocation(inst.n, owner)
