"""Fairness and efficiency predicates: EF1, balancedness, domination,
Pareto-optimality and the envy graph with its cycle rotation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import NotACycle
from .model import (
    DEFAULT_ENUMERATION_CAP,
    Allocation,
    Instance,
    _check_pair,
    agent_utilities,
    iter_allocations_scaled,
    scaled_rows,
    scaled_utilities,
)


@dataclass(frozen=True)
class DominationVerdict:
    weak: bool
    strong: bool


@dataclass(frozen=True)
class EnvyGraph:
    """Directed graph with an edge i -> j when i strictly prefers j's bundle."""

    n: int
    edges: frozenset[tuple[int, int]]

    def successors(self, agent: int) -> tuple[int, ...]:
        return tuple(sorted(j for i, j in self.edges if i == agent))

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
        ready = sorted(v for v, d in indegree.items() if d == 0)
        while ready:
            v = ready.pop(0)
            order.append(v)
            changed = False
            for i, j in self.edges:
                if i == v:
                    indegree[j] -= 1
                    if indegree[j] == 0:
                        ready.append(j)
                        changed = True
            if changed:
                ready.sort()
        return tuple(order) if len(order) == self.n else None

    def find_cycle(self) -> tuple[int, ...] | None:
        """Some simple directed cycle, rotated so the smallest agent leads."""
        color = {v: 0 for v in range(1, self.n + 1)}  # 0 new, 1 active, 2 done
        stack: list[int] = []

        def dfs(v: int) -> tuple[int, ...] | None:
            color[v] = 1
            stack.append(v)
            for w in self.successors(v):
                if color[w] == 1:
                    cycle = stack[stack.index(w):]
                    k = cycle.index(min(cycle))
                    return tuple(cycle[k:] + cycle[:k])
                if color[w] == 0:
                    found = dfs(w)
                    if found is not None:
                        return found
            color[v] = 2
            stack.pop()
            return None

        for v in range(1, self.n + 1):
            if color[v] == 0:
                found = dfs(v)
                if found is not None:
                    return found
        return None


def is_balanced(alloc: Allocation) -> bool:
    sizes = alloc.sizes()
    return max(sizes) - min(sizes) <= 1


def is_ef1(inst: Instance, alloc: Allocation) -> bool:
    """Envy-free up to one good.

    For every ordered pair (i, j): either j's bundle is empty, or removing
    the good i values most from it leaves nothing i still envies. Removing
    the most valued good is optimal, so this matches the existential form
    with removal sets of size at most one.
    """
    _check_pair(inst, alloc)
    _, rows = scaled_rows(inst)
    bundles = alloc.bundles()
    for i in range(inst.n):
        row = rows[i]
        own = sum(row[g - 1] for g in bundles[i])
        for j in range(inst.n):
            if i == j or not bundles[j]:
                continue
            values = [row[g - 1] for g in bundles[j]]
            if own < sum(values) - max(values):
                return False
    return True


def envy_graph(inst: Instance, alloc: Allocation) -> EnvyGraph:
    _check_pair(inst, alloc)
    _, rows = scaled_rows(inst)
    bundles = alloc.bundles()
    values = [
        [sum(rows[i][g - 1] for g in bundles[j]) for j in range(inst.n)]
        for i in range(inst.n)
    ]
    edges = frozenset(
        (i + 1, j + 1)
        for i in range(inst.n)
        for j in range(inst.n)
        if i != j and values[i][i] < values[i][j]
    )
    return EnvyGraph(inst.n, edges)


def dominates(inst: Instance, b: Allocation, a: Allocation) -> DominationVerdict:
    """Does b weakly/strongly dominate a?"""
    ub = agent_utilities(inst, b)
    ua = agent_utilities(inst, a)
    weak = all(x >= y for x, y in zip(ub, ua))
    strong = weak and any(x > y for x, y in zip(ub, ua))
    return DominationVerdict(weak=weak, strong=strong)


def is_pareto_optimal(
    inst: Instance, alloc: Allocation, cap: int = DEFAULT_ENUMERATION_CAP
) -> bool:
    """Exhaustively certify that no allocation strongly dominates this one."""
    _check_pair(inst, alloc)
    _, rows = scaled_rows(inst)
    base = scaled_utilities(rows, inst.n, alloc.owner)
    for _, util in iter_allocations_scaled(inst, cap):
        if all(u >= v for u, v in zip(util, base)) and any(
            u > v for u, v in zip(util, base)
        ):
            return False
    return True


def pareto_optimal_allocations(
    inst: Instance, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[Allocation]:
    """All Pareto-optimal allocations, in lexicographic owner order.

    Two streaming passes: the first collects the maximal utility vectors
    (any strong dominator has strictly larger sum, so scanning distinct
    vectors in decreasing-sum order only ever needs comparisons against the
    running maximal set), the second yields the allocations attaining them.
    """
    distinct = {tuple(util) for _, util in iter_allocations_scaled(inst, cap)}
    front: list[tuple[int, ...]] = []
    for vec in sorted(distinct, key=lambda v: (-sum(v), v)):
        dominated = False
        for w in front:
            if all(x >= y for x, y in zip(w, vec)):
                dominated = True
                break
        if not dominated:
            front.append(vec)
    front_set = set(front)
    for owner, util in iter_allocations_scaled(inst, cap):
        if tuple(util) in front_set:
            yield Allocation(inst.n, tuple(owner))


def rotate_cycle(
    inst: Instance, alloc: Allocation, cycle: Sequence[int]
) -> Allocation:
    """Shift bundles backward along an envy cycle.

    Each agent in the cycle receives the bundle of the agent she envied;
    agents outside the cycle keep theirs. The result strongly dominates the
    input because every edge of the cycle is a strict improvement.
    """
    agents = tuple(cycle)
    if len(agents) < 2 or len(set(agents)) != len(agents):
        raise NotACycle(f"{agents} is not a simple cycle")
    graph = envy_graph(inst, alloc)
    for k, i in enumerate(agents):
        j = agents[(k + 1) % len(agents)]
        if (i, j) not in graph.edges:
            raise NotACycle(f"missing envy edge {i} -> {j}")
    receiver_of = {
        agents[(k + 1) % len(agents)]: agents[k] for k in range(len(agents))
    }
    owner = tuple(receiver_of.get(a, a) for a in alloc.owner)
    return Allocation(alloc.n, owner)
