"""Seeded random-instance verification suites.

Three suites back the CLI `verify` subcommand: `bounds` checks the welfare
floors and caps that every instance must satisfy, `facts` checks what
round-robin outputs always look like plus the equivalence of the two EF1
forms, and `lemmas` replays the constructive procedures and their
guarantees. All checks are exact; a single violation fails the report.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParamOutOfRange, TooFewAgents
from .model import (
    DEFAULT_ENUMERATION_CAP,
    Allocation,
    ExtendedValue,
    Instance,
    _check_cells,
    _check_list_size,
    agent_utilities,
    egalitarian_welfare,
    extended_ratio,
    normalize_instance,
    scaled_rows,
)
from .properties import (
    envy_graph,
    is_balanced,
    is_ef1,
    pareto_optimal_allocations,
    weakly_dominates,
)
from .roundrobin import (
    balanced_from_mew,
    dominating_rr_one_good,
    enumerate_rr_allocations,
    rr_from_mew,
    run_round_robin,
)
from .solve import Objective, PropertyFilter, max_welfare

_EF1_SAMPLE_CAP = 256


@dataclass
class CheckRecord:
    name: str
    tried: int = 0
    violations: int = 0
    worst: ExtendedValue | None = None

    def record(self, ok: bool, ratio: ExtendedValue | None = None) -> None:
        """Count one trial of the check; keep the largest ratio seen."""
        self.tried += 1
        if not ok:
            self.violations += 1
        if ratio is not None and (self.worst is None or ratio > self.worst):
            self.worst = ratio

    def to_line(self) -> str:
        worst = "-" if self.worst is None else str(self.worst)
        return (
            f"check {self.name}: tried={self.tried} "
            f"violations={self.violations} worst={worst}"
        )


@dataclass
class VerifyReport:
    suite: str
    n: int
    m_max: int
    trials: int
    seed: int
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.violations == 0 for c in self.checks)

    def to_text(self) -> str:
        lines = [
            f"suite={self.suite} n={self.n} m_max={self.m_max} "
            f"trials={self.trials} seed={self.seed}"
        ]
        lines.extend(c.to_line() for c in self.checks)
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"


def random_instance(
    rng: random.Random, n: int, m: int, denom_bound: int = 20
) -> Instance:
    """Integer utilities in [0, denom_bound], all-zero rows resampled, then
    row-normalized. Small draws keep exact arithmetic fast."""
    if m < 1 or denom_bound < 1:
        raise ParamOutOfRange(
            f"need m >= 1 and denom_bound >= 1, got m={m}, denom_bound={denom_bound}"
        )
    if n < 2:
        raise TooFewAgents(n)
    rows = []
    for _ in range(n):
        while True:
            row = [rng.randint(0, denom_bound) for _ in range(m)]
            if any(row):
                break
        rows.append(row)
    return normalize_instance(rows)


def _owner_from_index(index: int, n: int, m: int) -> tuple[int, ...]:
    digits = []
    for _ in range(m):
        digits.append(index % n + 1)
        index //= n
    return tuple(reversed(digits))


def _ef1_existential(inst: Instance, alloc: Allocation) -> bool:
    """Literal EF1: some removal set of size <= 1 kills each pair's envy."""
    _, rows = scaled_rows(inst)
    bundles = alloc.bundles()
    for i in range(inst.n):
        row = rows[i]
        own = sum(row[g - 1] for g in bundles[i])
        for j in range(inst.n):
            if i == j:
                continue
            total = sum(row[g - 1] for g in bundles[j])
            if own >= total:
                continue  # the empty removal set works
            if not any(own >= total - row[g - 1] for g in bundles[j]):
                return False
    return True


def _random_allocation(rng: random.Random, n: int, m: int) -> Allocation:
    return Allocation(n, tuple(rng.randint(1, n) for _ in range(m)))


def _run_bounds(
    inst: Instance, rng: random.Random, checks: dict[str, CheckRecord], cap: int
) -> None:
    mew = max_welfare(inst, Objective.EGALITARIAN, PropertyFilter.NONE, cap).value
    restricted: dict[PropertyFilter, Fraction] = {}
    for prop in (
        PropertyFilter.EF1,
        PropertyFilter.BALANCED,
        PropertyFilter.ROUND_ROBIN,
        PropertyFilter.MAX_UTILITARIAN,
        PropertyFilter.MAX_NASH,
    ):
        value = max_welfare(inst, Objective.EGALITARIAN, prop, cap).value
        restricted[prop] = value
        checks[f"mew_ge[{prop.value}]"].record(
            mew >= value, extended_ratio(value, mew)
        )
    n = inst.n
    mew_ba = restricted[PropertyFilter.BALANCED]
    checks["balanced_within_n"].record(
        n * mew_ba >= mew, extended_ratio(mew, n * mew_ba)
    )
    mew_rr = restricted[PropertyFilter.ROUND_ROBIN]
    checks["rr_within_2n1"].record(
        (2 * n - 1) * mew_rr >= mew, extended_ratio(mew, (2 * n - 1) * mew_rr)
    )
    if n == 2:
        pof_mnw = extended_ratio(mew, restricted[PropertyFilter.MAX_NASH])
        checks["mnw_pof_le_2_n2"].record(pof_mnw <= 2, pof_mnw)


def _run_facts(
    inst: Instance, rng: random.Random, checks: dict[str, CheckRecord], cap: int
) -> None:
    for alloc in enumerate_rr_allocations(inst, cap):
        checks["rr_outputs_ef1_balanced"].record(
            is_ef1(inst, alloc) and is_balanced(alloc)
        )
    total = inst.n ** inst.m
    if total <= sys.maxsize:
        picks = rng.sample(range(total), min(total, _EF1_SAMPLE_CAP))
    else:  # sample() takes len() of the range, which overflows
        picks = [rng.randrange(total) for _ in range(_EF1_SAMPLE_CAP)]
    for i in picks:
        alloc = Allocation(inst.n, _owner_from_index(i, inst.n, inst.m))
        checks["ef1_forms_agree"].record(
            is_ef1(inst, alloc) == _ef1_existential(inst, alloc)
        )


def _run_lemmas(
    inst: Instance, rng: random.Random, checks: dict[str, CheckRecord], cap: int
) -> None:
    for alloc in pareto_optimal_allocations(inst, cap):
        checks["po_envy_acyclic"].record(envy_graph(inst, alloc).is_acyclic())

    if inst.m == inst.n:
        for owner in itertools.permutations(inst.agents()):
            start = Allocation(inst.n, owner)
            found, sched = dominating_rr_one_good(inst, start)
            weak = weakly_dominates(
                agent_utilities(inst, found), agent_utilities(inst, start)
            )
            replay = run_round_robin(inst, sched).allocation == found
            checks["matching_dominator_replay"].record(weak and replay)

    witness = max_welfare(inst, Objective.EGALITARIAN, PropertyFilter.NONE, cap).witness
    for alloc in (witness, _random_allocation(rng, inst.n, inst.m)):
        rounded = balanced_from_mew(inst, alloc)
        before = agent_utilities(inst, alloc)
        floor = [inst.n * b for b in agent_utilities(inst, rounded)]
        ok = is_balanced(rounded) and weakly_dominates(floor, before)
        worst = max(map(extended_ratio, before, floor))
        checks["balanced_rounding_per_agent"].record(ok, worst)

    if all(witness.bundle(i) for i in inst.agents()):
        result, sched = rr_from_mew(inst, witness)
        ew_before = egalitarian_welfare(inst, witness)
        ew_after = egalitarian_welfare(inst, result)
        replay = run_round_robin(inst, sched).allocation == result
        ok = replay and (2 * inst.n - 1) * ew_after >= ew_before
        checks["rr_pipeline_floor"].record(
            ok, extended_ratio(ew_before, (2 * inst.n - 1) * ew_after)
        )


_SUITE_CHECKS = {
    "bounds": (
        "mew_ge[ef1]",
        "mew_ge[ba]",
        "mew_ge[rr]",
        "mew_ge[muw]",
        "mew_ge[mnw]",
        "balanced_within_n",
        "rr_within_2n1",
        "mnw_pof_le_2_n2",
    ),
    "facts": ("rr_outputs_ef1_balanced", "ef1_forms_agree"),
    "lemmas": (
        "po_envy_acyclic",
        "matching_dominator_replay",
        "balanced_rounding_per_agent",
        "rr_pipeline_floor",
    ),
}

SUITES = tuple(_SUITE_CHECKS)

_RUNNERS = {"bounds": _run_bounds, "facts": _run_facts, "lemmas": _run_lemmas}


def run_suite(
    suite: str,
    n: int,
    m_max: int,
    trials: int,
    seed: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> VerifyReport:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}, expected one of {SUITES}")
    if m_max < 1 or trials < 1:
        raise ParamOutOfRange(
            f"need m_max >= 1 and trials >= 1, got m_max={m_max}, trials={trials}"
        )
    _check_list_size("n", n)
    _check_list_size("m_max", m_max)
    _check_cells(n, m_max, cap)
    # The corpus stream only ever draws instances, so every suite sees the
    # same instances for the same (n, m_max, trials, seed); per-trial
    # sampling inside checks uses its own derived stream.
    corpus_rng = random.Random(seed)
    names = [
        name
        for name in _SUITE_CHECKS[suite]
        if not (name == "mnw_pof_le_2_n2" and n != 2)
    ]
    checks = {name: CheckRecord(name) for name in names}
    run = _RUNNERS[suite]
    for trial in range(trials):
        m = corpus_rng.randint(1, m_max)
        inst = random_instance(corpus_rng, n, m)
        run(inst, random.Random(seed * 1_000_003 + trial), checks, cap)
    report = VerifyReport(suite=suite, n=n, m_max=m_max, trials=trials, seed=seed)
    report.checks = list(checks.values())
    return report
