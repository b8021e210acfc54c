"""The benchmark's workloads: seeded query generation and output checks.

A workload object is built from the loaded `egalpof` modules, the workload
seed and a scratch directory. `prepare(p)` returns the queries of pass p;
passes must be prepared in order, because every instance is drawn from one
seeded stream and no two queries of a run share an instance. A query's
`call` is what gets timed; its `check` runs afterwards, outside the timed
region, and raises on a wrong result.

Every call goes through a module attribute looked up at call time (for
example `mods.solve.max_welfare`), so the trace wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable


class CheckFailed(Exception):
    """A query returned, but its output is wrong."""


class NonzeroExit(CheckFailed):
    """`cli.main` returned a nonzero exit code."""


@dataclass
class Query:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    input: Any = None  # what the program receives, for the self-tests


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Deck:
    """Draws from `values` without repetition until all are used, then
    starts a fresh shuffle; the order comes from the workload's stream."""

    def __init__(self, rng: random.Random, values):
        self.rng = rng
        self.values = list(values)
        self.pending: list = []

    def draw(self):
        if not self.pending:
            self.pending = list(self.values)
            self.rng.shuffle(self.pending)
        return self.pending.pop()


def run_cli(mods, argv: list[str]) -> tuple[int, str]:
    """`egalpof.cli.main(argv)` in-process, with its output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = mods.cli.main(argv)
    return code, out.getvalue()


def cli_value(result: tuple[int, str]) -> Fraction:
    code, out = result
    if code != 0:
        raise NonzeroExit(f"exit code {code}")
    return Fraction(out.strip())


# -- thm1_pof -----------------------------------------------------------------

THM1_N = 3
EF1_BA_M = range(6, 12)
RR_M = range(6, 10)
# thm4/thm5/thm7 are priced 28 times per pass, each on its own instance.
# They take about 2 ms each, so they add little time, but they make a pass
# of 45 queries in which the median falls inside their many samples and p90
# (45 = 5 mod 10) in the middle of one thm1 type's samples. A pass of 20
# queries put both percentiles between two query types, where a single
# extreme sample moved them by a quarter from run to run.
FAMILY_QUERIES = ("thm4", "thm5", "thm7") * 9 + ("thm4",)


def thm1_expected(prop: str, m: int) -> Fraction:
    """Closed-form egalitarian price of `thm1` at n = 3 for eps <= 1/(10m)."""
    if prop == "ef1":
        return Fraction(m - 2, -(-(m - 1) // 2))
    if prop == "ba":
        return Fraction(m - 2, -(-m // 3))
    raise ValueError(f"no closed form for {prop}")


def thm5_y(rng: random.Random, x: Fraction) -> Fraction:
    """A rational y strictly inside (1/(x + sqrt x), 1/x^2), checked exactly."""
    xf = float(x)
    lo, hi = 1 / (xf + math.sqrt(xf)), 1 / xf**2
    while True:
        y = Fraction(lo + (hi - lo) * rng.uniform(0.2, 0.8)).limit_denominator(10**6)
        if y > 0 and x * x * y < 1 and (1 - x * y) ** 2 < x * y * y:
            return y


class Thm1Pof:
    """The paper's worst-case families, priced through the CLI as users do."""

    name = "thm1_pof"

    def __init__(self, mods, seed: int, workdir: Path):
        self.mods = mods
        self.workdir = workdir
        self.rng = random.Random(f"thm1_pof:{seed}")
        self.thm1_k = {m: Deck(self.rng, range(10 * m, 40 * m + 1)) for m in EF1_BA_M}
        self.thm4_k = Deck(self.rng, range(5, 2001))
        self.thm5_x = Deck(self.rng, range(110, 171))
        self.thm7_k = Deck(self.rng, range(10, 2001))

    def _generate(self, path: Path, family: str, *params: str) -> str:
        code, _ = run_cli(
            self.mods, ["generate", "--family", family, *params, "--out", str(path)]
        )
        if code != 0:
            raise RuntimeError(f"generate {family} {params} exited {code}")
        return str(path)

    def _pof(self, label: str, path: str, prop: str, check) -> Query:
        argv = ["pof", "--instance", path, "--property", prop]
        return Query(label, lambda: run_cli(self.mods, argv), check, path)

    def prepare(self, p: int) -> list[Query]:
        queries = []
        files = (self.workdir / f"p{p}-{i}.json" for i in itertools.count())
        for m in EF1_BA_M:
            for prop in ("ef1", "ba", "rr") if m in RR_M else ("ef1", "ba"):
                k = self.thm1_k[m].draw()
                path = self._generate(
                    next(files), "thm1", "--n", str(THM1_N), "--m", str(m), "--eps", f"1/{k}"
                )
                queries.append(self._pof(f"thm1 m={m} {prop}", path, prop, _thm1_check(prop, m)))

        for family in FAMILY_QUERIES:
            queries.append(getattr(self, f"_{family}")(next(files)))

        report = self.workdir / f"p{p}-report.csv"

        def reproduce():
            code, _ = run_cli(self.mods, ["reproduce", "--out", str(report), "--format", "csv"])
            return code, report.read_text(encoding="utf-8") if code == 0 else ""

        def reproduce_ok(result):
            if result[0] != 0:
                raise NonzeroExit(f"exit code {result[0]}")

        queries.append(Query("reproduce", reproduce, reproduce_ok))
        return queries

    def _thm4(self, path: Path) -> Query:
        k = self.thm4_k.draw()
        path = self._generate(path, "thm4", "--eps", f"1/{k}")
        return self._pof("thm4 muw", path, "muw", _equals(Fraction(k, 4)))

    def _thm5(self, path: Path) -> Query:
        x = Fraction(self.thm5_x.draw(), 100)
        path = self._generate(path, "thm5", "--x", str(x), "--y", str(thm5_y(self.rng, x)))
        return self._pof("thm5 mnw", path, "mnw", _equals(x))

    def _thm7(self, path: Path) -> Query:
        k = self.thm7_k.draw()
        path = self._generate(path, "thm7", "--eps", f"1/{k}")
        return self._pof("thm7 mnw", path, "mnw", _equals(Fraction(k)))


def _equals(expected: Fraction):
    def check(result):
        value = cli_value(result)
        require(value == expected, f"pof {value}, expected {expected}")

    return check


def _thm1_check(prop: str, m: int):
    if prop != "rr":
        return _equals(thm1_expected(prop, m))

    def check(result):
        value = cli_value(result)
        low, high = thm1_expected("ba", m), 2 * THM1_N - 1
        require(low <= value <= high, f"pof_rr {value} outside [{low}, {high}]")

    return check


# -- solve_mix ----------------------------------------------------------------

SOLVE_SIZES = ((2, 12), (2, 13), (2, 14), (2, 15), (3, 8), (3, 9), (3, 10))
BRUTE_FORCE_SIZES = ((2, 12), (3, 8))


def brute_force(u, n: int, m: int) -> dict[tuple[str, str], tuple[Fraction, tuple[int, ...]]]:
    """Exact optimum and lexicographically first witness of every
    (objective, filter) pair solve_mix queries, by Fraction arithmetic over
    all n**m owner vectors; independent of the library's scaled kernels.

    Per-agent utilities come from two precomputed halves of the goods, so
    each owner vector costs n additions instead of m."""
    h = m // 2

    def half(goods: range):
        out = []
        for owner in itertools.product(range(1, n + 1), repeat=len(goods)):
            util = [Fraction(0)] * n
            for a, j in zip(owner, goods):
                util[a - 1] += u[a - 1][j]
            out.append((owner, util))
        return out

    table = []  # (owner, (ew, uw, nw), balanced) in lexicographic order
    for (left, ul), (right, ur) in itertools.product(half(range(h)), half(range(h, m))):
        owner = left + right
        util = [x + y for x, y in zip(ul, ur)]
        sizes = [owner.count(a) for a in range(1, n + 1)]
        table.append((owner, (min(util), sum(util), math.prod(util)), max(sizes) - min(sizes) <= 1))

    def best(rows, k: int):
        value = witness = None
        for owner, values, _ in rows:
            if value is None or values[k] > value:
                value, witness = values[k], owner
        return value, witness

    names = ("egalitarian", "utilitarian", "nash")
    out = {(name, "none"): best(table, k) for k, name in enumerate(names)}
    out[("egalitarian", "ba")] = best([row for row in table if row[2]], 0)
    for prop, w in (("muw", 1), ("mnw", 2)):
        top = max(values[w] for _, values, _ in table)
        argmax = [row for row in table if row[1][w] == top]
        for k, name in enumerate(names):
            out[(name, prop)] = best(argmax, k)
    return out


class SolveMix:
    """Library `max_welfare` calls on seeded random instances."""

    name = "solve_mix"

    def __init__(self, mods, seed: int, workdir: Path):
        self.mods = mods
        self.rng = random.Random(f"solve_mix:{seed}")

    def prepare(self, p: int) -> list[Query]:
        solve = self.mods.solve
        objectives = list(solve.Objective)
        filters = (
            solve.PropertyFilter.NONE,
            solve.PropertyFilter.MAX_UTILITARIAN,
            solve.PropertyFilter.MAX_NASH,
        )
        queries = []
        for n, m in SOLVE_SIZES:
            inst = self.mods.verify.random_instance(self.rng, n, m)
            shared = {"brute": (n, m) in BRUTE_FORCE_SIZES}
            for objective, prop in itertools.product(objectives, filters):
                queries.append(self._query(inst, shared, objective, prop, False))
            queries.append(
                self._query(inst, shared, solve.Objective.EGALITARIAN, solve.PropertyFilter.BALANCED, False)
            )
            queries.append(
                self._query(inst, shared, solve.Objective.EGALITARIAN, solve.PropertyFilter.NONE, True)
            )
        return queries

    def _query(self, inst, shared: dict, objective, prop, pruned: bool) -> Query:
        mods = self.mods
        key = (objective.value, prop.value)
        label = f"n={inst.n} m={inst.m} {key[0]}/{key[1]}" + (" pruned" if pruned else "")

        def call():
            return mods.solve.max_welfare(inst, objective, prop, pruned=pruned)

        def check(result):
            welfare = {
                "egalitarian": mods.model.egalitarian_welfare,
                "utilitarian": mods.model.utilitarian_welfare,
                "nash": mods.model.nash_welfare,
            }[key[0]]
            recomputed = welfare(inst, result.witness)
            require(recomputed == result.value, f"{label}: witness worth {recomputed}, value {result.value}")
            if prop.value == "ba":
                require(mods.properties.is_balanced(result.witness), f"{label}: witness not balanced")
            if pruned:
                plain = shared["exhaustive"]
                require(
                    (result.value, result.witness) == (plain.value, plain.witness),
                    f"{label}: pruned result differs from the exhaustive one",
                )
            elif key == ("egalitarian", "none"):
                shared["exhaustive"] = result
            if shared["brute"]:
                if "expected" not in shared:
                    shared["expected"] = brute_force(inst.u, inst.n, inst.m)
                value, owner = shared["expected"][key]
                require(
                    (result.value, result.witness.owner) == (value, owner),
                    f"{label}: ({result.value}, {result.witness.owner}) != brute force ({value}, {owner})",
                )

        return Query(label, call, check, inst)


# -- verify_corpus ------------------------------------------------------------

VERIFY_SUITES = ("bounds", "facts", "lemmas")
VERIFY_NS = (2, 3)
VERIFY_M_MAX = 6
VERIFY_TRIALS = 2


class VerifyCorpus:
    """Many short `run_suite` calls on tiny instances."""

    name = "verify_corpus"

    def __init__(self, mods, seed: int, workdir: Path):
        self.mods = mods
        self.rng = random.Random(f"verify_corpus:{seed}")

    def prepare(self, p: int) -> list[Query]:
        queries = []
        for suite, n in itertools.product(VERIFY_SUITES, VERIFY_NS):
            seed = self.rng.getrandbits(31)
            label = f"{suite} n={n} seed={seed}"
            queries.append(Query(label, self._call(suite, n, seed), _passed(label), (suite, n, seed)))
        return queries

    def _call(self, suite: str, n: int, seed: int):
        return lambda: self.mods.verify.run_suite(suite, n, VERIFY_M_MAX, VERIFY_TRIALS, seed)


def _passed(label: str):
    def check(report):
        require(report.passed, f"{label}: suite failed")

    return check


WORKLOADS = {w.name: w for w in (Thm1Pof, SolveMix, VerifyCorpus)}
