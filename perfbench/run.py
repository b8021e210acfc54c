"""Benchmark runner for egalpof: one closed-loop client in one process.

    python3 perfbench/run.py --workload thm1_pof --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

With `--trace 0` the run sets up several times (the median is `setup_s`),
then runs whole passes of seeded queries until `--seconds` have passed and
at least MIN_QUERIES queries are done, checks every output outside the
timed region and prints the end-to-end metrics. Every time in them is
corrected for the host's momentary speed (see hostspeed.py); the raw
wall-clock figures are kept in `meta`. With `--trace 1` it runs
the same way untraced for half of `--seconds`, then replays exactly the
same passes with every public `egalpof` function wrapped (tracing slows
them down about twofold), and prints the per-layer metrics. The
last line of standard output is one JSON object: correct, attempted,
failed, metrics. `--workload all` runs each workload in a fresh process and
prints a table.

The package is imported from `src/` next to this directory; the program
receives only the generated inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any

import hostspeed
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
LAYERS = (
    "model", "solve", "properties", "roundrobin", "verify",
    "construct", "serialize", "reports", "cli", "errors",
)
SETUP_REPS = 15
MIN_QUERIES = 100
# Stop starting passes after this much time, whatever --seconds says,
# so a traced replay of the same passes still ends well within 180 s.
MAX_LOOP_SECONDS = 45.0


def import_egalpof() -> SimpleNamespace:
    """Import the package afresh (bytecode cache warm after the first time)."""
    for name in [n for n in sys.modules if n == "egalpof" or n.startswith("egalpof.")]:
        del sys.modules[name]
    package = importlib.import_module("egalpof")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"egalpof imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(
        **{layer: importlib.import_module(f"egalpof.{layer}") for layer in LAYERS}
    )


def corrected(wall: float, before: float, after: float) -> float:
    """`wall` on a host where the speed kernel takes REFERENCE_S, given the
    kernel's times just before and just after it."""
    return wall * hostspeed.REFERENCE_S * 2 / (before + after)


@dataclass
class Phase:
    """Outcome of running passes: latencies, loop wall time and checks."""

    latencies: list[float] = field(default_factory=list)  # raw wall seconds
    corrected: list[float] = field(default_factory=list)  # host-speed corrected
    kernel_s: list[float] = field(default_factory=list)  # speed kernel times
    wall: float = 0.0
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    completed: int = 0
    failures: Counter = field(default_factory=Counter)
    messages: list[str] = field(default_factory=list)
    digest: Any = field(default_factory=hashlib.sha256)


def run_pass(queries, phase: Phase, tracer=None) -> None:
    """Time each query back to back, with the speed kernel timed between
    them, then digest every output untimed.

    Outputs are checked only when not traced: a traced replay must instead
    reproduce the digest of the checked untraced run."""
    results = []
    start = perf_counter()
    before = hostspeed.measure()
    for i, query in enumerate(queries):
        if tracer is not None:
            tracer.query = phase.attempted + i
        t0 = perf_counter()
        try:
            result, error = query.call(), None
        except Exception as exc:  # a failing query is counted, not fatal
            result, error = None, exc
        wall = perf_counter() - t0
        after = hostspeed.measure()
        phase.latencies.append(wall)
        phase.corrected.append(corrected(wall, before, after))
        phase.kernel_s.append(before)
        before = after
        results.append((result, error))
    phase.wall += perf_counter() - start
    phase.passes += 1
    if tracer is not None:
        tracer.query = -1

    for query, (result, error) in zip(queries, results):
        phase.attempted += 1
        output = repr(result) if error is None else f"error {type(error).__name__}"
        phase.digest.update(f"{query.label}\n{output}\n".encode())
        if error is None:
            phase.completed += 1
            if tracer is None:
                try:
                    query.check(result)
                except Exception as exc:  # a wrong output is counted, not fatal
                    error = exc
        if error is not None:
            phase.failed += 1
            phase.failures[type(error).__name__] += 1
            if len(phase.messages) < 5:
                phase.messages.append(f"{query.label}: {type(error).__name__}: {error}")


def clear(workdir: Path) -> None:
    for path in workdir.iterdir():
        path.unlink()


def run_phase(workload, first, workdir: Path, stop, tracer=None) -> Phase:
    """Run passes until `stop(phase)`; pass 0 is `first` when given."""
    phase = Phase()
    p = 0
    while True:
        queries = first if (p == 0 and first is not None) else workload.prepare(p)
        run_pass(queries, phase, tracer)
        clear(workdir)
        p += 1
        if stop(phase):
            return phase


def setup(name: str, seed: int, workdir: Path):
    """Import, instance generation and file writing for pass 0, repeated
    SETUP_REPS times; returns the median corrected time, the median raw
    time and the last repetition."""
    raw, fixed = [], []
    before = hostspeed.measure()
    for _ in range(SETUP_REPS):
        clear(workdir)
        t0 = perf_counter()
        mods = import_egalpof()
        workload = WORKLOADS[name](mods, seed, workdir)
        first = workload.prepare(0)
        raw.append(perf_counter() - t0)
        after = hostspeed.measure()
        fixed.append(corrected(raw[-1], before, after))
        before = after
    return statistics.median(fixed), statistics.median(raw), mods, workload, first


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = OUT / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, raw_setup_s, mods, workload, first = setup(name, seed, workdir)

        untraced_seconds = seconds / 2 if trace else seconds

        def enough(phase: Phase) -> bool:
            if phase.wall >= MAX_LOOP_SECONDS:
                return True
            return phase.wall >= untraced_seconds and phase.attempted >= MIN_QUERIES

        plain = run_phase(workload, first, workdir, enough)
        p90 = statistics.quantiles(plain.corrected, n=10)[8]
        raw_p90 = statistics.quantiles(plain.latencies, n=10)[8]
        kernel_median = statistics.median(plain.kernel_s)
        meta = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "clients": 1,
            "loop": "closed",
            "passes": plain.passes,
            "queries": plain.attempted,
            "queries_per_pass": plain.attempted // plain.passes,
            "percentile_samples": len(plain.corrected),
            "p90_samples_beyond": sum(x > p90 for x in plain.corrected),
            "loop_wall_s": plain.wall,
            "query_wall_s": sum(plain.latencies),
            "speed_kernel_median_s": kernel_median,
            "speed_kernel_reference_s": hostspeed.REFERENCE_S,
            "raw_setup_s": raw_setup_s,
            "raw_queries_per_s": plain.completed / sum(plain.latencies),
            "raw_query_p50_ms": statistics.median(plain.latencies) * 1e3,
            "raw_query_p90_ms": raw_p90 * 1e3,
            "failed_frac": plain.failed / plain.attempted,
            "failures_by_type": dict(plain.failures),
            "failure_messages": plain.messages,
            "digest": plain.digest.hexdigest(),
            "setup_reps": SETUP_REPS,
        }
        if not trace:
            metrics = {
                "setup_s": (setup_s, "s"),
                "queries_per_s": (plain.completed / sum(plain.corrected), "1/s"),
                "query_p50_ms": (statistics.median(plain.corrected) * 1e3, "ms"),
                "query_p90_ms": (p90 * 1e3, "ms"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
                ),
            }
            return {"meta": meta, "metrics": metrics, "phases": [plain], "digests_agree": True}

        replay = WORKLOADS[name](mods, seed, workdir)
        tracer = Tracer()
        meta["rebound_attributes"] = tracer.install(vars(mods))
        try:
            traced = run_phase(replay, None, workdir, lambda ph: ph.passes >= plain.passes, tracer)
        finally:
            tracer.uninstall()
        spans = OUT / f"spans-{name}-seed{seed}"
        tracer.write_spans(spans)
        meta.update(
            traced_digest=traced.digest.hexdigest(),
            traced_failures_by_type=dict(traced.failures),
            spans=len(tracer.span_start),
            dropped_spans=tracer.dropped,
            spans_file=str(spans.relative_to(ROOT)) + ".json",
        )
        overhead = sum(traced.latencies) / sum(plain.latencies) - 1
        metrics = tracer.layer_metrics(traced.attempted, overhead)
        agree = traced.digest.hexdigest() == plain.digest.hexdigest()
        return {"meta": meta, "metrics": metrics, "phases": [plain, traced], "digests_agree": agree}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(result: dict) -> dict:
    """Print the human-readable lines and the metadata; return the result line."""
    meta = result["meta"]
    print(
        f"workload={meta['workload']} seed={meta['seed']} passes={meta['passes']} "
        f"queries={meta['queries']} failed_frac={meta['failed_frac']:.4f} "
        f"(1 closed-loop client, {meta['percentile_samples']} latency samples, "
        f"{meta['p90_samples_beyond']} beyond p90)"
    )
    print(
        f"  host speed: kernel median {meta['speed_kernel_median_s'] * 1e3:.3f} ms, "
        f"reference {meta['speed_kernel_reference_s'] * 1e3:.3f} ms; raw wall clock: "
        f"{meta['raw_queries_per_s']:.6g} queries/s, p50 {meta['raw_query_p50_ms']:.6g} ms, "
        f"p90 {meta['raw_query_p90_ms']:.6g} ms, setup {meta['raw_setup_s']:.6g} s"
    )
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:48s} {value:>16.6g} {unit}")
    if not result["digests_agree"]:
        print("  traced and untraced output digests differ")
    print(json.dumps({"meta": meta}))
    phases = result["phases"]
    return {
        "correct": result["digests_agree"] and all(ph.failed == 0 for ph in phases),
        "attempted": sum(ph.attempted for ph in phases),
        "failed": sum(ph.failed for ph in phases),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }


def run_all(args) -> int:
    """Each workload in a fresh process, then one table of every metric."""
    rows, ok = {}, True
    for name in WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        meta = json.loads(lines[-2])["meta"]
        line = json.loads(lines[-1])
        ok = ok and line["correct"]
        metrics = {k: (v["value"], v["unit"]) for k, v in line["metrics"].items()}
        metrics["failed_frac"] = (line["failed"] / line["attempted"], "ratio")
        metrics["queries"] = (meta["queries"], "count")
        rows[name] = metrics
    names = list(WORKLOADS)
    print(f"{'metric':48s} {'unit':6s}" + "".join(f"{n:>16s}" for n in names))
    for metric, (_, unit) in rows[names[0]].items():
        cells = "".join(f"{rows[n][metric][0]:>16.6g}" for n in names)
        print(f"{metric:48s} {unit:6s}{cells}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "egalpof" / "__init__.py").is_file():
        print(f"error: no egalpof package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    line = report(result)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
