"""Per-layer tracing of the `egalpof` package from outside it.

`Tracer.install` rebinds every public function of every `egalpof` module at
each module attribute that binds it (modules import each other's functions
with `from .x import f`, so rebinding only the defining module would miss
most calls). `Tracer.uninstall` restores the original bindings. Nothing in
the package itself changes.

A wrapped call records one span: name, parent span, query id, start, end and
busy time. A wrapped generator records one span from its first resumption
to exhaustion; its busy time is the sum of its resumptions, each timed
separately, and its item count is the number of values it yielded. A span's
self time is its busy time minus the busy time of the spans nested directly
inside it. Spans are kept in compact in-memory arrays and written out by
`write_spans` at the end of a run.

There is one client and no queue, so no layer ever waits for another: the
trace has busy and self time, never a wait time.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# Spans kept in memory; beyond this only the aggregates are updated, so a
# long traced run cannot exhaust memory (about 40 bytes per span).
MAX_SPANS = 2_000_000


@dataclass
class Stat:
    calls: int = 0
    items: int = 0
    total: float = 0.0
    self_: float = 0.0


def _max_welfare_counts(args, kwargs, result):
    inst = args[0]
    pruned = kwargs.get("pruned", args[5] if len(args) > 5 else False)
    counts = {"solve.max_welfare.explored": result.explored}
    if pruned:
        counts["solve.pruned.explored"] = result.explored
        counts["solve.pruned.space"] = inst.n**inst.m
    return counts


# Counters derived from a call's arguments and result, per traced function.
RESULT_COUNTERS = {
    "solve.max_welfare": _max_welfare_counts,
    "properties.is_ef1": lambda args, kwargs, result: {
        "properties.is_ef1.accepts": int(bool(result))
    },
    "roundrobin.enumerate_rr_allocations": lambda args, kwargs, result: {
        "roundrobin.enumerate_rr_allocations.outcomes": len(result)
    },
}


class Tracer:
    def __init__(self):
        self.query = -1
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, int] = {}
        self.errors = {"budget_exceeded": 0, "other": 0}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("I")
        self.span_parent = array("i")
        self.span_query = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_busy = array("d")
        self.span_items = array("I")
        self.dropped = 0
        # one [span id, child busy time] per open span or running resumption
        self._stack: list[list] = []
        self._last_error: BaseException | None = None
        self._budget_type: type | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- rebinding -------------------------------------------------------

    def install(self, modules: dict) -> int:
        """Wrap the public functions of `modules` (layer name -> module) and
        rebind them in every loaded `egalpof` module; returns the number of
        bindings replaced."""
        self._budget_type = modules["errors"].BudgetExceeded
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{obj.__name__}", obj))
        package = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "egalpof" or name.startswith("egalpof.")
        ]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, entry[1])
        return len(self._saved)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def _wrap(self, name: str, func):
        tracer = self
        if inspect.isgeneratorfunction(func):

            def traced(*args, **kwargs):
                return tracer._traced_generator(name, func(*args, **kwargs))

        else:
            counter = RESULT_COUNTERS.get(name)

            def traced(*args, **kwargs):
                span = tracer._open(name)
                start = perf_counter()
                frame = [span, 0.0]
                tracer._stack.append(frame)
                try:
                    result = func(*args, **kwargs)
                except BaseException as exc:
                    tracer._error(exc)
                    raise
                finally:
                    end = perf_counter()
                    tracer._stack.pop()
                    tracer._close(name, span, start, end, end - start, frame[1], 0)
                if counter is not None:
                    for key, value in counter(args, kwargs, result).items():
                        tracer.counters[key] = tracer.counters.get(key, 0) + value
                return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        return traced

    def _traced_generator(self, name: str, inner):
        span = self._open(name)
        start = perf_counter()
        stack = self._stack
        frame = [span, 0.0]  # reused by every resumption
        busy = child = 0.0
        items = 0
        try:
            while True:
                frame[1] = 0.0
                stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                except BaseException as exc:
                    self._error(exc)
                    raise
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    busy += dt
                    child += frame[1]
                    if stack:
                        stack[-1][1] += dt
                items += 1
                yield item
        finally:
            inner.close()
            self._close(name, span, start, perf_counter(), busy, child, items, nested=False)

    # -- span bookkeeping ------------------------------------------------

    def _open(self, name: str) -> int:
        if len(self.span_start) >= MAX_SPANS:
            self.dropped += 1
            return -1
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        span = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_query.append(self.query)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_busy.append(0.0)
        self.span_items.append(0)
        return span

    def _close(self, name, span, start, end, busy, child, items, nested=True):
        """Record a finished span. `nested` spans (plain calls) add their busy
        time to the enclosing span here; generators do so per resumption."""
        if nested and self._stack:
            self._stack[-1][1] += busy
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stat.calls += 1
        stat.items += items
        stat.total += busy
        stat.self_ += busy - child
        if span >= 0:
            self.span_start[span] = start
            self.span_end[span] = end
            self.span_busy[span] = busy
            self.span_items[span] = items

    def _error(self, exc: BaseException) -> None:
        # an exception passing through several wrapped frames counts once
        if exc is self._last_error:
            return
        self._last_error = exc
        if isinstance(exc, self._budget_type):
            self.errors["budget_exceeded"] += 1
        elif isinstance(exc, Exception):
            self.errors["other"] += 1

    # -- results ---------------------------------------------------------

    def layer_metrics(self, queries: int, overhead_frac: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, name -> (value, unit). Counts and times
        are per query of the traced replay, so runs that complete different
        numbers of passes compare directly."""
        out: dict[str, tuple[float, str]] = {}

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        def per_query(name: str, value: float, unit: str) -> None:
            out[name] = (ratio(value, queries), f"{unit}/query")

        count = lambda name: self.counters.get(name, 0)  # noqa: E731
        for name, fields in LAYER_FIELDS:
            s = self.stats.get(name, Stat())
            for field in fields:
                value = {"calls": s.calls, "items": s.items, "self_s": s.self_, "total_s": s.total}[field]
                per_query(f"{name}.{field}", value, "s" if field.endswith("_s") else "count")
            if name == "model.iter_allocations_scaled":
                out["model.allocs_per_s"] = (ratio(s.items, s.self_), "1/s")
            elif name == "solve.max_welfare":
                per_query("solve.max_welfare.explored", count("solve.max_welfare.explored"), "count")
                out["solve.pruned.leaf_frac"] = (
                    ratio(count("solve.pruned.explored"), count("solve.pruned.space")),
                    "ratio",
                )
            elif name == "properties.is_ef1":
                out["properties.is_ef1.accept_frac"] = (
                    ratio(count("properties.is_ef1.accepts"), s.calls),
                    "ratio",
                )
            elif name == "roundrobin.enumerate_rr_allocations":
                per_query(
                    "roundrobin.enumerate_rr_allocations.outcomes",
                    count("roundrobin.enumerate_rr_allocations.outcomes"),
                    "count",
                )
        per_query("errors.budget_exceeded.count", self.errors["budget_exceeded"], "count")
        per_query("errors.other.count", self.errors["other"], "count")
        out["trace.overhead_frac"] = (overhead_frac, "ratio")
        return out

    def write_spans(self, path: Path) -> None:
        """Write the spans as raw little-endian arrays plus a JSON index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = {
            "name": self.span_name,
            "parent": self.span_parent,
            "query": self.span_query,
            "start": self.span_start,
            "end": self.span_end,
            "busy": self.span_busy,
            "items": self.span_items,
        }
        layout = []
        with open(path.with_suffix(".bin"), "wb") as fh:
            for field, arr in fields.items():
                layout.append({"field": field, "typecode": arr.typecode, "count": len(arr)})
                arr.tofile(fh)
        index = {
            "names": self.names,
            "arrays": layout,
            "dropped_spans": self.dropped,
            "byteorder": sys.byteorder,
        }
        path.with_suffix(".json").write_text(json.dumps(index, indent=1) + "\n")


# Traced functions reported per layer, with the fields reported for each.
LAYER_FIELDS = (
    ("model.scaled_rows", ("calls", "self_s")),
    ("model.iter_allocations_scaled", ("items", "self_s")),
    ("model.validate_instance", ("calls", "self_s")),
    ("solve.max_welfare", ("calls", "self_s")),
    ("solve.price_of_fairness", ("calls", "total_s")),
    ("properties.is_ef1", ("calls", "self_s")),
    ("properties.is_balanced", ("calls", "self_s")),
    ("properties.pareto_optimal_allocations", ("items", "self_s")),
    ("properties.envy_graph", ("calls", "self_s")),
    ("roundrobin.enumerate_rr_allocations", ("calls", "self_s")),
    ("roundrobin.run_round_robin", ("calls", "self_s")),
    ("roundrobin.balanced_from_mew", ("calls", "self_s")),
    ("roundrobin.rr_from_mew", ("calls", "self_s")),
    ("roundrobin.dominating_rr_one_good", ("calls", "self_s")),
    ("verify.run_suite", ("calls", "self_s")),
    ("verify.random_instance", ("calls", "self_s")),
    ("construct.gen_thm1", ("calls", "self_s")),
    ("serialize.write_instance_file", ("calls", "self_s")),
    ("serialize.parse_instance_file", ("calls", "self_s")),
    ("reports.build_report", ("calls", "total_s")),
    ("cli.main", ("calls", "self_s")),
)
