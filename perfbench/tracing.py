"""Per-layer tracing from outside the package.

`Tracer.install` replaces each traced function on every name the package
looks it up by (a `from .x import f` binds its own name, so wrapping
`frugalas.forest.fit_forest` alone would miss `frugalas.selector.fit_forest`).
Each wrapped call records a span (name, start, end, parent, unit) and counts.
Spans stay in memory until `write` saves them as JSON lines. Nothing under
`src/` changes; `uninstall` restores every original.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

from clock import SpeedClock
from frugalas import forest, harness, labels, loop, preprocess, scenario, selector

# (owner, attribute, span name): every place a traced layer is looked up.
# The clock's probes run inside `run_grid`; as spans of no layer they are
# kept out of their parents' self time.
SPANS = [
    (SpeedClock, "probe", "trace.probe"),
    (scenario, "parse_arff", "arff.parse"),
    (scenario, "load_scenario", "scenario.load"),
    (preprocess, "make_splits", "preprocess.split"),
    (harness, "make_splits", "preprocess.split"),
    (loop, "fit_imputer", "preprocess.imputer"),
    (harness, "fit_imputer", "preprocess.imputer"),
    (loop.FrugalLoop, "__init__", "loop.init"),
    (loop.FrugalLoop, "step", "loop.round"),
    (loop.FrugalLoop, "select_queries", "loop.select"),
    (loop.FrugalLoop, "execute_request", "loop.execute"),
    (loop, "train_ensemble", "selector.train"),
    (harness, "train_ensemble", "selector.train"),
    (loop, "evaluate_selector", "selector.evaluate"),
    (harness, "evaluate_selector", "selector.evaluate"),
    (selector, "select_batch", "selector.select_batch"),
    (selector, "fit_forest", "forest.fit"),
    (forest.RandomForest, "predict_proba", "forest.predict"),
    (harness, "run_cell", "harness.cell"),
    (harness, "run_passive_baseline", "harness.passive"),
    (harness, "summarize", "harness.summarize"),
]

LAYERS = ["arff", "scenario", "preprocess", "loop", "selector", "forest", "harness"]

# Per-layer metric name -> unit, in report order. Times are per unit of work.
METRICS = {
    "arff.parse_ms": "ms",
    "arff.rows": "count",
    "scenario.load_ms": "ms",
    "preprocess.split_ms": "ms",
    "preprocess.imputer_ms": "ms",
    "preprocess.imputer_calls": "count",
    "loop.init_ms": "ms",
    "loop.rounds": "count",
    "loop.round_ms": "ms",
    "loop.select_ms": "ms",
    "loop.execute_ms": "ms",
    "loop.requests": "count",
    "loop.round_self_ms": "ms",
    "labels.records": "count",
    "selector.train_ms": "ms",
    "selector.train_calls": "count",
    "selector.evaluate_ms": "ms",
    "selector.evaluate_calls": "count",
    "selector.select_batch_ms": "ms",
    "forest.fit_ms": "ms",
    "forest.fit_calls": "count",
    "forest.fit_rows": "count",
    "forest.nodes": "count",
    "forest.fit_us_per_node": "us/node",
    "forest.scan_calls": "count",
    "forest.scan_values": "count",
    "forest.fit_repeat_ratio": "ratio",
    "forest.predict_ms": "ms",
    "forest.predict_calls": "count",
    "forest.predict_lanes": "count",
    "harness.cells": "count",
    "harness.cell_ms": "ms",
    "harness.passive_calls": "count",
    "harness.passive_ms": "ms",
    "harness.summarize_ms": "ms",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "trace.run_s": "s",
}

# Metrics that are counts of work: they must repeat exactly between units.
COUNTS = [name for name, unit in METRICS.items() if unit in ("count", "ratio")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, unit]
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.unit = 0
        self._stack: list[int] = []
        self._fit_keys: set[bytes] = set()
        self._originals: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in SPANS:
            self._replace(owner, attr, self._spanned(getattr(owner, attr), name))
        self._replace(forest, "_scan_split", self._counted_scan(forest._scan_split))
        self._replace(
            labels.LabelStore, "record", self._counted_record(labels.LabelStore.record)
        )

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, wrapper) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def begin_unit(self, unit: int) -> None:
        """Start a repetition: spans and counts go to `unit`, and fit repeats
        are judged against that repetition's fits only."""
        self.unit = unit
        self._fit_keys = set()

    # -- wrappers ---------------------------------------------------------------

    def _spanned(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            count = tracer.counts[tracer.unit]
            tracer._before(name, args, kwargs, count)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append([name, time.perf_counter(), None, parent, tracer.unit])
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[index][2] = time.perf_counter()
            tracer._after(name, result, count)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _before(self, name, args, kwargs, count) -> None:
        count[name] += 1
        if name == "forest.fit":
            X = np.ascontiguousarray(args[0], dtype=np.float64)
            y = np.ascontiguousarray(args[1], dtype=np.int8)
            config = args[2] if len(args) > 2 else kwargs.get("config")
            count["forest.fit_rows"] += X.shape[0]
            key = hashlib.blake2b(
                X.tobytes() + b"|" + y.tobytes() + b"|" + repr(config).encode()
            ).digest()
            if key in self._fit_keys:
                count["forest.fit_repeats"] += 1
            self._fit_keys.add(key)
        elif name == "forest.predict":
            rows = np.atleast_2d(np.asarray(args[1])).shape[0]
            count["forest.predict_lanes"] += rows * len(args[0].trees)
        elif name == "loop.execute":
            count["loop.requests"] += 1

    def _after(self, name, result, count) -> None:
        if name == "forest.fit":
            count["forest.nodes"] += sum(t.feature.shape[0] for t in result.trees)
        elif name == "arff.parse":
            count["arff.rows"] += len(result.rows)
        elif name == "loop.round" and result is not None:
            count["loop.rounds"] += 1

    def _counted_scan(self, fn):
        tracer = self

        def scan_split(values, labels_):
            count = tracer.counts[tracer.unit]
            count["forest.scan_calls"] += 1
            count["forest.scan_values"] += values.shape[0]
            return fn(values, labels_)

        return scan_split

    def _counted_record(self, fn):
        tracer = self

        def record(store, instance, algorithm, obs):
            tracer.counts[tracer.unit]["labels.records"] += 1
            return fn(store, instance, algorithm, obs)

        return record

    # -- reporting --------------------------------------------------------------

    def unit_metrics(self, unit: int) -> dict[str, float]:
        """Per-layer metrics of one repetition (all but `trace.run_s`)."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == unit]
        total = Counter()
        child = Counter()
        for _, (name, start, end, parent, _) in spans:
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        self_by_name = Counter()
        for i, (name, start, end, _, _) in spans:
            self_by_name[name] += end - start - child[i]

        c = self.counts[unit]
        ms = lambda name: 1e3 * total[name]  # noqa: E731
        out = {
            "arff.parse_ms": ms("arff.parse"),
            "arff.rows": c["arff.rows"],
            "scenario.load_ms": ms("scenario.load"),
            "preprocess.split_ms": ms("preprocess.split"),
            "preprocess.imputer_ms": ms("preprocess.imputer"),
            "preprocess.imputer_calls": c["preprocess.imputer"],
            "loop.init_ms": ms("loop.init"),
            "loop.rounds": c["loop.rounds"],
            "loop.round_ms": ms("loop.round"),
            "loop.select_ms": ms("loop.select"),
            "loop.execute_ms": ms("loop.execute"),
            "loop.requests": c["loop.requests"],
            "loop.round_self_ms": 1e3 * self_by_name["loop.round"],
            "labels.records": c["labels.records"],
            "selector.train_ms": ms("selector.train"),
            "selector.train_calls": c["selector.train"],
            "selector.evaluate_ms": ms("selector.evaluate"),
            "selector.evaluate_calls": c["selector.evaluate"],
            "selector.select_batch_ms": ms("selector.select_batch"),
            "forest.fit_ms": ms("forest.fit"),
            "forest.fit_calls": c["forest.fit"],
            "forest.fit_rows": c["forest.fit_rows"],
            "forest.nodes": c["forest.nodes"],
            "forest.fit_us_per_node": (
                1e6 * total["forest.fit"] / c["forest.nodes"] if c["forest.nodes"] else 0.0
            ),
            "forest.scan_calls": c["forest.scan_calls"],
            "forest.scan_values": c["forest.scan_values"],
            "forest.fit_repeat_ratio": (
                c["forest.fit_repeats"] / c["forest.fit"] if c["forest.fit"] else 0.0
            ),
            "forest.predict_ms": ms("forest.predict"),
            "forest.predict_calls": c["forest.predict"],
            "forest.predict_lanes": c["forest.predict_lanes"],
            "harness.cells": c["harness.cell"],
            "harness.cell_ms": ms("harness.cell"),
            "harness.passive_calls": c["harness.passive"],
            "harness.passive_ms": ms("harness.passive"),
            "harness.summarize_ms": ms("harness.summarize"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = 1e3 * sum(
                t for name, t in self_by_name.items() if name.split(".")[0] == layer
            )
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, unit in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "unit": unit}
                    )
                    + "\n"
                )
