"""Seeded ASLib-shaped scenarios, written with the benchmark's own ARFF writer.

The benchmark generates its inputs itself, so a change to the package's
synthetic generator or serializer cannot change what is measured, and the
loaded scenario can be checked against values the package never produced.

Runtimes follow a Voronoi layout: each instance has a hidden position in the
unit square, each algorithm a home position, and log-runtime grows with the
distance between the two, spanning several decades as in real ASLib data
(about a third of all runs finish within 1/64 of the cutoff). The fastest algorithm is therefore learnable from
the features, which are noisy views of the position plus pure noise columns.
Runs at or above the cutoff are timeouts; a few others crash early. Feature
cells go missing at a small rate, and the last feature column misses so often
that the imputer drops it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Status the package's loader must assign to each generated status.
LOADED_STATUS = {"ok": "ok", "timeout": "timeout", "crash": "other-failure"}


TIMEOUT_FRAC = 0.3  # share of runs at or above the cutoff
CRASH_FRAC = 0.02  # share of the other runs that crash early
MISSING_FRAC = 0.03  # share of missing feature cells
DROPPED_MISSING_FRAC = 0.4  # missing share of the last feature column


@dataclass(frozen=True)
class Shape:
    n_instances: int
    n_algorithms: int
    n_features: int


@dataclass
class Generated:
    id: str
    cutoff: float
    instances: list[str]
    algorithms: list[str]
    features: list[str]
    matrix: np.ndarray  # (instances, features), NaN = missing
    runtimes: np.ndarray  # (instances, algorithms), recorded runtime
    status: np.ndarray  # (instances, algorithms): "ok", "timeout" or "crash"

    def par10(self) -> np.ndarray:
        """Per-run PAR10 at the cutoff."""
        return np.where(self.status == "ok", self.runtimes, 10.0 * self.cutoff)

    def rows(self, instances) -> np.ndarray:
        pos = {inst: k for k, inst in enumerate(self.instances)}
        return np.array([pos[i] for i in instances], dtype=np.intp)


def generate(shape: Shape, seed: int, scenario_id: str) -> Generated:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2405, shape.n_instances]))
    n, m, f = shape.n_instances, shape.n_algorithms, shape.n_features
    # A jittered grid spreads instances evenly, so every seed's scenario has
    # the same density of instances per algorithm region.
    side = math.ceil(math.sqrt(n))
    cells = rng.choice(side * side, size=n, replace=False)
    pos = (np.column_stack([cells // side, cells % side]) + rng.uniform(size=(n, 2))) / side
    # Homes sit at fixed, evenly spaced places on a circle: every seed's
    # scenario then has regions of the same shape, which axis-aligned trees
    # need the same number of splits to carve out.
    angles = 2.0 * np.pi * (np.arange(m) + 0.5) / m
    homes = 0.5 + 0.3 * np.column_stack([np.cos(angles), np.sin(angles)])
    dist = np.linalg.norm(pos[:, None, :] - homes[None, :, :], axis=2)
    hardness = rng.normal(0.0, 0.3, size=n)
    log_rt = 8.0 * dist - 1.0 + hardness[:, None] + rng.normal(0.0, 0.15, size=(n, m))
    runtimes = np.maximum(np.round(10.0**log_rt, 2), 0.01)

    cutoff = float(np.round(np.quantile(runtimes, 1.0 - TIMEOUT_FRAC), 1))
    status = np.full((n, m), "ok", dtype=object)
    timed_out = runtimes >= cutoff
    status[timed_out] = "timeout"
    runtimes[timed_out] = cutoff
    crashed = ~timed_out & (rng.random((n, m)) < CRASH_FRAC)
    status[crashed] = "crash"
    runtimes[crashed] = np.maximum(
        np.round(runtimes[crashed] * rng.uniform(0.05, 1.0, crashed.sum()), 2), 0.01
    )

    x, y = pos[:, 0], pos[:, 1]
    views = [x, y, x + y, x - y, x * y, hardness, np.abs(x - 0.5), np.abs(y - 0.5)]
    columns = []
    for j in range(f):
        if j < len(views):
            columns.append(views[j] + rng.normal(0.0, 0.02, size=n))
        else:
            columns.append(rng.lognormal(0.0, 1.0, size=n))
    matrix = np.column_stack(columns)
    matrix[rng.random((n, f)) < MISSING_FRAC] = np.nan
    if f >= 3:
        matrix[rng.random(n) < DROPPED_MISSING_FRAC, f - 1] = np.nan

    return Generated(
        id=scenario_id,
        cutoff=cutoff,
        instances=[f"inst_{i:05d}.cnf" for i in range(n)],
        algorithms=[f"solver_{k}" for k in range(m)],
        features=[f"feat_{j:02d}" for j in range(f)],
        matrix=matrix,
        runtimes=runtimes,
        status=status,
    )


def _arff(relation: str, attributes: list[tuple[str, str]], rows) -> str:
    lines = [f"@RELATION {relation}", ""]
    lines += [f"@ATTRIBUTE {name} {kind}" for name, kind in attributes]
    lines += ["", "@DATA"]
    lines += [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def _num(value: float) -> str:
    return "?" if np.isnan(value) else repr(float(value))


def write_aslib(gen: Generated, directory) -> Path:
    """Write `gen` as an ASLib scenario directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "description.txt").write_text(
        f"scenario_id: {gen.id}\n"
        "performance_measures: runtime\n"
        "maximize: false\n"
        "performance_type: runtime\n"
        f"algorithm_cutoff_time: {gen.cutoff!r}\n"
        "algorithm_cutoff_memory: ?\n"
        "features_cutoff_time: ?\n"
        "features_cutoff_memory: ?\n"
        "number_of_feature_steps: 1\n"
        "features_deterministic:\n"
        + "".join(f"  - {name}\n" for name in gen.features)
        + "algorithms_deterministic:\n"
        + "".join(f"  - {name}\n" for name in gen.algorithms)
    )
    runs = [
        (inst, "1", algo, repr(float(gen.runtimes[i, k])), str(gen.status[i, k]))
        for i, inst in enumerate(gen.instances)
        for k, algo in enumerate(gen.algorithms)
    ]
    (directory / "algorithm_runs.arff").write_text(
        _arff(
            f"ALGORITHM_RUNS_{gen.id}",
            [
                ("instance_id", "STRING"),
                ("repetition", "NUMERIC"),
                ("algorithm", "STRING"),
                ("runtime", "NUMERIC"),
                ("runstatus", "{ok,timeout,memout,not_applicable,crash,other}"),
            ],
            runs,
        )
    )
    features = [
        (inst, "1", *(_num(v) for v in gen.matrix[i]))
        for i, inst in enumerate(gen.instances)
    ]
    (directory / "feature_values.arff").write_text(
        _arff(
            f"FEATURES_{gen.id}",
            [("instance_id", "STRING"), ("repetition", "NUMERIC")]
            + [(name, "NUMERIC") for name in gen.features],
            features,
        )
    )
    costs = [(inst, "1", repr(0.01 * (1 + i % 7))) for i, inst in enumerate(gen.instances)]
    (directory / "feature_costs.arff").write_text(
        _arff(
            f"FEATURE_COSTS_{gen.id}",
            [("instance_id", "STRING"), ("repetition", "NUMERIC"), ("Pre", "NUMERIC")],
            costs,
        )
    )
    return directory
