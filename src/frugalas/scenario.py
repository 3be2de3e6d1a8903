"""Loading ASLib scenario directories into an in-memory representation.

A scenario directory holds description.txt plus ARFF tables with recorded
solver runs and per-instance feature values. Only runtime scenarios with a
single repetition are supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from pathlib import Path

import numpy as np

from .arff import ArffError, parse_arff

OK = "ok"
TIMEOUT = "timeout"
OTHER_FAILURE = "other-failure"


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class RunRecord:
    instance: str
    algorithm: str
    runtime: float
    status: str  # OK, TIMEOUT or OTHER_FAILURE


@dataclass
class Scenario:
    id: str
    algorithms: list[str]
    features: list[str]
    instances: list[str]
    feature_matrix: np.ndarray  # (n_instances, n_features), NaN = missing
    runs: dict[tuple[str, str], RunRecord]
    cutoff: float
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._index = {inst: k for k, inst in enumerate(self.instances)}

    def instance_index(self, instance: str) -> int:
        return self._index[instance]

    def run(self, instance: str, algorithm: str) -> RunRecord:
        return self.runs[(instance, algorithm)]

    @cached_property
    def par10(self) -> np.ndarray:
        """(instances, algorithms) PAR10 of every recorded run, in scenario
        order; built on first read and read-only, since every caller shares it."""
        runs = [[self.runs[(i, a)] for a in self.algorithms] for i in self.instances]
        table = np.array([[par10(r.runtime, r.status, self.cutoff) for r in row] for row in runs])
        table.flags.writeable = False
        return table


@dataclass(frozen=True)
class ScenarioStats:
    n_instances: int
    n_algorithms: int
    n_features: int
    total_time: float  # hours
    vbs_time: float  # hours
    sbs_time: float  # hours


def _parse_description(path: Path) -> dict[str, str]:
    fields: dict[str, str] = {}
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            continue
        key, value = line.split(":", 1)
        fields[key.strip()] = value.strip()
    return fields


# The columns both tables lead with, and the named columns besides the
# features that must be declared numeric.
_KEY = ("instance_id", "repetition")
_NUMERIC = ("repetition", "runtime")


def _read_table(
    directory: Path, filename: str, names: tuple[str, ...] = ()
) -> tuple[list[tuple], list[str]]:
    """The rows of one ASLib table as tuples (instance_id, repetition, *cells)
    of the cells `parse_arff` typed, and the names of those cells' columns:
    `names`, or every other column (the features) when `names` is empty.
    Repetition, runtime and feature columns must be declared numeric, and
    every repetition must be 1 or missing."""
    path = directory / filename
    if not path.is_file():
        raise ScenarioError(f"missing required file: {path}")
    try:
        rel = parse_arff(path.read_text())
    except ArffError as exc:
        raise ScenarioError(f"{filename}: {exc}") from exc
    declared = [a.name for a in rel.attributes]
    for name in _KEY + names:
        if name not in declared:
            raise ScenarioError(f"{filename}: missing column '{name}'")
    key = [declared.index(name) for name in _KEY]
    columns = [declared.index(name) for name in names] or [
        i for i in range(len(declared)) if i not in key
    ]
    for i in [key[1], *columns]:
        attr = rel.attributes[i]
        if attr.kind != "numeric" and (attr.name in _NUMERIC or not names):
            raise ScenarioError(
                f"{filename}: column '{attr.name}' must be declared numeric, not {attr.kind}"
            )
    rows = list(map(itemgetter(*key, *columns), rel.rows))
    for row in rows:
        if row[1] not in (None, 1.0):
            raise ScenarioError(
                f"{filename}: repetition {row[1]} for '{row[0]}' (only 1 supported)"
            )
    return rows, [declared[i] for i in columns]


def load_scenario(directory) -> Scenario:
    directory = Path(directory)
    desc_path = directory / "description.txt"
    if not desc_path.is_file():
        raise ScenarioError(f"missing required file: {desc_path}")
    desc = _parse_description(desc_path)

    for key in ("scenario_id", "performance_type", "maximize", "algorithm_cutoff_time"):
        if key not in desc:
            raise ScenarioError(f"description.txt: missing key '{key}'")
    if desc["performance_type"].lower() not in ("runtime",):
        raise ScenarioError(
            f"unsupported performance_type '{desc['performance_type']}' (need runtime)"
        )
    if desc["maximize"].lower() not in ("false",):
        raise ScenarioError("maximize must be false for runtime scenarios")
    try:
        cutoff = float(desc["algorithm_cutoff_time"])
    except ValueError:
        raise ScenarioError("algorithm_cutoff_time is not a number") from None
    if not (math.isfinite(cutoff) and cutoff > 0):
        raise ScenarioError(f"algorithm_cutoff_time must be positive and finite, got {cutoff}")

    feature_rows, feature_names = _read_table(directory, "feature_values.arff")
    if not feature_rows:
        raise ScenarioError("feature_values.arff contains no instances")
    instances = [str(row[0]) for row in feature_rows]
    known = set(instances)
    if len(known) < len(instances):
        duplicate = next(i for k, i in enumerate(instances) if i in instances[:k])
        raise ScenarioError(f"duplicate feature row for instance '{duplicate}'")
    # A '?' cell becomes nan: missing, and imputed later. Nothing stands for
    # an infinite value.
    feature_matrix = np.array([row[2:] for row in feature_rows], dtype=np.float64)
    infinite = np.argwhere(np.isinf(feature_matrix))
    if infinite.size:
        r, c = infinite[0]
        raise ScenarioError(
            f"feature_values.arff: feature '{feature_names[c]}' of instance "
            f"'{instances[r]}' is infinite"
        )

    run_rows, _ = _read_table(
        directory, "algorithm_runs.arff", ("algorithm", "runtime", "runstatus")
    )
    algorithms: list[str] = []
    runs: dict[tuple[str, str], RunRecord] = {}
    for instance, _, algorithm, runtime, raw_status in run_rows:
        instance, algorithm = str(instance), str(algorithm)
        if instance not in known:
            raise ScenarioError(
                f"algorithm_runs.arff references unknown instance '{instance}'"
            )
        if algorithm not in algorithms:
            algorithms.append(algorithm)
        key = (instance, algorithm)
        if key in runs:
            raise ScenarioError(f"duplicate run for {key}")
        if runtime is None:
            runtime = cutoff
        if not (math.isfinite(runtime) and runtime >= 0):
            raise ScenarioError(
                f"algorithm_runs.arff: runtime {runtime} of '{algorithm}' on '{instance}' "
                "must be finite and not negative"
            )
        solved = raw_status is None or str(raw_status).lower() == "ok"
        if solved and runtime <= cutoff:
            status = OK
        elif runtime >= cutoff:
            status = TIMEOUT
        else:
            status = OTHER_FAILURE
        runs[key] = RunRecord(instance, algorithm, runtime, status)

    if len(algorithms) < 2:
        raise ScenarioError("scenario needs at least 2 algorithms")
    for instance in instances:
        for algorithm in algorithms:
            if (instance, algorithm) not in runs:
                raise ScenarioError(
                    f"algorithm_runs.arff is not total: missing ({instance}, {algorithm})"
                )

    return Scenario(
        id=desc["scenario_id"],
        algorithms=algorithms,
        features=feature_names,
        instances=instances,
        feature_matrix=feature_matrix,
        runs=runs,
        cutoff=cutoff,
    )


def par1(record: RunRecord, cutoff: float) -> float:
    """Runtime with unsolved runs counted at the cutoff."""
    return min(record.runtime, cutoff) if record.status == OK else cutoff


def par10(runtime: float, status: str, cutoff: float) -> float:
    """PAR10 score: solved runs score their runtime, unsolved 10x the cutoff."""
    if status == OK:
        return runtime
    return 10.0 * cutoff


def scenario_stats(s: Scenario) -> ScenarioStats:
    total = sum(min(r.runtime, s.cutoff) for r in s.runs.values())
    vbs = sum(
        min(par1(s.runs[(i, a)], s.cutoff) for a in s.algorithms) for i in s.instances
    )
    column_sums = {
        a: sum(par1(s.runs[(i, a)], s.cutoff) for i in s.instances)
        for a in s.algorithms
    }
    sbs = min(column_sums.values())
    return ScenarioStats(
        n_instances=len(s.instances),
        n_algorithms=len(s.algorithms),
        n_features=len(s.features),
        total_time=total / 3600.0,
        vbs_time=vbs / 3600.0,
        sbs_time=sbs / 3600.0,
    )
