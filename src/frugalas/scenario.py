"""Loading ASLib scenario directories into an in-memory representation.

A scenario directory holds description.txt plus ARFF tables with recorded
solver runs and per-instance feature values. Only runtime scenarios with a
single repetition are supported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .arff import ArffError, ArffRelation, parse_arff

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

    def feature_row(self, instance: str) -> np.ndarray:
        return self.feature_matrix[self._index[instance]]

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


def _read_relation(directory: Path, filename: str) -> ArffRelation:
    path = directory / filename
    if not path.is_file():
        raise ScenarioError(f"missing required file: {path}")
    try:
        return parse_arff(path.read_text())
    except ArffError as exc:
        raise ScenarioError(f"{filename}: {exc}") from exc


def _column(rel: ArffRelation, name: str, filename: str) -> int:
    for i, attr in enumerate(rel.attributes):
        if attr.name == name:
            return i
    raise ScenarioError(f"{filename}: missing column '{name}'")


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
    if cutoff <= 0:
        raise ScenarioError("algorithm_cutoff_time must be positive")

    feats = _read_relation(directory, "feature_values.arff")
    inst_col = _column(feats, "instance_id", "feature_values.arff")
    rep_col = _column(feats, "repetition", "feature_values.arff")
    feature_names = [
        a.name
        for i, a in enumerate(feats.attributes)
        if i not in (inst_col, rep_col)
    ]
    feature_cols = [
        i for i in range(len(feats.attributes)) if i not in (inst_col, rep_col)
    ]

    instances: list[str] = []
    rows: list[np.ndarray] = []
    seen_instances: set[str] = set()
    for row in feats.rows:
        instance = str(row[inst_col])
        rep = row[rep_col]
        if rep is not None and float(rep) != 1.0:
            raise ScenarioError(
                f"feature_values.arff: repetition {rep} for '{instance}' (only 1 supported)"
            )
        if instance in seen_instances:
            raise ScenarioError(f"duplicate feature row for instance '{instance}'")
        seen_instances.add(instance)
        instances.append(instance)
        vec = np.array(
            [np.nan if row[c] is None else float(row[c]) for c in feature_cols],
            dtype=np.float64,
        )
        rows.append(vec)
    if not instances:
        raise ScenarioError("feature_values.arff contains no instances")
    feature_matrix = np.vstack(rows) if feature_names else np.empty((len(rows), 0))

    runs_rel = _read_relation(directory, "algorithm_runs.arff")
    r_inst = _column(runs_rel, "instance_id", "algorithm_runs.arff")
    r_rep = _column(runs_rel, "repetition", "algorithm_runs.arff")
    r_alg = _column(runs_rel, "algorithm", "algorithm_runs.arff")
    r_time = _column(runs_rel, "runtime", "algorithm_runs.arff")
    r_status = _column(runs_rel, "runstatus", "algorithm_runs.arff")

    algorithms: list[str] = []
    runs: dict[tuple[str, str], RunRecord] = {}
    for row in runs_rel.rows:
        instance = str(row[r_inst])
        if instance not in seen_instances:
            raise ScenarioError(
                f"algorithm_runs.arff references unknown instance '{instance}'"
            )
        rep = row[r_rep]
        if rep is not None and float(rep) != 1.0:
            raise ScenarioError(
                f"algorithm_runs.arff: repetition {rep} for '{instance}' (only 1 supported)"
            )
        algorithm = str(row[r_alg])
        if algorithm not in algorithms:
            algorithms.append(algorithm)
        key = (instance, algorithm)
        if key in runs:
            raise ScenarioError(f"duplicate run for {key}")
        runtime = float(row[r_time]) if row[r_time] is not None else cutoff
        raw_status = str(row[r_status]).lower() if row[r_status] is not None else "ok"
        if raw_status == "ok" and runtime <= cutoff:
            status = OK
        elif runtime >= cutoff:
            status = TIMEOUT
        else:
            status = OTHER_FAILURE
        runs[key] = RunRecord(instance, algorithm, max(runtime, 0.0), status)

    if len(algorithms) < 2:
        raise ScenarioError("scenario needs at least 2 algorithms")
    for instance in instances:
        for algorithm in algorithms:
            if (instance, algorithm) not in runs:
                raise ScenarioError(
                    f"algorithm_runs.arff is not total: missing ({instance}, {algorithm})"
                )
    if len(runs) != len(instances) * len(algorithms):
        raise ScenarioError("algorithm_runs.arff references instances without features")

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
