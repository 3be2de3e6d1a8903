"""Experiment orchestration: passive baselines, the configuration grid, and
aggregation of per-step logs into cost-vs-performance curves.

The passive baseline is `FrugalLoop`'s initial phase over the whole fold, so
the loop is the one engine that labels and trains for every configuration;
with timeout models the baseline's scores are its loop's step-0 record.
A grid's task is one (fold, seed) unit, on one job or many. A `_Unit` holds
what the unit's cells share: the split, one `ForestMemo` (`loop.fold_memo`)
with the imputer and the imputed training rows, and the passive baseline's
cost and test PAR10 values, which the `passive` and `passive-to` rows and
every frugal cell's ratio denominators read. The baseline and every loop of
a unit train on the memo with the same slot seeds, so a forest is a
function of its slot and its label vector, and each distinct one of the
unit is fit once, whichever cell needs it first. The task makes the unit,
runs the cells in configuration order on it and drops it when it returns;
nothing of it stays on the caller's spec.

Under a static timeout the timeout models only filter the vote, so an X-to
loop (X `uncertainty` or `random`) queries, runs and fits its pair forests
exactly as an X loop does. A unit that runs both cells of such a pair runs
one X-to loop, which also scores its pair forests alone, and writes both
step logs from it, bit for bit as two loops would; likewise one baseline
writes both passive logs.

Step logs are CSV files, one per (configuration, fold, seed) cell, with the
columns listed in STEP_COLUMNS. A passive cell logs one record and a frugal
cell the step records its loop writes: one per labelling round, or the
step-0 one when the loop never steps. One row builder turns either into
rows. Step logs and summaries are written atomically (a temporary file,
then a rename), so completed cells are skipped on rerun and an interrupted
grid resumes where it stopped.
"""

from __future__ import annotations

import copy
import csv
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .forest import ForestConfig
from .loop import DT_INITIAL_FRAC, FrugalLoop, LoopConfig, fold_memo
from .preprocess import N_FOLDS, FoldSplit, PreprocessError, make_splits
from .scenario import Scenario
from .selector import ForestMemo, algorithm_pairs, evaluate_selector

# Neither is called here: every imputer is fit, and every ensemble trained,
# in `loop`. perfbench/tracing.py wraps both names here as well as there.
from .preprocess import fit_imputer
from .selector import train_ensemble

FRUGAL_CONFIGS = [
    "uncertainty",
    "uncertainty-to",
    "uncertainty-dt",
    "uncertainty-to-dt",
    "random",
    "random-to",
    "random-dt",
    "random-to-dt",
]
PASSIVE_CONFIGS = ["passive", "passive-to"]
# The configurations whose cells one unit computes in pairs: each static
# frugal configuration and its partner (X and X-to), and the two passive ones.
PARTNERS = {
    "uncertainty": "uncertainty-to",
    "uncertainty-to": "uncertainty",
    "random": "random-to",
    "random-to": "random",
    "passive": "passive-to",
    "passive-to": "passive",
}
N_SEEDS = 5

STEP_COLUMNS = [
    "config",
    "scenario",
    "fold",
    "seed",
    "step",
    "timeout_s",
    "labels",
    "cost_s",
    "cost_frac",
    "data_frac",
    "test_par10_s",
    "perf_ratio",
]

SUMMARY_COLUMNS = [
    "config",
    "ratio",
    "mean_cost_frac",
    "stderr_cost_frac",
    "mean_data_frac",
    "stderr_data_frac",
    "n_runs",
]

RATIO_GRID = [round(1.0 + 0.02 * k, 2) for k in range(51)]


def parse_config_id(config_id: str) -> dict:
    """Selection rule and timeout flags of one of the ten configuration ids."""
    if config_id not in FRUGAL_CONFIGS + PASSIVE_CONFIGS:
        raise ValueError(f"unknown configuration id '{config_id}'")
    parts = config_id.split("-")
    return {
        "selection": parts[0],
        "to": "to" in parts[1:],
        "dt": "dt" in parts[1:],
    }


@dataclass(frozen=True)
class PassiveBaseline:
    """What the grid reads of one passive baseline: its labelling cost, its
    test PAR10, and the test PAR10 with timeout models (None when none were
    fitted)."""

    cost: float
    par10: float
    par10_to: float | None


@dataclass
class ExperimentSpec:
    scenario: Scenario
    out_dir: Path
    configurations: list[str] = field(default_factory=lambda: list(FRUGAL_CONFIGS))
    folds: list[int] = field(default_factory=lambda: list(range(N_FOLDS)))
    seeds: list[int] = field(default_factory=lambda: list(range(N_SEEDS)))
    n_trees: int = ForestConfig.n_trees
    batch_frac: float = LoopConfig.batch_frac
    dt_initial_frac: float = DT_INITIAL_FRAC
    dt_growth: float = LoopConfig.dt_growth
    dt_window: int = LoopConfig.dt_window
    dt_tolerance: float = LoopConfig.dt_tolerance
    jobs: int = 1

    def __post_init__(self):
        # A repeated entry would run a cell twice, into the same files.
        for name in ("configurations", "folds", "seeds"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be nonempty")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must be distinct")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        for fold in self.folds:
            if fold not in range(N_FOLDS):
                raise ValueError(f"no fold {fold}: make_splits makes folds 0 to {N_FOLDS - 1}")
        if not 0 < self.dt_initial_frac <= 1:
            raise ValueError(f"dt_initial_frac must be in (0, 1], got {self.dt_initial_frac}")
        # Unknown ids, the loop and forest settings and every seed (LoopConfig
        # and ForestConfig check them) fail here, before any cell runs.
        for config_id in self.configurations:
            parse_config_id(config_id)
        for seed in self.seeds:
            self.loop_config("uncertainty-dt", seed)
        self.out_dir = Path(self.out_dir)

    def loop_config(self, config_id: str, seed: int) -> LoopConfig:
        flags = parse_config_id(config_id)
        cutoff = self.scenario.cutoff
        return LoopConfig(
            selection=flags["selection"],
            timeout_predictor=flags["to"],
            dynamic_timeout=flags["dt"],
            batch_frac=self.batch_frac,
            seed=seed,
            forest=ForestConfig(n_trees=self.n_trees, seed=seed),
            dt_initial=cutoff * self.dt_initial_frac,
            dt_growth=self.dt_growth,
            dt_window=self.dt_window,
            dt_tolerance=self.dt_tolerance,
        )


def run_passive_baseline(
    scenario: Scenario,
    fold: FoldSplit,
    test_instances,
    seed: int,
    timeout_models: bool = False,
    n_trees: int = ForestConfig.n_trees,
    memo: ForestMemo | None = None,
) -> PassiveBaseline:
    """Fit and evaluate the passive baseline of one fold: `FrugalLoop`'s
    initial phase over the whole fold, which runs every training instance on
    every algorithm at the cutoff, in fold order, before any model exists
    (step 0), on `memo` as `FrugalLoop` takes it. That settles every pool
    cell, so the loop never steps, and with `timeout_models` its step-0
    record holds both test PAR10 values from one walk of its forests on the
    test rows: under a static timeout the loop scores its pair forests
    alone too."""
    cfg = LoopConfig(
        timeout_predictor=timeout_models,
        # An empty fold fails in FrugalLoop, with PreprocessError.
        initial_size=len(fold.train) or None,
        seed=seed,
        forest=ForestConfig(n_trees=n_trees, seed=seed),
    )
    loop = FrugalLoop(scenario, FoldSplit(fold.train, []), test_instances, cfg, memo=memo)
    if all(f is None for f in loop.ensemble.pair_forests):
        raise PreprocessError("no labelled data: every pairwise model would be untrained")
    if not timeout_models:
        # One evaluation, which walks its forests through `select_batch`
        # (perfbench/test_checks.py plants a wrong selector there).
        par10 = evaluate_selector(loop.ensemble, loop.test, scenario)
        return PassiveBaseline(loop.ledger.total, par10, None)
    r = loop.record()
    return PassiveBaseline(r.cost, r.plain_test_par10, r.test_par10)


def _ratio(num: float, den: float) -> float:
    """num / den, where 0 / 0 is 1.0 (both ideal) and x / 0 is inf (never
    reached, as `summarize` counts it)."""
    if den == 0:
        return 1.0 if num == 0 else math.inf
    return num / den


def _write_csv(path, columns: list[str], rows: list[dict]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns)
            writer.writeheader()
            writer.writerows(rows)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _cell_path(out_dir: Path, config_id: str, fold: int, seed: int) -> Path:
    return Path(out_dir) / config_id / f"fold{fold:02d}_seed{seed}.csv"


class _Unit:
    """One (fold, seed) unit of `spec`'s grid and the state its cells share,
    all made with it: the seed's split (`make_splits`), the fold's forest
    memo with its imputer and imputed training rows (`fold_memo`), and the
    passive baseline, fit on the memo with timeout models exactly when the
    grid runs `passive-to`. Its loops train on the same memo, and a hit is
    the very forest a refit would grow, so a cell's step log is the same
    whichever cells ran before it."""

    def __init__(self, spec: ExperimentSpec, fold: int, seed: int):
        self.spec, self.fold, self.seed = spec, fold, seed
        plan = make_splits(spec.scenario, seed)
        self.split, self.test = plan.folds[fold], plan.test
        forests = ForestConfig(n_trees=spec.n_trees, seed=seed)
        self.memo = fold_memo(spec.scenario, self.split.train, forests)
        self.baseline = run_passive_baseline(
            spec.scenario, self.split, self.test, seed,
            timeout_models="passive-to" in spec.configurations, n_trees=spec.n_trees,
            memo=self.memo,
        )

    def path(self, config_id: str) -> Path:
        return _cell_path(self.spec.out_dir, config_id, self.fold, self.seed)

    def run(self, config_id: str) -> None:
        """Write the step log of the unit's `config_id` cell.

        Under a static timeout the timeout models only filter the vote: they
        steer no query and no run, and the pair slots of an X-to ensemble
        are X's, with the same seed paths and labels. So an X-to loop
        labels, charges and fits its pair forests exactly as an X loop does,
        round for round, and scores its pair forests alone as X does. A
        static cell (X or X-to, for X `uncertainty` or `random`) whose
        partner is in the grid with no step log yet runs one X-to loop and
        writes both cells' logs from it, bit for bit as two loops would, and
        a passive cell writes its partner's log from the same baseline.
        Every row comes from the loop's own step records: one per round, or
        `FrugalLoop.record()` at step 0 when the loop never steps."""
        spec, scenario = self.spec, self.spec.scenario
        partner = PARTNERS.get(config_id)
        cells = [config_id]
        if partner in spec.configurations and not self.path(partner).exists():
            cells.append(partner)
        if config_id in PASSIVE_CONFIGS:
            b = self.baseline
            n_cells = len(algorithm_pairs(scenario.algorithms)) * len(self.split.train)
            for cell in cells:
                test_par10 = b.par10_to if cell == "passive-to" else b.par10
                self._write(cell, [(1, scenario.cutoff, n_cells, b.cost, 1.0, test_par10)])
            return
        run_id = f"{parse_config_id(config_id)['selection']}-to" if len(cells) == 2 else config_id
        loop = FrugalLoop(
            scenario, self.split, self.test, spec.loop_config(run_id, self.seed),
            memo=self.memo,
        )
        # A loop whose initial phase settled every pool cell never steps:
        # it logs what it has at step 0.
        steps = loop.run() or [loop.record()]
        for cell in cells:
            # The X cell of a shared loop logs the pair forests alone.
            plain = cell != run_id
            records = [
                (r.step, r.timeout, r.requests, r.cost, r.data_frac,
                 r.plain_test_par10 if plain else r.test_par10)
                for r in steps
            ]
            self._write(cell, records)

    def _write(self, config_id: str, records: list[tuple]) -> None:
        """Write a cell's step log from its records: (step, timeout, labels,
        cost, data fraction, test PAR10), priced against the baseline."""
        b = self.baseline
        rows = [
            {
                "config": config_id,
                "scenario": self.spec.scenario.id,
                "fold": self.fold,
                "seed": self.seed,
                "step": step,
                "timeout_s": repr(timeout),
                "labels": labels,
                "cost_s": repr(cost),
                "cost_frac": repr(_ratio(cost, b.cost)),
                "data_frac": repr(data_frac),
                "test_par10_s": repr(test_par10),
                "perf_ratio": repr(_ratio(test_par10, b.par10)),
            }
            for step, timeout, labels, cost, data_frac, test_par10 in records
        ]
        _write_csv(self.path(config_id), STEP_COLUMNS, rows)


def run_cell(spec: ExperimentSpec, config_id: str, fold_index: int, seed: int) -> Path:
    """Run one (configuration, fold, seed) cell of `spec`'s grid and write its
    step log; a cell whose step log exists computes nothing. A cell outside
    the grid is a ValueError.

    A cell that computes runs on the `_Unit` that `_run_unit` hands its
    cells on its task's copy of the spec, or else on one made for this cell
    alone, which goes when it returns. A cell that raises takes its task's
    unit with it, so no later cell runs on a unit a failure left behind.
    """
    if (config_id not in spec.configurations or fold_index not in spec.folds
            or seed not in spec.seeds):
        raise ValueError(
            f"cell ({config_id!r}, fold {fold_index}, seed {seed}) is outside the spec's grid"
        )
    path = _cell_path(spec.out_dir, config_id, fold_index, seed)
    if path.exists():
        return path
    try:
        (getattr(spec, "_unit", None) or _Unit(spec, fold_index, seed)).run(config_id)
    except BaseException:
        vars(spec).pop("_unit", None)
        raise
    return path


def _run_unit(spec: ExperimentSpec, fold: int, seed: int) -> list[Path]:
    """Run the cells of one (fold, seed) unit in `spec.configurations` order.
    When one of them has no step log, one `_Unit` is made for them all and
    handed to each on the task, a copy of the spec, which drops it when it
    returns, raised or not: the unit refers to `spec`, not to the task, so
    nothing but the task keeps its memo. `run_cell` is looked up when each
    cell runs, so a wrapper on `harness.run_cell` sees every cell."""
    task = copy.copy(spec)
    if not all(_cell_path(spec.out_dir, c, fold, seed).exists() for c in spec.configurations):
        task._unit = _Unit(spec, fold, seed)
    try:
        return [run_cell(task, config_id, fold, seed) for config_id in spec.configurations]
    finally:
        vars(task).pop("_unit", None)


def run_grid(spec: ExperimentSpec, progress=None) -> list[Path]:
    """Run every grid cell, one (fold, seed) unit per task, and return the
    step-log paths in run order: by fold, then seed, then configuration.
    `progress(config_id, fold, seed, path)` is called once per cell, in the
    same order, as each unit finishes. With `jobs` above 1 the units run in
    a pool of `min(jobs, units)` processes."""
    units = [(fold, seed) for fold in spec.folds for seed in spec.seeds]
    parallel = spec.jobs > 1
    workers = min(spec.jobs, len(units))
    paths = []
    with ProcessPoolExecutor(max_workers=workers) if parallel else nullcontext() as pool:
        results = (pool.map if parallel else map)(_run_unit, [spec] * len(units), *zip(*units))
        for (fold, seed), unit_paths in zip(units, results):
            for config_id, path in zip(spec.configurations, unit_paths):
                paths.append(path)
                if progress:
                    progress(config_id, fold, seed, path)
    return paths


class ResultsError(ValueError):
    """A step log or summary CSV that lacks one of its columns or holds
    something other than a number in a number column."""


_INTEGER_COLUMNS = {"fold", "seed", "step", "labels", "n_runs"}


def _read_csv(path, columns: list[str]) -> list[dict]:
    """Rows of a CSV file as strings, once it has every one of `columns` and
    each of them but `config` and `scenario` holds a number in every row."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    missing = [c for c in columns if c not in (reader.fieldnames or [])]
    if missing:
        raise ResultsError(f"{path}: no column {', '.join(missing)}")
    numbers = [c for c in columns if c not in ("config", "scenario")]
    for line, row in enumerate(rows, start=2):
        for column in numbers:
            try:
                (int if column in _INTEGER_COLUMNS else float)(row[column])
            except (TypeError, ValueError):
                raise ResultsError(f"{path}, line {line}: {column} is not a number") from None
    return rows


def read_step_logs(log_dir) -> list[dict]:
    """Rows of every step log under `log_dir`, read from the grid's layout
    `<log_dir>/<config>/foldNN_seedS.csv` only, so a summary or any other CSV
    beside them is never taken for a step log."""
    rows = []
    for path in sorted(Path(log_dir).glob("*/fold[0-9][0-9]_seed*.csv")):
        log = _read_csv(path, STEP_COLUMNS)
        if not log:
            # Every cell logs at least one row; without one, `summarize`
            # would drop the run without a word.
            raise ResultsError(f"{path}: a step log with no rows")
        rows.extend(log)
    return rows


def summarize(step_rows: list[dict]) -> list[dict]:
    """Mean/stderr over runs of the minimum cost (and data) fraction needed to
    first reach each performance-ratio grid point; runs that never reach a
    point contribute fraction 1.0."""
    if not step_rows:
        raise ValueError("no step logs to summarize")

    runs: dict[tuple, list[dict]] = {}
    for row in step_rows:
        key = (row["config"], row["fold"], row["seed"])
        runs.setdefault(key, []).append(row)

    per_config: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
    for (config, _, _), rows in runs.items():
        rows.sort(key=lambda r: int(r["step"]))
        ratios = np.array([float(r["perf_ratio"]) for r in rows])
        cost_fracs = np.array([float(r["cost_frac"]) for r in rows])
        data_fracs = np.array([float(r["data_frac"]) for r in rows])
        min_cost = np.ones(len(RATIO_GRID))
        min_data = np.ones(len(RATIO_GRID))
        for g, target in enumerate(RATIO_GRID):
            hit = ratios <= target
            if hit.any():
                min_cost[g] = cost_fracs[hit].min()
                min_data[g] = data_fracs[hit].min()
        per_config.setdefault(config, []).append((min_cost, min_data))

    out = []
    for config in sorted(per_config):
        cost_curves = np.vstack([c for c, _ in per_config[config]])
        data_curves = np.vstack([d for _, d in per_config[config]])
        n = cost_curves.shape[0]

        def stderr(mat):
            if n < 2:
                return np.zeros(mat.shape[1])
            return mat.std(axis=0, ddof=1) / math.sqrt(n)

        mean_cost = cost_curves.mean(axis=0)
        mean_data = data_curves.mean(axis=0)
        se_cost = stderr(cost_curves)
        se_data = stderr(data_curves)
        for g, target in enumerate(RATIO_GRID):
            out.append(
                {
                    "config": config,
                    "ratio": repr(target),
                    "mean_cost_frac": repr(float(mean_cost[g])),
                    "stderr_cost_frac": repr(float(se_cost[g])),
                    "mean_data_frac": repr(float(mean_data[g])),
                    "stderr_data_frac": repr(float(se_data[g])),
                    "n_runs": n,
                }
            )
    return out


def write_summary(rows: list[dict], path) -> None:
    _write_csv(path, SUMMARY_COLUMNS, rows)


def read_summary(path) -> list[dict]:
    return _read_csv(path, SUMMARY_COLUMNS)
