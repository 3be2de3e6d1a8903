"""Experiment orchestration: passive baselines, the configuration grid, and
aggregation of per-step logs into cost-vs-performance curves.

The passive baseline is `FrugalLoop`'s initial phase over the whole fold, so
the loop is the one engine that labels and trains for every configuration.
A grid's task is one (fold, seed) unit: it runs the unit's cells in
configuration order on one copy of the spec, on one job or many. The unit
makes its imputer once and fits its passive baseline once, with timeout
models exactly when the grid runs `passive-to`, and keeps only the
baseline's cost and test PAR10 values: the `passive` and `passive-to` rows
and every frugal cell's ratio denominators read them.

Every loop and baseline trains on a `ForestMemo` (`loop.fold_memo`), and
those of a unit train on the same imputed rows with the same slot seeds, so
a forest is a function of its slot and its label vector. The unit keeps one
memo, imputed once, which its baseline and every loop read and fill: each
distinct (slot, label vector) of the unit is fit once, whichever cell needs
it first, and the memo goes once every cell of the unit has its step log.

Under a static timeout the timeout models only filter the vote, so an X-to
loop (X `uncertainty` or `random`) queries, runs and fits its pair forests
exactly as an X loop does. A unit that runs both cells of such a pair runs
one X-to loop, which also scores its pair forests alone, and writes both
step logs from it, bit for bit as two loops would.

Step logs are CSV files, one per (configuration, fold, seed) cell, with the
columns listed in STEP_COLUMNS. A passive cell logs one record and a frugal
cell one per labelling round (one at step 0 when its loop never steps), and
one row builder turns either into rows. Step logs and summaries are written
atomically (a temporary file, then a rename), so completed cells are skipped
on rerun and an interrupted grid resumes where it stopped.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .forest import ForestConfig
from .loop import DT_INITIAL_FRAC, CostLedger, FrugalLoop, LoopConfig, fold_memo
from .preprocess import N_FOLDS, FoldSplit, PreprocessError, SplitPlan, make_splits
from .scenario import Scenario
from .selector import ForestMemo, SelectorEnsemble, algorithm_pairs, evaluate_selector, slot_votes

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
# Each static frugal configuration and its partner: X and X-to.
STATIC_PARTNERS = {
    "uncertainty": "uncertainty-to",
    "uncertainty-to": "uncertainty",
    "random": "random-to",
    "random-to": "random",
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
    # Passive baselines by (fold, seed), filled by the unit's first cell to
    # run: three floats each and no forests. A parallel grid's task gets its
    # own copy of the spec, and with it its unit's entry. Left out of
    # __init__ (a `dataclasses.replace` copy starts empty), of repr and of ==.
    _baselines: dict[tuple[int, int], PassiveBaseline] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # Each seed's `make_splits` plan, filled by the first cell of that seed
    # to run, like `_baselines` and on the same terms.
    _splits: dict[int, SplitPlan] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # Each (fold, seed)'s `ForestMemo`, with the imputer fit on the fold's
    # training instances and the rows it imputed, made by the unit's first
    # loop or baseline, on the same terms: every loop and the baseline of
    # the unit read and fill it, and `run_cell` drops it once every
    # configuration of the unit has a step log.
    _memos: dict[tuple[int, int], ForestMemo] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # Step-log records of a static cell whose partner's loop computed them,
    # by (config, fold, seed); the cell's `run_cell` pops its entry. On the
    # same terms again: a unit leaves its entries on its own copy.
    _paired: dict[tuple[str, int, int], list[tuple]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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


def passive_ensemble(
    scenario: Scenario,
    fold: FoldSplit,
    seed: int,
    timeout_models: bool = False,
    n_trees: int = ForestConfig.n_trees,
    memo: ForestMemo | None = None,
) -> tuple[SelectorEnsemble, CostLedger]:
    """Selector trained on the full fold at cutoff, and the ledger that
    charged its labelling: `FrugalLoop`'s initial phase over the whole fold,
    which runs every training instance on every algorithm at the cutoff,
    in fold order, before any model exists (step 0). `memo` is the forest
    memo it trains on, as `FrugalLoop` takes it."""
    cfg = LoopConfig(
        timeout_predictor=timeout_models,
        # An empty fold fails in FrugalLoop, with PreprocessError.
        initial_size=len(fold.train) or None,
        seed=seed,
        forest=ForestConfig(n_trees=n_trees, seed=seed),
    )
    loop = FrugalLoop(scenario, fold, (), cfg, memo=memo)
    if all(f is None for f in loop.ensemble.pair_forests):
        raise PreprocessError("no labelled data: every pairwise model would be untrained")
    return loop.ensemble, loop.ledger


def run_passive_baseline(
    scenario: Scenario,
    fold: FoldSplit,
    test_instances,
    seed: int,
    timeout_models: bool = False,
    n_trees: int = ForestConfig.n_trees,
    memo: ForestMemo | None = None,
) -> PassiveBaseline:
    """Fit and evaluate the passive baseline of one fold. The pair forests of
    the timeout-model ensemble are the plain ensemble's, bit for bit (same
    slot seed paths, same labels), so with `timeout_models` one fit and one
    walk of its forests on the test rows give both test PAR10 values: the
    plain ensemble votes with the pair slots' rows of that walk."""
    ensemble, ledger = passive_ensemble(scenario, fold, seed, timeout_models, n_trees, memo)
    if ensemble.timeout_at is None:
        # One evaluation, which walks its forests through `select_batch`
        # (perfbench/test_checks.py plants a wrong selector there).
        par10 = evaluate_selector(ensemble, test_instances, scenario)
        return PassiveBaseline(ledger.total, par10, None)
    test_instances = list(test_instances)
    rows = [scenario.instance_index(i) for i in test_instances]
    votes = slot_votes(ensemble, ensemble.imputer.transform(scenario.feature_matrix[rows]))
    plain = ensemble.without_timeouts()
    par10 = evaluate_selector(plain, test_instances, scenario, votes[: plain.n_pairs])
    par10_to = evaluate_selector(ensemble, test_instances, scenario, votes)
    return PassiveBaseline(ledger.total, par10, par10_to)


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


def run_cell(spec: ExperimentSpec, config_id: str, fold_index: int, seed: int) -> Path:
    """Run one (configuration, fold, seed) cell of `spec`'s grid and write its
    step log; a cell whose step log exists computes nothing. A cell outside
    the grid is a ValueError.

    The split, the forest memo (with the imputer) and the passive baseline
    come from `spec`'s memos. The first cell of a seed to run makes its
    split through `make_splits`, and the first cell of a (fold, seed) to
    need them fits its imputer, makes its `ForestMemo` and fits its
    baseline, through `fit_imputer` and `run_passive_baseline` (with timeout
    models exactly when the grid runs `passive-to`); every later cell reads
    them: the loops, the passive rows and the frugal ratio denominators
    alike. The baseline and every loop of the (fold, seed) take any forest
    the memo already holds for a slot's label vector instead of fitting it
    again, so a cell's step log is the same whichever cells ran before it.
    The memo is dropped once every one of `spec.configurations` has a step
    log for the (fold, seed), whatever order its cells ran in, or as soon
    as any cell of it raises; a later cell of it makes a new one.

    A static frugal cell (X or X-to, for X `uncertainty` or `random`) whose
    partner is in the grid with no step log yet runs one X-to loop for both
    cells: it writes its own log and leaves the partner's records in
    `spec._paired`, from which the partner's `run_cell` writes its log
    without running a loop.
    """
    try:
        path = _run_cell(spec, config_id, fold_index, seed)
    except BaseException:
        spec._memos.pop((fold_index, seed), None)
        raise
    if all(_cell_path(spec.out_dir, c, fold_index, seed).exists() for c in spec.configurations):
        spec._memos.pop((fold_index, seed), None)
    return path


def _run_cell(spec: ExperimentSpec, config_id: str, fold_index: int, seed: int) -> Path:
    if (config_id not in spec.configurations or fold_index not in spec.folds
            or seed not in spec.seeds):
        raise ValueError(
            f"cell ({config_id!r}, fold {fold_index}, seed {seed}) is outside the spec's grid"
        )
    records = spec._paired.pop((config_id, fold_index, seed), None)
    path = _cell_path(spec.out_dir, config_id, fold_index, seed)
    if path.exists():
        return path

    scenario = spec.scenario
    plan = spec._splits.get(seed)
    if plan is None:
        plan = spec._splits[seed] = make_splits(scenario, seed)
    fold = plan.folds[fold_index]
    timeouts = config_id == "passive-to"
    baseline = spec._baselines.get((fold_index, seed))
    if baseline is None:
        baseline = run_passive_baseline(
            scenario, fold, plan.test, seed,
            timeout_models="passive-to" in spec.configurations, n_trees=spec.n_trees,
            memo=_memo(spec, fold_index, seed),
        )
        spec._baselines[fold_index, seed] = baseline

    # Records are (step, timeout, labels, cost, data fraction, test PAR10).
    if config_id in PASSIVE_CONFIGS:
        n_cells = len(algorithm_pairs(scenario.algorithms)) * len(fold.train)
        test_par10 = baseline.par10_to if timeouts else baseline.par10
        records = [(1, scenario.cutoff, n_cells, baseline.cost, 1.0, test_par10)]
    elif records is None:
        records = _frugal_records(spec, config_id, fold_index, seed)
    rows = [
        {
            "config": config_id,
            "scenario": scenario.id,
            "fold": fold_index,
            "seed": seed,
            "step": step,
            "timeout_s": repr(timeout),
            "labels": labels,
            "cost_s": repr(cost),
            "cost_frac": repr(_ratio(cost, baseline.cost)),
            "data_frac": repr(data_frac),
            "test_par10_s": repr(test_par10),
            "perf_ratio": repr(_ratio(test_par10, baseline.par10)),
        }
        for step, timeout, labels, cost, data_frac, test_par10 in records
    ]
    _write_csv(path, STEP_COLUMNS, rows)
    return path


def _memo(spec: ExperimentSpec, fold_index: int, seed: int) -> ForestMemo:
    """The (fold, seed)'s forest memo from `spec._memos`, made by
    `fold_memo` on first use."""
    memo = spec._memos.get((fold_index, seed))
    if memo is None:
        train = spec._splits[seed].folds[fold_index].train
        memo = spec._memos[fold_index, seed] = fold_memo(
            spec.scenario, train, ForestConfig(n_trees=spec.n_trees, seed=seed)
        )
    return memo


def _frugal_records(spec: ExperimentSpec, config_id: str, fold_index: int, seed: int) -> list:
    """A frugal cell's step-log records, one per labelling round (one at
    step 0 when its loop never steps).

    Under a static timeout the timeout models only filter the vote: they
    steer no query and no run, and the pair slots of an X-to ensemble are
    X's, with the same seed paths and labels. So an X-to loop labels,
    charges and fits its pair forests exactly as an X loop does, round for
    round, and scores its pair forests alone as X does. When the cell's
    static partner is in the grid with no step log yet, one X-to loop gives
    both cells' records, bit for bit, and the partner's go to
    `spec._paired`."""
    flags = parse_config_id(config_id)
    partner = STATIC_PARTNERS.get(config_id)
    if (partner not in spec.configurations
            or _cell_path(spec.out_dir, partner, fold_index, seed).exists()):
        partner = None
    run_id = config_id if partner is None else f"{flags['selection']}-to"
    plan = spec._splits[seed]
    loop = FrugalLoop(
        spec.scenario, plan.folds[fold_index], plan.test, spec.loop_config(run_id, seed),
        memo=_memo(spec, fold_index, seed),
    )
    steps = loop.run()

    def records(plain: bool) -> list[tuple]:
        if not steps:
            # The initial phase settled every pool cell, so the loop never
            # stepped: log what it had at step 0.
            ensemble = loop.ensemble.without_timeouts() if plain else loop.ensemble
            test_par10 = evaluate_selector(ensemble, plan.test, spec.scenario)
            return [(0, loop.controller.current, 0, loop.ledger.total, 1.0, test_par10)]
        return [
            (r.step, r.timeout, r.requests, r.cost, r.data_frac,
             r.plain_test_par10 if plain else r.test_par10)
            for r in steps
        ]

    if partner is None:
        return records(plain=False)
    # Of the two cells, X logs the pair forests alone.
    spec._paired[partner, fold_index, seed] = records(plain=partner == flags["selection"])
    return records(plain=config_id == flags["selection"])


def _run_unit(spec: ExperimentSpec, fold: int, seed: int) -> list[Path]:
    """Run the cells of one (fold, seed) unit in `spec.configurations` order;
    they share the unit's passive baseline and forest memo, which the cell
    that writes the unit's last step log drops. `run_cell` is looked up when
    each cell runs, so a wrapper on `harness.run_cell` sees every cell."""
    return [run_cell(spec, config_id, fold, seed) for config_id in spec.configurations]


def run_grid(spec: ExperimentSpec, progress=None) -> list[Path]:
    """Run every grid cell, one (fold, seed) unit per task, and return the
    step-log paths in run order: by fold, then seed, then configuration.
    `progress(config_id, fold, seed, path)` is called once per cell, in the
    same order, as each unit finishes. With `jobs` above 1 the units run in
    a pool of `min(jobs, units)` processes, each task on its own copy of
    the spec."""
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
