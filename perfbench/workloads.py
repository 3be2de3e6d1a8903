"""The benchmark's workloads.

Each workload writes its generated ASLib scenario once (`prepare`, untimed)
and then repeats one fixed unit of work (`unit`): set-up, the timed work, and
the checks of its outputs. Every repetition does identical work, so the
runner can take each operation's median over repetitions. Laps of a
`clock.SpeedClock` cut the unit's timeline into operations; between two laps
nothing but the package runs.

All calls into the package go through module attributes
(`harness.run_cell`, not a local alias), so the tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import shutil
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from checks import (
    check_grid,
    check_ledger,
    check_passive_rows,
    check_records,
    check_scenario,
    check_split,
    vbs_sbs,
)
from scenarios import Shape, generate, write_aslib

from frugalas import harness, loop, preprocess, scenario
from frugalas.forest import ForestConfig


SETUP = "setup"


@dataclass
class UnitResult:
    """One repetition. `ref` and `wall` hold seconds per operation: SETUP and
    the operations that together make up the timed work."""

    clock: object
    ref: dict = field(default_factory=lambda: defaultdict(float))
    wall: dict = field(default_factory=lambda: defaultdict(float))
    rounds: dict = field(default_factory=dict)  # labelling-round latencies, ref s
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    fingerprint: object = None  # outputs that every repetition must reproduce

    def lap(self, key=None) -> float:
        """Close the current lap and charge it to `key` (None: untimed)."""
        wall, ref = self.clock.lap()
        if key is not None:
            self.wall[key] += wall
            self.ref[key] += ref
        return ref


def read_logs(out_dir: Path) -> dict[str, list[list[dict]]]:
    """Step logs by configuration, one row list per (fold, seed), read
    without the package."""
    logs: dict[str, list[list[dict]]] = {}
    for path in sorted(Path(out_dir).glob("*/*.csv")):
        with open(path, newline="") as fh:
            logs.setdefault(path.parent.name, []).append(list(csv.DictReader(fh)))
    return logs


def _failed(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Workload:
    name = ""
    shape: Shape
    trees: int
    #: Percentile reported as `round_tail_ms`: the highest one with at least
    #: ten rounds beyond it in one repetition.
    tail_q: float

    #: Folds of the split the unit runs on, as offsets from `seed mod 10`.
    fold_offsets = (0,)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.folds = [(seed + k) % 10 for k in self.fold_offsets]
        self.workdir = Path(workdir)

    def prepare(self) -> None:
        self.gen = generate(self.shape, self.seed, self.name.upper().replace("-", "_"))
        self.scenario_dir = write_aslib(self.gen, self.workdir / "scenario")

    def _load(self):
        sc = scenario.load_scenario(self.scenario_dir)
        return sc, preprocess.make_splits(sc, self.seed)

    def _spec(self, sc, out_dir: Path, configurations):
        return harness.ExperimentSpec(
            scenario=sc,
            out_dir=out_dir,
            configurations=list(configurations),
            folds=self.folds,
            seeds=[self.seed],
            n_trees=self.trees,
            jobs=1,
        )

    def unit(self, index: int, clock) -> UnitResult:
        raise NotImplementedError


class ActiveAslib(Workload):
    """The paper's full method for a fixed number of labelling rounds, on
    three folds of one split."""

    name = "active-aslib"
    shape = Shape(n_instances=500, n_algorithms=6, n_features=31)
    trees = 3
    rounds = 60  # per fold
    fold_offsets = (0, 3, 6)
    tail_q = 1 - 10 / (rounds * len(fold_offsets))

    def unit(self, index: int, clock) -> UnitResult:
        res = UnitResult(clock)
        res.lap()
        sc, plan = self._load()
        cfg = loop.LoopConfig(
            selection="uncertainty",
            timeout_predictor=True,
            dynamic_timeout=True,
            seed=self.seed,
            forest=ForestConfig(n_trees=self.trees, seed=self.seed),
            dt_initial=sc.cutoff / 64,
            dt_growth=2.0,
        )
        loops = [loop.FrugalLoop(sc, plan.folds[f], plan.test, cfg) for f in self.folds]
        res.lap(SETUP)

        test_vbs, _ = vbs_sbs(self.gen, plan.test)
        res.errors += check_scenario(self.gen, sc)
        outputs = []
        for fold, frugal in zip(self.folds, loops):
            res.lap()
            records = []
            for k in range(self.rounds):
                res.attempted += 1
                try:
                    rec = frugal.step()
                except Exception:
                    _failed(f"{self.name} fold {fold} round {k + 1}")
                    res.failed += 1
                    break
                res.rounds[(fold, k)] = res.lap((fold, k))
                if rec is None:
                    break
                records.append(rec)

            timeout_at = {0: cfg.dt_initial} | {r.step: r.timeout for r in records}
            res.errors += check_split(self.gen, plan, fold)
            res.errors += check_ledger(
                self.gen, frugal.ledger.entries, timeout_at, frugal.ledger.total
            )
            res.errors += check_records(
                records, self.rounds, cfg.dt_initial, cfg.dt_growth, sc.cutoff, test_vbs
            )
            outputs.append((records, frugal.ledger.total))
        res.fingerprint = outputs
        return res


class PassiveAslib(Workload):
    """The passive and passive-to cells of one (fold, seed)."""

    name = "passive-aslib"
    shape = Shape(n_instances=400, n_algorithms=5, n_features=21)
    trees = 10
    cells = ("passive", "passive-to")
    tail_q = 0.5  # two rounds per repetition: the median alone

    def unit(self, index: int, clock) -> UnitResult:
        res = UnitResult(clock)
        res.lap()
        sc, plan = self._load()
        res.lap(SETUP)
        out = self.workdir / f"unit{index}"
        spec = self._spec(sc, out, self.cells)
        for config in self.cells:
            res.attempted += 1
            try:
                harness.run_cell(spec, config, self.folds[0], self.seed)
            except Exception:
                _failed(f"{self.name} cell {config}")
                res.failed += 1
            # A passive configuration labels everything in its one round.
            res.rounds[config] = res.lap(config)

        logs = read_logs(out)
        shutil.rmtree(out, ignore_errors=True)
        res.errors += check_scenario(self.gen, sc)
        res.errors += check_split(self.gen, plan, self.folds[0])
        res.errors += check_passive_rows(
            self.gen, logs, plan.folds[self.folds[0]].train, plan.test
        )
        res.fingerprint = logs
        return res


class _GridLaps:
    """Laps at each cell's and each labelling round's boundaries inside
    `run_grid`, through wrappers on the names `run_grid` and `run_cell` call."""

    def __init__(self, res: UnitResult):
        self.res = res

    def __enter__(self):
        res, run_cell, step = self.res, harness.run_cell, loop.FrugalLoop.step
        cell = ["grid"]  # the operation laps are charged to

        def laps_cell(spec, config_id, fold, seed):
            res.lap(cell[0])
            cell[0] = (config_id, fold)
            res.attempted += 1
            try:
                return run_cell(spec, config_id, fold, seed)
            except Exception:
                _failed(f"grid-exhaust cell {config_id} fold {fold}")
                res.failed += 1
                return None
            finally:
                res.lap(cell[0])
                cell[0] = "grid"

        def laps_step(frugal):
            res.lap(cell[0])
            rec = step(frugal)
            latency = res.lap(cell[0])
            if rec is not None:
                res.rounds[(cell[0], rec.step)] = latency
            return rec

        self.saved = (run_cell, step)
        harness.run_cell, loop.FrugalLoop.step = laps_cell, laps_step
        return self

    def __exit__(self, *exc):
        harness.run_cell, loop.FrugalLoop.step = self.saved


class GridExhaust(Workload):
    """All ten configurations on two folds of one split, driven to
    exhaustion."""

    name = "grid-exhaust"
    shape = Shape(n_instances=30, n_algorithms=3, n_features=6)
    trees = 5
    fold_offsets = (0, 5)
    tail_q = 0.95
    exact = ("uncertainty", "random")  # exhaustion must equal passive exactly

    def unit(self, index: int, clock) -> UnitResult:
        res = UnitResult(clock)
        res.lap()
        sc, plan = self._load()
        res.lap(SETUP)
        out = self.workdir / f"unit{index}"
        spec = self._spec(sc, out, harness.FRUGAL_CONFIGS + harness.PASSIVE_CONFIGS)
        with _GridLaps(res):
            harness.run_grid(spec)
        res.lap("grid")
        summary = harness.summarize(harness.read_step_logs(out))
        res.lap("summarize")

        logs = read_logs(out)
        shutil.rmtree(out, ignore_errors=True)
        res.errors += check_scenario(self.gen, sc)
        for fold in self.folds:
            res.errors += check_split(self.gen, plan, fold)
        if sorted(logs) != sorted(spec.configurations):
            res.errors.append(f"grid: step logs for {sorted(logs)}")
        res.errors += check_grid(logs, summary, harness.FRUGAL_CONFIGS, self.exact)
        res.fingerprint = (logs, summary)
        return res


WORKLOADS = {w.name: w for w in (ActiveAslib, PassiveAslib, GridExhaust)}
