"""Active-learning engine for frugal algorithm selection.

Maintains one candidate pool per algorithm pair, picks queries either by
prediction uncertainty or at random, and optionally grows the execution
timeout when validation performance plateaus. `FrugalLoop` is the one engine
that labels and trains: the passive baseline is its initial phase over the
whole fold, and a static timeout is a controller that starts at its cap, the
cutoff. `CostLedger.run` is the one place a cell runs: it replays the
recorded run, records the observation and charges its CPU-seconds.
A loop with timeout models under a static timeout also scores its pair
forests alone, which is what the loop without them logs: the timeout models
then steer no query and no run.
`VoteCache` walks each forest once, right after the retrain that made it,
on the loop's one fixed row block (the training rows when the query ranks by
uncertainty and a pool cell is open, then the validation and test rows) and
keeps its class-1 tree votes, which the query and the evaluation read as
integers through its refresh.
`FrugalLoop.record` scores the current forests and writes every step record.
A loop's label store, pools, training votes and feature rows and its
(pair, position) queries share one index: the training position.
Every loop trains on a `selector.ForestMemo`, made by `fold_memo`: the
fold's imputer, the training rows it imputed once and every forest fit on
them. A loop given no memo builds its own, which stores no forest but each
slot's current one; loops given one memo take any forest another of them
already fit for a slot's label vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .forest import ForestConfig, check_seed, forest_votes
from .labels import Censored, LabelStore, Observation, Solved, final, settled
from .preprocess import FoldSplit, fit_imputer
from .scenario import OK, Scenario
from .selector import (
    ForestMemo,
    SelectorEnsemble,
    algorithm_pairs,
    evaluate_selector,
    pair_columns,
    train_ensemble,
)

DT_INITIAL_FRAC = 1 / 64  # the dynamic timeout's default start, over the cutoff

# --- components -------------------------------------------------------------


def fold_memo(scenario: Scenario, train, forest_config: ForestConfig) -> ForestMemo:
    """An empty `ForestMemo` of the training instances `train` and the
    scenario's portfolio: the imputer is fit on their feature rows, which it
    imputes once. An empty `train` fails here, with PreprocessError."""
    imputer = fit_imputer(scenario, train)
    rows = [scenario.instance_index(i) for i in train]
    X = imputer.transform(scenario.feature_matrix[rows])
    return ForestMemo(train, scenario.algorithms, X, imputer, forest_config)


@dataclass(frozen=True)
class LedgerEntry:
    step: int
    instance: str
    algorithm: str
    charged: float
    state: Observation


class CostLedger:
    """Runs cells by replaying `scenario`'s recorded runs, records what they
    observe in `store` and charges every simulated CPU-second."""

    def __init__(self, scenario: Scenario, store: LabelStore):
        self.scenario = scenario
        self.store = store
        self.entries: list[LedgerEntry] = []
        self.total = 0.0

    def run(self, step: int, instance: str, algorithms, timeout: float) -> None:
        """Run `instance` on each of `algorithms` at `timeout`, charged at
        `step`; a side `final` at `timeout` is skipped and costs nothing. A
        run solves if recorded OK within `timeout`, else it is censored at
        `timeout` and charged min(runtime, timeout): failures stop early."""
        store = self.store
        row = store.row[instance]
        solved, censored = store.solved[row].tolist(), store.censored[row].tolist()
        for algo in algorithms:
            j = store.column[algo]
            if final(solved[j], censored[j], timeout):
                continue
            rec = self.scenario.run(instance, algo)
            if rec.status == OK and rec.runtime <= timeout:
                obs, charged = Solved(rec.runtime), rec.runtime
            else:
                obs, charged = Censored(timeout), min(rec.runtime, timeout)
            store.record(instance, algo, obs)
            self.entries.append(LedgerEntry(step, instance, algo, charged, obs))
            self.total += charged


@dataclass
class LoopConfig:
    selection: str = "uncertainty"  # or "random"
    timeout_predictor: bool = False
    dynamic_timeout: bool = False
    batch_frac: float = 0.01  # a round's batch: ceil(batch_frac * |train|), exactly
    initial_size: int | None = None  # default: one batch
    seed: int = 0
    forest: ForestConfig = field(default_factory=ForestConfig)
    dt_initial: float | None = None  # default: cutoff * DT_INITIAL_FRAC
    dt_growth: float = 2.0
    dt_window: int = 3
    dt_tolerance: float = 0.01

    def __post_init__(self):
        if self.selection not in ("uncertainty", "random"):
            raise ValueError(f"unknown selection strategy '{self.selection}'")
        # A window slices the score history and the initial set is a sample
        # size, so both must be whole numbers.
        for name in ("dt_window", "initial_size"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value}")
        # Positive ranges, so NaN fails each. A timeout that cannot reach the
        # cutoff (growth <= 1, or a plateau test that never passes) would
        # leave censored cells unsettled and the loop running forever.
        ranges = {
            "batch_frac": ("in (0, 1]", 0 < self.batch_frac <= 1),
            "initial_size": (">= 1", self.initial_size is None or self.initial_size >= 1),
            "dt_growth": ("> 1", self.dt_growth > 1),
            "dt_window": (">= 1", self.dt_window >= 1),
            "dt_tolerance": ("> 0", self.dt_tolerance > 0),
            "dt_initial": ("> 0", self.dt_initial is None or self.dt_initial > 0),
        }
        for name, (rule, ok) in ranges.items():
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")
        check_seed(self.seed)


class DynamicTimeoutController:
    """Grows the execution timeout geometrically on validation plateaus."""

    def __init__(self, initial, cap, growth_factor=LoopConfig.dt_growth,
                 plateau_window=LoopConfig.dt_window, plateau_tolerance=LoopConfig.dt_tolerance):
        if initial <= 0 or cap <= 0 or initial > cap:
            raise ValueError("need 0 < initial <= cap")
        self.current = initial
        self.cap = cap
        self.growth_factor = growth_factor
        self.plateau_window = plateau_window
        self.plateau_tolerance = plateau_tolerance
        self.history: list[float] = []

    def observe(self, validation_par10: float) -> bool:
        """Record a validation score; returns True when the timeout grew."""
        if self.current >= self.cap:
            return False
        self.history.append(validation_par10)
        if len(self.history) < self.plateau_window:
            return False
        window = self.history[-self.plateau_window :]
        ref = window[0]
        improvement = (ref - min(window)) / ref if ref > 0 else 0.0
        if improvement < self.plateau_tolerance:
            self.current = min(self.current * self.growth_factor, self.cap)
            self.history.clear()
            return True
        return False


@dataclass(frozen=True)
class StepRecord:
    step: int
    timeout: float
    requests: int  # cumulative executed query requests
    resolved_cells: int  # (pair, instance) cells no longer queryable
    data_frac: float
    cost: float  # cumulative charged CPU-seconds
    validation_par10: float
    test_par10: float
    # The test PAR10 of the pair forests alone, which a loop with timeout
    # models under a static timeout scores too: the static X cell's value,
    # as its X-to loop computes it. None for every other loop.
    plain_test_par10: float | None = None


class VoteCache:
    """Class-1 votes of each model slot's forest on one fixed block of rows.

    A slot is walked again only when it holds a forest object other than the
    one it was last walked with (`is`, not equality): `train_ensemble` keeps
    a slot's forest object exactly when its labels are unchanged, and a refit
    is a new object. The owner refreshes the cache after each retrain, so
    each forest is walked once, on the whole block. An untrained (None) slot
    keeps its last row, which readers ignore.
    """

    def __init__(self, X: np.ndarray, n_slots: int):
        self.X = X
        # A fresh object stands for "never walked": no slot's forest is it.
        self.forests: list = [object()] * n_slots
        self.votes = np.zeros((n_slots, X.shape[0]), dtype=np.int64)

    def refresh(self, forests) -> np.ndarray:
        """The (n_slots, rows) vote matrix of `forests`, one row per slot in
        slot order: walks, in one `forest_votes` call, the trained slots
        whose forest is not the one last walked."""
        walk = [s for s, f in enumerate(forests) if f is not None and f is not self.forests[s]]
        if walk:
            self.votes[walk] = forest_votes([forests[s] for s in walk], self.X)
        self.forests = list(forests)
        return self.votes


class FrugalLoop:
    """One active-learning run on a single fold.

    Stateful and single-threaded; run independent instances concurrently
    instead of sharing one.
    """

    def __init__(
        self, scenario: Scenario, fold: FoldSplit, test_instances, cfg: LoopConfig,
        memo: ForestMemo | None = None,
    ):
        """`memo` is the `ForestMemo` the loop trains on, one of
        `fold_memo(scenario, fold.train, cfg.forest)`: the loop imputes its
        held-out rows with the memo's imputer, and every retrain reads and
        fills it (see `train_ensemble`). A memo of other training instances,
        of another portfolio, or of another tree count or seed, is a
        ValueError. None builds the loop its own, which only this loop reads,
        so it stores no forest beyond each slot's current one."""
        self.scenario = scenario
        self.cfg = cfg
        self.train = list(fold.train)
        self.validation = list(fold.validation)
        self.test = list(test_instances)
        n = len(self.train)
        if memo is None:
            # An empty fold fails here, with PreprocessError.
            memo = fold_memo(scenario, self.train, cfg.forest)
            memo.shared = False  # only this loop reads it
        self.memo = memo
        if self.memo.train != tuple(self.train):
            raise ValueError("the forest memo holds the rows of other training instances")
        if self.memo.algorithms != tuple(scenario.algorithms):
            raise ValueError("the forest memo holds the forests of another portfolio")
        if self.memo.config != cfg.forest:
            raise ValueError(
                f"the forest memo holds forests of {self.memo.config.n_trees} trees and seed "
                f"{self.memo.config.seed}, not {cfg.forest.n_trees} and {cfg.forest.seed}"
            )
        self.imputer = self.memo.imputer

        # The ceiling of the exact product with the decimal `batch_frac` was
        # written as: in floats, 0.07 * 100 is 7.000000000000001.
        self.batch = max(1, math.ceil(Fraction(repr(float(cfg.batch_frac))) * n))
        initial = cfg.initial_size or self.batch
        if initial > n:
            raise ValueError("initial set larger than the training set")

        # Store row k is training instance k.
        self.store = LabelStore(self.train, scenario.algorithms)
        self.ledger = CostLedger(scenario, self.store)
        self.pairs = algorithm_pairs(scenario.algorithms)
        # Store columns of the two sides of each pair: (2, n_pairs).
        self._sides = pair_columns(len(scenario.algorithms))
        self._held_out = self.validation + self.test
        held_out = [scenario.instance_index(i) for i in self._held_out]
        held_out_X = self.imputer.transform(scenario.feature_matrix[held_out])
        self.rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 100)))

        # A static timeout is a controller parked at its cap, the cutoff: it
        # never grows and records nothing.
        start = scenario.cutoff
        if cfg.dynamic_timeout:
            start = cfg.dt_initial or scenario.cutoff * DT_INITIAL_FRAC
        self.controller = DynamicTimeoutController(
            initial=start,
            cap=scenario.cutoff,
            growth_factor=cfg.dt_growth,
            plateau_window=cfg.dt_window,
            plateau_tolerance=cfg.dt_tolerance,
        )

        self.step_index = 0
        self.requests_executed = 0

        # Initial phase: a seeded uniform sample of instances, run on every
        # algorithm at the starting timeout. Over the whole fold the sorted
        # picks are the fold in order: that is the passive baseline.
        picks = self.rng.choice(n, size=initial, replace=False)
        for i in sorted(picks):
            self.ledger.run(0, self.train[i], scenario.algorithms, start)

        # pool[p, k]: the cell (pair p, train instance k) is still queryable.
        self.pool = np.ones((len(self.pairs), n), dtype=bool)
        self._update_pools()

        self.ensemble = self._retrain()
        # Every slot on one block: the training rows, which only the
        # uncertainty query reads (and only while a pool cell is open), then
        # the validation and test rows, which each evaluation reads. Nothing
        # is walked before the first query or the first retrain.
        self._query_rows = n if cfg.selection == "uncertainty" and self.pool.any() else 0
        block = np.concatenate((self.memo.X, held_out_X)) if self._query_rows else held_out_X
        self._votes = VoteCache(block, len(self.ensemble.forests))
        # Under a static timeout the timeout models steer no query and no
        # run, so a loop with them also scores its pair forests alone: the
        # plain test PAR10.
        self._scores_plain = cfg.timeout_predictor and not cfg.dynamic_timeout

    # -- helpers -------------------------------------------------------------

    @property
    def total_cells(self) -> int:
        return len(self.pairs) * len(self.train)

    @property
    def resolved_cells(self) -> int:
        """(pair, instance) cells no longer queryable."""
        return self.total_cells - int(self.pool.sum())

    def _retrain(self) -> SelectorEnsemble:
        return train_ensemble(
            self.memo,
            self.store.solved,
            self.store.censored,
            timeout_at=self.controller.current if self.cfg.timeout_predictor else None,
        )

    # -- query selection -----------------------------------------------------

    def pair_confidences(self) -> np.ndarray:
        """(n_pairs, n_train) max posterior of each pair's model on every
        training instance, `max(k - v, v) / k` from `k` trees with `v`
        class-1 votes; an abstaining (untrained) pair scores 0.5. Only an
        uncertainty loop built with an open pool cell, whose vote block
        starts with the training rows, has these: it reads the votes through
        `_votes.refresh`, which walks only forests no retrain has walked yet
        (the first query's)."""
        forests = self.ensemble.pair_forests
        trained = [p for p, f in enumerate(forests) if f is not None]
        k = np.array([len(forests[p].roots) for p in trained]).reshape(-1, 1)
        v = self._votes.refresh(self.ensemble.forests)[trained, : self._query_rows]
        confidence = np.full(self.pool.shape, 0.5)
        confidence[trained] = np.maximum(k - v, v) / k
        return confidence

    def select_queries(self, n_requests: int):
        """(pair, position) int arrays of at most `n_requests` open cells, in
        the order they run; the one query rule.

        The open cells are listed by pair, then by position. Uncertainty
        ranks them lowest `pair_confidences` first, ties by pair, then by
        position, so the pairs whose model is most uncertain contribute more
        cells. Random draws uniformly without replacement from the list and
        keeps the listed order. An empty pool selects nothing and reads
        neither `rng` nor the vote cache.
        """
        pair, pos = np.nonzero(self.pool)
        if not pos.size:
            return pair, pos
        if self.cfg.selection == "uncertainty":
            picks = np.argsort(self.pair_confidences()[pair, pos], kind="stable")[:n_requests]
        else:
            n = min(n_requests, pos.size)
            picks = np.sort(self.rng.choice(pos.size, size=n, replace=False))
        return pair[picks], pos[picks]

    # -- execution -----------------------------------------------------------

    def execute_request(self, pair: int, position: int) -> None:
        """Run training instance `position` on both sides of pair `pair` at
        the current timeout, charged at the current step; a side that is
        already final costs nothing."""
        self.ledger.run(
            self.step_index, self.train[position], self.pairs[pair], self.controller.current
        )
        self.requests_executed += 1

    def _update_pools(self) -> None:
        """Drop the settled cells (`labels.settled`) from the pools; the only
        place a cell leaves its pool."""
        a, b = self._sides
        self.pool &= ~settled(self.store.solved, self.store.censored, a, b, self.scenario.cutoff).T

    # -- stepping ------------------------------------------------------------

    def step(self) -> StepRecord | None:
        """One labelling round; None once every pool is exhausted."""
        pair, pos = self.select_queries(self.batch)
        if not pos.size:
            return None
        self.step_index += 1
        for p, k in zip(pair.tolist(), pos.tolist()):
            self.execute_request(p, k)
        self._update_pools()
        self.ensemble = self._retrain()
        record = self.record()
        # A plateau-triggered increase takes effect from the next step on.
        self.controller.observe(record.validation_par10)
        return record

    def record(self) -> StepRecord:
        """The loop's step record at the current step and timeout. Every
        call scores the current forests, on the held-out columns of the votes
        that `_votes.refresh` returns."""
        votes = self._votes.refresh(self.ensemble.forests)[:, self._query_rows :]
        validation_par10, test_par10 = evaluate_selector(
            self.ensemble, self._held_out, self.scenario, votes, split=len(self.validation)
        )
        plain_test_par10 = None
        if self._scores_plain:
            plain = self.ensemble.without_timeouts()
            plain_test_par10 = evaluate_selector(
                plain, self.test, self.scenario, votes[: plain.n_pairs, len(self.validation) :]
            )
        return StepRecord(
            step=self.step_index,
            timeout=self.controller.current,
            requests=self.requests_executed,
            resolved_cells=self.resolved_cells,
            data_frac=self.resolved_cells / self.total_cells,
            cost=self.ledger.total,
            validation_par10=validation_par10,
            test_par10=test_par10,
            plain_test_par10=plain_test_par10,
        )

    def run(self, max_steps: int | None = None) -> list[StepRecord]:
        records = []
        while max_steps is None or len(records) < max_steps:
            record = self.step()
            if record is None:
                break
            records.append(record)
        return records
