"""Active-learning engine for frugal algorithm selection.

Maintains one candidate pool per algorithm pair, picks queries either by
prediction uncertainty or at random, and optionally grows the execution
timeout when validation performance plateaus. `FrugalLoop` is the one engine
that labels and trains: the passive baseline is its initial phase over the
whole fold, and a static timeout is a controller that starts at its cap, the
cutoff. `CostLedger.run` is the one place a cell runs: it replays the
recorded run, records the observation and charges its CPU-seconds.
`VoteCache` walks each forest once on each of the loop's fixed row blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .forest import ForestConfig, forest_votes
from .labels import Censored, LabelStore, Observation, Solved, final, settled
from .preprocess import FoldSplit, fit_imputer
from .scenario import OK, Scenario
from .selector import SelectorEnsemble, algorithm_pairs, evaluate_selector, train_ensemble

# --- uncertainty scores -----------------------------------------------------
# All three take the maximum posterior probability of a binary prediction and
# grow with uncertainty, so they induce the same candidate ranking.


def least_confidence_score(p_max):
    return 1.0 - np.asarray(p_max, dtype=np.float64)


def margin_score(p_max):
    """Negated margin between the top two posteriors (binary: 2*p_max - 1)."""
    p = np.asarray(p_max, dtype=np.float64)
    return -(p - (1.0 - p))


def entropy_score(p_max):
    p = np.asarray(p_max, dtype=np.float64)
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(np.where(p > 0, p * np.log2(p), 0.0) + np.where(q > 0, q * np.log2(q), 0.0))
    return h


# --- components -------------------------------------------------------------


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


class DynamicTimeoutController:
    """Grows the execution timeout geometrically on validation plateaus."""

    def __init__(self, initial, cap, growth_factor=2.0, plateau_window=3,
                 plateau_tolerance=0.01):
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
class QueryRequest:
    pair_index: int
    pair: tuple[str, str]
    instance: str
    confidence: float  # max posterior of the pair's model; 0.5 when abstaining


@dataclass
class LoopConfig:
    selection: str = "uncertainty"  # or "random"
    timeout_predictor: bool = False
    dynamic_timeout: bool = False
    batch_frac: float = 0.01  # a round's batch: ceil(batch_frac * |train|)
    initial_size: int | None = None  # default: one batch
    seed: int = 0
    forest: ForestConfig = field(default_factory=ForestConfig)
    dt_initial: float | None = None  # default: cutoff / 64
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


def rank_queries(confidence: np.ndarray, pool: np.ndarray, n_requests: int):
    """(pair, position, confidence) arrays of the `n_requests` open cells of
    `pool` with the lowest `confidence`, both (n_pairs, n_train); ties break
    by pair, then by position."""
    pair, pos = np.nonzero(pool)
    conf = confidence[pair, pos]
    order = np.lexsort((pos, pair, conf))[:n_requests]
    return pair[order], pos[order], conf[order]


class VoteCache:
    """Class-1 votes of each model slot's forest on one fixed block of rows.

    A slot is walked again only when it holds a forest object other than the
    one it was last walked with (`is`, not equality): `train_ensemble` keeps
    a slot's forest object exactly when its labels are unchanged, and a refit
    is a new object. Walks happen on first read, not when a forest changes.
    """

    def __init__(self, X: np.ndarray, n_slots: int):
        self.X = X
        # A fresh object stands for "never walked": no slot's forest is it.
        self.forests: list = [object()] * n_slots
        self.votes = np.zeros((n_slots, X.shape[0]), dtype=np.int64)

    def refresh(self, forests) -> bool:
        """Walk, in one `forest_votes` call, the trained slots whose forest
        is not the one last walked; True when any slot's forest changed,
        untrained (None) slots included."""
        stale = [s for s, f in enumerate(forests) if f is not self.forests[s]]
        walk = [s for s in stale if forests[s] is not None]
        if walk:
            self.votes[walk] = forest_votes([forests[s] for s in walk], self.X)
        for s in stale:
            self.forests[s] = forests[s]
        return bool(stale)

    def proba(self, forests) -> tuple[np.ndarray, np.ndarray]:
        """(p0, p1) of the trained slots, in slot order, on every row of the
        block: `forest_proba`'s `(k - v) / k` and `v / k`, to the bit."""
        self.refresh(forests)
        trained = [s for s, f in enumerate(forests) if f is not None]
        votes = self.votes[trained]
        k = np.array([len(forests[s].roots) for s in trained]).reshape(-1, 1)
        return (k - votes) / k, votes / k


class FrugalLoop:
    """One active-learning run on a single fold.

    Stateful and single-threaded; run independent instances concurrently
    instead of sharing one.
    """

    def __init__(self, scenario: Scenario, fold: FoldSplit, test_instances, cfg: LoopConfig):
        self.scenario = scenario
        self.cfg = cfg
        self.train = list(fold.train)
        self.validation = list(fold.validation)
        self.test = list(test_instances)
        n = len(self.train)
        # An empty fold fails here, with PreprocessError.
        self.imputer = fit_imputer(scenario, self.train)

        self.batch = max(1, math.ceil(cfg.batch_frac * n))
        initial = cfg.initial_size or self.batch
        if initial > n:
            raise ValueError("initial set larger than the training set")

        self.store = LabelStore(scenario.instances, scenario.algorithms)
        self.ledger = CostLedger(scenario, self.store)
        self.pairs = algorithm_pairs(scenario.algorithms)
        # Store columns of the two sides of each pair: (2, n_pairs).
        columns = algorithm_pairs(range(len(scenario.algorithms)))
        self._sides = np.array(columns, dtype=np.intp).reshape(-1, 2).T
        # Scenario rows of the training instances, in train order.
        self._rows = np.array([scenario.instance_index(i) for i in self.train], dtype=np.intp)
        self._train_X = self.imputer.transform(scenario.feature_matrix[self._rows])
        held_out = [scenario.instance_index(i) for i in self.validation + self.test]
        n_slots = len(self.pairs) + (len(scenario.algorithms) if cfg.timeout_predictor else 0)
        # Pair slots on the training rows (the uncertainty query); every
        # slot on the validation rows, then the test rows (the evaluations).
        self._train_votes = VoteCache(self._train_X, len(self.pairs))
        self._held_out_votes = VoteCache(
            self.imputer.transform(scenario.feature_matrix[held_out]), n_slots
        )
        self.rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 100)))

        # A static timeout is a controller parked at its cap, the cutoff: it
        # never grows and records nothing.
        start = scenario.cutoff
        if cfg.dynamic_timeout:
            start = cfg.dt_initial if cfg.dt_initial is not None else scenario.cutoff / 64
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

        self.ensemble: SelectorEnsemble | None = None
        self.ensemble = self._retrain()
        # (validation, test) PAR10 of the forests `_held_out_votes` holds.
        self._par10: tuple[float, float] | None = None

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
            self._train_X,
            self.store.solved[self._rows],
            self.store.censored[self._rows],
            self.scenario.algorithms,
            self.imputer,
            self.cfg.forest,
            timeout_at=self.controller.current if self.cfg.timeout_predictor else None,
            previous=self.ensemble,
        )

    # -- query selection -----------------------------------------------------

    def pair_confidences(self) -> np.ndarray:
        """(n_pairs, n_train) max posterior of each pair's model on every
        training instance; an abstaining (untrained) pair scores 0.5. Votes
        come from `_train_votes`, which walks only the pair forests that
        changed since the last query."""
        forests = [pm.model for pm in self.ensemble.pairwise]
        confidence = np.full(self.pool.shape, 0.5)
        trained = [p for p, f in enumerate(forests) if f is not None]
        p0, p1 = self._train_votes.proba(forests)
        confidence[trained] = np.maximum(p0, p1)
        return confidence

    def select_queries_uncertainty(self, n_requests: int) -> list[QueryRequest]:
        """Lowest-confidence requests across all pair tables, merged and sorted.

        Pairs whose model is most uncertain naturally contribute more of the
        selected requests. Ties break by pair, then by instance position.
        """
        return self._requests(*rank_queries(self.pair_confidences(), self.pool, n_requests))

    def select_queries_random(self, n_requests: int) -> list[QueryRequest]:
        """Uniform draw without replacement from the open cells of all pools,
        numbered by pair, then by instance position."""
        pair, pos = np.nonzero(self.pool)
        if not pos.size:
            return []
        picks = np.sort(self.rng.choice(pos.size, size=min(n_requests, pos.size), replace=False))
        return self._requests(pair[picks], pos[picks], np.full(picks.size, 0.5))

    def _requests(self, pair, pos, confidence) -> list[QueryRequest]:
        """One request per (pair index, train position, confidence) of the
        three arrays, in their order."""
        return [
            QueryRequest(pair_index=p, pair=self.pairs[p], instance=self.train[k], confidence=c)
            for p, k, c in zip(pair.tolist(), pos.tolist(), confidence.tolist())
        ]

    def select_queries(self, n_requests: int) -> list[QueryRequest]:
        if self.cfg.selection == "uncertainty":
            return self.select_queries_uncertainty(n_requests)
        return self.select_queries_random(n_requests)

    # -- execution -----------------------------------------------------------

    def execute_request(self, req: QueryRequest) -> None:
        """Run both sides of the pair at the current timeout, charged at the
        current step; a side that is already final costs nothing."""
        self.ledger.run(self.step_index, req.instance, req.pair, self.controller.current)
        self.requests_executed += 1

    def _update_pools(self) -> None:
        """Drop the settled cells (`labels.settled`) from the pools; the only
        place a cell leaves its pool."""
        solved, censored = self.store.solved[self._rows], self.store.censored[self._rows]
        a, b = self._sides
        self.pool &= ~settled(solved, censored, a, b, self.scenario.cutoff).T

    # -- stepping ------------------------------------------------------------

    def step(self) -> StepRecord | None:
        """One labelling round; None once every pool is exhausted."""
        requests = self.select_queries(self.batch)
        if not requests:
            return None
        self.step_index += 1
        timeout_used = self.controller.current
        for req in requests:
            self.execute_request(req)
        self._update_pools()
        self.ensemble = self._retrain()

        # Only the forests decide what the selector picks, so a round that
        # kept the forests last evaluated keeps both PAR10 values as well.
        forests = [m.model for m in self.ensemble.pairwise + (self.ensemble.timeout_models or [])]
        if self._held_out_votes.refresh(forests):
            p0, p1 = self._held_out_votes.proba(forests)
            v = len(self.validation)
            validation, test = (p0[:, :v], p1[:, :v]), (p0[:, v:], p1[:, v:])
            self._par10 = (
                evaluate_selector(self.ensemble, self.validation, self.scenario, validation),
                evaluate_selector(self.ensemble, self.test, self.scenario, test),
            )
        validation_par10, test_par10 = self._par10
        # A plateau-triggered increase takes effect from the next step on.
        self.controller.observe(validation_par10)
        return StepRecord(
            step=self.step_index,
            timeout=timeout_used,
            requests=self.requests_executed,
            resolved_cells=self.resolved_cells,
            data_frac=self.resolved_cells / self.total_cells,
            cost=self.ledger.total,
            validation_par10=validation_par10,
            test_par10=test_par10,
        )

    def run(self, max_steps: int | None = None) -> list[StepRecord]:
        records = []
        while max_steps is None or len(records) < max_steps:
            record = self.step()
            if record is None:
                break
            records.append(record)
        return records
