"""Active-learning engine for frugal algorithm selection.

Maintains one candidate pool per algorithm pair, picks queries either by
prediction uncertainty or at random, replays recorded runtimes as a simulated
execution oracle with per-second cost accounting, and optionally grows the
execution timeout when validation performance plateaus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .forest import ForestConfig
from .labels import Censored, LabelStore, Observation, Solved, pairwise_label
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


@dataclass
class RunOracle:
    """Replays recorded runs as if executing the solver with a timeout."""

    scenario: Scenario

    def simulate(self, instance: str, algorithm: str, timeout: float):
        """Observation and charged CPU-seconds for one attempt at `timeout`."""
        rec = self.scenario.run(instance, algorithm)
        if rec.status == OK and rec.runtime <= timeout:
            return Solved(rec.runtime), rec.runtime
        # Failure runs stop when the solver gives up, never past the timeout.
        return Censored(timeout), min(rec.runtime, timeout)


@dataclass(frozen=True)
class LedgerEntry:
    step: int
    instance: str
    algorithm: str
    charged: float
    state: Observation


class CostLedger:
    def __init__(self):
        self.entries: list[LedgerEntry] = []
        self.total = 0.0

    def charge(self, step, instance, algorithm, seconds, state):
        self.entries.append(LedgerEntry(step, instance, algorithm, seconds, state))
        self.total += seconds


class DynamicTimeoutController:
    """Grows the execution timeout geometrically on validation plateaus."""

    def __init__(self, initial, cap, growth_factor=2.0, plateau_window=3,
                 plateau_tolerance=0.01):
        if initial <= 0 or cap <= 0 or initial > cap:
            raise ValueError("need 0 < initial <= cap")
        self.initial = initial
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
    batch_size: int | None = None  # default: ceil(batch_frac * |train|)
    batch_frac: float = 0.01
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


def _forests(ensemble: SelectorEnsemble) -> list:
    """Every forest of the ensemble, pairwise then timeout; None = untrained."""
    return [m.model for m in ensemble.pairwise + (ensemble.timeout_models or [])]


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

        self.batch = cfg.batch_size or max(1, math.ceil(cfg.batch_frac * n))
        initial = cfg.initial_size or self.batch
        if initial > n:
            raise ValueError("initial set larger than the training set")

        self.oracle = RunOracle(scenario)
        self.store = LabelStore()
        self.ledger = CostLedger()
        self.imputer = fit_imputer(scenario, self.train)
        self.pairs = algorithm_pairs(scenario.algorithms)
        self._inst_pos = {inst: k for k, inst in enumerate(self.train)}
        # Imputed feature rows of the training instances, in train order.
        self._train_X = self.imputer.transform(
            scenario.feature_matrix[[scenario.instance_index(i) for i in self.train]]
        )
        self.rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 100)))

        if cfg.dynamic_timeout:
            self.controller = DynamicTimeoutController(
                initial=cfg.dt_initial if cfg.dt_initial is not None else scenario.cutoff / 64,
                cap=scenario.cutoff,
                growth_factor=cfg.dt_growth,
                plateau_window=cfg.dt_window,
                plateau_tolerance=cfg.dt_tolerance,
            )
        else:
            self.controller = None

        self.step_index = 0
        self.requests_executed = 0

        # Initial phase: a seeded uniform sample of instances, run on every
        # algorithm at the starting timeout.
        picks = self.rng.choice(n, size=initial, replace=False)
        initial_set = [self.train[i] for i in sorted(picks)]
        for inst in initial_set:
            for algo in scenario.algorithms:
                obs, charged = self.oracle.simulate(inst, algo, self.current_timeout)
                self.store.record(inst, algo, obs)
                self.ledger.charge(0, inst, algo, charged, obs)

        self.pools: list[set[str]] = [set(self.train) for _ in self.pairs]
        self.resolved_cells = 0
        # Instances whose observations changed since the last _update_pools.
        self._touched: set[str] = set(self.train)
        self._update_pools()

        self.ensemble: SelectorEnsemble | None = None
        self.ensemble = self._retrain()
        # (validation, test) PAR10 of the current ensemble, once evaluated.
        self._par10: tuple[float, float] | None = None

    # -- helpers -------------------------------------------------------------

    @property
    def current_timeout(self) -> float:
        if self.controller is not None:
            return self.controller.current
        return self.scenario.cutoff

    @property
    def total_cells(self) -> int:
        return len(self.pairs) * len(self.train)

    def pools_empty(self) -> bool:
        return all(not pool for pool in self.pools)

    def _retrain(self) -> SelectorEnsemble:
        return train_ensemble(
            self.scenario,
            self.train,
            self.store,
            self.imputer,
            self.cfg.forest,
            timeout_enabled=self.cfg.timeout_predictor,
            current_timeout=self.current_timeout,
            # At a small starting timeout the initial runs can all be censored;
            # an all-abstaining ensemble is valid until labels arrive.
            allow_untrained=True,
            previous=self.ensemble,
        )

    def _pool_positions(self, p: int) -> np.ndarray:
        """Train positions of pool p's instances, ascending."""
        pool = self.pools[p]
        return np.sort(np.fromiter(map(self._inst_pos.__getitem__, pool), np.intp, len(pool)))

    # -- query selection -----------------------------------------------------

    def select_queries_uncertainty(self, n_requests: int) -> list[QueryRequest]:
        """Lowest-confidence requests across all pair tables, merged and sorted.

        Pairs whose model is most uncertain naturally contribute more of the
        selected requests. Ties break by pair, then by instance position.
        """
        confidences, pair_index, positions = [], [], []
        for p, pm in enumerate(self.ensemble.pairwise):
            pos = self._pool_positions(p)
            if not pos.size:
                continue
            if pm.model is None:
                conf = np.full(pos.size, 0.5)
            else:
                conf = pm.model.predict_proba(self._train_X[pos]).max(axis=1)
            confidences.append(conf)
            pair_index.append(np.full(pos.size, p))
            positions.append(pos)
        if not positions:
            return []
        conf = np.concatenate(confidences)
        pair = np.concatenate(pair_index)
        pos = np.concatenate(positions)
        return [
            QueryRequest(
                pair_index=int(pair[k]),
                pair=self.pairs[pair[k]],
                instance=self.train[pos[k]],
                confidence=float(conf[k]),
            )
            for k in np.lexsort((pos, pair, conf))[:n_requests]
        ]

    def select_queries_random(self, n_requests: int) -> list[QueryRequest]:
        """Uniform draw without replacement from the union of all pools."""
        union = [
            (p, self.train[k]) for p in range(len(self.pairs)) for k in self._pool_positions(p)
        ]
        if not union:
            return []
        k = min(n_requests, len(union))
        picks = self.rng.choice(len(union), size=k, replace=False)
        return [
            QueryRequest(
                pair_index=union[i][0],
                pair=self.pairs[union[i][0]],
                instance=union[i][1],
                confidence=0.5,
            )
            for i in sorted(picks)
        ]

    def select_queries(self, n_requests: int) -> list[QueryRequest]:
        if self.cfg.selection == "uncertainty":
            return self.select_queries_uncertainty(n_requests)
        return self.select_queries_random(n_requests)

    # -- execution -----------------------------------------------------------

    def execute_request(self, req: QueryRequest) -> None:
        """Run both sides of the pair at the current timeout, reusing the cache.

        A side already solved, or censored at a level >= the current timeout,
        costs nothing. A censored side below the current timeout is rerun from
        scratch and the whole new attempt is charged.
        """
        for algo in req.pair:
            obs = self.store.get(req.instance, algo)
            if isinstance(obs, Solved):
                continue
            if isinstance(obs, Censored) and obs.at >= self.current_timeout:
                continue
            new_obs, charged = self.oracle.simulate(
                req.instance, algo, self.current_timeout
            )
            self.store.record(req.instance, algo, new_obs)
            self.ledger.charge(self.step_index, req.instance, algo, charged, new_obs)
            self._touched.add(req.instance)
        self.requests_executed += 1

    def _update_pools(self) -> None:
        """Drop settled cells; the only place a cell leaves its pool.

        A cell settles once its label is decided or neither side can change
        any more (solved, or censored at the full cutoff): an exact runtime
        tie or two censors at the cutoff never become informative. Only the
        cells of instances touched since the last call are checked: a cell's
        state changes only with its instance's observations.
        """
        cutoff = self.scenario.cutoff
        touched, self._touched = self._touched, set()

        def final(obs) -> bool:
            return isinstance(obs, Solved) or obs.at >= cutoff

        for p, (a, b) in enumerate(self.pairs):
            done = []
            for inst in touched & self.pools[p]:
                obs_a = self.store.get(inst, a)
                obs_b = self.store.get(inst, b)
                if obs_a is None or obs_b is None:
                    continue
                if pairwise_label(obs_a, obs_b) is not None or (final(obs_a) and final(obs_b)):
                    done.append(inst)
            self.pools[p].difference_update(done)
            self.resolved_cells += len(done)

    # -- stepping ------------------------------------------------------------

    def step(self) -> StepRecord | None:
        """One labelling round; None once every pool is exhausted."""
        requests = self.select_queries(self.batch)
        if not requests:
            return None
        self.step_index += 1
        timeout_used = self.current_timeout
        for req in requests:
            self.execute_request(req)
        self._update_pools()
        previous = self.ensemble
        self.ensemble = self._retrain()

        # Only the forests decide what select_batch picks, so a round that
        # kept every forest object keeps both PAR10 values as well.
        kept = all(a is b for a, b in zip(_forests(self.ensemble), _forests(previous)))
        if self._par10 is None or not kept:
            self._par10 = (
                evaluate_selector(self.ensemble, self.validation, self.scenario),
                evaluate_selector(self.ensemble, self.test, self.scenario),
            )
        validation_par10, test_par10 = self._par10
        if self.controller is not None:
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
