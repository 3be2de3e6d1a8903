"""Pairwise one-vs-one algorithm selection with vote counting.

One binary forest per unordered algorithm pair predicts which side is faster;
votes across all pairs pick the algorithm. Optional per-algorithm timeout
forests exclude algorithms predicted to time out before the vote, unless
every algorithm is predicted to time out.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .forest import ForestConfig, RandomForest, fit_forest, forest_proba
from .labels import LabelStore, pair_classes, timeout_classes
from .preprocess import ImputerModel
from .scenario import Scenario

TIMEOUT_CONFIDENCE_THRESHOLD = 0.5


@dataclass
class PairwiseModel:
    pair: tuple[str, str]  # (a, b) in portfolio order; class 0 = a faster
    model: RandomForest | None  # None = untrained, abstains from voting
    # What `model` was fit on: int8, one class per train instance in train
    # order, -1 where the instance has no label; None = unknown.
    labels: np.ndarray | None = None


@dataclass
class TimeoutModel:
    algorithm: str
    trained_at: float  # timeout level the predictor reflects
    model: RandomForest | None  # class 1 = will time out
    labels: np.ndarray | None = None


@dataclass
class SelectorEnsemble:
    algorithms: list[str]
    pairwise: list[PairwiseModel]  # one per unordered pair, portfolio order
    timeout_models: list[TimeoutModel] | None
    imputer: ImputerModel
    # The training rows and forest settings the models were fit with; a
    # later train_ensemble reuses models only when both match.
    train_instances: tuple[str, ...] = ()
    forest_config: ForestConfig | None = None


def algorithm_pairs(algorithms) -> list[tuple[str, str]]:
    return [
        (algorithms[i], algorithms[j])
        for i in range(len(algorithms))
        for j in range(i + 1, len(algorithms))
    ]


def _sub_seed(base_seed: int, *path: int) -> int:
    return int(np.random.SeedSequence((base_seed, *path)).generate_state(1)[0])


def train_ensemble(
    scenario: Scenario,
    train_instances,
    store: LabelStore,
    imputer: ImputerModel,
    forest_config: ForestConfig,
    timeout_at: float | None = None,
    previous: SelectorEnsemble | None = None,
) -> SelectorEnsemble:
    """Fit pairwise forests, and timeout forests labelled at `timeout_at`
    unless it is None, from observed labels.

    `store`'s rows and columns follow `scenario.instances` and
    `scenario.algorithms`. Row order follows train_instances, so two stores
    with identical observations produce identical ensembles. A model with no
    labelled row stays untrained and abstains.

    A forest is a function of its slot's seed and of the imputed rows and
    labels of the labelled instances. So when `previous` was fit with the
    same imputer, train instances and forest config, every model whose label
    vector is unchanged keeps `previous`'s forest, and only the rest refit.
    """
    train = tuple(train_instances)
    algorithms = list(scenario.algorithms)
    matrix_rows = np.array([scenario.instance_index(i) for i in train], dtype=np.intp)
    solved, censored = store.solved[matrix_rows], store.censored[matrix_rows]
    reusable = (
        previous is not None
        and previous.imputer is imputer
        and previous.train_instances == train
        and previous.forest_config == forest_config
        and previous.algorithms == algorithms
    )

    def fit(labels, old, *seed_path) -> RandomForest | None:
        """Forest on the instances with a label, `old`'s forest when fit on
        the same labels, None when no instance has one."""
        if old is not None and np.array_equal(old.labels, labels):
            return old.model
        labelled = labels >= 0
        if not labelled.any():
            return None
        X = imputer.transform(scenario.feature_matrix[matrix_rows[labelled]])
        y = labels[labelled]
        cfg = replace(forest_config, seed=_sub_seed(forest_config.seed, *seed_path))
        return fit_forest(X, y, cfg)

    pairs = algorithm_pairs(range(len(algorithms)))
    old_pairwise = (reusable and previous.pairwise) or [None] * len(pairs)
    pairwise = []
    for p, ((ia, ib), old) in enumerate(zip(pairs, old_pairwise)):
        labels = pair_classes(solved, censored, ia, ib)
        pairwise.append(
            PairwiseModel(
                pair=(algorithms[ia], algorithms[ib]),
                model=fit(labels, old, 1, p),
                labels=labels,
            )
        )
    timeout_models = None
    if timeout_at is not None:
        old_timeout = (reusable and previous.timeout_models) or [None] * len(algorithms)
        timeout_models = []
        for k, (algo, old) in enumerate(zip(algorithms, old_timeout)):
            labels = timeout_classes(solved, censored, k, timeout_at)
            timeout_models.append(
                TimeoutModel(
                    algorithm=algo,
                    trained_at=timeout_at,
                    model=fit(labels, old, 2, k),
                    labels=labels,
                )
            )

    return SelectorEnsemble(
        algorithms=algorithms,
        pairwise=pairwise,
        timeout_models=timeout_models,
        imputer=imputer,
        train_instances=train,
        forest_config=forest_config,
    )


def select_batch(ensemble: SelectorEnsemble, raw_rows) -> list[str]:
    """Pick an algorithm for each raw (unimputed) feature vector.

    Timeout models predicting a timeout exclude their algorithm, unless that
    would exclude every algorithm; each pair with both sides admitted votes
    for its predicted winner; the earliest algorithm wins a tie.
    """
    X = ensemble.imputer.transform(np.atleast_2d(np.asarray(raw_rows, dtype=np.float64)))
    n = X.shape[0]
    column = {a: k for k, a in enumerate(ensemble.algorithms)}
    pairs = [pm for pm in ensemble.pairwise if pm.model is not None]
    timeouts = [tm for tm in ensemble.timeout_models or [] if tm.model is not None]
    p0, p1 = forest_proba([m.model for m in pairs + timeouts], X)

    excluded = np.zeros((len(column), n), dtype=bool)
    excluded[[column[tm.algorithm] for tm in timeouts]] = (
        p1[len(pairs):] > TIMEOUT_CONFIDENCE_THRESHOLD
    )
    # All predicted to time out: fall back to the full portfolio.
    excluded[:, excluded.all(axis=0)] = False

    sides = np.array([[column[a] for a in pm.pair] for pm in pairs], dtype=np.intp)
    sides = sides.reshape(-1, 2)
    winner = np.where(p1[: len(pairs)] > p0[: len(pairs)], sides[:, 1:], sides[:, :1])
    admitted = ~excluded[sides[:, 0]] & ~excluded[sides[:, 1]]
    cell = winner * n + np.arange(n)
    counts = np.bincount(cell[admitted], minlength=len(column) * n).reshape(len(column), n)
    counts[excluded] = -1
    return [ensemble.algorithms[k] for k in counts.argmax(axis=0).tolist()]


def select_algorithm(ensemble: SelectorEnsemble, raw_row) -> str:
    return select_batch(ensemble, np.asarray(raw_row, dtype=np.float64).reshape(1, -1))[0]


def evaluate_selector(ensemble: SelectorEnsemble, instances, scenario: Scenario) -> float:
    """Total PAR10 of the selected algorithms' true recorded runs, summed
    left to right."""
    instances = list(instances)
    if not instances:
        return 0.0
    rows = [scenario.instance_index(i) for i in instances]
    column = {a: k for k, a in enumerate(scenario.algorithms)}
    columns = [column[a] for a in select_batch(ensemble, scenario.feature_matrix[rows])]
    total = 0.0
    for score in scenario.par10[rows, columns].tolist():
        total += score
    return total
