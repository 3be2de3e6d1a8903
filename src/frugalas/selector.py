"""Pairwise one-vs-one algorithm selection with vote counting.

One binary forest per unordered algorithm pair predicts which side is faster;
votes across all pairs pick the algorithm. Optional per-algorithm timeout
forests exclude algorithms predicted to time out before the vote, unless
every algorithm is predicted to time out.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .draws import TreeStreams
from .forest import ForestConfig, RandomForest, fit_forest, forest_votes
from .labels import pair_classes, timeout_classes
from .preprocess import ImputerModel
from .scenario import Scenario


def algorithm_pairs(algorithms) -> list[tuple[str, str]]:
    return [
        (algorithms[i], algorithms[j])
        for i in range(len(algorithms))
        for j in range(i + 1, len(algorithms))
    ]


@lru_cache(maxsize=64)  # one entry per portfolio size
def pair_columns(n_algorithms: int) -> np.ndarray:
    """(2, n_pairs) intp: the portfolio positions of each pair's first and
    second algorithm, in `algorithm_pairs` order. Read-only: every caller
    shares it."""
    columns = np.array(algorithm_pairs(range(n_algorithms)), dtype=np.intp).reshape(-1, 2).T
    columns.flags.writeable = False
    return columns


@dataclass
class SelectorEnsemble:
    """The pairwise selector as one list of forest slots.

    Slot order: one slot per algorithm pair, in `algorithm_pairs(algorithms)`
    order (class 0 = the pair's first algorithm is faster); then, when
    `timeout_at` is set, one slot per algorithm in portfolio order (class 1 =
    will time out at `timeout_at`). A None forest is untrained and abstains.
    `labels` (int8, slot x train instance, -1 where unlabelled) is what each
    slot was fit on, None when unknown. `streams` holds each slot's
    `TreeStreams`, which its next refit reads (None for a slot with none
    yet), or is None when unknown; `train_ensemble` sets both.
    """

    algorithms: list[str]
    forests: list[RandomForest | None]
    imputer: ImputerModel
    timeout_at: float | None = None
    labels: np.ndarray | None = None
    streams: list[TreeStreams | None] | None = None

    def __post_init__(self):
        # Slots carry no names, so a wrong count would vote with the wrong
        # forests.
        n_slots = self.n_pairs + (len(self.algorithms) if self.timeout_at is not None else 0)
        if len(self.forests) != n_slots:
            raise ValueError(f"expected {n_slots} forest slots, got {len(self.forests)}")

    @property
    def n_pairs(self) -> int:
        m = len(self.algorithms)
        return m * (m - 1) // 2

    @property
    def pair_forests(self) -> list[RandomForest | None]:
        return self.forests[: self.n_pairs]

    def without_timeouts(self) -> SelectorEnsemble:
        """The same pair forests with no timeout slots."""
        return SelectorEnsemble(self.algorithms, self.pair_forests, self.imputer)


def _sub_seed(base_seed: int, *path: int) -> int:
    return int(np.random.SeedSequence((base_seed, *path)).generate_state(1)[0])


# The most tree nodes a `ForestMemo` keeps, about 40 bytes each (40 MB in
# all); past it the oldest entries go. The bound and the order were chosen
# by replaying the lookups of 100-tree grid units, where a hit sits a whole
# loop back (see the README).
MEMO_NODES = 1 << 20


class ForestMemo:
    """Every forest fit on one training block, by slot and label vector.

    `train_ensemble` takes a slot's forest from here when its (slot index,
    label vector) was fit before, and stores each forest it fits. A forest is
    a function of its slot's seed and of the rows and labels of its labelled
    instances, so the memo belongs to one block `X` (the imputed training
    rows, made by `imputer`) and one forest config's `n_trees` and `seed`;
    every ensemble that reads it shares each slot's `TreeStreams` record as
    well. `forests` keeps insertion order: once its forests hold more than
    `MEMO_NODES` nodes, the oldest entries are dropped.
    """

    def __init__(self, X: np.ndarray, imputer: ImputerModel, forest_config: ForestConfig):
        self.X, self.imputer = X, imputer
        self.n_trees, self.seed = forest_config.n_trees, forest_config.seed
        self.streams: dict[int, TreeStreams] = {}
        self.forests: dict[tuple[int, bytes], RandomForest] = {}
        self.nodes = 0

    def check(self, X, imputer, forest_config: ForestConfig) -> None:
        """ValueError unless the memo was built for this very block and
        imputer (`is`, not equality) and this tree count and seed."""
        if X is not self.X or imputer is not self.imputer:
            raise ValueError("the forest memo belongs to another training block or imputer")
        if (forest_config.n_trees, forest_config.seed) != (self.n_trees, self.seed):
            raise ValueError(
                f"the forest memo holds forests of {self.n_trees} trees and seed {self.seed}, "
                f"not {forest_config.n_trees} and {forest_config.seed}"
            )

    def add(self, key: tuple[int, bytes], forest: RandomForest) -> None:
        self.forests[key] = forest
        self.nodes += forest.nodes.feature.shape[0]
        while self.nodes > MEMO_NODES:
            oldest = self.forests.pop(next(iter(self.forests)))
            self.nodes -= oldest.nodes.feature.shape[0]


def train_ensemble(
    X: np.ndarray,
    solved: np.ndarray,
    censored: np.ndarray,
    algorithms,
    imputer: ImputerModel,
    forest_config: ForestConfig,
    timeout_at: float | None = None,
    previous: SelectorEnsemble | None = None,
    memo: ForestMemo | None = None,
) -> SelectorEnsemble:
    """Fit pairwise forests, and timeout forests labelled at `timeout_at`
    unless it is None, from observed labels.

    The training block is `X`, the imputed (by `imputer`) feature rows of
    the training instances, and `solved` and `censored`, a `LabelStore`'s
    arrays on the same rows in the same order, one column per algorithm of
    `algorithms`. A slot with no labelled row stays untrained and abstains.
    Pair slot p is seeded by the path (1, p) and the timeout slot of
    algorithm k by (2, k).

    A forest is a function of its slot's seed and of the rows and labels of
    the labelled instances, so a slot takes an earlier forest whenever one
    was fit on its label vector, in this order. `previous`, when given, must
    be an ensemble this function returned for the same `X`, `algorithms`,
    `imputer`, `forest_config` and slot layout, whatever its labels: every
    slot whose label vector is unchanged keeps `previous`'s forest. Next,
    `memo`, when given, must be a `ForestMemo` of this `X`, `imputer`, tree
    count and seed (else ValueError), shared by ensembles of the same
    `algorithms`: a slot whose (slot index, label vector) it holds takes the
    memo's forest. Only the rest refit, and each refit goes into the memo.
    A refit reads the slot's tree streams from the memo, else from
    `previous`; a slot's streams are made, and its seed derived, at its
    first fit. Streams of another tree count raise ValueError.
    """
    algorithms = list(algorithms)
    side_a, side_b = pair_columns(len(algorithms))
    # Every slot's labels, one row per slot.
    labels = pair_classes(solved, censored, side_a, side_b).T
    if timeout_at is not None:
        timeout_labels = timeout_classes(solved, censored, np.arange(len(algorithms)), timeout_at)
        labels = np.concatenate((labels, timeout_labels.T))
    unchanged = np.zeros(labels.shape[0], dtype=bool)
    streams: list[TreeStreams | None] = [None] * labels.shape[0]
    if previous is not None:
        unchanged = (previous.labels == labels).all(axis=1)
        streams = list(previous.streams)
    if memo is not None:
        memo.check(X, imputer, forest_config)

    forests = []
    for s, slot_labels in enumerate(labels):
        labelled = slot_labels >= 0
        if unchanged[s]:
            forests.append(previous.forests[s])
            continue
        if not labelled.any():
            forests.append(None)
            continue
        forest = None
        if memo is not None:
            key = (s, slot_labels.tobytes())
            forest = memo.forests.get(key)
            streams[s] = memo.streams.get(s, streams[s])
        if forest is None:
            if streams[s] is None:
                path = (1, s) if s < len(side_a) else (2, s - len(side_a))
                streams[s] = TreeStreams(
                    _sub_seed(forest_config.seed, *path), forest_config.n_trees
                )
            cfg = replace(forest_config, seed=streams[s].seed)
            forest = fit_forest(X[labelled], slot_labels[labelled], cfg, streams[s])
            if memo is not None:
                memo.streams[s] = streams[s]
                memo.add(key, forest)
        forests.append(forest)
    return SelectorEnsemble(algorithms, forests, imputer, timeout_at, labels, streams)


def slot_votes(ensemble: SelectorEnsemble, X) -> np.ndarray:
    """(n_slots, n) int64 class-1 tree votes of every trained slot's forest
    on the imputed rows `X`, walked in one `forest_votes` call; an untrained
    slot's row is 0."""
    trained = [s for s, f in enumerate(ensemble.forests) if f is not None]
    votes = np.zeros((len(ensemble.forests), np.atleast_2d(X).shape[0]), dtype=np.int64)
    votes[trained] = forest_votes([ensemble.forests[s] for s in trained], X)
    return votes


def select_batch(ensemble: SelectorEnsemble, raw_rows) -> list[str]:
    """Pick an algorithm for each raw (unimputed) feature vector.

    Timeout models predicting a timeout exclude their algorithm, unless that
    would exclude every algorithm; each pair with both sides admitted votes
    for its predicted winner; the earliest algorithm wins a tie.
    """
    X = ensemble.imputer.transform(np.atleast_2d(np.asarray(raw_rows, dtype=np.float64)))
    return [ensemble.algorithms[a] for a in _vote(ensemble, slot_votes(ensemble, X)).tolist()]


def _vote(ensemble: SelectorEnsemble, votes: np.ndarray) -> np.ndarray:
    """`select_batch`'s rule on `votes`, the class-1 tree votes of each
    slot's forest: one row per slot in slot order (an untrained slot's row is
    ignored) and one column per row selected for. Returns the portfolio
    position (in `ensemble.algorithms`) picked for each column, as intp.
    Each column is decided on its own, so votes on several row blocks, laid
    side by side, decide each block as its own call would.

    A forest of `k` trees with `v` class-1 votes predicts class 1 when
    `2 * v > k`. That is the float rule `v / k > (k - v) / k`, and for a
    timeout slot `v / k > 0.5`, to the bit: both sides are correctly rounded
    quotients by the same `k`, which keep distinct numerators apart while
    `k` is far below 2**52, and 0.5 is exact."""
    m, n = len(ensemble.algorithms), votes.shape[1]
    n_pairs = ensemble.n_pairs
    k = np.array([0 if f is None else len(f.roots) for f in ensemble.forests])
    trained = k > 0
    class1 = 2 * votes > k.reshape(-1, 1)

    excluded = np.zeros((m, n), dtype=bool)
    if ensemble.timeout_at is not None:
        excluded = class1[n_pairs:] & trained[n_pairs:, None]
    # All predicted to time out: fall back to the full portfolio.
    excluded[:, excluded.all(axis=0)] = False

    sides = pair_columns(m).T
    winner = np.where(class1[:n_pairs], sides[:, 1:], sides[:, :1])
    admitted = ~excluded[sides[:, 0]] & ~excluded[sides[:, 1]] & trained[:n_pairs, None]
    cell = winner * n + np.arange(n)
    counts = np.bincount(cell[admitted], minlength=m * n).reshape(m, n)
    counts[excluded] = -1
    return counts.argmax(axis=0)


def _total(scores) -> float:
    """`scores` summed left to right in Python floats."""
    total = 0.0
    for score in scores:
        total += score
    return total


def evaluate_selector(
    ensemble: SelectorEnsemble, instances, scenario: Scenario, votes=None, split=None
) -> float | tuple[float, float]:
    """Total PAR10 of the selected algorithms' true recorded runs, summed
    left to right; with `split`, the totals of `instances[:split]` and of
    `instances[split:]`, each summed left to right, as a pair.

    `votes` is the (n_slots, len(instances)) int64 vote matrix of every
    trained slot on `instances` (as `slot_votes` makes it), from a caller
    that already walked those forests on those rows; an untrained slot's row
    is ignored, and the ensemble's portfolio must be the scenario's. None
    walks them here, through `select_batch`."""
    instances = list(instances)
    if not instances:
        return 0.0 if split is None else (0.0, 0.0)
    rows = [scenario.instance_index(i) for i in instances]
    if votes is None:
        column = {a: k for k, a in enumerate(scenario.algorithms)}
        selected = [column[a] for a in select_batch(ensemble, scenario.feature_matrix[rows])]
    elif ensemble.algorithms != scenario.algorithms:
        raise ValueError("votes index the ensemble's portfolio, which is not the scenario's")
    else:
        selected = _vote(ensemble, votes)
    scores = scenario.par10[rows, selected].tolist()
    if split is None:
        return _total(scores)
    return _total(scores[:split]), _total(scores[split:])
