"""Pairwise one-vs-one algorithm selection with vote counting.

One binary forest per unordered algorithm pair predicts which side is faster;
votes across all pairs pick the algorithm. Optional per-algorithm timeout
forests exclude algorithms predicted to time out before the vote, unless
every algorithm is predicted to time out. Every ensemble is trained on a
`ForestMemo`: one fold's imputed training rows, its imputer and forest
config, each slot's tree streams and, when more than one loop reads it,
every forest fit on those rows, so a slot whose label vector was fit before
takes that forest.
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
    """

    algorithms: list[str]
    forests: list[RandomForest | None]
    imputer: ImputerModel
    timeout_at: float | None = None

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
    """One training block and every forest fit on it, by slot and label
    vector: what `train_ensemble` trains on.

    The block is `X`, the rows of the training instances `train` (in that
    order) imputed by `imputer`, one forest config, `config`, and one
    portfolio, `algorithms`, whose pairs and timeout models the slots are.
    A forest is a function of its slot's seed and of the rows and labels of
    its labelled instances, so `train_ensemble` takes a slot's forest from
    `current`, the (key, forest) it last served for each slot, or else from
    `forests`, when its key (slot index, label vector) was fit before, and
    stores each forest it fits. `streams` holds each slot's `TreeStreams`
    record, made at the slot's first fit, which every later fit of the slot
    reads. `forests` keeps insertion order: once its forests hold more than
    `MEMO_NODES` nodes, the oldest entries are dropped; `current` and the
    streams stay. A memo that only one loop reads (`shared` false) stores no
    forest at all: that loop already takes a slot's current forest, and its
    store would serve next to nothing else.
    """

    def __init__(
        self, train, algorithms, X: np.ndarray, imputer: ImputerModel, config: ForestConfig
    ):
        self.train, self.algorithms = tuple(train), tuple(algorithms)
        self.X, self.imputer, self.config = X, imputer, config
        self.streams: dict[int, TreeStreams] = {}
        self.current: dict[int, tuple[tuple[int, bytes], RandomForest]] = {}
        self.forests: dict[tuple[int, bytes], RandomForest] = {}
        self.nodes = 0
        self.shared = True

    def add(self, key: tuple[int, bytes], forest: RandomForest) -> None:
        if not self.shared:
            return
        self.forests[key] = forest
        self.nodes += forest.nodes.feature.shape[0]
        while self.nodes > MEMO_NODES:
            oldest = self.forests.pop(next(iter(self.forests)))
            self.nodes -= oldest.nodes.feature.shape[0]


def train_ensemble(
    memo: ForestMemo,
    solved: np.ndarray,
    censored: np.ndarray,
    timeout_at: float | None = None,
) -> SelectorEnsemble:
    """Fit pairwise forests, and timeout forests labelled at `timeout_at`
    unless it is None, from observed labels, on `memo`'s block.

    `solved` and `censored` are a `LabelStore`'s arrays on the rows of
    `memo.X` in the same order, one column per algorithm of
    `memo.algorithms`; arrays of another column count are a ValueError.
    A slot with no labelled row stays untrained and abstains. Pair slot p
    is seeded by the path (1, p) and the timeout slot of algorithm k by
    (2, k), under `memo.config`'s seed.

    A forest is a function of its slot's seed and of the rows and labels of
    the labelled instances, so a slot takes the memo's forest whenever one
    was fit on its label vector: first the one the memo last served for the
    slot, so a slot whose labels did not change since keeps its forest
    object, then a stored one. Only the rest refit, on the slot's tree
    streams in the memo, and each refit goes into the memo's store, unless
    only one loop reads the memo.
    """
    algorithms = list(memo.algorithms)
    if solved.shape[1] != len(algorithms) or censored.shape[1] != len(algorithms):
        raise ValueError(
            f"the forest memo's portfolio has {len(algorithms)} algorithms, "
            f"the labels {solved.shape[1]} and {censored.shape[1]} columns"
        )
    side_a, side_b = pair_columns(len(algorithms))
    # Every slot's labels, one row per slot.
    labels = pair_classes(solved, censored, side_a, side_b).T
    if timeout_at is not None:
        timeout_labels = timeout_classes(solved, censored, np.arange(len(algorithms)), timeout_at)
        labels = np.concatenate((labels, timeout_labels.T))

    forests = []
    for s, slot_labels in enumerate(labels):
        labelled = slot_labels >= 0
        if not labelled.any():
            forests.append(None)
            continue
        key = (s, slot_labels.tobytes())
        current, forest = memo.current.get(s, (None, None))
        if current != key:
            forest = memo.forests.get(key)
        if forest is None:
            streams = memo.streams.get(s)
            if streams is None:
                path = (1, s) if s < len(side_a) else (2, s - len(side_a))
                streams = memo.streams[s] = TreeStreams(
                    _sub_seed(memo.config.seed, *path), memo.config.n_trees
                )
            cfg = replace(memo.config, seed=streams.seed)
            forest = fit_forest(memo.X[labelled], slot_labels[labelled], cfg, streams)
            memo.add(key, forest)
        memo.current[s] = key, forest
        forests.append(forest)
    return SelectorEnsemble(algorithms, forests, memo.imputer, timeout_at)


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
