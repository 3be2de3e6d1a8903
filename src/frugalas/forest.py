"""From-scratch random forest for binary classification.

Hyperparameters follow the fixed configuration used throughout: 100 trees,
Gini splits, sqrt(n_features) candidates per node, unbounded depth (a node
splits until it is pure or no candidate split lowers its impurity) and
bootstrap resampling. Predictions expose the fraction of tree votes as a
confidence.

Each split node scans all of its candidate features at once in numpy
(`_scan_split`); there is no compiled kernel.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

# Recorded by benchmark reports; the split scan has a single numpy
# implementation.
KERNEL_IMPL = "pure"


def _scan_split(values: np.ndarray, labels: np.ndarray):
    """Best binary split over a node's candidate features.

    values is a (k, n) block with n >= 2, one row per candidate feature,
    holding the node's rows; labels is the (n,) int64 class vector of those
    rows. Returns (row, score, threshold): the chosen candidate row, the sum
    over both children of n_child * gini(child), and the split threshold, or
    (-1, inf, 0.0) when every row is constant. Counts are exact integers, each
    score is formed with the same double operations for every boundary, and
    ties keep the first minimum: first the earliest row, then the earliest
    boundary in ascending order.
    """
    n = values.shape[1]
    # Neither sort needs to be stable. A split falls only between two
    # different values, where the running count covers every tied row in any
    # order. Equal values differ at most in the sign of a zero, and a
    # boundary pair holds at most one zero, whose sign leaves the threshold
    # unchanged.
    c1l = np.cumsum(labels[np.argsort(values, axis=1)], axis=1)[:, :-1]
    values = np.sort(values, axis=1)
    total1 = labels.sum()

    n_l = np.arange(1, n, dtype=np.int64)
    n_r = n - n_l
    c0l = n_l - c1l
    c1r = total1 - c1l
    c0r = n_r - c1r
    left = n_l - (c0l * c0l + c1l * c1l) / n_l
    right = n_r - (c0r * c0r + c1r * c1r) / n_r
    score = left + right
    # Only a boundary between two different values is a split.
    score[values[:, :-1] == values[:, 1:]] = np.inf

    best = int(np.argmin(score))
    row, j = divmod(best, n - 1)
    best_score = float(score[row, j])
    if best_score == np.inf:
        return -1, np.inf, 0.0
    lo, hi = float(values[row, j]), float(values[row, j + 1])
    thr = (lo + hi) / 2.0
    if thr >= hi:
        thr = lo
    return row, best_score, thr


def gini(counts) -> float:
    """Gini impurity of a node given per-class sample counts."""
    total = sum(counts)
    if total < 1:
        raise ValueError("gini needs at least one sample")
    return 1.0 - sum((c / total) ** 2 for c in counts)


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")


@dataclass
class DecisionTree:
    """Flat-array binary tree; feature == -1 marks a leaf."""

    feature: np.ndarray  # int32
    threshold: np.ndarray  # float64
    left: np.ndarray  # int32
    right: np.ndarray  # int32
    n0: np.ndarray  # int64 leaf sample counts (0 on internal nodes)
    n1: np.ndarray
    leaf_class: np.ndarray  # int8, majority with ties toward class 0

    def predict(self, X: np.ndarray) -> np.ndarray:
        idx = np.zeros(X.shape[0], dtype=np.int32)
        while True:
            feat = self.feature[idx]
            rows = np.nonzero(feat >= 0)[0]
            if rows.size == 0:
                break
            at = idx[rows]
            go_left = X[rows, feat[rows]] <= self.threshold[at]
            idx[rows] = np.where(go_left, self.left[at], self.right[at])
        return self.leaf_class[idx]


@dataclass
class RandomForest:
    config: ForestConfig
    n_features: int
    max_features: int
    trees: list[DecisionTree] = field(default_factory=list)

    def predict_proba(self, X) -> np.ndarray:
        """(n, 2) array of class probabilities from hard tree votes."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {X.shape[1]}"
            )
        if np.isnan(X).any():
            raise ValueError("missing values must be imputed before prediction")
        votes1 = np.zeros(X.shape[0], dtype=np.int64)
        for tree in self.trees:
            votes1 += tree.predict(X)
        n = len(self.trees)
        p1 = votes1 / n
        p0 = (n - votes1) / n
        return np.column_stack([p0, p1])

    def predict_label(self, X) -> np.ndarray:
        """0/1 labels; a (0.5, 0.5) tie resolves to class 0."""
        proba = self.predict_proba(X)
        return (proba[:, 1] > proba[:, 0]).astype(np.int8)


class _TreeBuilder:
    def __init__(self, XT, y, max_features, rng):
        self.XT = XT  # (n_features, n_rows), one contiguous row per feature
        self.y = y  # int64
        self.max_features = max_features
        self.rng = rng
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.n0 = []
        self.n1 = []

    def _add_node(self):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.n0.append(0)
        self.n1.append(0)
        return len(self.feature) - 1

    def build(self, idx: np.ndarray) -> int:
        node = self._add_node()
        labels = self.y[idx]
        n = idx.size
        c1 = int(labels.sum())
        c0 = n - c1
        # A pure node, including every node of fewer than two rows, is a leaf.
        if c0 == 0 or c1 == 0:
            self.n0[node], self.n1[node] = c0, c1
            return node

        candidates = self.rng.choice(
            self.XT.shape[0], size=self.max_features, replace=False
        )
        block = self.XT.take(candidates, axis=0).take(idx, axis=1)
        row, score, thr = _scan_split(block, labels)
        parent_score = n - (c0 * c0 + c1 * c1) / n
        if row < 0 or not score < parent_score:
            self.n0[node], self.n1[node] = c0, c1
            return node

        best_feature = int(candidates[row])
        go_left = self.XT[best_feature, idx] <= thr
        self.feature[node] = best_feature
        self.threshold[node] = thr
        self.left[node] = self.build(idx[go_left])
        self.right[node] = self.build(idx[~go_left])
        return node

    def finish(self) -> DecisionTree:
        n0 = np.array(self.n0, dtype=np.int64)
        n1 = np.array(self.n1, dtype=np.int64)
        return DecisionTree(
            feature=np.array(self.feature, dtype=np.int32),
            threshold=np.array(self.threshold, dtype=np.float64),
            left=np.array(self.left, dtype=np.int32),
            right=np.array(self.right, dtype=np.int32),
            n0=n0,
            n1=n1,
            leaf_class=(n1 > n0).astype(np.int8),
        )


def fit_forest(X, y, config: ForestConfig = ForestConfig()) -> RandomForest:
    """Train a forest; (seed, data) fully determine the result."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.int8).ravel()
    if X.shape[0] == 0:
        raise ValueError("cannot fit a forest on zero rows")
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y row counts differ")
    if np.isnan(X).any():
        raise ValueError("missing values must be imputed before fitting")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")

    n, n_features = X.shape
    max_features = max(1, min(n_features, int(math.floor(math.sqrt(n_features)))))
    forest = RandomForest(config=config, n_features=n_features, max_features=max_features)

    XT = np.ascontiguousarray(X.T)
    y64 = y.astype(np.int64)
    # Per-tree generators are pre-derived so a parallel fit would match the
    # sequential result.
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 10000))
    try:
        for t in range(config.n_trees):
            rng = np.random.default_rng(np.random.SeedSequence((config.seed, t)))
            sample = rng.integers(0, n, size=n)
            builder = _TreeBuilder(XT, y64, max_features, rng)
            builder.build(np.sort(sample))
            forest.trees.append(builder.finish())
    finally:
        sys.setrecursionlimit(old_limit)
    return forest


def dump_trees(forest: RandomForest) -> str:
    """Line-oriented serialization of all trees (see README for the format)."""
    lines = []
    for t, tree in enumerate(forest.trees):
        lines.append(f"tree {t}")
        for i in range(tree.feature.shape[0]):
            if tree.feature[i] >= 0:
                lines.append(
                    f"node {i} feature {tree.feature[i]} "
                    f"threshold {float(tree.threshold[i])!r} "
                    f"left {tree.left[i]} right {tree.right[i]}"
                )
            else:
                lines.append(f"leaf {i} counts {tree.n0[i]} {tree.n1[i]}")
    return "\n".join(lines) + "\n"
