"""From-scratch random forest for binary classification.

Hyperparameters follow the fixed configuration used throughout: 100 trees,
Gini splits, sqrt(n_features) candidates per node, unbounded depth (a node
splits until it is pure or no candidate split lowers its impurity) and
bootstrap resampling. Predictions expose the fraction of tree votes as a
confidence.

Each split node scans all of its candidate features at once (`_scan_split`):
a block of at most `SMALL_SCAN` values on Python floats, a larger one in
numpy, with the same result to the bit; there is no compiled kernel. Both
scans read each boundary's score from one Gini table, built at import, of
every child term up to `GINI_ROWS` rows; a node of more rows forms the same
terms with the function that built the table. Each tree grows from an
explicit preorder stack, with no recursion limit to meet or raise. The scan
also hands each child its rows and labels, as the two parts of the chosen
feature's sort order, and its class-1 count, so no node recounts its labels
and a pure node becomes a leaf without a numpy call. A forest keeps the
nodes of all its trees in one set of flat arrays, with per-tree views
(`RandomForest.trees`) built on first use, and `forest_votes` walks every
(forest, tree, row) lane of any list of forests at once, one numpy pass per
level.

Tree t of a forest with seed s draws its bootstrap and its candidate
features from `draws.ForestDraws`, so it depends on numpy only through
`SeedSequence` and PCG64's raw output. `fit_forest` is the one place that
makes a fresh `draws.TreeStreams` record. A caller that refits one slot many
times passes the slot's record to every fit instead, so each tree is seeded
once and its words are drawn once: one (trees, W) block that widens for
every tree at once (see `draws`). The forests are the same as with no
record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .draws import ForestDraws, TreeStreams

# Recorded by benchmark reports; both split scans are plain Python and numpy,
# with no compiled kernel.
KERNEL_IMPL = "pure"


# Largest block, in values (candidates times rows), that `_scan_split` scans
# on Python floats: below it numpy's fixed cost per call outweighs the
# interpreted loop. Measured per (k, n) block at numpy 2.4.6; the command
# that re-derives it is in BENCH_smallscan.json.
SMALL_SCAN = 64

# Largest node, in rows, whose boundaries the numpy scan scores from the
# Gini table; a larger node forms the same terms with `_child_terms`. The
# table holds (GINI_ROWS + 1) * (GINI_ROWS + 2) / 2 doubles, 594,440 bytes,
# and covers every node of the benchmark's workloads, which have at most
# 292 rows; 512 rows would take 1.05 MB, 2.6% of the smallest workload's
# peak memory (BENCH_scantable.json).
GINI_ROWS = 384


def _child_terms(size, ones):
    """size - ((size - ones)**2 + ones**2) / size: size times the Gini
    impurity of a child of `size` rows, `ones` of them of class 1. The one
    rule for every score: int64 counts, then a float64 division and
    subtraction, which round the exact values of integers below 2**53."""
    zeros = size - ones
    return size - (zeros * zeros + ones * ones) / size


def _gini_terms(size: int) -> np.ndarray:
    """The Gini table: one flat float64 array whose row s, for
    0 <= s <= size, starts at s * (s + 1) // 2 and holds `_child_terms(s, o)`
    for o = 0..s. Row 0 is one NaN, since no child is empty. Row by row, the
    build needs no temporary array of the table's size, which would stay in
    the process's heap."""
    terms = np.empty((size + 1) * (size + 2) // 2)
    terms[0] = np.nan
    for s in range(1, size + 1):
        terms[s * (s + 1) // 2 : (s + 1) * (s + 2) // 2] = _child_terms(s, np.arange(s + 1))
    return terms


_TERMS = _gini_terms(GINI_ROWS)
# _ROW_START[s] is where the table's row s starts.
_ROW_START = np.arange(GINI_ROWS + 1) * np.arange(1, GINI_ROWS + 2) // 2


def _gini_table(size: int) -> list[list[float]]:
    """Rows 0..size of the Gini table as Python lists, table[s][o], for the
    list scan; size is at most `GINI_ROWS`."""
    return [_TERMS[a : a + s + 1].tolist() for s, a in enumerate(_ROW_START[: size + 1].tolist())]


_GINI = _gini_table(SMALL_SCAN)

# What `_scan_split` returns when every candidate row is constant.
_NO_SPLIT = (-1, math.inf, 0.0, None, 0, 0)


def _threshold(lo: float, hi: float) -> float:
    """The split threshold between sorted values lo < hi: their midpoint, or
    lo where the midpoint rounds up to hi or overflows to an infinity."""
    thr = (lo + hi) / 2.0
    return thr if lo <= thr < hi else lo


def _scan_lists(rows: list[list[float]], labels: list[int]):
    """`_scan_split` on Python lists, with the numpy scan's double operations.

    Every count is an int below 2**53, so `int / int` rounds the exact
    quotient once, as numpy's float64 division of the same ints does, and
    `int - float` converts the int exactly; `_GINI` holds those results. A
    score is one float sum of two of them, and a later boundary wins only
    with a strictly lower score, as `argmin` on the flattened block picks.
    """
    n = len(labels)
    total1 = sum(labels)
    gini = _GINI
    best, best_row = math.inf, -1
    for r, col in enumerate(rows):
        order = sorted(range(n), key=col.__getitem__)
        c1 = j = 0  # class-1 rows among, and size of, the left child
        prev = col[order[0]]
        for i in order:
            v = col[i]
            if v != prev:
                score = gini[j][c1] + gini[n - j][total1 - c1]
                if score < best:
                    best, best_row, best_order, m, left1 = score, r, order, j, c1
                    lo, hi = prev, v
            prev = v
            c1 += labels[i]
            j += 1
    if best_row < 0:
        return _NO_SPLIT
    return best_row, best, _threshold(lo, hi), np.array(best_order, dtype=np.intp), m, left1


def _scan_split(values: np.ndarray, labels: np.ndarray):
    """Best binary split over a node's candidate features.

    values is a (k, n) block of finite values with n >= 2, one row per
    candidate feature, holding the node's rows; labels is the (n,) int64
    class vector of those rows. Returns (row, score, threshold, order, m,
    left1): the chosen candidate row, the sum over both children of n_child
    times the child's Gini impurity, the split threshold, the chosen row's
    ascending sort order (an intp array), the split position and the left
    child's class-1 count; or (-1, inf, 0.0, None, 0, 0) when every row is
    constant. Counts are exact integers, each score is formed with the same
    double operations for every boundary, and ties keep the first minimum:
    first the earliest row, then the earliest boundary in ascending order.

    A block of at most `SMALL_SCAN` values is scanned on Python floats
    (`_scan_lists`), a larger one in numpy; the two give the same tuple to
    the bit, up to the order of tied rows within each part of `order`. Both
    take each child's term from the Gini table (`_gini_terms`), the numpy
    scan with one `take` for every left child and one for every right
    child; a node of more than `GINI_ROWS` rows forms the terms with
    `_child_terms`, the function that built the table.

    The split falls between the sorted values lo = values[row, order[m - 1]]
    and hi = values[row, order[m]], lo < hi, both finite (`fit_forest`
    rejects any other value). The threshold (`_threshold`) is their
    midpoint, or lo where the midpoint rounds up to hi or overflows to an
    infinity, so it lies in [lo, hi). So the first m rows of `order`
    are exactly the rows with `value <= threshold` and the rest those above
    it: a caller splits by position and gets the children
    `value <= threshold` would give.
    """
    if values.size <= SMALL_SCAN:
        return _scan_lists(values.tolist(), labels.tolist())
    n = values.shape[1]
    # Neither sort needs to be stable. A split falls only between two
    # different values, where the running count covers every tied row in any
    # order. Equal values differ at most in the sign of a zero, and a
    # boundary pair holds at most one zero, whose sign leaves the threshold
    # unchanged.
    order = values.argsort(axis=1)
    c1 = labels[order].cumsum(axis=1)  # class-1 rows among the first j + 1
    values = values.copy()
    values.sort(axis=1)
    c1l = c1[:, :-1]
    total1 = c1.item(-1)
    # Boundary j (1 <= j < n) leaves j rows, c1l of class 1, on the left and
    # n - j rows, total1 - c1l of class 1, on the right; its score is the sum
    # of the two children's terms.
    if n <= GINI_ROWS:
        left = _TERMS.take(_ROW_START[1:n] + c1l)
        right = _TERMS.take((_ROW_START[n - 1 : 0 : -1] + total1) - c1l)
    else:
        n_l = np.arange(1, n, dtype=np.int64)
        left = _child_terms(n_l, c1l)
        right = _child_terms(n - n_l, total1 - c1l)
    score = left + right
    # Only a boundary between two different values is a split.
    score[values[:, :-1] == values[:, 1:]] = np.inf

    best = int(score.argmin())
    row, j = divmod(best, n - 1)
    best_score = score.item(best)
    if best_score == math.inf:
        return _NO_SPLIT
    threshold = _threshold(values.item(row, j), values.item(row, j + 1))
    return row, best_score, threshold, order[row], j + 1, c1l.item(row, j)


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.n_trees, (int, np.integer)):
            raise ValueError(f"n_trees must be an integer, got {self.n_trees}")
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        check_seed(self.seed)


def check_seed(seed) -> None:
    """A seed is a non-negative integer, as `SeedSequence` takes it."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


@dataclass
class DecisionTree:
    """Flat-array binary tree; feature == -1 marks a leaf, and `left` and
    `right` count from the tree's root."""

    feature: np.ndarray  # int32
    threshold: np.ndarray  # float64
    left: np.ndarray  # int32
    right: np.ndarray  # int32
    n0: np.ndarray  # int64 leaf sample counts (0 on internal nodes)
    n1: np.ndarray
    leaf_class: np.ndarray  # int8, majority with ties toward class 0

    def view(self, start: int, stop: int) -> DecisionTree:
        return DecisionTree(**{k: v[start:stop] for k, v in vars(self).items()})


@dataclass
class RandomForest:
    n_features: int
    nodes: DecisionTree  # every tree's nodes, tree after tree
    roots: np.ndarray  # (n_trees,) int64 position of each tree's root in `nodes`
    depth: int  # edges on the longest root-to-leaf path of any tree

    @cached_property
    def trees(self) -> list[DecisionTree]:
        """One view into `nodes` per tree, built on first use."""
        stops = np.append(self.roots[1:], self.nodes.feature.shape[0])
        return [self.nodes.view(a, b) for a, b in zip(self.roots, stops)]

    def predict_proba(self, X) -> np.ndarray:
        """(n, 2) array of class probabilities from hard tree votes: with `k`
        trees and `v` class-1 votes, `(k - v) / k` and `v / k`."""
        k, v = len(self.roots), forest_votes([self], X)[0]
        return np.column_stack([(k - v) / k, v / k])


def forest_votes(forests, X) -> np.ndarray:
    """Class-1 tree votes: (len(forests), n) int64, one row per forest.

    The forests' nodes are laid end to end, leaves made to point at
    themselves, and every (forest, tree, row) lane steps one level down per
    numpy pass, so the number of passes is the deepest tree's depth. Rows
    with `feature <= threshold` go left, as in each tree's own walk.
    """
    X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=np.float64)))
    n, n_features = X.shape
    for forest in forests:
        if n_features != forest.n_features:
            raise ValueError(f"expected {forest.n_features} features, got {n_features}")
    if not np.isfinite(X).all():
        raise ValueError(
            "features must be finite; missing values must be imputed before prediction"
        )
    if not forests:
        return np.zeros((0, n), dtype=np.int64)

    nodes = [forest.nodes for forest in forests]
    sizes = [t.feature.shape[0] for t in nodes]
    offsets = np.cumsum([0] + sizes[:-1])
    roots = np.concatenate([f.roots + off for f, off in zip(forests, offsets)])
    feature = np.concatenate([t.feature for t in nodes])
    threshold = np.concatenate([t.threshold for t in nodes])
    leaf_class = np.concatenate([t.leaf_class for t in nodes])
    # Children as positions in the joined arrays; a leaf is its own child.
    own = np.arange(feature.shape[0])
    tree_root = np.repeat(roots, np.diff(np.append(roots, own.shape[0])))
    leaf = feature < 0
    children = np.empty(2 * own.shape[0], dtype=np.intp)
    children[0::2] = np.where(leaf, own, np.concatenate([t.left for t in nodes]) + tree_root)
    children[1::2] = np.where(leaf, own, np.concatenate([t.right for t in nodes]) + tree_root)
    column = np.where(leaf, 0, feature)

    values = X.ravel()
    node = np.repeat(roots, n)
    row_start = np.tile(np.arange(n) * n_features, roots.shape[0])
    for _ in range(max(forest.depth for forest in forests)):
        go_right = values.take(row_start + column.take(node)) > threshold.take(node)
        node = children.take(2 * node + go_right)

    tree_votes = leaf_class.take(node).reshape(roots.shape[0], n)
    first_tree = np.cumsum([0] + [len(f.roots) for f in forests[:-1]])
    return np.add.reduceat(tree_votes, first_tree, axis=0, dtype=np.int64)


def _grow_tree(XT, y, draws, t, nodes) -> int:
    """Grow tree t on its bootstrap rows `draws.samples[t]` into the node
    lists it shares with the forest's other trees; returns the tree's depth.

    XT is (n_features, n_rows), one contiguous row per feature, and y the
    int64 labels. Nodes are numbered in preorder as they leave an explicit
    stack, child indices count from the tree's root, and the i-th impure
    node scans `draws.candidates(t, i)`. A stack entry
    carries its rows, their labels and its class-1 count: a split node's
    scan hands each child its share of all three, so a pure node becomes a
    leaf without touching an array.
    """
    feature, threshold, left, right, n0, n1 = nodes
    impure = 0
    root = len(feature)
    depth = 0
    sample = draws.samples[t]
    labels = y[sample]
    # (rows, labels, class-1 count, depth, (child list, parent position) to
    # point at the node).
    stack = [(sample, labels, int(labels.sum()), 0, None)]
    while stack:
        idx, labels, c1, level, slot = stack.pop()
        depth = max(depth, level)
        at = len(feature)
        if slot is not None:
            children, parent = slot
            children[parent] = at - root
        n = idx.shape[0]
        c0 = n - c1
        # A pure node, including every node of fewer than two rows, is a leaf.
        node = (-1, 0.0, -1, -1, c0, c1)
        if c0 and c1:
            candidates = draws.candidates(t, impure)
            impure += 1
            block = XT.take(candidates, axis=0).take(idx, axis=1)
            row, score, thr, order, m, left1 = _scan_split(block, labels)
            if row >= 0 and score < n - (c0 * c0 + c1 * c1) / n:
                node = (int(candidates[row]), thr, -1, -1, 0, 0)
                idx, labels = idx[order], labels[order]
                stack.append((idx[m:], labels[m:], c1 - left1, level + 1, (right, at)))
                stack.append((idx[:m], labels[:m], left1, level + 1, (left, at)))
        for column, value in zip(nodes, node):
            column.append(value)
    return depth


def fit_forest(
    X, y, config: ForestConfig = ForestConfig(), streams: TreeStreams | None = None
) -> RandomForest:
    """Train a forest; (seed, data) fully determine the result.

    `streams`, when given, is the record of the config's seed and n_trees
    that the trees read their words from, and keep for the next fit; a
    record of another seed or tree count is a ValueError. None draws on a
    fresh record."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y).ravel()
    if X.shape[0] == 0:
        raise ValueError("cannot fit a forest on zero rows")
    if X.shape[1] == 0:
        raise ValueError("cannot fit a forest on zero features")
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y row counts differ")
    if not np.isfinite(X).all():
        raise ValueError(
            "features must be finite; missing values must be imputed before fitting"
        )
    # Checked as given: a cast first would pass 0.7 or 256 as 0.
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("labels must be 0 or 1")

    n, n_features = X.shape
    max_features = max(1, min(n_features, int(math.floor(math.sqrt(n_features)))))

    XT = np.ascontiguousarray(X.T)
    y64 = y.astype(np.int64)
    if streams is None:
        streams = TreeStreams(config.seed, config.n_trees)
    elif (streams.seed, streams.n_trees) != (config.seed, config.n_trees):
        raise ValueError(
            f"tree streams of seed {streams.seed} and {streams.n_trees} trees "
            f"cannot draw for seed {config.seed} and {config.n_trees} trees"
        )
    # Each tree's draws depend on (seed, tree) alone, so a parallel fit would
    # match the sequential result.
    draws = ForestDraws(streams, n, n_features, max_features)
    nodes = ([], [], [], [], [], [])  # feature, threshold, left, right, n0, n1
    roots, depth = [], 0
    for t in range(config.n_trees):
        roots.append(len(nodes[0]))
        depth = max(depth, _grow_tree(XT, y64, draws, t, nodes))
    feature, threshold, left, right, n0, n1 = nodes
    n0 = np.array(n0, dtype=np.int64)
    n1 = np.array(n1, dtype=np.int64)
    return RandomForest(
        n_features=n_features,
        nodes=DecisionTree(
            feature=np.array(feature, dtype=np.int32),
            threshold=np.array(threshold, dtype=np.float64),
            left=np.array(left, dtype=np.int32),
            right=np.array(right, dtype=np.int32),
            n0=n0,
            n1=n1,
            leaf_class=(n1 > n0).astype(np.int8),
        ),
        roots=np.array(roots, dtype=np.int64),
        depth=depth,
    )


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
