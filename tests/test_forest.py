import struct
import sys

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_proba, reference_votes
from frugalas import forest as forest_mod
from frugalas.draws import CHUNK, TreeStreams
from frugalas.forest import (
    GINI_ROWS,
    SMALL_SCAN,
    ForestConfig,
    dump_trees,
    _ROW_START,
    _TERMS,
    _gini_table,
    _scan_lists,
    _scan_split,
    fit_forest,
    forest_votes,
)
from frugalas.preprocess import ImputerModel
from frugalas.selector import SelectorEnsemble, select_batch


class TestFit:
    def test_separable_1d(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        f = fit_forest(X, y, ForestConfig(n_trees=10, seed=0))
        proba = f.predict_proba(X)
        assert np.array_equal(proba[:, 1] > proba[:, 0], y)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(50, 5))
        y = (X[:, 0] > 0.5).astype(int)
        probe = rng.uniform(size=(20, 5))
        f1 = fit_forest(X, y, ForestConfig(n_trees=20, seed=9))
        f2 = fit_forest(X, y, ForestConfig(n_trees=20, seed=9))
        assert np.array_equal(f1.predict_proba(probe), f2.predict_proba(probe))

    def test_single_class(self):
        X = np.arange(10.0).reshape(-1, 1)
        f = fit_forest(X, np.zeros(10), ForestConfig(n_trees=5, seed=0))
        assert np.array_equal(f.predict_proba([[3.0]]), [[1.0, 0.0]])
        f1 = fit_forest(X, np.ones(10), ForestConfig(n_trees=5, seed=0))
        assert np.array_equal(f1.predict_proba([[3.0]]), [[0.0, 1.0]])

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError):
            fit_forest(np.empty((0, 2)), np.empty(0))

    @pytest.mark.parametrize("y", [[0, 1, 0, 1], [0, 0, 0, 0]])
    def test_zero_features_rejected(self, y):
        # With mixed labels a tree would reach a split with no candidates.
        with pytest.raises(ValueError, match="zero features"):
            fit_forest(np.zeros((4, 0)), y)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            fit_forest(np.array([[np.nan]]), np.array([0]))

    def test_infinite_features_rejected(self):
        # A split between -inf and inf would get the threshold nan and send
        # every row left.
        X = np.array([[-np.inf], [np.inf], [-np.inf], [np.inf]])
        with pytest.raises(ValueError, match="finite"):
            fit_forest(X, np.array([0, 1, 0, 1]), ForestConfig(n_trees=3, seed=0))
        forest = fit_forest(np.array([[0.0], [1.0]]), np.array([0, 1]))
        with pytest.raises(ValueError, match="finite"):
            forest_votes([forest], X)

    @pytest.mark.parametrize(
        "y", [np.array([0.7, 1.0, 0.2]), np.array([256, 1, 0]), np.array([-256, 1, 0])]
    )
    def test_labels_are_checked_before_any_cast(self, y):
        # Each of these would read as [0, 1, 0] as int8.
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            fit_forest(np.arange(3.0).reshape(-1, 1), y)


class TestPredict:
    def test_label_is_argmax_and_tie_breaks_to_class0(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(60, 3))
        y = rng.integers(0, 2, size=60)
        f = fit_forest(X, y, ForestConfig(n_trees=30, seed=2))
        probe = rng.uniform(size=(40, 3))
        proba = f.predict_proba(probe)
        # The label the selector acts on: a lone pair slot votes for its
        # second algorithm on class 1.
        pair = SelectorEnsemble(["a0", "a1"], [f], ImputerModel(np.arange(3), np.zeros(3)))
        labels = [int(a == "a1") for a in select_batch(pair, probe)]
        assert (proba >= 0).all() and (proba <= 1).all()
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        for p, lab in zip(proba, labels):
            assert lab == (1 if p[1] > p[0] else 0)

    def test_dimension_mismatch(self):
        f = fit_forest(np.array([[0.0], [1.0]]), np.array([0, 1]))
        with pytest.raises(ValueError):
            f.predict_proba([[1.0, 2.0]])

    def test_proba_matches_tree_walk_oracle(self):
        # XOR-ish task, probabilities re-derived by independently walking the
        # serialized trees.
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, size=(40, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        f = fit_forest(X, y, ForestConfig(n_trees=25, seed=4))

        trees = _parse_dump(dump_trees(f))
        probe = rng.uniform(-1, 1, size=(15, 2))
        expected = np.array([_oracle_proba(trees, row) for row in probe])
        np.testing.assert_array_equal(f.predict_proba(probe), expected)


def _parse_dump(text):
    trees = []
    nodes = None
    for line in text.strip().splitlines():
        parts = line.split()
        if parts[0] == "tree":
            nodes = {}
            trees.append(nodes)
        elif parts[0] == "node":
            nodes[int(parts[1])] = (
                int(parts[3]),
                float(parts[5]),
                int(parts[7]),
                int(parts[9]),
            )
        else:  # leaf
            nodes[int(parts[1])] = (int(parts[3]), int(parts[4]))
    return trees


def _oracle_proba(trees, row):
    votes1 = 0
    for nodes in trees:
        i = 0
        while len(nodes[i]) == 4:
            feature, threshold, left, right = nodes[i]
            i = left if row[feature] <= threshold else right
        n0, n1 = nodes[i]
        votes1 += 1 if n1 > n0 else 0  # leaf ties resolve toward class 0
    n = len(trees)
    return [(n - votes1) / n, votes1 / n]


def golden_forests():
    """The forests of `test_golden.test_trees_match_golden_digest`, with
    their training rows, grouped by feature count."""
    rng = np.random.default_rng(12345)
    groups = []
    for n_features in range(1, 36):
        group = []
        for kind in ("continuous", "duplicates", "mixed"):
            n = int(rng.integers(2, 120))
            if kind == "continuous":
                X = rng.normal(size=(n, n_features))
            elif kind == "duplicates":
                X = rng.integers(0, 4, size=(n, n_features)).astype(float)
            else:
                X = rng.normal(size=(n, n_features))
                X[:, ::2] = np.round(X[:, ::2])
                X[:, 0] = 1.0
            y = (rng.uniform(size=n) < rng.uniform(0.1, 0.9)).astype(int)
            forest = fit_forest(X, y, ForestConfig(n_trees=7, seed=int(rng.integers(1000))))
            group.append((forest, X))
        groups.append(group)
    return groups


def on_threshold_rows(forest, X):
    """One copy of a training row per internal node, with the node's feature
    set exactly to its threshold."""
    rows = []
    for tree in forest.trees:
        for node in np.flatnonzero(tree.feature >= 0):
            row = X[node % X.shape[0]].copy()
            row[tree.feature[node]] = tree.threshold[node]
            rows.append(row)
    return np.array(rows).reshape(-1, X.shape[1])


class TestForestVotes:
    def test_matches_the_per_tree_walk_on_the_golden_forests(self):
        on_threshold = 0
        for group in golden_forests():
            forests = [forest for forest, _ in group]
            probe = np.vstack(
                [X for _, X in group] + [on_threshold_rows(f, X) for f, X in group]
            )
            votes = forest_votes(forests, probe)
            assert votes.dtype == np.int64 and votes.shape == (len(forests), len(probe))
            for forest, row in zip(forests, votes):
                assert np.array_equal(row, reference_votes(forest, probe))
                assert forest.predict_proba(probe).tobytes() == (
                    reference_proba(forest, probe).tobytes()
                )
            on_threshold += sum(len(on_threshold_rows(f, X)) for f, X in group)
        assert on_threshold > 1000

    def test_a_row_on_the_threshold_goes_left(self):
        X = np.arange(20.0).reshape(-1, 1)
        forest = fit_forest(X, (X[:, 0] >= 10).astype(int), ForestConfig(n_trees=1, seed=0))
        assert forest.depth == 1  # one split, two pure leaves
        thr = forest.trees[0].threshold[0]
        assert forest_votes([forest], [[thr], [np.nextafter(thr, 20.0)]]).tolist() == [[0, 1]]

    @pytest.mark.parametrize("n_each", [2, 40])  # the list scan, then the numpy scan
    def test_a_midpoint_that_overflows_falls_back_to_the_lower_value(self, n_each):
        # (-1.797e308 + -1.7e308) / 2 overflows to -inf, which would send
        # every row right.
        lo, hi = -1.797e308, -1.7e308
        X = np.array([[lo]] * n_each + [[hi]] * n_each)
        y = np.array([0] * n_each + [1] * n_each)
        assert (X.size <= SMALL_SCAN) == (n_each == 2)
        forest = fit_forest(X, y, ForestConfig(n_trees=1, seed=0))
        assert forest.depth == 1
        assert forest.trees[0].threshold[0] == lo
        assert forest_votes([forest], X).tolist() == [y.tolist()]

    def test_trees_are_views_of_one_node_store(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 3))
        forest = fit_forest(X, (X[:, 0] > 0).astype(int), ForestConfig(n_trees=4, seed=1))
        stops = list(forest.roots[1:]) + [forest.nodes.feature.shape[0]]
        for tree, start, stop in zip(forest.trees, forest.roots, stops):
            assert np.shares_memory(tree.feature, forest.nodes.feature)
            assert np.array_equal(tree.threshold, forest.nodes.threshold[start:stop])
        assert sum(t.feature.shape[0] for t in forest.trees) == forest.nodes.feature.shape[0]

    def test_empty_inputs(self):
        forest = fit_forest(np.array([[0.0], [1.0]]), np.array([0, 1]))
        assert forest_votes([forest, forest], np.empty((0, 1))).shape == (2, 0)
        assert forest_votes([], np.zeros((3, 1))).shape == (0, 3)

    def test_feature_mismatch_and_missing_values(self):
        forest = fit_forest(np.array([[0.0], [1.0]]), np.array([0, 1]))
        with pytest.raises(ValueError, match="expected 1 features"):
            forest_votes([forest], [[1.0, 2.0]])
        with pytest.raises(ValueError, match="imputed"):
            forest_votes([forest], [[np.nan]])


def longest_path(tree):
    """Edges on the longest root-to-leaf path, level by level from the root;
    also checks that the walk reaches every node exactly once."""
    depth, level, reached = 0, [0], 1
    while True:
        inner = [i for i in level if tree.feature[i] >= 0]
        if not inner:
            assert reached == tree.feature.shape[0]
            return depth
        level = [int(c) for i in inner for c in (tree.left[i], tree.right[i])]
        reached += len(level)
        depth += 1


class TestGrowTree:
    def test_leaves_the_recursion_limit_alone(self, monkeypatch):
        limit = sys.getrecursionlimit()

        def refuse(_):
            raise AssertionError("fit_forest changed the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        # Each split of the identity matrix peels off one row: a chain.
        X = np.eye(300)
        forest = fit_forest(X, np.arange(300) % 2, ForestConfig(n_trees=2, seed=0))
        assert forest.depth > 100
        assert sys.getrecursionlimit() == limit

    def test_depth_is_the_longest_path_and_nodes_are_in_preorder(self):
        for group in golden_forests():
            for forest, _ in group:
                assert forest.depth == max(longest_path(t) for t in forest.trees)
                for tree in forest.trees:
                    inner = np.flatnonzero(tree.feature >= 0)
                    assert np.array_equal(tree.left[inner], inner + 1)


class TestAccuracy:
    def test_two_cluster_holdout(self):
        rng = np.random.default_rng(5)
        X = np.vstack(
            [rng.normal(0, 1, size=(100, 4)), rng.normal(4, 1, size=(100, 4))]
        )
        y = np.array([0] * 100 + [1] * 100)
        order = rng.permutation(200)
        train, test = order[:100], order[100:]
        f = fit_forest(X[train], y[train], ForestConfig(seed=6))
        proba = f.predict_proba(X[test])
        accuracy = ((proba[:, 1] > proba[:, 0]) == y[test]).mean()
        assert accuracy >= 0.9


def reference_column_scan(values, labels):
    """Best split of one column sorted ascending, one boundary at a time.

    The per-column scan the forest used before it scanned all candidates of a
    node at once; returns (score, threshold, found).
    """
    n = values.shape[0]
    c1 = np.cumsum(labels)
    boundaries = np.nonzero(values[:-1] != values[1:])[0]
    if boundaries.size == 0:
        return np.inf, 0.0, False
    n_l = boundaries + 1
    n_r = n - n_l
    c1l = c1[boundaries]
    c0l = n_l - c1l
    c1r = c1[-1] - c1l
    c0r = n_r - c1r
    left = n_l - (c0l * c0l + c1l * c1l) / n_l
    right = n_r - (c0r * c0r + c1r * c1r) / n_r
    score = left + right
    k = int(np.argmin(score))
    j = int(boundaries[k])
    thr = (values[j] + values[j + 1]) / 2.0
    if not values[j] <= thr < values[j + 1]:
        thr = values[j]
    return float(score[k]), float(thr), True


def reference_block_scan(block, labels):
    """Loop over candidate rows; a later row wins only with a strictly lower score."""
    best = (-1, np.inf, 0.0)
    for row in range(block.shape[0]):
        order = np.argsort(block[row], kind="stable")
        score, thr, found = reference_column_scan(block[row][order], labels[order])
        if found and score < best[1]:
            best = (row, score, thr)
    return best


def _bits(x):
    return struct.pack("<d", x)


class TestScanSplit:
    def test_matches_the_per_column_reference(self):
        rng = np.random.default_rng(7)
        cross_row_ties = no_split = small = 0
        for _ in range(600):
            k = int(rng.integers(1, 7))
            n = int(rng.integers(2, 60))
            # few distinct values, with both zeros, so rows have duplicates
            pool = np.append(rng.uniform(-5, 5, size=int(rng.integers(1, 7))), [0.0, -0.0])
            block = rng.choice(pool, size=(k, n))
            if k > 1 and rng.uniform() < 0.3:
                block[rng.integers(k)] = pool[0]  # a constant row
            if k > 1 and rng.uniform() < 0.4:
                a, b = rng.choice(k, size=2, replace=False)
                block[b] = rng.permutation(block[a])  # another row, same multiset
            labels = rng.integers(0, 2, size=n).astype(np.int64)
            small += block.size <= SMALL_SCAN

            row, score, thr, order, m, left1 = _scan_split(block, labels)
            ref_row, ref_score, ref_thr = reference_block_scan(block, labels)
            assert row == ref_row
            assert _bits(score) == _bits(ref_score)
            assert _bits(thr) == _bits(ref_thr)
            if row >= 0:
                go_left = block[row] <= thr
                assert sorted(order[:m]) == np.flatnonzero(go_left).tolist()
                assert sorted(order[m:]) == np.flatnonzero(~go_left).tolist()
                assert left1 == labels[go_left].sum()
                scores = [reference_block_scan(block[r : r + 1], labels)[1] for r in range(k)]
                cross_row_ties += scores.count(score) > 1
            else:
                no_split += 1
        assert cross_row_ties > 20 and no_split > 5
        assert small > 100 and 600 - small > 100  # both the list and the numpy scan ran


# The build before each scan handed its children their rows, labels and
# class counts: every split recounted its labels and partitioned its rows by
# `value <= threshold`, in sample order.


def reference_scan_split(values, labels):
    """(row, score, threshold) of the best split, or (-1, inf, 0.0)."""
    n = values.shape[1]
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
    score[values[:, :-1] == values[:, 1:]] = np.inf

    best = int(np.argmin(score))
    row, j = divmod(best, n - 1)
    best_score = float(score[row, j])
    if best_score == np.inf:
        return -1, np.inf, 0.0
    lo, hi = float(values[row, j]), float(values[row, j + 1])
    thr = (lo + hi) / 2.0
    if not lo <= thr < hi:
        thr = lo
    return row, best_score, thr


def reference_grow_tree(XT, y, sample, max_features, rng, nodes) -> int:
    feature, threshold, left, right, n0, n1 = nodes
    root = len(feature)
    depth = 0
    stack = [(sample, 0, None)]
    while stack:
        idx, level, slot = stack.pop()
        depth = max(depth, level)
        at = len(feature)
        if slot is not None:
            children, parent = slot
            children[parent] = at - root
        labels = y[idx]
        n = idx.size
        c1 = int(labels.sum())
        c0 = n - c1
        node = (-1, 0.0, -1, -1, c0, c1)
        if c0 and c1:
            candidates = rng.choice(XT.shape[0], size=max_features, replace=False)
            block = XT.take(candidates, axis=0).take(idx, axis=1)
            row, score, thr = reference_scan_split(block, labels)
            if row >= 0 and score < n - (c0 * c0 + c1 * c1) / n:
                best_feature = int(candidates[row])
                go_left = XT[best_feature, idx] <= thr
                node = (best_feature, thr, -1, -1, 0, 0)
                stack.append((idx[~go_left], level + 1, (right, at)))
                stack.append((idx[go_left], level + 1, (left, at)))
        for column, value in zip(nodes, node):
            column.append(value)
    return depth


def reference_fit(X, y, config):
    """(node columns, roots, depth) of the forest `fit_forest` must build."""
    n, n_features = X.shape
    max_features = max(1, min(n_features, int(math.floor(math.sqrt(n_features)))))
    XT = np.ascontiguousarray(X.T)
    y64 = np.asarray(y, dtype=np.int64)
    nodes = ([], [], [], [], [], [])
    roots, depth = [], 0
    for t in range(config.n_trees):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, t)))
        sample = rng.integers(0, n, size=n)
        roots.append(len(nodes[0]))
        tree_depth = reference_grow_tree(XT, y64, np.sort(sample), max_features, rng, nodes)
        depth = max(depth, tree_depth)
    return nodes, roots, depth


@st.composite
def training_sets(draw):
    """(X, y): duplicate values, both signs of zero, constant columns and
    single-class labels are all common."""
    n = draw(st.integers(1, 120))
    n_features = draw(st.integers(1, 35))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.append(rng.uniform(-5, 5, size=draw(st.integers(1, 6))), [0.0, -0.0])
    X = rng.choice(pool, size=(n, n_features))
    if draw(st.booleans()):
        X[:, ::2] = rng.normal(size=X[:, ::2].shape)  # continuous columns
    if draw(st.booleans()):
        X[:, rng.integers(n_features)] = pool[0]  # a constant column
    kind = draw(st.sampled_from(["mixed", "class 0", "class 1"]))
    if kind == "mixed":
        y = (rng.uniform(size=n) < rng.uniform(0.1, 0.9)).astype(np.int64)
    else:
        y = np.full(n, int(kind == "class 1"))
    return X, y


class TestReferenceBuild:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(training_sets(), st.integers(1, 7), st.integers(0, 1000))
    def test_fit_forest_equals_the_reference_build(self, data, n_trees, seed):
        X, y = data
        config = ForestConfig(n_trees=n_trees, seed=seed)
        forest = fit_forest(X, y, config)
        (feature, threshold, left, right, n0, n1), roots, depth = reference_fit(X, y, config)
        nodes = forest.nodes
        assert nodes.feature.tolist() == feature
        assert nodes.threshold.tobytes() == np.array(threshold, dtype=np.float64).tobytes()
        assert nodes.left.tolist() == left and nodes.right.tolist() == right
        assert nodes.n0.tolist() == n0 and nodes.n1.tolist() == n1
        assert forest.roots.tolist() == roots
        assert forest.depth == depth


def assert_same_nodes(forest, fresh):
    for name, column in vars(forest.nodes).items():
        assert column.tobytes() == getattr(fresh.nodes, name).tobytes(), name
    assert forest.roots.tolist() == fresh.roots.tolist()
    assert forest.depth == fresh.depth


# Values that make the two scans disagree if either rounds differently: both
# zeros, denormals, neighbours one ulp apart, and magnitudes whose midpoint
# overflows, so that the threshold falls back to the lower value.
HUGE = np.finfo(np.float64).max
EDGES = {
    "zeros": [0.0, -0.0, 1.0],
    "denormals": [5e-324, -5e-324, 1e-323, 0.0, -0.0],
    "one ulp": [1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), -1.0, np.nextafter(-1.0, 0.0)],
    "huge": [HUGE, np.nextafter(HUGE, 0.0), -HUGE, np.nextafter(-HUGE, 0.0), 1.7e308, 0.0],
}


@st.composite
def scan_blocks(draw):
    """(block, labels): 1-4 candidate rows of 2-64 values, on both sides of
    `SMALL_SCAN`, with ties, constant rows and single-class labels."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(2, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", *EDGES]))
    if kind == "uniform":
        pool = rng.uniform(-5, 5, size=draw(st.integers(1, n)))
    else:
        pool = np.array(EDGES[kind])
    block = rng.choice(pool, size=(k, n))
    if draw(st.booleans()):
        block[rng.integers(k)] = pool[0]  # a constant row
    labels = draw(st.sampled_from(["mixed", "class 0", "class 1"]))
    if labels == "mixed":
        y = rng.integers(0, 2, size=n)
    else:
        y = np.full(n, int(labels == "class 1"))
    return block, y.astype(np.int64)


def numpy_scan(block, labels):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forest_mod, "SMALL_SCAN", 0)
        return _scan_split(block, labels)


class TestListScan:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(scan_blocks())
    def test_equals_the_numpy_scan_bit_for_bit(self, data):
        block, labels = data
        # `_GINI` covers 64 rows, so the list scan takes every drawn block.
        row, score, thr, order, m, left1 = _scan_lists(block.tolist(), labels.tolist())
        ref_row, ref_score, ref_thr, ref_order, ref_m, ref_left1 = numpy_scan(block, labels)
        assert (row, m, left1) == (ref_row, ref_m, ref_left1)
        assert _bits(score) == _bits(ref_score) and _bits(thr) == _bits(ref_thr)
        if row < 0:
            assert order is None and ref_order is None
        else:
            assert order.dtype == np.intp
            assert set(order[:m].tolist()) == set(ref_order[:m].tolist())
            assert set(order[m:].tolist()) == set(ref_order[m:].tolist())
        if block.size <= SMALL_SCAN:
            small = _scan_split(block, labels)
            assert small[:3] == (row, score, thr) and small[4:] == (m, left1)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(training_sets(), st.integers(1, 5), st.integers(0, 1000))
    def test_forests_equal_forests_grown_on_the_numpy_scan_alone(self, data, n_trees, seed):
        X, y = data
        config = ForestConfig(n_trees=n_trees, seed=seed)
        forest = fit_forest(X, y, config)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forest_mod, "SMALL_SCAN", 0)
            assert_same_nodes(forest, fit_forest(X, y, config))


@st.composite
def numpy_blocks(draw):
    """(block, labels): 1-9 candidate rows of more than `SMALL_SCAN / k`
    values, so the numpy scan takes them, up to 8 rows past `GINI_ROWS`,
    with ties, constant rows and single-class labels."""
    k = draw(st.sampled_from(range(1, 10)))
    lowest = SMALL_SCAN // k + 1
    n = draw(st.integers(lowest, GINI_ROWS + 8) | st.integers(GINI_ROWS - 8, GINI_ROWS + 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", *EDGES]))
    if kind == "uniform":
        pool = rng.uniform(-5, 5, size=draw(st.integers(1, n)))
    else:
        pool = np.array(EDGES[kind])
    block = rng.choice(pool, size=(k, n))
    if draw(st.booleans()):
        block[rng.integers(k)] = pool[0]  # a constant row
    labels = draw(st.sampled_from(["mixed", "rare", "class 0", "class 1"]))
    if labels == "mixed":
        y = rng.integers(0, 2, size=n)
    elif labels == "rare":
        y = (rng.uniform(size=n) < 0.03).astype(np.int64)
    else:
        y = np.full(n, int(labels == "class 1"))
    return block, y.astype(np.int64)


def arithmetic_scan(block, labels):
    """The numpy scan with every term formed by array arithmetic."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forest_mod, "GINI_ROWS", 0)
        return _scan_split(block, labels)


class TestGiniTable:
    def test_every_entry_is_the_exact_int_expression(self):
        assert _TERMS.dtype == np.float64
        assert _TERMS.shape == (_ROW_START[-1] + GINI_ROWS + 1,)
        assert np.isnan(_TERMS[0])
        terms = _TERMS.tolist()
        for s in range(1, GINI_ROWS + 1):
            start = s * (s + 1) // 2
            assert _ROW_START[s] == start
            row = [s - ((s - o) ** 2 + o**2) / s for o in range(s + 1)]
            assert [_bits(x) for x in terms[start : start + s + 1]] == [_bits(x) for x in row]

    def test_the_list_scans_rows_are_the_tables(self):
        table = _gini_table(SMALL_SCAN)
        assert len(table) == SMALL_SCAN + 1
        for s in range(1, SMALL_SCAN + 1):
            assert table[s] == _TERMS[_ROW_START[s] : _ROW_START[s] + s + 1].tolist()
        assert forest_mod._GINI[1:] == table[1:]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(numpy_blocks())
    def test_the_table_scan_equals_the_arithmetic_and_the_reference(self, data):
        block, labels = data
        assert block.size > SMALL_SCAN
        row, score, thr, order, m, left1 = _scan_split(block, labels)
        arith = arithmetic_scan(block, labels)
        assert (row, m, left1) == (arith[0], arith[4], arith[5])
        assert _bits(score) == _bits(arith[1]) and _bits(thr) == _bits(arith[2])
        ref_row, ref_score, ref_thr = reference_scan_split(block, labels)
        assert row == ref_row
        assert _bits(score) == _bits(ref_score) and _bits(thr) == _bits(ref_thr)
        if row < 0:
            assert order is None and arith[3] is None
            return
        go_left = block[row] <= thr
        assert (m, left1) == (go_left.sum(), labels[go_left].sum())
        assert order.dtype == np.intp
        for got in (order, arith[3]):
            assert set(got[:m].tolist()) == set(np.flatnonzero(go_left).tolist())
            assert set(got[m:].tolist()) == set(np.flatnonzero(~go_left).tolist())

    def test_a_fit_past_the_table_equals_the_arithmetic_fit(self):
        # The roots and the first levels outgrow the table; their
        # descendants read it, unless the bound is 0.
        rng = np.random.default_rng(5)
        n = GINI_ROWS + 200
        X = rng.normal(size=(n, 9))
        X[:, ::3] = np.round(X[:, ::3])  # duplicates, both signs of zero
        y = (X[:, 1] + rng.normal(size=n) > 0).astype(np.int64)
        config = ForestConfig(n_trees=3, seed=2)
        forest = fit_forest(X, y, config)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forest_mod, "GINI_ROWS", 0)
            assert_same_nodes(forest, fit_forest(X, y, config))


@st.composite
def refits(draw):
    """(X, y, row counts): one slot's data and the rows of its fits in turn,
    small, then enough noisy rows that trees pass `CHUNK` impure nodes, then
    small again."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    most = draw(st.integers(6 * CHUNK, 7 * CHUNK))
    X = rng.normal(size=(most, draw(st.integers(1, 9))))
    y = (rng.uniform(size=most) < 0.5).astype(np.int64)
    small = st.integers(1, CHUNK)
    counts = [draw(small), most, *draw(st.lists(small, min_size=1, max_size=3))]
    return X, y, counts


class TestTreeStreams:
    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(refits(), st.integers(1, 3), st.integers(0, 2**40))
    def test_refits_through_one_record_equal_fresh_fits(self, data, n_trees, seed):
        X, y, counts = data
        config = ForestConfig(n_trees=n_trees, seed=seed)
        record = TreeStreams(seed, n_trees)
        for n in counts:
            forest = fit_forest(X[:n], y[:n], config, record)
            assert_same_nodes(forest, fit_forest(X[:n], y[:n], config))
            if n == X.shape[0]:
                # Every tree grew more impure nodes than its first table.
                splits = np.add.reduceat(forest.nodes.feature >= 0, forest.roots)
                assert splits.min() > CHUNK

    def test_a_rejected_bootstrap_draw_refits_alike(self):
        # The bootstrap shape of `test_a_rejected_draw_redraws_the_tree`:
        # about three draws a tree are rejected. Every column is constant,
        # so each tree is a root leaf that counts its bootstrap's classes.
        rows = 3 * 2**16
        y = (np.arange(rows + 8) % 3 == 0).astype(np.int64)
        X = np.zeros((rows + 8, 40))
        config = ForestConfig(n_trees=2, seed=11)
        record = TreeStreams(11, 2)
        for n in (rows, rows - 8, rows + 8):
            forest = fit_forest(X[:n], y[:n], config, record)
            assert_same_nodes(forest, fit_forest(X[:n], y[:n], config))

    def test_a_record_of_another_seed_or_tree_count_is_refused(self):
        X, y = np.arange(6.0).reshape(-1, 1), np.array([0, 1, 0, 1, 0, 1])
        with pytest.raises(ValueError, match="tree streams"):
            fit_forest(X, y, ForestConfig(n_trees=2, seed=3), TreeStreams(4, 2))
        with pytest.raises(ValueError, match="tree streams"):
            fit_forest(X, y, ForestConfig(n_trees=2, seed=3), TreeStreams(3, 3))
