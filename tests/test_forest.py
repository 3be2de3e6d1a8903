import struct
import sys

import numpy as np
import pytest

from conftest import reference_proba, reference_votes
from frugalas.forest import (
    ForestConfig,
    dump_trees,
    _scan_split,
    fit_forest,
    forest_votes,
)


class TestFit:
    def test_separable_1d(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        f = fit_forest(X, y, ForestConfig(n_trees=10, seed=0))
        assert np.array_equal(f.predict_label(X), y)

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

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            fit_forest(np.array([[np.nan]]), np.array([0]))


class TestPredict:
    def test_label_is_argmax_and_tie_breaks_to_class0(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(60, 3))
        y = rng.integers(0, 2, size=60)
        f = fit_forest(X, y, ForestConfig(n_trees=30, seed=2))
        probe = rng.uniform(size=(40, 3))
        proba = f.predict_proba(probe)
        labels = f.predict_label(probe)
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
        accuracy = (f.predict_label(X[test]) == y[test]).mean()
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
    if thr >= values[j + 1]:
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
        cross_row_ties = no_split = 0
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

            row, score, thr = _scan_split(block, labels)
            ref_row, ref_score, ref_thr = reference_block_scan(block, labels)
            assert row == ref_row
            assert _bits(score) == _bits(ref_score)
            assert _bits(thr) == _bits(ref_thr)
            if row >= 0:
                scores = [reference_block_scan(block[r : r + 1], labels)[1] for r in range(k)]
                cross_row_ties += scores.count(score) > 1
            else:
                no_split += 1
        assert cross_row_ties > 20 and no_split > 5
