import numpy as np
import pytest

from frugalas.scenario import OK, TIMEOUT, OTHER_FAILURE, RunRecord, Scenario


def build_scenario(runtimes, statuses=None, cutoff=100.0, features=None, scenario_id="FIX"):
    """Scenario from a (n_instances, n_algorithms) runtime matrix.

    statuses defaults to OK everywhere; features defaults to a single feature
    equal to the instance index.
    """
    runtimes = np.asarray(runtimes, dtype=np.float64)
    n_inst, n_alg = runtimes.shape
    instances = [f"i{r}" for r in range(n_inst)]
    algorithms = [f"a{c}" for c in range(n_alg)]
    if statuses is None:
        statuses = [[OK] * n_alg for _ in range(n_inst)]
    if features is None:
        features = np.arange(n_inst, dtype=np.float64).reshape(-1, 1)
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))

    runs = {}
    for r, inst in enumerate(instances):
        for c, algo in enumerate(algorithms):
            runs[(inst, algo)] = RunRecord(inst, algo, float(runtimes[r, c]), statuses[r][c])
    return Scenario(
        id=scenario_id,
        algorithms=algorithms,
        features=[f"f{j}" for j in range(features.shape[1])],
        instances=instances,
        feature_matrix=features,
        runs=runs,
        cutoff=cutoff,
    )


def reference_tree_predict(tree, X):
    """Leaf class of each row of X, walking one tree at a time; rows with
    `feature <= threshold` go left. The forest's own predictions come from
    `forest_votes`, which must equal this walk."""
    idx = np.zeros(X.shape[0], dtype=np.int32)
    while True:
        feat = tree.feature[idx]
        rows = np.nonzero(feat >= 0)[0]
        if rows.size == 0:
            break
        at = idx[rows]
        go_left = X[rows, feat[rows]] <= tree.threshold[at]
        idx[rows] = np.where(go_left, tree.left[at], tree.right[at])
    return tree.leaf_class[idx]


def reference_votes(forest, X):
    """Class-1 tree votes of one forest, one tree walk after another."""
    votes1 = np.zeros(X.shape[0], dtype=np.int64)
    for tree in forest.trees:
        votes1 += reference_tree_predict(tree, X)
    return votes1


def reference_proba(forest, X):
    votes1 = reference_votes(forest, X)
    n = len(forest.trees)
    return np.column_stack([(n - votes1) / n, votes1 / n])


@pytest.fixture
def two_by_two():
    # runtimes [[1,10],[10,1]]: total 22s, VBS 2s, SBS 11s at cutoff 100
    return build_scenario([[1.0, 10.0], [10.0, 1.0]])
