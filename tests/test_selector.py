import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_scenario, reference_proba
from frugalas.forest import (
    DecisionTree,
    ForestConfig,
    RandomForest,
    fit_forest,
    forest_votes,
)
from frugalas.labels import Censored, LabelStore, Solved, pairwise_label, timeout_label
from frugalas.preprocess import ImputerModel, fit_imputer, par10
from frugalas.scenario import OK, TIMEOUT, par1
from frugalas.selector import (
    PairwiseModel,
    SelectorEnsemble,
    TimeoutModel,
    algorithm_pairs,
    evaluate_selector,
    par10_table,
    select_algorithm,
    select_batch,
    train_ensemble,
)


class TestPairwiseLabel:
    def test_both_solved(self):
        assert pairwise_label(Solved(10), Solved(50)) == "a"
        assert pairwise_label(Solved(50), Solved(10)) == "b"

    def test_solved_beats_censored(self):
        assert pairwise_label(Censored(60), Solved(30)) == "b"
        assert pairwise_label(Solved(30), Censored(60)) == "a"

    def test_solved_against_lower_censor_is_undecided(self):
        # censored at 10 says nothing about a runtime above or below 30
        assert pairwise_label(Solved(30), Censored(10)) is None
        assert pairwise_label(Censored(10), Solved(30)) is None

    def test_solved_at_the_censor_level_wins(self):
        assert pairwise_label(Solved(10), Censored(10)) == "a"
        assert pairwise_label(Censored(10), Solved(10)) == "b"

    def test_double_censor_uninformative(self):
        assert pairwise_label(Censored(60), Censored(60)) is None

    def test_exact_tie_uninformative(self):
        assert pairwise_label(Solved(42), Solved(42)) is None

    def test_unlabelled_raises(self):
        with pytest.raises(ValueError):
            pairwise_label(None, Solved(1))

    def test_never_contradicts_full_observations(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            ra, rb = rng.uniform(0, 100, size=2)
            side = pairwise_label(Solved(ra), Solved(rb))
            if ra != rb:
                assert side == ("a" if ra < rb else "b")


def _const_model(label):
    # single-class fit: every tree is one pure leaf, prediction is constant
    return fit_forest(np.array([[0.0]]), np.array([label]), ForestConfig(n_trees=3, seed=0))


def _ensemble(scenario, predictions, timeouts=None):
    """Hand-built ensemble over 1-feature scenarios.

    predictions: {(a, b): 'a'|'b'|None}; timeouts: set of algorithms whose
    predictor always fires, or None to disable timeout models.
    """
    imputer = fit_imputer(scenario, scenario.instances)
    pairwise = []
    for a, b in algorithm_pairs(scenario.algorithms):
        side = predictions.get((a, b))
        model = None if side is None else _const_model(0 if side == "a" else 1)
        pairwise.append(PairwiseModel(pair=(a, b), model=model))
    timeout_models = None
    if timeouts is not None:
        timeout_models = [
            TimeoutModel(a, scenario.cutoff, _const_model(1 if a in timeouts else 0))
            for a in scenario.algorithms
        ]
    return SelectorEnsemble(scenario.algorithms, pairwise, timeout_models, imputer)


@pytest.fixture
def three_algo_scenario():
    return build_scenario(np.ones((4, 3)))


class TestVoting:
    def test_clear_winner(self, three_algo_scenario):
        s = three_algo_scenario
        ens = _ensemble(s, {("a0", "a1"): "a", ("a0", "a2"): "a", ("a1", "a2"): "a"})
        assert select_algorithm(ens, s.feature_row("i0")) == "a0"

    def test_cycle_breaks_by_portfolio_order(self, three_algo_scenario):
        s = three_algo_scenario
        # a0>a1, a1>a2, a2>a0: all tied at one vote
        ens = _ensemble(s, {("a0", "a1"): "a", ("a1", "a2"): "a", ("a0", "a2"): "b"})
        assert select_algorithm(ens, s.feature_row("i0")) == "a0"

    def test_abstaining_pairs(self, three_algo_scenario):
        s = three_algo_scenario
        ens = _ensemble(s, {("a0", "a1"): "b"})  # (a0,a2), (a1,a2) untrained
        assert select_algorithm(ens, s.feature_row("i0")) == "a1"

    def test_timeout_exclusion(self, three_algo_scenario):
        s = three_algo_scenario
        ens = _ensemble(
            s,
            {("a0", "a1"): "a", ("a0", "a2"): "a", ("a1", "a2"): "a"},
            timeouts={"a0"},
        )
        # a0 would win but is excluded; remaining prediction a1>a2
        assert select_algorithm(ens, s.feature_row("i0")) == "a1"

    def test_all_predicted_timeout_falls_back_to_full_vote(self, three_algo_scenario):
        s = three_algo_scenario
        predictions = {("a0", "a1"): "b", ("a0", "a2"): "a", ("a1", "a2"): "a"}
        with_to = _ensemble(s, predictions, timeouts={"a0", "a1", "a2"})
        without = _ensemble(s, predictions, timeouts=None)
        for inst in s.instances:
            row = s.feature_row(inst)
            assert select_algorithm(with_to, row) == select_algorithm(without, row)

    def test_vote_conservation(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n_alg = int(rng.integers(2, 6))
            s = build_scenario(np.ones((3, n_alg)))
            pairs = algorithm_pairs(s.algorithms)
            predictions = {p: rng.choice(["a", "b"]) for p in pairs}
            excluded = {
                a for a in s.algorithms if rng.random() < 0.3
            }
            ens = _ensemble(s, predictions, timeouts=excluded)
            row = s.feature_row("i0")
            candidates = (
                s.algorithms
                if excluded == set(s.algorithms)
                else [a for a in s.algorithms if a not in excluded]
            )
            votes_cast = sum(
                1 for a, b in pairs if a in candidates and b in candidates
            )
            # re-derive the winner's vote count from the constant predictions
            winner = select_algorithm(ens, row)
            assert winner in candidates
            tallies = {a: 0 for a in candidates}
            for (a, b), side in predictions.items():
                if a in tallies and b in tallies:
                    tallies[a if side == "a" else b] += 1
            assert sum(tallies.values()) == votes_cast
            assert tallies[winner] == max(tallies.values())

    def test_total_function(self, three_algo_scenario):
        s = three_algo_scenario
        ens = _ensemble(s, {})  # everything abstains
        assert select_algorithm(ens, s.feature_row("i0")) == "a0"


def preset_forest(tree_classes):
    """Forest over one feature whose tree t predicts tree_classes[t][r] on
    the value r. Each tree is a chain in preorder: node 2j splits at j + 0.5,
    its left child 2j + 1 is the leaf of value j, and 2(n - 1) is the last
    value's leaf."""
    tree_classes = np.asarray(tree_classes, dtype=np.int64)
    k, n = tree_classes.shape
    feature, threshold, left, right, n1 = [], [], [], [], []
    for classes in tree_classes:
        for j in range(n):
            if j < n - 1:
                feature.append(0)
                threshold.append(j + 0.5)
                left.append(2 * j + 1)
                right.append(2 * j + 2)
                n1.append(0)
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            n1.append(int(classes[j]))
    feature = np.array(feature, dtype=np.int32)
    n1 = np.array(n1, dtype=np.int64)
    n0 = np.where(feature >= 0, 0, 1 - n1)
    return RandomForest(
        config=ForestConfig(n_trees=k),
        n_features=1,
        max_features=1,
        nodes=DecisionTree(
            feature=feature,
            threshold=np.array(threshold, dtype=np.float64),
            left=np.array(left, dtype=np.int32),
            right=np.array(right, dtype=np.int32),
            n0=n0,
            n1=n1,
            leaf_class=(n1 > n0).astype(np.int8),
        ),
        roots=np.arange(k, dtype=np.int64) * (2 * n - 1),
        depth=n - 1,
    )


def reference_select_batch(ensemble, raw_rows):
    """The per-row vote loop `select_batch` replaced, on per-tree walks."""
    X = ensemble.imputer.transform(np.atleast_2d(np.asarray(raw_rows, dtype=np.float64)))
    n = X.shape[0]
    pair_votes_for_b = []
    for pm in ensemble.pairwise:
        if pm.model is None:
            pair_votes_for_b.append(None)
        else:
            proba = reference_proba(pm.model, X)
            pair_votes_for_b.append((proba[:, 1] > proba[:, 0]).astype(np.int8))
    timeout_pred = {}
    if ensemble.timeout_models is not None:
        for tm in ensemble.timeout_models:
            if tm.model is not None:
                timeout_pred[tm.algorithm] = reference_proba(tm.model, X)[:, 1] > 0.5

    chosen = []
    for r in range(n):
        excluded = {a for a, pred in timeout_pred.items() if pred[r]}
        if excluded == set(ensemble.algorithms):
            excluded = set()
        candidates = [a for a in ensemble.algorithms if a not in excluded]
        votes = {a: 0 for a in candidates}
        for pm, labels in zip(ensemble.pairwise, pair_votes_for_b):
            a, b = pm.pair
            if labels is None or a not in votes or b not in votes:
                continue
            votes[b if labels[r] == 1 else a] += 1
        chosen.append(max(candidates, key=lambda a: (votes[a], -candidates.index(a))))
    return chosen


def _maybe_forest(draw, n):
    """None (untrained) or a preset forest of 1-4 trees on n rows."""
    if draw(st.booleans()) and draw(st.booleans()):
        return None
    k = draw(st.integers(1, 4))
    classes = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                            min_size=k, max_size=k))
    return preset_forest(classes)


class TestSelectBatch:
    def test_preset_forest_predicts_its_classes(self):
        classes = [[1, 0, 1, 1], [0, 0, 1, 0], [1, 1, 1, 0]]
        forest = preset_forest(classes)
        rows = np.arange(4.0).reshape(-1, 1)
        assert forest_votes([forest], rows)[0].tolist() == [2, 1, 3, 1]
        assert reference_proba(forest, rows)[:, 1].tolist() == [2 / 3, 1 / 3, 1.0, 1 / 3]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_per_row_loop(self, data):
        draw = data.draw
        m = draw(st.integers(2, 5))
        n = draw(st.integers(1, 6))
        algorithms = [f"a{k}" for k in range(m)]
        pairwise = [PairwiseModel(pair, _maybe_forest(draw, n))
                    for pair in algorithm_pairs(algorithms)]
        timeout_models = None
        if draw(st.booleans()):
            timeout_models = [TimeoutModel(a, 1.0, _maybe_forest(draw, n)) for a in algorithms]
        imputer = ImputerModel(["f0"], np.array([0]), np.array([0.0]))
        ensemble = SelectorEnsemble(algorithms, pairwise, timeout_models, imputer)
        rows = np.arange(float(n)).reshape(-1, 1)
        assert select_batch(ensemble, rows) == reference_select_batch(ensemble, rows)

    def test_the_cases_the_property_needs_occur(self):
        # every timeout model fires on row 0 and none on row 1; pair (a0, a1)
        # is tied 1-1 (a0 wins), (a0, a2) abstains
        fire = preset_forest([[1, 0]])
        ensemble = SelectorEnsemble(
            ["a0", "a1", "a2"],
            [PairwiseModel(("a0", "a1"), preset_forest([[1, 1], [0, 0]])),
             PairwiseModel(("a0", "a2"), None),
             PairwiseModel(("a1", "a2"), preset_forest([[1, 1]]))],
            [TimeoutModel(a, 1.0, fire) for a in ["a0", "a1", "a2"]],
            ImputerModel(["f0"], np.array([0]), np.array([0.0])),
        )
        rows = np.array([[0.0], [1.0]])
        assert select_batch(ensemble, rows) == reference_select_batch(ensemble, rows)
        assert select_batch(ensemble, rows) == ["a0", "a0"]


class TestTrainEnsemble:
    def _store_full(self, scenario):
        store = LabelStore(scenario.instances, scenario.algorithms)
        for (inst, algo), rec in scenario.runs.items():
            if rec.status == OK:
                store.record(inst, algo, Solved(rec.runtime))
            else:
                store.record(inst, algo, Censored(scenario.cutoff))
        return store

    def test_pair_count(self):
        s = build_scenario(np.random.default_rng(2).uniform(1, 50, size=(12, 3)))
        store = self._store_full(s)
        imputer = fit_imputer(s, s.instances)
        ens = train_ensemble(s, s.instances, store, imputer, ForestConfig(n_trees=5, seed=0))
        assert len(ens.pairwise) == 3
        assert ens.timeout_models is None

    def test_timeout_models_present_when_enabled(self):
        s = build_scenario(np.random.default_rng(3).uniform(1, 50, size=(12, 3)))
        store = self._store_full(s)
        imputer = fit_imputer(s, s.instances)
        ens = train_ensemble(
            s, s.instances, store, imputer, ForestConfig(n_trees=5, seed=0),
            timeout_enabled=True,
        )
        assert len(ens.timeout_models) == 3
        assert all(tm.trained_at == s.cutoff for tm in ens.timeout_models)

    def test_unchanged_labels_reuse_every_forest(self):
        s = build_scenario(np.random.default_rng(5).uniform(1, 50, size=(12, 3)))
        store = self._store_full(s)
        imputer = fit_imputer(s, s.instances)
        cfg = ForestConfig(n_trees=5, seed=0)
        first = train_ensemble(s, s.instances, store, imputer, cfg, timeout_enabled=True)
        again = train_ensemble(
            s, s.instances, store, imputer, cfg, timeout_enabled=True, previous=first
        )
        pairs = zip(again.pairwise + again.timeout_models, first.pairwise + first.timeout_models)
        assert all(new.model is old.model for new, old in pairs)

    def test_previous_from_other_settings_is_refit(self):
        s = build_scenario(np.random.default_rng(5).uniform(1, 50, size=(12, 3)))
        store = self._store_full(s)
        imputer = fit_imputer(s, s.instances)
        cfg = ForestConfig(n_trees=5, seed=0)
        first = train_ensemble(s, s.instances, store, imputer, cfg)
        for kwargs in (
            dict(forest_config=ForestConfig(n_trees=5, seed=1)),
            dict(imputer=fit_imputer(s, s.instances)),
            dict(train_instances=s.instances[::-1]),
        ):
            args = dict(
                scenario=s, train_instances=s.instances, store=store, imputer=imputer,
                forest_config=cfg,
            ) | kwargs
            other = train_ensemble(**args, previous=first)
            assert all(new.model is not old.model for new, old in zip(other.pairwise, first.pairwise))

    def test_no_labels_raises(self):
        s = build_scenario(np.ones((4, 2)))
        store = LabelStore(s.instances, s.algorithms)
        imputer = fit_imputer(s, s.instances)
        with pytest.raises(ValueError):
            train_ensemble(s, s.instances, store, imputer, ForestConfig(n_trees=5, seed=0))

    def test_timeout_training_labels(self):
        assert timeout_label(Solved(10), 60) == 0
        assert timeout_label(Solved(80), 60) == 1
        assert timeout_label(Censored(60), 60) == 1
        assert timeout_label(Censored(30), 60) is None


class TestEvaluate:
    def test_perfect_selector_equals_vbs(self):
        rng = np.random.default_rng(4)
        runtimes = rng.uniform(1, 50, size=(6, 2))
        s = build_scenario(runtimes)
        # constant prediction matching the global best column is only possible
        # when one algorithm dominates; make it so
        runtimes[:, 0] = runtimes[:, 1] + 1.0
        s = build_scenario(runtimes)
        ens = _ensemble(s, {("a0", "a1"): "b"})
        vbs = sum(
            min(par1(s.runs[(i, a)], s.cutoff) for a in s.algorithms)
            for i in s.instances
        )
        assert evaluate_selector(ens, s.instances, s) == pytest.approx(vbs)

    def test_constant_selector_equals_column_par10(self):
        s = build_scenario(
            [[5.0, 100.0], [7.0, 100.0]],
            statuses=[[OK, TIMEOUT], [OK, TIMEOUT]],
        )
        ens = _ensemble(s, {("a0", "a1"): "b"})  # always picks a1
        assert evaluate_selector(ens, s.instances, s) == 2 * 10 * s.cutoff

    def test_hand_summed_fixture(self):
        s = build_scenario(
            [[10.0, 3.0], [100.0, 8.0], [2.0, 9.0]],
            statuses=[[OK, OK], [TIMEOUT, OK], [OK, OK]],
        )
        ens = _ensemble(s, {("a0", "a1"): "b"})  # picks a1 everywhere
        assert evaluate_selector(ens, s.instances, s) == 3.0 + 8.0 + 9.0

    def test_total_is_a_left_to_right_sum(self):
        # ten runs of 0.1 s: 0.1 + 0.1 + ... gives 0.9999999999999999, while
        # np.sum (pairwise) and math.fsum give 1.0
        s = build_scenario(np.column_stack([np.full(10, 0.1), np.full(10, 5.0)]))
        ens = _ensemble(s, {("a0", "a1"): "a"})  # picks a0 everywhere
        total = evaluate_selector(ens, s.instances, s)
        assert type(total) is float
        assert repr(total) == "0.9999999999999999"
        assert total != float(np.sum(np.full(10, 0.1)))

    def test_par10_table_is_built_on_first_use(self):
        s = build_scenario(
            [[10.0, 3.0], [100.0, 8.0], [2.0, 9.0]],
            statuses=[[OK, OK], [TIMEOUT, OK], [OK, OK]],
        )
        assert s.par10_cache is None
        table = par10_table(s)
        assert table.shape == (3, 2) and par10_table(s) is table
        for r, inst in enumerate(s.instances):
            for c, algo in enumerate(s.algorithms):
                rec = s.run(inst, algo)
                assert table[r, c] == par10(rec.runtime, rec.status, s.cutoff)
