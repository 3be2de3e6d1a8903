import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_scenario, reference_proba
from frugalas.forest import (
    DecisionTree,
    ForestConfig,
    RandomForest,
    dump_trees,
    fit_forest,
    forest_votes,
)
from frugalas.labels import Censored, LabelStore, Solved, pairwise_label, timeout_label
from frugalas.loop import fold_memo
from frugalas.preprocess import ImputerModel, fit_imputer
from frugalas.scenario import OK, TIMEOUT, par1, par10
from frugalas.synthetic import make_synthetic_scenario
import frugalas.selector as selector_mod
from frugalas import harness
from frugalas.selector import (
    SelectorEnsemble,
    algorithm_pairs,
    evaluate_selector,
    select_batch,
    slot_votes,
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
    forests = []
    for pair in algorithm_pairs(scenario.algorithms):
        side = predictions.get(pair)
        forests.append(None if side is None else _const_model(0 if side == "a" else 1))
    timeout_at = None
    if timeouts is not None:
        timeout_at = scenario.cutoff
        forests += [_const_model(1 if a in timeouts else 0) for a in scenario.algorithms]
    return SelectorEnsemble(scenario.algorithms, forests, imputer, timeout_at)


@pytest.fixture
def three_algo_scenario():
    return build_scenario(np.ones((4, 3)))


class TestVoting:
    def test_clear_winner(self, three_algo_scenario):
        s = three_algo_scenario
        ens = _ensemble(s, {("a0", "a1"): "a", ("a0", "a2"): "a", ("a1", "a2"): "a"})
        assert select_batch(ens, [s.feature_matrix[s.instance_index("i0")]])[0] == "a0"

    def test_cycle_breaks_by_portfolio_order(self, three_algo_scenario):
        s = three_algo_scenario
        # a0>a1, a1>a2, a2>a0: all tied at one vote
        ens = _ensemble(s, {("a0", "a1"): "a", ("a1", "a2"): "a", ("a0", "a2"): "b"})
        assert select_batch(ens, [s.feature_matrix[s.instance_index("i0")]])[0] == "a0"

    def test_abstaining_pairs(self, three_algo_scenario):
        s = three_algo_scenario
        ens = _ensemble(s, {("a0", "a1"): "b"})  # (a0,a2), (a1,a2) untrained
        assert select_batch(ens, [s.feature_matrix[s.instance_index("i0")]])[0] == "a1"

    def test_timeout_exclusion(self, three_algo_scenario):
        s = three_algo_scenario
        ens = _ensemble(
            s,
            {("a0", "a1"): "a", ("a0", "a2"): "a", ("a1", "a2"): "a"},
            timeouts={"a0"},
        )
        # a0 would win but is excluded; remaining prediction a1>a2
        assert select_batch(ens, [s.feature_matrix[s.instance_index("i0")]])[0] == "a1"

    def test_all_predicted_timeout_falls_back_to_full_vote(self, three_algo_scenario):
        s = three_algo_scenario
        predictions = {("a0", "a1"): "b", ("a0", "a2"): "a", ("a1", "a2"): "a"}
        with_to = _ensemble(s, predictions, timeouts={"a0", "a1", "a2"})
        without = _ensemble(s, predictions, timeouts=None)
        for inst in s.instances:
            row = s.feature_matrix[s.instance_index(inst)]
            assert select_batch(with_to, [row])[0] == select_batch(without, [row])[0]

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
            row = s.feature_matrix[s.instance_index("i0")]
            candidates = (
                s.algorithms
                if excluded == set(s.algorithms)
                else [a for a in s.algorithms if a not in excluded]
            )
            votes_cast = sum(
                1 for a, b in pairs if a in candidates and b in candidates
            )
            # re-derive the winner's vote count from the constant predictions
            winner = select_batch(ens, [row])[0]
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
        assert select_batch(ens, [s.feature_matrix[s.instance_index("i0")]])[0] == "a0"


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
        n_features=1,
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
    # The slot layout: the pairs in `algorithm_pairs` order, then one timeout
    # slot per algorithm when `timeout_at` is set.
    pairs = algorithm_pairs(ensemble.algorithms)
    pair_votes_for_b = []
    for forest in ensemble.forests[: len(pairs)]:
        if forest is None:
            pair_votes_for_b.append(None)
        else:
            proba = reference_proba(forest, X)
            pair_votes_for_b.append((proba[:, 1] > proba[:, 0]).astype(np.int8))
    timeout_pred = {}
    if ensemble.timeout_at is not None:
        for algorithm, forest in zip(ensemble.algorithms, ensemble.forests[len(pairs):]):
            if forest is not None:
                timeout_pred[algorithm] = reference_proba(forest, X)[:, 1] > 0.5

    chosen = []
    for r in range(n):
        excluded = {a for a, pred in timeout_pred.items() if pred[r]}
        if excluded == set(ensemble.algorithms):
            excluded = set()
        candidates = [a for a in ensemble.algorithms if a not in excluded]
        votes = {a: 0 for a in candidates}
        for (a, b), labels in zip(pairs, pair_votes_for_b):
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
        forests = [_maybe_forest(draw, n) for _ in algorithm_pairs(algorithms)]
        timeout_at = None
        if draw(st.booleans()):
            timeout_at = 1.0
            forests += [_maybe_forest(draw, n) for _ in algorithms]
        imputer = ImputerModel(np.array([0]), np.array([0.0]))
        ensemble = SelectorEnsemble(algorithms, forests, imputer, timeout_at)
        rows = np.arange(float(n)).reshape(-1, 1)
        assert select_batch(ensemble, rows) == reference_select_batch(ensemble, rows)

    def test_the_cases_the_property_needs_occur(self):
        # every timeout model fires on row 0 and none on row 1; pair (a0, a1)
        # is tied 1-1 (a0 wins), (a0, a2) abstains
        fire = preset_forest([[1, 0]])
        ensemble = SelectorEnsemble(
            ["a0", "a1", "a2"],
            # pairs (a0, a1), (a0, a2), (a1, a2), then a timeout slot per algorithm
            [preset_forest([[1, 1], [0, 0]]), None, preset_forest([[1, 1]]), fire, fire, fire],
            ImputerModel(np.array([0]), np.array([0.0])),
            timeout_at=1.0,
        )
        rows = np.array([[0.0], [1.0]])
        assert select_batch(ensemble, rows) == reference_select_batch(ensemble, rows)
        assert select_batch(ensemble, rows) == ["a0", "a0"]


class TestVoteRule:
    def test_integer_rule_equals_the_float_rule(self):
        # Every forest of k <= 4096 trees with v class-1 votes: `_vote`'s
        # `2 * v > k` equals `v / k > (k - v) / k` (pair winner) and
        # `v / k > 0.5` (timeout exclusion), and the query's
        # `max(k - v, v) / k` equals `max((k - v) / k, v / k)` to the bit.
        for k in range(1, 4097):
            v = np.arange(k + 1)
            rule = 2 * v > k
            assert np.array_equal(rule, v / k > (k - v) / k), k
            assert np.array_equal(rule, v / k > 0.5), k
            confidence = np.maximum(k - v, v) / k
            assert confidence.tobytes() == np.maximum((k - v) / k, v / k).tobytes(), k


class TestSlotLayout:
    @pytest.mark.parametrize(
        "n_forests, timeout_at",
        [(2, None), (4, None), (3, 1.0), (5, 1.0)],
        ids=["one-pair-short", "one-extra", "timeout-slots-missing", "one-timeout-short"],
    )
    def test_wrong_slot_count_raises(self, n_forests, timeout_at):
        # three algorithms: three pair slots, plus three timeout slots
        imputer = ImputerModel(np.array([0]), np.array([0.0]))
        with pytest.raises(ValueError, match="forest slots"):
            SelectorEnsemble(["a0", "a1", "a2"], [None] * n_forests, imputer, timeout_at)

    def test_without_timeouts_keeps_the_pair_slots(self, three_algo_scenario):
        s = three_algo_scenario
        predictions = {("a0", "a1"): "b", ("a0", "a2"): "a"}
        ens = _ensemble(s, predictions, timeouts={"a1"})
        plain = ens.without_timeouts()
        assert plain.timeout_at is None
        assert len(plain.forests) == 3
        assert all(a is b for a, b in zip(plain.forests, ens.forests))
        row = s.feature_matrix[s.instance_index("i0")]
        assert select_batch(plain, [row])[0] == select_batch(_ensemble(s, predictions), [row])[0]


def _memo_of(scenario):
    """A fresh 5-tree memo of every instance of `scenario`, in order: the
    rows of a `LabelStore` of the whole scenario."""
    return fold_memo(scenario, scenario.instances, ForestConfig(n_trees=5, seed=0))


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
        memo = _memo_of(s)
        ens = train_ensemble(memo, store.solved, store.censored)
        assert len(ens.forests) == 3
        assert ens.timeout_at is None
        assert sorted(memo.current) == [0, 1, 2]  # each slot's current forest

    def test_timeout_models_present_when_enabled(self):
        s = build_scenario(np.random.default_rng(3).uniform(1, 50, size=(12, 3)))
        store = self._store_full(s)
        memo = _memo_of(s)
        ens = train_ensemble(memo, store.solved, store.censored, timeout_at=s.cutoff)
        assert len(ens.forests) == 3 + 3  # the pairs, then one timeout slot each
        assert ens.timeout_at == s.cutoff
        assert sorted(memo.current) == list(range(6))

    def test_unchanged_labels_reuse_every_forest(self, monkeypatch):
        s = build_scenario(np.random.default_rng(5).uniform(1, 50, size=(12, 3)))
        store = self._store_full(s)
        block = store.solved, store.censored
        # With no node budget the memo stores no forest: each slot's current
        # forest gives every one.
        monkeypatch.setattr(selector_mod, "MEMO_NODES", 0)
        memo = _memo_of(s)
        first = train_ensemble(memo, *block, timeout_at=s.cutoff)
        assert memo.forests == {}
        again = train_ensemble(memo, *block, timeout_at=s.cutoff)
        assert all(new is old for new, old in zip(again.forests, first.forests, strict=True))

    def test_refits_read_the_memos_tree_streams(self, monkeypatch):
        s = build_scenario(np.random.default_rng(5).uniform(1, 50, size=(12, 3)))
        store = self._store_full(s)
        memo = _memo_of(s)
        solved, censored = store.solved, store.censored
        first = train_ensemble(memo, solved, censored)
        streams = dict(memo.streams)
        assert sorted(streams) == [0, 1, 2]
        read = []
        fit = selector_mod.fit_forest
        monkeypatch.setattr(
            selector_mod, "fit_forest", lambda *args: read.append(args[3]) or fit(*args)
        )
        solved[0], censored[0] = np.nan, np.nan  # every slot loses a row
        again = train_ensemble(memo, solved, censored)
        assert all(new is not old for new, old in zip(again.forests, first.forests))
        assert read == [streams[slot] for slot in range(3)]
        assert memo.streams == streams
        fresh = train_ensemble(_memo_of(s), solved, censored)
        assert [dump_trees(f) for f in again.forests] == [dump_trees(f) for f in fresh.forests]

    def test_no_labels_abstains(self):
        s = build_scenario(np.ones((4, 2)))
        store = LabelStore(s.instances, s.algorithms)
        ens = train_ensemble(_memo_of(s), store.solved, store.censored, timeout_at=s.cutoff)
        assert len(ens.forests) == 1 + 2
        assert all(f is None for f in ens.forests)

    def test_timeout_training_labels(self):
        assert timeout_label(Solved(10), 60) == 0
        assert timeout_label(Solved(80), 60) == 1
        assert timeout_label(Censored(60), 60) == 1
        assert timeout_label(Censored(30), 60) is None


class TestForestMemo:
    def _block(self):
        s = build_scenario(np.random.default_rng(5).uniform(1, 50, size=(12, 3)))
        store = TestTrainEnsemble()._store_full(s)
        return s, _memo_of(s), store.solved, store.censored

    def test_a_hit_returns_the_stored_forest(self, monkeypatch):
        s, memo, solved, censored = self._block()
        first = train_ensemble(memo, solved, censored, s.cutoff)
        assert len(memo.forests) == 6
        assert memo.nodes == sum(f.nodes.feature.shape[0] for f in first.forests)
        fits = []
        fit = selector_mod.fit_forest
        monkeypatch.setattr(
            selector_mod, "fit_forest", lambda *args: fits.append(args) or fit(*args)
        )
        # Unchanged labels: every slot takes its current forest, and nothing
        # refits.
        again = train_ensemble(memo, solved, censored, s.cutoff)
        assert fits == []
        assert all(new is old for new, old in zip(again.forests, first.forests, strict=True))
        fresh = train_ensemble(_memo_of(s), solved, censored, s.cutoff)
        assert [dump_trees(f) for f in again.forests] == [dump_trees(f) for f in fresh.forests]
        # A pair ensemble of the same algorithms hits on the pair slots, and
        # a changed label vector misses and refits on the memo's streams.
        del fits[:]
        plain = train_ensemble(memo, solved, censored)
        assert all(new is old for new, old in zip(plain.forests, first.forests[:3], strict=True))
        assert fits == []
        streams = dict(memo.streams)
        row = solved[0].copy(), censored[0].copy()
        solved[0], censored[0] = np.nan, np.nan
        changed = train_ensemble(memo, solved, censored)
        assert len(fits) == 3 and len(memo.forests) == 9
        assert [args[3] for args in fits] == [streams[p] for p in range(3)]
        assert all(memo.current[p][1] is changed.forests[p] for p in range(3))
        # Labels that come back take the stored forests, not the current ones.
        solved[0], censored[0] = row
        back = train_ensemble(memo, solved, censored)
        assert len(fits) == 3
        assert all(new is old for new, old in zip(back.forests, first.forests[:3], strict=True))

    def test_a_memo_serves_one_portfolio(self):
        # Slot indices name the memo's pairs and timeout models. Labels of
        # the first two algorithms with timeout models would take slots 1
        # and 2, which are pair slots of all three, and seed their tree
        # streams with the timeout slots' paths.
        s = make_synthetic_scenario(60, 3, seed=0)
        store = TestTrainEnsemble()._store_full(s)
        memo = _memo_of(s)
        with pytest.raises(ValueError, match="portfolio has 3 algorithms"):
            train_ensemble(memo, store.solved[:, :2], store.censored[:, :2], s.cutoff)
        assert memo.streams == {} and memo.forests == {}
        ens = train_ensemble(memo, store.solved, store.censored, s.cutoff)
        fresh = train_ensemble(_memo_of(s), store.solved, store.censored, s.cutoff)
        assert [dump_trees(f) for f in ens.forests] == [dump_trees(f) for f in fresh.forests]

    def test_the_oldest_entries_go_past_the_node_budget(self, monkeypatch):
        s, memo, solved, censored = self._block()
        ens = train_ensemble(_memo_of(s), solved, censored, s.cutoff)
        sizes = [f.nodes.feature.shape[0] for f in ens.forests]
        monkeypatch.setattr(selector_mod, "MEMO_NODES", sizes[-2] + sizes[-1])
        for slot, forest in enumerate(ens.forests):
            memo.add((slot, b""), forest)
        assert list(memo.forests) == [(4, b""), (5, b"")]
        assert memo.nodes == sizes[-2] + sizes[-1]

    def _grid(self, out_dir):
        spec = harness.ExperimentSpec(
            build_scenario(np.random.default_rng(7).uniform(1, 50, size=(40, 3))), out_dir,
            configurations=harness.FRUGAL_CONFIGS + harness.PASSIVE_CONFIGS,
            folds=[0], seeds=[0], n_trees=3,
        )
        harness.run_grid(spec)
        assert "_unit" not in vars(spec)
        return {p.relative_to(out_dir): p.read_bytes() for p in sorted(out_dir.rglob("*.csv"))}

    def test_a_grid_with_no_node_budget_fits_what_it_fits_without_a_memo(
        self, tmp_path, monkeypatch
    ):
        fits = []
        fit = selector_mod.fit_forest
        monkeypatch.setattr(
            selector_mod, "fit_forest", lambda *args: fits.append(args) or fit(*args)
        )
        shared = self._grid(tmp_path / "shared")
        n_shared = len(fits)
        # With no node budget no memo stores a forest, so a slot reuses only
        # its current forest, the one its loop's last retrain got: one memo
        # per loop and baseline fits what they fit without any memo, and on
        # this grid so does the unit's one memo.
        monkeypatch.setattr(selector_mod, "MEMO_NODES", 0)
        with monkeypatch.context() as m:
            m.setattr(harness, "fold_memo", lambda *args: None)
            del fits[:]
            assert self._grid(tmp_path / "none") == shared
            n_none = len(fits)
        del fits[:]
        assert self._grid(tmp_path / "budget0") == shared
        assert len(fits) == n_none > n_shared


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

    def test_split_totals_match_one_evaluation_per_part(self):
        # one vote matrix over both parts; each part summed left to right,
        # to the bit, as its own evaluation sums it
        s = build_scenario(np.column_stack([np.full(10, 0.1), np.full(10, 5.0)]))
        ens = _ensemble(s, {("a0", "a1"): "a"}, timeouts={"a1"})
        votes = slot_votes(ens, ens.imputer.transform(s.feature_matrix))
        first, second = evaluate_selector(ens, s.instances, s, votes, split=4)
        assert first == evaluate_selector(ens, s.instances[:4], s)
        assert second == evaluate_selector(ens, s.instances[4:], s)
        assert repr(second) == repr(0.1 + 0.1 + 0.1 + 0.1 + 0.1 + 0.1)
        assert evaluate_selector(ens, s.instances, s, votes) == evaluate_selector(ens, s.instances, s)

    def test_votes_must_index_the_scenarios_portfolio(self):
        s = build_scenario([[1.0, 9.0], [2.0, 9.0]])
        ens = _ensemble(s, {("a0", "a1"): "a"})
        votes = slot_votes(ens, ens.imputer.transform(s.feature_matrix))
        swapped = SelectorEnsemble(["a1", "a0"], ens.forests, ens.imputer)
        assert evaluate_selector(swapped, s.instances, s) == 18.0  # by name, without votes
        with pytest.raises(ValueError, match="portfolio"):
            evaluate_selector(swapped, s.instances, s, votes)

    def test_par10_table_is_built_on_first_use(self):
        s = build_scenario(
            [[10.0, 3.0], [100.0, 8.0], [2.0, 9.0]],
            statuses=[[OK, OK], [TIMEOUT, OK], [OK, OK]],
        )
        assert "par10" not in vars(s)
        table = s.par10
        assert table.shape == (3, 2) and s.par10 is table
        assert not table.flags.writeable
        for r, inst in enumerate(s.instances):
            for c, algo in enumerate(s.algorithms):
                rec = s.run(inst, algo)
                assert table[r, c] == par10(rec.runtime, rec.status, s.cutoff)
