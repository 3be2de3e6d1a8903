from itertools import compress, product

import numpy as np
import pytest

import frugalas.loop as loop_mod
import frugalas.selector as selector_mod
from conftest import (
    build_scenario,
    entropy_score,
    least_confidence_score,
    margin_score,
    observation,
    reference_proba,
    training_block,
)
from frugalas.forest import ForestConfig, dump_trees, fit_forest, forest_votes
from frugalas.harness import ExperimentSpec
from frugalas.labels import (
    Censored,
    LabelStore,
    Solved,
    pair_classes,
    pairwise_label,
    timeout_classes,
)
from frugalas.loop import (
    CostLedger,
    DynamicTimeoutController,
    FrugalLoop,
    LedgerEntry,
    LoopConfig,
    VoteCache,
    fold_memo,
)
from frugalas.preprocess import FoldSplit, ImputerModel, make_splits
from frugalas.scenario import OK, OTHER_FAILURE as OTHER, TIMEOUT
from frugalas.selector import (
    MEMO_NODES,
    ForestMemo,
    SelectorEnsemble,
    evaluate_selector,
    pair_columns,
    train_ensemble,
)
from frugalas.synthetic import make_synthetic_scenario


class TestUncertaintyScores:
    def test_rankings_agree(self):
        # all three scores are strictly decreasing in the top posterior, so
        # sorting candidates by any of them yields the same order
        rng = np.random.default_rng(0)
        for _ in range(50):
            p_max = rng.uniform(0.5, 1.0, size=1000)
            by_lc = np.argsort(-least_confidence_score(p_max), kind="stable")
            by_margin = np.argsort(-margin_score(p_max), kind="stable")
            by_entropy = np.argsort(-entropy_score(p_max), kind="stable")
            assert np.array_equal(by_lc, by_margin)
            assert np.array_equal(by_lc, by_entropy)

    def test_extremes(self):
        assert least_confidence_score(1.0) == 0.0
        assert least_confidence_score(0.5) == 0.5
        assert margin_score(1.0) == -1.0
        assert margin_score(0.5) == 0.0
        assert entropy_score(1.0) == 0.0
        assert entropy_score(0.5) == 1.0


class TestController:
    def test_plateau_triggers_one_doubling(self):
        c = DynamicTimeoutController(initial=10.0, cap=1000.0)
        assert not c.observe(1000.0)
        assert not c.observe(999.0)
        # window [1000, 999, 998.5]: relative improvement 0.15% < 1%
        assert c.observe(998.5)
        assert c.current == 20.0
        assert c.history == []  # cleared; no immediate second trigger

    def test_improvement_suppresses_growth(self):
        c = DynamicTimeoutController(initial=10.0, cap=1000.0)
        for v in (1000.0, 800.0, 600.0):
            assert not c.observe(v)
        assert c.current == 10.0

    def test_growth_clamped_to_cap(self):
        c = DynamicTimeoutController(initial=30.0, cap=50.0)
        for v in (5.0, 5.0, 5.0):
            c.observe(v)
        assert c.current == 50.0

    def test_noop_at_cap(self):
        c = DynamicTimeoutController(initial=50.0, cap=50.0)
        for v in (5.0, 5.0, 5.0, 5.0):
            assert not c.observe(v)
        assert c.current == 50.0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            DynamicTimeoutController(initial=60.0, cap=50.0)
        with pytest.raises(ValueError):
            DynamicTimeoutController(initial=0.0, cap=50.0)


def replay(scenario, timeout, instance="i0", algorithm="a0"):
    """The one ledger entry of running one cell at `timeout` on a fresh store."""
    ledger = CostLedger(scenario, LabelStore(scenario.instances, scenario.algorithms))
    ledger.run(3, instance, [algorithm], timeout)
    (entry,) = ledger.entries
    assert ledger.total == entry.charged
    assert observation(ledger.store, instance, algorithm) == entry.state
    return entry.state, entry.charged


class TestRunOracle:
    """`CostLedger.run` replays a recorded run as if executing the solver
    with a timeout."""

    def test_solved_within_timeout(self):
        s = build_scenario([[30.0]])
        obs, charged = replay(s, 60.0)
        assert obs == Solved(30.0) and charged == 30.0

    def test_solvable_but_over_timeout(self):
        s = build_scenario([[90.0]])
        obs, charged = replay(s, 60.0)
        assert obs == Censored(60.0) and charged == 60.0

    def test_recorded_timeout(self):
        s = build_scenario([[100.0]], statuses=[[TIMEOUT]])
        obs, charged = replay(s, 60.0)
        assert obs == Censored(60.0) and charged == 60.0

    def test_early_failure_charges_only_recorded_time(self):
        s = build_scenario([[10.0]], statuses=[[OTHER]])
        obs, charged = replay(s, 60.0)
        assert obs == Censored(60.0) and charged == 10.0

    def test_exact_boundary_solves(self):
        s = build_scenario([[60.0]])
        obs, charged = replay(s, 60.0)
        assert obs == Solved(60.0) and charged == 60.0

    def test_entries_follow_the_algorithms_and_skip_final_sides(self):
        # a0 solves, a1 is censored at 60 and a2 fails early; a second pass at
        # 60 runs nothing, and a pass at 100 reruns only the censored a1
        s = build_scenario([[30.0, 90.0, 10.0]], statuses=[[OK, OK, OTHER]])
        ledger = CostLedger(s, LabelStore(s.instances, s.algorithms))
        ledger.run(1, "i0", ["a0", "a1", "a2"], 60.0)
        ledger.run(2, "i0", ["a2", "a1", "a0"], 60.0)
        ledger.run(3, "i0", ["a0", "a1"], 100.0)
        assert ledger.entries == [
            LedgerEntry(1, "i0", "a0", 30.0, Solved(30.0)),
            LedgerEntry(1, "i0", "a1", 60.0, Censored(60.0)),
            LedgerEntry(1, "i0", "a2", 10.0, Censored(60.0)),
            LedgerEntry(3, "i0", "a1", 90.0, Solved(90.0)),
        ]
        assert ledger.total == 30.0 + 60.0 + 10.0 + 90.0


def make_loop(n_train=8, n_algorithms=2, seed=0, given_memo=False, **cfg_kwargs):
    """A loop on a small random scenario; with `given_memo`, on a memo made
    for it, which stores forests, rather than on its own, which does not."""
    rng = np.random.default_rng(97)
    n = n_train + 4
    runtimes = rng.uniform(1, 50, size=(n, n_algorithms))
    features = rng.uniform(size=(n, 2))
    s = build_scenario(runtimes, features=features)
    fold = FoldSplit(train=s.instances[:n_train], validation=s.instances[n_train : n_train + 2])
    test = s.instances[n_train + 2 :]
    cfg_kwargs.setdefault("forest", ForestConfig(n_trees=5, seed=seed))
    cfg = LoopConfig(seed=seed, **cfg_kwargs)
    memo = fold_memo(s, fold.train, cfg.forest) if given_memo else None
    return FrugalLoop(s, fold, test, cfg, memo=memo), s


class TestInitialPhase:
    @pytest.mark.parametrize(
        "batch_frac, n_train, batch",
        [(0.25, 10, 3), (0.01, 8, 1), (0.07, 100, 7)],
    )
    def test_batch_is_the_ceiling_of_the_written_fraction(self, batch_frac, n_train, batch):
        # 0.07 * 100 is 7.000000000000001 in floats; the batch is ceil(7)
        loop, _ = make_loop(n_train=n_train, batch_frac=batch_frac)
        assert loop.batch == batch

    def test_initial_executions_and_pools(self):
        loop, s = make_loop(n_train=8, n_algorithms=3, initial_size=5, batch_frac=0.25)
        assert loop.batch == 2
        assert len(loop.ledger.entries) == 5 * 3  # instances x algorithms
        assert loop.resolved_cells == 3 * 5  # pairs x initial instances
        assert loop.pool.sum(axis=1).tolist() == [8 - 5] * 3
        assert loop.requests_executed == 0

    def test_same_seed_same_state(self):
        l1, _ = make_loop(initial_size=3, batch_frac=0.25, seed=5)
        l2, _ = make_loop(initial_size=3, batch_frac=0.25, seed=5)
        assert l1.batch == 2
        assert l1.ledger.entries == l2.ledger.entries
        assert np.array_equal(l1.pool, l2.pool)

    def test_different_seed_differs(self):
        l1, _ = make_loop(n_train=20, initial_size=3, seed=1)
        l2, _ = make_loop(n_train=20, initial_size=3, seed=2)
        initial1 = {e.instance for e in l1.ledger.entries}
        initial2 = {e.instance for e in l2.ledger.entries}
        assert initial1 != initial2

    def test_oversized_initial_rejected(self):
        with pytest.raises(ValueError):
            make_loop(n_train=4, initial_size=5)

    def test_store_rows_are_training_positions(self, tmp_path):
        # A shuffled fold: training positions are not scenario rows.
        s = make_synthetic_scenario(60, 3, seed=0)
        plan = make_splits(s, 0)
        cfg = ExperimentSpec(s, tmp_path, n_trees=3).loop_config("uncertainty", 0)
        loop = FrugalLoop(s, plan.folds[0], plan.test, cfg)
        assert loop.train != s.instances[: len(loop.train)]
        assert loop.store.solved.shape == (len(loop.train), len(s.algorithms))
        assert loop.store.row == {i: k for k, i in enumerate(loop.train)}

    @pytest.mark.parametrize(
        "make, message",
        [
            # a window slices the validation history, so it must be whole
            (lambda: LoopConfig(dt_window=2.5), "dt_window must be an integer"),
            (lambda: LoopConfig(initial_size=-1), "initial_size must be >= 1"),
            (lambda: LoopConfig(initial_size=0), "initial_size must be >= 1"),
            (lambda: LoopConfig(initial_size=2.0), "initial_size must be an integer"),
            (lambda: ForestConfig(n_trees=2.5), "n_trees must be an integer"),
            (
                lambda: ExperimentSpec(build_scenario(np.ones((4, 2))), "out", n_trees=2.5),
                "n_trees must be an integer",
            ),
        ],
        ids=["dt_window", "initial_size-1", "initial_size0", "initial_size2.0",
             "n_trees", "spec_n_trees"],
    )
    def test_invalid_count_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize(
        "make",
        [
            lambda seed: LoopConfig(seed=seed),
            lambda seed: ForestConfig(seed=seed),
            # every seed of a spec, not only the first
            lambda seed: ExperimentSpec(build_scenario(np.ones((4, 2))), "out", seeds=[0, seed]),
        ],
        ids=["loop", "forest", "spec"],
    )
    def test_seed_is_a_non_negative_integer(self, make):
        for seed in (-1, np.int64(-2), 1.0, "3", None):
            with pytest.raises(ValueError, match="seed must be a non-negative integer"):
                make(seed)
        make(np.int64(3))
        make(2**40)


class TestUncertaintySelection:
    def _loop_with_stub(self, pools, p_max):
        """Loop whose pair p has the top-class probability p_max[p][j] on the
        j-th instance of its pool in train order; a None (or missing) entry
        leaves the pair untrained. Preset values reach the query through
        `pair_confidences`, the one place it predicts."""
        loop, s = make_loop(n_train=8, n_algorithms=3, initial_size=2, batch_frac=0.25)
        assert loop.batch == 2
        loop.pool = np.array([[inst in p for inst in loop.train] for p in pools])
        loop.ensemble = SelectorEnsemble(s.algorithms, [None] * len(loop.pairs), loop.imputer)
        confidence = loop.pair_confidences()  # all untrained: the real abstain score
        for p, preset in enumerate(p_max):
            if preset is not None:
                pos = np.flatnonzero(loop.pool[p])
                top = np.asarray(preset, dtype=np.float64)[: pos.size]
                confidence[p, pos] = np.maximum(top, 1.0 - top)
        loop.pair_confidences = lambda: confidence
        return loop

    @staticmethod
    def _cells(loop, picked):
        """(pair, instance) of each picked cell, in order."""
        pair, pos = picked
        return [(p, loop.train[k]) for p, k in zip(pair.tolist(), pos.tolist())]

    def test_most_uncertain_pair_dominates_batch(self):
        # pair 0 confidences {0.51, 0.52} both beat pair 1's 0.99
        loop = self._loop_with_stub(
            pools=[{"i0", "i1"}, {"i2"}, set()],
            p_max=[[0.51, 0.52], [0.99], None],
        )
        picked = loop.select_queries(2)
        assert self._cells(loop, picked) == [(0, "i0"), (0, "i1")]
        assert loop.pair_confidences()[picked].tolist() == [0.51, 0.52]

    def test_ascending_merge_across_pairs(self):
        loop = self._loop_with_stub(
            pools=[{"i0"}, {"i1"}, {"i2"}],
            p_max=[[0.9], [0.6], [0.7]],
        )
        pair, _ = loop.select_queries(3)
        assert pair.tolist() == [1, 2, 0]

    def test_abstaining_model_scores_half(self):
        loop = self._loop_with_stub(
            pools=[{"i0"}, {"i0"}, set()],
            p_max=[[0.5001], None],
        )
        pair, pos = loop.select_queries(2)
        # an abstaining pair counts as maximally uncertain (0.5) and goes first
        confidence = loop.pair_confidences()[pair, pos]
        assert list(zip(pair.tolist(), confidence.tolist())) == [(1, 0.5), (0, 0.5001)]

    def test_tie_breaks_by_pair_then_instance_position(self):
        loop = self._loop_with_stub(
            pools=[{"i3", "i1"}, {"i0"}, set()],
            p_max=[[0.8, 0.8], [0.8]],
        )
        picked = loop.select_queries(3)
        assert self._cells(loop, picked) == [
            (0, "i1"),
            (0, "i3"),
            (1, "i0"),
        ]

    def test_matches_a_sort_of_tuples(self):
        # reference ranking: (confidence, pair, position) tuples sorted in Python
        rng = np.random.default_rng(7)
        for _ in range(20):
            pools = [
                {f"i{k}" for k in range(8) if rng.random() < 0.6} for _ in range(3)
            ]
            p_max = [rng.choice([0.5, 0.6, 0.7], size=8) for _ in range(3)]
            loop = self._loop_with_stub(pools, p_max)
            entries = sorted(
                (float(p_max[p][r]), p, int(inst[1:]))
                for p, pool in enumerate(pools)
                for r, inst in enumerate(sorted(pool, key=lambda i: int(i[1:])))
            )
            pair, pos = loop.select_queries(7)
            confidence = loop.pair_confidences()[pair, pos]
            instance = [int(loop.train[k][1:]) for k in pos.tolist()]
            assert list(zip(confidence.tolist(), pair.tolist(), instance)) == entries[:7]

    def test_pair_confidences_match_each_forest(self, tmp_path):
        # Through the vote caches, to exhaustion: every round's confidences
        # (an uncertainty loop's) equal a fresh walk of each pair forest, and
        # every record's PAR10 an evaluation that walks the forests itself.
        configs = ("random-to", "uncertainty", "uncertainty-to", "uncertainty-to-dt")
        for seed, config_id in product(range(3), configs):
            s = make_synthetic_scenario(60, 3, seed=seed)
            plan = make_splits(s, seed)
            spec = ExperimentSpec(s, tmp_path, n_trees=5)
            loop = FrugalLoop(s, plan.folds[0], plan.test, spec.loop_config(config_id, seed))
            while True:
                if loop.cfg.selection == "uncertainty":
                    confidence = loop.pair_confidences()
                    assert confidence.shape == loop.pool.shape
                    for p, forest in enumerate(loop.ensemble.pair_forests):
                        expected = np.full(len(loop.train), 0.5)
                        if forest is not None:
                            expected = reference_proba(forest, loop.memo.X).max(axis=1)
                        assert confidence[p].tobytes() == expected.tobytes()
                record = loop.step()
                if record is None:
                    break
                assert record.validation_par10 == evaluate_selector(
                    loop.ensemble, loop.validation, s
                )
                assert record.test_par10 == evaluate_selector(loop.ensemble, loop.test, s)
            assert loop.resolved_cells == loop.total_cells
        assert all(f is not None for f in loop.ensemble.pair_forests)
        loop.ensemble.forests[1] = None  # an untrained pair abstains
        assert np.all(loop.pair_confidences()[1] == 0.5)

    def test_request_cap(self):
        loop = self._loop_with_stub(
            pools=[{"i0", "i1", "i2"}, set(), set()],
            p_max=[[0.7, 0.8, 0.9], None, None],
        )
        assert loop.select_queries(2)[1].size == 2
        assert loop.select_queries(100)[1].size == 3


class TestRandomSelection:
    def test_oversized_request_returns_whole_pool(self):
        loop, _ = make_loop(n_train=8, n_algorithms=3, initial_size=2, selection="random")
        union = {(p, loop.train[k]) for p, k in zip(*np.nonzero(loop.pool))}
        pair, pos = loop.select_queries(10_000)
        assert {(p, loop.train[k]) for p, k in zip(pair, pos)} == union
        assert pos.size == len(union)

    def test_deterministic_given_seed(self):
        l1, _ = make_loop(initial_size=2, selection="random", seed=3)
        l2, _ = make_loop(initial_size=2, selection="random", seed=3)
        p1 = np.stack(l1.select_queries(3))
        p2 = np.stack(l2.select_queries(3))
        assert p1.shape == (2, 3)
        assert np.array_equal(p1, p2)

    def test_draws_are_roughly_uniform(self):
        loop, _ = make_loop(n_train=8, initial_size=2, selection="random", seed=4)
        union = [(p, loop.train[k]) for p, k in zip(*np.nonzero(loop.pool))]
        counts = {cell: 0 for cell in union}
        n_draws = 6000
        for _ in range(n_draws):
            (p,), (k,) = loop.select_queries(1)
            counts[(p, loop.train[k])] += 1
        expect = n_draws / len(union)
        sigma = np.sqrt(n_draws * (1 / len(union)) * (1 - 1 / len(union)))
        for cell, c in counts.items():
            assert abs(c - expect) < 4 * sigma, cell


@pytest.mark.parametrize("selection", ["uncertainty", "random"])
def test_empty_pool_selects_nothing(selection):
    # Both golden digests rely on an exhausted pool drawing nothing from rng.
    loop, _ = make_loop(initial_size=2, selection=selection, seed=5)
    loop.pool[:] = False
    state = loop.rng.bit_generator.state
    loop.pair_confidences = lambda: pytest.fail("an empty pool reads no confidences")
    pair, pos = loop.select_queries(5)
    assert pair.size == pos.size == 0
    assert pair.dtype.kind == pos.dtype.kind == "i"
    assert loop.rng.bit_generator.state == state


class TestExecution:
    def _manual_loop(self):
        # i5 onward stay out of the initial set by using a large train set and
        # then clearing any cached state for the probe instance
        rng = np.random.default_rng(11)
        runtimes = rng.uniform(1, 40, size=(12, 2))
        runtimes[6] = [90.0, 120.0]
        statuses = [[OK, OK]] * 12
        statuses[6] = [OK, TIMEOUT]
        features = rng.uniform(size=(12, 2))
        s = build_scenario(runtimes, statuses=statuses, features=features)
        fold = FoldSplit(train=s.instances[:8], validation=s.instances[8:10])
        cfg = LoopConfig(
            initial_size=2,
            batch_frac=0.25,
            dynamic_timeout=True,
            dt_initial=60.0,
            forest=ForestConfig(n_trees=5, seed=0),
        )
        loop = FrugalLoop(s, fold, s.instances[10:], cfg)
        assert loop.batch == 2
        row = loop.store.row["i6"]
        loop.store.solved[row] = loop.store.censored[row] = np.nan
        return loop, len(loop.ledger.entries)

    def test_rerun_from_scratch_charges_both_attempts(self):
        loop, base = self._manual_loop()
        k = loop.train.index("i6")
        loop.execute_request(0, k)  # pair 0 is (a0, a1)
        assert observation(loop.store, "i6", "a0") == Censored(60.0)
        assert observation(loop.store, "i6", "a1") == Censored(60.0)

        loop.controller.current = 100.0
        loop.execute_request(0, k)
        assert observation(loop.store, "i6", "a0") == Solved(90.0)
        assert observation(loop.store, "i6", "a1") == Censored(100.0)

        charged = [
            e.charged for e in loop.ledger.entries[base:] if e.instance == "i6"
        ]
        assert charged == [60.0, 60.0, 90.0, 100.0]

    def test_cached_sides_cost_nothing(self):
        loop, base = self._manual_loop()
        k = loop.train.index("i6")
        loop.execute_request(0, k)
        before = len(loop.ledger.entries)
        loop.execute_request(0, k)  # both censored at the current timeout
        assert len(loop.ledger.entries) == before
        assert loop.requests_executed == 2

        loop.controller.current = 100.0
        loop.execute_request(0, k)
        loop.execute_request(0, k)  # a0 solved, a1 censored at 100 == timeout
        charged = [
            e.charged for e in loop.ledger.entries[base:] if e.instance == "i6"
        ]
        assert charged == [60.0, 60.0, 90.0, 100.0]

    def test_solved_against_lower_censor_stays_queryable(self):
        loop, base = self._manual_loop()
        loop.store.record("i6", "a0", Solved(90.0))
        loop.store.record("i6", "a1", Censored(60.0))
        k = loop.train.index("i6")
        loop.pool[0, k] = True
        loop._update_pools()
        assert loop.pool[0, k]  # 90 s solved vs censored at 60 s: undecided

        loop.controller.current = 100.0
        loop.execute_request(0, k)
        assert observation(loop.store, "i6", "a1") == Censored(100.0)
        assert [e.charged for e in loop.ledger.entries[base:]] == [100.0]
        loop._update_pools()
        assert not loop.pool[0, k]


class TestStepping:
    def test_step_runs_the_selected_cells_in_order(self, monkeypatch, tmp_path):
        # A shuffled fold at a static timeout, so a side once run is final.
        s = make_synthetic_scenario(60, 3, seed=0)
        plan = make_splits(s, 0)
        cfg = ExperimentSpec(s, tmp_path, n_trees=3).loop_config("random", 0)
        loop = FrugalLoop(s, plan.folds[0], plan.test, cfg)
        initial = {loop.train.index(e.instance) for e in loop.ledger.entries}
        ka, kb = [k for k in range(len(loop.train)) if k not in initial][:2]
        done = min(initial)
        a0, a1, a2 = s.algorithms
        assert loop.pairs == [(a0, a1), (a0, a2), (a1, a2)]
        pair = np.array([1, 0, 2, 0])
        pos = np.array([ka, kb, ka, done])
        monkeypatch.setattr(loop, "select_queries", lambda n: (pair, pos))
        base = len(loop.ledger.entries)
        record = loop.step()
        ta, tb = loop.train[ka], loop.train[kb]
        # (ta, a2) and every side of the initial instance are already final
        assert [(e.instance, e.algorithm) for e in loop.ledger.entries[base:]] == [
            (ta, a0), (ta, a2), (tb, a0), (tb, a1), (ta, a1),
        ]
        assert {e.step for e in loop.ledger.entries[base:]} == {record.step}
        assert record.requests == loop.requests_executed == 4

    def test_records_are_consistent(self):
        loop, _ = make_loop(n_train=10, n_algorithms=2, initial_size=2, batch_frac=0.25)
        assert loop.batch == 3
        records = loop.run()
        assert records, "loop produced no steps"
        assert [r.step for r in records] == list(range(1, len(records) + 1))
        costs = [r.cost for r in records]
        assert costs == sorted(costs)
        for r in records:
            assert 0.0 <= r.data_frac <= 1.0
            assert r.timeout == loop.scenario.cutoff  # static: parked at the cutoff
        assert records[-1].data_frac == 1.0
        assert loop.controller.current == loop.scenario.cutoff
        assert loop.controller.history == []

    def test_exhaustion_terminates(self):
        loop, _ = make_loop(n_train=8, initial_size=2, batch_frac=0.5)
        assert loop.batch == 4
        loop.run()
        assert not loop.pool.any()
        assert loop.step() is None

    def test_pool_accounting_invariant(self):
        loop, _ = make_loop(n_train=10, n_algorithms=3, initial_size=2, batch_frac=0.5)
        assert loop.batch == 5
        for _ in range(6):
            before = loop.pool.copy()
            record = loop.step()
            if record is None:
                break
            open_cells = int(loop.pool.sum())
            assert record.resolved_cells + open_cells == loop.total_cells
            assert not (loop.pool & ~before).any()  # a cell never re-enters a pool

    def test_static_timeout_cost_never_exceeds_full_labelling(self):
        loop, s = make_loop(n_train=8, n_algorithms=2, initial_size=2, batch_frac=0.25)
        assert loop.batch == 2
        loop.run()
        full_cost = sum(
            min(s.run(i, a).runtime, s.cutoff)
            for i in loop.train
            for a in s.algorithms
        )
        assert loop.ledger.total <= full_cost
        # single pair: exhaustion means every training cell was executed once
        assert loop.ledger.total == pytest.approx(full_cost)

    @pytest.mark.parametrize("dynamic_timeout", [False, True])
    def test_resolved_pairs_are_truly_settled(self, dynamic_timeout):
        loop, s = make_loop(
            n_train=10,
            n_algorithms=3,
            initial_size=2,
            batch_frac=0.35,
            dynamic_timeout=dynamic_timeout,
        )
        assert loop.batch == 4
        loop.run(max_steps=5)

        def final(obs):
            return isinstance(obs, Solved) or obs.at >= s.cutoff

        for p, (a, b) in enumerate(loop.pairs):
            # open cells are undecided and can still change
            for inst in compress(loop.train, loop.pool[p]):
                obs_a = observation(loop.store, inst, a)
                obs_b = observation(loop.store, inst, b)
                if obs_a is None or obs_b is None:
                    continue
                assert pairwise_label(obs_a, obs_b) is None, (p, inst)
                assert not (final(obs_a) and final(obs_b)), (p, inst)
            for inst in compress(loop.train, ~loop.pool[p]):
                obs_a = observation(loop.store, inst, a)
                obs_b = observation(loop.store, inst, b)
                if obs_a is None or obs_b is None:
                    continue  # may still be pending in another pool
                # removed cells are decisive or permanently uninformative
                side = pairwise_label(obs_a, obs_b)
                if side is None:
                    both_censored = isinstance(obs_a, Censored) and isinstance(
                        obs_b, Censored
                    )
                    tie = (
                        isinstance(obs_a, Solved)
                        and isinstance(obs_b, Solved)
                        and obs_a.runtime == obs_b.runtime
                    )
                    assert tie or (
                        both_censored and obs_a.at >= s.cutoff and obs_b.at >= s.cutoff
                    )

    def test_dynamic_timeout_grows_monotonically(self):
        loop, _ = make_loop(
            n_train=10,
            n_algorithms=2,
            initial_size=2,
            batch_frac=0.15,
            dynamic_timeout=True,
        )
        assert loop.batch == 2
        records = loop.run(max_steps=12)
        timeouts = [r.timeout for r in records]
        assert timeouts == sorted(timeouts)
        assert timeouts[0] == loop.scenario.cutoff / 64
        for e in loop.ledger.entries:
            assert 0.0 <= e.charged <= loop.scenario.cutoff


def slot_labels(loop, timeout_at) -> np.ndarray:
    """Each slot's training labels, one row per slot in slot order, from
    `loop`'s store as it stands: the pair slots', then, unless `timeout_at`
    is None, the timeout slots' labelled at `timeout_at`."""
    solved, censored = loop.store.solved, loop.store.censored
    labels = pair_classes(solved, censored, *pair_columns(len(loop.scenario.algorithms))).T
    if timeout_at is None:
        return labels
    algorithms = np.arange(len(loop.scenario.algorithms))
    return np.concatenate((labels, timeout_classes(solved, censored, algorithms, timeout_at).T))


class TestRetrainReuse:
    # At 0 the memo stores no forest, so only the slots' current forests
    # are reused. The loop is given a memo, since its own would store none.
    @pytest.mark.parametrize("memo_nodes", [MEMO_NODES, 0], ids=["default-budget", "no-budget"])
    def test_reused_forests_equal_a_fresh_fit(self, memo_nodes, monkeypatch):
        monkeypatch.setattr(selector_mod, "MEMO_NODES", memo_nodes)
        loop, s = make_loop(
            given_memo=True,
            n_train=16,
            n_algorithms=3,
            initial_size=3,
            batch_frac=0.125,
            timeout_predictor=True,
            dynamic_timeout=True,
        )
        assert loop.batch == 2
        n_pairs = len(loop.pairs)
        reused = refit_on_growth = 0
        for _ in range(12):
            before = loop.ensemble
            before_labels = slot_labels(loop, before.timeout_at)
            if loop.step() is None:
                break
            after = loop.ensemble
            timeout = after.timeout_at
            after_labels = slot_labels(loop, timeout)
            X, solved, censored = training_block(s, loop.train, loop.store, loop.imputer)
            fresh = train_ensemble(
                ForestMemo(loop.train, s.algorithms, X, loop.imputer, loop.cfg.forest),
                solved, censored, timeout_at=timeout,
            )
            # every slot equals a from-scratch fit on the same store
            for new, ref in zip(after.forests, fresh.forests, strict=True):
                assert (new is None) == (ref is None)
                if new is not None:
                    assert dump_trees(new) == dump_trees(ref)
            # a slot keeps its forest object exactly when its labels are unchanged
            for slot, (new, old) in enumerate(zip(after.forests, before.forests, strict=True)):
                if np.array_equal(after_labels[slot], before_labels[slot]):
                    assert new is old
                    reused += new is not None
                elif new is not None:
                    assert new is not old
            # after a timeout growth every timeout slot is labelled at the new
            # level (the fresh fit above); those whose labels the growth
            # changed were refit
            if timeout > before.timeout_at:
                for t in range(n_pairs, len(after.forests)):
                    refit_on_growth += after.forests[t] is not None and not np.array_equal(
                        after_labels[t], before_labels[t]
                    )
        assert reused and refit_on_growth

    def test_each_slot_seeds_its_trees_once_per_loop(self, monkeypatch, tmp_path):
        # Every refit of a slot reads the tree streams its first fit seeded,
        # so a loop run to exhaustion seeds at most slots x trees generators.
        import frugalas.draws as draws_mod

        seeded, fits = [], []
        seed_sequence, fit_forest = draws_mod.SeedSequence, selector_mod.fit_forest

        def counted_seeding(entropy):
            seeded.append(entropy)
            return seed_sequence(entropy)

        def counted_fit(*args, **kwargs):
            fits.append(args[2])
            return fit_forest(*args, **kwargs)

        monkeypatch.setattr(draws_mod, "SeedSequence", counted_seeding)
        monkeypatch.setattr(selector_mod, "fit_forest", counted_fit)
        s = make_synthetic_scenario(60, 3, seed=0)
        plan = make_splits(s, 0)
        cfg = ExperimentSpec(s, tmp_path, n_trees=5).loop_config("uncertainty-to-dt", 0)
        loop = FrugalLoop(s, plan.folds[0], plan.test, cfg)
        loop.run()
        n_slots, n_trees = len(loop.ensemble.forests), cfg.forest.n_trees
        assert len(seeded) <= n_slots * n_trees
        assert len(set(seeded)) == len(seeded)
        # Without the streams each fit would seed all its trees again.
        assert len(fits) > 5 * n_slots

    def test_each_slot_seeds_its_trees_once_per_grid_unit(self, monkeypatch, tmp_path):
        # Every loop and the passive baseline of a (fold, seed) unit read
        # each slot's tree streams from the unit's forest memo, so the whole
        # unit seeds about as many generators as one loop.
        import frugalas.draws as draws_mod
        from frugalas.harness import FRUGAL_CONFIGS, PASSIVE_CONFIGS, run_grid

        seeded = []
        seed_sequence = draws_mod.SeedSequence

        def counted_seeding(entropy):
            seeded.append(entropy)
            return seed_sequence(entropy)

        monkeypatch.setattr(draws_mod, "SeedSequence", counted_seeding)
        s = make_synthetic_scenario(60, 3, seed=0)
        spec = ExperimentSpec(
            s, tmp_path, configurations=FRUGAL_CONFIGS + PASSIVE_CONFIGS, folds=[0], seeds=[0],
            n_trees=5,
        )
        run_grid(spec)
        n_slots = 3 + 3  # the pairs, then one timeout slot per algorithm
        assert seeded and len(seeded) <= n_slots * (spec.n_trees + 1)
        assert len(set(seeded)) == len(seeded)

    def test_a_round_imputes_nothing(self, monkeypatch, tmp_path):
        # Each row block is imputed once, when the loop is built: the
        # training rows, then the validation and test rows.
        shapes = []
        transform = ImputerModel.transform

        def counted(self, matrix):
            shapes.append(matrix.shape)
            return transform(self, matrix)

        monkeypatch.setattr(ImputerModel, "transform", counted)
        s = make_synthetic_scenario(60, 3, seed=0)
        plan = make_splits(s, 0)
        cfg = ExperimentSpec(s, tmp_path, n_trees=5).loop_config("uncertainty-to-dt", 0)
        loop = FrugalLoop(s, plan.folds[0], plan.test, cfg)
        held_out = len(loop.validation) + len(loop.test)
        assert [rows for rows, _ in shapes] == [len(loop.train), held_out]
        del shapes[:]
        assert len(loop.run(max_steps=5)) == 5
        assert shapes == []


@pytest.fixture
def walks(monkeypatch):
    """Counts the forests each `forest_votes` call in the loop walks."""
    walks = []  # (rows, forests); holding the forests keeps their ids unique
    votes = loop_mod.forest_votes

    def counted(forests, X):
        walks.append((X, list(forests)))
        return votes(forests, X)

    monkeypatch.setattr(loop_mod, "forest_votes", counted)
    return walks


class TestEvaluationReuse:
    """Every record scores the current forests, from the cached votes."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []  # the arguments of each `evaluate_selector` call in the loop
        evaluate = loop_mod.evaluate_selector

        def counted(*args, **kwargs):
            calls.append(args)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(loop_mod, "evaluate_selector", counted)
        return calls

    @staticmethod
    def scored(calls, loop) -> list[str]:
        """The selector each call scored: "full" for the loop's ensemble on
        the validation and test rows together, "plain" for its pair forests
        alone on the test rows."""
        names = []
        for ensemble, instances, *_ in calls:
            if ensemble is loop.ensemble:
                assert instances == loop.validation + loop.test
                names.append("full")
            else:
                assert ensemble.timeout_at is None
                assert all(a is b for a, b in zip(
                    ensemble.forests, loop.ensemble.pair_forests, strict=True
                ))
                assert instances == loop.test
                names.append("plain")
        return names

    def test_round_that_refits_nothing_walks_nothing_and_scores_once(
        self, calls, walks, monkeypatch
    ):
        loop, s = make_loop(n_train=12, n_algorithms=3, batch_frac=0.15, timeout_predictor=True)
        assert loop.batch == 2
        first = loop.step()
        # One evaluation of each selector: under this static timeout the loop
        # also scores its pair forests alone.
        assert self.scored(calls, loop) == ["full", "plain"]

        # Requests that run nothing change no label, so no forest is refit.
        monkeypatch.setattr(loop, "execute_request", lambda pair, position: None)
        before, done, walked = loop.ensemble, len(calls), len(walks)
        record = loop.step()
        after = loop.ensemble
        for new, old in zip(after.forests, before.forests, strict=True):
            assert new is old
        assert len(walks) == walked
        assert self.scored(calls[done:], loop) == ["full", "plain"]
        assert record.step == first.step + 1
        assert (record.validation_par10, record.test_par10, record.plain_test_par10) == (
            first.validation_par10, first.test_par10, first.plain_test_par10
        )
        assert record.validation_par10 == evaluate_selector(after, loop.validation, s)
        assert record.test_par10 == evaluate_selector(after, loop.test, s)
        assert record.plain_test_par10 == evaluate_selector(after.without_timeouts(), loop.test, s)

    @pytest.mark.parametrize("config_id", ["uncertainty-to-dt", "random-to"])
    def test_every_round_scores_each_selector_once(self, calls, config_id, tmp_path):
        s = make_synthetic_scenario(60, 3, seed=0)
        plan = make_splits(s, 0)
        cfg = ExperimentSpec(s, tmp_path, n_trees=5).loop_config(config_id, 0)
        loop = FrugalLoop(s, plan.folds[0], plan.test, cfg)
        # Each round scores each of its selectors once: a static timeout adds
        # the pair forests alone.
        selectors = ["full"] if cfg.dynamic_timeout else ["full", "plain"]
        # A first round that refits nothing scores too.
        loop.execute_request = lambda pair, position: None
        initial = list(loop.ensemble.forests)
        record = loop.step()
        assert all(new is old for new, old in zip(loop.ensemble.forests, initial, strict=True))
        assert self.scored(calls, loop) == selectors
        assert record.test_par10 == evaluate_selector(loop.ensemble, loop.test, s)
        del loop.execute_request

        rounds = 1
        while True:
            done = len(calls)
            if (record := loop.step()) is None:
                break
            rounds += 1
            assert self.scored(calls[done:], loop) == selectors
            assert record.test_par10 == evaluate_selector(loop.ensemble, loop.test, s)
        assert len(calls) == rounds * len(selectors)
        assert loop.resolved_cells == loop.total_cells

    @pytest.mark.parametrize(
        "config_id", ["uncertainty", "uncertainty-to", "random", "random-to"]
    )
    def test_a_second_record_walks_nothing_and_scores_again(
        self, calls, walks, config_id, tmp_path
    ):
        s = make_synthetic_scenario(60, 3, seed=0)
        plan = make_splits(s, 0)
        cfg = ExperimentSpec(s, tmp_path, n_trees=5).loop_config(config_id, 0)
        loop = FrugalLoop(s, plan.folds[0], plan.test, cfg)
        selectors = ["full", "plain"] if cfg.timeout_predictor else ["full"]
        assert loop.run(max_steps=2)
        first = loop.record()
        done, walked = len(calls), len(walks)
        second = loop.record()
        assert second == first
        assert len(walks) == walked
        assert self.scored(calls[done:], loop) == selectors


class TestPlainScore:
    """A loop with timeout models under a static timeout also scores its
    pair forests alone: the value its static partner cell logs."""

    @staticmethod
    def loop_of(config_id, tmp_path, scenario=None):
        s = scenario or make_synthetic_scenario(60, 3, seed=0)
        plan = make_splits(s, 0)
        cfg = ExperimentSpec(s, tmp_path, n_trees=5).loop_config(config_id, 0)
        return FrugalLoop(s, plan.folds[0], plan.test, cfg), s

    @pytest.mark.parametrize("config_id", ["uncertainty-to", "random-to"])
    def test_every_round_scores_the_pair_forests_alone(self, config_id, tmp_path):
        loop, s = self.loop_of(config_id, tmp_path)
        rounds = 0
        while (record := loop.step()) is not None:
            rounds += 1
            plain = loop.ensemble.without_timeouts()
            assert record.plain_test_par10 == evaluate_selector(plain, loop.test, s)
        assert rounds > 0

    @pytest.mark.parametrize(
        "config_id", ["uncertainty", "random", "uncertainty-to-dt", "random-dt"]
    )
    def test_no_other_loop_scores_it(self, config_id, tmp_path):
        loop, _ = self.loop_of(config_id, tmp_path)
        records = loop.run()
        assert records
        assert all(r.plain_test_par10 is None for r in records)

    @pytest.mark.parametrize("selection", ["uncertainty", "random"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_x_to_loop_steps_as_the_x_loop_does(self, selection, seed, tmp_path):
        # The timeout models steer no query and no run under a static
        # timeout, so the two loops label, charge and score the same.
        s = make_synthetic_scenario(50, 4, seed=seed)
        plain, _ = self.loop_of(selection, tmp_path, s)
        timed, _ = self.loop_of(f"{selection}-to", tmp_path, s)
        a, b = plain.run(), timed.run()
        assert len(a) == len(b) > 0
        for x, y in zip(a, b):
            assert (x.step, x.timeout, x.requests, x.resolved_cells, x.cost, x.data_frac) == (
                y.step, y.timeout, y.requests, y.resolved_cells, y.cost, y.data_frac
            )
            assert repr(x.test_par10) == repr(y.plain_test_par10)
        assert plain.ledger.entries == timed.ledger.entries

    def test_a_given_imputer_is_used_and_none_is_fit(self, monkeypatch, tmp_path):
        s = make_synthetic_scenario(60, 3, seed=0)
        plan = make_splits(s, 0)
        imputer = loop_mod.fit_imputer(s, plan.folds[0].train)
        rows = [s.instance_index(i) for i in plan.folds[0].train]
        cfg = ExperimentSpec(s, tmp_path, n_trees=5).loop_config("random-to", 0)
        memo = ForestMemo(
            plan.folds[0].train, s.algorithms, imputer.transform(s.feature_matrix[rows]), imputer,
            cfg.forest,
        )

        def refuse(*args):
            raise AssertionError("the loop fit an imputer")

        monkeypatch.setattr(loop_mod, "fit_imputer", refuse)
        loop = FrugalLoop(s, plan.folds[0], plan.test, cfg, memo=memo)
        assert loop.imputer is imputer
        assert loop.ensemble.imputer is imputer
        assert loop.memo is memo


class TestLoopMemo:
    """Every loop trains on a forest memo: its own, or one it is given."""

    @pytest.mark.parametrize("config_id", ["uncertainty-to-dt", "random-to"])
    def test_a_lone_loop_equals_a_loop_given_a_memo(self, config_id, tmp_path):
        s = make_synthetic_scenario(60, 3, seed=0)
        plan = make_splits(s, 0)
        spec = ExperimentSpec(s, tmp_path, n_trees=5)
        cfg = spec.loop_config(config_id, 0)
        train = plan.folds[0].train
        # A memo built here, and one another configuration's loop has filled.
        given = fold_memo(s, train, cfg.forest)
        filled = fold_memo(s, train, cfg.forest)
        other = "random-to" if config_id == "uncertainty-to-dt" else "uncertainty-to-dt"
        FrugalLoop(s, plan.folds[0], plan.test, spec.loop_config(other, 0), memo=filled).run()
        assert filled.forests
        lone = FrugalLoop(s, plan.folds[0], plan.test, cfg)
        records = lone.run()
        assert records
        # Only the lone loop reads its own memo, which stores no forest; each
        # slot's current forest stays, and is the loop's.
        assert not lone.memo.shared and lone.memo.forests == {} and lone.memo.nodes == 0
        assert lone.memo.current
        for slot, (_, forest) in lone.memo.current.items():
            assert forest is lone.ensemble.forests[slot]
        for memo in (given, filled):
            loop = FrugalLoop(s, plan.folds[0], plan.test, cfg, memo=memo)
            assert loop.run() == records
            assert memo.shared and memo.forests
            assert loop.ledger.entries == lone.ledger.entries
            assert len(loop.ensemble.forests) == len(lone.ensemble.forests)
            for got, ref in zip(loop.ensemble.forests, lone.ensemble.forests):
                assert (got is None) == (ref is None)
                if got is not None:
                    assert dump_trees(got) == dump_trees(ref)

    def test_a_memo_of_another_fold_raises(self, tmp_path):
        # Two folds of equal size: a memo of one fold's rows would train the
        # other fold's loop on the wrong features without a word.
        s = make_synthetic_scenario(60, 3, seed=0)
        plan = make_splits(s, 0)
        assert len(plan.folds[0].train) == len(plan.folds[1].train)
        cfg = ExperimentSpec(s, tmp_path, n_trees=5).loop_config("random-to", 0)
        memo = fold_memo(s, plan.folds[0].train, cfg.forest)
        with pytest.raises(ValueError, match="forest memo"):
            FrugalLoop(s, plan.folds[1], plan.test, cfg, memo=memo)
        assert memo.forests == {}
        FrugalLoop(s, plan.folds[0], plan.test, cfg, memo=memo)

    def test_a_memo_of_another_portfolio_raises(self, tmp_path):
        s = make_synthetic_scenario(60, 3, seed=0)
        plan = make_splits(s, 0)
        cfg = ExperimentSpec(s, tmp_path, n_trees=5).loop_config("random-to", 0)
        memo = fold_memo(s, plan.folds[0].train, cfg.forest)
        other = ForestMemo(memo.train, s.algorithms[:2], memo.X, memo.imputer, memo.config)
        with pytest.raises(ValueError, match="another portfolio"):
            FrugalLoop(s, plan.folds[0], plan.test, cfg, memo=other)
        assert other.forests == {}

    def test_a_memo_of_another_tree_count_or_seed_raises(self, tmp_path):
        s = make_synthetic_scenario(60, 3, seed=0)
        plan = make_splits(s, 0)
        cfg = ExperimentSpec(s, tmp_path, n_trees=5).loop_config("random-to", 0)
        for other in (ForestConfig(n_trees=4, seed=0), ForestConfig(n_trees=5, seed=1)):
            memo = fold_memo(s, plan.folds[0].train, other)
            with pytest.raises(ValueError, match="forest memo"):
                FrugalLoop(s, plan.folds[0], plan.test, cfg, memo=memo)
            assert memo.forests == {}


class TestVoteCache:
    """Each forest of a loop is walked once, on the loop's one row block."""

    @pytest.mark.parametrize("config_id", ["uncertainty-to-dt", "uncertainty", "random-to"])
    def test_a_round_walks_exactly_the_changed_forests(self, walks, config_id, tmp_path):
        s = make_synthetic_scenario(60, 3, seed=0)
        plan = make_splits(s, 0)
        cfg = ExperimentSpec(s, tmp_path, n_trees=5).loop_config(config_id, 0)
        loop = FrugalLoop(s, plan.folds[0], plan.test, cfg)
        assert walks == []
        # One block for every slot: the training rows for an uncertainty
        # query, then the validation and test rows.
        uncertainty = cfg.selection == "uncertainty"
        held_out = loop.imputer.transform(
            s.feature_matrix[[s.instance_index(i) for i in loop.validation + loop.test]]
        )
        block = loop._votes.X
        expected_block = np.concatenate((loop.memo.X, held_out)) if uncertainty else held_out
        assert block.tobytes() == expected_block.tobytes()
        # The slot forests last walked; a fresh object was never walked.
        last = [object()] * len(loop.ensemble.forests)

        def expect(forests):
            changed = [f for slot, f in enumerate(forests) if f is not None and f is not last[slot]]
            last[:] = forests
            return changed

        # Every forest a query or an evaluation reads: a random loop never
        # reads the forests its first retrain replaces.
        read = [f for f in loop.ensemble.forests if f is not None] if uncertainty else []
        walked, first = [], True
        while True:
            start = len(walks)
            # The query walks only what no retrain walked: the first
            # uncertainty query's initial forests.
            query = expect(loop.ensemble.forests) if uncertainty else []
            assert not query or first
            if loop.step() is None:
                break
            retrain = expect(loop.ensemble.forests)
            read += [f for f in loop.ensemble.forests if f is not None]
            calls = [fs for _, fs in walks[start:]]
            assert all(rows is block for rows, _ in walks[start:])
            # one `forest_votes` call per round, after the retrain, and the
            # first uncertainty query's before it
            assert [[id(f) for f in fs] for fs in calls] == [
                [id(f) for f in fs] for fs in (query, retrain) if fs
            ]
            walked += [f for fs in calls for f in fs]
            first = False
        # each forest of the loop is walked once
        assert len({id(f) for f in walked}) == len(walked)
        assert {id(f) for f in walked} == {id(f) for f in read}
        assert walked

    def test_refresh_returns_the_votes_and_walks_only_new_forests(self, walks):
        X = np.arange(6.0).reshape(-1, 1)
        forest = fit_forest(X, [0, 0, 0, 1, 1, 1], ForestConfig(n_trees=2, seed=0))
        other = fit_forest(X, [0, 0, 1, 1, 1, 1], ForestConfig(n_trees=2, seed=1))
        cache = VoteCache(X, 2)
        fresh = [forest_votes([f], X)[0].tolist() for f in (forest, other)]
        assert cache.refresh([forest, None]).tolist() == [fresh[0], [0] * 6]
        assert cache.refresh([forest, None]).tolist() == [fresh[0], [0] * 6]
        assert [fs for _, fs in walks] == [[forest]]
        # A slot that loses its forest walks nothing and keeps its last row,
        # which readers ignore; a slot that gets one back walks it again.
        assert cache.refresh([None, other]).tolist() == [fresh[0], fresh[1]]
        assert cache.refresh([forest, other]).tolist() == fresh
        assert cache.refresh([forest, other]).tolist() == fresh
        assert [fs for _, fs in walks] == [[forest], [other], [forest]]

    def test_a_loop_that_never_steps_walks_its_held_out_rows_once(self, walks, tmp_path):
        # At `batch_frac` 1 the initial phase settles every pool cell, so no
        # query reads the training rows, and the loop walks neither while it
        # is built nor in `run()`; its step-0 record walks the held-out rows.
        s = make_synthetic_scenario(40, 3, seed=0)
        plan = make_splits(s, 0)
        spec = ExperimentSpec(s, tmp_path, n_trees=5, batch_frac=1.0)
        loop = FrugalLoop(s, plan.folds[0], plan.test, spec.loop_config("uncertainty-to", 0))
        assert not loop.pool.any()
        assert all(f is not None for f in loop.ensemble.pair_forests)
        assert loop.run() == []
        assert walks == []
        record = loop.record()
        [(X, forests)] = walks
        assert X.shape[0] == len(loop.validation) + len(loop.test)
        assert forests == [f for f in loop.ensemble.forests if f is not None]
        assert record.step == 0 and record.plain_test_par10 is not None
