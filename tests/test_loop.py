from itertools import compress

import numpy as np
import pytest

from conftest import build_scenario, reference_proba
from frugalas.forest import ForestConfig, dump_trees
from frugalas.labels import Censored, LabelStore, Solved, pairwise_label
from frugalas.loop import (
    CostLedger,
    DynamicTimeoutController,
    FrugalLoop,
    LedgerEntry,
    LoopConfig,
    QueryRequest,
    entropy_score,
    least_confidence_score,
    margin_score,
)
from frugalas.preprocess import FoldSplit
from frugalas.scenario import OK, OTHER_FAILURE as OTHER, TIMEOUT
from frugalas.selector import PairwiseModel, SelectorEnsemble, train_ensemble


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
    assert ledger.store.get(instance, algorithm) == entry.state
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


def make_loop(n_train=8, n_algorithms=2, seed=0, **cfg_kwargs):
    rng = np.random.default_rng(97)
    n = n_train + 4
    runtimes = rng.uniform(1, 50, size=(n, n_algorithms))
    features = rng.uniform(size=(n, 2))
    s = build_scenario(runtimes, features=features)
    fold = FoldSplit(train=s.instances[:n_train], validation=s.instances[n_train : n_train + 2])
    test = s.instances[n_train + 2 :]
    cfg_kwargs.setdefault("forest", ForestConfig(n_trees=5, seed=seed))
    cfg = LoopConfig(seed=seed, **cfg_kwargs)
    return FrugalLoop(s, fold, test, cfg), s


class TestInitialPhase:
    def test_initial_executions_and_pools(self):
        loop, s = make_loop(n_train=8, n_algorithms=3, initial_size=5, batch_size=2)
        assert len(loop.ledger.entries) == 5 * 3  # instances x algorithms
        assert loop.resolved_cells == 3 * 5  # pairs x initial instances
        assert loop.pool.sum(axis=1).tolist() == [8 - 5] * 3
        assert loop.requests_executed == 0

    def test_same_seed_same_state(self):
        l1, _ = make_loop(initial_size=3, batch_size=2, seed=5)
        l2, _ = make_loop(initial_size=3, batch_size=2, seed=5)
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


class TestUncertaintySelection:
    def _loop_with_stub(self, pools, p_max):
        """Loop whose pair p has the top-class probability p_max[p][j] on the
        j-th instance of its pool in train order; a None (or missing) entry
        leaves the pair untrained. Preset values reach the query through
        `pair_confidences`, the one place it predicts."""
        loop, s = make_loop(n_train=8, n_algorithms=3, initial_size=2, batch_size=2)
        loop.pool = np.array([[inst in p for inst in loop.train] for p in pools])
        loop.ensemble = SelectorEnsemble(
            s.algorithms,
            [PairwiseModel(pair, None) for pair in loop.pairs],
            None,
            loop.imputer,
        )
        confidence = loop.pair_confidences()  # all untrained: the real abstain score
        for p, preset in enumerate(p_max):
            if preset is not None:
                pos = np.flatnonzero(loop.pool[p])
                top = np.asarray(preset, dtype=np.float64)[: pos.size]
                confidence[p, pos] = np.maximum(top, 1.0 - top)
        loop.pair_confidences = lambda: confidence
        return loop

    def test_most_uncertain_pair_dominates_batch(self):
        # pair 0 confidences {0.51, 0.52} both beat pair 1's 0.99
        loop = self._loop_with_stub(
            pools=[{"i0", "i1"}, {"i2"}, set()],
            p_max=[[0.51, 0.52], [0.99], None],
        )
        picked = loop.select_queries_uncertainty(2)
        assert [(r.pair_index, r.instance) for r in picked] == [(0, "i0"), (0, "i1")]
        assert [r.confidence for r in picked] == [0.51, 0.52]

    def test_ascending_merge_across_pairs(self):
        loop = self._loop_with_stub(
            pools=[{"i0"}, {"i1"}, {"i2"}],
            p_max=[[0.9], [0.6], [0.7]],
        )
        picked = loop.select_queries_uncertainty(3)
        assert [r.pair_index for r in picked] == [1, 2, 0]

    def test_abstaining_model_scores_half(self):
        loop = self._loop_with_stub(
            pools=[{"i0"}, {"i0"}, set()],
            p_max=[[0.5001], None],
        )
        picked = loop.select_queries_uncertainty(2)
        # an abstaining pair counts as maximally uncertain (0.5) and goes first
        assert [(r.pair_index, r.confidence) for r in picked] == [(1, 0.5), (0, 0.5001)]

    def test_tie_breaks_by_pair_then_instance_position(self):
        loop = self._loop_with_stub(
            pools=[{"i3", "i1"}, {"i0"}, set()],
            p_max=[[0.8, 0.8], [0.8]],
        )
        picked = loop.select_queries_uncertainty(3)
        assert [(r.pair_index, r.instance) for r in picked] == [
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
            picked = loop.select_queries_uncertainty(7)
            assert [(r.confidence, r.pair_index, int(r.instance[1:])) for r in picked] == (
                entries[:7]
            )

    def test_pair_confidences_match_each_forest(self):
        loop, _ = make_loop(n_train=20, n_algorithms=3, initial_size=6, batch_size=2)
        loop.run(max_steps=3)
        loop.ensemble.pairwise[1].model = None  # an untrained pair abstains
        confidence = loop.pair_confidences()
        assert confidence.shape == loop.pool.shape
        assert any(pm.model is not None for pm in loop.ensemble.pairwise)
        for p, pm in enumerate(loop.ensemble.pairwise):
            if pm.model is None:
                expected = np.full(len(loop.train), 0.5)
            else:
                expected = reference_proba(pm.model, loop._train_X).max(axis=1)
            assert confidence[p].tobytes() == expected.tobytes()

    def test_request_cap(self):
        loop = self._loop_with_stub(
            pools=[{"i0", "i1", "i2"}, set(), set()],
            p_max=[[0.7, 0.8, 0.9], None, None],
        )
        assert len(loop.select_queries_uncertainty(2)) == 2
        assert len(loop.select_queries_uncertainty(100)) == 3


class TestRandomSelection:
    def test_oversized_request_returns_whole_pool(self):
        loop, _ = make_loop(n_train=8, n_algorithms=3, initial_size=2, selection="random")
        union = {(p, loop.train[k]) for p, k in zip(*np.nonzero(loop.pool))}
        picked = loop.select_queries_random(10_000)
        assert {(r.pair_index, r.instance) for r in picked} == union

    def test_deterministic_given_seed(self):
        l1, _ = make_loop(initial_size=2, selection="random", seed=3)
        l2, _ = make_loop(initial_size=2, selection="random", seed=3)
        p1 = [(r.pair_index, r.instance) for r in l1.select_queries_random(3)]
        p2 = [(r.pair_index, r.instance) for r in l2.select_queries_random(3)]
        assert p1 == p2

    def test_draws_are_roughly_uniform(self):
        loop, _ = make_loop(n_train=8, initial_size=2, selection="random", seed=4)
        union = [(p, loop.train[k]) for p, k in zip(*np.nonzero(loop.pool))]
        counts = {cell: 0 for cell in union}
        n_draws = 6000
        for _ in range(n_draws):
            (req,) = loop.select_queries_random(1)
            counts[(req.pair_index, req.instance)] += 1
        expect = n_draws / len(union)
        sigma = np.sqrt(n_draws * (1 / len(union)) * (1 - 1 / len(union)))
        for cell, c in counts.items():
            assert abs(c - expect) < 4 * sigma, cell


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
            batch_size=2,
            dynamic_timeout=True,
            dt_initial=60.0,
            forest=ForestConfig(n_trees=5, seed=0),
        )
        loop = FrugalLoop(s, fold, s.instances[10:], cfg)
        row = s.instance_index("i6")
        loop.store.solved[row] = loop.store.censored[row] = np.nan
        return loop, len(loop.ledger.entries)

    def test_rerun_from_scratch_charges_both_attempts(self):
        loop, base = self._manual_loop()
        req = QueryRequest(0, ("a0", "a1"), "i6", 0.5)
        loop.execute_request(req)
        assert loop.store.get("i6", "a0") == Censored(60.0)
        assert loop.store.get("i6", "a1") == Censored(60.0)

        loop.controller.current = 100.0
        loop.execute_request(req)
        assert loop.store.get("i6", "a0") == Solved(90.0)
        assert loop.store.get("i6", "a1") == Censored(100.0)

        charged = [
            e.charged for e in loop.ledger.entries[base:] if e.instance == "i6"
        ]
        assert charged == [60.0, 60.0, 90.0, 100.0]

    def test_cached_sides_cost_nothing(self):
        loop, base = self._manual_loop()
        req = QueryRequest(0, ("a0", "a1"), "i6", 0.5)
        loop.execute_request(req)
        before = len(loop.ledger.entries)
        loop.execute_request(req)  # both censored at the current timeout
        assert len(loop.ledger.entries) == before
        assert loop.requests_executed == 2

        loop.controller.current = 100.0
        loop.execute_request(req)
        loop.execute_request(req)  # a0 solved, a1 censored at 100 == timeout
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
        loop.execute_request(QueryRequest(0, ("a0", "a1"), "i6", 0.5))
        assert loop.store.get("i6", "a1") == Censored(100.0)
        assert [e.charged for e in loop.ledger.entries[base:]] == [100.0]
        loop._update_pools()
        assert not loop.pool[0, k]


class TestStepping:
    def test_records_are_consistent(self):
        loop, _ = make_loop(n_train=10, n_algorithms=2, initial_size=2, batch_size=3)
        records = loop.run()
        assert records, "loop produced no steps"
        assert [r.step for r in records] == list(range(1, len(records) + 1))
        costs = [r.cost for r in records]
        assert costs == sorted(costs)
        for r in records:
            assert 0.0 <= r.data_frac <= 1.0
            assert r.timeout == loop.scenario.cutoff  # static without controller
        assert records[-1].data_frac == 1.0

    def test_exhaustion_terminates(self):
        loop, _ = make_loop(n_train=8, initial_size=2, batch_size=4)
        loop.run()
        assert not loop.pool.any()
        assert loop.step() is None

    def test_pool_accounting_invariant(self):
        loop, _ = make_loop(n_train=10, n_algorithms=3, initial_size=2, batch_size=5)
        for _ in range(6):
            before = loop.pool.copy()
            record = loop.step()
            if record is None:
                break
            open_cells = int(loop.pool.sum())
            assert record.resolved_cells + open_cells == loop.total_cells
            assert not (loop.pool & ~before).any()  # a cell never re-enters a pool

    def test_static_timeout_cost_never_exceeds_full_labelling(self):
        loop, s = make_loop(n_train=8, n_algorithms=2, initial_size=2, batch_size=2)
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
            batch_size=4,
            dynamic_timeout=dynamic_timeout,
        )
        loop.run(max_steps=5)

        def final(obs):
            return isinstance(obs, Solved) or obs.at >= s.cutoff

        for p, (a, b) in enumerate(loop.pairs):
            # open cells are undecided and can still change
            for inst in compress(loop.train, loop.pool[p]):
                obs_a = loop.store.get(inst, a)
                obs_b = loop.store.get(inst, b)
                if obs_a is None or obs_b is None:
                    continue
                assert pairwise_label(obs_a, obs_b) is None, (p, inst)
                assert not (final(obs_a) and final(obs_b)), (p, inst)
            for inst in compress(loop.train, ~loop.pool[p]):
                obs_a = loop.store.get(inst, a)
                obs_b = loop.store.get(inst, b)
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
            batch_size=2,
            dynamic_timeout=True,
        )
        records = loop.run(max_steps=12)
        timeouts = [r.timeout for r in records]
        assert timeouts == sorted(timeouts)
        assert timeouts[0] == loop.scenario.cutoff / 64
        for e in loop.ledger.entries:
            assert 0.0 <= e.charged <= loop.scenario.cutoff


class TestRetrainReuse:
    def test_reused_forests_equal_a_fresh_fit(self):
        loop, s = make_loop(
            n_train=16,
            n_algorithms=3,
            initial_size=3,
            batch_size=2,
            timeout_predictor=True,
            dynamic_timeout=True,
        )
        reused = refit_on_growth = 0
        for _ in range(12):
            before = loop.ensemble
            if loop.step() is None:
                break
            after = loop.ensemble
            timeout = after.timeout_models[0].trained_at
            fresh = train_ensemble(
                s, loop.train, loop.store, loop.imputer, loop.cfg.forest,
                timeout_enabled=True, current_timeout=timeout, allow_untrained=True,
            )
            models = after.pairwise + after.timeout_models
            # every model equals a from-scratch fit on the same store
            for new, ref in zip(models, fresh.pairwise + fresh.timeout_models):
                assert np.array_equal(new.labels, ref.labels)
                assert (new.model is None) == (ref.model is None)
                if new.model is not None:
                    assert dump_trees(new.model) == dump_trees(ref.model)
            # a slot keeps its forest object exactly when its labels are unchanged
            for new, old in zip(models, before.pairwise + before.timeout_models):
                if np.array_equal(new.labels, old.labels):
                    assert new.model is old.model
                    reused += new.model is not None
                elif new.model is not None:
                    assert new.model is not old.model
            # after a timeout growth every timeout model is trained at the new
            # level; those whose labels the growth changed were refit above
            if timeout > before.timeout_models[0].trained_at:
                for new, old in zip(after.timeout_models, before.timeout_models):
                    assert new.trained_at == timeout
                    refit_on_growth += new.model is not None and not np.array_equal(
                        new.labels, old.labels
                    )
        assert reused and refit_on_growth


class TestEvaluationReuse:
    def test_round_that_refits_nothing_evaluates_nothing(self, monkeypatch):
        import frugalas.loop as loop_mod

        calls = []
        evaluate = loop_mod.evaluate_selector

        def counted(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(loop_mod, "evaluate_selector", counted)
        loop, s = make_loop(n_train=12, n_algorithms=3, batch_size=2, timeout_predictor=True)
        first = loop.step()
        assert len(calls) == 2  # validation and test

        # Requests that run nothing change no label, so no forest is refit.
        monkeypatch.setattr(loop, "execute_request", lambda req: None)
        before = loop.ensemble
        record = loop.step()
        after = loop.ensemble
        for new, old in zip(
            after.pairwise + after.timeout_models, before.pairwise + before.timeout_models
        ):
            assert new.model is old.model
        assert len(calls) == 2
        assert record.step == first.step + 1
        assert record.validation_par10 == evaluate(after, loop.validation, s)
        assert record.test_par10 == evaluate(after, loop.test, s)
