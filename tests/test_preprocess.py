import numpy as np
import pytest

from conftest import build_scenario
from frugalas.preprocess import (
    PreprocessError,
    fit_imputer,
    make_splits,
)
from frugalas.scenario import OK, TIMEOUT, par10
from frugalas.synthetic import make_synthetic_scenario

NAN = np.nan


def scenario_with_features(features):
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    return build_scenario(np.ones((n, 2)), features=features)


class TestImputer:
    def test_high_missing_rate_dropped(self):
        # feature 0 missing in 3 of 10 rows (30% > 20%): dropped
        col = np.array([1.0, NAN, NAN, NAN, 2, 3, 4, 5, 6, 7])
        features = np.column_stack([col, np.arange(10.0)])
        s = scenario_with_features(features)
        model = fit_imputer(s, s.instances)
        assert model.kept_idx.tolist() == [1]

    def test_median_skips_missing(self):
        # non-missing values {1, 3, 1, 3}: even count, median is the midpoint
        features = np.array([[1.0], [NAN], [3.0], [1.0], [3.0]])
        s = scenario_with_features(features)
        model = fit_imputer(s, s.instances)
        assert model.medians[0] == 2.0

    def test_boundary_rate_kept(self):
        # missing rates 0%, 10%, 20%, 25%: exactly 3 kept (20% is inclusive)
        rng = np.random.default_rng(0)
        features = rng.uniform(size=(20, 4))
        features[:2, 1] = NAN
        features[:4, 2] = NAN
        features[:5, 3] = NAN
        s = scenario_with_features(features)
        model = fit_imputer(s, s.instances)
        assert model.kept_idx.tolist() == [0, 1, 2]

    def test_apply_dense_row_unchanged(self):
        features = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        s = scenario_with_features(features)
        model = fit_imputer(s, s.instances)
        out = model.transform(np.array([[7.0, 8.0]]))
        assert np.array_equal(out, [[7.0, 8.0]])

    def test_apply_all_missing_gives_medians(self):
        features = np.array([[1.0, 10.0], [3.0, 30.0], [5.0, 20.0]])
        s = scenario_with_features(features)
        model = fit_imputer(s, s.instances)
        out = model.transform(np.array([[NAN, NAN]]))
        assert np.array_equal(out, [[3.0, 20.0]])

    def test_apply_mixed_row(self):
        rng = np.random.default_rng(1)
        features = rng.uniform(size=(20, 4))
        features[:2, 1] = NAN
        features[:4, 2] = NAN
        features[:5, 3] = NAN  # dropped
        s = scenario_with_features(features)
        model = fit_imputer(s, s.instances)
        row = np.array([[0.5, NAN, 0.25, 0.75]])
        out = model.transform(row)
        med1 = np.median(features[2:, 1])
        assert np.array_equal(out, [[0.5, med1, 0.25]])
        assert np.isnan(row[0, 1])  # the input is left as it was

    def test_imputation_idempotent_on_dense(self):
        rng = np.random.default_rng(2)
        features = rng.uniform(size=(15, 3))
        s = scenario_with_features(features)
        model = fit_imputer(s, s.instances)
        for row in features:
            once = model.transform(row.reshape(1, -1))
            # a dense row comes back unchanged, however often it is imputed
            assert np.array_equal(once, row.reshape(1, -1))
            assert np.array_equal(model.transform(once), once)

    def test_all_dropped_is_error(self):
        features = np.full((10, 1), NAN)
        features[:2, 0] = 1.0  # 80% missing
        s = scenario_with_features(features)
        with pytest.raises(PreprocessError):
            fit_imputer(s, s.instances)


class TestPar10:
    def test_solved(self):
        assert par10(12.5, OK, 3600.0) == 12.5

    def test_timeout_is_ten_times_cutoff(self):
        assert par10(3600.0, TIMEOUT, 3600.0) == 36000.0

    def test_sum_example(self):
        total = par10(10, OK, 100) + par10(100, TIMEOUT, 100) + par10(90, OK, 100)
        assert total == 1100.0

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            cutoff = float(rng.uniform(1, 1000))
            runtime = float(rng.uniform(0, cutoff))
            status = OK if rng.random() < 0.5 else TIMEOUT
            score = par10(runtime, status, cutoff)
            assert score >= min(runtime, cutoff)
            assert (score == 10 * cutoff) == (status != OK)


class TestSplits:
    def test_sizes_100_instances(self):
        s = make_synthetic_scenario(100, 2, seed=0)
        plan = make_splits(s, seed=0)
        assert len(plan.test) == 10
        for fold in plan.folds:
            assert len(fold.train) + len(fold.validation) == 81
            assert len(fold.validation) == 8  # round(0.10 * 81)
            assert not set(fold.train) & set(fold.validation)

    def test_deterministic(self):
        s = make_synthetic_scenario(100, 2, seed=0)
        p1 = make_splits(s, seed=7)
        p2 = make_splits(s, seed=7)
        assert p1 == p2

    def test_seed_changes_test_set(self):
        s = make_synthetic_scenario(100, 2, seed=0)
        assert set(make_splits(s, 1).test) != set(make_splits(s, 2).test)

    def test_partition_property(self):
        for seed in range(5):
            s = make_synthetic_scenario(57, 2, seed=seed)
            plan = make_splits(s, seed=seed)
            everything = set(plan.test)
            for fold in plan.folds:
                covered = set(fold.train) | set(fold.validation) | set(plan.test)
                assert covered <= set(s.instances)
                everything |= set(fold.train) | set(fold.validation)
            assert everything == set(s.instances)

    def test_too_few_instances(self):
        s = make_synthetic_scenario(19, 2, seed=0)
        with pytest.raises(PreprocessError, match=r"too few instances \(19\) for 10 folds"):
            make_splits(s, seed=0)
