"""Feature filtering and imputation, and the split protocol.

Features with a training missing-rate above 20% are dropped; remaining gaps
are filled with the training median. Splits carve a 10% test set, partition
the rest into 10 cross-validation folds, and reserve 10% of each fold's
training portion as a validation set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import Scenario, par10  # par10 is re-exported

MISSING_RATE_THRESHOLD = 0.20


class PreprocessError(ValueError):
    pass


@dataclass(frozen=True)
class ImputerModel:
    kept_features: list[str]
    kept_idx: np.ndarray  # indices into the scenario feature order
    medians: np.ndarray  # per kept feature

    def transform_row(self, row: np.ndarray) -> np.ndarray:
        out = np.asarray(row, dtype=np.float64)[self.kept_idx].copy()
        mask = np.isnan(out)
        out[mask] = self.medians[mask]
        return out

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        out = np.asarray(matrix, dtype=np.float64)[:, self.kept_idx].copy()
        mask = np.isnan(out)
        out[mask] = np.broadcast_to(self.medians, out.shape)[mask]
        return out


def fit_imputer(scenario: Scenario, train_instances) -> ImputerModel:
    train_instances = list(train_instances)
    if not train_instances:
        raise PreprocessError("empty training set")
    idx = [scenario.instance_index(i) for i in train_instances]
    sub = scenario.feature_matrix[idx]
    n = len(idx)

    kept_idx = []
    medians = []
    for j, name in enumerate(scenario.features):
        col = sub[:, j]
        missing = np.isnan(col)
        if missing.sum() / n > MISSING_RATE_THRESHOLD:
            continue
        values = col[~missing]
        if values.size == 0:
            continue
        kept_idx.append(j)
        medians.append(float(np.median(values)))
    if not kept_idx:
        raise PreprocessError("all features dropped by the missing-rate filter")
    kept_idx = np.array(kept_idx, dtype=np.intp)
    return ImputerModel(
        kept_features=[scenario.features[j] for j in kept_idx],
        kept_idx=kept_idx,
        medians=np.array(medians, dtype=np.float64),
    )


def apply_imputer(model: ImputerModel, row) -> np.ndarray:
    return model.transform_row(np.asarray(row, dtype=np.float64))


@dataclass(frozen=True)
class FoldSplit:
    train: list[str]
    validation: list[str]


@dataclass(frozen=True)
class SplitPlan:
    test: list[str]
    folds: list[FoldSplit]
    seed: int


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def make_splits(scenario: Scenario, seed: int, n_folds: int = 10) -> SplitPlan:
    """Deterministic test/fold/validation split of the scenario's instances."""
    instances = list(scenario.instances)
    n = len(instances)
    if n < 2 * n_folds:
        raise PreprocessError(f"too few instances ({n}) for {n_folds} folds")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    order = rng.permutation(n)
    shuffled = [instances[i] for i in order]

    n_test = _round_half_up(0.10 * n)
    test = shuffled[:n_test]
    remainder = shuffled[n_test:]

    # Contiguous chunks of the shuffled remainder form the fold partitions.
    parts: list[list[str]] = []
    base = len(remainder) // n_folds
    extra = len(remainder) % n_folds
    pos = 0
    for k in range(n_folds):
        size = base + (1 if k < extra else 0)
        parts.append(remainder[pos : pos + size])
        pos += size

    folds = []
    for k in range(n_folds):
        portion = [inst for j, part in enumerate(parts) if j != k for inst in part]
        sub_rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
        sub_order = sub_rng.permutation(len(portion))
        shuffled_portion = [portion[i] for i in sub_order]
        n_val = _round_half_up(0.10 * len(portion))
        validation = shuffled_portion[:n_val]
        train = shuffled_portion[n_val:]
        if not train or not validation:
            raise PreprocessError("fold too small to carve a validation set")
        folds.append(FoldSplit(train=train, validation=validation))
    return SplitPlan(test=test, folds=folds, seed=seed)
