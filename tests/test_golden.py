"""Golden pins of the determinism contract, one digest each.

Every configuration of the grid runs to exhaustion on a small synthetic
scenario, and the sha256 over the step logs (relative path and bytes, in path
order) must equal the recorded value. A second digest covers `dump_trees` of
a fixed set of forests directly, over 1 to 35 features with continuous,
duplicate-valued and constant columns. A change that alters what the system
computes, rather than how fast, changes these digests; such a change must say
so and record the new values here.
"""

import hashlib

import numpy as np

from frugalas.forest import ForestConfig, dump_trees, fit_forest
from frugalas.harness import FRUGAL_CONFIGS, PASSIVE_CONFIGS, ExperimentSpec, run_grid
from frugalas.synthetic import make_synthetic_scenario

GOLDEN_STEP_LOG_SHA256 = "a39d994c0ad5232da75f94534fe0e5bb9f46ddceeb2e4644c808c5b8a0f69ac0"
GOLDEN_TREES_SHA256 = "2a168b143c9e6f894292fcd93254c90c43a8dbd1098c48f859d235f498fe04a9"


def step_log_digest(out_dir) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*.csv")):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def test_step_logs_match_golden_digest(tmp_path):
    spec = ExperimentSpec(
        scenario=make_synthetic_scenario(40, 3, seed=0),
        out_dir=tmp_path / "runs",
        configurations=FRUGAL_CONFIGS + PASSIVE_CONFIGS,
        folds=[0, 1],
        seeds=[0],
        n_trees=5,
    )
    paths = run_grid(spec)
    assert len(paths) == 20
    assert step_log_digest(spec.out_dir) == GOLDEN_STEP_LOG_SHA256


def test_trees_match_golden_digest():
    h = hashlib.sha256()
    rng = np.random.default_rng(12345)
    for n_features in range(1, 36):
        for kind in ("continuous", "duplicates", "mixed"):
            n = int(rng.integers(2, 120))
            if kind == "continuous":
                X = rng.normal(size=(n, n_features))
            elif kind == "duplicates":
                X = rng.integers(0, 4, size=(n, n_features)).astype(float)
            else:
                X = rng.normal(size=(n, n_features))
                X[:, ::2] = np.round(X[:, ::2])  # duplicates, both signs of zero
                X[:, 0] = 1.0  # a constant column
            y = (rng.uniform(size=n) < rng.uniform(0.1, 0.9)).astype(int)
            forest = fit_forest(X, y, ForestConfig(n_trees=7, seed=int(rng.integers(1000))))
            h.update(dump_trees(forest).encode())
    assert h.hexdigest() == GOLDEN_TREES_SHA256
