"""Golden pins of the determinism contract, one digest each.

Every configuration of the grid runs to exhaustion on a small synthetic
scenario, and the sha256 over the step logs (relative path and bytes, in path
order) must equal the recorded value. A second digest covers `dump_trees` of
a fixed set of forests directly, over 1 to 35 features with continuous,
duplicate-valued and constant columns; it is also computed with numpy's
Generator patched away, as the trees come from PCG64 raw output alone, and
with the split scan's Gini table switched off, as the numpy scan's array
arithmetic forms the same scores. A change that alters what the system
computes, rather than how fast, changes these digests; such a change must
say so and record the new values here.

The inputs of both, the scenario and the fits, carry digests of their own,
checked first: a numpy release that samples `normal`, `uniform` or
`integers` differently fails as a moved fixture, not as a changed system.
"""

import hashlib

import numpy as np

from frugalas import forest as forest_mod
from frugalas.forest import ForestConfig, dump_trees, fit_forest
from frugalas.harness import FRUGAL_CONFIGS, PASSIVE_CONFIGS, ExperimentSpec, run_grid
from frugalas.synthetic import make_synthetic_scenario

GOLDEN_STEP_LOG_SHA256 = "a39d994c0ad5232da75f94534fe0e5bb9f46ddceeb2e4644c808c5b8a0f69ac0"
GOLDEN_TREES_SHA256 = "2a168b143c9e6f894292fcd93254c90c43a8dbd1098c48f859d235f498fe04a9"
# The inputs of the two digests above, drawn with numpy's `normal`, `uniform`
# and `integers`. A numpy release that samples differently moves these first.
SCENARIO_FIXTURE_SHA256 = "b432f49664533c3cabd47dbabcfed30922134c66a7af2276ec78bc84e512e884"
TREES_FIXTURE_SHA256 = "4a5d8a11b1066971987529a47a6acc8ea35ae6bf34b12d29747acd904c4b64fe"
FIXTURE_MOVED = "fixture moved (numpy sampling changed)"


def scenario_digest(scenario) -> str:
    """sha256 of the feature matrix, then every run's runtime and status in
    (instance, algorithm) order."""
    h = hashlib.sha256(scenario.feature_matrix.tobytes())
    for i in scenario.instances:
        for a in scenario.algorithms:
            run = scenario.run(i, a)
            h.update(f"{run.runtime!r} {run.status}\n".encode())
    return h.hexdigest()


def golden_scenario():
    """The scenario of the step-log digest, checked against its own digest."""
    scenario = make_synthetic_scenario(40, 3, seed=0)
    assert scenario_digest(scenario) == SCENARIO_FIXTURE_SHA256, FIXTURE_MOVED
    return scenario


def step_log_digest(out_dir) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*.csv")):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def test_step_logs_match_golden_digest(tmp_path):
    spec = ExperimentSpec(
        scenario=golden_scenario(),
        out_dir=tmp_path / "runs",
        configurations=FRUGAL_CONFIGS + PASSIVE_CONFIGS,
        folds=[0, 1],
        seeds=[0],
        n_trees=5,
    )
    paths = run_grid(spec)
    assert len(paths) == 20
    assert step_log_digest(spec.out_dir) == GOLDEN_STEP_LOG_SHA256


def fits_digest(fits) -> str:
    """sha256 of every fit's X shape and bytes, y bytes and config."""
    h = hashlib.sha256()
    for X, y, config in fits:
        h.update(repr((X.shape, config.n_trees, config.seed)).encode())
        h.update(X.tobytes() + y.astype(np.int64).tobytes())
    return h.hexdigest()


def golden_tree_fits():
    """(X, y, config) of every forest in the trees digest, checked against
    their own digest."""
    fits = []
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
            fits.append((X, y, ForestConfig(n_trees=7, seed=int(rng.integers(1000)))))
    assert fits_digest(fits) == TREES_FIXTURE_SHA256, FIXTURE_MOVED
    return fits


def trees_digest(fits) -> str:
    h = hashlib.sha256()
    for X, y, config in fits:
        h.update(dump_trees(fit_forest(X, y, config)).encode())
    return h.hexdigest()


def test_trees_match_golden_digest():
    assert trees_digest(golden_tree_fits()) == GOLDEN_TREES_SHA256


def test_trees_need_no_generator(monkeypatch):
    # The trees come from PCG64 raw output alone. The fixtures are drawn
    # with a Generator first, then every way to make one refuses.
    fits = golden_tree_fits()

    def refuse(*args, **kwargs):
        raise AssertionError("fit_forest made a numpy Generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "Generator", refuse)
    assert trees_digest(fits) == GOLDEN_TREES_SHA256


def test_trees_need_no_gini_table(monkeypatch):
    # With a bound of 0 every numpy scan forms its terms by arithmetic.
    monkeypatch.setattr(forest_mod, "GINI_ROWS", 0)
    assert trees_digest(golden_tree_fits()) == GOLDEN_TREES_SHA256
