"""Golden pin of the step logs: the determinism contract as one digest.

Every configuration of the grid runs to exhaustion on a small synthetic
scenario, and the sha256 over the step logs (relative path and bytes, in path
order) must equal the recorded value. A change that alters what the system
computes, rather than how fast, changes this digest; such a change must say
so and record the new value here.
"""

import hashlib

from frugalas.harness import FRUGAL_CONFIGS, PASSIVE_CONFIGS, ExperimentSpec, run_grid
from frugalas.synthetic import make_synthetic_scenario

GOLDEN_STEP_LOG_SHA256 = "a39d994c0ad5232da75f94534fe0e5bb9f46ddceeb2e4644c808c5b8a0f69ac0"


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
