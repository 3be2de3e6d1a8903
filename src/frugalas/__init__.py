"""Frugal algorithm selection: pairwise runtime classifiers trained under an
active-learning regime with timeout predictors and dynamic timeouts, replaying
recorded solver runs as the execution oracle."""

from .forest import KERNEL_IMPL, ForestConfig, RandomForest, fit_forest
from .loop import FrugalLoop, LoopConfig
from .preprocess import fit_imputer, make_splits, par10
from .scenario import Scenario, ScenarioError, load_scenario, scenario_stats
from .selector import evaluate_selector, select_algorithm, train_ensemble

__all__ = [
    "KERNEL_IMPL",
    "ForestConfig",
    "RandomForest",
    "fit_forest",
    "FrugalLoop",
    "LoopConfig",
    "fit_imputer",
    "make_splits",
    "par10",
    "Scenario",
    "ScenarioError",
    "load_scenario",
    "scenario_stats",
    "evaluate_selector",
    "select_algorithm",
    "train_ensemble",
]

__version__ = "0.1.0"
