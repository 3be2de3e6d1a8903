import numpy as np
import pytest

from conftest import build_scenario
from frugalas.scenario import (
    OK,
    OTHER_FAILURE,
    TIMEOUT,
    ScenarioError,
    load_scenario,
    scenario_stats,
)
from frugalas.synthetic import make_synthetic_scenario, write_scenario_dir


@pytest.fixture
def fixture_dir(tmp_path):
    scenario = build_scenario(
        [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
        features=np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]]),
    )
    return write_scenario_dir(scenario, tmp_path / "fix")


def test_load_minimal_scenario(fixture_dir):
    s = load_scenario(fixture_dir)
    assert s.id == "FIX"
    assert len(s.instances) == 3
    assert len(s.algorithms) == 2
    assert len(s.runs) == 6
    assert s.cutoff == 100.0
    assert s.run("i0", "a1").runtime == 2.0
    assert s.run("i0", "a1").status == OK


def test_load_is_deterministic(fixture_dir):
    s1 = load_scenario(fixture_dir)
    s2 = load_scenario(fixture_dir)
    assert s1.instances == s2.instances
    assert s1.algorithms == s2.algorithms
    assert s1.runs == s2.runs
    assert np.array_equal(s1.feature_matrix, s2.feature_matrix)


def test_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="description.txt"):
        load_scenario(tmp_path)


def test_non_runtime_scenario(fixture_dir):
    desc = fixture_dir / "description.txt"
    desc.write_text(desc.read_text().replace("runtime", "solution_quality"))
    with pytest.raises(ScenarioError, match="performance_type"):
        load_scenario(fixture_dir)


def test_non_total_runs(fixture_dir):
    runs = fixture_dir / "algorithm_runs.arff"
    lines = runs.read_text().splitlines()
    runs.write_text("\n".join(lines[:-1]) + "\n")  # drop one (instance, algorithm)
    with pytest.raises(ScenarioError, match="not total"):
        load_scenario(fixture_dir)


def test_unknown_instance_in_runs(fixture_dir):
    runs = fixture_dir / "algorithm_runs.arff"
    text = runs.read_text().replace("i2,1.0,a1", "ghost,1.0,a1")
    runs.write_text(text)
    with pytest.raises(ScenarioError, match="ghost"):
        load_scenario(fixture_dir)


def test_runstatus_mapping(tmp_path):
    scenario = build_scenario(
        [[10.0, 100.0], [5.0, 120.0]],
        statuses=[[OK, TIMEOUT], [OTHER_FAILURE, TIMEOUT]],
    )
    directory = write_scenario_dir(scenario, tmp_path / "st")
    s = load_scenario(directory)
    assert s.run("i0", "a0").status == OK
    assert s.run("i0", "a1").status == TIMEOUT  # runtime >= cutoff
    assert s.run("i1", "a0").status == OTHER_FAILURE  # crashed below cutoff
    assert s.run("i1", "a1").status == TIMEOUT


def test_duplicate_repetition_rejected(fixture_dir):
    runs = fixture_dir / "algorithm_runs.arff"
    text = runs.read_text().replace("i0,1.0,a0", "i0,2.0,a0")
    runs.write_text(text)
    with pytest.raises(ScenarioError, match="repetition"):
        load_scenario(fixture_dir)


def test_stats_two_by_two(two_by_two):
    stats = scenario_stats(two_by_two)
    assert stats.total_time * 3600 == pytest.approx(22.0)
    assert stats.vbs_time * 3600 == pytest.approx(2.0)
    assert stats.sbs_time * 3600 == pytest.approx(11.0)


def test_stats_dominant_algorithm():
    s = build_scenario([[1.0, 5.0], [2.0, 9.0], [3.0, 7.0]])
    stats = scenario_stats(s)
    assert stats.vbs_time == stats.sbs_time


def test_stats_ordering_random_scenarios():
    for seed in range(10):
        s = make_synthetic_scenario(40, 3, seed=seed)
        stats = scenario_stats(s)
        assert stats.vbs_time <= stats.sbs_time <= stats.total_time


def test_instance_index_matches_list_position():
    s = make_synthetic_scenario(40, 3, seed=0)
    for k, inst in enumerate(s.instances):
        assert s.instance_index(inst) == k
        assert np.array_equal(s.feature_row(inst), s.feature_matrix[k])
