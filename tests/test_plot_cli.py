import itertools
import math

import numpy as np
import pytest

from conftest import build_scenario
from frugalas import cli
from frugalas.cli import _expand_configs, main
from frugalas.harness import (
    FRUGAL_CONFIGS,
    ExperimentSpec,
    read_step_logs,
    run_grid,
    summarize,
    write_summary,
)
from frugalas.loop import FrugalLoop
from frugalas.plotsvg import emit_plot
from frugalas.preprocess import make_splits
from frugalas.synthetic import make_synthetic_scenario, write_scenario_dir


def _summary_rows(configs):
    rows = []
    for config in configs:
        for k in range(51):
            ratio = round(1.0 + 0.02 * k, 2)
            rows.append(
                {
                    "config": config,
                    "ratio": repr(ratio),
                    "mean_cost_frac": repr(0.2 + 0.3 * (ratio - 1.0)),
                    "stderr_cost_frac": repr(0.05),
                    "mean_data_frac": repr(0.1),
                    "stderr_data_frac": repr(0.02),
                    "n_runs": "5",
                }
            )
    return rows


class TestPlot:
    def test_single_config_has_one_curve_and_ribbon(self, tmp_path):
        out = tmp_path / "plot.svg"
        emit_plot(_summary_rows(["random"]), out)
        text = out.read_text()
        assert text.count('<polyline class="curve"') == 1
        assert text.count('<path class="ribbon"') == 1
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")

    def test_one_curve_per_config(self, tmp_path):
        configs = ["uncertainty", "uncertainty-to", "random", "random-to-dt"]
        out = emit_plot(_summary_rows(configs), tmp_path / "p.svg")
        text = out.read_text()
        assert text.count('<polyline class="curve"') == 4
        assert text.count('<path class="ribbon"') == 4
        for config in configs:
            assert f">{config}</text>" in text

    def test_aggregate_by_dt_gives_two_groups(self, tmp_path):
        configs = [
            "uncertainty",
            "uncertainty-dt",
            "random-to",
            "random-to-dt",
        ]
        out = emit_plot(_summary_rows(configs), tmp_path / "p.svg", aggregate_by="dt")
        text = out.read_text()
        assert text.count('<polyline class="curve"') == 2
        assert ">DT on</text>" in text and ">DT off</text>" in text

    def test_aggregate_by_selection(self, tmp_path):
        configs = ["uncertainty", "uncertainty-to", "random", "random-dt"]
        out = emit_plot(
            _summary_rows(configs), tmp_path / "p.svg", aggregate_by="selection"
        )
        text = out.read_text()
        assert text.count('<polyline class="curve"') == 2
        assert ">uncertainty</text>" in text and ">random</text>" in text

    def test_data_axis_label(self, tmp_path):
        out = emit_plot(_summary_rows(["random"]), tmp_path / "p.svg", y_axis="data")
        assert "min data fraction" in out.read_text()

    def test_empty_rows_rejected_without_writing(self, tmp_path):
        out = tmp_path / "p.svg"
        with pytest.raises(ValueError):
            emit_plot([], out)
        assert not out.exists()

    def test_bad_axis_and_aggregation(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot(_summary_rows(["random"]), tmp_path / "p.svg", y_axis="steps")
        with pytest.raises(ValueError):
            emit_plot(
                _summary_rows(["random"]), tmp_path / "p.svg", aggregate_by="fold"
            )


@pytest.fixture
def scenario_dir(tmp_path):
    scenario = make_synthetic_scenario(40, 2, seed=0)
    return write_scenario_dir(scenario, tmp_path / "SYN")


class TestStatsCommand:
    def test_stats_output(self, tmp_path, capsys):
        scenario = build_scenario([[1.0, 10.0], [10.0, 1.0]])
        directory = write_scenario_dir(scenario, tmp_path / "FIX")
        assert main(["stats", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "scenario      FIX" in out
        assert "instances     2" in out
        assert "algorithms    2" in out
        assert "features      1" in out

    def test_missing_scenario_is_data_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope")]) == 2
        assert "description.txt" in capsys.readouterr().err


class TestArgumentErrors:
    def test_invalid_choice_exits_with_usage(self, scenario_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", str(scenario_dir), "--selection", "greedy"])
        assert exc.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1


RUN_FAST = ["--folds", "1", "--seeds", "1", "--n-trees", "5"]


@pytest.fixture
def grid_calls(monkeypatch):
    """The specs `frugalas run` hands to `run_grid`, which runs nothing; so a
    setting that the spec lets through fails an assertion at once instead of
    running a grid that may never stop."""
    calls = []
    monkeypatch.setattr(cli, "run_grid", lambda spec, progress=None: calls.append(spec))
    return calls


class TestRunCommand:
    def test_single_config_run(self, scenario_dir, tmp_path, capsys):
        out = tmp_path / "res"
        code = main(
            ["run", str(scenario_dir), "--selection", "random",
             "--timeout-predictor", "off", "--dynamic-timeout", "off",
             *RUN_FAST, "--out", str(out)]
        )
        assert code == 0
        assert "done random fold=0 seed=0" in capsys.readouterr().out
        rows = read_step_logs(out)
        assert rows
        assert float(rows[-1]["perf_ratio"]) == 1.0

    def test_grid_expansion_covers_all_eight(self, scenario_dir, tmp_path):
        out = tmp_path / "res"
        code = main(
            ["run", str(scenario_dir), "--selection", "both",
             "--timeout-predictor", "both", "--dynamic-timeout", "both",
             *RUN_FAST, "--out", str(out)]
        )
        assert code == 0
        assert sorted(d.name for d in out.iterdir()) == sorted(
            [
                "uncertainty", "uncertainty-to", "uncertainty-dt",
                "uncertainty-to-dt", "random", "random-to", "random-dt",
                "random-to-dt",
            ]
        )

    def test_rerun_is_idempotent(self, scenario_dir, tmp_path):
        out = tmp_path / "res"
        argv = ["run", str(scenario_dir), "--selection", "random",
                "--timeout-predictor", "off", "--dynamic-timeout", "off",
                *RUN_FAST, "--out", str(out)]
        assert main(argv) == 0
        (log,) = sorted(out.rglob("*.csv"))
        stamp = log.stat().st_mtime_ns
        assert main(argv) == 0
        assert log.stat().st_mtime_ns == stamp

    def test_env_seed_override(self, scenario_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("FRUGAL_SEED", "7")
        out = tmp_path / "res"
        assert main(
            ["run", str(scenario_dir), "--selection", "random",
             "--timeout-predictor", "off", "--dynamic-timeout", "off",
             *RUN_FAST, "--out", str(out)]
        ) == 0
        assert (out / "random" / "fold00_seed7.csv").exists()

    def test_all_ties_is_data_error(self, tmp_path, capsys):
        # every pair ties on every instance: no pairwise model can be trained
        rng = np.random.default_rng(0)
        scenario = build_scenario(np.ones((30, 2)), features=rng.uniform(size=(30, 2)))
        directory = write_scenario_dir(scenario, tmp_path / "TIES")
        code = main(
            ["run", str(directory), "--selection", "random",
             "--timeout-predictor", "off", "--dynamic-timeout", "off",
             *RUN_FAST, "--out", str(tmp_path / "res")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "error: no labelled data" in err
        assert "Traceback" not in err


class TestExpandConfigs:
    @pytest.mark.parametrize(
        "selection, to, dt",
        itertools.product(
            ["uncertainty", "random", "both"], ["on", "off", "both"], ["on", "off", "both"]
        ),
    )
    def test_choices_pick_the_matching_grid_configs(self, selection, to, dt):
        selections = ["uncertainty", "random"] if selection == "both" else [selection]
        suffixes = {"on": [True], "off": [False], "both": [True, False]}
        expected = {
            sel + ("-to" if use_to else "") + ("-dt" if use_dt else "")
            for sel in selections
            for use_to in suffixes[to]
            for use_dt in suffixes[dt]
        }
        configs = _expand_configs(selection, to, dt)
        assert set(configs) == expected
        assert configs == [c for c in FRUGAL_CONFIGS if c in expected]


class TestRunUsageErrors:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--folds", "11"], "no fold 10"),
            (["--n-trees", "0"], "n_trees must be >= 1"),
            (["--folds", "0"], "folds must be nonempty"),
            (["--seeds", "0"], "seeds must be nonempty"),
        ],
    )
    def test_out_of_range_value_exits_with_usage(self, scenario_dir, tmp_path, capsys, flags,
                                                  message):
        out = tmp_path / "res"
        argv = ["run", str(scenario_dir), "--selection", "random",
                "--timeout-predictor", "off", "--dynamic-timeout", "off",
                *RUN_FAST, *flags, "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()  # rejected before any cell ran

    @pytest.mark.parametrize(
        "setting, flags, message",
        [
            ("batch_frac = 2", [], "batch_frac must be in (0, 1]"),
            ("batch_frac = nan", [], "batch_frac must be in (0, 1]"),
            ("batch_frac = inf", [], "batch_frac must be in (0, 1]"),
            ("", ["--batch-frac", "2"], "batch_frac must be in (0, 1]"),
            ("dt_initial_frac = 2", [], "dt_initial_frac must be in (0, 1]"),
            ("dt_growth = 1", [], "dt_growth must be > 1"),
            ("dt_growth = 0.5", [], "dt_growth must be > 1"),
            ("dt_tolerance = nan", [], "dt_tolerance must be > 0"),
            ("dt_window = 0", [], "dt_window must be >= 1"),
        ],
        ids=["batch_frac=2", "batch_frac=nan", "batch_frac=inf", "--batch-frac=2",
             "dt_initial_frac=2", "dt_growth=1", "dt_growth=0.5", "dt_tolerance=nan",
             "dt_window=0"],
    )
    def test_loop_setting_out_of_range_exits_with_usage(self, scenario_dir, tmp_path, capsys,
                                                        grid_calls, setting, flags, message):
        conf = tmp_path / "exp.conf"
        conf.write_text(setting + "\n")
        argv = ["run", str(scenario_dir), "--config", str(conf), "--selection", "random",
                "--timeout-predictor", "off", "--dynamic-timeout", "on",
                *RUN_FAST, *flags, "--out", str(tmp_path / "res")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err
        assert grid_calls == []  # rejected before any cell ran

    def test_non_integer_seed_variable_exits_with_usage(self, scenario_dir, tmp_path, capsys,
                                                        monkeypatch):
        monkeypatch.setenv("FRUGAL_SEED", "abc")
        out = tmp_path / "res"
        argv = ["run", str(scenario_dir), "--selection", "random",
                "--timeout-predictor", "off", "--dynamic-timeout", "off",
                *RUN_FAST, "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error: FRUGAL_SEED must be an integer, got 'abc'" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_spec_rejects_empty_folds_and_seeds(self):
        scenario = make_synthetic_scenario(40, 2, seed=0)
        with pytest.raises(ValueError, match="folds must be nonempty"):
            ExperimentSpec(scenario, "out", folds=[])
        with pytest.raises(ValueError, match="seeds must be nonempty"):
            ExperimentSpec(scenario, "out", seeds=[])

    def test_spec_rejects_folds_outside_the_ten(self):
        scenario = make_synthetic_scenario(40, 2, seed=0)
        for folds in ([10], [-1], [0, 3, 12]):
            with pytest.raises(ValueError, match="no fold"):
                ExperimentSpec(scenario, "out", folds=folds)
        with pytest.raises(ValueError, match="n_trees"):
            ExperimentSpec(scenario, "out", n_trees=0)
        assert ExperimentSpec(scenario, "out", folds=[0, 9], n_trees=1).folds == [0, 9]


class TestConfigFile:
    def _write(self, tmp_path, text):
        path = tmp_path / "exp.conf"
        path.write_text(text)
        return path

    def test_config_file_drives_run(self, scenario_dir, tmp_path):
        out = tmp_path / "res"
        conf = self._write(
            tmp_path,
            "# experiment setup\n"
            "selection = random\n"
            "timeout_predictor = off\n"
            "dynamic_timeout = off\n"
            "folds = 1\n"
            "seeds = 1\n"
            "n_trees = 5\n"
            f"out = {out}\n",
        )
        assert main(["run", str(scenario_dir), "--config", str(conf)]) == 0
        assert (out / "random" / "fold00_seed0.csv").exists()

    def test_loop_settings_reach_the_loop(self, scenario_dir, tmp_path, grid_calls):
        conf = self._write(
            tmp_path,
            "batch_frac = 0.1\ndt_initial_frac = 0.125\ndt_growth = 3\n"
            "dt_window = 4\ndt_tolerance = 0.05\n",
        )
        argv = ["run", str(scenario_dir), "--config", str(conf), *RUN_FAST,
                "--out", str(tmp_path / "res")]
        assert main(argv) == 0
        (spec,) = grid_calls
        scenario = spec.scenario
        plan = make_splits(scenario, seed=0)
        fold = plan.folds[0]
        loop = FrugalLoop(scenario, fold, plan.test, spec.loop_config("uncertainty-dt", 0))
        assert loop.batch == math.ceil(0.1 * len(fold.train))
        controller = loop.controller
        assert controller.current == scenario.cutoff / 8
        assert controller.growth_factor == 3.0
        assert controller.plateau_window == 4
        assert controller.plateau_tolerance == 0.05

    def test_unknown_key_rejected(self, scenario_dir, tmp_path, capsys):
        conf = self._write(tmp_path, "tree_count = 5\n")
        assert main(["run", str(scenario_dir), "--config", str(conf)]) == 1
        assert "unknown key 'tree_count'" in capsys.readouterr().err

    def test_malformed_line_rejected(self, scenario_dir, tmp_path, capsys):
        conf = self._write(tmp_path, "selection random\n")
        assert main(["run", str(scenario_dir), "--config", str(conf)]) == 1
        assert "expected 'key = value'" in capsys.readouterr().err

    def test_flag_overrides_config_with_warning(self, scenario_dir, tmp_path, capsys):
        out = tmp_path / "res"
        conf = self._write(
            tmp_path,
            "selection = uncertainty\ntimeout_predictor = off\n"
            "dynamic_timeout = off\nfolds = 1\nseeds = 1\nn_trees = 5\n",
        )
        assert main(
            ["run", str(scenario_dir), "--config", str(conf),
             "--selection", "random", "--out", str(out)]
        ) == 0
        err = capsys.readouterr().err
        assert "--selection overrides config file" in err
        assert (out / "random").exists()
        assert not (out / "uncertainty").exists()


class TestSummarizeAndPlotCommands:
    def _run_once(self, scenario_dir, out):
        assert main(
            ["run", str(scenario_dir), "--selection", "random",
             "--timeout-predictor", "off", "--dynamic-timeout", "off",
             *RUN_FAST, "--out", str(out)]
        ) == 0

    def test_summarize_then_plot(self, scenario_dir, tmp_path, capsys):
        out = tmp_path / "res"
        self._run_once(scenario_dir, out)
        assert main(["summarize", str(out)]) == 0
        summary = out / "summary.csv"
        assert summary.exists()
        assert main(["plot", str(summary)]) == 0
        svg = out / "summary.svg"
        assert svg.exists()
        assert '<polyline class="curve"' in svg.read_text()

    def test_plot_aggregation_flag(self, scenario_dir, tmp_path):
        out = tmp_path / "res"
        self._run_once(scenario_dir, out)
        assert main(["summarize", str(out)]) == 0
        dest = tmp_path / "dt.svg"
        assert main(
            ["plot", str(out / "summary.csv"), "--aggregate-by", "dt",
             "--y-axis", "data", "--out", str(dest)]
        ) == 0
        assert ">DT off</text>" in dest.read_text()

    def test_summarize_reads_step_logs_only(self, tmp_path, capsys):
        # the first summary lands beside the step logs; the second run must
        # not take it for one
        directory = write_scenario_dir(make_synthetic_scenario(40, 3), tmp_path / "SYN3")
        out = tmp_path / "res"
        assert main(
            ["run", str(directory), "--selection", "random",
             "--timeout-predictor", "off", "--dynamic-timeout", "off",
             "--folds", "1", "--seeds", "1", "--n-trees", "2", "--out", str(out)]
        ) == 0
        assert main(["summarize", str(out)]) == 0
        first = (out / "summary.csv").read_bytes()
        assert main(["summarize", str(out)]) == 0
        assert (out / "summary.csv").read_bytes() == first
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, name, text",
        [
            ("plot", "summary.csv", "a,b\n1,2\n"),
            ("plot", "summary.csv", "config,ratio,mean_cost_frac,stderr_cost_frac,"
             "mean_data_frac,stderr_data_frac,n_runs\nrandom,abc,0.5,0.0,0.5,0.0,1\n"),
            ("summarize", "random/fold00_seed0.csv", "config,fold\nrandom,0\n"),
            ("summarize", "random/fold00_seed0.csv", "config,scenario,fold,seed,step,"
             "timeout_s,labels,cost_s,cost_frac,data_frac,test_par10_s,perf_ratio\n"
             "random,SYN,0,0,1,100.0,1,5.0,0.5,0.5,50.0,abc\n"),
        ],
        ids=["plot-no-columns", "plot-text-ratio", "summarize-no-seed", "summarize-text-ratio"],
    )
    def test_malformed_csv_is_data_error(self, tmp_path, capsys, command, name, text):
        path = tmp_path / "res" / name
        path.parent.mkdir(parents=True)
        path.write_text(text)
        target = path if command == "plot" else tmp_path / "res"
        assert main([command, str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_summarize_empty_dir_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["summarize", str(empty)]) == 2
        assert "no step logs" in capsys.readouterr().err
