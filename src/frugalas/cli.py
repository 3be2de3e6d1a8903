"""Command-line surface: inspect scenarios, run experiment grids, summarize
step logs and plot curves.

Exit codes: 0 success, 1 usage/configuration error, 2 data or parse error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .arff import ArffError
from .harness import (
    ExperimentSpec,
    read_step_logs,
    read_summary,
    run_grid,
    summarize,
    write_summary,
)
from .plotsvg import emit_plot
from .preprocess import PreprocessError
from .scenario import ScenarioError, load_scenario, scenario_stats

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


# Documented config-file knobs: name -> (parser, description).
def _bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "on", "1", "yes"):
        return True
    if lowered in ("false", "off", "0", "no"):
        return False
    raise ValueError(f"not a boolean: '{text}'")


def _tri(text: str) -> str:
    if text.lower() in ("both",):
        return "both"
    return "on" if _bool(text) else "off"


CONFIG_KEYS = {
    "selection": lambda v: v if v in ("uncertainty", "random", "both") else _fail(v),
    "timeout_predictor": _tri,
    "dynamic_timeout": _tri,
    "n_trees": int,
    "seed": int,
    "folds": int,
    "seeds": int,
    "batch_frac": float,
    "dt_initial_frac": float,
    "dt_growth": float,
    "dt_window": int,
    "dt_tolerance": float,
    "jobs": int,
    "out": str,
}


def _fail(value):
    raise ValueError(f"invalid value '{value}'")


def parse_config_file(path) -> dict:
    """Line-oriented 'key = value' file; unknown keys are rejected."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key '{key}'")
        try:
            values[key] = CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def _expand_configs(selection: str, to: str, dt: str) -> list[str]:
    selections = ["uncertainty", "random"] if selection == "both" else [selection]
    tos = [True, False] if to == "both" else [to == "on"]
    dts = [True, False] if dt == "both" else [dt == "on"]
    configs = []
    for sel in selections:
        for use_to in (True, False):
            for use_dt in (True, False):
                if use_to not in tos or use_dt not in dts:
                    continue
                config_id = sel
                if use_to:
                    config_id += "-to"
                if use_dt:
                    config_id += "-dt"
                configs.append(config_id)
    return configs


def cmd_stats(args) -> int:
    scenario = load_scenario(args.scenario)
    stats = scenario_stats(scenario)
    print(f"scenario      {scenario.id}")
    print(f"instances     {stats.n_instances}")
    print(f"algorithms    {stats.n_algorithms}")
    print(f"features      {stats.n_features}")
    print(f"total_time_h  {round(stats.total_time)}")
    print(f"vbs_time_h    {round(stats.vbs_time)}")
    print(f"sbs_time_h    {round(stats.sbs_time)}")
    return EXIT_OK


def cmd_run(args) -> int:
    settings = parse_config_file(args.config) if args.config else {}

    # Flags win over config-file values, with a warning on conflict.
    def pick(name, flag_value, default):
        if flag_value is not None:
            if name in settings and settings[name] != flag_value:
                print(
                    f"warning: --{name.replace('_', '-')} overrides config file "
                    f"value {settings[name]!r}",
                    file=sys.stderr,
                )
            return flag_value
        return settings.get(name, default)

    selection = pick("selection", args.selection, "both")
    to = pick("timeout_predictor", args.timeout_predictor, "both")
    dt = pick("dynamic_timeout", args.dynamic_timeout, "both")
    n_folds_to_run = pick("folds", args.folds, 10)
    n_seeds = pick("seeds", args.seeds, 5)
    base_seed = pick("seed", args.seed, 0)
    out = Path(pick("out", args.out, "results"))

    env_seed = os.environ.get("FRUGAL_SEED")
    if env_seed is not None:
        try:
            base_seed = int(env_seed)
        except ValueError:
            raise UsageError(f"FRUGAL_SEED must be an integer, got {env_seed!r}") from None

    scenario = load_scenario(args.scenario)
    try:
        spec = ExperimentSpec(
            scenario=scenario,
            out_dir=out,
            configurations=_expand_configs(selection, to, dt),
            folds=list(range(n_folds_to_run)),
            seeds=[base_seed + j for j in range(n_seeds)],
            n_trees=pick("n_trees", args.n_trees, 100),
            batch_frac=pick("batch_frac", args.batch_frac, 0.01),
            dt_initial_frac=pick("dt_initial_frac", None, 1 / 64),
            dt_growth=pick("dt_growth", None, 2.0),
            dt_window=pick("dt_window", None, 3),
            dt_tolerance=pick("dt_tolerance", None, 0.01),
            jobs=pick("jobs", args.jobs, 1),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    def progress(config_id, fold, seed, path):
        print(f"done {config_id} fold={fold} seed={seed} -> {path}")

    run_grid(spec, progress=progress)
    return EXIT_OK


def cmd_summarize(args) -> int:
    rows = read_step_logs(args.log_dir)
    if not rows:
        print(f"error: no step logs under {args.log_dir}", file=sys.stderr)
        return EXIT_DATA
    out = args.out or str(Path(args.log_dir) / "summary.csv")
    write_summary(summarize(rows), out)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_plot(args) -> int:
    rows = read_summary(args.summary)
    if not rows:
        print(f"error: empty summary {args.summary}", file=sys.stderr)
        return EXIT_DATA
    aggregate = None if args.aggregate_by == "none" else args.aggregate_by
    out = args.out or str(Path(args.summary).with_suffix(".svg"))
    emit_plot(rows, out, aggregate_by=aggregate, y_axis=args.y_axis)
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="frugalas", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="descriptive statistics of a scenario")
    p_stats.add_argument("scenario", help="path to an ASLib scenario directory")
    p_stats.set_defaults(func=cmd_stats)

    p_run = sub.add_parser("run", help="run the experiment grid")
    p_run.add_argument("scenario", help="path to an ASLib scenario directory")
    p_run.add_argument("--config", help="key = value configuration file")
    p_run.add_argument("--selection", choices=["uncertainty", "random", "both"])
    p_run.add_argument("--timeout-predictor", choices=["on", "off", "both"])
    p_run.add_argument("--dynamic-timeout", choices=["on", "off", "both"])
    p_run.add_argument("--folds", type=int, help="number of folds to run")
    p_run.add_argument("--seeds", type=int, help="seeds per fold")
    p_run.add_argument("--seed", type=int, help="base seed")
    p_run.add_argument("--n-trees", type=int)
    p_run.add_argument("--batch-frac", type=float)
    p_run.add_argument("--jobs", type=int)
    p_run.add_argument("--out", help="output directory for step logs")
    p_run.set_defaults(func=cmd_run)

    p_sum = sub.add_parser("summarize", help="aggregate step logs into curves")
    p_sum.add_argument("log_dir")
    p_sum.add_argument("--out")
    p_sum.set_defaults(func=cmd_summarize)

    p_plot = sub.add_parser("plot", help="render a summary as an SVG plot")
    p_plot.add_argument("summary")
    p_plot.add_argument(
        "--aggregate-by", choices=["none", "selection", "to", "dt"], default="none"
    )
    p_plot.add_argument("--y-axis", choices=["cost", "data"], default="cost")
    p_plot.add_argument("--out")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArffError, ScenarioError, PreprocessError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
