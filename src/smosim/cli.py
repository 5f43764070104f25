"""Command-line entry point: run, compare and validate experiment configs.

Exit codes: 0 success, 1 simulated failure (e.g. unmitigated single-point
failure), 2 usage or configuration error. The SMO_SIM_SEED environment
variable overrides any --seed flag. An override is parsed with the rest of
the config, so it is checked like the file's seed and enters ``config_hash``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import ScenarioConfig, config_from_dict, load_config
from .errors import ConfigError, SimulationError
from .scenarios import RunResult, run_scenario

_METRIC_COLUMNS = [
    "config", "scenario", "mode", "seed", "status",
    "training_ticks", "inference_ticks", "cost_ticks", "peak_demand",
    "time_to_detection", "time_to_resolution", "downtime_ticks", "refinements",
    "model_version", "val_mse", "test_mse", "test_accuracy",
    "raw_data_bytes", "model_artifact_bytes", "total_bytes", "total_messages",
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="smosim",
        description="Deterministic simulator of AI/ML lifecycle orchestration "
                    "across a managed O-RAN SMO plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment config")
    p_run.add_argument("--config", required=True, help="path to config.json")
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")
    p_run.add_argument("--out", required=True, help="output directory")

    p_cmp = sub.add_parser("compare", help="run several configs and tabulate metrics")
    p_cmp.add_argument("--configs", nargs="+", required=True, help="config paths")
    p_cmp.add_argument("--seed", type=int, default=None, help="override all seeds")
    p_cmp.add_argument("--out", required=True, help="output directory")

    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("--config", required=True, help="path to config.json")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_validate(args)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc}", file=sys.stderr)
        return 2


def _seed_override(flag_seed: int | None) -> int | None:
    env = os.environ.get("SMO_SIM_SEED")
    if env is None:
        return flag_seed
    try:
        return int(env)
    except ValueError:
        raise ConfigError("SMO_SIM_SEED", f"not an integer: {env!r}") from None


def _load(path: str, seed_flag: int | None) -> ScenarioConfig:
    config = load_config(path)
    seed = _seed_override(seed_flag)
    return config if seed is None else config_from_dict({**config.raw, "seed": seed})


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load(args.config, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = run_scenario(config)
    _write_outputs(result, out, Path(args.config).name)
    report = result.report
    print(f"scenario {report.scenario} finished: status={report.status} "
          f"tick={report.final_tick} events={report.event_count}")
    return 0 if report.status == "completed" else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    if len(args.configs) < 2:
        print("error: compare needs at least two configs", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    failed = False
    for path in args.configs:
        config = _load(path, args.seed)
        result = run_scenario(config)
        sub = out / Path(path).stem
        sub.mkdir(parents=True, exist_ok=True)
        _write_outputs(result, sub, Path(path).name)
        rows.append(_metrics_row(result, Path(path).name))
        failed = failed or result.report.status != "completed"
    (out / "comparison.json").write_text(json.dumps(rows, indent=2) + "\n")
    (out / "comparison.csv").write_text(_rows_to_csv(rows))
    print(f"compared {len(rows)} runs -> {out / 'comparison.csv'}")
    return 1 if failed else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    load_config(args.config)
    print("config ok")
    return 0


def _write_outputs(result: RunResult, out: Path, config_name: str) -> None:
    (out / "events.jsonl").write_text(result.sim.log.to_jsonl())
    (out / "report.json").write_text(
        json.dumps(result.report.to_dict(), indent=2) + "\n")
    (out / "metrics.csv").write_text(_rows_to_csv([_metrics_row(result, config_name)]))


def _metrics_row(result: RunResult, config_name: str) -> dict:
    report = result.report
    model = report.model or {}
    signaling = report.signaling
    total_bytes = sum(e["bytes"] for e in signaling.get("interfaces", {}).values())
    total_msgs = sum(e["messages"] for e in signaling.get("interfaces", {}).values())
    val = model.get("val_metrics") or {}
    return {
        "config": config_name,
        "scenario": report.scenario,
        "mode": report.mode or "",
        "seed": report.seed,
        "status": report.status,
        "training_ticks": report.training_ticks,
        "inference_ticks": report.inference_ticks,
        "cost_ticks": report.cost_ticks,
        "peak_demand": report.peak_demand,
        "time_to_detection": report.time_to_detection,
        "time_to_resolution": report.time_to_resolution,
        "downtime_ticks": report.downtime_ticks,
        "refinements": report.refinements,
        "model_version": model.get("version"),
        "val_mse": val.get("mse"),
        "test_mse": model.get("test_mse"),
        "test_accuracy": model.get("test_accuracy"),
        "raw_data_bytes": signaling.get("raw_data_bytes"),
        "model_artifact_bytes": signaling.get("model_artifact_bytes"),
        "total_bytes": total_bytes,
        "total_messages": total_msgs,
    }


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(_METRIC_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c)) for c in _METRIC_COLUMNS))
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
