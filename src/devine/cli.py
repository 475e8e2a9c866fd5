"""Command-line front door: run one simulation, compare algorithms, validate config.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields, replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .baselines import ConvergenceError
from .generator import GenerationError
from .simulation import (
    ALGORITHMS,
    ArrivalRecord,
    RepeatedRunError,
    SeriesSample,
    SimConfig,
    compare_algorithms,
    run_simulation,
)

OUT_DIR_ENV = "DEVINE_OUT_DIR"

SERIES_COLUMNS = [f.name for f in fields(SeriesSample)]
PER_ARRIVAL_COLUMNS = [f.name for f in fields(ArrivalRecord)]
COMPARISON_COLUMNS = [
    "algorithm", "seed", "acceptance_ratio", "revenue", "cost",
    "revenue_cost_ratio", "mean_cpu_utilization", "mean_link_utilization",
    "workload_digest",
]

# Each flag that overrides a config value: flag -> (SimConfig section, or
# None for a top-level field; field name, which is also the argparse dest;
# type; help text).
OVERRIDES = {
    "--seed": (None, "seed", int, "master seed"),
    "--servers": ("generator", "server_count", int, "substrate node count"),
    "--link-prob": ("generator", "link_probability", float, "substrate link probability"),
    "--duration": (None, "duration", float, "simulated time horizon"),
    "--arrival-rate": ("generator", "arrival_rate", float, "mean arrivals per time unit"),
    "--alpha": ("election", "alpha", float, "node budget multiplier"),
    "--beta": ("election", "beta", int, "search depth limit"),
    "--leaders": ("election", "leaders", int, "ring size"),
    "--x": ("election", "x", float, "revenue weight in the metric"),
    "--y": ("election", "y", float, "cost weight in the metric"),
}


class ConfigError(ValueError):
    """Configuration that cannot be run."""


def fmt(value) -> str:
    """Render numbers with 6 significant digits; leave everything else alone."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="devine",
        description="Seeded simulator for decentralized virtual network embedding.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "run": "run one simulation",
        "compare": "run several algorithms on identical workloads",
        "validate": "resolve and print the configuration",
    }
    for command, text in commands.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="JSON config file (a manifest.json also works)")
        for flag, (_, name, kind, help_text) in OVERRIDES.items():
            p.add_argument(flag, dest=name, type=kind, help=help_text)
        p.add_argument("--injective", action="store_true", help="one physical node per virtual node")
        p.add_argument("--out-dir", help=f"output directory (default ${OUT_DIR_ENV} or ./out)")
        if command == "compare":
            p.add_argument(
                "--algorithms", default=",".join(ALGORITHMS),
                help="comma-separated algorithm list",
            )
            p.add_argument("--seeds", help="comma-separated master seeds (default: seed..seed+9)")
        else:
            p.add_argument("--algorithm", help="embedding algorithm")
    return parser


def _load_config_file(path: str) -> SimConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object, not {type(data).__name__}")
    if isinstance(data.get("config"), dict):
        data = data["config"]  # accept a manifest produced by an earlier run
    try:
        return SimConfig.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config {path} is malformed: {exc}") from exc


def _validated(cfg: SimConfig) -> SimConfig:
    if cfg.algorithm == "neurovine":
        raise ConfigError(
            "algorithm 'neurovine' is not implemented; see README for the supported set"
        )
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def resolve_config(args: argparse.Namespace) -> SimConfig:
    """Config file first, then explicit flags on top; the caller validates."""
    cfg = _load_config_file(args.config) if args.config else SimConfig()
    if getattr(args, "algorithm", None) is not None:
        cfg.algorithm = args.algorithm
    if args.injective:
        cfg.election = replace(cfg.election, injective=True)
    for section, name, _, _ in OVERRIDES.values():
        value = getattr(args, name)
        if value is None:
            continue
        if section is None:
            setattr(cfg, name, value)
        else:
            setattr(cfg, section, replace(getattr(cfg, section), **{name: value}))
    return cfg


def _out_dir(args) -> Path:
    out = args.out_dir or os.environ.get(OUT_DIR_ENV) or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([fmt(row[col]) for col in columns])


def _manifest(cfg: SimConfig, started: str) -> dict:
    return {
        "tool": "devine",
        "version": __version__,
        "master_seed": cfg.seed,
        "config": cfg.to_dict(),
        "started_at": started,
        "finished_at": _now(),
    }


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def cmd_run(args) -> int:
    cfg = _validated(resolve_config(args))
    out = _out_dir(args)
    started = _now()
    result = run_simulation(cfg)
    _write_csv(out / "series.csv", SERIES_COLUMNS, [vars(s) for s in result.series])
    _write_csv(out / "per_arrival.csv", PER_ARRIVAL_COLUMNS, [vars(a) for a in result.per_arrival])
    with open(out / "summary.json", "w") as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    with open(out / "manifest.json", "w") as fh:
        json.dump(_manifest(cfg, started), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    if cfg.algorithm == "devine":
        with open(out / "trace.jsonl", "w") as fh:
            for trace in result.traces:
                text = trace.to_jsonl()
                if text:
                    fh.write(text + "\n")
    else:  # an earlier devine run's trace would pass for this run's
        (out / "trace.jsonl").unlink(missing_ok=True)
    s = result.summary
    print(
        f"{s['algorithm']} seed={s['seed']}: "
        f"accepted {s['acceptances']}/{s['arrivals']} "
        f"(ratio {fmt(s['acceptance_ratio'])}), "
        f"revenue {fmt(s['revenue'])}, cost {fmt(s['cost'])}, "
        f"r/c {fmt(s['revenue_cost_ratio'])}"
    )
    print(f"outputs written to {out}")
    return 0


def cmd_compare(args) -> int:
    cfg = resolve_config(args)
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError as exc:
            raise ConfigError(f"--seeds must be comma-separated integers: {exc}") from exc
    else:
        seeds = list(range(cfg.seed, cfg.seed + 10))
    for algorithm in algorithms:
        for seed in seeds:
            _validated(replace(cfg, algorithm=algorithm, seed=seed))
    if not algorithms or not seeds:
        raise ConfigError("--algorithms and --seeds must each name at least one value")
    out = _out_dir(args)
    started = _now()
    try:
        rows, aggregates = compare_algorithms(cfg, algorithms, seeds)
    except RepeatedRunError as exc:  # its message names the parameter, the flag's name
        raise ConfigError(f"--{exc}") from exc
    _write_csv(out / "comparison.csv", COMPARISON_COLUMNS, rows)
    header = list(aggregates[0])
    _write_csv(out / "aggregate.csv", header, aggregates)
    long_rows = [
        {"algorithm": row["algorithm"], "seed": row["seed"], "metric": metric, "value": row[metric]}
        for row in rows
        for metric in COMPARISON_COLUMNS[2:-1]
    ]
    _write_csv(out / "comparison_long.csv", ["algorithm", "seed", "metric", "value"], long_rows)
    with open(out / "manifest.json", "w") as fh:
        manifest = _manifest(cfg, started)
        manifest["algorithms"] = algorithms
        manifest["seeds"] = seeds
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")

    widths = [max(len(h), 12) for h in header]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for agg in aggregates:
        print("  ".join(fmt(agg[h]).ljust(w) for h, w in zip(header, widths)))
    print("note: neurovine is not implemented and is absent from all tables")
    print(f"outputs written to {out}")
    return 0


def cmd_validate(args) -> int:
    cfg = _validated(resolve_config(args))
    print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
    second = cfg.generator.second_parameter
    if second == "variance":
        print("distributions: N(mean, second) with second interpreted as variance (std = sqrt)")
    else:
        print("distributions: N(mean, second) with second interpreted as std")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed why; its exit code 2 is ours for runtime failures
        if exc.code == 0:  # --help and --version
            raise
        return 1
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "compare":
            return cmd_compare(args)
        return cmd_validate(args)
    except (ConfigError, ConvergenceError, GenerationError) as exc:
        # seed and config alone decide whether generation and grc ranks succeed
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
