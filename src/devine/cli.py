"""Command-line front door: run one simulation, compare algorithms, validate config.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .simulation import ALGORITHMS, SimConfig, compare_algorithms, run_simulation

OUT_DIR_ENV = "DEVINE_OUT_DIR"

SERIES_COLUMNS = [
    "time", "arrivals", "acceptances", "acceptance_ratio", "revenue", "cost",
    "revenue_cost_ratio", "cpu_utilization", "link_utilization",
    "embedding_messages", "embedded_messages",
]
PER_ARRIVAL_COLUMNS = [
    "request_id", "time", "vnr_hash", "accepted", "acceptance_ratio", "revenue",
    "cost", "metric", "embedding_messages", "embedded_messages",
]
COMPARISON_COLUMNS = [
    "algorithm", "seed", "acceptance_ratio", "revenue", "cost",
    "revenue_cost_ratio", "mean_cpu_utilization", "mean_link_utilization",
    "workload_digest",
]
AGGREGATE_COLUMNS = [
    "algorithm", "runs", "median_acceptance_ratio", "median_revenue_cost_ratio",
    "mean_revenue", "mean_cost", "mean_cpu_utilization", "mean_link_utilization",
]


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

    def add_common(p):
        p.add_argument("--config", help="JSON config file (a manifest.json also works)")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--servers", type=int, help="substrate node count")
        p.add_argument("--link-prob", type=float, help="substrate link probability")
        p.add_argument("--duration", type=float, help="simulated time horizon")
        p.add_argument("--arrival-rate", type=float, help="mean arrivals per time unit")
        p.add_argument("--alpha", type=float, help="node budget multiplier")
        p.add_argument("--beta", type=int, help="search depth limit")
        p.add_argument("--leaders", type=int, help="ring size")
        p.add_argument("--x", type=float, help="revenue weight in the metric")
        p.add_argument("--y", type=float, help="cost weight in the metric")
        p.add_argument(
            "--injective", action="store_true", default=None,
            help="one physical node per virtual node",
        )
        p.add_argument("--out-dir", help=f"output directory (default ${OUT_DIR_ENV} or ./out)")

    run = sub.add_parser("run", help="run one simulation")
    add_common(run)
    run.add_argument("--algorithm", choices=None, help="embedding algorithm", default=None)

    cmp_p = sub.add_parser("compare", help="run several algorithms on identical workloads")
    add_common(cmp_p)
    cmp_p.add_argument(
        "--algorithms", default=",".join(ALGORITHMS),
        help="comma-separated algorithm list",
    )
    cmp_p.add_argument(
        "--seeds", default=None,
        help="comma-separated master seeds (default: seed..seed+9)",
    )

    val = sub.add_parser("validate", help="resolve and print the configuration")
    add_common(val)
    val.add_argument("--algorithm", default=None, help="embedding algorithm")
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
    """Config file first, then explicit flags on top."""
    cfg = _load_config_file(args.config) if args.config else SimConfig()
    algorithm = getattr(args, "algorithm", None)
    if algorithm is not None:
        cfg.algorithm = algorithm
    if args.seed is not None:
        cfg.seed = args.seed
    if args.duration is not None:
        cfg.duration = args.duration
    gen_updates = {}
    if args.servers is not None:
        gen_updates["server_count"] = args.servers
    if args.link_prob is not None:
        gen_updates["link_probability"] = args.link_prob
    if args.arrival_rate is not None:
        gen_updates["arrival_rate"] = args.arrival_rate
    if gen_updates:
        cfg.generator = replace(cfg.generator, **gen_updates)
    election_updates = {}
    for name in ("alpha", "beta", "leaders", "x", "y"):
        value = getattr(args, name)
        if value is not None:
            election_updates[name] = value
    if args.injective is not None:
        election_updates["injective"] = args.injective
    if election_updates:
        cfg.election = replace(cfg.election, **election_updates)
    return _validated(cfg)


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
        "finished_at": datetime.now(timezone.utc).isoformat(),
    }


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def cmd_run(args) -> int:
    cfg = resolve_config(args)
    out = _out_dir(args)
    started = _now()
    result = run_simulation(cfg)
    _write_csv(out / "series.csv", SERIES_COLUMNS, [vars(s) for s in result.series])
    _write_csv(out / "per_arrival.csv", PER_ARRIVAL_COLUMNS, [vars(a) for a in result.per_arrival])
    with open(out / "summary.json", "w") as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "manifest.json", "w") as fh:
        json.dump(_manifest(cfg, started), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if cfg.algorithm == "devine":
        with open(out / "trace.jsonl", "w") as fh:
            for trace in result.traces:
                text = trace.to_jsonl()
                if text:
                    fh.write(text + "\n")
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
    for algorithm in algorithms:
        _validated(replace(cfg, algorithm=algorithm))
    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError as exc:
            raise ConfigError(f"--seeds must be comma-separated integers: {exc}") from exc
    else:
        seeds = list(range(cfg.seed, cfg.seed + 10))
    out = _out_dir(args)
    started = _now()
    rows, aggregates = compare_algorithms(cfg, algorithms, seeds)
    comparison = [{col: row[col] for col in COMPARISON_COLUMNS} for row in rows]
    _write_csv(out / "comparison.csv", COMPARISON_COLUMNS, comparison)
    _write_csv(out / "aggregate.csv", AGGREGATE_COLUMNS, aggregates)
    long_rows = []
    for row in rows:
        for metric in (
            "acceptance_ratio", "revenue", "cost", "revenue_cost_ratio",
            "mean_cpu_utilization", "mean_link_utilization",
        ):
            long_rows.append(
                {
                    "algorithm": row["algorithm"],
                    "seed": row["seed"],
                    "metric": metric,
                    "value": row[metric],
                }
            )
    _write_csv(out / "comparison_long.csv", ["algorithm", "seed", "metric", "value"], long_rows)
    with open(out / "manifest.json", "w") as fh:
        manifest = _manifest(cfg, started)
        manifest["algorithms"] = algorithms
        manifest["seeds"] = seeds
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    header = AGGREGATE_COLUMNS
    widths = [max(len(h), 12) for h in header]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for agg in aggregates:
        print("  ".join(fmt(agg[h]).ljust(w) for h, w in zip(header, widths)))
    print("note: neurovine is not implemented and is absent from all tables")
    print(f"outputs written to {out}")
    return 0


def cmd_validate(args) -> int:
    cfg = resolve_config(args)
    print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
    second = cfg.generator.second_parameter
    if second == "variance":
        print("distributions: N(mean, second) with second interpreted as variance (std = sqrt)")
    else:
        print("distributions: N(mean, second) with second interpreted as std")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "compare":
            return cmd_compare(args)
        return cmd_validate(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
