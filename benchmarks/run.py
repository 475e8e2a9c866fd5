"""Benchmark for devine: host time per arrival and modelled outcomes.

Runs all four embedders (devine, firstfit, bestfit, grc) on one named
workload through the public API (``generate_physical_network``,
``build_workload``, ``run_simulation``), checks that their outputs are
correct, and prints every metric by name and unit.  Run it from the root of
a source checkout; it imports ``devine`` from ``src/`` next to this
directory and from nowhere else:

    python3 benchmarks/run.py --workload paper-default --seed 1 --seconds 50 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass (see layers.py).  Reported times are scaled to a
reference host (see reference_work) so that slow spells of a shared host
cancel out; the unscaled times are printed too.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is 0 when every check passed, 1 when one
failed, and 2 when the program could not be loaded.  NOTES.md says why each
workload exists and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED_DIGESTS = Path(__file__).resolve().parent / "expected_digests.json"

ALGORITHMS = ("devine", "firstfit", "bestfit", "grc")
DEFAULT_SEED = 1  # the seed whose output digests are committed
SEED_STRIDE = 1000  # simulation seeds of benchmark seed s: s*1000, s*1000+1, ...
SETUP_REPEATS = 5
# Median of reference_seconds() on the host the bounds were set on (2 vCPUs).
# Every reported time is scaled by REFERENCE_SECONDS / (reference time measured
# around it), i.e. to a host that runs the reference work this fast.
REFERENCE_SECONDS = 0.0065


@dataclass(frozen=True)
class Workload:
    """One load regime: generator overrides, horizon, simulations per seed."""

    generator: dict
    duration: float
    simulations: int


# The generator defaults apply unless a value is named.  Each benchmark seed
# runs `simulations` independent substrates, so one reported value averages
# over several topologies instead of resting on one.  A link-bound regime
# (p=0.1, bandwidth demand (25, 25), rate 1) is left out: devine's cost per
# arrival there is heavy-tailed (p50 2.6 ms, p99 180 ms), so the few thousand
# arrivals a run can afford do not repeat within any usable bound.
WORKLOADS = {
    "paper-default": Workload(
        generator={},
        duration=250.0,
        simulations=8,
    ),
    "large-light": Workload(
        generator={"server_count": 400, "link_probability": 0.03},
        duration=150.0,
        simulations=6,
    ),
}


class ProgramMissing(RuntimeError):
    """The devine sources are not where the benchmark expects them."""


def load_program():
    """Import devine from this checkout's src/ and return its modules."""
    if not (SRC / "devine" / "__init__.py").is_file():
        raise ProgramMissing(f"no devine package under {SRC}")
    sys.path.insert(0, str(SRC))
    import devine
    from devine import baselines, cli, generator, protocol, simulation

    if SRC.resolve() not in Path(devine.__file__).resolve().parents:
        raise ProgramMissing(f"imported devine from {devine.__file__}, not from {SRC}")
    return baselines, cli, generator, protocol, simulation


def reference_work() -> float:
    """Fixed work that no change to devine can speed up.

    Breadth-first searches over a fixed graph in pure Python and a small numpy
    power iteration: the same kinds of work as the simulator, so a host that
    runs slower for a while (the shared 2-vCPU host the bounds were set on
    does so by about 1.3x for minutes at a time) slows both alike.
    """
    n = 3000
    adjacency = [((i + 1) % n, (i + 17) % n, (i * 7 + 3) % n) for i in range(n)]
    reached = 0
    for root in (0, 101, 202, 303):
        dist = {root: 0}
        frontier = [root]
        while frontier:
            nxt = []
            for here in frontier:
                for nb in adjacency[here]:
                    if nb not in dist:
                        dist[nb] = dist[here] + 1
                        nxt.append(nb)
            frontier = nxt
        reached += sum(sorted(dist.values())[:100])
    matrix = np.full((300, 300), 1.0 / 300)
    vector = np.ones(300)
    for _ in range(40):
        vector = 0.15 + 0.85 * (matrix @ vector)
    return reached + float(vector.sum())


def reference_seconds() -> float:
    """Median time of three reference_work() calls."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def to_reference_host(seconds: float, before: float, after: float) -> float:
    """Scale a time measured between two reference timings to the reference host."""
    return seconds * REFERENCE_SECONDS / ((before + after) / 2)


def simulation_seeds(seed: int, workload: Workload) -> list[int]:
    return [seed * SEED_STRIDE + i for i in range(workload.simulations)]


def _csv_text(columns: list[str], rows: list[dict], fmt) -> str:
    # the same bytes devine run writes with csv.writer on a newline="" file
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([fmt(row[col]) for col in columns])
    return buf.getvalue()


def output_digest(result, cli) -> str:
    """sha256 over the artifacts `devine run` writes, serialised as it writes them."""
    artifacts = {
        "summary.json": json.dumps(result.summary, indent=2, sort_keys=True) + "\n",
        "series.csv": _csv_text(cli.SERIES_COLUMNS, [vars(s) for s in result.series], cli.fmt),
        "per_arrival.csv": _csv_text(
            cli.PER_ARRIVAL_COLUMNS, [vars(a) for a in result.per_arrival], cli.fmt
        ),
    }
    if result.summary["algorithm"] == "devine":
        artifacts["trace.jsonl"] = "".join(
            text + "\n" for text in (t.to_jsonl() for t in result.traces) if text
        )
    digest = hashlib.sha256()
    for name, text in artifacts.items():
        digest.update(name.encode() + b"\0" + text.encode() + b"\0")
    return digest.hexdigest()


@dataclass
class Unit:
    """One (simulation seed, algorithm) pair and everything measured on it."""

    seed: int
    algorithm: str
    seconds: list[float] = field(default_factory=list)  # as measured on this host
    scaled: list[float] = field(default_factory=list)  # scaled to the reference host
    arrivals: int = 0
    summary: dict | None = None
    digest: str | None = None


class Bench:
    """Runs units, checks their outputs and counts operations."""

    def __init__(self, workload: Workload, modules) -> None:
        self.baselines, self.cli, self.generator, self.protocol, self.simulation = modules
        self.workload = workload
        self.gen_cfg = replace(self.generator.GeneratorConfig(), **workload.generator)
        self.attempted = 0
        self.failed = 0
        self.program_errors = (
            self.simulation.SimulationError,
            self.protocol.ProtocolError,
            self.baselines.ConvergenceError,
        )

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED: {message}", file=sys.stderr)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(message)

    def time_setup(self, seeds: list[int]) -> tuple[float, float]:
        """Median seconds to generate every substrate, and every workload.

        Scaled to the reference host, like every reported time.
        """
        substrate_s, workload_s = [], []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            before = reference_seconds()
            net_s = work_s = 0.0
            for seed in seeds:
                start = time.perf_counter()
                self.generator.generate_physical_network(
                    self.gen_cfg, self.generator.stream(seed, "topology")
                )
                middle = time.perf_counter()
                self.simulation.build_workload(self.gen_cfg, self.workload.duration, seed)
                net_s += middle - start
                work_s += time.perf_counter() - middle
            after = reference_seconds()
            substrate_s.append(to_reference_host(net_s, before, after))
            workload_s.append(to_reference_host(work_s, before, after))
        return statistics.median(substrate_s), statistics.median(workload_s)

    def run(self, unit: Unit, simulate) -> None:
        """One timed simulation of `unit`; its outputs must match earlier runs."""
        cfg = self.simulation.SimConfig(
            generator=self.gen_cfg,
            algorithm=unit.algorithm,
            duration=self.workload.duration,
            seed=unit.seed,
        )
        self.attempted += 1
        gc.collect()
        before = reference_seconds()
        start = time.perf_counter()
        try:
            result = simulate(cfg)
        except self.program_errors as exc:
            self.fail(f"{unit.algorithm} seed {unit.seed}: {type(exc).__name__}: {exc}")
            return
        elapsed = time.perf_counter() - start
        after = reference_seconds()
        digest = output_digest(result, self.cli)
        if not result.summary.get("conservation_ok"):
            self.fail(f"{unit.algorithm} seed {unit.seed}: conservation check failed")
            return
        if unit.digest is not None and digest != unit.digest:
            self.fail(f"{unit.algorithm} seed {unit.seed}: outputs differ between repeats")
            return
        unit.digest = digest
        unit.summary = result.summary
        unit.arrivals = result.summary["arrivals"]
        unit.seconds.append(elapsed)
        unit.scaled.append(to_reference_host(elapsed, before, after))

    def measure(self, units: list[Unit], seconds: float, simulate) -> None:
        """One whole pass over the units, then more runs while they fit in `seconds`."""
        start = time.perf_counter()
        for unit in units:
            self.run(unit, simulate)
        ran = True
        while ran:
            ran = False
            for unit in units:
                # a unit that failed is not retried; one that would overrun is skipped
                if unit.seconds and time.perf_counter() - start + unit.seconds[-1] <= seconds:
                    self.run(unit, simulate)
                    ran = True

    def check_outputs(self, units: list[Unit], seed: int, workload_name: str) -> dict:
        """Cross-algorithm workload equality and, on the default seed, golden digests."""
        by_seed: dict[int, set[str]] = {}
        for unit in units:
            if unit.summary is not None:
                by_seed.setdefault(unit.seed, set()).add(unit.summary["workload_digest"])
        for sim_seed, digests in sorted(by_seed.items()):
            self.check(len(digests) == 1, f"seed {sim_seed}: workload digests differ across algorithms")
        combined = {}
        for algorithm in ALGORITHMS:
            parts = [u.digest or "missing" for u in units if u.algorithm == algorithm]
            combined[algorithm] = hashlib.sha256("\n".join(parts).encode()).hexdigest()
        if seed == DEFAULT_SEED:
            expected = json.loads(EXPECTED_DIGESTS.read_text()).get(workload_name, {})
            for algorithm in ALGORITHMS:
                self.check(
                    expected.get(algorithm) == combined[algorithm],
                    f"{algorithm}: output digest differs from {EXPECTED_DIGESTS.name}",
                )
        return combined


def completed(units: list[Unit], algorithm: str) -> list[Unit]:
    return [u for u in units if u.algorithm == algorithm and u.seconds]


def ms_per_arrival(done: list[Unit], times: str = "scaled") -> float:
    """Median time of each unit, summed, per simulated arrival."""
    total = sum(statistics.median(getattr(u, times)) for u in done)
    return 1000.0 * total / sum(u.arrivals for u in done)


def outcome_ratio(done: list[Unit], numerator: str, denominator: str) -> float:
    return sum(u.summary[numerator] for u in done) / sum(u.summary[denominator] for u in done)


def end_to_end_metrics(units: list[Unit], setup_s: float) -> dict:
    metrics = {}
    for algorithm in ALGORITHMS:
        mine = completed(units, algorithm)
        if not mine:
            continue  # every simulation of it failed, and each failure is counted
        metrics[f"{algorithm}.ms_per_arrival"] = (ms_per_arrival(mine), "ms")
        metrics[f"{algorithm}.acceptance_ratio"] = (
            outcome_ratio(mine, "acceptances", "arrivals"), "ratio"
        )
        metrics[f"{algorithm}.revenue_cost_ratio"] = (outcome_ratio(mine, "revenue", "cost"), "ratio")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def layer_metrics(tracer, units: list[Unit], traced: list[Unit], split: tuple[float, float]) -> dict:
    """Per-layer times (s), counts and ratios of the traced pass."""
    metrics = {
        "generator.substrate_s": (split[0], "s"),
        "generator.workload_s": (split[1], "s"),
    }
    for algorithm in ALGORITHMS:
        untraced, traced_done = completed(units, algorithm), completed(traced, algorithm)
        if not untraced or not traced_done:
            continue  # every simulation of it failed, and each failure is counted

        def span(name):
            return tracer.stats(algorithm, name)

        top = span("simulation")
        dispatch = span("protocol.election" if algorithm == "devine" else "baselines.embed")
        sample = span("simulation.sample")
        map_link = span("local_embed.map_link")
        percentiles = statistics.quantiles(dispatch.durations, n=100)
        rows = {
            "simulation.self_s": (top.self_s, "s"),
            "simulation.sample_calls": (sample.calls, "count"),
            "simulation.sample_s": (sample.total_s, "s"),
            "decision_p50_ms": (1000.0 * percentiles[49], "ms"),
            "decision_p99_ms": (1000.0 * percentiles[98], "ms"),
            "decision_samples": (len(dispatch.durations), "count"),
            "local_embed.map_link_calls": (map_link.calls, "count"),
            "local_embed.map_link_s": (map_link.total_s, "s"),
            "local_embed.map_link_found_ratio": (
                map_link.counts["found"] / map_link.calls if map_link.calls else 0.0, "ratio"
            ),
            "local_embed.node_fits_calls": (span("local_embed.node_fits").calls, "count"),
            "local_embed.try_place_calls": (span("local_embed.try_place").calls, "count"),
            "embedding.verify_calls": (span("embedding.verify").calls, "count"),
            "embedding.verify_s": (span("embedding.verify").total_s, "s"),
            "embedding.allocate_s": (span("embedding.allocate").total_s, "s"),
            "embedding.release_s": (span("embedding.release").total_s, "s"),
            "trace_overhead_ms_per_arrival": (
                ms_per_arrival(traced_done) - ms_per_arrival(untraced), "ms"
            ),
        }
        if algorithm == "devine":
            embed = span("local_embed.embed")
            rows.update({
                "protocol.election_calls": (dispatch.calls, "count"),
                "protocol.election_self_s": (dispatch.self_s, "s"),
                "protocol.messages_per_election": (
                    dispatch.counts["messages"] / dispatch.calls, "count"
                ),
                "local_embed.embed_calls": (embed.calls, "count"),
                "local_embed.embed_self_s": (embed.self_s, "s"),
                "local_embed.feasible_ratio": (embed.counts["feasible"] / embed.calls, "ratio"),
                "local_embed.inspected_per_embed": (
                    embed.counts["inspected"] / embed.calls, "count"
                ),
            })
        else:
            rows["baselines.embed_s"] = (dispatch.total_s, "s")
        if algorithm == "grc":
            rows["baselines.power_rank_calls"] = (span("baselines.power_rank").calls, "count")
            rows["baselines.power_rank_s"] = (span("baselines.power_rank").total_s, "s")
        metrics.update({f"{algorithm}.{name}": value for name, value in rows.items()})
    return metrics


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--", "src"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head + ("+dirty-src" if dirty else "")


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "simulation_seeds": simulation_seeds(args.seed, WORKLOADS[args.workload]),
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        modules = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    bench = Bench(workload, modules)
    seeds = simulation_seeds(args.seed, workload)
    print("environment: " + json.dumps(environment(args)))

    units = [Unit(seed, algorithm) for seed in seeds for algorithm in ALGORITHMS]
    split = bench.time_setup(seeds)
    run_simulation = bench.simulation.run_simulation
    if args.trace:
        from layers import Tracer, installed

        bench.measure(units, 0.0, run_simulation)  # one untraced pass
        traced = [Unit(u.seed, u.algorithm, digest=u.digest) for u in units]
        tracer = Tracer()
        with installed(tracer):
            simulate = tracer.span("simulation", run_simulation)
            for unit in traced:
                tracer.algorithm = unit.algorithm
                bench.run(unit, simulate)
        metrics = layer_metrics(tracer, units, traced, split)
    else:
        bench.measure(units, args.seconds, run_simulation)
        metrics = end_to_end_metrics(units, split[0] + split[1])
    digests = bench.check_outputs(units, args.seed, args.workload)

    print("digests: " + json.dumps({args.workload: digests}, sort_keys=True))
    print("timings: " + json.dumps([
        {"seed": u.seed, "algorithm": u.algorithm, "arrivals": u.arrivals,
         "seconds": u.seconds, "scaled": u.scaled}
        for u in units
    ]))
    print("unscaled ms_per_arrival: " + json.dumps({
        algorithm: ms_per_arrival(completed(units, algorithm), "seconds")
        for algorithm in ALGORITHMS if completed(units, algorithm)
    }))
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")
    correct = bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
