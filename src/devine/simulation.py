"""Discrete-event simulation: request arrivals, embedding, departures.

The master seed splits into named streams so the generated workload
(substrate, requests, primaries) is identical no matter which embedding
algorithm runs.  Event ties resolve departures before arrivals.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import operator
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from functools import reduce
from statistics import median
from typing import get_args, get_origin, get_type_hints

from .baselines import GrcParams, best_fit, first_fit, grc_embed, vnr_orders
# verify_solution is imported only so benchmarks/layers.py can wrap it here
from .embedding import (
    AllocationError,
    LedgerEntry,
    allocate,
    conservation_violations,
    release,
    verify_solution,
)
from .generator import GeneratorConfig, generate_physical_network, generate_vnr, stream
from .protocol import ElectionParams, ElectionTrace, run_election
from .model import Vnr, require_finite

ALGORITHMS = ("devine", "firstfit", "bestfit", "grc")

# Caps on the expected arrival count and on the series length, so a typo in
# the horizon or the rates fails validation instead of exhausting memory.
MAX_ARRIVALS = 10_000_000
MAX_SAMPLES = 10_000_000

_DEPARTURE = 0  # sorts before arrivals at equal times
_ARRIVAL = 1


class SimulationError(RuntimeError):
    """Raised on invalid configuration or a broken run-time invariant."""


class RepeatedRunError(ValueError):
    """An algorithm or a seed named twice in one comparison."""


@dataclass
class SimConfig:
    """Everything one run needs: workload, algorithm, horizon, seed."""

    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    election: ElectionParams = field(default_factory=ElectionParams)
    grc: GrcParams = field(default_factory=GrcParams)
    algorithm: str = "devine"
    duration: float = 2000.0
    sampling_interval: float = 10.0
    seed: int = 42
    trace_sample: int = 10

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}"
            )
        require_finite(duration=self.duration, sampling_interval=self.sampling_interval)
        if self.duration < 0:
            raise ValueError("duration must be non-negative")
        if self.sampling_interval <= 0:
            raise ValueError("sampling_interval must be positive")
        if self.trace_sample < 0:
            raise ValueError("trace_sample must be non-negative")
        if not 0 <= self.seed < 2**64:  # the streams read its low 64 bits, so others would alias
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        self.generator.validate()
        self.election.validate()
        self.grc.validate()
        if self.algorithm == "devine" and self.election.leaders > self.generator.server_count:
            raise ValueError(
                f"leaders ({self.election.leaders}) must not exceed server_count "
                f"({self.generator.server_count}): each leader is a distinct server"
            )
        if self.generator.arrival_rate * self.duration > MAX_ARRIVALS:
            raise ValueError(
                f"arrival_rate * duration expects more than {MAX_ARRIVALS} arrivals"
            )
        if self.duration / self.sampling_interval > MAX_SAMPLES:
            raise ValueError(
                f"duration / sampling_interval asks for more than {MAX_SAMPLES} samples"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> SimConfig:
        """Inverse of to_dict; a value that is not of its field's type raises ValueError."""
        return _checked(cls, data, "config")


def _checked(hint, value, name: str):
    """`value` as the declared type `hint`: dataclasses from objects, pairs as tuples."""
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise ValueError(f"{name} must be an object, got {value!r}")
        hints = get_type_hints(hint)
        unknown = sorted(set(value) - hints.keys())
        if unknown:
            raise ValueError(f"unknown {name} keys: {', '.join(unknown)}")
        return hint(**{k: _checked(hints[k], v, f"{name}.{k}") for k, v in value.items()})
    if type(None) in get_args(hint):  # `T | None`
        if value is None:
            return None
        (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
    if get_origin(hint) is tuple:
        args = get_args(hint)
        if not isinstance(value, (list, tuple)) or len(value) != len(args):
            raise ValueError(f"{name} must be a pair, got {value!r}")
        return tuple(_checked(arg, item, name) for arg, item in zip(args, value))
    # an int is a valid float and stays an int, so the written outputs keep its form
    allowed = (int, float) if hint is float else hint
    if isinstance(value, bool) != (hint is bool) or not isinstance(value, allowed):
        raise ValueError(f"{name} must be of type {hint.__name__}, got {value!r}")
    return value


@dataclass
class SeriesSample:
    """Running metrics at one sampling epoch."""

    time: float
    arrivals: int
    acceptances: int
    acceptance_ratio: float
    revenue: float
    cost: float
    revenue_cost_ratio: float
    cpu_utilization: float
    link_utilization: float
    embedding_messages: int
    embedded_messages: int


@dataclass
class ArrivalRecord:
    """Per-request outcome, in arrival order."""

    request_id: int
    time: float
    vnr_hash: str
    accepted: bool
    acceptance_ratio: float
    revenue: float
    cost: float
    metric: float
    embedding_messages: int
    embedded_messages: int


@dataclass
class SimulationResult:
    series: list[SeriesSample]
    per_arrival: list[ArrivalRecord]
    summary: dict
    traces: list[ElectionTrace]


def build_workload(
    cfg: GeneratorConfig, duration: float, seed: int
) -> list[tuple[float, Vnr, int]]:
    """Arrival times, requests, and primary nodes for one run.

    Drawn exclusively from the vnr and primaries streams, so every
    algorithm sees the same workload under the same master seed.  The
    primaries stream holds one integer per request, drawn in one call.
    """
    vnr_rng = stream(seed, "vnr")
    mean_gap = 1.0 / cfg.arrival_rate
    vnrs = []
    now = 0.0
    while True:
        gap = float(vnr_rng.exponential(mean_gap)) if cfg.arrival_process == "poisson" else mean_gap
        now += gap
        if now > duration:
            break
        vnrs.append(generate_vnr(cfg, len(vnrs), now, vnr_rng))
    primaries = stream(seed, "primaries").integers(cfg.server_count, size=len(vnrs)).tolist()
    return [(vnr.arrival_time, vnr, primary) for vnr, primary in zip(vnrs, primaries)]


def _mean(values: list[float]) -> float:
    """Mean summed left to right, 0.0 for none; sum() compensates from Python 3.12 on."""
    return reduce(operator.add, values, 0.0) / len(values) if values else 0.0


def _utilization(net) -> tuple[float, float]:
    """Mean used fraction of CPU across nodes and bandwidth across links, 0 at 0 capacity."""
    cpu = 0.0
    for node, free in zip(net.nodes, net.cpu_free):
        cap = node.capacity.cpu_m
        cpu += (cap - free) / cap if cap else 0.0
    cpu /= net.num_nodes
    if net.num_links == 0:
        return cpu, 0.0
    bw = 0.0
    for link, free in zip(net.links, net.bw_free):
        cap = link.bw_capacity_m
        bw += (cap - free) / cap if cap else 0.0
    return cpu, bw / net.num_links


def run_simulation(cfg: SimConfig) -> SimulationResult:
    """One seeded run; returns the sampled series, per-arrival log, and summary."""
    cfg.validate()
    net = generate_physical_network(cfg.generator, stream(cfg.seed, "topology"))
    workload = build_workload(cfg.generator, cfg.duration, cfg.seed)
    leader_rng = stream(cfg.seed, "leaders")
    ledger: dict[int, LedgerEntry] = {}
    # grc ranks every request once, up front: a request's rank ignores the substrate
    orders = vnr_orders([vnr for _, vnr, _ in workload], cfg.grc) if cfg.algorithm == "grc" else {}

    events: list[tuple[float, int, int, object]] = []
    for when, vnr, primary in workload:
        heapq.heappush(events, (when, _ARRIVAL, vnr.request_id, (vnr, primary)))

    series: list[SeriesSample] = []
    per_arrival: list[ArrivalRecord] = []
    traces: list[ElectionTrace] = []
    arrivals = acceptances = 0
    revenue = cost = 0.0
    embedding_messages = embedded_messages = 0
    digest = hashlib.sha256()

    def sample(now: float) -> None:
        cpu, bw = _utilization(net)
        series.append(
            SeriesSample(
                time=now,
                arrivals=arrivals,
                acceptances=acceptances,
                acceptance_ratio=acceptances / arrivals if arrivals else 0.0,
                revenue=revenue,
                cost=cost,
                revenue_cost_ratio=revenue / cost if cost > 0 else 0.0,
                cpu_utilization=cpu,
                link_utilization=bw,
                embedding_messages=embedding_messages,
                embedded_messages=embedded_messages,
            )
        )

    epoch = 0

    def flush_samples(up_to: float) -> None:
        # epochs at k*interval, covering events with time <= the epoch
        nonlocal epoch
        while True:
            next_time = (epoch + 1) * cfg.sampling_interval
            if next_time > cfg.duration or next_time >= up_to:
                break
            epoch += 1
            sample(next_time)

    # departures past the horizon stay queued; the wind-down below releases them
    while events and events[0][0] <= cfg.duration:
        when, kind, request_id, payload = heapq.heappop(events)
        flush_samples(when)
        if kind == _DEPARTURE:
            release(net, request_id, ledger)
            continue
        vnr, primary = payload
        arrivals += 1
        vnr_hash = vnr.fingerprint()
        digest.update(vnr_hash.encode())
        req_embedding = req_embedded = 0
        # the embedders are looked up at call time, so benchmarks/layers.py can wrap them
        if cfg.algorithm == "devine":
            election = run_election(net, vnr, primary, cfg.election, rng=leader_rng)
            outcome = election.outcome
            req_embedding = election.trace.embedding_count
            req_embedded = election.trace.embedded_count
            embedding_messages += req_embedding
            embedded_messages += req_embedded
            if len(traces) < cfg.trace_sample:
                traces.append(election.trace)
        elif cfg.algorithm == "firstfit":
            outcome = first_fit(net, vnr, cfg.election)
        elif cfg.algorithm == "bestfit":
            outcome = best_fit(net, vnr, cfg.election)
        else:
            outcome = grc_embed(net, vnr, cfg.grc, cfg.election, orders[request_id])
        solution = outcome.solution
        accepted = outcome.feasible
        if accepted:
            try:
                allocate(net, vnr, solution, ledger, injective=cfg.election.injective)
            except AllocationError:  # the solution no longer fits the live residuals
                accepted = False
        if accepted:
            acceptances += 1
            revenue += solution.revenue
            cost += solution.cost
            heapq.heappush(
                events, (vnr.arrival_time + vnr.lifetime, _DEPARTURE, request_id, None)
            )
        per_arrival.append(
            ArrivalRecord(
                request_id=request_id,
                time=when,
                vnr_hash=vnr_hash,
                accepted=accepted,
                acceptance_ratio=acceptances / arrivals,
                revenue=solution.revenue if accepted else 0.0,
                cost=solution.cost if accepted else 0.0,
                metric=solution.metric if accepted else 0.0,
                embedding_messages=req_embedding,
                embedded_messages=req_embedded,
            )
        )

    flush_samples(math.inf)
    if cfg.duration > 0 and (not series or series[-1].time < cfg.duration):
        sample(cfg.duration)

    summary = {
        "algorithm": cfg.algorithm,
        "seed": cfg.seed,
        "servers": net.num_nodes,
        "links": net.num_links,
        "duration": cfg.duration,
        "arrivals": arrivals,
        "acceptances": acceptances,
        "acceptance_ratio": acceptances / arrivals if arrivals else 0.0,
        "revenue": revenue,
        "cost": cost,
        "revenue_cost_ratio": revenue / cost if cost > 0 else 0.0,
        "mean_cpu_utilization": _mean([s.cpu_utilization for s in series]),
        "mean_link_utilization": _mean([s.link_utilization for s in series]),
        "embedding_messages": embedding_messages,
        "embedded_messages": embedded_messages,
        "workload_digest": digest.hexdigest(),
    }

    # wind down: everything still embedded leaves, and the substrate must
    # return to its exact initial capacities
    for request_id in sorted(ledger):
        release(net, request_id, ledger)
    problems = conservation_violations(net, ledger)  # the ledger is empty now
    if problems:
        raise SimulationError("conservation broken: " + "; ".join(problems[:5]))
    summary["conservation_ok"] = True
    return SimulationResult(series, per_arrival, summary, traces)


def compare_algorithms(
    cfg: SimConfig, algorithms: list[str], seeds: list[int]
) -> tuple[list[dict], list[dict]]:
    """Cross product of algorithms and seeds on identical workloads.

    Returns per-run summary rows and per-algorithm aggregates. Raises
    RepeatedRunError, before any run, if either list names a value twice, and
    SimulationError if any two algorithms saw different workloads for one seed.
    """
    if not algorithms or not seeds:
        raise ValueError("need at least one algorithm and one seed")
    for name, values in (("algorithms", algorithms), ("seeds", seeds)):
        repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
        if repeated is not None:  # each run would count twice in the aggregates
            raise RepeatedRunError(f"{name} names {repeated} more than once")
    rows = []
    for seed in seeds:
        digests = {}
        for algorithm in algorithms:
            run_cfg = replace(cfg, algorithm=algorithm, seed=seed)
            result = run_simulation(run_cfg)
            rows.append(result.summary)
            digests[algorithm] = result.summary["workload_digest"]
        if len(set(digests.values())) != 1:
            raise SimulationError(f"workload digests diverged for seed {seed}: {digests}")

    aggregates = []
    for algorithm in algorithms:
        mine = [row for row in rows if row["algorithm"] == algorithm]
        aggregates.append(
            {
                "algorithm": algorithm,
                "runs": len(mine),
                "median_acceptance_ratio": median([r["acceptance_ratio"] for r in mine]),
                "median_revenue_cost_ratio": median([r["revenue_cost_ratio"] for r in mine]),
                "mean_revenue": _mean([r["revenue"] for r in mine]),
                "mean_cost": _mean([r["cost"] for r in mine]),
                "mean_cpu_utilization": _mean([r["mean_cpu_utilization"] for r in mine]),
                "mean_link_utilization": _mean([r["mean_link_utilization"] for r in mine]),
            }
        )
    return rows, aggregates
