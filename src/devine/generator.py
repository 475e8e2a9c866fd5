"""Seeded random generation of substrate networks and request workloads.

Normal-distribution parameters are (mean, second) pairs; the second value is
a variance by default (std = sqrt(second)), switchable to a plain standard
deviation via ``second_parameter``.  Draws below the floor are redrawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .model import (
    PhysicalLink,
    PhysicalNetwork,
    PhysicalNode,
    ResourceVector,
    VirtualLink,
    VirtualNode,
    Vnr,
    _connected,
    require_finite,
)

# Cap on substrate and request sizes: the generator draws one number per node
# pair, so a typo in a size fails validation instead of exhausting memory.
MAX_NODES = 1000

_STREAM_IDS = {"topology": 0, "vnr": 1, "primaries": 2, "leaders": 3}
_MASK64 = (1 << 64) - 1


def stream(master_seed: int, name: str) -> np.random.Generator:
    """Named child stream of the master seed.

    Workload streams (topology, vnr, primaries) never share state with the
    algorithm-internal stream (leaders), so swapping the embedding algorithm
    cannot perturb the generated workload.
    """
    if name not in _STREAM_IDS:
        raise ValueError(f"unknown stream name: {name!r}")
    return np.random.default_rng([_STREAM_IDS[name], master_seed & _MASK64])


class GenerationError(RuntimeError):
    """Raised when regeneration attempts run out."""


@dataclass
class GeneratorConfig:
    """Distributions and sizes for substrate and request generation."""

    server_count: int = 100
    link_probability: float = 0.4
    cpu_capacity: tuple[float, float] = (100.0, 400.0)
    memory_capacity: tuple[float, float] = (1200.0, 300.0)
    gpu_capacity: tuple[float, float] = (100.0, 400.0)
    link_bandwidth: tuple[float, float] = (100.0, 400.0)
    vnr_size: tuple[int, int] = (4, 10)
    vnr_link_probability: float = 0.7
    cpu_demand: tuple[float, float] = (10.0, 4.0)
    memory_demand: tuple[float, float] = (30.0, 9.0)
    gpu_demand: tuple[float, float] = (10.0, 4.0)
    bandwidth_demand: tuple[float, float] = (10.0, 4.0)
    lifetime: tuple[float, float] = (100.0, 900.0)
    arrival_rate: float = 2.0
    arrival_process: str = "poisson"  # or "uniform" for deterministic spacing
    second_parameter: str = "variance"  # or "std"
    resource_floor: float = 0.1
    lifetime_floor: float = 1.0
    max_attempts: int = 100

    def std_of(self, dist: tuple[float, float]) -> float:
        mean, second = dist
        if second < 0:
            raise ValueError(f"negative dispersion parameter in {dist}")
        return math.sqrt(second) if self.second_parameter == "variance" else second

    def validate(self) -> None:
        require_finite(
            link_probability=self.link_probability,
            vnr_link_probability=self.vnr_link_probability,
            arrival_rate=self.arrival_rate,
            resource_floor=self.resource_floor,
            lifetime_floor=self.lifetime_floor,
        )
        if self.server_count < 1:
            raise ValueError("server_count must be at least 1")
        if not 0.0 <= self.link_probability <= 1.0:
            raise ValueError("link_probability must lie in [0, 1]")
        if not 0.0 <= self.vnr_link_probability <= 1.0:
            raise ValueError("vnr_link_probability must lie in [0, 1]")
        lo, hi = self.vnr_size
        if lo < 1 or hi < lo:
            raise ValueError("vnr_size must be a range 1 <= lo <= hi")
        if max(self.server_count, hi) > MAX_NODES:
            raise ValueError(f"server_count and vnr_size may not exceed {MAX_NODES} nodes")
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if self.arrival_process not in ("poisson", "uniform"):
            raise ValueError(f"unknown arrival_process: {self.arrival_process!r}")
        if self.second_parameter not in ("variance", "std"):
            raise ValueError(f"unknown second_parameter: {self.second_parameter!r}")
        if self.resource_floor <= 0 or self.lifetime_floor <= 0:
            raise ValueError("floors must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        for name in (
            "cpu_capacity", "memory_capacity", "gpu_capacity", "link_bandwidth",
            "cpu_demand", "memory_demand", "gpu_demand", "bandwidth_demand", "lifetime",
        ):
            dist = getattr(self, name)
            if not all(math.isfinite(value) for value in dist):
                raise ValueError(f"{name} must be finite, got {dist}")
            self.std_of(dist)


def draw_positive(
    rng: np.random.Generator,
    dist: tuple[float, float],
    cfg: GeneratorConfig,
    floor: float | None = None,
    max_redraws: int = 1000,
) -> float:
    """One normal draw, redrawn until it clears the floor."""
    low = cfg.resource_floor if floor is None else floor
    mean = dist[0]
    std = cfg.std_of(dist)
    for _ in range(max_redraws):
        x = rng.normal(mean, std)
        if x >= low:
            return float(x)
    raise GenerationError(f"could not draw a value >= {low} from N({mean}, std={std})")


def _random_edges(rng, num_nodes: int, probability: float) -> list[tuple[int, int]]:
    pairs = list(combinations(range(num_nodes), 2))
    if not pairs:
        return []
    hits = rng.random(len(pairs)) < probability
    return [pair for pair, hit in zip(pairs, hits) if hit]


def _connected_edges(rng, num_nodes, probability, max_attempts) -> list[tuple[int, int]]:
    """Sample G(n, p) edge sets until one is connected."""
    for _ in range(max_attempts):
        edges = _random_edges(rng, num_nodes, probability)
        adjacency: list[set[int]] = [set() for _ in range(num_nodes)]
        for u, v in edges:
            adjacency[u].add(v)
            adjacency[v].add(u)
        if _connected(num_nodes, adjacency):
            return edges
    raise GenerationError(
        f"no connected graph with n={num_nodes}, p={probability} "
        f"after {max_attempts} attempts"
    )


def generate_physical_network(cfg: GeneratorConfig, rng: np.random.Generator) -> PhysicalNetwork:
    """Connected substrate with normally distributed capacities."""
    cfg.validate()
    edges = _connected_edges(rng, cfg.server_count, cfg.link_probability, cfg.max_attempts)
    nodes = []
    for node_id in range(cfg.server_count):
        capacity = ResourceVector(
            cpu=draw_positive(rng, cfg.cpu_capacity, cfg),
            memory=draw_positive(rng, cfg.memory_capacity, cfg),
            gpu=draw_positive(rng, cfg.gpu_capacity, cfg),
        )
        nodes.append(PhysicalNode(node_id, capacity))
    links = [
        PhysicalLink(u, v, draw_positive(rng, cfg.link_bandwidth, cfg))
        for u, v in edges
    ]
    return PhysicalNetwork(nodes, links)


def generate_vnr(
    cfg: GeneratorConfig,
    request_id: int,
    arrival_time: float,
    rng: np.random.Generator,
) -> Vnr:
    """Connected request graph with normally distributed demands."""
    lo, hi = cfg.vnr_size
    size = int(rng.integers(lo, hi + 1))
    edges = _connected_edges(rng, size, cfg.vnr_link_probability, cfg.max_attempts)
    nodes = []
    for node_id in range(size):
        demand = ResourceVector(
            cpu=draw_positive(rng, cfg.cpu_demand, cfg),
            memory=draw_positive(rng, cfg.memory_demand, cfg),
            gpu=draw_positive(rng, cfg.gpu_demand, cfg),
        )
        nodes.append(VirtualNode(node_id, demand))
    links = [
        VirtualLink(u, v, draw_positive(rng, cfg.bandwidth_demand, cfg))
        for u, v in edges
    ]
    lifetime = draw_positive(rng, cfg.lifetime, cfg, floor=cfg.lifetime_floor)
    return Vnr(request_id, nodes, links, arrival_time, lifetime)
