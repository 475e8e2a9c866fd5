"""Seeded random generation of substrate networks and request workloads.

Normal-distribution parameters are (mean, second) pairs; the second value is
a variance by default (std = sqrt(second)), switchable to a plain standard
deviation via ``second_parameter``.  Draws below the floor are redrawn.

Stream contract.  A substrate consumes its stream in this order: one
uniform per node pair (u, v), u < v, in lexicographic order, repeated until
the sampled graph is connected; then one normal each for cpu, memory and gpu
capacity per node in id order; then one normal per link bandwidth in link
order.  A request consumes, from the request stream: one integer for its
size; its node pairs' uniforms as above; one normal each for cpu, memory and
gpu demand per node; one per link bandwidth; then one for its lifetime.
Under poisson arrivals each request's gap is drawn from the request stream
just before it.  A normal below its floor is redrawn at once, before the
next value is drawn.  Each normal is formed as mean + std * z from standard
normals z taken in this order, which is numpy's scalar normal bit for bit;
tests/test_fast_paths.py pins that against a per-value reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    PhysicalLink,
    PhysicalNetwork,
    PhysicalNode,
    ResourceVector,
    VirtualLink,
    VirtualNode,
    Vnr,
    require_finite,
)

# Cap on substrate and request sizes: the generator draws one number per node
# pair, so a typo in a size fails validation instead of exhausting memory.
MAX_NODES = 1000
# Cap on every distribution's mean and spread: amounts become int64
# milli-units, which overflow above about 9.2e15.
MAX_AMOUNT = 1e12
# Draws one value may take before generation fails.
_MAX_REDRAWS = 1000

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
            require_finite(**{f"{name}[{i}]": value for i, value in enumerate(dist)})
            if max(abs(value) for value in dist) > MAX_AMOUNT:
                raise ValueError(f"{name} may not exceed {MAX_AMOUNT:g} in magnitude, got {dist}")
            self.std_of(dist)


def _draw_positives(rng, cfg: GeneratorConfig, groups) -> list[float]:
    """One normal per value of `groups`, redrawn below its floor up to `_MAX_REDRAWS` times.

    `groups` holds (dists, count, floor): `dists` repeated `count` times, each
    value at least `floor`.  A batch of standard normals is never longer than
    the values left or the current value's redraws left, so the stream stops
    where scalar draws would stop, on success and on failure alike.
    """
    means, stds, floors = [], [], []
    for dists, count, floor in groups:
        means += [dist[0] for dist in dists] * count
        stds += [cfg.std_of(dist) for dist in dists] * count
        floors += [floor] * (len(dists) * count)
    values: list[float] = []
    k, redraws = 0, _MAX_REDRAWS  # the next value's index and the draws it may still take
    while k < len(means):
        for z in rng.standard_normal(min(len(means) - k, redraws)).tolist():
            x = means[k] + stds[k] * z
            if x >= floors[k]:
                values.append(x)
                k += 1
                redraws = _MAX_REDRAWS
            else:
                redraws -= 1
        if not redraws:
            low, mean, std = floors[k], means[k], stds[k]
            raise GenerationError(f"could not draw a value >= {low} from N({mean}, std={std})")
    return values


def _random_edges(rng, num_nodes: int, probability: float) -> list[tuple[int, int]]:
    """G(n, p) edges in lexicographic pair order, from one uniform per pair."""
    if num_nodes < 2:
        return []
    pairs = num_nodes * (num_nodes - 1) // 2
    hits = np.flatnonzero(rng.random(pairs) < probability).tolist()
    # flat index k is pair (u, k - start + u + 1) of row u, which holds the
    # pairs (u, u+1) .. (u, n-1) at flat indices [start, end)
    edges = []
    u, start, end = 0, 0, num_nodes - 1
    for k in hits:
        while k >= end:
            u += 1
            start, end = end, end + num_nodes - 1 - u
        edges.append((u, k - start + u + 1))
    return edges


def _spans(num_nodes: int, edges) -> bool:
    """Whether edges connect all num_nodes nodes: a search over neighbor bitmasks."""
    if num_nodes <= 1:
        return True
    masks = [0] * num_nodes
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    seen = todo = 1  # node 0; todo holds the reached nodes not yet expanded
    while todo:
        low = todo & -todo
        fresh = masks[low.bit_length() - 1] & ~seen
        seen |= fresh
        todo = (todo ^ low) | fresh
    return seen == (1 << num_nodes) - 1


def _connected_edges(rng, num_nodes, probability, max_attempts) -> list[tuple[int, int]]:
    """Sample G(n, p) edge sets until one is connected."""
    for _ in range(max_attempts):
        edges = _random_edges(rng, num_nodes, probability)
        if _spans(num_nodes, edges):
            return edges
    raise GenerationError(
        f"no connected graph with n={num_nodes}, p={probability} "
        f"after {max_attempts} attempts"
    )


def generate_physical_network(cfg: GeneratorConfig, rng: np.random.Generator) -> PhysicalNetwork:
    """Connected substrate with normally distributed capacities."""
    cfg.validate()
    n = cfg.server_count
    edges = _connected_edges(rng, n, cfg.link_probability, cfg.max_attempts)
    values = _draw_positives(rng, cfg, [
        ((cfg.cpu_capacity, cfg.memory_capacity, cfg.gpu_capacity), n, cfg.resource_floor),
        ((cfg.link_bandwidth,), len(edges), cfg.resource_floor),
    ])
    nodes = [PhysicalNode(i, ResourceVector(*values[3 * i : 3 * i + 3])) for i in range(n)]
    links = [PhysicalLink(u, v, bw) for (u, v), bw in zip(edges, values[3 * n :])]
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
    values = _draw_positives(rng, cfg, [
        ((cfg.cpu_demand, cfg.memory_demand, cfg.gpu_demand), size, cfg.resource_floor),
        ((cfg.bandwidth_demand,), len(edges), cfg.resource_floor),
        ((cfg.lifetime,), 1, cfg.lifetime_floor),
    ])
    nodes = [VirtualNode(i, ResourceVector(*values[3 * i : 3 * i + 3])) for i in range(size)]
    links = [VirtualLink(u, v, bw) for (u, v), bw in zip(edges, values[3 * size : -1])]
    return Vnr(request_id, nodes, links, arrival_time, values[-1])
