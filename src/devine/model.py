"""Substrate and virtual network domain types.

Resource amounts (CPU cores, memory GBytes, GPU cores, bandwidth Mbps) are
stored as scaled integers with 3 decimal places, so repeated allocate and
release cycles restore residual capacities exactly, with no float drift.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

SCALE = 1000  # fixed-point denominator, 3 decimal places


def to_milli(value: float) -> int:
    """Quantize an amount to integer milli-units."""
    return round(value * SCALE)


def from_milli(units: int) -> float:
    return units / SCALE


def require_finite(**values: float) -> None:
    """Raise ValueError naming the first value that is infinite, NaN, or too large for a float."""
    for name, value in values.items():
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite, value = False, "an integer too large for a float"
        if not finite:
            raise ValueError(f"{name} must be finite, got {value}")


class ResourceVector:
    """Non-negative (cpu, memory, gpu) amounts in fixed-point milli-units."""

    __slots__ = ("cpu_m", "memory_m", "gpu_m")

    def __init__(self, cpu: float = 0.0, memory: float = 0.0, gpu: float = 0.0):
        # to_milli inlined: requests build three per virtual node
        self.cpu_m = round(cpu * SCALE)
        self.memory_m = round(memory * SCALE)
        self.gpu_m = round(gpu * SCALE)
        if min(self.cpu_m, self.memory_m, self.gpu_m) < 0:
            raise ValueError(f"resource amounts must be non-negative, got {self!r}")

    def __repr__(self) -> str:
        return f"ResourceVector(cpu_m={self.cpu_m}, memory_m={self.memory_m}, gpu_m={self.gpu_m})"


@dataclass(frozen=True)
class PhysicalNode:
    """Server with a static capacity; what is free lives on the network."""

    id: int
    capacity: ResourceVector


class PhysicalLink:
    """Undirected substrate link with a fixed-point bandwidth capacity."""

    __slots__ = ("u", "v", "bw_capacity_m")

    def __init__(self, u: int, v: int, bandwidth: float):
        if u == v:
            raise ValueError("self-loops are not allowed")
        self.u, self.v = (u, v) if u < v else (v, u)
        self.bw_capacity_m = to_milli(bandwidth)
        if self.bw_capacity_m < 0:
            raise ValueError(f"bandwidth out of range on link ({self.u}, {self.v})")

    def __repr__(self) -> str:
        return f"PhysicalLink({self.u}, {self.v}, bw_capacity_m={self.bw_capacity_m})"


def _build_adjacency(num_nodes: int, links) -> list[dict[int, int]]:
    """Per-node map of neighbor id to link index; rejects duplicates.

    Entries are inserted in link-index order, so each node's map iterates
    by ascending link index.
    """
    adjacency: list[dict[int, int]] = [dict() for _ in range(num_nodes)]
    for idx, link in enumerate(links):
        if not (0 <= link.u < num_nodes and 0 <= link.v < num_nodes):
            raise ValueError(f"link ({link.u}, {link.v}) references an unknown node")
        if link.v in adjacency[link.u]:
            raise ValueError(f"duplicate link ({link.u}, {link.v})")
        adjacency[link.u][link.v] = idx
        adjacency[link.v][link.u] = idx
    return adjacency


class Walk:
    """Breadth-first order of node ids from one root, with their depths, grown on demand.

    Each node's neighbors are queued in the order `neighbors` lists them.
    Given ascending ids, as `PhysicalNetwork.walk` gives them, the nodes of
    depth <= beta are, in order, what a FIFO search capped at beta visits.
    `depth[v]` is v's hop distance from the root once v is in `order`, else -1.
    """

    __slots__ = ("order", "depth", "_expanded", "_neighbors")

    def __init__(self, root: int, neighbors):
        self.order = [root]
        self.depth = [-1] * len(neighbors)
        self.depth[root] = 0
        self._expanded = 0  # order[:_expanded] have had their neighbors queued
        self._neighbors = neighbors

    def reach(self, node: int, size: int = 0) -> int:
        """node's depth, grown until it has one and `order` lists more than `size` nodes.

        -1 once the root's component is exhausted.  The root's depth is 0, so
        `reach(root, k)` only grows the walk past k nodes, as far as it goes.
        """
        order, depth, neighbors = self.order, self.depth, self._neighbors
        expanded = self._expanded
        while (depth[node] < 0 or len(order) <= size) and expanded < len(order):
            here = order[expanded]
            expanded += 1
            below = depth[here] + 1
            for nb in neighbors[here]:
                if depth[nb] < 0:
                    depth[nb] = below
                    order.append(nb)
        self._expanded = expanded
        return depth[node]


def _free_list(given: list[int] | None, capacity: list[int], what: str) -> list[int]:
    """A residual list: capacity when not given, else a checked copy of it."""
    if given is None:
        return capacity
    if len(given) != len(capacity) or not all(0 <= f <= c for f, c in zip(given, capacity)):
        raise ValueError(f"{what} residuals must lie between 0 and capacity, one per entry")
    return list(given)


class PhysicalNetwork:
    """Undirected substrate graph, and the only owner of what is free on it.

    `cpu_free`, `memory_free` and `gpu_free` (by node id) and `bw_free` (by
    link index) hold residuals in milli-units, from capacity unless given.
    Plain lists: the hot loops read single entries, which lists serve fastest.
    """

    def __init__(
        self,
        nodes: list[PhysicalNode],
        links: list[PhysicalLink],
        *,
        cpu_free: list[int] | None = None,
        memory_free: list[int] | None = None,
        gpu_free: list[int] | None = None,
        bw_free: list[int] | None = None,
    ):
        ids = [node.id for node in nodes]
        if ids != list(range(len(nodes))):
            raise ValueError("node ids must be dense integers 0..n-1 in order")
        self.nodes = nodes
        self.links = links
        self.cpu_free = _free_list(cpu_free, [n.capacity.cpu_m for n in nodes], "cpu")
        self.memory_free = _free_list(memory_free, [n.capacity.memory_m for n in nodes], "memory")
        self.gpu_free = _free_list(gpu_free, [n.capacity.gpu_m for n in nodes], "gpu")
        self.bw_free = _free_list(bw_free, [l.bw_capacity_m for l in links], "bandwidth")
        self.adjacency = _build_adjacency(len(nodes), links)
        self._neighbors = [sorted(nbs) for nbs in self.adjacency]
        self._walks: list[Walk | None] = [None] * len(nodes)
        self.grc_transition = None  # baselines.grc_rank's kept transition and last rank
        self.bw_moved: set[int] = set()  # links allocate and release wrote since grc_rank read them

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_links(self) -> int:
        return len(self.links)

    def neighbors(self, node_id: int) -> list[int]:
        """Neighbor ids in ascending order."""
        return self._neighbors[node_id]

    def walk(self, root: int) -> Walk:
        """Breadth-first walk from root, shared by every caller; the topology is static."""
        walk = self._walks[root]
        if walk is None:
            walk = self._walks[root] = Walk(root, self._neighbors)
        return walk



@dataclass(slots=True)
class VirtualNode:
    """Requested node with a resource demand vector."""

    id: int
    demand: ResourceVector = field(default_factory=ResourceVector)


class VirtualLink:
    """Undirected virtual link with a fixed-point bandwidth demand."""

    __slots__ = ("u", "v", "bw_demand_m")

    def __init__(self, u: int, v: int, bandwidth: float):
        if u == v:
            raise ValueError("self-loops are not allowed")
        self.u, self.v = (u, v) if u < v else (v, u)
        self.bw_demand_m = round(bandwidth * SCALE)  # to_milli, inlined
        if self.bw_demand_m < 0:
            raise ValueError("bandwidth demand must be non-negative")

    def __repr__(self) -> str:
        return f"VirtualLink({self.u}, {self.v}, bw_demand_m={self.bw_demand_m})"


class Vnr:
    """Virtual network request: node demands, link demands, arrival, lifetime."""

    def __init__(
        self,
        request_id: int,
        nodes: list[VirtualNode],
        links: list[VirtualLink],
        arrival_time: float = 0.0,
        lifetime: float = 1.0,
    ):
        ids = [node.id for node in nodes]
        if ids != list(range(len(nodes))):
            raise ValueError("virtual node ids must be dense integers 0..n-1 in order")
        if not nodes:
            raise ValueError("a request needs at least one virtual node")
        if lifetime <= 0:
            raise ValueError("lifetime must be positive")
        if arrival_time < 0:
            raise ValueError("arrival time must be non-negative")
        self.request_id = request_id
        self.nodes = nodes
        self.links = links
        self.arrival_time = arrival_time
        self.lifetime = lifetime
        self.adjacency = _build_adjacency(len(nodes), links)
        # local_embed._demands' (order, demands, least, totals, revenue); built once, never mutated
        self.demand_order_memo: tuple | None = None

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_links(self) -> int:
        return len(self.links)

    def fingerprint(self) -> str:
        """Stable digest of the full request, for workload-identity checks."""
        parts = [str(self.request_id), repr(self.arrival_time), repr(self.lifetime)]
        for node in self.nodes:
            d = node.demand
            parts.append(f"n{node.id}:{d.cpu_m},{d.memory_m},{d.gpu_m}")
        for link in self.links:
            parts.append(f"l{link.u}-{link.v}:{link.bw_demand_m}")
        return hashlib.sha256("|".join(parts).encode()).hexdigest()

    def __repr__(self) -> str:
        return (
            f"Vnr(request_id={self.request_id}, nodes={self.num_nodes}, "
            f"links={self.num_links}, arrival={self.arrival_time}, lifetime={self.lifetime})"
        )
