"""Embedding solutions: pricing, verification, and reversible allocation.

Revenue counts CPU and bandwidth demands only; memory and GPU are
feasibility constraints.  Cost weights each link demand by the hop length
of its mapped path, so co-located endpoints contribute nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise

from .model import PhysicalNetwork, Vnr, from_milli


class AllocationError(RuntimeError):
    """Raised when an allocation is attempted on an invalid solution."""


class LedgerError(RuntimeError):
    """Raised on unknown or duplicate ledger entries."""


@dataclass
class EmbeddingSolution:
    """A complete mapping of one request onto the substrate."""

    request_id: int
    node_mapping: dict[int, int]  # virtual node id -> physical node id
    path_mapping: dict[int, tuple[int, ...]]  # virtual link index -> node path
    revenue: float
    cost: float
    metric: float


@dataclass(frozen=True)
class Violation:
    """First constraint breach found by verify_solution."""

    kind: str  # node-mapping | node-capacity | path | link-capacity
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def revenue_of(vnr: Vnr) -> float:
    """Total CPU demand plus total bandwidth demand."""
    cpu_m = sum(node.demand.cpu_m for node in vnr.nodes)
    bw_m = sum(link.bw_demand_m for link in vnr.links)
    return from_milli(cpu_m + bw_m)


def metric_of(revenue: float, cost: float, x: float = 1.0, y: float = 1.0) -> float:
    """Weighted profit x*revenue - y*cost used to compare candidate embeddings."""
    return x * revenue - y * cost


@dataclass
class LedgerEntry:
    """Exact deltas applied for one request, for later reversal."""

    node_deltas: dict[int, tuple[int, int, int]]  # physical node id -> (cpu, memory, gpu)
    link_deltas: dict[int, int]  # link index -> bandwidth


def verify_solution(
    net: PhysicalNetwork,
    vnr: Vnr,
    solution: EmbeddingSolution,
    injective: bool = False,
) -> Violation | LedgerEntry:
    """Check a solution against current residuals, in one pass that also tallies its load.

    Checks run in a fixed order and report the first breach: mapping totality,
    aggregated node capacities, path validity, aggregated link capacities.
    When all pass, the entry holds the per-server and per-link loads `allocate` books.
    """
    mapping, num_vnodes, n = solution.node_mapping, vnr.num_nodes, net.num_nodes
    for vid in range(num_vnodes):
        pid = mapping.get(vid)
        if pid is None:
            return Violation("node-mapping", f"virtual node {vid} is unmapped")
        if not 0 <= pid < n:
            return Violation("node-mapping", f"virtual node {vid} maps to unknown node {pid}")
    for vid in mapping:
        if not 0 <= vid < num_vnodes:
            return Violation("node-mapping", f"mapping names unknown virtual node {vid}")
    if injective and len(set(mapping.values())) != num_vnodes:
        return Violation("node-mapping", "node mapping is not one-to-one")

    node_load: dict[int, tuple[int, int, int]] = {}
    for vid, node in enumerate(vnr.nodes):
        demand, pid = node.demand, mapping[vid]
        cpu_m, memory_m, gpu_m = node_load.get(pid, (0, 0, 0))
        node_load[pid] = (cpu_m + demand.cpu_m, memory_m + demand.memory_m, gpu_m + demand.gpu_m)
    cpu_free, memory_free, gpu_free = net.cpu_free, net.memory_free, net.gpu_free
    for pid in sorted(node_load):
        cpu_m, memory_m, gpu_m = node_load[pid]
        if cpu_m > cpu_free[pid] or memory_m > memory_free[pid] or gpu_m > gpu_free[pid]:
            return Violation("node-capacity", f"aggregate demand exceeds residual on node {pid}")

    link_load: dict[int, int] = {}
    paths, adjacency = solution.path_mapping, net.adjacency
    for idx, vlink in enumerate(vnr.links):
        path = paths.get(idx)
        if path is None:
            return Violation("path", f"virtual link {idx} has no path")
        if len(path) < 1:
            return Violation("path", f"virtual link {idx} has an empty path")
        ends = mapping[vlink.u], mapping[vlink.v]
        if len(path) == 1:  # cannot repeat a node
            if ends != (path[0], path[0]):
                return Violation("path", f"single-node path for link {idx} misses its endpoints")
            continue
        if len(set(path)) != len(path):
            return Violation("path", f"path for virtual link {idx} repeats a node")
        if (path[0], path[-1]) != ends and (path[-1], path[0]) != ends:
            return Violation("path", f"path for virtual link {idx} misses its endpoints")
        # path[0] is a mapped server and each later node a neighbour found before it: all in range
        for a, b in pairwise(path):
            link_idx = adjacency[a].get(b)
            if link_idx is None:
                return Violation("path", f"path for virtual link {idx} uses missing link ({a}, {b})")
            link_load[link_idx] = link_load.get(link_idx, 0) + vlink.bw_demand_m
    for link_idx in sorted(link_load):
        if link_load[link_idx] > net.bw_free[link_idx]:
            link = net.links[link_idx]
            return Violation(
                "link-capacity",
                f"aggregate bandwidth exceeds residual on link ({link.u}, {link.v})",
            )
    return LedgerEntry(node_load, link_load)


def allocate(
    net: PhysicalNetwork,
    vnr: Vnr,
    solution: EmbeddingSolution,
    ledger: dict[int, LedgerEntry],
    injective: bool = False,
) -> None:
    """Apply the solution's deltas to residuals and record them in the ledger."""
    if vnr.request_id in ledger:
        raise LedgerError(f"request {vnr.request_id} is already allocated")
    entry = verify_solution(net, vnr, solution, injective=injective)
    if isinstance(entry, Violation):
        raise AllocationError(str(entry))
    _book(net, entry, -1)
    ledger[vnr.request_id] = entry


def release(net: PhysicalNetwork, request_id: int, ledger: dict[int, LedgerEntry]) -> None:
    """Exact inverse of allocate; checks every server and link before it writes any."""
    entry = ledger.get(request_id)
    if entry is None:
        raise LedgerError(f"request {request_id} is not in the ledger")
    for pid, (cpu_m, memory_m, gpu_m) in entry.node_deltas.items():
        cap = net.nodes[pid].capacity
        if (
            cpu_m + net.cpu_free[pid] > cap.cpu_m
            or memory_m + net.memory_free[pid] > cap.memory_m
            or gpu_m + net.gpu_free[pid] > cap.gpu_m
        ):
            raise LedgerError(f"release would exceed capacity on node {pid}")
    for link_idx, bw_m in entry.link_deltas.items():
        link = net.links[link_idx]
        if bw_m + net.bw_free[link_idx] > link.bw_capacity_m:
            raise LedgerError(f"release would exceed capacity on link ({link.u}, {link.v})")
    del ledger[request_id]
    _book(net, entry, 1)


def _book(net: PhysicalNetwork, entry: LedgerEntry, sign: int) -> None:
    """Move residuals by sign times the entry's deltas: -1 takes them, 1 gives them back."""
    for pid, (cpu_m, memory_m, gpu_m) in entry.node_deltas.items():
        net.cpu_free[pid] += sign * cpu_m
        net.memory_free[pid] += sign * memory_m
        net.gpu_free[pid] += sign * gpu_m
    for link_idx, bw_m in entry.link_deltas.items():
        net.bw_free[link_idx] += sign * bw_m
    net.bw_moved.update(entry.link_deltas)


def conservation_violations(net: PhysicalNetwork, ledger: dict[int, LedgerEntry]) -> list[str]:
    """Residuals that disagree with capacity minus outstanding ledger deltas."""
    problems: list[str] = []
    node_out: dict[int, list[int]] = {}
    link_out: dict[int, int] = {}
    for entry in ledger.values():
        for pid, deltas in entry.node_deltas.items():
            node_out[pid] = [held + d for held, d in zip(node_out.get(pid, (0, 0, 0)), deltas)]
        for link_idx, bw_m in entry.link_deltas.items():
            link_out[link_idx] = link_out.get(link_idx, 0) + bw_m
    for pid, node in enumerate(net.nodes):
        held = node_out.get(pid, [0, 0, 0])
        cap = node.capacity
        free = (net.cpu_free[pid], net.memory_free[pid], net.gpu_free[pid])
        if free != (cap.cpu_m - held[0], cap.memory_m - held[1], cap.gpu_m - held[2]):
            problems.append(f"node {pid} residual disagrees with ledger")
    for link_idx, link in enumerate(net.links):
        held = link_out.get(link_idx, 0)
        if net.bw_free[link_idx] != link.bw_capacity_m - held:
            problems.append(f"link ({link.u}, {link.v}) residual disagrees with ledger")
    return problems
