"""Centralized comparison embedders.

All three share the demand-ordered virtual queue and the path mapper used
by the local embedder, but pick substrate nodes by capacity alone and give
up on the first link that cannot be routed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .local_embed import LocalEmbedOutcome, LocalEmbedParams, _demands, _finish, _Scratch
from .local_embed import demand_order
from .model import PhysicalNetwork, Vnr, require_finite


class ConvergenceError(RuntimeError):
    """Raised when rank iteration fails to settle within the iteration cap."""


@dataclass(frozen=True)
class GrcParams:
    damping: float = 0.85
    tolerance: float = 1e-9
    max_iterations: int = 500

    def validate(self) -> None:
        require_finite(damping=self.damping, tolerance=self.tolerance)
        if not 0.0 <= self.damping < 1.0:
            raise ValueError("damping must lie in [0, 1)")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


def _greedy_by_choice(
    net: PhysicalNetwork,
    vnr: Vnr,
    params: LocalEmbedParams,
    choose,
    order: list[int] | None = None,
) -> LocalEmbedOutcome:
    """Map each virtual node, in `order` (default: by demand), to choose()'s pick.

    choose(scratch, vid) returns (node or None, nodes scanned); a virtual node
    with no pick, or a link that cannot be routed, rejects the request.
    """
    params.validate()
    scratch = _Scratch(net, vnr, params.injective)
    hop_limit = params.hop_limit()
    inspected = 0
    for vid in demand_order(vnr) if order is None else order:
        pid, scanned = choose(scratch, vid)
        inspected += scanned
        if pid is None:
            return LocalEmbedOutcome(False, None, inspected, 0)
        if not scratch.try_place(vid, pid, hop_limit):
            # node capacity already checked, so a link refused to route
            return LocalEmbedOutcome(False, None, inspected, 0)
    return _finish(scratch, params, inspected, 0)


def _first_fitting(net: PhysicalNetwork, vnr: Vnr, candidates):
    """choose() that picks the first candidate node the virtual node fits on.

    Like `embed`, it probes only servers that clear the request's least demand
    (node_fits needs free - used >= demand >= least); scanned counts every candidate.
    The filter reads the candidates lazily, only as far as some scan has reached:
    the live residuals it tests do not move while the request is placed.
    """
    cpu, memory, gpu = _demands(vnr)[2]
    cpu_free, memory_free, gpu_free = net.cpu_free, net.memory_free, net.gpu_free
    kept = []  # (scanned, pid) of each filtered candidate read so far, in order
    unread = enumerate(candidates, 1)

    def choose(scratch, vid):
        for scanned, pid in kept:
            if scratch.node_fits(vid, pid):
                return pid, scanned
        for scanned, pid in unread:
            if cpu_free[pid] >= cpu and memory_free[pid] >= memory and gpu_free[pid] >= gpu:
                kept.append((scanned, pid))
                if scratch.node_fits(vid, pid):
                    return pid, scanned
        return None, len(candidates)

    return choose


def first_fit(
    net: PhysicalNetwork, vnr: Vnr, params: LocalEmbedParams | None = None
) -> LocalEmbedOutcome:
    """Lowest-id substrate node whose residual fits, links routed as placed."""
    params = params or LocalEmbedParams()
    return _greedy_by_choice(net, vnr, params, _first_fitting(net, vnr, range(net.num_nodes)))


def best_fit(
    net: PhysicalNetwork, vnr: Vnr, params: LocalEmbedParams | None = None
) -> LocalEmbedOutcome:
    """Fitting substrate node with maximum effective residual CPU, ties by id.

    Effective means less what this request placed there so far. The servers it
    has not used are scanned by free cpu, most first, until the first that fits
    or the first below the cpu demand; the pick is weighed against those it uses.
    """
    params = params or LocalEmbedParams()
    cpu_free, memory_free, gpu_free = net.cpu_free, net.memory_free, net.gpu_free
    demands = _demands(vnr)[1]
    # a stable sort of the negated amounts orders by free cpu, most first, ties by id
    by_cpu = np.argsort(-np.fromiter(cpu_free, np.int64, net.num_nodes), kind="stable").tolist()

    def choose(scratch, vid):
        cpu, memory, gpu = demands[vid]
        usage = scratch.node_usage  # what this request placed on each server it uses
        best = (-1, 0)  # (effective free cpu, -pid) of the best fit so far
        for pid in by_cpu:
            if cpu_free[pid] < cpu:  # nor does any later server hold the demand
                break
            if pid not in usage and memory_free[pid] >= memory and gpu_free[pid] >= gpu:
                best = (cpu_free[pid], -pid)
                break
        for pid, (cpu_used, memory_used, gpu_used) in ({} if params.injective else usage).items():
            free = cpu_free[pid] - cpu_used
            if (free, -pid) > best and free >= cpu and memory_free[pid] - memory_used >= memory:
                if gpu_free[pid] - gpu_used >= gpu:
                    best = (free, -pid)
        return (None if best[0] < 0 else -best[1]), net.num_nodes

    return _greedy_by_choice(net, vnr, params, choose)


def _transition(u: np.ndarray, v: np.ndarray, w: np.ndarray, n: int, count: int = 1) -> np.ndarray:
    """`count` column-stochastic (n, n) matrices, stacked; graph k's node j is k*n + j."""
    size = count * n
    # weights are whole milli-units, so these sums are exact in any order
    col_sums = np.bincount(u, w, size) + np.bincount(v, w, size)
    degree = np.bincount(u, minlength=size) + np.bincount(v, minlength=size)
    # a drained column holds 1/degree for each neighbor instead of w/col_sum
    drained = col_sums == 0
    col_sums[drained] = degree[drained]
    local_u, local_v = (u, v) if count == 1 else (u % n, v % n)
    transition = np.zeros((size, n))
    transition[v, local_u] = np.where(drained[u], 1.0, w) / col_sums[u]
    transition[u, local_v] = np.where(drained[v], 1.0, w) / col_sums[v]
    return transition.reshape(count, n, n)


def _power_rank(
    weights: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray, params: GrcParams
) -> np.ndarray:
    """Damped fixed point r = (1-d)*c + d*T*r on an undirected weighted graph.

    The graph's edges are (u[i], v[i]) with weight w[i], at most one per
    node pair; c is `weights` normalized to sum 1 and T is `_transition`'s.
    """
    n = len(weights)
    if n == 0:  # an empty substrate: nothing to rank
        return np.zeros(0)
    total = weights.sum()
    c = np.full(n, 1.0 / n) if total <= 0 else weights / total
    if n == 1:
        return c.copy()
    transition = _transition(u, v, w, n)[0]
    d = params.damping
    teleport = (1.0 - d) * c
    rank = c.copy()
    for _ in range(params.max_iterations):
        updated = teleport + d * (transition @ rank)
        if abs(updated - rank).max() < params.tolerance:
            return updated
        rank = updated
    raise ConvergenceError(
        f"rank iteration did not reach {params.tolerance} within {params.max_iterations} steps"
    )


def grc_rank(net: PhysicalNetwork, params: GrcParams | None = None) -> np.ndarray:
    """Global resource-capacity rank of substrate nodes (sums to 1), read-only."""
    params = params or GrcParams()
    params.validate()
    # the last rank while its inputs compare equal, by content: anything may write the lists
    memo = net.grc_rank_memo
    if memo is not None and memo[:3] == (params, net.cpu_free, net.bw_free):
        return memo[3]
    weights = np.fromiter(net.cpu_free, np.int64, net.num_nodes).astype(float)
    u, v = net.link_endpoints()
    w = np.fromiter(net.bw_free, np.int64, net.num_links).astype(float)
    rank = _power_rank(weights, u, v, w, params)
    rank.flags.writeable = False
    net.grc_rank_memo = (params, list(net.cpu_free), list(net.bw_free), rank)
    return rank


_STACK_ENTRIES = 1 << 20  # the most transition-matrix entries one stack of requests holds


def _stacked_rank(vnrs: list[Vnr], n: int, params: GrcParams) -> np.ndarray:
    """`_power_rank` of each n-node request, a row each, by one stacked iteration.

    Each step runs `_power_rank`'s BLAS kernel per request, so each row has its
    bytes; a request that settles keeps that step's ranks and leaves the stack.
    """
    weights = np.array([[node.demand.cpu_m for node in r.nodes] for r in vnrs], dtype=float)
    total = weights.sum(axis=1)[:, None]
    c = np.where(total <= 0, 1.0 / n, weights / np.where(total <= 0, 1.0, total))
    if n == 1:
        return c
    edges = [(k * n + l.u, k * n + l.v, l.bw_demand_m) for k, r in enumerate(vnrs) for l in r.links]
    u, v, w = np.array(edges, dtype=float).reshape(-1, 3).T
    transition = _transition(u.astype(np.intp), v.astype(np.intp), w, n, len(vnrs))
    teleport = (1.0 - params.damping) * c
    rank, ranks, live = c, np.empty_like(c), np.arange(len(vnrs))
    for _ in range(params.max_iterations):
        updated = teleport + params.damping * (transition @ rank[:, :, None])[:, :, 0]
        settled = abs(updated - rank).max(axis=1) < params.tolerance
        ranks[live[settled]] = updated[settled]
        if settled.all():
            return ranks
        if settled.any():
            live, transition, teleport = live[~settled], transition[~settled], teleport[~settled]
            updated = updated[~settled]
        rank = updated
    raise ConvergenceError(
        f"rank iteration did not reach {params.tolerance} within {params.max_iterations} steps"
    )


def vnr_orders(vnrs: list[Vnr], params: GrcParams) -> dict[int, list[int]]:
    """Request id -> its virtual nodes by GRC rank, ties by id; one stack per request size."""
    by_size: dict[int, list[Vnr]] = {}
    for vnr in vnrs:
        by_size.setdefault(vnr.num_nodes, []).append(vnr)
    orders = {}
    for n, group in by_size.items():
        chunk = max(1, _STACK_ENTRIES // (n * n))
        for stack in (group[i : i + chunk] for i in range(0, len(group), chunk)):
            rows = np.argsort(-_stacked_rank(stack, n, params), axis=1, kind="stable")
            orders.update(zip((vnr.request_id for vnr in stack), rows.tolist()))
    return orders


def grc_embed(
    net: PhysicalNetwork,
    vnr: Vnr,
    grc_params: GrcParams | None = None,
    params: LocalEmbedParams | None = None,
    virt_order: list[int] | None = None,
) -> LocalEmbedOutcome:
    """Rank-ordered greedy mapping: high-rank demand onto high-rank capacity."""
    grc_params = grc_params or GrcParams()
    grc_params.validate()
    params = params or LocalEmbedParams()
    net_rank = grc_rank(net, grc_params)
    if virt_order is None:  # not ranked up front by vnr_orders
        virt_order = vnr_orders([vnr], grc_params)[vnr.request_id]
    # a stable sort of the negated ranks orders by rank, ties by id
    phys_order = np.argsort(-net_rank, kind="stable").tolist()
    return _greedy_by_choice(net, vnr, params, _first_fitting(net, vnr, phys_order), virt_order)
