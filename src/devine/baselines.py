"""Centralized comparison embedders.

All three share the demand-ordered virtual queue and the path mapper used
by the local embedder, but pick substrate nodes by capacity alone and give
up on the first link that cannot be routed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .local_embed import LocalEmbedOutcome, LocalEmbedParams, _finish, _Scratch, demand_order
from .model import PhysicalNetwork, Vnr, endpoint_arrays, require_finite


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


def _first_fitting(candidates):
    """choose() that picks the first candidate node the virtual node fits on."""

    def choose(scratch, vid):
        for scanned, pid in enumerate(candidates, 1):
            if scratch.node_fits(vid, pid):
                return pid, scanned
        return None, len(candidates)

    return choose


def first_fit(
    net: PhysicalNetwork, vnr: Vnr, params: LocalEmbedParams | None = None
) -> LocalEmbedOutcome:
    """Lowest-id substrate node whose residual fits, links routed as placed."""
    params = params or LocalEmbedParams()
    return _greedy_by_choice(net, vnr, params, _first_fitting(range(net.num_nodes)))


def best_fit(
    net: PhysicalNetwork, vnr: Vnr, params: LocalEmbedParams | None = None
) -> LocalEmbedOutcome:
    """Fitting substrate node with maximum effective residual CPU, ties by id."""
    params = params or LocalEmbedParams()
    # what each node has free, less the demand this request placed on it so far
    free = np.array([net.cpu_free, net.memory_free, net.gpu_free], dtype=np.int64)

    def choose(scratch, vid):
        demand = vnr.nodes[vid].demand
        fits = (free[0] >= demand.cpu_m) & (free[1] >= demand.memory_m) & (free[2] >= demand.gpu_m)
        if params.injective:
            fits[list(scratch.placement.values())] = False
        if not fits.any():
            return None, net.num_nodes
        pid = int(np.where(fits, free[0], -1).argmax())  # the first maximum: ties by id
        # a pick is placed or the request is rejected, so the column can move now
        free[:, pid] -= (demand.cpu_m, demand.memory_m, demand.gpu_m)
        return pid, net.num_nodes

    return _greedy_by_choice(net, vnr, params, choose)


def _power_rank(
    weights: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    params: GrcParams,
) -> np.ndarray:
    """Damped fixed point r = (1-d)*c + d*T*r on an undirected weighted graph.

    The graph's edges are (u[i], v[i]) with weight w[i], at most one per
    node pair.  c is `weights` normalized to sum 1; column j of T spreads
    over j's neighbors proportionally to edge weight, or uniformly when all
    of j's incident weight is zero (keeps T column-stochastic, so ranks sum
    to 1).
    """
    n = len(weights)
    if n == 0:  # an empty substrate: nothing to rank
        return np.zeros(0)
    total = weights.sum()
    c = np.full(n, 1.0 / n) if total <= 0 else weights / total
    if n == 1:
        return c.copy()
    # weights are whole milli-units, so these sums are exact in any order
    col_sums = np.bincount(u, w, n) + np.bincount(v, w, n)
    degree = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    # a drained column holds 1/degree for each neighbor instead of w/col_sum
    drained = col_sums == 0
    col_sums[drained] = degree[drained]
    transition = np.zeros((n, n))
    transition[v, u] = np.where(drained[u], 1.0, w) / col_sums[u]
    transition[u, v] = np.where(drained[v], 1.0, w) / col_sums[v]
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
    """Global resource-capacity rank of substrate nodes (sums to 1)."""
    params = params or GrcParams()
    params.validate()
    weights = np.array(net.cpu_free, dtype=float)
    u, v = net.link_endpoints()
    w = np.array(net.bw_free, dtype=float)
    return _power_rank(weights, u, v, w, params)


def _vnr_rank(vnr: Vnr, params: GrcParams) -> np.ndarray:
    weights = np.array([n.demand.cpu_m for n in vnr.nodes], dtype=float)
    u, v = endpoint_arrays(vnr.links)
    w = np.array([l.bw_demand_m for l in vnr.links], dtype=float)
    return _power_rank(weights, u, v, w, params)


def grc_embed(
    net: PhysicalNetwork,
    vnr: Vnr,
    grc_params: GrcParams | None = None,
    params: LocalEmbedParams | None = None,
) -> LocalEmbedOutcome:
    """Rank-ordered greedy mapping: high-rank demand onto high-rank capacity."""
    grc_params = grc_params or GrcParams()
    grc_params.validate()
    params = params or LocalEmbedParams()
    net_rank = grc_rank(net, grc_params)
    vnr_rank = _vnr_rank(vnr, grc_params)
    # a stable sort of the negated ranks orders by rank, ties by id
    phys_order = np.argsort(-net_rank, kind="stable").tolist()
    virt_order = np.argsort(-vnr_rank, kind="stable").tolist()
    return _greedy_by_choice(net, vnr, params, _first_fitting(phys_order), virt_order)
