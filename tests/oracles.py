"""Independent brute-force reference implementations used only by tests.

These deliberately share no search logic with the package: path finding is
exhaustive DFS over simple paths, feasibility is exhaustive enumeration
over all node mappings and all per-link path assignments, and the GRC
transition matrix is built entry by entry from an edge list.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from devine import ConvergenceError


def simple_paths(net, src, dst, bw_demand_m, reserved=None, max_hops=None):
    """Every simple path from src to dst whose links all carry the demand."""
    reserved = reserved or {}
    limit = net.num_nodes - 1 if max_hops is None else max_hops
    out = []

    def usable(a, b):
        idx = net.adjacency[a].get(b)
        if idx is None:
            return False
        return net.links[idx].bw_residual_m - reserved.get(idx, 0) >= bw_demand_m

    def walk(path):
        here = path[-1]
        if here == dst:
            out.append(tuple(path))
            return
        if len(path) - 1 >= limit:
            return
        for nb in net.neighbors(here):
            if nb not in path and usable(here, nb):
                path.append(nb)
                walk(path)
                path.pop()

    if src == dst:
        return [(src,)]
    walk([src])
    return out


def best_path(net, src, dst, bw_demand_m, reserved=None, max_hops=None):
    """Shortest feasible path, ties by smallest node sequence; None if cut off."""
    paths = simple_paths(net, src, dst, bw_demand_m, reserved, max_hops)
    if not paths:
        return None
    shortest = min(len(p) for p in paths)
    return min(p for p in paths if len(p) == shortest)


def brute_force_feasible(net, vnr, injective=False):
    """Whether any complete embedding exists, by exhaustive enumeration."""
    phys = range(net.num_nodes)

    def paths_fit(mapping):
        # assign paths link by link, backtracking over every simple path
        def assign(link_pos, reserved):
            if link_pos == vnr.num_links:
                return True
            vlink = vnr.links[link_pos]
            src, dst = mapping[vlink.u], mapping[vlink.v]
            for path in simple_paths(net, src, dst, vlink.bw_demand_m, reserved):
                nxt = dict(reserved)
                for a, b in zip(path, path[1:]):
                    idx = net.adjacency[a][b]
                    nxt[idx] = nxt.get(idx, 0) + vlink.bw_demand_m
                ok = True
                for idx, used in nxt.items():
                    if used > net.links[idx].bw_residual_m:
                        ok = False
                        break
                if ok and assign(link_pos + 1, nxt):
                    return True
            return False

        return assign(0, {})

    for combo in product(phys, repeat=vnr.num_nodes):
        if injective and len(set(combo)) != vnr.num_nodes:
            continue
        load = {}
        ok = True
        for vid, pid in enumerate(combo):
            demand = vnr.nodes[vid].demand
            acc = load.setdefault(pid, [0, 0, 0])
            acc[0] += demand.cpu_m
            acc[1] += demand.memory_m
            acc[2] += demand.gpu_m
        for pid, (cpu_m, memory_m, gpu_m) in load.items():
            residual = net.nodes[pid].residual
            if (
                cpu_m > residual.cpu_m
                or memory_m > residual.memory_m
                or gpu_m > residual.gpu_m
            ):
                ok = False
                break
        if ok and paths_fit(dict(enumerate(combo))):
            return True
    return False


def residual_snapshot(net):
    """Hashable view of every residual, for mutation checks."""
    nodes = tuple(
        (n.residual.cpu_m, n.residual.memory_m, n.residual.gpu_m) for n in net.nodes
    )
    links = tuple(l.bw_residual_m for l in net.links)
    return nodes, links


def power_rank(weights, edges, params):
    """GRC rank from (u, v, weight) edge tuples, the transition matrix built by loops.

    Damped fixed point r = (1-d)*c + d*T*r on an undirected weighted graph.
    c is `weights` normalized to sum 1; column j of T spreads over j's
    neighbors proportionally to edge weight, or uniformly when all of j's
    incident weight is zero (keeps T column-stochastic, so ranks sum to 1).
    """
    n = len(weights)
    total = weights.sum()
    c = np.full(n, 1.0 / n) if total <= 0 else weights / total
    if n == 1:
        return c.copy()
    transition = np.zeros((n, n))
    for u, v, w in edges:
        transition[u, v] += w
        transition[v, u] += w
    col_sums = transition.sum(axis=0)
    degree = np.zeros(n)
    for u, v, _ in edges:
        degree[u] += 1
        degree[v] += 1
    for j in range(n):
        if col_sums[j] > 0:
            transition[:, j] /= col_sums[j]
        elif degree[j] > 0:
            for u, v, _ in edges:
                if u == j:
                    transition[v, j] = 1.0 / degree[j]
                elif v == j:
                    transition[u, j] = 1.0 / degree[j]
    d = params.damping
    rank = c.copy()
    for _ in range(params.max_iterations):
        updated = (1.0 - d) * c + d * (transition @ rank)
        if np.max(np.abs(updated - rank)) < params.tolerance:
            return updated
        rank = updated
    raise ConvergenceError(
        f"rank iteration did not reach {params.tolerance} within {params.max_iterations} steps"
    )
