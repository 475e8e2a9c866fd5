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


def _pattern(u: np.ndarray, v: np.ndarray, n: int, size: int) -> tuple:
    """Where a (size, n) transition is nonzero: flat indices, each entry's column node, degrees.

    Entries go column u row v for every edge (u[i], v[i]), then column v row u;
    a stack's graph k has node j at k*n + j and local column j.
    """
    ends = np.concatenate((u, v))
    flat = np.concatenate((v * n + u % n, u * n + v % n))
    return flat, ends, np.bincount(ends, minlength=size)


def _fill(values: np.ndarray, pattern: tuple, w2: np.ndarray) -> None:
    """Write a column-stochastic transition at `pattern`'s places in the flat `values`;
    w2 is each edge weight twice, in `_pattern`'s order."""
    at, ends, degree = pattern
    # weights are whole milli-units, so these sums are exact in any order
    col_sums = np.bincount(ends, w2, len(degree))
    drained = col_sums == 0
    if drained.any():  # a drained column holds 1/degree for each neighbor instead of w/col_sum
        col_sums[drained] = degree[drained]
        w2 = np.where(drained[ends], 1.0, w2)
    values[at] = w2 / col_sums[ends]


# A substrate whose transition holds fewer than one nonzero in _SPARSE_K
# entries ranks by a step gathered over its links, else by a dense gemv.
# Measured per step with numpy alone (medians, 2-vCPU host, OpenBLAS), the
# gathered step matches gemv at n*n/nnz of about 37 for n=200, 24 for n=300
# and 21 for n=400, and beats it below 16 at n=500, where the matrix leaves
# the cache: at n=400 and n*n/nnz = 32 it takes 14.9 against 18.9 us, at 16
# 23.5 against 18.0 us, and at n=100 p=0.4 (2.5) 10.4 against 2.0 us.
_SPARSE_K = 24


class _Gathered:
    """A sparse transition: a value per entry, each entry's column and each row's start.

    `keys` are the entries' flat indices, sorted, at least one in each row,
    since `reduceat` cannot sum an empty one; `transition @ rank` sums each
    row's values times the rank at their columns.
    """

    __slots__ = ("values", "cols", "starts")

    def __init__(self, keys: np.ndarray, n: int):
        self.values = np.zeros(len(keys))
        self.cols, self.starts = keys % n, np.searchsorted(keys, np.arange(n) * n)

    def __matmul__(self, rank: np.ndarray) -> np.ndarray:
        return np.add.reduceat(self.values * rank[self.cols], self.starts)


class _KeptTransition:
    """A substrate's transition, kept across ranks, and the bandwidth it was filled from.

    `matrix` is `_Gathered` below one nonzero in `_SPARSE_K` entries, else an
    (n, n) array on a 32-byte boundary, where OpenBLAS's gemv gives the same
    bytes as anywhere else and takes 30% less time at n=400; `values` is where
    `_fill` writes it. `bw` copies `bw_free` as of the last fill, and `w2`
    holds it as floats, twice.
    """

    __slots__ = ("matrix", "values", "pattern", "bw", "w2")

    def __init__(self, net: PhysicalNetwork):
        n = net.num_nodes
        u = np.array([link.u for link in net.links], dtype=np.intp)
        v = np.array([link.v for link in net.links], dtype=np.intp)
        flat, ends, degree = _pattern(u, v, n, n)
        if _SPARSE_K * len(flat) < n * n:
            # row-major, each row's columns ascending; a 0 at (j, 0) for each node j without links
            keys = np.sort(np.concatenate((flat, np.flatnonzero(degree == 0) * n)))
            self.matrix = _Gathered(keys, n)
            self.values, flat = self.matrix.values, np.searchsorted(keys, flat)
        else:
            raw = np.zeros(n * n + 3)  # numpy data is 8-byte aligned, so at most 3 floats from 32
            start = -raw.ctypes.data % 32 // 8
            self.values = raw[start : start + n * n]
            self.matrix = self.values.reshape(n, n)
        self.pattern = (flat, ends, degree)
        self.bw = list(net.bw_free)
        self.w2 = np.array(self.bw + self.bw, dtype=float)


def _refilled(net: PhysicalNetwork) -> np.ndarray | _Gathered:
    """The network's kept transition matrix, refilled in place from the live `bw_free`.

    Only the links that allocate and release recorded in `bw_moved` are read
    again; if the copy still differs, something else wrote `bw_free`, and the
    kept state is built afresh.
    """
    kept, bw_free = net.grc_transition, net.bw_free
    if kept is not None:
        bw, w2, m = kept.bw, kept.w2, len(bw_free)
        for idx in net.bw_moved:
            bw[idx] = w2[idx] = w2[m + idx] = bw_free[idx]
    if kept is None or kept.bw != bw_free:
        kept = net.grc_transition = _KeptTransition(net)
    net.bw_moved.clear()
    _fill(kept.values, kept.pattern, kept.w2)
    return kept.matrix


def _power_rank(
    weights: np.ndarray, transition: np.ndarray | _Gathered, params: GrcParams
) -> np.ndarray:
    """Damped fixed point r = (1-d)*c + d*T*r of a column-stochastic (n, n) transition T.

    c is `weights` normalized to sum 1, or uniform when they sum to 0.
    """
    n = len(weights)
    if n == 0:  # an empty substrate: nothing to rank
        return np.zeros(0)
    total = weights.sum()
    c = np.full(n, 1.0 / n) if total <= 0 else weights / total
    if n == 1:
        return c.copy()
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
    rank = _power_rank(weights, _refilled(net), params)
    rank.flags.writeable = False
    net.grc_rank_memo = (params, list(net.cpu_free), list(net.bw_free), rank)
    return rank


_STACK_ENTRIES = 1 << 20  # the most transition-matrix entries one stack of requests holds


def _stacked_rank(vnrs: list[Vnr], n: int, params: GrcParams) -> np.ndarray:
    """`_power_rank` of each n-node request, a row each, by one stacked iteration.

    Each step runs the dense `_power_rank`'s BLAS kernel per request, so each row
    has its bytes; a request that settles keeps that step's ranks and leaves the stack.
    """
    weights = np.array([[node.demand.cpu_m for node in r.nodes] for r in vnrs], dtype=float)
    total = weights.sum(axis=1)[:, None]
    c = np.where(total <= 0, 1.0 / n, weights / np.where(total <= 0, 1.0, total))
    if n == 1:
        return c
    edges = [(k * n + l.u, k * n + l.v, l.bw_demand_m) for k, r in enumerate(vnrs) for l in r.links]
    u, v, w = np.array(edges, dtype=float).reshape(-1, 3).T
    transition = np.zeros((len(vnrs), n, n))
    pattern = _pattern(u.astype(np.intp), v.astype(np.intp), n, len(vnrs) * n)
    _fill(transition.reshape(-1), pattern, np.concatenate((w, w)))
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
