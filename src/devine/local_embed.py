"""Bounded breadth-first local embedding.

A candidate leader walks the substrate outward from its own node, greedily
packing virtual nodes sorted by total demand, and routes each virtual link
as soon as both endpoints are placed.  The walk is capped by a node budget
(ceil(alpha * request size)) and a depth limit (beta); there is no
backtracking, so a failed request is simply reported infeasible.
A root with room for the whole request takes all of it without a walk,
and a virtual link whose endpoints share a server skips the path mapper.
A blocked virtual link first tries two-hop detours through its endpoints'
common neighbours, then three-hop detours, and only then the path search.
Given a floor, the ring's best key so far, a leader stops as soon as even
its committed cost prices it below that floor: the committed bandwidth cost
only grows, so for y >= 0 its metric bounds the final one from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .embedding import EmbeddingSolution, metric_of, revenue_of
from .model import PhysicalNetwork, Vnr, from_milli, require_finite

INFEASIBLE = float("-inf")


@dataclass(frozen=True)
class LocalEmbedParams:
    """Search caps and pricing weights for one local embedding attempt."""

    alpha: float = 30.0
    beta: int = 3
    x: float = 1.0
    y: float = 1.0
    path_hop_limit: int | None = None  # None means 2 * beta
    injective: bool = False

    def hop_limit(self) -> int:
        return 2 * self.beta if self.path_hop_limit is None else self.path_hop_limit

    def validate(self) -> None:
        require_finite(alpha=self.alpha, x=self.x, y=self.y)
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.path_hop_limit is not None and self.path_hop_limit < 0:
            raise ValueError("path_hop_limit must be non-negative")


@dataclass
class LocalEmbedOutcome:
    """Result of one bounded search, feasible or not."""

    feasible: bool
    solution: EmbeddingSolution | None
    inspected_count: int
    max_depth_reached: int

    def metric(self) -> float:
        """Solution metric, or the -inf sentinel when infeasible."""
        return self.solution.metric if self.feasible else INFEASIBLE


def _key(node_id: int, metric: float) -> tuple[float, int]:
    """A proposal's rank: higher metric first, equal metrics toward the lower id."""
    # a NaN metric (x * revenue - y * cost overflowed) ranks as infeasible,
    # since it would break the total order the ring relies on
    return (INFEASIBLE if math.isnan(metric) else metric, -node_id)


def _demands(vnr: Vnr) -> tuple:
    """(demand order, (cpu, memory, gpu) per node, least, totals, revenue), once per request."""
    if vnr.demand_order_memo is None:
        demands = tuple((n.demand.cpu_m, n.demand.memory_m, n.demand.gpu_m) for n in vnr.nodes)
        weight = [sum(demand) for demand in demands]
        for link in vnr.links:
            weight[link.u] += link.bw_demand_m
            weight[link.v] += link.bw_demand_m
        order = tuple(sorted(range(vnr.num_nodes), key=lambda vid: (-weight[vid], vid)))
        totals = tuple(map(sum, zip(*demands)))
        revenue = revenue_of(vnr)
        vnr.demand_order_memo = (order, demands, _least_demand(demands, order), totals, revenue)
    return vnr.demand_order_memo


def map_link(
    net: PhysicalNetwork,
    src: int,
    dst: int,
    bw_demand_m: int,
    hop_limit: int,
    reserved: dict[int, int] | None = None,
) -> tuple[int, ...] | None:
    """Shortest feasible path from src to dst, or None.

    Links must carry the demand on top of any tentative reservations
    (`reserved` maps link index to milli-units already claimed).  Among
    shortest paths the lexicographically smallest node sequence wins.
    Co-located endpoints yield the zero-hop path (src,).  When the
    capacity-blind shortest path is blocked, two-hop and then three-hop
    detours are tried, smallest first, before the breadth-first search.
    """
    if not (0 <= src < len(net.nodes) and 0 <= dst < len(net.nodes)):
        raise ValueError(f"unknown endpoint in ({src}, {dst})")
    if src == dst:
        return (src,)
    reserved = reserved or {}
    bw_free = net.bw_free
    adjacency = net.adjacency

    def usable(link_idx: int) -> bool:
        return bw_free[link_idx] - reserved.get(link_idx, 0) >= bw_demand_m

    # First try the capacity-blind shortest path.  Capacity only removes
    # links, so no feasible path is shorter: if it is too long or missing,
    # nothing fits.  If every hop carries the demand it is the answer
    # _search's two-sided fill and descent would give, since the feasible
    # shortest paths are among the capacity-blind ones and the descent takes
    # the smallest of those.  dst's walk lists every node of depth k - 1
    # before any of depth k, so once src has a depth every node closer to
    # dst has its true one, and each step takes the smallest id a level down.
    walk = net.walk(dst)
    depth = walk.depth
    level = depth[src] if depth[src] >= 0 else walk.reach(src)  # a call only to grow it
    if not 0 < level <= hop_limit:
        return None
    path = [src]
    fits = True
    here = src
    step = level - 1
    while step:  # most paths take one or two steps, for which a range costs more
        for nxt in net.neighbors(here):  # ascending ids
            if depth[nxt] == step:
                break
        fits = fits and usable(adjacency[here][nxt])
        path.append(nxt)
        here = nxt
        step -= 1
    path.append(dst)
    if fits and usable(adjacency[here][dst]):
        return tuple(path)
    # a path leaves src and enters dst, so each needs a link that carries the demand
    if not any(map(usable, adjacency[src].values())) or not any(
        map(usable, adjacency[dst].values())
    ):
        return None
    # blocked within 2 hops, no usable path has fewer than 2, and every 2-hop
    # path runs through a common neighbour: the smallest-id usable one wins
    out, into = adjacency[src], adjacency[dst]
    if level <= 2 and hop_limit >= 2:
        for mid in sorted(out.keys() & into.keys()):
            if usable(out[mid]) and usable(into[mid]):
                return (src, mid, dst)
    # now no usable path has fewer than 3 hops (the blind one has 3, or no 2-hop
    # detour passed), and each 3-hop path is (src, a, b, dst) with b next to a and
    # dst: ascending (a, b) is _search's lexicographic tie order.  a == dst or
    # b == src needs the direct link, which only the blocked 1-hop path has.
    if level <= 3 and hop_limit >= 3:
        for a in net.neighbors(src):  # ascending ids
            if usable(out[a]):
                for b in sorted(adjacency[a].keys() & into.keys()):
                    if usable(adjacency[a][b]) and usable(into[b]):
                        return (src, a, b, dst)
    return _search(net, src, dst, hop_limit, usable)


def _search(
    net: PhysicalNetwork, src: int, dst: int, hop_limit: int, usable
) -> tuple[int, ...] | None:
    """Shortest path over usable links, found by a two-sided level fill, or None.

    Ties go to the lexicographically smallest node sequence: the descent
    steps from src to the smallest-id neighbor one level closer to dst.
    The fill behind it meets in the middle and so leaves most nodes
    without a level, but every node the descent steps to has its true one.
    """
    adjacency = net.adjacency
    dist = _levels(adjacency, src, dst, hop_limit, usable)
    if dist is None:
        return None

    # lexicographically smallest shortest path: always step to the
    # smallest-id neighbor one level closer to dst
    path = [src]
    here = src
    for step in range(dist[src] - 1, -1, -1):
        nxt = None
        for nb in net.neighbors(here):  # ascending ids
            if dist.get(nb) == step and usable(adjacency[here][nb]):
                nxt = nb
                break
        if nxt is None:  # cannot happen on a consistent level map
            return None
        path.append(nxt)
        here = nxt
    return tuple(path)


def _levels(adjacency, src: int, dst: int, hop_limit: int, usable) -> dict[int, int] | None:
    """Hop distance to dst over usable links, for the descent from src; None if cut off.

    Levels grow from src (forward) and from dst (backward), one whole level
    of the smaller frontier per step, until a level reaches a node the
    other side holds; None if a frontier empties first or a + b, the
    levels filled on each side, reaches hop_limit.  The shortest path then
    has a + b hops.  The map holds the backward levels, src at a + b and,
    marked level by level back towards src, each forward node of level
    0 < k < a with a usable link to a node the map holds at a + b - k - 1,
    at a + b - k.  Invariant: every entry is that node's true distance to
    dst and every node on a shortest path has one, so the map equals the
    true distance on every node the descent steps to.
    """
    forward, backward = {src: 0}, {dst: 0}
    rings = [[src]]  # the forward levels
    behind = [dst]
    a = b = 0
    met = False
    while not met:
        if a + b == hop_limit or not rings[-1] or not behind:
            return None
        if len(rings[-1]) <= len(behind):
            a += 1
            ahead, met = _expand(adjacency, rings[-1], forward, a, backward, usable)
            rings.append(ahead)
        else:
            b += 1
            behind, met = _expand(adjacency, behind, backward, b, forward, usable)
    hops = a + b
    dist = backward
    dist[src] = hops  # src lies on every shortest path
    for level in range(a - 1, 0, -1):
        closer = hops - level - 1
        for here in rings[level]:
            if any(dist.get(nb) == closer and usable(idx) for nb, idx in adjacency[here].items()):
                dist[here] = closer + 1
    return dist


def _expand(adjacency, frontier, seen, level, other, usable):
    """The next breadth-first level past `frontier`, recorded in `seen`.

    Returns the new level and whether `other`, the opposite side's
    levels, holds any of its nodes.
    """
    reached = []
    for here in frontier:
        for nb, link_idx in adjacency[here].items():
            if nb not in seen and usable(link_idx):
                seen[nb] = level
                reached.append(nb)
    return reached, not other.keys().isdisjoint(reached)


class _Scratch:
    """Tentative placements layered over live residuals, cheap to roll back."""

    def __init__(self, net: PhysicalNetwork, vnr: Vnr, injective: bool):
        self.net = net
        self.vnr = vnr
        self.injective = injective
        self.placement: dict[int, int] = {}
        self.paths: dict[int, tuple[int, ...]] = {}
        self.node_usage: dict[int, list[int]] = {}
        self.reserved: dict[int, int] = {}
        self.weighted_m = 0  # bandwidth x hops over the routed links

    def node_fits(self, vid: int, pid: int) -> bool:
        if self.injective and pid in self.placement.values():
            return False
        demand = self.vnr.nodes[vid].demand
        net = self.net
        used = self.node_usage.get(pid, (0, 0, 0))
        return (
            demand.cpu_m <= net.cpu_free[pid] - used[0]
            and demand.memory_m <= net.memory_free[pid] - used[1]
            and demand.gpu_m <= net.gpu_free[pid] - used[2]
        )

    def reserve_path(self, link_idx: int, path: tuple[int, ...], bw_m: int) -> None:
        self.paths[link_idx] = path
        self.weighted_m += bw_m * (len(path) - 1)
        for a, b in zip(path, path[1:]):
            phys_idx = self.net.adjacency[a][b]
            self.reserved[phys_idx] = self.reserved.get(phys_idx, 0) + bw_m

    def unreserve_path(self, link_idx: int, bw_m: int) -> None:
        path = self.paths.pop(link_idx)
        self.weighted_m -= bw_m * (len(path) - 1)
        for a, b in zip(path, path[1:]):
            phys_idx = self.net.adjacency[a][b]
            left = self.reserved.pop(phys_idx, 0) - bw_m  # gone if a 0-bw path shares it
            if left:  # a zero entry only slows later probes
                self.reserved[phys_idx] = left

    def try_place(self, vid: int, pid: int, hop_limit: int) -> bool:
        """Place vid on pid if capacity and all links to placed peers allow it."""
        if not self.node_fits(vid, pid):
            return False
        routed: list[tuple[int, int]] = []
        for other, link_idx in self.vnr.adjacency[vid].items():  # by link index
            peer = self.placement.get(other)
            if peer is None:
                continue
            bw_m = self.vnr.links[link_idx].bw_demand_m
            if peer == pid:  # map_link's (pid,): it reserves nothing and adds 0 to weighted_m
                self.paths[link_idx] = (pid,)
            else:
                path = map_link(self.net, peer, pid, bw_m, hop_limit, self.reserved)
                if path is None:
                    for idx, bw in routed:
                        self.unreserve_path(idx, bw)
                    return False
                self.reserve_path(link_idx, path, bw_m)
            routed.append((link_idx, bw_m))
        demand = self.vnr.nodes[vid].demand
        used = self.node_usage.setdefault(pid, [0, 0, 0])
        used[0] += demand.cpu_m
        used[1] += demand.memory_m
        used[2] += demand.gpu_m
        self.placement[vid] = pid
        return True


def embed(
    root: int,
    net: PhysicalNetwork,
    vnr: Vnr,
    params: LocalEmbedParams | None = None,
    *,
    floor: tuple[float, int] | None = None,
) -> LocalEmbedOutcome:
    """Bounded BFS embedding rooted at one substrate node.

    A root with room for the whole request takes all of it unless injective.
    Does not mutate the network; the caller allocates the returned solution
    if it wins.

    `floor` is the key `(metric, -id)` to beat, the best of the leaders
    before this one in ring order.  When y >= 0 and its metric is finite,
    the search reports infeasible once the root's key at the committed cost
    falls below it, checked before the walk and after each placement that
    adds bandwidth cost: a rollback takes back only the failing node's own
    routes, so that cost only grows and its metric bounds the final one.
    """
    params = params or LocalEmbedParams()
    params.validate()
    if not 0 <= root < net.num_nodes:
        raise ValueError(f"unknown root node {root}")

    # a walk inspects each server at most once, so the cap changes nothing
    # but keeps a huge finite alpha from overflowing to an infinite budget
    budget = math.ceil(min(params.alpha * vnr.num_nodes, net.num_nodes))
    hop_limit = params.hop_limit()
    by_demand, demands, least, totals, revenue = _demands(vnr)
    if params.y < 0 or (floor is not None and not math.isfinite(floor[0])):
        floor = None  # y < 0: cost raises the metric; -inf: no earlier leader was feasible

    def beaten(weighted_m: int) -> bool:
        cost = from_milli(totals[0] + weighted_m)  # as _finish prices it
        return _key(root, metric_of(revenue, cost, params.x, params.y)) < floor

    if floor is not None and beaten(0):
        return LocalEmbedOutcome(False, None, 0, 0)
    scratch = _Scratch(net, vnr, params.injective)
    cpu_free, memory_free, gpu_free = net.cpu_free, net.memory_free, net.gpu_free
    # The walk starts at the root, depth 0 <= beta, within a budget >= 1.  Totals bound
    # every demand: the root clears the least one, and in demand order each node fits
    # what is left (free - placed >= total - placed >= its demand), links co-located.
    if not params.injective and totals[0] <= cpu_free[root] and (
        totals[1] <= memory_free[root] and totals[2] <= gpu_free[root]
    ):
        scratch.placement = dict.fromkeys(by_demand, root)
        scratch.paths = dict.fromkeys(range(vnr.num_links), (root,))
        return _finish(scratch, params, 1, 0)

    remaining = list(by_demand)
    least_cpu, least_memory, least_gpu = least
    beta = params.beta
    walk = net.walk(root)
    order, depths = walk.order, walk.depth
    inspected = 0
    max_depth = 0
    priced_m = 0  # the committed cost the floor was last checked at
    while remaining and inspected < budget:
        if inspected == len(order):
            walk.reach(root, inspected)  # one more node, unless the component is exhausted
            if inspected == len(order):
                break
        here = order[inspected]
        depth = depths[here]
        if depth > beta:
            break
        inspected += 1
        max_depth = depth  # the walk never goes back up a level
        # Each node is inspected once per embed, so nothing is tentatively
        # placed here yet and the live residual is what is free.  A server
        # below the least remaining demand in any resource fits nothing.
        free_cpu, free_memory, free_gpu = cpu_free[here], memory_free[here], gpu_free[here]
        if free_cpu < least_cpu or free_memory < least_memory or free_gpu < least_gpu:
            continue
        # front-to-back greedy pass: skip individual misfits, keep scanning.
        # A demand above what is free here would fail node_fits inside
        # try_place, so it is skipped without the call.
        stale = False
        for vid in list(remaining):
            cpu_m, memory_m, gpu_m = demands[vid]
            if cpu_m > free_cpu or memory_m > free_memory or gpu_m > free_gpu:
                continue
            if scratch.try_place(vid, here, hop_limit):
                if floor is not None and scratch.weighted_m > priced_m:
                    priced_m = scratch.weighted_m
                    if beaten(priced_m):
                        return LocalEmbedOutcome(False, None, inspected, max_depth)
                remaining.remove(vid)
                free_cpu -= cpu_m
                free_memory -= memory_m
                free_gpu -= gpu_m
                stale |= cpu_m == least_cpu or memory_m == least_memory or gpu_m == least_gpu
        if stale and remaining:  # a least demand moves only when a node that held it leaves
            least_cpu, least_memory, least_gpu = _least_demand(demands, remaining)

    if remaining:
        return LocalEmbedOutcome(False, None, inspected, max_depth)
    return _finish(scratch, params, inspected, max_depth)


def _least_demand(demands, vids: list[int]) -> tuple[int, ...]:
    """Smallest cpu, memory and gpu demand among vids, each taken on its own."""
    return tuple(map(min, zip(*(demands[vid] for vid in vids))))


def _finish(
    scratch: _Scratch, params: LocalEmbedParams, inspected: int, max_depth: int
) -> LocalEmbedOutcome:
    """Outcome for a complete tentative placement, priced and scored.

    The cost is an integer sum: the request's cpu plus each reserved bandwidth x its hops.
    Infeasible when the metric is not finite (x * revenue - y * cost
    overflowed): such a score cannot be ranked or written as JSON.
    """
    vnr = scratch.vnr
    totals, revenue = _demands(vnr)[3:]  # the request's, alike for every leader
    cost = from_milli(totals[0] + scratch.weighted_m)
    metric = metric_of(revenue, cost, params.x, params.y)
    if not math.isfinite(metric):
        return LocalEmbedOutcome(False, None, inspected, max_depth)
    solution = EmbeddingSolution(
        request_id=vnr.request_id,
        node_mapping=dict(sorted(scratch.placement.items())),
        path_mapping=dict(sorted(scratch.paths.items())),
        revenue=revenue,
        cost=cost,
        metric=metric,
    )
    return LocalEmbedOutcome(True, solution, inspected, max_depth)
