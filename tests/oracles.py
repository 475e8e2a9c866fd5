"""Independent brute-force reference implementations used only by tests.

These deliberately share no search logic with the package: path finding is
exhaustive DFS over simple paths, feasibility is exhaustive enumeration
over all node mappings and all per-link path assignments, and the GRC
transition matrix is built entry by entry from an edge list.  Two keep
what a fast path replaced: `best_fit` keeps the package's greedy core and
swaps only its node choice for the scan over `node_fits`, `first_fitting` is
the first-fit chooser that probed every candidate before the least-demand
filter, and `search` is the one-sided level fill and descent that the
two-sided fill replaced.
`next_hop_table` is the whole-substrate breadth-first table that the
per-destination tables grown on demand replaced.  `demand_memo` builds a
request's demand order, demand triples, least demand, demand totals and
revenue from its nodes and links alone, where the package builds them once
and keeps them on the request.  `RoutingScratch` is the scratch whose
`try_place` routes every virtual link through `map_link` and `reserve_path`,
co-located endpoints included, where the package keeps their one-node path
without either call.
`cost_of` prices a solution from its paths, where the package adds up
the bandwidth it reserved.  `demand_order` is a request's demand order as a
list the caller may change.
`generate_physical_network` and `generate_vnr` are the per-value
generators that the batched draws replaced: one scalar `draw_positive` per
value, redrawn below its floor, node pairs built as tuples by
`itertools.combinations`, and connectivity tested by `connected`, a
breadth-first search over neighbor sets in place of the bitmask search.
`build_workload` draws each primary with its own scalar call, where the
package draws them all in one.
`message_election` is the message-passing ring that the one-pass election
replaced: each leader reacts to the message it receives, delivery by
delivery, and a `MessageLog` of its own logs what was delivered, where the
package builds its trace from the ring-order running best when read.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import asdict, dataclass
from itertools import combinations, product

import numpy as np

from devine import (
    INFEASIBLE,
    ConvergenceError,
    GenerationError,
    LocalEmbedParams,
    PhysicalLink,
    PhysicalNetwork,
    PhysicalNode,
    ResourceVector,
    VirtualLink,
    VirtualNode,
    Vnr,
    from_milli,
    local_embed,
    stream,
)
from devine.baselines import _greedy_by_choice
from devine.generator import _MAX_REDRAWS
from devine.local_embed import _Scratch


def simple_paths(net, src, dst, bw_demand_m, reserved=None, max_hops=None):
    """Every simple path from src to dst whose links all carry the demand."""
    reserved = reserved or {}
    limit = net.num_nodes - 1 if max_hops is None else max_hops
    out = []

    def usable(a, b):
        idx = net.adjacency[a].get(b)
        if idx is None:
            return False
        return net.bw_free[idx] - reserved.get(idx, 0) >= bw_demand_m

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


def next_hop_table(net, dst):
    """Every node's smallest-id neighbor one hop closer to dst, by one whole BFS.

    Entry dst is dst itself; entry v is -1 when v cannot reach dst.
    """
    table = [-1] * net.num_nodes
    table[dst] = dst
    frontier = [dst]
    while frontier:
        reached = []
        for here in frontier:  # ascending ids: the first discoverer is the smallest
            for nb in net.neighbors(here):
                if table[nb] < 0:
                    table[nb] = here
                    reached.append(nb)
        frontier = sorted(reached)
    return table


def best_path(net, src, dst, bw_demand_m, reserved=None, max_hops=None):
    """Shortest feasible path, ties by smallest node sequence; None if cut off."""
    paths = simple_paths(net, src, dst, bw_demand_m, reserved, max_hops)
    if not paths:
        return None
    shortest = min(len(p) for p in paths)
    return min(p for p in paths if len(p) == shortest)


def search(net, src, dst, hop_limit, usable):
    """Shortest path over usable links by breadth-first search, or None.

    Ties go to the lexicographically smallest node sequence.
    """
    adjacency = net.adjacency
    dist = levels(adjacency, src, dst, hop_limit, usable)
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


def levels(adjacency, src, dst, hop_limit, usable):
    """Hop distance to dst over usable links, for every node up to src's level.

    Levels are filled breadth-first from dst and the fill stops the moment
    src gets its level: the descent from src reads only lower levels, and
    those are complete by then.  None if src is not within hop_limit.
    """
    dist = {dst: 0}
    frontier = [dst]
    for level in range(1, hop_limit + 1):
        reached = []
        for here in frontier:
            for nb, link_idx in adjacency[here].items():
                if nb not in dist and usable(link_idx):
                    dist[nb] = level
                    if nb == src:
                        return dist
                    reached.append(nb)
        if not reached:
            return None
        frontier = reached
    return None


def cost_of(vnr, solution):
    """Total CPU demand plus bandwidth demand weighted by mapped hop count."""
    cpu_m = sum(node.demand.cpu_m for node in vnr.nodes)
    weighted_m = 0
    for idx, link in enumerate(vnr.links):
        path = solution.path_mapping.get(idx)
        if path is None:
            raise ValueError(f"solution has no path for virtual link {idx}")
        weighted_m += link.bw_demand_m * (len(path) - 1)
    return from_milli(cpu_m + weighted_m)


def demand_order(vnr):
    """Virtual node ids by descending cpu+memory+gpu+incident bandwidth, ties by id."""
    return list(local_embed._demands(vnr)[0])


def demand_memo(vnr):
    """(order by descending cpu+memory+gpu+incident bandwidth, ties by id, demands,
    least, totals, revenue)."""
    demands = tuple((n.demand.cpu_m, n.demand.memory_m, n.demand.gpu_m) for n in vnr.nodes)

    def key(vid):
        incident = sum(vnr.links[idx].bw_demand_m for idx in vnr.adjacency[vid].values())
        return (-(sum(demands[vid]) + incident), vid)

    order = tuple(sorted(range(vnr.num_nodes), key=key))
    least = tuple(min(column) for column in zip(*demands))
    totals = (
        sum(node.demand.cpu_m for node in vnr.nodes),
        sum(node.demand.memory_m for node in vnr.nodes),
        sum(node.demand.gpu_m for node in vnr.nodes),
    )
    revenue = from_milli(totals[0] + sum(link.bw_demand_m for link in vnr.links))
    return order, demands, least, totals, revenue


class RoutingScratch(_Scratch):
    """The package's scratch with a try_place that maps every link, co-located or not."""

    def try_place(self, vid, pid, hop_limit):
        if not self.node_fits(vid, pid):
            return False
        routed = []
        for other, link_idx in self.vnr.adjacency[vid].items():  # by link index
            peer = self.placement.get(other)
            if peer is None:
                continue
            bw_m = self.vnr.links[link_idx].bw_demand_m
            # read at call time, so a test can watch these calls
            path = local_embed.map_link(self.net, peer, pid, bw_m, hop_limit, self.reserved)
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
                    if used > net.bw_free[idx]:
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
            if (
                cpu_m > net.cpu_free[pid]
                or memory_m > net.memory_free[pid]
                or gpu_m > net.gpu_free[pid]
            ):
                ok = False
                break
        if ok and paths_fit(dict(enumerate(combo))):
            return True
    return False


def copy_network(net):
    """Independent network on the same nodes and links, carrying net's residuals."""
    return PhysicalNetwork(
        list(net.nodes),
        list(net.links),
        cpu_free=net.cpu_free,
        memory_free=net.memory_free,
        gpu_free=net.gpu_free,
        bw_free=net.bw_free,
    )


def connected(num_nodes, adjacency):
    """Whether every node is reachable from node 0; adjacency[v] iterates v's neighbors."""
    if num_nodes <= 1:
        return True
    seen = {0}
    queue = deque([0])
    while queue:
        for nb in adjacency[queue.popleft()]:
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return len(seen) == num_nodes


def connected_edges(rng, num_nodes, probability, max_attempts):
    """G(n, p) edge sets, one uniform per combinations() pair, until one is connected."""
    for _ in range(max_attempts):
        pairs = list(combinations(range(num_nodes), 2))
        edges = []
        if pairs:
            hits = rng.random(len(pairs)) < probability
            edges = [pair for pair, hit in zip(pairs, hits) if hit]
        adjacency = [set() for _ in range(num_nodes)]
        for u, v in edges:
            adjacency[u].add(v)
            adjacency[v].add(u)
        if connected(num_nodes, adjacency):
            return edges
    raise GenerationError(
        f"no connected graph with n={num_nodes}, p={probability} "
        f"after {max_attempts} attempts"
    )


def draw_positive(rng, dist, cfg, floor=None, max_redraws=_MAX_REDRAWS):
    """One scalar normal draw, redrawn until it clears the floor."""
    low = cfg.resource_floor if floor is None else floor
    mean = dist[0]
    std = cfg.std_of(dist)
    for _ in range(max_redraws):
        x = rng.normal(mean, std)
        if x >= low:
            return float(x)
    raise GenerationError(f"could not draw a value >= {low} from N({mean}, std={std})")


def generate_physical_network(cfg, rng):
    """Substrate drawn one value at a time."""
    cfg.validate()
    edges = connected_edges(rng, cfg.server_count, cfg.link_probability, cfg.max_attempts)
    nodes = []
    for node_id in range(cfg.server_count):
        capacity = ResourceVector(
            cpu=draw_positive(rng, cfg.cpu_capacity, cfg),
            memory=draw_positive(rng, cfg.memory_capacity, cfg),
            gpu=draw_positive(rng, cfg.gpu_capacity, cfg),
        )
        nodes.append(PhysicalNode(node_id, capacity))
    links = [PhysicalLink(u, v, draw_positive(rng, cfg.link_bandwidth, cfg)) for u, v in edges]
    return PhysicalNetwork(nodes, links)


def generate_vnr(cfg, request_id, arrival_time, rng):
    """Request drawn one value at a time."""
    lo, hi = cfg.vnr_size
    size = int(rng.integers(lo, hi + 1))
    edges = connected_edges(rng, size, cfg.vnr_link_probability, cfg.max_attempts)
    nodes = []
    for node_id in range(size):
        demand = ResourceVector(
            cpu=draw_positive(rng, cfg.cpu_demand, cfg),
            memory=draw_positive(rng, cfg.memory_demand, cfg),
            gpu=draw_positive(rng, cfg.gpu_demand, cfg),
        )
        nodes.append(VirtualNode(node_id, demand))
    links = [VirtualLink(u, v, draw_positive(rng, cfg.bandwidth_demand, cfg)) for u, v in edges]
    lifetime = draw_positive(rng, cfg.lifetime, cfg, floor=cfg.lifetime_floor)
    return Vnr(request_id, nodes, links, arrival_time, lifetime)


def build_workload(cfg, duration, seed):
    """Arrival times, per-value requests and primaries, one scalar primary draw per request."""
    vnr_rng = stream(seed, "vnr")
    primary_rng = stream(seed, "primaries")
    mean_gap = 1.0 / cfg.arrival_rate
    workload = []
    now = 0.0
    while True:
        now += float(vnr_rng.exponential(mean_gap)) if cfg.arrival_process == "poisson" else mean_gap
        if now > duration:
            return workload
        vnr = generate_vnr(cfg, len(workload), now, vnr_rng)
        workload.append((now, vnr, int(primary_rng.integers(cfg.server_count))))


@dataclass
class Delivery:
    """One message the reference ring delivered, field by field as a trace event."""

    seq: int
    request_id: int
    kind: str
    sender: int
    receiver: int
    subject: int
    metric: float | None


class MessageLog:
    """The reference ring's deliveries in order, counted by kind, and as JSON lines."""

    def __init__(self):
        self.events = []
        self.embedding_count = self.embedded_count = 0

    def to_jsonl(self):
        return "\n".join(
            json.dumps(asdict(e), sort_keys=True, allow_nan=False) for e in self.events
        )


def message_election(ring, outcomes, request_id):
    """Chang & Roberts' ring over fixed local embeddings: (winner, its outcome, MessageLog).

    `outcomes` maps each leader to its LocalEmbedOutcome.  A message is
    (kind, subject, metric); proposals rank by (metric, -originator), with NaN
    ranking as infeasible.  A leader forwards a proposal that beats its own and
    replaces one that does not; the originator of a returning proposal
    announces its solution, and the announcement stops when it is back at the
    winner.
    """
    def rank(node, metric):
        return (INFEASIBLE if math.isnan(metric) else metric, -node)

    members = ring.members
    successor = {node: members[(i + 1) % len(members)] for i, node in enumerate(members)}
    log = MessageLog()
    winner = ring.primary
    if len(members) == 1:
        return winner, outcomes[winner], log
    sender, msg = ring.primary, ("EMBEDDING", ring.primary, outcomes[ring.primary].metric())
    while msg is not None:
        assert len(log.events) < 3 * len(members), "the ring did not stop"
        receiver = successor[sender]
        kind, subject, metric = msg
        log.events.append(Delivery(
            len(log.events), request_id, kind, sender, receiver, subject,
            None if metric == INFEASIBLE else metric,
        ))
        if kind == "EMBEDDING":
            log.embedding_count += 1
            own = outcomes[receiver]
            if subject == receiver:
                solution = own.solution
                msg = ("EMBEDDED", receiver, None if solution is None else solution.metric)
            elif rank(receiver, own.metric()) > rank(subject, metric):
                msg = ("EMBEDDING", receiver, own.metric())
        else:
            log.embedded_count += 1
            winner = subject
            if receiver == subject:
                msg = None
        sender = receiver
    return winner, outcomes[winner], log


def residual_snapshot(net):
    """Hashable view of every residual, for mutation checks."""
    nodes = tuple(zip(net.cpu_free, net.memory_free, net.gpu_free))
    return nodes, tuple(net.bw_free)


def power_rank(weights, edges, params, start=None):
    """GRC rank from (u, v, weight) edge tuples, the transition matrix built by loops.

    Damped fixed point r = (1-d)*c + d*T*r on an undirected weighted graph.
    c is `weights` normalized to sum 1; column j of T spreads over j's
    neighbors proportionally to edge weight, or uniformly when all of j's
    incident weight is zero. That keeps each column of a node with links
    stochastic, so ranks sum to 1 when every node has a link; a node without
    links has a zero column, and the ranks sum to less.
    The iteration starts from `start` when one is given, else from c.
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
    rank = c.copy() if start is None else np.array(start, dtype=float)
    for _ in range(params.max_iterations):
        updated = (1.0 - d) * c + d * (transition @ rank)
        if np.max(np.abs(updated - rank)) < params.tolerance:
            return updated
        rank = updated
    raise ConvergenceError(
        f"rank iteration did not reach {params.tolerance} within {params.max_iterations} steps"
    )


def first_fitting(candidates):
    """choose() that probes every candidate in order: the first one the virtual node fits on."""

    def choose(scratch, vid):
        for scanned, pid in enumerate(candidates, 1):
            if scratch.node_fits(vid, pid):
                return pid, scanned
        return None, len(candidates)

    return choose


def best_fit(net, vnr, params=None):
    """Bestfit choosing by a scan: the fitting node with the most effective free cpu.

    Effective means less what this request already placed there; ties go to
    the lowest id.
    """
    params = params or LocalEmbedParams()

    def choose(scratch, vid):
        best_pid = None
        best_cpu = -1
        for pid in range(net.num_nodes):
            if not scratch.node_fits(vid, pid):
                continue
            used = scratch.node_usage.get(pid)
            cpu_m = net.cpu_free[pid] - (used[0] if used else 0)
            if cpu_m > best_cpu:
                best_cpu = cpu_m
                best_pid = pid
        return best_pid, net.num_nodes

    return _greedy_by_choice(net, vnr, params, choose)
