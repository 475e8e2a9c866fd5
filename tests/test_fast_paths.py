"""Property tests: the fast paths against their slow references.

`map_link` first walks the capacity-blind next-hop table; when that walk
hits a link that cannot carry the demand it gives up if either endpoint has
no link that can, and only then runs a breadth-first search, which stops as
soon as src gets its level.  `embed` reads a breadth-first walk that the
network caches per root across calls, skips servers below the least
remaining demand, and skips virtual nodes whose demand exceeds what is free
on the inspected node before calling `try_place`.  GRC builds its
transition matrix from edge arrays.  Each must give exactly what the
exhaustive path oracle, the plain greedy loop and the loop-built rank give.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import combinations
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from devine import (
    AllocationLedger,
    GrcParams,
    LocalEmbedParams,
    PhysicalLink,
    PhysicalNetwork,
    PhysicalNode,
    ResourceVector,
    VirtualLink,
    VirtualNode,
    Vnr,
    allocate,
    demand_order,
    embed,
    grc_rank,
    local_embed,
    map_link,
    release,
)
from devine.baselines import _vnr_rank
from devine.local_embed import LocalEmbedOutcome, _finish, _Scratch
from oracles import best_path, power_rank

amounts = st.integers(min_value=0, max_value=30)


@st.composite
def networks(draw, max_nodes=7):
    """Random graphs, disconnected ones included, with random residuals."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    pairs = [pair for pair in combinations(range(n), 2) if draw(st.booleans())]
    links = []
    for u, v in pairs:
        capacity = draw(amounts)
        residual = draw(st.integers(min_value=0, max_value=capacity))
        links.append(PhysicalLink(u, v, float(capacity), float(residual)))
    nodes = [
        PhysicalNode(i, ResourceVector(draw(amounts), draw(amounts), draw(amounts)))
        for i in range(n)
    ]
    return PhysicalNetwork(nodes, links)


@st.composite
def reservations(draw, net):
    idxs = st.sampled_from(range(net.num_links)) if net.num_links else st.nothing()
    return draw(st.dictionaries(idxs, st.integers(0, 20_000), max_size=net.num_links))


@st.composite
def requests(draw, max_nodes=4, request_id=0):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    nodes = [
        VirtualNode(i, ResourceVector(draw(amounts), draw(amounts), draw(amounts)))
        for i in range(n)
    ]
    links = [
        VirtualLink(u, v, float(draw(st.integers(0, 20))))
        for u, v in combinations(range(n), 2)
        if draw(st.booleans())
    ]
    return Vnr(request_id, nodes, links, 0.0, 1.0)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_map_link_matches_the_path_oracle(data):
    net = data.draw(networks())
    nodes = st.integers(0, net.num_nodes - 1)
    src, dst = data.draw(nodes), data.draw(nodes)
    demand_m = data.draw(st.integers(0, 30_000))
    hop_limit = data.draw(st.integers(0, 6))
    reserved = data.draw(reservations(net))
    # leave no free bandwidth on any link of the chosen endpoints
    for end in data.draw(st.sampled_from(((), (src,), (dst,), (src, dst)))):
        for idx in net.adjacency[end].values():
            reserved[idx] = net.links[idx].bw_residual_m

    def carries(idx):
        return net.links[idx].bw_residual_m - reserved.get(idx, 0) >= demand_m

    cut_off = src != dst and any(
        not any(map(carries, net.adjacency[end].values())) for end in (src, dst)
    )
    with mock.patch.object(local_embed, "_search", wraps=local_embed._search) as search:
        got = map_link(net, src, dst, demand_m, hop_limit, reserved)
    assert got == best_path(net, src, dst, demand_m, reserved, max_hops=hop_limit)
    if cut_off:
        # an endpoint no path can leave or enter is settled without a search
        assert got is None
        assert not search.called


@settings(max_examples=200, deadline=None)
@given(net=networks())
def test_next_hop_walk_is_the_capacity_blind_best_path(net):
    for dst in range(net.num_nodes):
        table = net.next_hops(dst)
        assert table[dst] == dst
        for src in range(net.num_nodes):
            path = [src]
            while path[-1] != dst and table[path[-1]] >= 0:
                path.append(table[path[-1]])
            walked = tuple(path) if path[-1] == dst else None
            assert walked == best_path(net, src, dst, 0)
    assert net.clone().next_hops(0) == net.next_hops(0)


def plain_greedy_embed(root, net, vnr, params):
    """embed() with its greedy pass as a call to try_place for every remaining vid."""
    budget = math.ceil(params.alpha * vnr.num_nodes)
    hop_limit = params.hop_limit()
    remaining = deque(demand_order(vnr))
    scratch = _Scratch(net, vnr, params.injective)
    visited = {root}
    queue = deque([(root, 0)])
    inspected = 0
    max_depth = 0
    while queue and remaining and inspected < budget:
        here, depth = queue.popleft()
        inspected += 1
        max_depth = max(max_depth, depth)
        for vid in list(remaining):
            if scratch.try_place(vid, here, hop_limit):
                remaining.remove(vid)
        if depth < params.beta:
            for nb in net.neighbors(here):
                if nb not in visited:
                    visited.add(nb)
                    queue.append((nb, depth + 1))
    if remaining:
        return LocalEmbedOutcome(False, None, inspected, max_depth)
    return _finish(scratch, params, inspected, max_depth)


def _embed_and_keep(net, ledger, live, root, vnr, params):
    """Check one embed against the plain loop, then allocate it, keeping two live."""
    outcome = embed(root, net, vnr, params)
    assert outcome == plain_greedy_embed(root, net, vnr, params)
    if outcome.feasible:
        allocate(net, vnr, outcome.solution, ledger, injective=params.injective)
        live.append(vnr.request_id)
        if len(live) > 2:
            release(net, live.pop(0), ledger)
    return outcome


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_embed_matches_the_plain_greedy_loop(data):
    # several embeds on one network, so later ones read the walks earlier ones cached
    net = data.draw(networks())
    ledger = AllocationLedger()
    live: list[int] = []
    for rid in range(data.draw(st.integers(1, 6))):
        vnr = data.draw(requests(request_id=rid))
        params = LocalEmbedParams(
            alpha=data.draw(st.sampled_from([0.5, 1.0, 2.0, 30.0])),
            beta=data.draw(st.integers(0, 3)),
            path_hop_limit=data.draw(st.none() | st.integers(0, 6)),
            injective=data.draw(st.booleans()),
        )
        root = data.draw(st.integers(0, net.num_nodes - 1))
        _embed_and_keep(net, ledger, live, root, vnr, params)


def test_cached_walks_serve_every_root_and_depth_across_calls():
    # component 0-5: the direct link 1-3 is too thin for the request's link, so
    # routing between 1 and 3 takes the detour 1-0-2-3; node 0 has almost no
    # cpu.  Component 6-7: node 6 has nothing free at all.
    caps = [(1, 50, 50)] + [(20, 50, 50)] * 5 + [(0, 0, 0), (20, 50, 50)]
    net = PhysicalNetwork(
        [PhysicalNode(i, ResourceVector(*cap)) for i, cap in enumerate(caps)],
        [
            PhysicalLink(u, v, bw)
            for u, v, bw in [
                (0, 1, 100), (0, 2, 100), (1, 3, 1), (2, 3, 100),
                (3, 4, 100), (4, 5, 100), (6, 7, 100),
            ]
        ],
    )
    kinds = [
        # two nodes that cannot share a server, joined by a 10-unit link
        lambda rid: Vnr(
            rid,
            [VirtualNode(i, ResourceVector(12, 10, 10)) for i in range(2)],
            [VirtualLink(0, 1, 10.0)],
        ),
        # a node that demands nothing: it fits even on node 6
        lambda rid: Vnr(rid, [VirtualNode(0, ResourceVector(0, 0, 0))], []),
        lambda rid: Vnr(rid, [VirtualNode(0, ResourceVector(8, 10, 10))], []),
    ]
    ledger = AllocationLedger()
    live: list[int] = []
    paths = set()
    rid = 0
    # 6's component has eccentricity 1 and node 3's is 2, so the deeper calls
    # run past the end of the walk
    for root in (1, 0, 3, 6, 5, 0):
        for beta in range(4):  # shallow first, then deeper on the same walk
            for make in kinds:
                params = LocalEmbedParams(alpha=2.0, beta=beta)
                outcome = _embed_and_keep(net, ledger, live, root, make(rid), params)
                if outcome.feasible:
                    paths.update(outcome.solution.path_mapping.values())
                rid += 1
    assert (1, 0, 2, 3) in paths  # the detour only the level search finds
    twin = net.clone()
    for root in range(net.num_nodes):
        full = twin.walk(root)
        assert full.order == [(root, 0)]  # a clone starts without cached walks
        while full.grow():
            pass
        cached = net.walk(root).order
        assert cached == full.order[: len(cached)]
    assert net.walk(6).order == [(6, 0), (7, 1)]
    assert len(net.walk(0).order) < len(twin.walk(0).order)  # grown only as far as read


def _grc_net(cpus, links):
    nodes = [PhysicalNode(i, ResourceVector(cpu, 1, 1)) for i, cpu in enumerate(cpus)]
    return PhysicalNetwork(nodes, [PhysicalLink(u, v, 30.0, bw) for u, v, bw in links])


@st.composite
def rank_networks(draw, max_nodes=8):
    """Random graphs whose node and link weights are often zero."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    cpus = [draw(st.sampled_from((0, 1, 3, 30))) for _ in range(n)]
    links = [
        (u, v, draw(st.sampled_from((0, 0, 1, 5, 30))))
        for u, v in combinations(range(n), 2)
        if draw(st.booleans())
    ]
    return _grc_net(cpus, links)


@settings(max_examples=400, deadline=None)
@given(net=rank_networks(), damping=st.sampled_from((0.0, 0.5, 0.85)))
@example(net=_grc_net([30], []), damping=0.85)  # a single node
@example(net=_grc_net([1, 3, 30], []), damping=0.85)  # edgeless
@example(net=_grc_net([0, 0, 0], [(0, 1, 5), (1, 2, 1)]), damping=0.85)  # zero node weights
@example(net=_grc_net([1, 3, 30, 1], [(0, 1, 0), (0, 2, 0), (2, 3, 5)]), damping=0.85)  # drained
@example(net=_grc_net([1, 3, 30, 1], [(1, 3, 0), (0, 1, 5)]), damping=0.85)  # isolated node 2
def test_power_rank_matches_the_loop_built_reference(net, damping):
    params = GrcParams(damping=damping)
    weights = np.array([n.residual.cpu_m for n in net.nodes], dtype=float)
    edges = [(l.u, l.v, l.bw_residual_m) for l in net.links]
    assert grc_rank(net, params).tobytes() == power_rank(weights, edges, params).tobytes()

    # the same graph read as a request: cpu demands and bandwidth demands
    vnr = Vnr(
        0,
        [VirtualNode(n.id, n.residual) for n in net.nodes],
        [VirtualLink(l.u, l.v, l.bandwidth_residual) for l in net.links],
    )
    assert _vnr_rank(vnr, params).tobytes() == power_rank(weights, edges, params).tobytes()

    u, v = net.clone().link_endpoints()
    assert u.tolist() == [l.u for l in net.links]
    assert v.tolist() == [l.v for l in net.links]
