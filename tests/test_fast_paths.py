"""Property tests: the fast paths against their slow references.

`map_link` first descends the capacity-blind shortest path through the
depths of the destination's breadth-first walk, grown only until it reaches
the source; when that path hits a link that cannot carry the demand it
gives up if either endpoint has no link that can, tries the two-hop detours
through the endpoints' common neighbours when the path had at most two
hops, then the three-hop detours when it had at most three, and only then
runs a breadth-first search that fills levels from both ends until they meet.
`embed` lets a root with room for the whole request take all of it
without a walk, reads a breadth-first walk
that the network caches per root across calls, skips servers below the
least remaining demand, and skips virtual nodes whose demand exceeds what
is free on the inspected node before calling `try_place`, which keeps a
co-located link's one-node path without calling `map_link`.  Each request
keeps its demand order, demand triples, least demand, totals and revenue,
and a finished placement is priced from the bandwidth x hops its
reservations added up rather than by `oracles.cost_of` over its paths.  GRC fills its
transition matrices from edge arrays, refills one kept substrate transition in
place from the links that allocate and release moved, steps a sparse one by a
gather over its links (within float64 rounding of the dense rank), ranks a
run's requests in one stacked iteration per request size, orders nodes by a
stable argsort, reuses a substrate rank while the residuals it ranked
are unchanged, and starts a fresh one from the last rank that settled
(the loop-built rank takes the same start, and a grc run whose every rank
starts cold must write the same bytes).
bestfit scans the servers sorted by free cpu until the first unused fit and
weighs it against the servers the request uses; firstfit and GRC probe only
the servers that clear a request's least demand, filtered lazily.  Each must
give exactly what the whole-graph breadth-first search, the exhaustive path
oracle, the one-sided search, the plain greedy loop, the scratch that maps every
link, the loop-built rank, the
sorted-key order, the scanning choosers, the request-only demand memo and
`oracles.cost_of`, `revenue_of` and `metric_of` give.  The generator draws each
request's and each substrate's normals in one call and picks G(n, p) pairs
from flat indices; both must consume the same stream and build the same
objects as the per-value generators.
"""

from __future__ import annotations

import math
import random
from collections import Counter, deque
from dataclasses import replace
from itertools import combinations, count
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from devine import (
    ConvergenceError,
    EmbeddingSolution,
    GenerationError,
    GeneratorConfig,
    GrcParams,
    LedgerError,
    LocalEmbedParams,
    PhysicalLink,
    PhysicalNetwork,
    PhysicalNode,
    ResourceVector,
    SimConfig,
    VirtualLink,
    VirtualNode,
    Vnr,
    allocate,
    baselines,
    best_fit,
    embed,
    first_fit,
    from_milli,
    grc_embed,
    grc_rank,
    generate_physical_network,
    generate_vnr,
    local_embed,
    map_link,
    metric_of,
    release,
    revenue_of,
    run_simulation,
    simulation,
    stream,
)
from devine import generator
from devine.baselines import _stacked_rank, vnr_orders
from devine.local_embed import LocalEmbedOutcome, _finish, _Scratch
from devine.model import Walk
import oracles
from oracles import best_path, cost_of, demand_order, power_rank
from test_golden_digests import CONFIGS, DURATION, SEEDS

amounts = st.integers(min_value=0, max_value=30)


@st.composite
def networks(draw, min_nodes=1, max_nodes=7):
    """Random graphs, disconnected ones included, with random residuals."""
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    pairs = [pair for pair in combinations(range(n), 2) if draw(st.booleans())]
    links = []
    bw_free = []
    for u, v in pairs:
        capacity = draw(amounts)
        links.append(PhysicalLink(u, v, float(capacity)))
        bw_free.append(1000 * draw(st.integers(min_value=0, max_value=capacity)))
    nodes = [
        PhysicalNode(i, ResourceVector(draw(amounts), draw(amounts), draw(amounts)))
        for i in range(n)
    ]
    return PhysicalNetwork(nodes, links, bw_free=bw_free)


@st.composite
def reservations(draw, net):
    idxs = st.sampled_from(range(net.num_links)) if net.num_links else st.nothing()
    return draw(st.dictionaries(idxs, st.integers(0, 20_000), max_size=net.num_links))


@st.composite
def requests(draw, max_nodes=4, request_id=0, amount=amounts):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    nodes = [
        VirtualNode(i, ResourceVector(draw(amount), draw(amount), draw(amount)))
        for i in range(n)
    ]
    links = [
        VirtualLink(u, v, float(draw(st.integers(0, 20))))
        for u, v in combinations(range(n), 2)
        if draw(st.booleans())
    ]
    return Vnr(request_id, nodes, links, 0.0, 1.0)


def _blind_path(net, src, dst):
    """The smallest capacity-blind shortest path, read off the whole next-hop table, or None."""
    hops = oracles.next_hop_table(net, dst)
    path = [src]
    while path[-1] != dst and hops[path[-1]] >= 0:
        path.append(hops[path[-1]])
    return tuple(path) if path[-1] == dst else None


def test_map_link_matches_the_path_oracle():
    counts = Counter()

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def check(data):
        detour = data.draw(st.booleans())
        net = data.draw(networks(min_nodes=4 if detour else 1))
        nodes = st.integers(0, net.num_nodes - 1)
        src = data.draw(nodes)
        dst = data.draw(nodes.filter(lambda end: end != src) if detour else nodes)
        blind = _blind_path(net, src, dst)
        if detour and blind is not None:
            # saturate one link of the capacity-blind shortest path and leave the
            # rest free for a small demand: the walk is blocked and the search
            # looks for a detour
            demand_m = data.draw(st.integers(1, 1000))
            hop_limit = data.draw(st.integers(len(blind) - 1, 6))
            step = data.draw(st.integers(0, len(blind) - 2))
            idx = net.adjacency[blind[step]][blind[step + 1]]
            reserved = {idx: net.bw_free[idx]}
        else:
            demand_m = data.draw(st.integers(0, 30_000))
            hop_limit = data.draw(st.integers(0, 6))
            reserved = data.draw(reservations(net))
            # leave no free bandwidth on any link of the chosen endpoints
            for end in data.draw(st.sampled_from(((), (src,), (dst,), (src, dst)))):
                for idx in net.adjacency[end].values():
                    reserved[idx] = net.bw_free[idx]

        def carries(idx):
            return net.bw_free[idx] - reserved.get(idx, 0) >= demand_m

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
        counts["examples"] += 1
        counts["searched"] += search.called
        counts["found"] += search.called and got is not None
        detoured = _blocked(net, blind, carries) and got is not None and not search.called
        counts["detoured"] += detoured

    check()
    # a blocked walk is answered by the two- or three-hop detour or falls
    # through to the breadth-first search: blocked walks are exercised, each
    # way is taken, and a share of them find a path (a detour always does)
    blocked = counts["searched"] + counts["detoured"]
    assert blocked >= counts["examples"] // 10, counts
    assert min(counts["searched"], counts["detoured"]) >= counts["examples"] // 40, counts
    assert counts["found"] + counts["detoured"] >= blocked // 4, counts


def _blocked(net, blind, carries) -> bool:
    """Whether the capacity-blind path exists and a hop on it cannot carry the demand."""
    hops = zip(blind, blind[1:]) if blind else ()
    return any(not carries(net.adjacency[a][b]) for a, b in hops)


@st.composite
def seeded_networks(draw, nodes=(8, 60), density=(0.04, 0.3), shuffled=False):
    """Random substrates of `nodes` nodes at a link probability in `density`, with their stream.

    Size, density, links and residuals come from one drawn seed rather than
    a draw each, so they spread evenly over their ranges instead of
    crowding at the small end, and a 100-node substrate stays cheap to draw.
    The defaults are sparse; `paper-default` (100 servers, p = 0.4) is dense,
    and there most capacity-blind shortest paths have one or two hops.
    `shuffled` lists the links in random order, so no node's adjacency map
    holds its neighbours in ascending id.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = rng.randint(*nodes)
    p = rng.uniform(*density)
    pairs = [pair for pair in combinations(range(n), 2) if rng.random() < p]
    links = [(u, v, 1000 * rng.randint(0, 30)) for u, v in pairs]
    if shuffled:
        rng.shuffle(links)
    net = PhysicalNetwork(
        [PhysicalNode(i, ResourceVector(1, 1, 1)) for i in range(n)],
        [PhysicalLink(u, v, 30.0) for u, v, _ in links],
        bw_free=[free for _, _, free in links],
    )
    return net, rng


def _ball(net, root, radius, outside):
    """Nodes within `radius` capacity-blind hops of root, short of the level of `outside`."""
    ball = {root}
    level = {root}
    for _ in range(radius):
        level = {nb for here in level for nb in net.neighbors(here)} - ball
        if outside in level:
            break
        ball |= level
    return ball


def test_two_sided_search_matches_the_one_sided_reference():
    counts = Counter()
    expand = local_embed._expand

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def check(data):
        net, rng = data.draw(seeded_networks())
        src, dst = rng.sample(range(net.num_nodes), 2)
        demand_m = rng.randint(1, 8_000)
        hop_limit = rng.randint(1, 9)
        reserved = {
            idx: rng.randint(0, 20_000) for idx in range(net.num_links) if rng.random() < 0.3
        }
        if rng.random() < 0.25:
            # cut src off: no link out of a ball around src that misses dst
            # carries the demand, although links inside the ball may
            ball = _ball(net, src, rng.randint(0, 3), dst)
            for here in ball:
                for nb, idx in net.adjacency[here].items():
                    if nb not in ball:
                        reserved[idx] = net.bw_free[idx]

        def usable(idx):
            return net.bw_free[idx] - reserved.get(idx, 0) >= demand_m

        depth = {True: 0, False: 0}  # levels filled, keyed by "the side grows from src"

        def spy(adjacency, frontier, seen, level, other, usable):
            # until the sides meet, only the side grown from src holds src
            depth[src in seen] = level
            return expand(adjacency, frontier, seen, level, other, usable)

        with mock.patch.object(local_embed, "_expand", spy):
            got = local_embed._search(net, src, dst, hop_limit, usable)
        assert got == oracles.search(net, src, dst, hop_limit, usable)
        with mock.patch.object(local_embed, "_search", oracles.search):
            want = map_link(net, src, dst, demand_m, hop_limit, reserved)
        assert map_link(net, src, dst, demand_m, hop_limit, reserved) == want
        counts["examples"] += 1
        counts["no path"] += got is None
        counts["met past forward level 1"] += got is not None and depth[True] >= 2
        counts["met past backward level 1"] += got is not None and depth[False] >= 2

    check()
    # the fills meet past level 1 on either side, and some searches find nothing
    share = counts["examples"] // 20
    assert counts["met past forward level 1"] >= share, counts
    assert counts["met past backward level 1"] >= share, counts
    assert counts["no path"] >= share, counts


def _block_two_hop_paths(net, src, dst, reserved, rng):
    """Saturate one link, at random, of every two-hop path from src to dst."""
    out, into = net.adjacency[src], net.adjacency[dst]
    for mid in out.keys() & into.keys():
        idx = rng.choice((out[mid], into[mid]))
        reserved[idx] = net.bw_free[idx]


def _block_three_hop_paths(net, src, dst, reserved):
    """Saturate the middle link of every three-hop path (src, a, b, dst)."""
    into = net.adjacency[dst]
    for a in net.adjacency[src].keys() - {dst}:
        for b in net.adjacency[a].keys() & into.keys() - {src}:
            idx = net.adjacency[a][b]
            reserved[idx] = net.bw_free[idx]


def _block_short_paths(net, src, dst, reserved, rng, blocks):
    """Block the capacity-blind path from src to dst at one hop, and return it.

    With the chance `blocks[0]` every two-hop path is blocked too, and then
    with the chance `blocks[1]` every three-hop path.
    """
    blind = _blind_path(net, src, dst)
    if blind is not None:
        step = rng.randrange(len(blind) - 1)
        idx = net.adjacency[blind[step]][blind[step + 1]]
        reserved[idx] = net.bw_free[idx]
        if rng.random() < blocks[0]:
            _block_two_hop_paths(net, src, dst, reserved, rng)
            if rng.random() < blocks[1]:
                _block_three_hop_paths(net, src, dst, reserved)
    return blind


def test_two_hop_detour_matches_the_search_on_dense_substrates():
    counts = Counter()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def check(data):
        net, rng = data.draw(seeded_networks(nodes=(20, 100), density=(0.2, 0.6)))
        src, dst = rng.sample(range(net.num_nodes), 2)
        demand_m = rng.randint(1, 8_000)
        hop_limit = rng.randint(1, 5)
        reserved = {
            idx: rng.randint(0, 20_000) for idx in range(net.num_links) if rng.random() < 0.1
        }
        # the blind path blocked at one hop; in some examples every two-hop
        # path too, and in some of those every three-hop path, so only a
        # longer path is left
        blind = _block_short_paths(net, src, dst, reserved, rng, (0.5, 0.6))

        def usable(idx):
            return net.bw_free[idx] - reserved.get(idx, 0) >= demand_m

        with mock.patch.object(local_embed, "_search", wraps=local_embed._search) as search:
            got = map_link(net, src, dst, demand_m, hop_limit, reserved)
        assert got == oracles.search(net, src, dst, hop_limit, usable)
        blocked = _blocked(net, blind, usable)
        if blocked and hop_limit == 1:
            assert got is None  # no detour fits in one hop
            counts["one hop allowed"] += 1
        counts["examples"] += 1
        detoured = blocked and got is not None and not search.called
        counts["detoured"] += detoured
        counts["detoured a 2-hop walk"] += detoured and len(blind) == 3
        counts["detoured a 3-hop path"] += detoured and len(got) == 4
        counts["searched, 4+ hops"] += search.called and got is not None and len(got) > 4
        counts["searched, no path"] += search.called and got is None

    check()
    share = counts["examples"] // 20
    assert counts["detoured"] >= 4 * share, counts
    assert counts["detoured a 2-hop walk"] >= share, counts
    assert counts["detoured a 3-hop path"] >= share, counts
    assert counts["searched, 4+ hops"] >= share, counts
    assert counts["searched, no path"] >= share, counts
    assert counts["one hop allowed"] >= share, counts


def _at_blind_distance(net, src, hops, rng):
    """A node `hops` capacity-blind hops from src, or any other node when none is.

    It is one with a three-hop path from src other than the blind path,
    when there is such a node.
    """
    adjacency = net.adjacency
    seen, level = {src}, {src}
    for _ in range(hops):
        level = {nb for here in level for nb in adjacency[here]} - seen
        seen |= level
    three = Counter(  # three-hop paths from src, by their last node
        c
        for a in adjacency[src]
        for b in adjacency[a].keys() - {src}
        for c in adjacency[b].keys() - {a}
    )
    pick = sorted(node for node in level if three[node] > (hops == 3)) or sorted(level)
    return rng.choice(pick or [node for node in range(net.num_nodes) if node != src])


def test_three_hop_detour_matches_the_search_on_sparse_substrates():
    counts = Counter()

    @settings(max_examples=1000, deadline=None)
    @given(data=st.data())
    def check(data):
        # the `large-light` regime: few common neighbours, so most blocked
        # walks end on a three-hop path
        net, rng = data.draw(seeded_networks(nodes=(30, 150), density=(0.02, 0.1), shuffled=True))
        src = rng.randrange(net.num_nodes)
        # a destination 1, 2 or 3 blind hops away, or any other node
        dst = _at_blind_distance(net, src, rng.randint(1, 3), rng)
        demand_m = rng.randint(1, 8_000)
        hop_limit = rng.randint(2, 5)
        reserved = {
            idx: rng.randint(0, 20_000) for idx in range(net.num_links) if rng.random() < 0.1
        }
        blind = _block_short_paths(net, src, dst, reserved, rng, (0.4, 0.3))

        def usable(idx):
            return net.bw_free[idx] - reserved.get(idx, 0) >= demand_m

        with mock.patch.object(local_embed, "_search", wraps=local_embed._search) as search:
            got = map_link(net, src, dst, demand_m, hop_limit, reserved)
        assert got == oracles.search(net, src, dst, hop_limit, usable)
        counts["examples"] += 1
        if hop_limit == 2:
            assert got is None or len(got) <= 3
            three = oracles.search(net, src, dst, 3, usable)
            counts["hop limit 2 cut a 3-hop path"] += got is None and three is not None
        if _blocked(net, blind, usable) and got is not None and not search.called:
            counts[f"three-hop detour, {len(blind) - 1}-hop walk"] += len(got) == 4
        counts["searched, 4+ hops"] += search.called and got is not None and len(got) > 4
        counts["searched, no path"] += search.called and got is None

    check()
    share = counts["examples"] // 20
    for walk in (1, 2, 3):
        assert counts[f"three-hop detour, {walk}-hop walk"] >= share, counts
    assert counts["searched, 4+ hops"] >= share, counts
    assert counts["searched, no path"] >= share, counts
    assert counts["hop limit 2 cut a 3-hop path"] >= share, counts


def test_walk_depths_are_true_from_any_source_order_and_give_the_blind_path():
    counts = Counter()

    @settings(max_examples=200, deadline=None)
    @given(net=networks(), data=st.data())
    def check(net, data):
        for dst in range(net.num_nodes):
            whole = [  # hop distances to dst, from the whole next-hop table
                -1 if path is None else len(path) - 1
                for path in (_blind_path(net, src, dst) for src in range(net.num_nodes))
            ]
            walk = net.walk(dst)
            grown = Walk(dst, [net.neighbors(v) for v in range(net.num_nodes)])
            # sources in a drawn order, so a walk is asked to grow from any depth
            for src in data.draw(st.permutations(range(net.num_nodes))):
                level = walk.reach(src)
                assert level == whole[src]
                # reach(src) stops where growing one more node at a time would
                while grown.depth[src] < 0:
                    known = len(grown.order)
                    grown.reach(dst, known)  # dst has depth 0, so only the size binds
                    if len(grown.order) == known:
                        break  # the component is exhausted: src is cut off
                assert (walk.order, walk.depth, walk._expanded) == (
                    grown.order, grown.depth, grown._expanded
                )
                # every depth set is true, and so is every one closer than src's:
                # an exhausted walk (src cut off) holds its whole component
                closer = level if level >= 0 else net.num_nodes
                assert all(got == want for got, want in zip(walk.depth, whole) if got >= 0)
                assert all(walk.depth[v] == d for v, d in enumerate(whole) if 0 <= d < closer)
                assert sorted(walk.order) == [v for v, d in enumerate(walk.depth) if d >= 0]
                counts["partial"] += walk.depth != whole
                # at zero demand every link carries it: map_link is the blind path
                hop_limit = data.draw(st.integers(0, 5))
                got = map_link(net, src, dst, 0, hop_limit)
                assert got == best_path(net, src, dst, 0, max_hops=hop_limit)
                counts["pairs"] += 1
                counts["cut by the hop limit"] += got is None and level >= 0
                counts["cut off"] += level < 0
            assert [walk.depth[v] for v in walk.order] == sorted(walk.depth[v] for v in walk.order)
        copy = oracles.copy_network(net)  # its own walks, grown alike
        for src in range(net.num_nodes):
            copy.walk(0).reach(src)
        assert copy.walk(0).order == net.walk(0).order

    check()
    assert counts["partial"], counts  # some walks stopped short of the whole component
    assert counts["cut by the hop limit"] >= counts["pairs"] // 20, counts
    # disconnected substrates come in clumps: 5-14% of the pairs over eleven runs
    assert counts["cut off"] >= counts["pairs"] // 50, counts


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


def _assert_priced_from_its_paths(vnr, outcome, params):
    """A feasible outcome's revenue, cost and metric are the priced solution's, bit for bit."""
    if outcome.feasible:
        solution = outcome.solution
        revenue, cost = revenue_of(vnr), cost_of(vnr, solution)
        want = (revenue, cost, metric_of(revenue, cost, params.x, params.y))
        got = (solution.revenue, solution.cost, solution.metric)
        assert [value.hex() for value in got] == [value.hex() for value in want]


def _keep(net, ledger, live, vnr, outcome, params):
    """Allocate a feasible outcome, releasing the oldest so that two stay live."""
    _assert_priced_from_its_paths(vnr, outcome, params)
    if outcome.feasible:
        allocate(net, vnr, outcome.solution, ledger, injective=params.injective)
        live.append(vnr.request_id)
        if len(live) > 2:
            release(net, live.pop(0), ledger)


def _embed_and_keep(net, ledger, live, root, vnr, params):
    """Check one embed against the plain loop, then allocate it, keeping two live."""
    outcome = embed(root, net, vnr, params)
    assert outcome == plain_greedy_embed(root, net, vnr, params)
    _keep(net, ledger, live, vnr, outcome, params)
    return outcome


def _short_of(net, root, vnr):
    """How many of cpu, memory and gpu the root has less of than the request's total."""
    free = (net.cpu_free[root], net.memory_free[root], net.gpu_free[root])
    demands = [(n.demand.cpu_m, n.demand.memory_m, n.demand.gpu_m) for n in vnr.nodes]
    totals = [sum(column) for column in zip(*demands)]
    return sum(total > room for total, room in zip(totals, free))


def test_embed_matches_the_plain_greedy_loop():
    counts = Counter()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def check(data):
        # several embeds on one network, so later ones read the walks earlier ones cached
        net = data.draw(networks())
        ledger = {}
        live: list[int] = []
        for rid in range(data.draw(st.integers(1, 6))):
            # small demands now and then, so that a root often has room for all of them
            light = data.draw(st.sampled_from([amounts, st.integers(0, 8)]))
            vnr = data.draw(requests(request_id=rid, amount=light))
            params = LocalEmbedParams(
                alpha=data.draw(st.sampled_from([0.5, 1.0, 2.0, 30.0])),
                beta=data.draw(st.integers(0, 3)),
                x=data.draw(st.sampled_from([1.0, 0.3, 2.5])),
                y=data.draw(st.sampled_from([1.0, 0.7, 1e-3])),
                path_hop_limit=data.draw(st.none() | st.integers(0, 6)),
                injective=data.draw(st.booleans()),
            )
            root = data.draw(st.integers(0, net.num_nodes - 1))
            short = _short_of(net, root, vnr)
            fresh = vnr.demand_order_memo is None  # the memo's build takes one least demand
            with mock.patch.object(
                local_embed, "_least_demand", wraps=local_embed._least_demand
            ) as least:
                outcome = _embed_and_keep(net, ledger, live, root, vnr, params)
            counts["embeds"] += 1
            counts["least recomputed"] += least.call_count > fresh
            if params.injective:
                counts["root has room, injective"] += short == 0
            elif short == 0:
                # the whole request on the root, found without a walk
                assert outcome.feasible and outcome.inspected_count == 1
                assert set(outcome.solution.node_mapping.values()) == {root}
                counts["root takes all"] += 1
            else:
                counts[f"root short of {short}"] += 1

    check()
    assert counts["root takes all"] >= counts["embeds"] // 20, counts
    assert counts["root has room, injective"], counts
    assert counts["root short of 1"], counts
    assert counts["least recomputed"], counts


def test_a_failed_link_rolls_back_the_reservations_and_their_price():
    # a line 0-1-2-3 whose last link carries one 5-unit link only
    net = PhysicalNetwork(
        [PhysicalNode(i, ResourceVector(50, 50, 50)) for i in range(4)],
        [PhysicalLink(0, 1, 10.0), PhysicalLink(1, 2, 10.0), PhysicalLink(2, 3, 5.0)],
    )
    triangle = [VirtualLink(0, 1, 5.0), VirtualLink(0, 2, 5.0), VirtualLink(1, 2, 5.0)]
    vnr = Vnr(0, [VirtualNode(i, ResourceVector(1, 1, 1)) for i in range(3)], triangle)
    scratch = _Scratch(net, vnr, injective=False)
    assert scratch.try_place(0, 0, 6) and scratch.try_place(1, 1, 6)
    before = (scratch.weighted_m, dict(scratch.reserved), dict(scratch.paths))
    assert before == (5000, {0: 5000}, {0: (0, 1)})
    calls = []

    def spy(net, src, dst, bw_m, hop_limit, reserved):
        calls.append((src, dst, dict(reserved), scratch.weighted_m))
        return map_link(net, src, dst, bw_m, hop_limit, reserved)

    with mock.patch.object(local_embed, "map_link", spy):
        # link 1 (0-2) routes over 0-1-2-3, then link 2 (1-2) finds 2-3 full
        assert not scratch.try_place(2, 3, 6)
    assert calls == [(0, 3, {0: 5000}, 5000), (1, 3, {0: 10_000, 1: 5000, 2: 5000}, 20_000)]
    # rolled back, with no zero entries left behind
    assert (scratch.weighted_m, scratch.reserved, scratch.paths) == before
    assert scratch.placement == {0: 0, 1: 1}


def _colocating_case(rng):
    """A substrate of 2-4 roomy servers on thin links, and a request of 3-6 densely linked nodes.

    Drawn from one seed, as in `seeded_networks`, so sizes spread evenly.
    Bandwidth demands include 0, and hop limits of 0-2 leave many links unroutable.
    """
    def resources(low, high):
        return ResourceVector(*(rng.randint(low, high) for _ in range(3)))

    n = rng.randint(2, 4)
    pairs = [pair for pair in combinations(range(n), 2) if rng.random() < 0.7]
    net = PhysicalNetwork(
        [PhysicalNode(i, resources(10, 30)) for i in range(n)],
        [PhysicalLink(u, v, 30.0) for u, v in pairs],
        bw_free=[1000 * rng.randint(0, 10) for _ in pairs],
    )
    k = rng.randint(3, 6)
    vnr = Vnr(
        0,
        [VirtualNode(i, resources(0, 6)) for i in range(k)],
        [
            VirtualLink(u, v, float(rng.randint(0, 10)))
            for u, v in combinations(range(k), 2)
            if rng.random() < 0.75
        ],
    )
    return net, vnr


def test_try_place_matches_the_scratch_that_routes_every_link():
    counts = Counter()

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def check(seed):
        rng = random.Random(seed)
        net, vnr = _colocating_case(rng)
        injective = rng.random() < 0.25
        hop_limit = rng.randint(0, 2)
        fast = _Scratch(net, vnr, injective)
        slow = oracles.RoutingScratch(net, vnr, injective)
        for _ in range(rng.randint(1, 8)):
            unplaced = [vid for vid in range(vnr.num_nodes) if vid not in fast.placement]
            if not unplaced:
                break
            vid = rng.choice(unplaced)
            # with placed peers on two servers or more, mostly the first peer's:
            # its link is then routed first, co-located, and a later one may fail
            hosts = [fast.placement[peer] for peer in vnr.adjacency[vid] if peer in fast.placement]
            if len(set(hosts)) > 1 and rng.random() < 0.9:
                pid = hosts[0]
            else:
                pid = rng.randrange(net.num_nodes)
            routes = []  # (co-located, no path) for each link the oracle maps

            def spy(net, src, dst, *rest):
                path = map_link(net, src, dst, *rest)
                routes.append((src == dst, path is None))
                return path

            with mock.patch.object(local_embed, "map_link", spy):
                want = slow.try_place(vid, pid, hop_limit)
            assert fast.try_place(vid, pid, hop_limit) == want
            for name in ("placement", "paths", "reserved", "weighted_m", "node_usage"):
                assert getattr(fast, name) == getattr(slow, name), name
            counts["calls"] += 1
            counts["co-located link"] += any(co for co, _ in routes)
            counts["rolled back a co-located link"] += bool(routes) and routes[-1][1] and any(
                co for co, _ in routes[:-1]
            )

    check()
    assert counts["co-located link"] >= counts["calls"] // 20, counts
    assert counts["rolled back a co-located link"] >= counts["calls"] // 20, counts


def test_a_rollback_survives_a_zero_bandwidth_link_on_a_shared_hop():
    # 0-1 wide, 1-2 too thin for the 5-unit link 2-3
    net = PhysicalNetwork(
        [PhysicalNode(i, ResourceVector(50, 50, 50)) for i in range(3)],
        [PhysicalLink(0, 1, 10.0), PhysicalLink(1, 2, 1.0)],
    )
    links = [VirtualLink(0, 2, 5.0), VirtualLink(1, 2, 0.0), VirtualLink(2, 3, 5.0)]
    vnr = Vnr(0, [VirtualNode(i, ResourceVector(1, 1, 1)) for i in range(4)], links)
    scratch = _Scratch(net, vnr, injective=False)
    assert scratch.try_place(0, 0, 6) and scratch.try_place(1, 0, 6) and scratch.try_place(3, 2, 6)
    # links 0 and 1 both take hop 0-1 before link 2 fails; taking back link 0
    # empties that hop's entry, and link 1, which carries 0, finds none
    assert not scratch.try_place(2, 1, 6)
    assert (scratch.reserved, scratch.paths, scratch.weighted_m) == ({}, {}, 0)
    assert scratch.placement == {0: 0, 1: 0, 3: 2}


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
    ledger = {}
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
    twin = oracles.copy_network(net)
    for root in range(net.num_nodes):
        full = twin.walk(root)
        assert full.order == [root]  # a new network starts without cached walks
        full.reach(root, net.num_nodes)  # the whole component
        cached = net.walk(root)
        assert cached.order == full.order[: len(cached.order)]
        assert cached.depth == [full.depth[v] if v in cached.order else -1 for v in range(8)]
    assert net.walk(6).order == [6, 7] and net.walk(6).depth[6:] == [0, 1]
    assert len(net.walk(0).order) < len(twin.walk(0).order)  # grown only as far as read


@st.composite
def crowded_networks(draw, max_nodes=7):
    """Random graphs whose servers often tie on free cpu or have a resource drained."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    level = st.sampled_from((0, 10, 20))
    nodes = [PhysicalNode(i, ResourceVector(20, 20, 20)) for i in range(n)]
    links = [
        PhysicalLink(u, v, 30.0) for u, v in combinations(range(n), 2) if draw(st.booleans())
    ]
    return PhysicalNetwork(
        nodes,
        links,
        cpu_free=[1000 * draw(level) for _ in range(n)],
        memory_free=[1000 * draw(level) for _ in range(n)],
        gpu_free=[1000 * draw(level) for _ in range(n)],
        bw_free=[1000 * draw(st.sampled_from((0, 5, 30))) for _ in links],
    )


def _best_fit_branches(net, demand, usage, injective, pid) -> set[str]:
    """The branches of best_fit's sorted scan that a choice of `pid` took."""
    frees = (net.cpu_free, net.memory_free, net.gpu_free)

    def fits(p, used=(0, 0, 0)):
        return all(free[p] - u >= d for free, u, d in zip(frees, used, demand))

    by_cpu = sorted(range(net.num_nodes), key=lambda p: (-net.cpu_free[p], p))
    unused = [p for p in by_cpu if p not in usage and fits(p)]
    used = [] if injective else [net.cpu_free[p] - u[0] for p, u in usage.items() if fits(p, u)]
    branches = set()
    if unused and pid in usage:
        branches.add("a used server beat the first unused fit")
    if unused and net.cpu_free[unused[0]] in used:
        branches.add("a used and an unused server tied on effective cpu")
    if unused and net.cpu_free[unused[0]] == demand[0]:
        branches.add("the scan picked an exact cpu fit")
    if not unused and min(net.cpu_free, default=0) < demand[0]:
        branches.add("the scan stopped at the cpu cutoff without a pick")
    ahead = by_cpu[: by_cpu.index(pid)] if pid is not None else []
    if injective and any(p in usage and fits(p) for p in ahead):
        branches.add("an injective pick skipped a used server that fits")
    return branches


def test_best_fit_matches_the_scanning_chooser():
    counts = Counter()
    greedy = baselines._greedy_by_choice

    def observed(net, vnr, params, choose, order=None):
        def recording(scratch, vid):
            usage = {p: tuple(used) for p, used in scratch.node_usage.items()}
            pid, scanned = choose(scratch, vid)
            demand = vnr.nodes[vid].demand
            demand = (demand.cpu_m, demand.memory_m, demand.gpu_m)
            counts.update(_best_fit_branches(net, demand, usage, params.injective, pid))
            return pid, scanned

        return greedy(net, vnr, params, recording, order)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def check(data):
        # several requests on one network, allocating and releasing between them,
        # so each call reads residuals that earlier ones moved
        net = data.draw(crowded_networks())
        ledger = {}
        live: list[int] = []
        for rid in range(data.draw(st.integers(1, 6))):
            vnr = data.draw(requests(request_id=rid, amount=st.sampled_from((0, 0, 5, 10))))
            params = LocalEmbedParams(
                path_hop_limit=data.draw(st.none() | st.integers(0, 3)),
                injective=data.draw(st.booleans()),
            )
            with mock.patch.object(baselines, "_greedy_by_choice", observed):
                outcome = best_fit(net, vnr, params)
            assert outcome == oracles.best_fit(net, vnr, params)
            _keep(net, ledger, live, vnr, outcome, params)

    check()
    # each branch of the scan decided some choice
    assert len(counts) == 5, counts


@st.composite
def drained_networks(draw, max_nodes=7):
    """Random graphs, the empty one included, whose servers often have one resource drained."""
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    free = [[20_000] * n for _ in range(3)]
    for pid in range(n):
        drained = draw(st.sampled_from((None, 0, 1, 2)))
        if drained is not None:  # below, at, between or above a demand of 5 or 10
            free[drained][pid] = 1000 * draw(st.sampled_from((0, 4, 5, 9)))
    nodes = [PhysicalNode(i, ResourceVector(20, 20, 20)) for i in range(n)]
    links = [
        PhysicalLink(u, v, 30.0) for u, v in combinations(range(n), 2) if draw(st.booleans())
    ]
    bw_free = [1000 * draw(st.sampled_from((0, 5, 30))) for _ in links]
    cpu_free, memory_free, gpu_free = free
    return PhysicalNetwork(
        nodes, links, cpu_free=cpu_free, memory_free=memory_free, gpu_free=gpu_free, bw_free=bw_free
    )


def _grc(net, vnr, params):
    return grc_embed(net, vnr, None, params)


class _Reads(list):
    """A candidate list that counts the entries its iterators hand out."""

    read = 0

    def __iter__(self):
        for pid in super().__iter__():
            self.read += 1
            yield pid


def _same_first_fits(net, vnr, params) -> set[str]:
    """Check first_fit and grc_embed against themselves on the unfiltered chooser.

    Returns "dropped before a pick" when the filter dropped a server that the
    chooser probed before a pick, and "stopped early" when the filter had not
    read all the candidates by the end of a request.
    """
    probed: list[int] = []
    flags = set()

    def unfiltered(net, vnr, candidates):
        choose = oracles.first_fitting(candidates)

        def recording(scratch, vid):
            pid, scanned = choose(scratch, vid)
            if pid is not None:
                probed.extend(list(candidates)[: scanned - 1])
            return pid, scanned

        return recording

    def reading(net, vnr, candidates):
        reads.append(_Reads(candidates))
        return first_fitting(net, vnr, reads[-1])

    first_fitting = baselines._first_fitting
    for embedder in (first_fit, _grc):
        with mock.patch.object(baselines, "_first_fitting", unfiltered):
            want = embedder(net, vnr, params)
        reads: list[_Reads] = []
        with mock.patch.object(baselines, "_first_fitting", reading):
            got = embedder(net, vnr, params)
        assert got == want  # mapping, paths, metric and inspected count
        _assert_priced_from_its_paths(vnr, got, params)
        if any(r.read < len(r) for r in reads):
            flags.add("stopped early")
    demands = [node.demand for node in vnr.nodes]
    least = [min(column) for column in zip(*((d.cpu_m, d.memory_m, d.gpu_m) for d in demands))]
    frees = (net.cpu_free, net.memory_free, net.gpu_free)
    if any(free[pid] < floor for pid in probed for free, floor in zip(frees, least)):
        flags.add("dropped before a pick")
    return flags


def test_first_fitting_matches_the_unfiltered_chooser():
    counts = Counter()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def check(data):
        # several requests on one network, allocating and releasing between
        # them, so later requests read residuals that earlier ones moved
        net = data.draw(drained_networks())
        ledger = {}
        live: list[int] = []
        for rid in range(data.draw(st.integers(1, 6))):
            vnr = data.draw(requests(request_id=rid, amount=st.sampled_from((0, 5, 10))))
            params = LocalEmbedParams(
                path_hop_limit=data.draw(st.none() | st.integers(0, 3)),
                injective=data.draw(st.booleans()),
            )
            counts.update(_same_first_fits(net, vnr, params))
            _keep(net, ledger, live, vnr, first_fit(net, vnr, params), params)

    check()
    # the filter had work to do: some pick came after a server it dropped,
    # and it read no further than the scans reached
    assert counts["dropped before a pick"] and counts["stopped early"], counts
    # whatever the draws: the empty substrate, and one-node and two-node
    # requests whose picks follow a server below their least cpu demand
    one_node = Vnr(0, [VirtualNode(0, ResourceVector(5, 5, 5))], [], 0.0, 1.0)
    pair = Vnr(
        1,
        [VirtualNode(i, ResourceVector(5, 5, 5)) for i in range(2)],
        [VirtualLink(0, 1, 1.0)],
        0.0,
        1.0,
    )
    loaded = _ring(4, 20.0, 10.0)
    loaded.cpu_free[0] = 4000
    for injective in (False, True):
        params = LocalEmbedParams(injective=injective)
        assert not _same_first_fits(PhysicalNetwork([], []), one_node, params)
        assert _same_first_fits(loaded, one_node, params) == {"dropped before a pick", "stopped early"}
        assert "dropped before a pick" in _same_first_fits(loaded, pair, params)


def _ring(n, cpu, bw):
    nodes = [PhysicalNode(i, ResourceVector(cpu, 50, 50)) for i in range(n)]
    return PhysicalNetwork(nodes, [PhysicalLink(i, (i + 1) % n, bw) for i in range(n)])


def test_grc_orders_match_the_sorted_key_orders_under_exact_ties():
    # a ring of equal servers and a ring of equal virtual nodes rank every
    # node alike, so both orders rest on the id tie-break alone; loading one
    # server breaks the symmetry into mirror-image pairs that tie exactly
    loaded = _ring(8, 50.0, 40.0)
    loaded.cpu_free[3] = 20000
    vnr = Vnr(
        0,
        [VirtualNode(i, ResourceVector(5, 1, 1)) for i in range(4)],
        [VirtualLink(i, (i + 1) % 4, 2.0) for i in range(4)],
    )
    for net in (_ring(8, 50.0, 40.0), loaded):
        net_rank = grc_rank(net)
        vnr_rank = request_ranks([vnr], GrcParams())[1][0]
        assert len(set(net_rank.tolist())) < net.num_nodes  # ties to break
        assert len(set(vnr_rank.tolist())) == 1
        with mock.patch.object(
            baselines, "_greedy_by_choice", wraps=baselines._greedy_by_choice
        ) as greedy, mock.patch.object(
            baselines, "_first_fitting", wraps=baselines._first_fitting
        ) as first_fitting:
            grc_embed(net, vnr)
        assert first_fitting.call_args.args[:2] == (net, vnr)
        phys_order = first_fitting.call_args.args[2]
        virt_order = greedy.call_args.args[4]
        assert phys_order == sorted(range(net.num_nodes), key=lambda p: (-net_rank[p], p))
        assert virt_order == sorted(range(vnr.num_nodes), key=lambda v: (-vnr_rank[v], v))
        assert virt_order == request_ranks([vnr], GrcParams())[0][0]
        assert all(type(pid) is int for pid in phys_order + virt_order)


def _grc_net(cpus, links):
    nodes = [PhysicalNode(i, ResourceVector(cpu, 1, 1)) for i, cpu in enumerate(cpus)]
    return PhysicalNetwork(
        nodes,
        [PhysicalLink(u, v, 30.0) for u, v, _ in links],
        bw_free=[1000 * bw for _, _, bw in links],
    )


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


@st.composite
def sparse_rank_networks(draw, min_nodes=12, max_nodes=48):
    """Rank networks that `_KeptTransition` gathers over: links on a drawn cluster.

    The cluster's ids are drawn, so rows of up to 11 entries sit between rows
    without links, and weights are often zero (drained columns).
    """
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    most = (n * n - 1) // (2 * baselines._SPARSE_K)  # links a gathered transition may hold
    cluster = draw(st.permutations(range(n)))[: draw(st.integers(2, 12))]
    pairs = [pair for pair in combinations(cluster, 2) if draw(st.booleans())][:most]
    cpus = [draw(st.sampled_from((0, 1, 3, 30))) for _ in range(n)]
    return _grc_net(cpus, [(u, v, draw(st.sampled_from((0, 0, 1, 5, 30)))) for u, v in pairs])


def _fresh_rank(net, params, start=None):
    """`_power_rank` over a fresh build of the network's transition, from `start`."""
    kept = baselines._KeptTransition(net)
    baselines._fill(kept.values, kept.pattern, kept.w2)
    weights = np.array(net.cpu_free, dtype=float)
    return baselines._power_rank(weights, kept.matrix, params, start)


def as_request(net, request_id=0):
    """A rank network read as a request: cpu demands and bandwidth demands."""
    return Vnr(
        request_id,
        [VirtualNode(n.id, n.capacity) for n in net.nodes],
        [VirtualLink(l.u, l.v, from_milli(free)) for l, free in zip(net.links, net.bw_free)],
    )


def request_ranks(vnrs, params):
    """`vnr_orders`, its rank row per request id, and the size of each stack it ranked."""
    rows, sizes = {}, []

    def recording(stack, n, params):
        ranks = _stacked_rank(stack, n, params)
        rows.update(zip((vnr.request_id for vnr in stack), ranks))
        sizes.append(len(stack))
        return ranks

    with mock.patch.object(baselines, "_stacked_rank", recording):
        orders = vnr_orders(vnrs, params)
    return orders, rows, sizes


@settings(max_examples=400, deadline=None)
@given(net=rank_networks(), damping=st.sampled_from((0.0, 0.5, 0.85)))
@example(net=_grc_net([30], []), damping=0.85)  # a single node
@example(net=_grc_net([1, 3, 30], []), damping=0.85)  # edgeless
@example(net=_grc_net([0, 0, 0], [(0, 1, 5), (1, 2, 1)]), damping=0.85)  # zero node weights
@example(net=_grc_net([1, 3, 30, 1], [(0, 1, 0), (0, 2, 0), (2, 3, 5)]), damping=0.85)  # drained
@example(net=_grc_net([1, 3, 30, 1], [(1, 3, 0), (0, 1, 5)]), damping=0.85)  # isolated node 2
def test_power_rank_matches_the_loop_built_reference(net, damping):
    params = GrcParams(damping=damping)
    weights = np.array(net.cpu_free, dtype=float)
    edges = [(l.u, l.v, free) for l, free in zip(net.links, net.bw_free)]
    assert grc_rank(net, params).tobytes() == power_rank(weights, edges, params).tobytes()

    # the same graph read as a request
    _, ranks, _ = request_ranks([as_request(net)], params)
    assert ranks[0].tobytes() == power_rank(weights, edges, params).tobytes()


def test_grc_rank_is_reused_only_while_its_inputs_are_unchanged():
    net = _grc_net([1, 3, 30, 1], [(0, 1, 5), (1, 2, 1), (2, 3, 5)])

    def reference(params=GrcParams(), start=None):
        weights = np.array(net.cpu_free, dtype=float)
        edges = [(l.u, l.v, free) for l, free in zip(net.links, net.bw_free)]
        return power_rank(weights, edges, params, start).tobytes()

    failing = GrcParams(tolerance=1e-15, max_iterations=1)
    with mock.patch.object(baselines, "_power_rank", wraps=baselines._power_rank) as ranked:
        first = grc_rank(net)
        assert ranked.call_args.args[3] is None  # a new state starts from c
        assert grc_rank(net) is first and ranked.call_count == 1  # unchanged: not ranked again
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0
        # written in place, not through allocate: each fresh rank starts from
        # the last that settled, read-only and not copied
        net.cpu_free[2] -= 29_000
        rank = grc_rank(net)
        assert rank.tobytes() == reference(start=first) and ranked.call_count == 2
        assert ranked.call_args.args[3] is first
        # a direct bandwidth write builds the state afresh, which starts from c
        net.bw_free[1] = 0
        rank = grc_rank(net)
        assert rank.tobytes() == reference() and ranked.call_count == 3
        other = GrcParams(damping=0.5)
        rank_other = grc_rank(net, other)
        assert rank_other.tobytes() == reference(other, rank) and ranked.call_count == 4
        assert grc_rank(net, other) is rank_other and ranked.call_count == 4
        rank = grc_rank(net)
        assert rank.tobytes() == reference(start=rank_other) and ranked.call_count == 5
        # a rank that fails to settle is not kept: it fails again, and the
        # last good rank still serves
        for _ in range(2):
            with pytest.raises(ConvergenceError):
                grc_rank(net, failing)
            assert ranked.call_args.args[3] is rank
        assert ranked.call_count == 7
        assert grc_rank(net) is rank and ranked.call_count == 7
        net.cpu_free[2] += 29_000
        net.bw_free[1] = 1000
        last = grc_rank(net)
        assert last.tobytes() == first.tobytes() == reference()
        assert ranked.call_count == 8
        # a request that takes no cpu, allocated and released between two
        # ranks: its links moved and moved back, so the last rank serves
        ledger = {}
        vnr = Vnr(0, [VirtualNode(0), VirtualNode(1)], [VirtualLink(0, 1, 1.0)])
        solution = EmbeddingSolution(0, {0: 0, 1: 2}, {0: (0, 1, 2)}, 0.0, 0.0, 0.0)
        allocate(net, vnr, solution, ledger)
        release(net, 0, ledger)
        assert net.bw_moved
        assert grc_rank(net) is last and ranked.call_count == 8
        # allocated, then a rank that fails to settle: the cpu is unchanged,
        # but the bandwidth moved, so the next rank is fresh, and it starts
        # from the last rank that settled, which no longer serves
        allocate(net, vnr, solution, ledger)
        with pytest.raises(ConvergenceError):
            grc_rank(net, failing)
        fresh = grc_rank(net)
        assert fresh.tobytes() == reference(start=last) != last.tobytes()
        assert ranked.call_args.args[3] is last and ranked.call_count == 10
    # a failure before any rank leaves nothing behind either
    net = _grc_net([1, 3, 30], [(0, 1, 5), (1, 2, 1)])
    with pytest.raises(ConvergenceError):
        grc_rank(net, failing)
    assert net.grc_transition.ranked == (None, None, None)
    assert grc_rank(net).tobytes() == reference()


_FAILING = GrcParams(tolerance=1e-15, max_iterations=1)


@st.composite
def rank_steps(draw):
    """A rank network, dense or gathered, and what happens to it between ranks, one step each.

    A step allocates a request whose one virtual link takes a drawn path of
    1-3 hops, releases an allocated request, or writes a drawn residual
    straight into `bw_free` or `cpu_free`; each is followed by a rank under
    drawn params, one of which fails to settle.
    """
    net = draw(st.one_of(rank_networks(), sparse_rank_networks()))
    linked = [j for j in range(net.num_nodes) if net.neighbors(j)]
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(("allocate", "allocate", "release", "write bw", "write cpu")))
        if kind == "allocate" and net.num_links:
            path = [draw(st.sampled_from(linked))]  # a gathered network links few of its nodes
            for _ in range(draw(st.integers(1, 3))):
                ahead = [nb for nb in net.neighbors(path[-1]) if nb not in path]
                if ahead:
                    path.append(draw(st.sampled_from(ahead)))
            if len(path) > 1:
                bw, cpu = draw(st.integers(0, 30)), draw(st.sampled_from((0, 1)))
                steps.append((kind, path, bw, cpu))
        elif kind == "release":
            steps.append((kind, draw(st.integers(0, 11))))
        elif kind == "write bw" and net.num_links:
            steps.append((kind, draw(st.integers(0, net.num_links - 1)), draw(st.integers(0, 30))))
        elif kind == "write cpu":
            pid = draw(st.integers(0, net.num_nodes - 1))
            steps.append((kind, pid, draw(st.sampled_from((0, 1, 3, 30)))))
        params = draw(st.sampled_from((GrcParams(), GrcParams(damping=0.5), _FAILING)))
        steps.append(("rank", params))
    return net, steps


def test_kept_transition_ranks_like_a_fresh_matrix_after_any_writes():
    # grc_rank refills one kept transition from the links that allocate and
    # release record, and builds it afresh when anything else wrote bw_free;
    # every rank of a dense one (a 32-byte aligned matrix) must equal the
    # loop-built reference's bytes, whose matrix numpy places where it likes,
    # and every rank of a gathered one those of a fresh gathered build, each
    # iterated from the last rank that settled on the kept state, or from c
    # on a new one; the last rank serves while no input moved since it settled
    counts = Counter()

    @settings(max_examples=300, deadline=None)
    @given(case=rank_steps())
    def check(case):
        net, steps = case
        gathered = baselines._SPARSE_K * 2 * net.num_links < net.num_nodes**2
        ledger, allocated, request_ids = {}, [], count()
        written, last, drained = False, None, None
        seen = None  # bw_free as the last rank read it
        settled, serves = None, None  # the last settled rank, and the inputs it serves
        for step in steps:
            kind = step[0]
            if kind == "allocate":
                _, path, bw, cpu = step
                ends = (path[0], path[-1])
                hops = [net.adjacency[a][b] for a, b in zip(path, path[1:])]
                bw = min([bw] + [net.bw_free[idx] // 1000 for idx in hops])
                cpu = min(cpu, *(net.cpu_free[pid] // 1000 for pid in ends))
                vnr = Vnr(
                    next(request_ids),
                    [VirtualNode(0, ResourceVector(cpu, 0, 0)), VirtualNode(1, ResourceVector())],
                    [VirtualLink(0, 1, float(bw))],
                )
                solution = EmbeddingSolution(
                    vnr.request_id, {0: ends[0], 1: ends[1]}, {0: tuple(path)}, 0.0, 0.0, 0.0
                )
                allocate(net, vnr, solution, ledger)
                allocated.append(vnr.request_id)
            elif kind == "release" and allocated:
                request_id = allocated.pop(step[1] % len(allocated))
                try:
                    release(net, request_id, ledger)
                except LedgerError:  # a direct write left too little room; nothing was written
                    pass
            elif kind == "write bw":
                _, idx, bw = step
                written |= net.bw_free[idx] != 1000 * bw
                net.bw_free[idx] = 1000 * bw
            elif kind == "write cpu":
                net.cpu_free[step[1]] = 1000 * step[2]
            elif kind == "rank":
                params = step[1]
                weights = np.array(net.cpu_free, dtype=float)
                edges = [(l.u, l.v, free) for l, free in zip(net.links, net.bw_free)]
                kept, moved = net.grc_transition, bool(net.bw_moved)
                new = kept is None or any(
                    net.bw_free[idx] != seen[idx]
                    for idx in range(net.num_links)
                    if idx not in net.bw_moved
                )
                if new:  # nothing serves, and the rank starts from c
                    settled, serves = None, None
                elif net.bw_free != seen:  # a journaled link moved: the rank only starts
                    serves = None
                inputs = (params, list(net.cpu_free))
                seen, served = list(net.bw_free), serves == inputs
                try:
                    if served:
                        want = settled.tobytes()
                    elif gathered:
                        want = _fresh_rank(net, params, settled).tobytes()
                    else:
                        want = power_rank(weights, edges, params, settled).tobytes()
                except ConvergenceError:
                    want = None
                with mock.patch.object(baselines, "_fill", wraps=baselines._fill) as refill:
                    if want is None:
                        with pytest.raises(ConvergenceError):
                            grc_rank(net, params)
                        counts["convergence error"] += 1
                    else:
                        rank = grc_rank(net, params)
                        assert rank.tobytes() == want
                        counts["warm"] += settled is not None and not served
                        settled, serves = rank, inputs
                assert refill.called != served and (net.grc_transition is not kept) == new
                if not refill.called:  # the last rank served
                    continue
                counts["params changed"] += last is not None and params != last
                last = params
                matrix = net.grc_transition.matrix
                assert isinstance(matrix, baselines._Gathered) == gathered
                if not gathered:
                    assert matrix.ctypes.data % 32 == 0
                assert not net.bw_moved
                if kept is not None and net.grc_transition is not kept:
                    assert written  # only a write past allocate and release builds afresh
                    counts["fallback"] += 1
                elif kept is not None:
                    counts["journaled"] += moved
                    counts["gathered journaled"] += moved and gathered
                written = False
                now = [
                    sum(free for l, free in zip(net.links, net.bw_free) if j in (l.u, l.v)) == 0
                    for j in range(net.num_nodes)
                ]
                counts["drained column changed"] += drained is not None and now != drained
                drained = now
        counts["examples"] += 1

    check()
    for what in ("journaled", "fallback", "convergence error", "params changed",
                 "drained column changed", "gathered journaled", "warm"):
        assert counts[what] >= counts["examples"] // 10, counts


# float64 rounding between a gathered rank and the dense one, fixed before any
# run: a step sums a row's at most 48 terms, whose total is at most 1, in
# another order (at most 2 * 48 eps apart), and the iteration damped by at
# most 0.85 carries less than 1 / (1 - 0.85) < 7 steps of it
_ROUNDING = 2**10 * np.finfo(float).eps


def _orders_agree(rank, reference, tolerance):
    """Whether the stable descending orders agree on every two nodes whose reference ranks
    lie more than `tolerance` apart."""
    def places(r):
        place = np.empty(len(r), dtype=np.intp)
        place[np.argsort(-r, kind="stable")] = np.arange(len(r))
        return place

    mine, theirs = places(rank), places(reference)
    apart = abs(reference[:, None] - reference[None, :]) > tolerance
    same = np.sign(mine[:, None] - mine[None, :]) == np.sign(theirs[:, None] - theirs[None, :])
    return bool((same | ~apart).all())


@st.composite
def gathered_rank_cases(draw):
    """A gathered network, params, and batches of journaled bandwidth writes between ranks."""
    net = draw(sparse_rank_networks())
    params = draw(st.sampled_from([GrcParams(damping=d) for d in (0.0, 0.5, 0.85)] + [
        _FAILING, GrcParams(max_iterations=3),  # these never settle, but at damping 0
    ]))
    write = st.tuples(st.integers(0, net.num_links - 1), st.sampled_from((0, 1, 5, 30)))
    batches = draw(st.lists(st.lists(write, min_size=1, max_size=4), max_size=3)) if net.links else []
    return net, params, batches


def test_gathered_rank_matches_the_dense_reference_within_rounding():
    counts = Counter()

    @settings(max_examples=300, deadline=None)
    @given(case=gathered_rank_cases())
    @example(case=(_grc_net([1] * 12, []), GrcParams(), []))  # edgeless: every row lone
    @example(case=(
        _grc_net([0] * 5 + [3] * 9, [(13, 2, 0), (2, 7, 0), (7, 13, 5)]),  # drained, lone
        GrcParams(),
        [[(2, 30)], [(1, 0), (2, 0)]],
    ))
    def check(case):
        net, params, batches = case
        settled, settled_edges = None, None  # the last settled rank, and the links it ranked
        for batch in [[]] + batches:  # a fresh rank, then one after each batch
            for idx, bw in batch:  # written and recorded as allocate and release do
                net.bw_free[idx] = 1000 * bw
                net.bw_moved.add(idx)
            weights = np.array(net.cpu_free, dtype=float)
            edges = [(l.u, l.v, free) for l, free in zip(net.links, net.bw_free)]
            if edges == settled_edges:  # the batch moved nothing: the last rank serves
                assert grc_rank(net, params) is settled
                continue
            try:  # from the gathered rank that settled last, as grc_rank starts
                want = power_rank(weights, edges, params, settled)
            except ConvergenceError:
                with pytest.raises(ConvergenceError):
                    grc_rank(net, params)
                counts["convergence error"] += 1
                settled_edges = None  # the links moved since it settled: it only starts
                continue
            rank = grc_rank(net, params)
            assert isinstance(net.grc_transition.matrix, baselines._Gathered)
            assert abs(rank - want).max() <= _ROUNDING
            assert _orders_agree(rank, want, _ROUNDING)
            counts["warm"] += settled is not None
            settled, settled_edges = rank, edges
            degree = np.bincount([end for l in net.links for end in (l.u, l.v)],
                                 minlength=net.num_nodes)
            counts["lone"] += bool((degree == 0).any())
            counts["rows of 3+"] += bool((degree >= 3).any())
            counts["drained"] += any(
                d and not sum(free for l, free in zip(net.links, net.bw_free) if j in (l.u, l.v))
                for j, d in enumerate(degree)
            )
            counts["bytes differ"] += rank.tobytes() != want.tobytes()
            counts["refilled"] += bool(batch)
        counts["examples"] += 1

    check()
    for what in ("convergence error", "lone", "rows of 3+", "drained", "refilled", "warm"):
        assert counts[what] >= counts["examples"] // 10, counts


@st.composite
def started_rank_cases(draw):
    """A rank network, dense or gathered, params, and a read-only start: a drawn
    probability vector, or the network's rank under drawn params."""
    net = draw(st.one_of(rank_networks(), sparse_rank_networks()))
    params = draw(st.sampled_from((
        GrcParams(), GrcParams(damping=0.5), GrcParams(damping=0.0),
        _FAILING, GrcParams(max_iterations=3),
    )))
    n = net.num_nodes
    if draw(st.booleans()):
        mass = np.array(draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)))
        start = mass / mass.sum() if mass.sum() > 0 else np.full(n, 1.0 / n)
    else:
        other = draw(st.sampled_from((GrcParams(), GrcParams(damping=0.5), GrcParams(damping=0.0))))
        edges = [(l.u, l.v, free) for l, free in zip(net.links, net.bw_free)]
        start = power_rank(np.array(net.cpu_free, dtype=float), edges, other)
    start.flags.writeable = False
    return net, params, start


def test_power_rank_from_a_start_matches_the_reference_from_it():
    # _power_rank iterates from a given start as the loop-built reference does:
    # byte for byte over a dense transition, within float64 rounding over a
    # gathered one, and both fail to settle together
    counts = Counter()

    @settings(max_examples=300, deadline=None)
    @given(case=started_rank_cases())
    def check(case):
        net, params, start = case
        weights = np.array(net.cpu_free, dtype=float)
        edges = [(l.u, l.v, free) for l, free in zip(net.links, net.bw_free)]
        before = start.tobytes()
        gathered = isinstance(baselines._KeptTransition(net).matrix, baselines._Gathered)
        counts["gathered" if gathered else "dense"] += 1
        try:
            want = power_rank(weights, edges, params, start)
        except ConvergenceError:
            with pytest.raises(ConvergenceError):
                _fresh_rank(net, params, start)
            counts["convergence error"] += 1
            return
        rank = _fresh_rank(net, params, start)
        assert start.tobytes() == before
        if gathered:
            assert abs(rank - want).max() <= _ROUNDING
            assert _orders_agree(rank, want, _ROUNDING)
        else:
            assert rank.tobytes() == want.tobytes()
        counts["settled"] += 1

    check()
    for what in ("dense", "gathered", "convergence error", "settled"):
        assert counts[what] >= 300 // 10, counts


def test_warm_started_grc_runs_write_what_cold_started_runs_write():
    # every substrate rank after a network's first starts from the last rank
    # that settled on it; with every rank forced to start from c instead, grc
    # runs on the golden-digest configs and on 120-server substrates the
    # selector gathers over must write the same summary, per-arrival records
    # and series, bit for bit. Each warm rank must lie within what the
    # stopping rule leaves of its cold rank, and params that cannot settle in
    # one step must still fail right after it
    power, counts = baselines._power_rank, Counter()

    def warm(weights, transition, params, start=None):
        rank = power(weights, transition, params, start)
        cold = power(weights, transition, params)
        # each settled iterate lies within d / (1 - d) times its last step's L1
        # length, which is under n * tolerance, of the fixed point
        d = params.damping
        assert abs(rank - cold).max() <= 2 * len(weights) * params.tolerance * d / (1 - d)
        counts["warm" if start is not None else "cold"] += 1
        counts["bytes differ"] += rank.tobytes() != cold.tobytes()
        return rank

    def cold(weights, transition, params, start=None):
        return power(weights, transition, params)

    def then_failing(net, params=None):
        before = counts["warm"]
        rank = grc_rank(net, params)
        with pytest.raises(ConvergenceError):
            grc_rank(net, _FAILING)
        counts["failed after a warm rank"] += counts["warm"] > before
        return rank

    runs = [
        SimConfig.from_dict({**config, "algorithm": "grc", "seed": seed, "duration": DURATION})
        for config in CONFIGS.values()
        for seed in SEEDS
    ]
    sparse = GeneratorConfig(server_count=120, link_probability=0.03)
    runs += [SimConfig(generator=sparse, algorithm="grc", duration=60.0, seed=s) for s in (1, 2, 3)]
    for cfg in runs:
        with mock.patch.object(baselines, "_power_rank", warm):
            with mock.patch.object(baselines, "grc_rank", then_failing):
                warmed = run_simulation(cfg)
        with mock.patch.object(baselines, "_power_rank", cold):
            chilled = run_simulation(cfg)
        for field in ("summary", "per_arrival", "series"):
            assert repr(getattr(warmed, field)) == repr(getattr(chilled, field))
    for what in ("warm", "cold", "bytes differ", "failed after a warm rank"):
        assert counts[what], counts


def test_grc_runs_write_the_same_artifacts_from_either_kernel():
    # grc on a substrate the selector gathers over, and with the dense kernel
    # forced: every summary, per-arrival and series value alike, bit for bit
    gen = GeneratorConfig(server_count=120, link_probability=0.03)
    for seed in (1, 2, 3):
        net = generate_physical_network(gen, stream(seed, "topology"))
        assert isinstance(baselines._KeptTransition(net).matrix, baselines._Gathered)
        cfg = SimConfig(generator=gen, algorithm="grc", duration=60.0, seed=seed)
        gathered = run_simulation(cfg)
        with mock.patch.object(baselines, "_SPARSE_K", math.inf):
            dense = run_simulation(cfg)
        for field in ("summary", "per_arrival", "series"):
            assert repr(getattr(gathered, field)) == repr(getattr(dense, field))
    # the generator defaults (100 servers, p=0.4) keep the dense kernel
    net = generate_physical_network(GeneratorConfig(), stream(1, "topology"))
    assert isinstance(baselines._KeptTransition(net).matrix, np.ndarray)


def test_grc_runs_rank_afresh_exactly_when_the_ranked_inputs_changed():
    # the kept state's rule against a memo of the last settled rank's inputs,
    # compared by content: in grc runs on the golden-digest configs,
    # _power_rank runs exactly when params, cpu_free or bw_free moved
    counts = Counter()
    for config in CONFIGS.values():
        for seed in SEEDS:
            run = {**config, "algorithm": "grc", "seed": seed, "duration": DURATION}
            cfg = SimConfig.from_dict(run)
            last = None  # (params, cpu_free, bw_free) of the last settled rank

            def recording(net, params=None):
                nonlocal last
                inputs = (params or GrcParams(), list(net.cpu_free), list(net.bw_free))
                fresh, before = inputs != last, power.call_count
                rank = grc_rank(net, params)
                assert (power.call_count > before) == fresh
                counts["fresh" if fresh else "reused"] += 1
                last = inputs
                return rank

            with mock.patch.object(baselines, "_power_rank", wraps=baselines._power_rank) as power:
                with mock.patch.object(baselines, "grc_rank", recording):
                    run_simulation(cfg)
    assert counts["fresh"] and counts["reused"], counts


def _reference(vnr):
    """The oracle's inputs for a request: cpu weights and (u, v, bandwidth) edges."""
    weights = np.array([node.demand.cpu_m for node in vnr.nodes], dtype=float)
    return weights, [(l.u, l.v, l.bw_demand_m) for l in vnr.links]


def _settle_step(vnr, params):
    """The fewest iterations the reference needs, by bisection on the cap."""
    weights, edges = _reference(vnr)
    lo, hi = 0, params.max_iterations  # the reference raises at lo and settles at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            power_rank(weights, edges, replace(params, max_iterations=mid))
            hi = mid
        except ConvergenceError:
            lo = mid
    return hi


@st.composite
def rank_requests(draw):
    """Stacks of requests of mixed sizes, several of a size."""
    nets = draw(st.lists(rank_networks(max_nodes=5), min_size=1, max_size=12))
    return [as_request(net, k) for k, net in enumerate(nets)]


_MIXED = [  # a single node, edgeless, zero cpu weights, a drained column, twice each size
    as_request(_grc_net(cpus, links), k)
    for k, (cpus, links) in enumerate(2 * [
        ([30], []),
        ([1, 3, 30], []),
        ([0, 0, 0], [(0, 1, 5), (1, 2, 1)]),
        ([1, 3, 30, 1], [(0, 1, 0), (0, 2, 0), (2, 3, 5)]),
    ])
]


def test_stacked_ranks_match_the_loop_built_reference():
    counts = Counter()

    @settings(max_examples=200, deadline=None)
    @given(
        vnrs=rank_requests(),
        damping=st.sampled_from((0.0, 0.5, 0.85)),
        chunk=st.integers(1, 3),
    )
    @example(vnrs=_MIXED, damping=0.85, chunk=1)
    def check(vnrs, damping, chunk):
        params = GrcParams(damping=damping)
        orders, ranks, sizes = request_ranks(vnrs, params)
        # one stack per request size
        assert sorted(sizes) == sorted(Counter(vnr.num_nodes for vnr in vnrs).values())
        for vnr in vnrs:
            rank = ranks[vnr.request_id]
            assert rank.tobytes() == power_rank(*_reference(vnr), params).tobytes()
            want = sorted(range(vnr.num_nodes), key=lambda j: (-rank[j], j))
            assert orders[vnr.request_id] == want
        for n in {vnr.num_nodes for vnr in vnrs}:
            group = [vnr for vnr in vnrs if vnr.num_nodes == n]
            # chunks of `chunk` requests: the same bytes as one stack
            with mock.patch.object(baselines, "_STACK_ENTRIES", chunk * n * n):
                chunked_orders, chunked, sizes = request_ranks(group, params)
            assert sizes == [min(chunk, len(group) - i) for i in range(0, len(group), chunk)]
            for vnr in group:
                assert chunked[vnr.request_id].tobytes() == ranks[vnr.request_id].tobytes()
                assert chunked_orders[vnr.request_id] == orders[vnr.request_id]
            if not counts["settled apart"] and len(group) > 1:
                counts["settled apart"] += len({_settle_step(vnr, params) for vnr in group}) > 1

    check()
    # some stack had requests leave it at different steps
    assert counts["settled apart"], counts


def test_stacked_rank_iteration_cap_raises():
    vnrs = [as_request(_grc_net([1, 3, 30], [(0, 1, 5), (1, 2, 1)]), k) for k in range(3)]
    with pytest.raises(ConvergenceError):
        vnr_orders(vnrs, GrcParams(tolerance=1e-15, max_iterations=1))


def _facts(build, facts):
    """facts(build()), or the message of the GenerationError that build raised."""
    try:
        return facts(build())
    except GenerationError as exc:
        return f"GenerationError: {exc}"


def _substrate_facts(net):
    nodes = [(n.capacity.cpu_m, n.capacity.memory_m, n.capacity.gpu_m) for n in net.nodes]
    return nodes, [(l.u, l.v, l.bw_capacity_m) for l in net.links]


def _workload_facts(workload):
    return [(when, vnr.fingerprint(), primary) for when, vnr, primary in workload]


@st.composite
def generator_configs(draw):
    """Defaults, and distributions that put a third to a half of draws below their floor."""
    return GeneratorConfig(
        server_count=draw(st.integers(1, 30)),
        link_probability=draw(st.sampled_from((0.1, 0.4, 1.0))),
        cpu_capacity=draw(st.sampled_from(((100.0, 400.0), (0.2, 1.0)))),
        vnr_size=draw(st.sampled_from(((1, 1), (1, 4), (4, 10)))),
        vnr_link_probability=draw(st.sampled_from((0.3, 0.7))),
        cpu_demand=draw(st.sampled_from(((10.0, 4.0), (0.2, 1.0)))),
        lifetime=draw(st.sampled_from(((100.0, 900.0), (1.0, 100.0)))),
        second_parameter=draw(st.sampled_from(("variance", "std"))),
        arrival_rate=draw(st.sampled_from((0.5, 2.0))),
        arrival_process=draw(st.sampled_from(("poisson", "uniform"))),
        max_attempts=20,
    )


@settings(max_examples=150, deadline=None)
@given(cfg=generator_configs(), seed=st.integers(0, 2**32))
def test_generator_matches_the_per_value_reference(cfg, seed):
    fast_rng, slow_rng = stream(seed, "topology"), stream(seed, "topology")
    fast = _facts(lambda: generate_physical_network(cfg, fast_rng), _substrate_facts)
    slow = _facts(lambda: oracles.generate_physical_network(cfg, slow_rng), _substrate_facts)
    assert fast == slow
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state

    fast_rng, slow_rng = stream(seed, "vnr"), stream(seed, "vnr")
    for request_id in range(5):
        fast = _facts(lambda: generate_vnr(cfg, request_id, 0.0, fast_rng), Vnr.fingerprint)
        slow = _facts(lambda: oracles.generate_vnr(cfg, request_id, 0.0, slow_rng), Vnr.fingerprint)
        assert fast == slow
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state

    fast = _facts(lambda: simulation.build_workload(cfg, 15.0, seed), _workload_facts)
    with mock.patch.object(simulation, "generate_vnr", oracles.generate_vnr):
        slow = _facts(lambda: simulation.build_workload(cfg, 15.0, seed), _workload_facts)
    assert fast == slow


def test_a_hopeless_floor_fails_alike_on_both_generators():
    substrate_cfg = GeneratorConfig(server_count=4, cpu_capacity=(0.0, 0.0))
    request_cfg = GeneratorConfig(lifetime=(0.0, 1e-12))
    # fails on the first link, after all 3 x size node values cleared their floor
    link_cfg = GeneratorConfig(bandwidth_demand=(0.0, 1e-12))
    cases = (
        ("topology", lambda gen, rng: gen.generate_physical_network(substrate_cfg, rng)),
        ("vnr", lambda gen, rng: gen.generate_vnr(request_cfg, 0, 0.0, rng)),
        ("vnr", lambda gen, rng: gen.generate_vnr(link_cfg, 0, 0.0, rng)),
    )
    for name, generate in cases:
        outcomes = []
        for gen in (generator, oracles):
            rng = stream(7, name)
            message = _facts(lambda: generate(gen, rng), repr)
            outcomes.append((message, rng.bit_generator.state))
        assert outcomes[0][0].startswith("GenerationError: could not draw a value >=")
        assert outcomes[0] == outcomes[1]

    # about 90% of cpu draws miss the floor, so each request takes several batches
    missing_cfg = GeneratorConfig(cpu_demand=(-1.18, 1.0))
    fast_rng, slow_rng = stream(7, "vnr"), stream(7, "vnr")
    for request_id in range(20):
        fast = _facts(lambda: generate_vnr(missing_cfg, request_id, 0.0, fast_rng), Vnr.fingerprint)
        slow = _facts(lambda: oracles.generate_vnr(missing_cfg, request_id, 0.0, slow_rng), Vnr.fingerprint)
        assert fast == slow
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(
    dists=st.lists(st.tuples(st.floats(-5.0, 50.0), st.floats(0.0, 25.0)), min_size=1, max_size=3),
    count=st.integers(0, 30),
    floor=st.sampled_from((0.1, 5.0)),
    seed=st.integers(0, 2**32),
)
@example(dists=[(1.0, 0.0)], count=3, floor=5.0, seed=0)  # hopeless at once
@example(dists=[(10.0, 4.0), (0.0, 0.0)], count=2, floor=0.1, seed=0)  # hopeless on the 2nd value
def test_batched_normals_are_the_per_value_draws_bit_for_bit(dists, count, floor, seed):
    # mean + std * z in Python must equal numpy's scalar normal in every bit
    cfg = GeneratorConfig()
    fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    fast = _facts(lambda: generator._draw_positives(fast_rng, cfg, [(dists, count, floor)]), list)
    slow = _facts(
        lambda: [oracles.draw_positive(slow_rng, d, cfg, floor) for _ in range(count) for d in dists],
        list,
    )
    assert fast == slow
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(cfg=generator_configs(), seed=st.integers(0, 2**32))
@example(cfg=GeneratorConfig(server_count=1), seed=3)
@example(cfg=GeneratorConfig(server_count=1, arrival_process="uniform"), seed=3)
def test_workload_draws_the_scalar_primaries(cfg, seed):
    fast = _facts(lambda: simulation.build_workload(cfg, 15.0, seed), _workload_facts)
    slow = _facts(lambda: oracles.build_workload(cfg, 15.0, seed), _workload_facts)
    assert fast == slow


def test_request_memo_matches_a_fresh_computation():
    counts = Counter()

    @settings(max_examples=60, deadline=None)
    @given(cfg=generator_configs(), seed=st.integers(0, 2**32), tied=requests(max_nodes=6))
    def check(cfg, seed, tied):
        # small whole amounts: demand weights often tie, and ties go by id
        assert local_embed._demands(tied) == oracles.demand_memo(tied)
        try:
            net = generate_physical_network(cfg, stream(seed, "topology"))
            rng = stream(seed, "vnr")
            vnrs = [generate_vnr(cfg, request_id, 0.0, rng) for request_id in range(3)]
        except GenerationError:
            assume(False)
        for vnr in vnrs:
            assert vnr.demand_order_memo is None  # built on first use, not with the request
            memo = local_embed._demands(vnr)
            assert memo == oracles.demand_memo(vnr)
            assert vnr.demand_order_memo is memo and local_embed._demands(vnr) is memo
            # what demand_order returns is the caller's to change
            order = demand_order(vnr)
            order.reverse()
            order.append(vnr.num_nodes)
            assert demand_order(vnr) == list(memo[0])
            assert vnr.demand_order_memo == oracles.demand_memo(vnr)
            # embeds from different roots read the memo the first one built, and
            # each equals the plain loop on a twin request that has built none
            for root in range(min(5, net.num_nodes)):
                twin = Vnr(vnr.request_id, vnr.nodes, vnr.links, vnr.arrival_time, vnr.lifetime)
                params = LocalEmbedParams(beta=2)
                outcome = embed(root, net, vnr, params)
                assert outcome == plain_greedy_embed(root, net, twin, params)
                counts["embeds"] += 1
                counts["feasible"] += outcome.feasible
            assert vnr.demand_order_memo is memo

    check()
    assert counts["feasible"] >= counts["embeds"] // 4, counts
    assert counts["feasible"] < counts["embeds"], counts


@st.composite
def edge_lists(draw):
    """(n, edges) on up to 80 nodes: a random spanning tree, some of its edges
    cut, extra random edges, and some nodes stripped of every edge."""
    n = draw(st.integers(0, 80))
    if n < 2:
        return n, []
    node = st.integers(0, n - 1)
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    for k in sorted(draw(st.sets(st.integers(0, n - 2), max_size=3)), reverse=True):
        del edges[k]
    edges += draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=20))
    isolated = draw(st.sets(node, max_size=2))
    return n, [(u, v) for u, v in edges if u not in isolated and v not in isolated]


@settings(max_examples=300, deadline=None)
@given(graph=edge_lists())
@example(graph=(0, []))
@example(graph=(1, []))
@example(graph=(2, []))
@example(graph=(70, [(v - 1, v) for v in range(1, 69)]))  # node 69 isolated
@example(graph=(70, [(v, v + 1) for v in range(69)]))
def test_bitmask_connectivity_matches_the_search_reference(graph):
    n, edges = graph
    adjacency = [set() for _ in range(n)]
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    assert generator._spans(n, edges) == oracles.connected(n, adjacency)
