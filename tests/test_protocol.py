import json
import math
from collections import Counter
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devine import (
    INFEASIBLE,
    ElectionParams,
    EmbeddingSolution,
    GeneratorConfig,
    LeaderRing,
    LocalEmbedOutcome,
    LocalEmbedParams,
    PhysicalLink,
    PhysicalNetwork,
    PhysicalNode,
    ProtocolError,
    ResourceVector,
    VirtualLink,
    VirtualNode,
    Vnr,
    embed,
    generate_physical_network,
    generate_vnr,
    local_embed,
    protocol,
    run_election,
    select_leaders,
    stream,
)
from devine.local_embed import _key
from oracles import copy_network, message_election, residual_snapshot
from test_fast_paths import requests, seeded_networks


def _line_net(n=5, cpu=100.0, bw=100.0):
    nodes = [PhysicalNode(i, ResourceVector(cpu, cpu, cpu)) for i in range(n)]
    links = [PhysicalLink(i, i + 1, bw) for i in range(n - 1)]
    return PhysicalNetwork(nodes, links)


def _one_node_vnr(request_id=0):
    return Vnr(request_id, [VirtualNode(0, ResourceVector(1.0, 1.0, 1.0))], [], 0.0, 10.0)


def _stub_embedder(metrics, vnr, calls):
    """Embedder whose metric per node is scripted; solutions map onto the leader."""
    def make(nid):
        calls[nid] = calls.get(nid, 0) + 1
        metric = metrics[nid]
        if metric == INFEASIBLE:
            return LocalEmbedOutcome(False, None, 1, 0)
        solution = EmbeddingSolution(vnr.request_id, {0: nid}, {}, 1.0, 1.0, metric)
        return LocalEmbedOutcome(True, solution, 1, 0)
    return make


def test_ring_structure():
    ring = LeaderRing((3, 0, 4))
    assert ring.primary == 3
    with pytest.raises(ValueError):
        LeaderRing(())
    with pytest.raises(ValueError):
        LeaderRing((1, 1))


def test_select_leaders_shape_and_determinism():
    net = _line_net(10)
    ring_a = select_leaders(net, 4, 5, np.random.default_rng(3))
    ring_b = select_leaders(net, 4, 5, np.random.default_rng(3))
    assert ring_a == ring_b
    assert ring_a.primary == 4
    assert len(set(ring_a.members)) == 5
    full = select_leaders(net, 0, 10, np.random.default_rng(0))
    assert sorted(full.members) == list(range(10))
    assert select_leaders(net, 2, 1, np.random.default_rng(0)).members == (2,)
    with pytest.raises(ValueError):
        select_leaders(net, 10, 3, np.random.default_rng(0))
    with pytest.raises(ValueError):
        select_leaders(net, 0, 11, np.random.default_rng(0))
    with pytest.raises(ValueError):
        select_leaders(net, 0, 0, np.random.default_rng(0))


def _scripted_election(members, metrics):
    vnr = _one_node_vnr()
    ring = LeaderRing(members)
    return run_election(
        _line_net(max(members) + 1), vnr, ring.primary,
        ElectionParams(leaders=len(members)),
        ring=ring,
        embedder=_stub_embedder(metrics, vnr, {}),
    )


def _hops(result):
    return [(e.kind, e.sender, e.receiver, e.subject, e.metric) for e in result.trace.events]


def test_two_leader_election_breaks_equal_metrics_toward_the_low_id():
    # equal metric from the higher-id primary: node 1 takes over and wins
    result = _scripted_election((3, 1), {3: 9.0, 1: 9.0})
    assert result.winner == 1
    assert _hops(result) == [
        ("EMBEDDING", 3, 1, 3, 9.0),
        ("EMBEDDING", 1, 3, 1, 9.0),
        ("EMBEDDING", 3, 1, 1, 9.0),
        ("EMBEDDED", 1, 3, 1, 9.0),
        ("EMBEDDED", 3, 1, 1, 9.0),
    ]
    # equal metric from the lower-id primary travels on and comes home
    result = _scripted_election((1, 3), {1: 9.0, 3: 9.0})
    assert result.winner == 1
    assert [hop[3] for hop in _hops(result)] == [1, 1, 1, 1]
    assert result.trace.embedding_count == 2
    # a higher metric beats a lower id
    result = _scripted_election((1, 3), {1: 9.0, 3: 9.5})
    assert result.winner == 3
    assert [hop[3] for hop in _hops(result)] == [1, 3, 3, 3, 3]


def test_three_leader_election_forwards_and_takes_over():
    # a dominant proposal is forwarded unchanged all the way home
    result = _scripted_election((3, 1, 2), {3: 7.0, 1: 5.0, 2: 6.0})
    assert result.winner == 3
    assert _hops(result) == [
        ("EMBEDDING", 3, 1, 3, 7.0),
        ("EMBEDDING", 1, 2, 3, 7.0),
        ("EMBEDDING", 2, 3, 3, 7.0),
        ("EMBEDDED", 3, 1, 3, 7.0),
        ("EMBEDDED", 1, 2, 3, 7.0),
        ("EMBEDDED", 2, 3, 3, 7.0),
    ]
    # a weaker one is overwritten: node 1 takes over, node 2 forwards
    result = _scripted_election((3, 1, 2), {3: 4.0, 1: 5.0, 2: 4.5})
    assert result.winner == 1
    assert _hops(result) == [
        ("EMBEDDING", 3, 1, 3, 4.0),
        ("EMBEDDING", 1, 2, 1, 5.0),
        ("EMBEDDING", 2, 3, 1, 5.0),
        ("EMBEDDING", 3, 1, 1, 5.0),
        ("EMBEDDED", 1, 2, 1, 5.0),
        ("EMBEDDED", 2, 3, 1, 5.0),
        ("EMBEDDED", 3, 1, 1, 5.0),
    ]


def test_five_leader_election_hand_traced():
    # scripted metrics 3, 9, 1, 9, 2: nodes 1 and 3 tie and node 1 must win
    net = _line_net(5)
    vnr = _one_node_vnr()
    ring = LeaderRing((0, 1, 2, 3, 4))
    calls: dict[int, int] = {}
    metrics = {0: 3.0, 1: 9.0, 2: 1.0, 3: 9.0, 4: 2.0}
    before = residual_snapshot(net)
    result = run_election(
        net, vnr, 0,
        ElectionParams(leaders=5),
        ring=ring,
        embedder=_stub_embedder(metrics, vnr, calls),
    )
    assert result.outcome.feasible
    assert result.winner == 1
    assert result.outcome.solution.node_mapping == {0: 1}
    assert result.trace.embedding_count == 6
    assert result.trace.embedded_count == 5
    kinds = [e.kind for e in result.trace.events]
    assert kinds == ["EMBEDDING"] * 6 + ["EMBEDDED"] * 5
    receivers = [e.receiver for e in result.trace.events]
    assert receivers == [1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1]
    subjects = [e.subject for e in result.trace.events]
    assert subjects == [0] + [1] * 10  # node 1 takes over on first contact
    assert calls == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}  # each leader embeds once
    assert residual_snapshot(net) == before  # the election picks; the caller allocates


def test_ascending_metrics_hit_the_message_ceiling():
    # metric grows along the ring, so every leader takes over: 2L-1 proposals
    net = _line_net(5)
    vnr = _one_node_vnr()
    ring = LeaderRing((0, 1, 2, 3, 4))
    metrics = {nid: float(nid) for nid in range(5)}
    result = run_election(
        net, vnr, 0,
        ElectionParams(leaders=5),
        ring=ring,
        embedder=_stub_embedder(metrics, vnr, {}),
    )
    assert result.winner == 4
    assert result.trace.embedding_count == 9  # 2 * 5 - 1
    assert result.trace.embedded_count == 5


def test_all_infeasible_election_terminates_with_reject():
    net = _line_net(5)
    before = residual_snapshot(net)
    vnr = _one_node_vnr()
    ring = LeaderRing((0, 1, 2, 3, 4))
    metrics = {nid: INFEASIBLE for nid in range(5)}
    result = run_election(
        net, vnr, 0,
        ElectionParams(leaders=5),
        ring=ring,
        embedder=_stub_embedder(metrics, vnr, {}),
    )
    assert not result.outcome.feasible
    assert result.outcome.solution is None
    assert result.winner == 0  # equal sentinel metrics resolve to the lowest id
    assert result.trace.embedding_count == 5  # one clean circle, no takeovers
    assert result.trace.embedded_count == 5
    assert residual_snapshot(net) == before


def test_equal_metrics_elect_lowest_id_regardless_of_primary():
    net = _line_net(3)
    vnr = _one_node_vnr()
    ring = LeaderRing((2, 0, 1))
    result = run_election(
        net, vnr, 2,
        ElectionParams(leaders=3),
        ring=ring,
        embedder=_stub_embedder({0: 5.0, 1: 5.0, 2: 5.0}, vnr, {}),
    )
    assert result.winner == 0
    assert result.trace.embedding_count == 4
    assert result.trace.embedded_count == 3


def test_single_leader_short_circuits_without_messages():
    net = _line_net(3)
    vnr = _one_node_vnr()
    calls: dict[int, int] = {}
    result = run_election(
        net, vnr, 1,
        ElectionParams(leaders=1),
        ring=LeaderRing((1,)),
        embedder=_stub_embedder({1: 4.0}, vnr, calls),
    )
    assert result.outcome.feasible
    assert result.winner == 1
    assert result.trace.embedding_count == 0
    assert result.trace.embedded_count == 0
    assert calls == {1: 1}


def test_election_requires_ring_or_rng_and_consistent_primary():
    net = _line_net(3)
    vnr = _one_node_vnr()
    with pytest.raises(ValueError):
        run_election(net, vnr, 0, ElectionParams(leaders=2))
    with pytest.raises(ProtocolError):
        run_election(net, vnr, 0, ElectionParams(leaders=2), ring=LeaderRing((1, 0)))
    with pytest.raises(ValueError):
        ElectionParams(leaders=0).validate()
    for bad in ({"alpha": math.inf}, {"x": math.nan}, {"y": -math.inf}):
        with pytest.raises(ValueError, match="finite"):
            ElectionParams(**bad).validate()


def test_trace_serializes_to_jsonl_with_null_for_infeasible():
    net = _line_net(2)
    vnr = _one_node_vnr()
    result = run_election(
        net, vnr, 0,
        ElectionParams(leaders=2),
        ring=LeaderRing((0, 1)),
        embedder=_stub_embedder({0: INFEASIBLE, 1: INFEASIBLE}, vnr, {}),
    )
    lines = result.trace.to_jsonl().splitlines()
    assert len(lines) == len(result.trace.events)
    first = json.loads(lines[0])
    assert first["kind"] == "EMBEDDING"
    assert first["metric"] is None
    assert [json.loads(line)["seq"] for line in lines] == list(range(len(lines)))


@st.composite
def scripted_elections(draw):
    """Rings of 1-12 distinct leaders with metrics from a small, tie-heavy set.

    NaN stands for a metric whose x * revenue - y * cost overflowed.  One ring
    in five has no feasible leader at all.
    """
    members = draw(st.lists(st.integers(0, 30), min_size=1, max_size=12, unique=True))
    metric = st.sampled_from((INFEASIBLE, math.nan, 0.0, 1.0, 2.5, 7.0))
    if draw(st.integers(0, 4)) == 0:
        metric = st.just(INFEASIBLE)
    return LeaderRing(tuple(members)), {nid: draw(metric) for nid in members}


@settings(max_examples=500, deadline=None)
@given(election=scripted_elections())
def test_election_elects_the_best_proposal_within_the_ring_bound(election):
    ring, metrics = election
    members = ring.members
    size = len(members)
    vnr = _one_node_vnr()
    calls: dict[int, int] = {}
    result = run_election(
        _line_net(31), vnr, ring.primary,
        ElectionParams(leaders=size),
        ring=ring,
        embedder=_stub_embedder(metrics, vnr, calls),
    )
    # a NaN metric ranks as infeasible
    rank = {nid: INFEASIBLE if math.isnan(m) else m for nid, m in metrics.items()}
    winner = max(members, key=lambda nid: (rank[nid], -nid))
    assert result.winner == winner
    assert repr(result.outcome.metric()) == repr(metrics[winner])  # NaN included
    assert calls == {nid: 1 for nid in members}
    events = result.trace.events
    if size == 1:
        assert events == []
        return
    assert result.trace.embedding_count == members.index(winner) + size
    assert result.trace.embedded_count == size
    kinds = [e.kind for e in events]
    assert kinds == ["EMBEDDING"] * result.trace.embedding_count + ["EMBEDDED"] * size
    # hop by hop, the proposal is the best over the ring prefix it has passed,
    # and the winner's once the first circle is done
    for i, event in enumerate(events[:result.trace.embedding_count]):
        passed = members[:min(i + 1, size)]
        assert event.subject == max(passed, key=lambda nid: (rank[nid], -nid))
    assert {e.subject for e in events if e.kind == "EMBEDDED"} == {winner}
    assert [e.receiver for e in events] == [
        members[(i + 1) % size] for i in range(len(events))
    ]
    assert [e.seq for e in events] == list(range(len(events)))


def test_real_elections_pick_the_best_local_embedding():
    # the winning key must equal the best (metric, -id) over every leader's
    # own-view embedding computed independently on a frozen copy, and the
    # trace must be the one the message-passing ring delivers
    cfg = GeneratorConfig(server_count=12, link_probability=0.4, vnr_size=(2, 4))
    for leaders in (2, 4, 12):
        params = ElectionParams(leaders=leaders, alpha=5.0, beta=2)
        for seed in range(10):
            net = generate_physical_network(cfg, stream(seed, "topology"))
            vnr = generate_vnr(cfg, 0, 0.0, stream(seed, "vnr"))
            rng = stream(seed, "leaders")
            primary = int(stream(seed, "primaries").integers(0, 12))
            frozen = copy_network(net)
            result = run_election(net, vnr, primary, params, rng=rng)
            outcomes = {nid: embed(nid, frozen, vnr, params) for nid in result.trace.members}
            expected = max((outcome.metric(), -nid) for nid, outcome in outcomes.items())
            assert (result.outcome.metric(), -result.winner) == expected
            assert result.trace.embedding_count <= 2 * leaders - 1
            assert result.trace.embedded_count == leaders
            winner, outcome, trace = message_election(
                LeaderRing(result.trace.members), outcomes, vnr.request_id
            )
            assert (result.winner, result.outcome) == (winner, outcome)
            assert result.trace.embedding_count == trace.embedding_count
            assert result.trace.embedded_count == trace.embedded_count
            assert result.trace.to_jsonl() == trace.to_jsonl()


@settings(max_examples=500, deadline=None)
@given(election=scripted_elections())
def test_one_pass_election_matches_the_message_passing_ring(election):
    ring, metrics = election
    vnr = _one_node_vnr(request_id=7)
    make = _stub_embedder(metrics, vnr, {})
    outcomes = {nid: make(nid) for nid in ring.members}
    result = run_election(
        _line_net(31), vnr, ring.primary,
        ElectionParams(leaders=len(ring.members)),
        ring=ring,
        embedder=outcomes.__getitem__,
    )
    winner, outcome, trace = message_election(ring, outcomes, vnr.request_id)
    assert result.winner == winner
    assert result.outcome is outcome
    assert result.trace.embedding_count == trace.embedding_count
    assert result.trace.embedded_count == trace.embedded_count
    # field by field, through repr so that a NaN metric compares equal to itself
    fields = [repr(asdict(e)) for e in result.trace.events]
    assert fields == [repr(asdict(e)) for e in trace.events]


@st.composite
def bounded_cases(draw):
    """A substrate with 0-30 units of each resource per server, a request and its params.

    x and y are drawn from {0, 1, 1e308} and {-1, 0, 1, 1e308}, half of them
    1, so negative y, zero weights and overflowing (infinite or NaN) metrics
    all occur.  One request in six asks more cpu than any server has, so
    every leader fails.
    """
    topology, rng = draw(seeded_networks(nodes=(12, 40), density=(0.05, 0.3)))
    net = PhysicalNetwork(
        [
            PhysicalNode(i, ResourceVector(*(rng.randint(0, 30) for _ in range(3))))
            for i in range(topology.num_nodes)
        ],
        [PhysicalLink(link.u, link.v, 30.0) for link in topology.links],
        bw_free=topology.bw_free,
    )
    vnr = draw(requests(max_nodes=5, amount=st.integers(0, 12)))
    if rng.random() < 1 / 6:
        vnr.nodes[0] = VirtualNode(0, ResourceVector(31, 0, 0))
    params = ElectionParams(
        leaders=draw(st.integers(1, 12)),
        alpha=draw(st.sampled_from([0.5, 2.0, 30.0])),
        beta=draw(st.integers(0, 3)),
        x=draw(st.just(1.0) | st.sampled_from([0.0, 1e308])),
        y=draw(st.just(1.0) | st.sampled_from([-1.0, 0.0, 1e308])),
        path_hop_limit=draw(st.none() | st.integers(1, 6)),
        injective=draw(st.booleans()),
    )
    return net, vnr, params, rng


def _outcome_bits(outcome):
    return outcome.metric().hex(), outcome.inspected_count, outcome.max_depth_reached


def test_bounded_elections_match_the_unbounded_ring():
    # every leader embeds with the best key of the leaders before it as its
    # floor; the reference embeds every leader unbounded on a frozen copy and
    # runs the message-passing ring over those outcomes
    counts = Counter()

    @settings(max_examples=500, deadline=None)
    @given(case=bounded_cases())
    def check(case):
        net, vnr, params, rng = case
        ring = LeaderRing(tuple(rng.sample(range(net.num_nodes), params.leaders)))
        frozen = copy_network(net)
        unbounded = {nid: embed(nid, frozen, vnr, params) for nid in ring.members}
        floors, bounded = [], {}

        def spy(root, *args, floor=None):
            floors.append(floor)
            bounded[root] = embed(root, *args, floor=floor)
            return bounded[root]

        with mock.patch.object(protocol, "embed", spy):
            result = run_election(net, vnr, ring.primary, params, ring=ring)
        winner, outcome, trace = message_election(ring, unbounded, vnr.request_id)
        assert result.winner == winner
        assert result.outcome == outcome
        assert _outcome_bits(result.outcome) == _outcome_bits(outcome)
        assert result.trace.to_jsonl() == trace.to_jsonl()
        # the floor is the ring-order best so far, and the first leader has none
        keys = [_key(nid, bounded[nid].metric()) for nid in ring.members]
        assert floors == [None] + [max(keys[:pos]) for pos in range(1, len(keys))]
        # with y < 0, or behind leaders that all failed, nothing is cut
        for nid, floor in zip(ring.members, floors):
            if params.y < 0 or floor is None or floor[0] == INFEASIBLE:
                assert bounded[nid] == unbounded[nid]
        counts["examples"] += 1
        counts["cut"] += any(bounded[nid] != unbounded[nid] for nid in ring.members)
        counts["negative y"] += params.y < 0
        counts["all fail"] += not any(o.feasible for o in unbounded.values())

    check()
    assert counts["cut"] >= counts["examples"] // 20, counts
    assert counts["negative y"] >= counts["examples"] // 20, counts
    assert counts["all fail"], counts


def test_a_floor_cuts_only_a_leader_that_cannot_beat_it():
    counts = Counter()

    @settings(max_examples=500, deadline=None)
    @given(case=bounded_cases(), data=st.data())
    def check(case, data):
        net, vnr, params, rng = case
        root = rng.randrange(net.num_nodes)
        unbounded = embed(root, net, vnr, params)
        # floors at the leader's own metric, just around it, and anywhere else
        metric = unbounded.metric()
        near = [metric, metric - 1.0, metric + 1.0] if math.isfinite(metric) else [0.0]
        floor = (
            data.draw(st.sampled_from(near) | st.sampled_from([INFEASIBLE, 0.0, 50.0, -1e308])),
            -data.draw(st.sampled_from([root, root - 1, root + 1, rng.randrange(net.num_nodes)])),
        )
        bounded = embed(root, net, vnr, params, floor=floor)
        # kept, or with y < 0 or behind leaders that all failed: nothing is cut
        if bounded.feasible or params.y < 0 or floor[0] == INFEASIBLE:
            assert bounded == unbounded
        elif unbounded.feasible:
            assert _key(root, metric) < floor
            counts["cut"] += 1
        counts["feasible"] += unbounded.feasible

    check()
    assert counts["cut"] >= counts["feasible"] // 20, counts


def test_a_floor_prices_committed_routes_not_a_rolled_back_detour():
    # v0 and v1 fill root 0.  v2 first tries server 1: its 10-unit link to v0
    # detours over 0-3-1 (20 units of bandwidth x hops), then its link to v1
    # finds no path and both roll back.  On server 2 both links go direct, so
    # the committed cost ends at 11 units, below what the detour had reserved.
    net = PhysicalNetwork(
        [PhysicalNode(i, ResourceVector(cpu, 0, 0)) for i, cpu in enumerate((10, 20, 20, 0))],
        [PhysicalLink(0, 1, 10.0), PhysicalLink(0, 2, 11.0), PhysicalLink(0, 3, 10.0),
         PhysicalLink(1, 3, 10.0)],
        bw_free=[0, 11_000, 10_000, 10_000],
    )
    vnr = Vnr(
        0,
        [VirtualNode(vid, ResourceVector(cpu, 0, 0)) for vid, cpu in enumerate((5, 5, 11))],
        [VirtualLink(0, 2, 10.0), VirtualLink(1, 2, 1.0)],
    )
    params = LocalEmbedParams()
    with mock.patch.object(local_embed, "map_link", wraps=local_embed.map_link) as spy:
        unbounded = embed(0, net, vnr, params)
    assert [call.args[1:3] for call in spy.call_args_list] == [(0, 1), (0, 1), (0, 2), (0, 2)]
    assert unbounded.solution.node_mapping == {0: 0, 1: 0, 2: 2}
    assert unbounded.metric() == 0.0  # revenue 32 - (21 cpu + 11 bandwidth x hops)
    # the detour priced the leader at 32 - 41 = -9, but it was never committed
    for floor in ((-1.0, -5), (0.0, -1)):
        assert embed(0, net, vnr, params, floor=floor) == unbounded
    # a floor above the final metric cuts the leader once server 2 commits
    assert embed(0, net, vnr, params, floor=(0.5, -5)) == LocalEmbedOutcome(False, None, 3, 1)
    assert embed(0, net, vnr, params, floor=(11.5, -5)) == LocalEmbedOutcome(False, None, 0, 0)
