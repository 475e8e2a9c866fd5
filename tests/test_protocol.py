import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devine import (
    INFEASIBLE,
    ElectionParams,
    EmbeddedMsg,
    EmbeddingMsg,
    EmbeddingSolution,
    GeneratorConfig,
    LeaderRing,
    LeaderState,
    LocalEmbedOutcome,
    PhysicalLink,
    PhysicalNetwork,
    PhysicalNode,
    ProtocolError,
    ResourceVector,
    VirtualNode,
    Vnr,
    embed,
    generate_physical_network,
    generate_vnr,
    handle_embedded,
    handle_embedding,
    run_election,
    select_leaders,
    stream,
)
from devine import protocol
from oracles import copy_network, residual_snapshot


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
    assert ring.successor(3) == 0
    assert ring.successor(0) == 4
    assert ring.successor(4) == 3
    with pytest.raises(ValueError):
        LeaderRing(())
    with pytest.raises(ValueError):
        LeaderRing((1, 1))


def test_message_key_orders_equal_metrics_toward_low_ids():
    hi = EmbeddingMsg(1, 9.0)
    lo = EmbeddingMsg(3, 9.0)
    assert hi.key() > lo.key()
    assert EmbeddingMsg(3, 9.5).key() > hi.key()


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


def _fixed_state(node_id, metric):
    outcome = LocalEmbedOutcome(
        True, EmbeddingSolution(0, {0: node_id}, {}, 1.0, 1.0, metric), 1, 0
    )
    return LeaderState(node_id, outcome)


def test_handle_embedding_forwards_takes_over_and_breaks_ties():
    state = _fixed_state(1, 5.0)

    dominant = EmbeddingMsg(3, 7.0)
    assert handle_embedding(state, dominant) == dominant  # forwarded unchanged

    weaker = EmbeddingMsg(3, 4.0)
    assert handle_embedding(state, weaker) == EmbeddingMsg(1, 5.0)  # takeover

    # equal metric from a higher node id loses to this leader
    assert handle_embedding(state, EmbeddingMsg(3, 5.0)) == EmbeddingMsg(1, 5.0)
    # equal metric from a lower node id wins and travels on
    tied_low = EmbeddingMsg(1, 5.0)
    assert handle_embedding(_fixed_state(2, 5.0), tied_low) == tied_low

    # own proposal back: announce; the announcement stops at its winner
    announced = handle_embedding(state, EmbeddingMsg(1, 5.0))
    assert announced == EmbeddedMsg(1, state.outcome.solution)
    assert handle_embedded(_fixed_state(2, 5.0), announced) == announced
    assert handle_embedded(state, announced) is None


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


def test_announcement_dropped_before_the_winner_raises_halted_early(monkeypatch):
    # a leader swallows the announcement, so it never reaches every leader
    monkeypatch.setattr(protocol, "handle_embedded", lambda state, msg: None)
    vnr = _one_node_vnr()
    with pytest.raises(ProtocolError, match="halted early"):
        run_election(
            _line_net(5), vnr, 0,
            ElectionParams(leaders=5),
            ring=LeaderRing((0, 1, 2, 3, 4)),
            embedder=_stub_embedder({nid: 1.0 for nid in range(5)}, vnr, {}),
        )


def test_announcement_forwarded_past_the_winner_raises_instead_of_hanging(monkeypatch):
    ring = LeaderRing((0, 1, 2, 3, 4))
    forwarded = []

    def faulty_handle_embedded(state, msg):
        # the winner forwards its own announcement instead of absorbing it
        forwarded.append(state.node_id)
        assert len(forwarded) < 100, "the election did not stop"
        return msg

    monkeypatch.setattr(protocol, "handle_embedded", faulty_handle_embedded)
    vnr = _one_node_vnr()
    with pytest.raises(ProtocolError, match="exceeded 14 deliveries"):
        run_election(
            _line_net(5), vnr, 0,
            ElectionParams(leaders=5),
            ring=ring,
            embedder=_stub_embedder({nid: 1.0 for nid in range(5)}, vnr, {}),
        )


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

    NaN stands for a metric whose x * revenue - y * cost overflowed.
    """
    members = draw(st.lists(st.integers(0, 30), min_size=1, max_size=12, unique=True))
    metric = st.sampled_from((INFEASIBLE, math.nan, 0.0, 1.0, 2.5, 7.0))
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
    # own-view embedding computed independently on a frozen copy
    cfg = GeneratorConfig(server_count=12, link_probability=0.4, vnr_size=(2, 4))
    params = ElectionParams(leaders=4, alpha=5.0, beta=2)
    for seed in range(10):
        net = generate_physical_network(cfg, stream(seed, "topology"))
        vnr = generate_vnr(cfg, 0, 0.0, stream(seed, "vnr"))
        rng = stream(seed, "leaders")
        primary = int(stream(seed, "primaries").integers(0, 12))
        frozen = copy_network(net)
        result = run_election(net, vnr, primary, params, rng=rng)
        expected = max(
            (embed(nid, frozen, vnr, params).metric(), -nid)
            for nid in result.ring.members
        )
        winner_outcome = embed(result.winner, frozen, vnr, params)
        assert (winner_outcome.metric(), -result.winner) == expected
        assert result.outcome.metric() == winner_outcome.metric()
        assert result.trace.embedding_count <= 2 * params.leaders - 1
        assert result.trace.embedded_count == params.leaders
