import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devine import (
    AllocationError,
    EmbeddingSolution,
    GeneratorConfig,
    LedgerEntry,
    LedgerError,
    PhysicalLink,
    PhysicalNetwork,
    PhysicalNode,
    ResourceVector,
    VirtualLink,
    VirtualNode,
    Vnr,
    allocate,
    conservation_violations,
    first_fit,
    generate_physical_network,
    generate_vnr,
    metric_of,
    release,
    revenue_of,
    stream,
    verify_solution,
)
from devine import embedding
from oracles import cost_of, residual_snapshot


def _line_net(n=4, cpu=100.0, bw=100.0):
    nodes = [PhysicalNode(i, ResourceVector(cpu, cpu, cpu)) for i in range(n)]
    links = [PhysicalLink(i, i + 1, bw) for i in range(n - 1)]
    return PhysicalNetwork(nodes, links)


def _pair_vnr(request_id=0, cpu=(10.0, 20.0), bw=5.0):
    nodes = [VirtualNode(i, ResourceVector(c, 1.0, 1.0)) for i, c in enumerate(cpu)]
    return Vnr(request_id, nodes, [VirtualLink(0, 1, bw)], 0.0, 10.0)


def _solution(vnr, mapping, paths):
    rev = revenue_of(vnr)
    sol = EmbeddingSolution(vnr.request_id, mapping, paths, rev, 0.0, 0.0)
    sol.cost = cost_of(vnr, sol)
    sol.metric = metric_of(rev, sol.cost)
    return sol


def test_revenue_counts_cpu_and_bandwidth_only():
    vnr = _pair_vnr(cpu=(10.0, 20.0), bw=5.0)
    assert revenue_of(vnr) == 35.0  # memory and gpu do not contribute

    zero = Vnr(1, [VirtualNode(0, ResourceVector())], [], 0.0, 1.0)
    assert revenue_of(zero) == 0.0

    triangle = Vnr(
        2,
        [VirtualNode(i, ResourceVector(10.0)) for i in range(3)],
        [VirtualLink(0, 1, 10.0), VirtualLink(1, 2, 10.0), VirtualLink(0, 2, 10.0)],
        0.0,
        1.0,
    )
    assert revenue_of(triangle) == 60.0


def test_cost_by_hop_count_on_equal_demands():
    vnr = _pair_vnr(cpu=(10.0, 10.0), bw=5.0)
    assert _solution(vnr, {0: 0, 1: 1}, {0: (0, 1)}).cost == 25.0
    assert _solution(vnr, {0: 0, 1: 0}, {0: (0,)}).cost == 20.0
    assert _solution(vnr, {0: 0, 1: 3}, {0: (0, 1, 2, 3)}).cost == 35.0


def test_cost_weights_bandwidth_by_hops():
    vnr = _pair_vnr(cpu=(10.0, 20.0), bw=5.0)
    two_hop = _solution(vnr, {0: 0, 1: 2}, {0: (0, 1, 2)})
    assert two_hop.cost == 40.0
    colocated = _solution(vnr, {0: 0, 1: 0}, {0: (0,)})
    assert colocated.cost == 30.0  # zero hops means no bandwidth cost
    one_hop = _solution(vnr, {0: 0, 1: 1}, {0: (0, 1)})
    assert one_hop.cost == one_hop.revenue == 35.0


def test_metric_weights():
    assert metric_of(35.0, 40.0) == -5.0
    assert metric_of(35.0, 40.0, x=2.0, y=0.5) == 50.0
    assert metric_of(35.0, 25.0) == 10.0
    assert metric_of(17.5, 99.0, x=1.0, y=0.0) == 17.5  # cost-blind setting
    assert metric_of(0.0, 0.0, x=3.0, y=7.0) == 0.0


def test_cost_requires_a_path_per_link():
    vnr = _pair_vnr()
    sol = EmbeddingSolution(0, {0: 0, 1: 1}, {}, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        cost_of(vnr, sol)


def test_verify_reports_violations_in_fixed_order():
    net = _line_net()
    vnr = _pair_vnr()
    ok = _solution(vnr, {0: 0, 1: 1}, {0: (0, 1)})
    assert isinstance(verify_solution(net, vnr, ok), LedgerEntry)

    unmapped = _solution(vnr, {0: 0}, {0: (0, 1)})
    assert verify_solution(net, vnr, unmapped).kind == "node-mapping"
    phantom = _solution(vnr, {0: 0, 1: 99}, {0: (0, 1)})
    assert verify_solution(net, vnr, phantom).kind == "node-mapping"
    extra = _solution(vnr, {0: 0, 1: 1, 7: 2}, {0: (0, 1)})
    assert verify_solution(net, vnr, extra).kind == "node-mapping"

    # mapping problems outrank everything else
    both = EmbeddingSolution(0, {0: 0}, {}, 0.0, 0.0, 0.0)
    assert verify_solution(net, vnr, both).kind == "node-mapping"

    heavy = _pair_vnr(cpu=(60.0, 60.0))
    squeezed = _solution(heavy, {0: 0, 1: 0}, {0: (0,)})
    assert verify_solution(net, heavy, squeezed).kind == "node-capacity"

    drained = _line_net(cpu=5.0)
    starved = _solution(_pair_vnr(cpu=(10.0, 1.0)), {0: 0, 1: 1}, {0: (0, 1)})
    assert verify_solution(drained, _pair_vnr(cpu=(10.0, 1.0)), starved).kind == "node-capacity"

    missing_path = EmbeddingSolution(0, {0: 0, 1: 1}, {}, 35.0, 35.0, 0.0)
    assert verify_solution(net, vnr, missing_path).kind == "path"
    loop_path = _solution(vnr, {0: 0, 1: 1}, {0: (0, 1, 0)})
    assert verify_solution(net, vnr, loop_path).kind == "path"
    wrong_ends = _solution(vnr, {0: 0, 1: 1}, {0: (1, 2)})
    assert verify_solution(net, vnr, wrong_ends).kind == "path"
    chord = _solution(vnr, {0: 0, 1: 2}, {0: (0, 2)})
    assert verify_solution(net, vnr, chord).kind == "path"  # (0, 2) is not a substrate link
    bad_single = _solution(vnr, {0: 0, 1: 0}, {0: (1,)})
    assert verify_solution(net, vnr, bad_single).kind == "path"

    thirsty = _pair_vnr(bw=200.0)
    saturated = _solution(thirsty, {0: 0, 1: 1}, {0: (0, 1)})
    assert verify_solution(net, thirsty, saturated).kind == "link-capacity"

    # node capacity outranks a broken path, and a broken path outranks link capacity
    overfull_and_lost = _solution(heavy, {0: 0, 1: 0}, {0: (1,)})
    assert verify_solution(net, heavy, overfull_and_lost).kind == "node-capacity"
    trio = Vnr(
        0,
        [VirtualNode(i, ResourceVector(1.0, 1.0, 1.0)) for i in range(3)],
        [VirtualLink(0, 1, 200.0), VirtualLink(1, 2, 5.0)],
        0.0,
        10.0,
    )
    # link 0 saturates (0, 1) before link 1's path misses its endpoints
    saturated_and_lost = _solution(trio, {0: 0, 1: 1, 2: 2}, {0: (0, 1), 1: (1, 3)})
    assert verify_solution(net, trio, saturated_and_lost).kind == "path"


def test_verify_aggregates_demand_sharing_a_node_and_a_link():
    net = _line_net(cpu=100.0, bw=100.0)
    nodes = [VirtualNode(i, ResourceVector(40.0, 1.0, 1.0)) for i in range(3)]
    links = [VirtualLink(0, 1, 60.0), VirtualLink(1, 2, 60.0)]
    vnr = Vnr(0, nodes, links, 0.0, 10.0)
    # virtual nodes 0 and 1 share server 0: 80 cpu fits, per-node check alone would too
    sol = _solution(vnr, {0: 0, 1: 0, 2: 1}, {0: (0,), 1: (0, 1)})
    assert isinstance(verify_solution(net, vnr, sol), LedgerEntry)
    # both links on the same substrate hop: 120 aggregate bandwidth exceeds 100
    shared = _solution(vnr, {0: 0, 1: 1, 2: 0}, {0: (0, 1), 1: (1, 0)})
    assert verify_solution(net, vnr, shared).kind == "link-capacity"


def test_injective_mode_rejects_reused_servers():
    net = _line_net()
    vnr = _pair_vnr()
    shared = _solution(vnr, {0: 0, 1: 0}, {0: (0,)})
    assert isinstance(verify_solution(net, vnr, shared), LedgerEntry)
    assert verify_solution(net, vnr, shared, injective=True).kind == "node-mapping"


def test_allocate_release_round_trip_is_exact():
    net = _line_net()
    before = residual_snapshot(net)
    ledger = {}
    vnr = _pair_vnr()
    sol = _solution(vnr, {0: 0, 1: 2}, {0: (0, 1, 2)})
    allocate(net, vnr, sol, ledger)
    assert net.cpu_free[0] == 90000
    assert net.cpu_free[2] == 80000
    assert net.bw_free[0] == 95000
    assert conservation_violations(net, ledger) == []
    assert sorted(ledger) == [0]
    release(net, 0, ledger)
    assert residual_snapshot(net) == before
    assert ledger == {}
    assert conservation_violations(net, ledger) == []


def test_allocate_books_the_entry_its_one_verify_returned(monkeypatch):
    returned = []
    real_verify = embedding.verify_solution

    def recording_verify(*args, **kwargs):
        returned.append(real_verify(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(embedding, "verify_solution", recording_verify)
    net = _line_net()
    nodes_before, links_before = residual_snapshot(net)
    nodes = [VirtualNode(i, ResourceVector(10.0 * (i + 1), 1.0, 2.0)) for i in range(3)]
    vnr = Vnr(0, nodes, [VirtualLink(0, 1, 5.0), VirtualLink(1, 2, 7.0)], 0.0, 10.0)
    # virtual nodes 0 and 2 share server 0, and both links cross (0, 1)
    sol = _solution(vnr, {0: 0, 1: 2, 2: 0}, {0: (0, 1, 2), 1: (2, 1, 0)})
    ledger = {}
    allocate(net, vnr, sol, ledger)
    assert len(returned) == 1
    entry = ledger[0]
    assert entry is returned[0]
    assert entry.node_deltas == {0: (40000, 2000, 4000), 2: (20000, 1000, 2000)}
    assert entry.link_deltas == {0: 12000, 1: 12000}
    # the residuals moved by exactly the booked deltas, and nowhere else
    nodes_after, links_after = residual_snapshot(net)
    for pid, (before, after) in enumerate(zip(nodes_before, nodes_after)):
        moved = tuple(b - a for b, a in zip(before, after))
        assert moved == entry.node_deltas.get(pid, (0, 0, 0))
    for idx, (before, after) in enumerate(zip(links_before, links_after)):
        assert before - after == entry.link_deltas.get(idx, 0)
    assert net.bw_moved == set(entry.link_deltas)


def test_allocate_guards():
    net = _line_net()
    ledger = {}
    vnr = _pair_vnr()
    sol = _solution(vnr, {0: 0, 1: 1}, {0: (0, 1)})
    allocate(net, vnr, sol, ledger)
    before, entries = residual_snapshot(net), copy.deepcopy(ledger)
    with pytest.raises(LedgerError):
        allocate(net, vnr, sol, ledger)
    assert residual_snapshot(net) == before and ledger == entries
    with pytest.raises(LedgerError):
        release(net, 99, ledger)
    hungry = _pair_vnr(request_id=1, cpu=(95.0, 10.0))
    bad = _solution(hungry, {0: 0, 1: 1}, {0: (0, 1)})
    with pytest.raises(AllocationError):
        allocate(net, hungry, bad, ledger)
    # the failed allocate must not have touched anything
    assert residual_snapshot(net) == before and ledger == entries
    assert conservation_violations(net, ledger) == []


def test_release_refuses_to_lift_a_residual_above_capacity():
    net = _line_net()
    ledger = {}
    for rid in (0, 1):
        vnr = _pair_vnr(request_id=rid)
        allocate(net, vnr, _solution(vnr, {0: 0, 1: 1}, {0: (0, 1)}), ledger)
    net.gpu_free[1] = net.nodes[1].capacity.gpu_m  # freed behind the ledger's back
    before, entries = residual_snapshot(net), copy.deepcopy(ledger)
    with pytest.raises(LedgerError, match="node 1"):
        release(net, 0, ledger)
    # a refused release writes nothing: node 0 stays loaded and request 0 stays booked
    assert residual_snapshot(net) == before and ledger == entries
    net.gpu_free[1] -= 1000  # node 1 now has room for request 1's 1.0 gpu
    net.bw_free[0] = net.links[0].bw_capacity_m
    before = residual_snapshot(net)
    with pytest.raises(LedgerError, match=r"link \(0, 1\)"):
        release(net, 1, ledger)
    assert residual_snapshot(net) == before and ledger == entries


def test_conservation_flags_a_residual_the_ledger_does_not_explain():
    net = _line_net()
    ledger = {}
    vnr = _pair_vnr()
    allocate(net, vnr, _solution(vnr, {0: 0, 1: 2}, {0: (0, 1, 2)}), ledger)
    assert conservation_violations(net, ledger) == []
    # every list entry is checked, allocated or not
    for free, idx, problem in [
        (net.cpu_free, 0, "node 0 residual disagrees with ledger"),
        (net.cpu_free, 3, "node 3 residual disagrees with ledger"),
        (net.memory_free, 2, "node 2 residual disagrees with ledger"),
        (net.gpu_free, 1, "node 1 residual disagrees with ledger"),
        (net.bw_free, 1, "link (1, 2) residual disagrees with ledger"),
        (net.bw_free, 2, "link (2, 3) residual disagrees with ledger"),
    ]:
        for delta in (-1, 1):
            free[idx] += delta
            assert conservation_violations(net, ledger) == [problem]
            free[idx] -= delta
    assert conservation_violations(net, ledger) == []
    net.cpu_free[1] -= 1
    net.bw_free[0] += 1
    assert conservation_violations(net, ledger) == [
        "node 1 residual disagrees with ledger",
        "link (0, 1) residual disagrees with ledger",
    ]


def test_conservation_replay_against_independent_accounting():
    # replay 50 interleaved allocates and releases, tracking expected residuals
    # straight from the request definitions rather than through the ledger
    net = _line_net(n=6, cpu=500.0, bw=500.0)
    ledger = {}
    rng = np.random.default_rng(77)
    expected_cpu = {i: net.nodes[i].capacity.cpu_m for i in range(6)}
    expected_bw = {i: net.links[i].bw_capacity_m for i in range(5)}
    live: dict[int, tuple[Vnr, EmbeddingSolution]] = {}
    next_id = 0
    for _ in range(50):
        if live and rng.random() < 0.4:
            rid = sorted(live)[int(rng.integers(len(live)))]
            vnr, sol = live.pop(rid)
            release(net, rid, ledger)
            for vid in range(vnr.num_nodes):
                expected_cpu[sol.node_mapping[vid]] += vnr.nodes[vid].demand.cpu_m
            for idx, vlink in enumerate(vnr.links):
                path = sol.path_mapping[idx]
                for a, b in zip(path, path[1:]):
                    expected_bw[net.adjacency[a].get(b)] += vlink.bw_demand_m
        else:
            a, b = sorted(rng.choice(6, size=2, replace=False).tolist())
            vnr = _pair_vnr(request_id=next_id, cpu=(5.0, 5.0), bw=3.0)
            path = tuple(range(a, b + 1))
            sol = _solution(vnr, {0: a, 1: b}, {0: path})
            allocate(net, vnr, sol, ledger)
            live[next_id] = (vnr, sol)
            next_id += 1
            expected_cpu[a] -= 5000
            expected_cpu[b] -= 5000
            for u, v in zip(path, path[1:]):
                expected_bw[net.adjacency[u].get(v)] -= 3000
        assert conservation_violations(net, ledger) == []
        for pid in range(6):
            assert net.cpu_free[pid] == expected_cpu[pid]
        for link_idx in range(5):
            assert net.bw_free[link_idx] == expected_bw[link_idx]


# small servers and links, so a few requests saturate them
TIGHT = GeneratorConfig(
    server_count=6,
    link_probability=0.5,
    cpu_capacity=(40.0, 100.0),
    memory_capacity=(200.0, 400.0),
    gpu_capacity=(40.0, 100.0),
    link_bandwidth=(30.0, 100.0),
    vnr_size=(1, 3),
)


def _residuals(net):
    nodes, links = residual_snapshot(net)
    return [amount for node in nodes for amount in node] + list(links)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**16), steps=st.lists(st.integers(0, 7), min_size=1, max_size=30))
def test_release_gives_back_exactly_what_allocate_took(seed, steps):
    # a step below 3 releases a live request (picked by the step), any other
    # step allocates a new request wherever first_fit puts it
    net = generate_physical_network(TIGHT, stream(seed, "topology"))
    initial = _residuals(net)
    draws = stream(seed, "vnr")
    ledger = {}
    taken: dict[int, list[int]] = {}  # request id -> what its allocate took
    for request_id, step in enumerate(steps):
        before = _residuals(net)
        if step < 3 and taken:
            victim = sorted(taken)[step % len(taken)]
            release(net, victim, ledger)
            assert [a - b for a, b in zip(_residuals(net), before)] == taken.pop(victim)
        else:
            vnr = generate_vnr(TIGHT, request_id, 0.0, draws)
            outcome = first_fit(net, vnr)
            if not outcome.feasible:
                continue
            allocate(net, vnr, outcome.solution, ledger)
            taken[request_id] = [a - b for a, b in zip(before, _residuals(net))]
        assert conservation_violations(net, ledger) == []
    for request_id in list(taken):
        release(net, request_id, ledger)
    assert _residuals(net) == initial
    assert conservation_violations(net, ledger) == []
