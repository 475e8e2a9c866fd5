import math

import numpy as np
import pytest

from devine import (
    INFEASIBLE,
    GeneratorConfig,
    LedgerEntry,
    LocalEmbedParams,
    PhysicalLink,
    PhysicalNetwork,
    PhysicalNode,
    ResourceVector,
    VirtualLink,
    VirtualNode,
    Vnr,
    embed,
    generate_physical_network,
    generate_vnr,
    local_embed,
    map_link,
    stream,
    verify_solution,
)
from oracles import best_path, brute_force_feasible, residual_snapshot


def _net(node_caps, link_rows):
    nodes = [PhysicalNode(i, ResourceVector(*caps)) for i, caps in enumerate(node_caps)]
    links = [PhysicalLink(u, v, bw) for u, v, bw in link_rows]
    return PhysicalNetwork(nodes, links)


def test_params_validation_and_hop_limit():
    LocalEmbedParams().validate()
    assert LocalEmbedParams(beta=3).hop_limit() == 6
    assert LocalEmbedParams(beta=3, path_hop_limit=4).hop_limit() == 4
    with pytest.raises(ValueError):
        LocalEmbedParams(alpha=0.0).validate()
    with pytest.raises(ValueError):
        LocalEmbedParams(beta=-1).validate()
    with pytest.raises(ValueError):
        LocalEmbedParams(path_hop_limit=-1).validate()


def test_demand_order_sorts_by_total_demand_then_id():
    nodes = [
        VirtualNode(0, ResourceVector(1, 1, 1)),   # total 3 + incident 4 = 7
        VirtualNode(1, ResourceVector(5, 0, 0)),   # total 5 + incident 5 = 10
        VirtualNode(2, ResourceVector(3, 0, 0)),   # total 3 + incident 1 = 4
    ]
    links = [VirtualLink(0, 1, 4.0), VirtualLink(1, 2, 1.0)]
    vnr = Vnr(0, nodes, links, 0.0, 1.0)
    order = local_embed._demands(vnr)[0]
    assert order == (1, 0, 2)
    assert isinstance(order, tuple)  # no caller can change the kept order

    twins = Vnr(
        1,
        [VirtualNode(0, ResourceVector(2)), VirtualNode(1, ResourceVector(2))],
        [VirtualLink(0, 1, 1.0)],
        0.0,
        1.0,
    )
    assert local_embed._demands(twins)[0] == (0, 1)  # equal totals fall back to id order


def _square(bw01=10.0):
    # 4-cycle 0-1-2-3-0
    return _net(
        [(50, 50, 50)] * 4,
        [(0, 1, bw01), (1, 2, 10.0), (2, 3, 10.0), (0, 3, 10.0)],
    )


def test_map_link_prefers_lexicographically_smallest_shortest_path():
    net = _square()
    assert map_link(net, 0, 2, 6000, hop_limit=6) == (0, 1, 2)


def test_map_link_avoids_saturated_side():
    net = _square(bw01=5.0)  # 5 < 6 demanded, so the (0,1) side is unusable
    assert map_link(net, 0, 2, 6000, hop_limit=6) == (0, 3, 2)
    # a demand of 10 exactly fills the surviving side's links
    assert map_link(net, 0, 2, 10000, hop_limit=6) == (0, 3, 2)


def test_map_link_zero_hop_and_cutoffs():
    net = _square()
    assert map_link(net, 2, 2, 999999, hop_limit=0) == (2,)
    assert map_link(net, 0, 2, 6000, hop_limit=1) is None
    assert map_link(net, 0, 1, 6000, hop_limit=1) == (0, 1)
    assert map_link(net, 0, 2, 20000, hop_limit=6) is None  # no link can carry 20


def test_map_link_rejects_unknown_endpoints():
    # a negative id would alias a node counted from the end, (-1, 3) routing from node 9
    cfg = GeneratorConfig(server_count=10, link_probability=0.3)
    net = generate_physical_network(cfg, stream(1, "topology"))
    for src, dst in [(-1, 3), (0, 10), (-1, -1), (10, 10), (3, -11)]:
        with pytest.raises(ValueError, match="unknown endpoint"):
            map_link(net, src, dst, 0, 6)
    assert map_link(net, 9, 3, 0, 6) == (9, 6, 3)  # the node -1 stood for


def test_map_link_honors_tentative_reservations():
    net = _square()
    taken = {0: 5000}  # link (0,1) has 10 capacity, 5 already claimed
    assert map_link(net, 0, 2, 6000, hop_limit=6, reserved=taken) == (0, 3, 2)
    assert map_link(net, 0, 2, 5000, hop_limit=6, reserved=taken) == (0, 1, 2)


def test_map_link_matches_exhaustive_reference():
    cfg = GeneratorConfig(
        server_count=8,
        link_probability=0.45,
        link_bandwidth=(20.0, 100.0),
        max_attempts=2000,
    )
    checked = 0
    for seed in range(40):
        rng = stream(seed, "topology")
        net = generate_physical_network(cfg, rng)
        pick = np.random.default_rng(seed)
        for _ in range(10):
            src, dst = pick.integers(0, 8, 2)
            demand_m = int(pick.integers(1, 30000))
            hops = int(pick.integers(1, 8))
            got = map_link(net, int(src), int(dst), demand_m, hops)
            want = best_path(net, int(src), int(dst), demand_m, max_hops=hops)
            assert got == want
            checked += 1
    assert checked == 400


def _two_node_vnr(bw=5.0, cpu=(8.0, 7.0)):
    nodes = [VirtualNode(i, ResourceVector(c, 1.0, 1.0)) for i, c in enumerate(cpu)]
    return Vnr(0, nodes, [VirtualLink(0, 1, bw)], 0.0, 10.0)


def test_embed_two_node_request_hand_traced():
    net = _net([(10, 100, 100), (100, 100, 100)], [(0, 1, 5.0)])
    vnr = _two_node_vnr()
    out = embed(0, net, vnr)
    assert out.feasible
    assert out.solution.node_mapping == {0: 0, 1: 1}
    assert out.solution.path_mapping == {0: (0, 1)}
    assert out.solution.revenue == 20.0
    assert out.solution.cost == 20.0  # one hop makes cost equal revenue
    assert out.solution.metric == 0.0
    assert out.inspected_count == 2
    assert out.max_depth_reached == 1
    assert isinstance(verify_solution(net, vnr, out.solution), LedgerEntry)


def test_embed_splits_a_pair_across_a_full_pair_of_servers():
    # each server holds exactly one virtual node; the link rides the 1-hop path
    net = _net([(10, 100, 100), (10, 100, 100)], [(0, 1, 5.0)])
    vnr = _two_node_vnr(cpu=(10.0, 10.0), bw=5.0)
    out = embed(0, net, vnr)
    assert out.feasible
    assert sorted(out.solution.node_mapping.values()) == [0, 1]
    assert len(out.solution.path_mapping[0]) == 2
    assert out.solution.cost == 25.0

    thin = _net([(10, 100, 100), (10, 100, 100)], [(0, 1, 4.0)])
    assert not embed(0, thin, vnr).feasible


def test_embed_zero_demand_single_node_lands_on_the_root():
    net = _net([(10, 10, 10), (10, 10, 10)], [(0, 1, 5.0)])
    vnr = Vnr(0, [VirtualNode(0, ResourceVector())], [], 0.0, 1.0)
    out = embed(1, net, vnr)
    assert out.feasible
    assert out.solution.node_mapping == {0: 1}
    assert out.solution.revenue == out.solution.cost == 0.0


def test_embed_reports_infeasible_when_bandwidth_is_short():
    net = _net([(10, 100, 100), (100, 100, 100)], [(0, 1, 4.0)])
    out = embed(0, net, _two_node_vnr(bw=5.0))
    assert not out.feasible
    assert out.solution is None
    assert out.metric() == INFEASIBLE
    assert out.inspected_count == 2


def test_embed_colocates_when_one_server_suffices():
    net = _net([(10, 10, 10)], [])
    nodes = [VirtualNode(0, ResourceVector(3, 1, 1)), VirtualNode(1, ResourceVector(4, 1, 1))]
    vnr = Vnr(0, nodes, [VirtualLink(0, 1, 2.0)], 0.0, 5.0)
    out = embed(0, net, vnr)
    assert out.feasible
    assert out.solution.node_mapping == {0: 0, 1: 0}
    assert out.solution.path_mapping == {0: (0,)}
    assert out.solution.revenue == 9.0
    assert out.solution.cost == 7.0  # co-location drops the bandwidth term
    assert out.solution.metric == 2.0


def test_embed_injective_blocks_colocation():
    net = _net([(10, 10, 10)], [])
    nodes = [VirtualNode(0, ResourceVector(3, 1, 1)), VirtualNode(1, ResourceVector(4, 1, 1))]
    vnr = Vnr(0, nodes, [VirtualLink(0, 1, 2.0)], 0.0, 5.0)
    assert not embed(0, net, vnr, LocalEmbedParams(injective=True)).feasible


def test_embed_budget_caps_dequeued_nodes():
    # alpha 0.5 with a 2-node request allows exactly one dequeue: the root
    net = _net([(5, 5, 5), (100, 100, 100)], [(0, 1, 50.0)])
    vnr = _two_node_vnr(cpu=(4.0, 4.0), bw=1.0)
    out = embed(0, net, vnr, LocalEmbedParams(alpha=0.5))
    assert not out.feasible
    assert out.inspected_count == 1
    assert embed(0, net, vnr, LocalEmbedParams(alpha=1.0)).feasible


def test_embed_huge_finite_alpha_matches_a_whole_substrate_budget():
    # alpha * size overflows to inf; no walk inspects more than every server
    cfg = GeneratorConfig(server_count=12, link_probability=0.3, vnr_size=(2, 6))
    for seed in range(10):
        net = generate_physical_network(cfg, stream(seed, "topology"))
        vnr_rng = stream(seed, "vnr")
        for request_id in range(5):
            vnr = generate_vnr(cfg, request_id, 0.0, vnr_rng)
            for beta in (1, 12):
                whole = embed(seed, net, vnr, LocalEmbedParams(alpha=net.num_nodes, beta=beta))
                huge = embed(seed, net, vnr, LocalEmbedParams(alpha=1e308, beta=beta))
                assert huge == whole


def test_embed_depth_limit_hides_distant_capacity():
    # line 0-1-2-3; only node 3 can host the second virtual node
    net = _net(
        [(10, 100, 100), (1, 100, 100), (1, 100, 100), (100, 100, 100)],
        [(0, 1, 50.0), (1, 2, 50.0), (2, 3, 50.0)],
    )
    vnr = _two_node_vnr(cpu=(8.0, 9.0), bw=1.0)
    near = embed(0, net, vnr, LocalEmbedParams(beta=2))
    assert not near.feasible
    assert near.max_depth_reached <= 2
    far = embed(0, net, vnr, LocalEmbedParams(beta=3))
    assert far.feasible
    # virtual node 1 is heavier, so it claims the root; node 0 lands at depth 3
    assert far.solution.node_mapping == {0: 3, 1: 0}
    assert far.solution.path_mapping == {0: (0, 1, 2, 3)}


def test_embed_greedy_skips_misfits_and_keeps_scanning():
    # root fits only the lighter virtual node; the heavy one lands next door
    net = _net([(6, 100, 100), (100, 100, 100)], [(0, 1, 50.0)])
    vnr = _two_node_vnr(cpu=(9.0, 5.0), bw=1.0)
    out = embed(0, net, vnr)
    assert out.feasible
    assert out.solution.node_mapping == {0: 1, 1: 0}


def test_embed_never_mutates_the_network():
    cfg = GeneratorConfig(server_count=12, link_probability=0.4)
    net = generate_physical_network(cfg, stream(4, "topology"))
    before = residual_snapshot(net)
    vnr_rng = stream(4, "vnr")
    for request_id in range(20):
        vnr = generate_vnr(cfg, request_id, 0.0, vnr_rng)
        embed(request_id % 12, net, vnr, LocalEmbedParams(alpha=5.0, beta=2))
        assert residual_snapshot(net) == before


def test_embed_budget_and_depth_hold_over_random_instances():
    cfg = GeneratorConfig(server_count=15, link_probability=0.35, vnr_size=(2, 5))
    rng = np.random.default_rng(11)
    for seed in range(30):
        net = generate_physical_network(cfg, stream(seed, "topology"))
        vnr_rng = stream(seed, "vnr")
        for request_id in range(5):
            vnr = generate_vnr(cfg, request_id, 0.0, vnr_rng)
            alpha = float(rng.choice([0.5, 1.0, 2.0, 30.0]))
            beta = int(rng.integers(0, 4))
            params = LocalEmbedParams(alpha=alpha, beta=beta)
            root = int(rng.integers(0, 15))
            out = embed(root, net, vnr, params)
            assert out.inspected_count <= math.ceil(alpha * vnr.num_nodes)
            assert out.max_depth_reached <= beta
            if out.feasible:
                assert isinstance(verify_solution(net, vnr, out.solution), LedgerEntry)
                for path in out.solution.path_mapping.values():
                    assert len(path) - 1 <= params.hop_limit()


def test_embed_feasible_only_when_an_embedding_exists():
    # small instances where the exhaustive oracle is affordable
    cfg = GeneratorConfig(
        server_count=4,
        link_probability=0.6,
        cpu_capacity=(20.0, 25.0),
        memory_capacity=(40.0, 25.0),
        gpu_capacity=(20.0, 25.0),
        link_bandwidth=(15.0, 25.0),
        vnr_size=(2, 3),
        max_attempts=2000,
    )
    agreements = 0
    for seed in range(40):
        net = generate_physical_network(cfg, stream(seed, "topology"))
        vnr = generate_vnr(cfg, 0, 0.0, stream(seed, "vnr"))
        exists = brute_force_feasible(net, vnr)
        found_any = any(embed(r, net, vnr).feasible for r in range(net.num_nodes))
        if found_any:
            assert exists  # a reported embedding must actually exist
        agreements += found_any == exists
    assert agreements >= 20  # the bounded greedy finds most of what exists here
