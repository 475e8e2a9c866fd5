import math

import numpy as np
import pytest

from devine import (
    GenerationError,
    GeneratorConfig,
    ResourceVector,
    VirtualLink,
    VirtualNode,
    Vnr,
    from_milli,
    generate_physical_network,
    generate_vnr,
    stream,
    to_milli,
)
from devine import generator
from devine.generator import MAX_NODES, _MAX_REDRAWS
from oracles import connected


def test_stream_is_deterministic_and_name_separated():
    a = stream(42, "topology").integers(0, 10**9, 5)
    b = stream(42, "topology").integers(0, 10**9, 5)
    c = stream(42, "vnr").integers(0, 10**9, 5)
    d = stream(43, "topology").integers(0, 10**9, 5)
    assert (a == b).all()
    assert not (a == c).all()
    assert not (a == d).all()
    with pytest.raises(ValueError):
        stream(42, "nope")


def test_config_validation_rejects_bad_values():
    for bad in (
        {"server_count": 0},
        {"link_probability": 1.5},
        {"vnr_size": (0, 5)},
        {"vnr_size": (6, 5)},
        {"arrival_rate": 0.0},
        {"arrival_process": "burst"},
        {"second_parameter": "sigma"},
        {"resource_floor": 0.0},
        {"max_attempts": 0},
        {"cpu_demand": (10.0, -1.0)},
        {"link_probability": math.nan},
        {"arrival_rate": math.inf},
        {"arrival_rate": math.nan},
        {"resource_floor": math.inf},
        {"lifetime_floor": math.nan},
        {"cpu_demand": (math.nan, 4.0)},
        {"lifetime": (100.0, math.inf)},
    ):
        with pytest.raises(ValueError):
            GeneratorConfig(**bad).validate()
    GeneratorConfig().validate()


def test_node_count_cap_rejects_oversized_graphs_before_generating_any():
    # the generator draws one number per node pair, so sizes are capped
    GeneratorConfig(server_count=MAX_NODES, vnr_size=(1, MAX_NODES)).validate()
    GeneratorConfig(server_count=400).validate()
    for bad in ({"server_count": MAX_NODES + 1}, {"vnr_size": (4, MAX_NODES + 1)}):
        with pytest.raises(ValueError, match=str(MAX_NODES)):
            GeneratorConfig(**bad).validate()


def test_second_parameter_switches_variance_and_std():
    var_cfg = GeneratorConfig(second_parameter="variance")
    std_cfg = GeneratorConfig(second_parameter="std")
    assert var_cfg.std_of((100.0, 400.0)) == 20.0
    assert std_cfg.std_of((100.0, 400.0)) == 400.0
    rng = np.random.default_rng(0)
    groups = [(((100.0, 400.0),), 4000, var_cfg.resource_floor)]
    draws = generator._draw_positives(rng, var_cfg, groups)
    assert abs(np.std(draws) - 20.0) < 1.5  # truncation at 0.1 is negligible 5 sigma out


def _truncated_normal_mean(mean, std, floor):
    # E[X | X >= floor] for X ~ N(mean, std^2)
    alpha = (floor - mean) / std
    pdf = math.exp(-0.5 * alpha * alpha) / math.sqrt(2.0 * math.pi)
    tail = 0.5 * math.erfc(alpha / math.sqrt(2.0))
    return mean + std * pdf / tail


def test_draw_positive_matches_truncated_normal_mean():
    # mean 1, std 2, floor 0.1 truncates a third of the mass, so the shift is large
    cfg = GeneratorConfig(second_parameter="variance")
    rng = np.random.default_rng(123)
    n = 20000
    draws = generator._draw_positives(rng, cfg, [(((1.0, 4.0),), n, cfg.resource_floor)])
    assert min(draws) >= 0.1
    expected = _truncated_normal_mean(1.0, 2.0, 0.1)
    assert abs(np.mean(draws) - expected) < 5 * 2.0 / math.sqrt(n)


def test_draw_positive_gives_up_on_hopeless_floor():
    # the first value never clears 50, so generation fails after exactly
    # _MAX_REDRAWS normals and the value after it is never drawn
    cfg = GeneratorConfig()
    rng, twin = np.random.default_rng(0), np.random.default_rng(0)
    with pytest.raises(GenerationError, match="could not draw a value >= 50"):
        generator._draw_positives(rng, cfg, [(((0.0, 1e-12), (100.0, 1.0)), 1, 50.0)])
    twin.standard_normal(_MAX_REDRAWS)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_physical_network_shape_and_floors():
    cfg = GeneratorConfig(server_count=30)
    net = generate_physical_network(cfg, stream(9, "topology"))
    assert len(net.nodes) == 30
    assert [n.id for n in net.nodes] == list(range(30))
    assert connected(net.num_nodes, net.adjacency)
    floor_m = to_milli(cfg.resource_floor)
    for node in net.nodes:
        assert min(node.capacity.cpu_m, node.capacity.memory_m, node.capacity.gpu_m) >= floor_m
        assert net.cpu_free[node.id] == node.capacity.cpu_m
        assert net.memory_free[node.id] == node.capacity.memory_m
        assert net.gpu_free[node.id] == node.capacity.gpu_m
    for link in net.links:
        assert link.bw_capacity_m >= floor_m
    assert net.bw_free == [link.bw_capacity_m for link in net.links]


def test_physical_link_count_tracks_edge_probability():
    # 30 choose 2 = 435 candidate pairs; connectivity resampling at p=0.4 is
    # almost never triggered, so a 4 sigma binomial band is a sound bound.
    pairs, p = 435, 0.4
    mean = pairs * p
    sigma = math.sqrt(pairs * p * (1 - p))
    counts = []
    for seed in range(20):
        cfg = GeneratorConfig(server_count=30, link_probability=p)
        counts.append(len(generate_physical_network(cfg, stream(seed, "topology")).links))
    assert mean - 4 * sigma < np.mean(counts) < mean + 4 * sigma


def test_default_scale_link_count_within_binomial_band():
    # 100 choose 2 = 4950 pairs at p = 0.4: mean 1980, sigma ~ 34.5
    cfg = GeneratorConfig(server_count=100, link_probability=0.4)
    links = len(generate_physical_network(cfg, stream(12, "topology")).links)
    sigma = math.sqrt(4950 * 0.4 * 0.6)
    assert abs(links - 1980) < 3 * sigma


def test_full_probability_gives_the_complete_graph():
    cfg = GeneratorConfig(server_count=5, link_probability=1.0)
    net = generate_physical_network(cfg, stream(7, "topology"))
    assert len(net.links) == 10


def test_forced_vnr_shape():
    cfg = GeneratorConfig(vnr_size=(2, 2), vnr_link_probability=1.0)
    vnr = generate_vnr(cfg, 0, 0.0, stream(1, "vnr"))
    assert len(vnr.nodes) == 2
    assert len(vnr.links) == 1


def test_generated_cpu_demand_mean_matches_monte_carlo_oracle():
    cfg = GeneratorConfig()
    rng = stream(12, "vnr")
    total = 0.0
    count = 0
    for request_id in range(10000):
        vnr = generate_vnr(cfg, request_id, 0.0, rng)
        for node in vnr.nodes:
            total += from_milli(node.demand.cpu_m)
            count += 1
    sample_mean = total / count
    # oracle: condition raw draws from the untruncated distribution on the floor
    raw = np.random.default_rng(99).normal(10.0, 2.0, 400000)
    oracle_mean = raw[raw >= cfg.resource_floor].mean()
    assert abs(sample_mean - oracle_mean) / oracle_mean < 0.05


def test_disconnected_probability_raises():
    cfg = GeneratorConfig(server_count=5, link_probability=0.0, max_attempts=5)
    with pytest.raises(GenerationError):
        generate_physical_network(cfg, stream(1, "topology"))


def test_single_server_network_has_no_links():
    cfg = GeneratorConfig(server_count=1, link_probability=0.0)
    net = generate_physical_network(cfg, stream(3, "topology"))
    assert len(net.nodes) == 1
    assert net.links == []
    assert connected(net.num_nodes, net.adjacency)


def test_vnr_shape_size_range_and_floors():
    cfg = GeneratorConfig()
    rng = stream(21, "vnr")
    sizes = set()
    for request_id in range(200):
        vnr = generate_vnr(cfg, request_id, arrival_time=float(request_id), rng=rng)
        assert vnr.request_id == request_id
        sizes.add(len(vnr.nodes))
        assert cfg.vnr_size[0] <= len(vnr.nodes) <= cfg.vnr_size[1]
        assert connected(vnr.num_nodes, vnr.adjacency)
        assert vnr.lifetime >= cfg.lifetime_floor
        floor_m = to_milli(cfg.resource_floor)
        for node in vnr.nodes:
            assert min(node.demand.cpu_m, node.demand.memory_m, node.demand.gpu_m) >= floor_m
        for link in vnr.links:
            assert link.bw_demand_m >= floor_m
    assert sizes == set(range(cfg.vnr_size[0], cfg.vnr_size[1] + 1))


def test_vnr_generation_is_seed_deterministic():
    cfg = GeneratorConfig()
    first = [generate_vnr(cfg, i, float(i), stream(5, "vnr")) for i in range(1)]
    second = [generate_vnr(cfg, i, float(i), stream(5, "vnr")) for i in range(1)]
    assert first[0].fingerprint() == second[0].fingerprint()
    other = generate_vnr(cfg, 0, 0.0, stream(6, "vnr"))
    assert first[0].fingerprint() != other.fingerprint()


def test_request_adjacency_iterates_by_link_index():
    # the local embedder routes a virtual node's links in link-index order by
    # iterating its adjacency as built, without sorting it
    cfg = GeneratorConfig()
    draws = stream(5, "vnr")
    for request_id in range(500):
        vnr = generate_vnr(cfg, request_id, 0.0, draws)
        for peers in vnr.adjacency:
            assert list(peers.values()) == sorted(peers.values())
    # by link index, not by neighbour id
    vnr = Vnr(
        0,
        [VirtualNode(i, ResourceVector(1)) for i in range(4)],
        [VirtualLink(2, 3, 1.0), VirtualLink(0, 3, 1.0), VirtualLink(1, 3, 1.0)],
    )
    assert list(vnr.adjacency[3].items()) == [(2, 0), (0, 1), (1, 2)]
