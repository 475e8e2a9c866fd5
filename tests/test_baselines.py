import math

import numpy as np
import pytest

from devine import (
    ConvergenceError,
    GeneratorConfig,
    GrcParams,
    LedgerEntry,
    LocalEmbedOutcome,
    LocalEmbedParams,
    PhysicalLink,
    PhysicalNetwork,
    PhysicalNode,
    ResourceVector,
    VirtualLink,
    VirtualNode,
    Vnr,
    best_fit,
    first_fit,
    generate_physical_network,
    grc_embed,
    grc_rank,
    stream,
    verify_solution,
)
from oracles import brute_force_feasible, residual_snapshot

ALL_BASELINES = [
    pytest.param(first_fit, id="firstfit"),
    pytest.param(best_fit, id="bestfit"),
    pytest.param(lambda net, vnr, params=None: grc_embed(net, vnr, params=params), id="grc"),
]


def _net(cpus, link_rows, mem=1000.0):
    nodes = [PhysicalNode(i, ResourceVector(c, mem, mem)) for i, c in enumerate(cpus)]
    links = [PhysicalLink(u, v, bw) for u, v, bw in link_rows]
    return PhysicalNetwork(nodes, links)


def _single_vnr(cpu):
    return Vnr(0, [VirtualNode(0, ResourceVector(cpu, 1.0, 1.0))], [], 0.0, 5.0)


def test_grc_params_validation():
    GrcParams().validate()
    for bad in (
        {"damping": 1.0},
        {"damping": -0.1},
        {"tolerance": 0.0},
        {"max_iterations": 0},
        {"tolerance": math.nan},
        {"tolerance": math.inf},
    ):
        with pytest.raises(ValueError):
            GrcParams(**bad).validate()


def test_first_fit_takes_lowest_id_that_fits():
    net = _net([10.0, 60.0, 90.0], [(0, 1, 50.0), (1, 2, 50.0)])
    out = first_fit(net, _single_vnr(50.0))
    assert out.feasible
    assert out.solution.node_mapping == {0: 1}


def test_first_fit_degenerate_cases():
    net = _net([10.0, 60.0, 90.0], [(0, 1, 50.0), (1, 2, 50.0)])
    zero = Vnr(0, [VirtualNode(0, ResourceVector())], [], 0.0, 5.0)
    assert first_fit(net, zero).solution.node_mapping == {0: 0}
    out = first_fit(net, _single_vnr(95.0))  # beyond every residual
    assert not out.feasible


def test_best_fit_takes_largest_residual_cpu():
    net = _net([10.0, 60.0, 90.0], [(0, 1, 50.0), (1, 2, 50.0)])
    out = best_fit(net, _single_vnr(50.0))
    assert out.feasible
    assert out.solution.node_mapping == {0: 2}
    assert not best_fit(net, _single_vnr(95.0)).feasible
    assert not best_fit(PhysicalNetwork([], []), _single_vnr(1.0)).feasible


def test_best_fit_counts_tentative_usage_and_breaks_ties_low():
    net = _net([100.0, 70.0], [(0, 1, 50.0)])
    nodes = [VirtualNode(i, ResourceVector(30.0, 1.0, 1.0)) for i in range(2)]
    vnr = Vnr(0, nodes, [VirtualLink(0, 1, 5.0)], 0.0, 5.0)
    out = best_fit(net, vnr)
    # after the first placement both servers offer 70 cpu; the tie goes low
    assert out.solution.node_mapping == {0: 0, 1: 0}
    assert out.solution.path_mapping == {0: (0,)}

    taller = _net([100.0, 80.0], [(0, 1, 50.0)])
    out2 = best_fit(taller, vnr)
    assert out2.solution.node_mapping == {0: 0, 1: 1}
    assert out2.solution.path_mapping == {0: (0, 1)}


@pytest.mark.parametrize("baseline", ALL_BASELINES)
def test_link_routing_failure_rejects_the_whole_request(baseline):
    # servers 0 and 1 are every strategy's first two picks (highest cpu, thus
    # lowest ids among fits, largest residuals, and top ranks) but only a thin
    # link joins them; the request dies on that route even though the pair
    # (0, 2) would have carried it over the fat 0-2 link
    net = _net([15.0, 15.0, 12.5, 12.5], [(0, 1, 1.0), (0, 2, 20.0), (1, 3, 20.0)])
    nodes = [VirtualNode(i, ResourceVector(12.0, 1.0, 1.0)) for i in range(2)]
    vnr = Vnr(0, nodes, [VirtualLink(0, 1, 5.0)], 0.0, 5.0)
    assert brute_force_feasible(net, vnr)
    out = baseline(net, vnr)
    assert not out.feasible
    assert out.solution is None


@pytest.mark.parametrize("baseline", ALL_BASELINES)
def test_baselines_do_not_mutate_the_network(baseline):
    cfg = GeneratorConfig(server_count=10, link_probability=0.5)
    net = generate_physical_network(cfg, stream(2, "topology"))
    before = residual_snapshot(net)
    nodes = [VirtualNode(i, ResourceVector(5.0, 5.0, 5.0)) for i in range(3)]
    vnr = Vnr(0, nodes, [VirtualLink(0, 1, 3.0), VirtualLink(1, 2, 3.0)], 0.0, 5.0)
    out = baseline(net, vnr)
    assert residual_snapshot(net) == before
    if out.feasible:
        assert isinstance(verify_solution(net, vnr, out.solution), LedgerEntry)


@pytest.mark.parametrize("baseline", ALL_BASELINES)
def test_baselines_honor_injective_mode(baseline):
    net = _net([100.0, 100.0], [(0, 1, 50.0)])
    nodes = [VirtualNode(i, ResourceVector(10.0, 1.0, 1.0)) for i in range(2)]
    vnr = Vnr(0, nodes, [VirtualLink(0, 1, 5.0)], 0.0, 5.0)
    out = baseline(net, vnr, params=LocalEmbedParams(injective=True))
    assert out.feasible
    assert len(set(out.solution.node_mapping.values())) == 2


def _reference_rank(weights, edges, n, damping=0.85):
    """Direct linear solve of r = (1-d)c + d*T*r, built from the stated rule."""
    total = sum(weights)
    c = np.full(n, 1.0 / n) if total <= 0 else np.array(weights, dtype=float) / total
    transition = np.zeros((n, n))
    for u, v, w in edges:
        transition[u, v] += w
        transition[v, u] += w
    col_sums = transition.sum(axis=0)
    for j in range(n):
        if col_sums[j] > 0:
            transition[:, j] /= col_sums[j]
        else:
            neighbors = sorted(
                {v for u, v, _ in edges if u == j} | {u for u, v, _ in edges if v == j}
            )
            for nb in neighbors:
                transition[nb, j] = 1.0 / len(neighbors)
    lhs = np.eye(n) - damping * transition
    return np.linalg.solve(lhs, (1.0 - damping) * c)


def test_grc_rank_of_a_path_puts_the_middle_first():
    net = _net([50.0, 50.0, 50.0], [(0, 1, 10.0), (1, 2, 10.0)])
    rank = grc_rank(net)
    assert abs(rank.sum() - 1.0) < 1e-9
    assert abs(rank[0] - 0.2567567) < 1e-6
    assert abs(rank[1] - 0.4864864) < 1e-6
    assert abs(rank[2] - 0.2567567) < 1e-6
    assert rank[1] > rank[0] == pytest.approx(rank[2])


def test_grc_rank_matches_direct_linear_solve():
    cfg = GeneratorConfig(server_count=15, link_probability=0.3)
    for seed in range(20):
        net = generate_physical_network(cfg, stream(seed, "topology"))
        got = grc_rank(net)
        want = _reference_rank(
            net.cpu_free,
            [(l.u, l.v, free) for l, free in zip(net.links, net.bw_free)],
            net.num_nodes,
        )
        assert np.max(np.abs(got - want)) < 1e-7
        assert abs(got.sum() - 1.0) < 1e-9


def test_grc_rank_spreads_uniformly_from_drained_columns():
    # every link touching node 1 is fully reserved, so its column falls back
    # to a uniform spread and the ranks still sum to 1
    nodes = [PhysicalNode(i, ResourceVector(50.0, 50.0, 50.0)) for i in range(3)]
    links = [PhysicalLink(0, 1, 10.0), PhysicalLink(1, 2, 10.0), PhysicalLink(0, 2, 10.0)]
    net = PhysicalNetwork(nodes, links, bw_free=[0, 0, 10000])
    rank = grc_rank(net)
    want = _reference_rank(
        net.cpu_free,
        [(l.u, l.v, free) for l, free in zip(net.links, net.bw_free)],
        3,
    )
    assert np.max(np.abs(rank - want)) < 1e-7
    assert abs(rank.sum() - 1.0) < 1e-9


def test_grc_rank_symmetry_and_zero_damping():
    twins = _net([50.0, 50.0], [(0, 1, 10.0)])
    rank = grc_rank(twins)
    assert rank == pytest.approx([0.5, 0.5])

    lopsided = _net([30.0, 10.0, 60.0], [(0, 1, 10.0), (1, 2, 10.0)])
    undamped = grc_rank(lopsided, GrcParams(damping=0.0))
    assert undamped == pytest.approx([0.3, 0.1, 0.6])  # d=0 returns plain c


@pytest.mark.parametrize("baseline", ALL_BASELINES)
def test_empty_substrate_reports_the_request_infeasible(baseline):
    out = baseline(PhysicalNetwork([], []), _single_vnr(1.0))
    assert out == LocalEmbedOutcome(False, None, 0, 0)


def test_grc_rank_single_node():
    net = PhysicalNetwork([PhysicalNode(0, ResourceVector(10.0, 1.0, 1.0))], [])
    assert grc_rank(net).tolist() == [1.0]


def test_rank_iteration_cap_raises():
    net = _net([50.0, 50.0, 50.0], [(0, 1, 10.0), (1, 2, 10.0)])
    with pytest.raises(ConvergenceError):
        grc_rank(net, GrcParams(tolerance=1e-15, max_iterations=1))


def test_grc_embed_pairs_high_ranks_hand_traced():
    # substrate path 0-1-2 ranks the middle node first; the heavier virtual
    # node takes it, the lighter one spills to server 0 (rank tie, lower id)
    net = _net([20.0, 7.0, 20.0], [(0, 1, 50.0), (1, 2, 50.0)])
    nodes = [VirtualNode(0, ResourceVector(5.0, 1.0, 1.0)), VirtualNode(1, ResourceVector(3.0, 1.0, 1.0))]
    vnr = Vnr(0, nodes, [VirtualLink(0, 1, 2.0)], 0.0, 5.0)
    out = grc_embed(net, vnr)
    assert out.feasible
    assert out.solution.node_mapping == {0: 1, 1: 0}
    assert out.solution.path_mapping == {0: (1, 0)}
    assert out.solution.revenue == 10.0
    assert out.solution.cost == 10.0


def test_grc_embed_ranks_respond_to_load():
    # drain cpu at the middle node and the embedding shifts away from it
    net = _net([20.0, 7.0, 20.0], [(0, 1, 50.0), (1, 2, 50.0)])
    net.cpu_free[1] = 500
    out = grc_embed(net, _single_vnr(5.0))
    assert out.feasible
    assert out.solution.node_mapping[0] in (0, 2)
