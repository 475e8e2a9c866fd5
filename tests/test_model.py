import pytest

from devine import (
    PhysicalLink,
    PhysicalNetwork,
    PhysicalNode,
    ResourceVector,
    VirtualLink,
    VirtualNode,
    Vnr,
    from_milli,
    to_milli,
)
from oracles import connected, copy_network


def test_milli_round_trip():
    assert to_milli(10.0) == 10000
    assert to_milli(0.1) == 100
    assert to_milli(1234.5678) == 1234568  # rounds, not truncates
    assert from_milli(25000) == 25.0


def test_resource_vector_quantizes_to_three_decimals():
    rv = ResourceVector(cpu=0.1 + 0.2, memory=1.0005, gpu=0.0)
    assert rv.cpu_m == 300
    assert rv.memory_m == 1000 or rv.memory_m == 1001  # banker's rounding boundary
    assert rv.gpu_m == 0


def test_resource_vector_rejects_negative():
    with pytest.raises(ValueError):
        ResourceVector(cpu=-1.0)
    with pytest.raises(ValueError):
        ResourceVector(1, -0.001, 0)


def test_physical_node_residual_defaults_to_capacity():
    node = PhysicalNode(0, ResourceVector(10, 20, 30))
    net = PhysicalNetwork([node], [])
    assert (net.cpu_free, net.memory_free, net.gpu_free) == ([10000], [20000], [30000])
    with pytest.raises(ValueError):
        PhysicalNetwork([PhysicalNode(0, ResourceVector(10))], [], cpu_free=[10001])
    with pytest.raises(ValueError):
        PhysicalNetwork([PhysicalNode(0, ResourceVector(10))], [], gpu_free=[-1])
    with pytest.raises(ValueError):
        PhysicalNetwork([PhysicalNode(0, ResourceVector(10))], [], memory_free=[0, 0])


def test_physical_link_normalizes_and_validates():
    link = PhysicalLink(5, 2, 100.0)
    assert (link.u, link.v) == (2, 5)
    assert link.bw_capacity_m == 100000
    nodes = [PhysicalNode(i, ResourceVector(1)) for i in range(6)]
    assert PhysicalNetwork(nodes, [link]).bw_free == [100000]
    with pytest.raises(ValueError):
        PhysicalLink(1, 1, 10.0)
    with pytest.raises(ValueError):
        PhysicalNetwork(nodes, [PhysicalLink(0, 1, 10.0)], bw_free=[10001])


def _triangle():
    nodes = [PhysicalNode(i, ResourceVector(100, 100, 100)) for i in range(3)]
    links = [PhysicalLink(0, 1, 50), PhysicalLink(1, 2, 60), PhysicalLink(0, 2, 70)]
    return PhysicalNetwork(nodes, links)


def test_network_rejects_bad_structure():
    nodes = [PhysicalNode(i, ResourceVector(1)) for i in range(2)]
    with pytest.raises(ValueError):
        PhysicalNetwork(nodes, [PhysicalLink(0, 1, 1), PhysicalLink(1, 0, 1)])
    with pytest.raises(ValueError):
        PhysicalNetwork(nodes, [PhysicalLink(0, 2, 1)])
    with pytest.raises(ValueError):
        PhysicalNetwork([PhysicalNode(1, ResourceVector(1))], [])


def test_network_adjacency_and_lookup():
    net = _triangle()
    assert net.neighbors(0) == [1, 2]
    assert net.neighbors(1) == [0, 2]
    assert net.adjacency[0].get(1) == net.adjacency[1].get(0) == 0
    assert net.links[net.adjacency[2].get(1)].bw_capacity_m == 60000
    assert net.adjacency[0].get(0) is None


def _is_connected(graph):
    return connected(graph.num_nodes, graph.adjacency)


def test_network_connectivity():
    assert _is_connected(_triangle())
    nodes = [PhysicalNode(i, ResourceVector(1)) for i in range(3)]
    net = PhysicalNetwork(nodes, [PhysicalLink(0, 1, 1)])
    assert not _is_connected(net)
    assert _is_connected(PhysicalNetwork([PhysicalNode(0, ResourceVector(1))], []))


def test_network_built_from_residuals_is_independent():
    net = _triangle()
    net.cpu_free[1] = 5
    net.bw_free[2] = 6
    twin = copy_network(net)
    assert twin.cpu_free == [100000, 5, 100000]  # carries the current residuals
    assert twin.bw_free == [50000, 60000, 6]
    twin.cpu_free[0] = twin.memory_free[0] = twin.gpu_free[0] = 1
    twin.bw_free[0] = 7
    assert (net.cpu_free, net.memory_free, net.gpu_free) == (
        [100000, 5, 100000], [100000] * 3, [100000] * 3
    )
    assert net.bw_free == [50000, 60000, 6]
    net.gpu_free[2] = 8
    net.bw_free[1] = 9
    assert twin.gpu_free == [1, 100000, 100000]
    assert twin.bw_free == [7, 60000, 6]


def _small_vnr(request_id=0, bw=5.0, lifetime=10.0, arrival=0.0):
    nodes = [VirtualNode(0, ResourceVector(10, 30, 10)), VirtualNode(1, ResourceVector(20, 30, 10))]
    links = [VirtualLink(0, 1, bw)]
    return Vnr(request_id, nodes, links, arrival, lifetime)


def test_vnr_validation():
    with pytest.raises(ValueError):
        Vnr(0, [], [], 0.0, 1.0)
    with pytest.raises(ValueError):
        _small_vnr(lifetime=0.0)
    with pytest.raises(ValueError):
        Vnr(0, [VirtualNode(1, ResourceVector())], [], 0.0, 1.0)
    with pytest.raises(ValueError):
        Vnr(0, [VirtualNode(0, ResourceVector())], [], -1.0, 1.0)


def test_vnr_adjacency_and_incident_bandwidth():
    vnr = _small_vnr(bw=5.0)
    assert vnr.adjacency[0] == {1: 0}
    assert vnr.links[vnr.adjacency[0][1]].bw_demand_m == 5000
    assert _is_connected(vnr)
    lonely = Vnr(1, [VirtualNode(0, ResourceVector(1)), VirtualNode(1, ResourceVector(1))], [], 0.0, 1.0)
    assert not _is_connected(lonely)


def test_vnr_fingerprint_tracks_every_field():
    base = _small_vnr()
    assert base.fingerprint() == _small_vnr().fingerprint()
    assert base.fingerprint() != _small_vnr(request_id=1).fingerprint()
    assert base.fingerprint() != _small_vnr(bw=5.001).fingerprint()
    assert base.fingerprint() != _small_vnr(lifetime=10.5).fingerprint()
    assert base.fingerprint() != _small_vnr(arrival=0.5).fingerprint()
