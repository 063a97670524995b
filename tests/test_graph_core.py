import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from flowsgd import (INFINITY, GomoryHuTree, build_graph,
                     finite_bandwidth_proxy, gomory_hu_tree,
                     leaf_branch_peeling, max_flow_min_cut, min_S_cut,
                     parse_topology, serialize_topology, unit_multigraph)
from flowsgd import topologies
from flowsgd.graph_core import _FlowNetwork

import oracles
from conftest import (FIVE_NODE_SPEC, random_graph_spec,
                      random_infinite_links_spec, spec_edges)


def test_build_five_node_graph(five_node):
    assert len(five_node.nodes) == 5
    assert len(five_node.bandwidth) == 10  # both arcs per link
    assert five_node.bandwidth[(2, 1)] == 2.0


def test_build_single_node():
    g = build_graph({"nodes": [{"id": 1, "h": 2.0}], "links": []})
    assert g.nodes == (1,)
    assert g.workers() == (1,)


def test_build_rejects_disconnected():
    spec = {"nodes": [{"id": 1, "h": 1}, {"id": 2, "h": 1},
                      {"id": 3, "h": 1}],
            "links": [{"a": 1, "b": 2, "bandwidth": 1}]}
    with pytest.raises(ValueError):
        build_graph(spec)


def test_build_rejects_bad_bandwidth():
    spec = {"nodes": [{"id": 1, "h": 1}, {"id": 2, "h": 1}],
            "links": [{"a": 1, "b": 2, "bandwidth": 0}]}
    with pytest.raises(ValueError):
        build_graph(spec)


def _two_node_spec(**link):
    return {"nodes": [{"id": 1, "h": 1}, {"id": 2, "h": 1}],
            "links": [{"a": 1, "b": 2, "bandwidth": 1, **link}]}


@pytest.mark.parametrize("latency", [math.nan, math.inf, -1.0])
def test_build_rejects_bad_latency(latency):
    with pytest.raises(ValueError, match="latency"):
        build_graph(_two_node_spec(latency=latency))


def test_build_rejects_bool_node_ids():
    spec = _two_node_spec()
    spec["nodes"][0]["id"] = True
    with pytest.raises(ValueError, match="integer"):
        build_graph(spec)
    # True == 1, so a bool endpoint would alias node 1
    with pytest.raises(ValueError, match="integer"):
        build_graph(_two_node_spec(a=True))


def test_topology_round_trip(five_node):
    text = serialize_topology(five_node)
    again = parse_topology(text)
    assert again == five_node
    assert serialize_topology(again) == text


def test_min_cut_isolates_slow_node(five_node):
    cut = max_flow_min_cut(five_node, 4, 5)
    assert cut.value == 1.0
    assert cut.side in ({4}, {1, 2, 3, 5})


def test_min_cut_value_pair(five_node):
    assert max_flow_min_cut(five_node, 1, 2).value == 3.0


def test_min_cut_triangle():
    g = build_graph({"nodes": [{"id": i, "h": 1} for i in (1, 2, 3)],
                     "links": [{"a": 1, "b": 2, "bandwidth": 1},
                               {"a": 2, "b": 3, "bandwidth": 1},
                               {"a": 1, "b": 3, "bandwidth": 1}]})
    for s, t in ((1, 2), (2, 3), (1, 3)):
        assert max_flow_min_cut(g, s, t).value == 2.0


def test_min_cut_on_a_1500_ring():
    # the augmenting path around the ring is 1499 hops long
    assert max_flow_min_cut(topologies.ring(1500), 1, 2).value == 2.0


def test_min_cut_rejects_equal_endpoints(five_node):
    with pytest.raises(ValueError):
        max_flow_min_cut(five_node, 3, 3)


def test_min_cut_goes_on_past_the_degree_bound_within_rounding():
    # the flow from 1 reaches its degree 1 + 1e-10 up to 1e-9, but the
    # 1e-10 path through 3 is still open
    g = build_graph({"nodes": [{"id": i, "h": 1} for i in (1, 2, 3)],
                     "links": [{"a": 1, "b": 2, "bandwidth": 1},
                               {"a": 1, "b": 3, "bandwidth": 1e-10},
                               {"a": 3, "b": 2, "bandwidth": 1}]})
    cut = max_flow_min_cut(g, 1, 2)
    assert cut.value == 1 + 1e-10
    assert cut.side == {1}
    assert gomory_hu_tree(g) == _reference_gomory_hu(g.undirected())


def test_gh_tree_weight_multiset(five_node):
    tree = gomory_hu_tree(five_node)
    assert tree.weights() == [1.0, 2.0, 2.0, 3.0]


def test_gh_tree_is_built_once_per_graph(five_node):
    tree = gomory_hu_tree(five_node)
    assert gomory_hu_tree(five_node) is tree
    # an undirected view is not cached: each call builds a new tree
    und = five_node.undirected()
    assert gomory_hu_tree(und) == tree
    assert gomory_hu_tree(und) is not gomory_hu_tree(und)


def test_replaced_graph_gets_its_own_tree(five_node):
    tree = gomory_hu_tree(five_node)
    doubled = replace(five_node, bandwidth={
        k: 2 * b for k, b in five_node.bandwidth.items()})
    assert gomory_hu_tree(doubled).edges == tuple(
        (u, v, 2 * w) for u, v, w in tree.edges)
    assert gomory_hu_tree(five_node) is tree


def test_gh_tree_single_node():
    g = build_graph({"nodes": [{"id": 7, "h": 1}], "links": []})
    assert gomory_hu_tree(g).edges == ()


def test_gh_tree_of_path():
    g = build_graph({"nodes": [{"id": i, "h": 1} for i in (1, 2, 3)],
                     "links": [{"a": 1, "b": 2, "bandwidth": 5},
                               {"a": 2, "b": 3, "bandwidth": 7}]})
    tree = gomory_hu_tree(g)
    assert sorted(tree.edges) == [(1, 2, 5.0), (2, 3, 7.0)]


def test_min_S_cut_pair_and_all(five_node):
    assert min_S_cut(five_node, {1, 2}) == 3.0
    assert min_S_cut(five_node, set(five_node.nodes)) == 1.0


def test_min_S_cut_small_S_is_infinite(five_node):
    assert min_S_cut(five_node, {3}) == INFINITY
    assert min_S_cut(five_node, set()) == INFINITY


def test_unit_multigraph_integer_bandwidths(five_node):
    mg = unit_multigraph(five_node)
    assert mg.scale == 1
    assert mg.multiplicity == {k: int(v)
                               for k, v in spec_edges(FIVE_NODE_SPEC).items()}


def test_unit_multigraph_halves():
    g = build_graph({"nodes": [{"id": i, "h": 1} for i in (1, 2, 3)],
                     "links": [{"a": 1, "b": 2, "bandwidth": 0.5},
                               {"a": 2, "b": 3, "bandwidth": 1.5}]})
    mg = unit_multigraph(g)
    assert mg.scale == 2
    assert mg.multiplicity == {(1, 2): 1, (2, 3): 3}


def test_unit_multigraph_thirds_and_sevenths():
    g = build_graph({"nodes": [{"id": i, "h": 1} for i in (1, 2, 3)],
                     "links": [{"a": 1, "b": 2, "bandwidth": 1 / 3},
                               {"a": 2, "b": 3, "bandwidth": 1 / 7}]})
    mg = unit_multigraph(g)
    assert mg.scale == 21
    assert mg.multiplicity == {(1, 2): 7, (2, 3): 3}


def test_unit_multigraph_is_built_once_per_graph(five_node):
    mg = unit_multigraph(five_node)
    assert unit_multigraph(five_node) is mg


def test_unit_multigraph_rejects_infinite():
    g = build_graph({"nodes": [{"id": 1, "h": 1}, {"id": 2, "h": 1}],
                     "links": [{"a": 1, "b": 2, "bandwidth": "inf"}]})
    with pytest.raises(ValueError):
        unit_multigraph(g)


def test_finite_proxy_replaces_infinite_links():
    g = build_graph({"nodes": [{"id": i, "h": 1} for i in (1, 2, 3)],
                     "links": [{"a": 1, "b": 2, "bandwidth": "inf"},
                               {"a": 2, "b": 3, "bandwidth": 0.5}]})
    proxy = finite_bandwidth_proxy(g)
    assert proxy.bandwidth[(1, 2)] == 8.0
    assert proxy.bandwidth[(2, 3)] == 0.5
    # all-finite graphs pass through untouched
    assert finite_bandwidth_proxy(proxy) is proxy
    # built once per graph, so its cut tree is too
    assert finite_bandwidth_proxy(g) is proxy


def test_finite_proxy_needs_a_finite_link():
    g = build_graph({"nodes": [{"id": 1, "h": 1}, {"id": 2, "h": 1}],
                     "links": [{"a": 1, "b": 2, "bandwidth": "inf"}]})
    with pytest.raises(ValueError):
        finite_bandwidth_proxy(g)


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_unit_multigraph_of_infinite_links_is_the_proxys(seed):
    g = build_graph(random_infinite_links_spec(random.Random(seed)))
    proxy = finite_bandwidth_proxy(g)
    assert proxy is not g
    mg = unit_multigraph(g)
    assert mg is unit_multigraph(proxy)
    assert mg.graph is proxy


# -- peeling --

def test_peel_single_node():
    layers, depth = leaf_branch_peeling({1: []})
    assert depth == 1
    assert layers[0].leaves == {1}


def test_peel_three_node_path():
    layers, depth = leaf_branch_peeling({1: [2], 2: [1, 3], 3: [2]})
    assert depth == 1
    assert layers[0].leaves == {1, 3}
    assert layers[0].branches == {2}


def test_peel_star():
    adj = {0: [1, 2, 3, 4, 5]}
    adj.update({i: [0] for i in range(1, 6)})
    layers, depth = leaf_branch_peeling(adj)
    assert depth == 2
    assert layers[0].leaves == {1, 2, 3, 4, 5}
    assert layers[1].leaves == {0}


def test_peel_rejects_cycle():
    with pytest.raises(ValueError):
        leaf_branch_peeling({1: [2, 3], 2: [1, 3], 3: [1, 2]})


def _random_tree(rng, n):
    adj = {1: []}
    for v in range(2, n + 1):
        u = rng.randint(1, v - 1)
        adj.setdefault(u, []).append(v)
        adj[v] = [u]
    return adj


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_peel_layers_partition_the_tree(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 60)
    adj = _random_tree(rng, n)
    layers, depth = leaf_branch_peeling(adj)
    seen = set()
    for layer in layers:
        assert not (layer.leaves & seen)
        assert not (layer.branches & seen)
        seen |= layer.leaves | layer.branches
    assert seen == set(adj)
    assert depth <= math.floor(math.log2(n + 2))


# -- properties against the brute-force oracles --

@given(st.integers(min_value=0, max_value=10 ** 6))
def test_gh_edges_are_exact_min_cuts(seed):
    spec = random_graph_spec(random.Random(seed))
    g = build_graph(spec)
    edges = spec_edges(spec)
    tree = gomory_hu_tree(g)
    for u, v, w in tree.edges:
        ref, _ = oracles.brute_force_min_cut(g.nodes, edges, u, v)
        assert w == ref


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_gh_path_minimum_matches_every_pair(seed):
    spec = random_graph_spec(random.Random(seed))
    g = build_graph(spec)
    edges = spec_edges(spec)
    tree = gomory_hu_tree(g)
    mat = oracles.brute_force_all_pairs(g.nodes, edges)
    for u in g.nodes:
        for v in g.nodes:
            if u < v:
                assert tree.path_min_weight(u, v) == mat[(u, v)]


@given(st.integers(min_value=0, max_value=10 ** 6), st.data())
def test_min_S_cut_matches_enumeration(seed, data):
    spec = random_graph_spec(random.Random(seed))
    g = build_graph(spec)
    S = data.draw(st.sets(st.sampled_from(sorted(g.nodes)), min_size=2))
    got = min_S_cut(g, S)
    ref = oracles.brute_force_min_s_cut(g.nodes, spec_edges(spec), S)
    assert got == ref


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_multigraph_scales_cuts(seed):
    rng = random.Random(seed)
    spec = random_graph_spec(rng)
    for ls in spec["links"]:
        ls["bandwidth"] = ls["bandwidth"] / 4
    g = build_graph(spec)
    mg = unit_multigraph(g)
    S = set(g.nodes)
    ref = oracles.brute_force_min_s_cut(g.nodes, spec_edges(spec), S)
    scaled = oracles.brute_force_min_s_cut(
        g.nodes, {k: float(m) for k, m in mg.multiplicity.items()}, S)
    assert math.isclose(scaled, mg.scale * ref, rel_tol=1e-9)


# -- the shared residual network against one network per flow --

def _reference_gomory_hu(und):
    """Gusfield's method with one max_flow_min_cut, on a fresh network,
    per pair: what gomory_hu_tree did before its flows shared one."""
    nodes = sorted(und.nodes)
    parent = {v: nodes[0] for v in nodes[1:]}
    weight = {}
    for v in nodes[1:]:
        cut = max_flow_min_cut(und, v, parent[v])
        weight[v] = cut.value
        for u in nodes:
            if u != v and u in cut.side and parent.get(u) == parent[v]:
                parent[u] = v
        p = parent[v]
        if p in parent and parent[p] in cut.side:
            parent[v] = parent[p]
            parent[p] = v
            weight[v] = weight[p]
            weight[p] = cut.value
    edges = tuple(sorted((min(v, p), max(v, p), weight[v])
                         for v, p in parent.items()))
    return GomoryHuTree(tuple(nodes), edges)


@pytest.mark.parametrize("make", [
    lambda: topologies.p_torus(10),
    lambda: topologies.star(200),
    lambda: topologies.k_clusters(60, 6, b_slow=0.1, b_fast=10.0),
    lambda: topologies.k_clusters(30, 3, b_slow=0.1),  # infinite links
], ids=["torus:10x10", "star:200", "clusters:60x6", "clusters:30x3:inf"])
def test_gh_tree_matches_one_network_per_flow(make):
    g = make()
    assert gomory_hu_tree(g) == _reference_gomory_hu(g.undirected())


def _scaled_spec(seed, scale, n_max=10):
    spec = random_graph_spec(random.Random(seed), n_max=n_max)
    for ls in spec["links"]:
        ls["bandwidth"] *= scale
    return spec


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from([0.1, 1 / 3, 0.7]), st.data())
def test_gh_tree_matches_one_network_per_flow_on_random_graphs(seed, scale,
                                                               data):
    # fractional bandwidths make float sums miss the degree bound exactly
    spec = _scaled_spec(seed, scale)
    links = spec["links"]
    links[data.draw(st.integers(0, len(links) - 1))]["bandwidth"] = "inf"
    und = build_graph(spec).undirected()
    assert gomory_hu_tree(und) == _reference_gomory_hu(und)


def _networkx_path_minima(nx, g):
    # networkx's flows can cut wrongly on float capacities, so it gets
    # the integral rescaling and its cut values are scaled back
    mg = unit_multigraph(g)
    graph = nx.Graph()
    for (u, v), copies in mg.multiplicity.items():
        graph.add_edge(u, v, weight=copies)
    tree = nx.gomory_hu_tree(graph, capacity="weight")
    minima = {}
    for u in g.nodes:
        for v, path in nx.single_source_shortest_path(tree, u).items():
            if u < v:
                minima[(u, v)] = min(tree[a][b]["weight"]
                                     for a, b in zip(path, path[1:]))
    return {pair: copies / mg.scale for pair, copies in minima.items()}


@pytest.mark.parametrize("make", [
    lambda: topologies.p_torus(8),
    lambda: topologies.k_clusters(60, 6, b_slow=0.1, b_fast=10.0),
], ids=["torus:8x8", "clusters:60x6"])
def test_gh_path_minima_match_networkx(make):
    nx = pytest.importorskip("networkx")
    g = make()
    tree = gomory_hu_tree(g)
    for (u, v), ref in _networkx_path_minima(nx, g).items():
        assert math.isclose(tree.path_min_weight(u, v), ref, rel_tol=1e-9)


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from([0.1, 1 / 3, 0.7, 1]))
def test_gh_path_minima_match_networkx_on_random_graphs(seed, scale):
    nx = pytest.importorskip("networkx")
    g = build_graph(_scaled_spec(seed, scale, n_max=14))
    tree = gomory_hu_tree(g)
    for (u, v), ref in _networkx_path_minima(nx, g).items():
        assert math.isclose(tree.path_min_weight(u, v), ref, rel_tol=1e-9)


# -- flows to a super-sink of earlier certified sources --

@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=3))
def test_gh_tree_matches_one_network_per_flow_under_degree_ties(seed, w_max):
    # small integer weights: many cuts weigh exactly the source's degree,
    # where an earlier source joins the super-sink
    und = build_graph(random_graph_spec(random.Random(seed), n_max=12,
                                        w_max=w_max)).undirected()
    assert gomory_hu_tree(und) == _reference_gomory_hu(und)


def _two_tori_joined():
    # 16 reaches 1 through its own torus only: its cut to 1 is 4, below
    # its degree 5, so no earlier source may join 1 as a sink
    torus = topologies.p_torus(4)
    links = [{"a": i + k, "b": j + k, "bandwidth": 1}
             for (i, j) in torus.bandwidth if i < j for k in (0, 16)]
    links.append({"a": 16, "b": 17, "bandwidth": 1})
    return build_graph({"nodes": [{"id": i, "h": 1} for i in range(1, 33)],
                        "links": links})


@pytest.mark.parametrize("make", [
    _two_tori_joined,
    lambda: topologies.ring(40),
    lambda: topologies.star(60),
    lambda: topologies.k_clusters(40, 4, b_slow=0.1, b_fast=10.0),
], ids=["two-tori", "ring:40", "star:60", "clusters:40x4"])
def test_gh_tree_matches_one_network_per_flow_where_sinks_stay_alone(make):
    und = make().undirected()
    assert gomory_hu_tree(und) == _reference_gomory_hu(und)


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from([0.1, 1 / 3, 0.7]), st.data())
def test_min_cut_value_is_the_sum_of_the_links_leaving_its_side(seed, scale,
                                                               data):
    spec = _scaled_spec(seed, scale)
    g = build_graph(spec)
    s, t = data.draw(st.lists(st.sampled_from(g.nodes), min_size=2,
                              max_size=2, unique=True))
    cut = max_flow_min_cut(g, s, t)
    assert s in cut.side and t not in cut.side
    assert cut.value == math.fsum(
        ls["bandwidth"] for ls in spec["links"]
        if (ls["a"] in cut.side) != (ls["b"] in cut.side))


@pytest.mark.parametrize("side", [10, 20])
def test_torus_flows_stop_at_a_processed_neighbour(side, monkeypatch):
    # without the super-sink each flow searches across the torus to
    # node 1: 176 queued nodes per flow on 10x10, 583 on 20x20
    queued = []
    levels = _FlowNetwork._levels

    def counted(net, s, t):
        level, queue = levels(net, s, t)
        queued.append(len(queue))
        return level, queue

    monkeypatch.setattr(_FlowNetwork, "_levels", counted)
    g = topologies.p_torus(side)
    gomory_hu_tree(g.undirected())
    assert sum(queued) <= 40 * (len(g.nodes) - 1)
