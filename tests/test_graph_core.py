import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from flowsgd import (INFINITY, build_graph, finite_bandwidth_proxy,
                     gomory_hu_tree, leaf_branch_peeling, max_flow_min_cut,
                     min_S_cut, parse_topology, serialize_topology,
                     unit_multigraph)
from flowsgd import topologies

import oracles
from conftest import FIVE_NODE_SPEC, random_graph_spec, spec_edges


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
