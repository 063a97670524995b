import math
import random
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from flowsgd import (build_graph, min_S_cut_multigraph, pack_steiner_trees,
                     unit_multigraph, verify_packing)
from flowsgd.steiner_packing import (SteinerTree, TreePacking,
                                     _detect_torus2d)

import oracles
from conftest import (SWITCH_SPEC, random_graph_spec,
                      random_infinite_links_spec, spec_edges)
from flowsgd import topologies


def _pack(g, S):
    mg = unit_multigraph(g)
    return pack_steiner_trees(mg, tuple(sorted(S))), mg


def test_switch_graph_packs_three_trees(switch_graph):
    packing, mg = _pack(switch_graph, (1, 2, 6))
    report = verify_packing(packing, mg, (1, 2, 6))
    assert report.valid, report.problems
    assert packing.p == 3
    assert packing.alpha == 3
    assert report.ratio == 1.0


def test_switch_graph_multigraph_cut(switch_graph):
    mg = unit_multigraph(switch_graph)
    assert min_S_cut_multigraph(mg, (1, 2, 6)) == 3


def test_multigraph_cut_scales(five_node):
    mg = unit_multigraph(five_node)
    assert min_S_cut_multigraph(mg, five_node.nodes) == 1
    doubled = replace(mg, scale=2 * mg.scale,
                      multiplicity={k: 2 * m
                                    for k, m in mg.multiplicity.items()})
    assert min_S_cut_multigraph(doubled, five_node.nodes) == 2


def test_star_reaches_the_cut_exactly():
    g = topologies.star(6, b=3.0)
    packing, mg = _pack(g, g.nodes)
    assert packing.p == 3 == min_S_cut_multigraph(mg, g.nodes)
    assert verify_packing(packing, mg, g.nodes).valid


def test_torus_packs_four_directional_trees():
    g = topologies.p_torus(5, b=1.0)
    packing, mg = _pack(g, g.nodes)
    assert packing.p == 4
    report = verify_packing(packing, mg, g.nodes)
    assert report.valid, report.problems


def test_shapes_group_copies_by_their_links():
    a0 = SteinerTree(((1, 2, 0), (2, 3, 0)))
    b0 = SteinerTree(((1, 3, 0), (2, 3, 1)))
    a1 = SteinerTree(((1, 2, 1), (2, 3, 2)))
    packing = TreePacking((a0, b0, a1), (1, 2, 3), 1, 2)
    assert packing.shapes() == [(0, 2), (1, 1)]
    assert packing.to_dict()["shapes"] == 2
    # the packer claims each shape's copies together
    g = topologies.p_torus(5, b=2.0)
    packing = pack_steiner_trees(unit_multigraph(g), g.nodes)
    assert packing.p == 8 and len(packing.shapes()) == 4


def test_singleton_terminal_set_is_empty_packing(five_node):
    packing, mg = _pack(five_node, (3,))
    assert packing.p == 0
    assert packing.trees == ()


def test_verifier_catches_duplicate_instance(switch_graph):
    packing, mg = _pack(switch_graph, (1, 2, 6))
    crooked = replace(packing, trees=packing.trees + (packing.trees[0],))
    report = verify_packing(crooked, mg, (1, 2, 6))
    assert not report.valid
    assert any("twice" in p for p in report.problems)


def test_verifier_catches_missing_terminal(switch_graph):
    packing, mg = _pack(switch_graph, (1, 2, 6))
    pruned = replace(packing, trees=packing.trees[:-1] + (
        SteinerTree(tuple(e for e in packing.trees[-1].edges
                          if 6 not in e[:2])),))
    report = verify_packing(pruned, mg, (1, 2, 6))
    assert not report.valid
    assert any("not covered" in p for p in report.problems)


def test_verifier_catches_alien_instance(switch_graph):
    packing, mg = _pack(switch_graph, (1, 2, 6))
    forged = replace(packing, trees=packing.trees[:-1] + (
        SteinerTree(packing.trees[-1].edges[:-1] + ((1, 6, 99),)),))
    report = verify_packing(forged, mg, (1, 2, 6))
    assert not report.valid
    assert any("not in multigraph" in p for p in report.problems)


def test_removing_a_tree_keeps_the_packing_valid(switch_graph):
    packing, mg = _pack(switch_graph, (1, 2, 6))
    for drop in range(packing.p):
        fewer = replace(packing, trees=tuple(
            t for i, t in enumerate(packing.trees) if i != drop))
        assert verify_packing(fewer, mg, (1, 2, 6)).valid


def test_complete_graph_spanning_regime():
    for n in (4, 5, 6, 7):
        g = topologies.all_to_all(n, b=1.0)
        packing, mg = _pack(g, g.nodes)
        assert packing.p >= n // 2
        assert verify_packing(packing, mg, g.nodes).valid


def test_greedy_strategy_agrees_with_verifier(five_node):
    # five_node is no 2-torus: the breadth-first packer
    mg = unit_multigraph(five_node)
    assert _detect_torus2d(mg) is None
    packing, mg = _pack(five_node, five_node.nodes)
    report = verify_packing(packing, mg, five_node.nodes)
    assert report.valid, report.problems
    assert packing.p >= 1


@given(st.integers(min_value=0, max_value=10 ** 6), st.data())
@settings(max_examples=80)
def test_random_packings_verify_and_respect_the_cut(seed, data):
    spec = random_graph_spec(random.Random(seed), n_max=7, w_max=4)
    g = build_graph(spec)
    S = tuple(sorted(data.draw(
        st.sets(st.sampled_from(sorted(g.nodes)), min_size=2))))
    mg = unit_multigraph(g)
    packing = pack_steiner_trees(mg, S)
    report = verify_packing(packing, mg, S)
    assert report.valid, report.problems
    alpha = min_S_cut_multigraph(mg, S)
    assert packing.p <= alpha
    assert packing.p >= 1
    assert packing.p >= math.ceil(alpha / 26)
    # and the multigraph cut really is the scaled bandwidth cut
    ref = oracles.brute_force_min_s_cut(g.nodes, spec_edges(spec), S)
    assert math.isclose(alpha, mg.scale * ref, rel_tol=1e-9)
    # the packer reads the same alpha from g's cut tree
    assert packing.alpha == alpha


@given(st.integers(min_value=0, max_value=10 ** 6), st.data())
@settings(max_examples=60)
def test_packings_over_infinite_links_verify_and_respect_the_cut(seed, data):
    g = build_graph(random_infinite_links_spec(random.Random(seed), w_max=4))
    S = tuple(sorted(data.draw(
        st.sets(st.sampled_from(sorted(g.nodes)), min_size=2))))
    mg = unit_multigraph(g)
    packing = pack_steiner_trees(mg, S)
    assert packing.alpha == min_S_cut_multigraph(mg, S)
    report = verify_packing(packing, mg, S)
    assert report.valid, report.problems
    assert 1 <= packing.p <= packing.alpha


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=40)
def test_shared_tree_alpha_rounds_fractional_bandwidths(seed):
    spec = random_graph_spec(random.Random(seed), n_max=7, w_max=4)
    for link in spec["links"]:
        link["bandwidth"] /= 10  # tenths: the multigraph scale is 5 or 10
    g = build_graph(spec)
    mg = unit_multigraph(g)
    assert mg.scale > 1
    S = g.nodes
    packing = pack_steiner_trees(mg, S)
    assert packing.alpha == min_S_cut_multigraph(mg, S)
    assert isinstance(packing.alpha, int)
