import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from flowsgd import (INFINITY, ProblemParams, build_graph, grace_complexity,
                     hero_sgd_complexity, iteration_count,
                     leon_complexity, min_S_cut, sync_sgd_complexity,
                     topology_closed_form, tradeoff_bounds)
from flowsgd import topologies

from conftest import random_graph_spec, assert_close


def params(d=100.0, sigma2=1.0, epsilon=0.1, L=1.0, delta=1.0):
    return ProblemParams(d=d, sigma2=sigma2, epsilon=epsilon, L=L,
                         delta=delta)


def test_iteration_count_modes():
    p = params(delta=8.0)
    assert iteration_count(p, "constants") == 320.0
    assert iteration_count(p, "asymptotic") == 80.0
    with pytest.raises(ValueError):
        iteration_count(p, "big-O")


def test_report_to_dict_round_trip():
    rep = sync_sgd_complexity(topologies.star(3), params())
    d = rep.to_dict()
    assert d["method"] == "sync"
    assert d["total"] == rep.total
    assert set(d["terms"]) == set(rep.terms)


# == per-method calculators ==

def test_grace_single_node_equals_hero():
    g = build_graph({"nodes": [{"id": 1, "h": 2.0}], "links": []})
    for mode in ("constants", "asymptotic"):
        gr = grace_complexity(g, params(sigma2=1.0, epsilon=0.1), mode=mode)
        he = hero_sgd_complexity(params(sigma2=1.0, epsilon=0.1), {1: 2.0},
                                 mode=mode)
        assert_close(gr.total, he.total)
        assert gr.terms["communication"] == 0.0


def test_grace_degenerate_problem_is_fastest_worker(five_node):
    p = params(d=0.0, sigma2=0.0, epsilon=0.5)
    rep = grace_complexity(five_node, p)
    k = iteration_count(p, "constants")
    assert rep.terms == {"communication": 0.0, "deterministic": k,
                         "statistical": 0.0}
    assert rep.total == k  # h_min = 1


def test_leon_star_terms():
    p = params(d=60.0, sigma2=2.0, epsilon=0.1)
    g = topologies.star(4, b=2.0)
    rep = leon_complexity(g, p)
    k = iteration_count(p, "constants")
    assert rep.combine == "max"
    assert_close(rep.terms["communication"], 60.0 / 2.0 * k)
    assert_close(rep.terms["compute"], 1.0 * k)
    assert_close(rep.terms["statistical"], (20.0 / 4) * 1.0 * k)
    assert_close(rep.total, max(rep.terms.values()))


def test_leon_cluster_ring_pays_the_slow_links():
    p = params(d=100.0)
    g = topologies.k_clusters(12, 3, b_slow=0.25, b_fast=8.0)
    rep = leon_complexity(g, p)
    k = iteration_count(p, "constants")
    # three clusters => the separating cut crosses two slow links
    assert_close(rep.terms["communication"],
                 100.0 / min_S_cut(g, g.nodes) * k)
    assert_close(rep.terms["communication"], 100.0 / 0.5 * k)


def test_leon_compute_bound_alone():
    g = topologies.star(4, h=3.0)
    p = params(d=0.0, sigma2=0.0)
    rep = leon_complexity(g, p)
    assert rep.total == 3.0 * iteration_count(p, "constants")


def test_leon_worker_subset_variant():
    g = topologies.star(4, b=2.0)
    p = params()
    rep = leon_complexity(g, p, workers=(2, 3))
    assert_close(rep.terms["communication"],
                 p.d / min_S_cut(g, (2, 3)) * iteration_count(p, "constants"))
    with pytest.raises(ValueError):
        leon_complexity(g, p, workers=(2, 99))
    switch = dataclasses.replace(g, h={1: INFINITY, 2: 1.0, 3: 1.0, 4: 1.0})
    with pytest.raises(ValueError):
        leon_complexity(switch, p, workers=(1, 2))


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=40)
def test_leon_cut_term_is_the_global_min_cut(seed):
    rng = random.Random(seed)
    g = build_graph(random_graph_spec(rng, n_max=6))
    p = params(d=50.0)
    rep = leon_complexity(g, p)
    k = iteration_count(p, "constants")
    assert_close(rep.terms["communication"],
                 50.0 / min_S_cut(g, g.nodes) * k)


def test_sync_five_node_bottleneck(five_node):
    p = params(d=30.0, sigma2=2.0, epsilon=0.1)
    rep = sync_sgd_complexity(five_node, p)
    factor = iteration_count(p, "constants") * (1.0 + 20.0 / 5)
    assert_close(rep.terms["communication"], 30.0 / 1.0 * factor)
    assert_close(rep.terms["compute"], 1.0 * factor)


def test_sync_noiseless_form(five_node):
    p = params(d=30.0, sigma2=0.0)
    rep = sync_sgd_complexity(five_node, p)
    assert_close(rep.total,
                 (30.0 / 1.0 + 1.0) * iteration_count(p, "constants"))


def test_sync_ignores_non_minimal_bandwidth(five_node):
    p = params()
    bumped = dict(five_node.bandwidth)
    for e in ((1, 2), (2, 1)):
        bumped[e] *= 2
    g2 = dataclasses.replace(five_node, bandwidth=bumped)
    assert sync_sgd_complexity(g2, p).total == \
        sync_sgd_complexity(five_node, p).total


def test_hero_two_workers_example():
    p = ProblemParams(d=5.0, sigma2=10.0, epsilon=1.0, L=1.0, delta=1.0)
    rep = hero_sgd_complexity(p, (2.0, 5.0), mode="asymptotic")
    assert rep.total == 22.0
    assert rep.regime == "h_min=2.0"


def test_hero_noiseless():
    p = params(sigma2=0.0)
    rep = hero_sgd_complexity(p, {1: 3.0, 2: 7.0})
    assert rep.total == 3.0 * iteration_count(p, "constants")
    with pytest.raises(ValueError):
        hero_sgd_complexity(p, {1: INFINITY})


# == closed forms vs the general calculator ==

COOP = params(d=1.0, sigma2=2.0, epsilon=0.1)
SOLO = params(d=1e7, sigma2=2.0, epsilon=0.1)

CLOSED_FORM_CASES = [
    ("star", COOP, topologies.star(6, b=2.0),
     dict(n=6, b=2.0, h=1.0), "cooperate"),
    ("star", SOLO, topologies.star(6, b=2.0),
     dict(n=6, b=2.0, h=1.0), "solo"),
    ("p_torus", COOP, topologies.p_torus(5),
     dict(n=25, b=1.0, h=1.0, p=2), "cooperate"),
    ("p_torus", SOLO, topologies.p_torus(5),
     dict(n=25, b=1.0, h=1.0, p=2), "solo"),
    ("all_to_all", COOP, topologies.all_to_all(5, b=0.5),
     dict(n=5, b=0.5, h=1.0), "cooperate"),
    ("all_to_all", SOLO, topologies.all_to_all(5, b=0.5),
     dict(n=5, b=0.5, h=1.0), "solo"),
    ("k_clusters", COOP, topologies.k_clusters(12, 3, b_slow=4.0),
     dict(n=12, clusters=3, b_slow=4.0, h=1.0), "cooperate"),
    ("k_clusters", SOLO, topologies.k_clusters(12, 3, b_slow=0.001),
     dict(n=12, clusters=3, b_slow=0.001, h=1.0), "solo"),
    ("k_clusters", COOP,
     topologies.k_clusters(12, 3, b_slow=4.0, h=[1.0, 2.0, 4.0]),
     dict(n=12, clusters=3, b_slow=4.0, cluster_h=[1.0, 2.0, 4.0]),
     "cooperate"),
    ("k_clusters", SOLO,
     topologies.k_clusters(12, 3, b_slow=0.5, h=[1.0, 2.0, 4.0]),
     dict(n=12, clusters=3, b_slow=0.5, cluster_h=[1.0, 2.0, 4.0]),
     "solo"),
]


@pytest.mark.parametrize("kind,p,g,kw,regime", CLOSED_FORM_CASES)
def test_closed_form_matches_general_calculator(kind, p, g, kw, regime):
    closed = topology_closed_form(kind, p, **kw)
    general = grace_complexity(g, p, mode="constants")
    assert closed.regime == regime
    for term, value in closed.terms.items():
        assert_close(value, general.terms[term])
    assert_close(closed.total, general.total)


def test_closed_form_argument_validation():
    p = params()
    with pytest.raises(ValueError):
        topology_closed_form("moebius", p, n=4, b=1.0, h=1.0)
    with pytest.raises(ValueError):
        topology_closed_form("star", p, n=1, b=1.0, h=1.0)
    with pytest.raises(ValueError, match="missing topology parameters"):
        topology_closed_form("p_torus", p, n=9, b=1.0, h=1.0)
    with pytest.raises(ValueError):
        topology_closed_form("k_clusters", p, n=10, clusters=3, b_slow=1.0,
                             h=1.0)
    with pytest.raises(ValueError):
        topology_closed_form("k_clusters", p, n=12, clusters=3, b_slow=1.0,
                             cluster_h=[1.0, 2.0])


# == degree-statistics bounds ==

def test_tradeoff_ring_degrees_collapse():
    rep = tradeoff_bounds(topologies.ring(6), params(d=4.0, sigma2=1.0))
    assert set(rep.k_of_m.values()) == {2}
    assert rep.by_degree < rep.solo  # cooperation helps on a cheap vector
    assert rep.by_degree <= rep.solo and rep.by_count <= rep.solo


def test_tradeoff_complete_graph_degrees():
    rep = tradeoff_bounds(topologies.all_to_all(5), params(d=4.0))
    assert set(rep.k_of_m.values()) == {4}
    assert set(rep.n_of_m.values()) == {5}


def test_tradeoff_star_degree_sequence():
    rep = tradeoff_bounds(topologies.star(6), params(d=4.0))
    assert rep.k_of_m[2] == 1
    assert rep.n_of_m[1] == 6
    assert rep.n_of_m[2] == 1


def test_tradeoff_requires_uniformity(five_node):
    with pytest.raises(ValueError):
        tradeoff_bounds(five_node, params())  # mixed bandwidths
    g = topologies.ring(4)
    slow = dataclasses.replace(g, h={1: 1.0, 2: 2.0, 3: 1.0, 4: 1.0})
    with pytest.raises(ValueError):
        tradeoff_bounds(slow, params())


# == cross-method dominance ==

@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=60)
def test_grace_never_slower_than_sync_or_hero(seed):
    rng = random.Random(seed)
    g = build_graph(random_graph_spec(rng, n_max=6))
    p = params(d=rng.choice([1.0, 50.0, 2000.0]),
               sigma2=rng.choice([0.0, 1.0, 8.0]))
    grace = grace_complexity(g, p).total
    assert grace <= sync_sgd_complexity(g, p).total * (1 + 1e-9)
    assert grace <= hero_sgd_complexity(p, g.h).total * (1 + 1e-9)
