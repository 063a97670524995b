"""The reverse-merge subset search against the forward peel it replaced.

``_reference_peel`` is the earlier O(n^2) loop, kept here as the
reference: at every step it rebuilds each forest component with a fresh
union-find over the remaining tree edges and scores all of them.  Every
step of ``find_fastest_subset`` must agree with it exactly (``==``, not
approximately): components, best subset, best score and removed edge,
and the chosen subset.
"""

import math
import random

from hypothesis import given, strategies as st

from flowsgd import (INFINITY, ProblemParams, SubsetChoice, build_graph,
                     find_fastest_subset, gomory_hu_tree,
                     harmonic_batch_term, topologies)

from conftest import random_graph_spec


def _forest(nodes, edges):
    parent = {v: v for v in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups = {}
    for v in nodes:
        groups.setdefault(find(v), []).append(v)
    return sorted((tuple(sorted(g)) for g in groups.values()),
                  key=lambda c: c[0])


def _reference_peel(g, params):
    """Forward peel: every step scores every component from scratch.

    Returns the choice and one ``(k, weight, components, best_subset,
    best_score, removed_edge)`` tuple per step.
    """
    tree = gomory_hu_tree(g)
    nodes = tree.nodes
    n = len(nodes)
    order = tree.sorted_edges()
    h = g.h
    steps = []
    best_choice = None
    terms = {}
    remaining = [(u, v) for u, v, _ in order]
    for k in range(1, n + 1):
        weight = order[k - 1][2] if k <= n - 1 else INFINITY
        comps = _forest(nodes, remaining)
        comm = 0.0 if weight == INFINITY else params.d / weight
        step_best = None
        for comp in comps:
            if comp not in terms:
                terms[comp] = harmonic_batch_term(params.ratio, comp, h) \
                    if any(math.isfinite(h[i]) for i in comp) else None
            if terms[comp] is None:
                continue
            score = comm + terms[comp]
            key = (score, -len(comp), comp[0])
            if step_best is None or key < step_best[0]:
                step_best = (key, comp, score)
        removed = remaining.pop(0) if k <= n - 1 else None
        if step_best is None:
            steps.append((k, weight, tuple(comps), (), INFINITY, removed))
            continue
        _, comp, score = step_best
        steps.append((k, weight, tuple(comps), comp, score, removed))
        if best_choice is None or score < best_choice.score:
            best_choice = SubsetChoice(comp, k, score, weight)
    return best_choice, steps


def assert_matches_reference(g, params):
    choice, trace = find_fastest_subset(g, params)
    ref_choice, ref_steps = _reference_peel(g, params)
    assert choice == ref_choice
    got = [(s.k, s.weight, s.components, s.best_subset, s.best_score,
            s.removed_edge) for s in trace.steps]
    assert got == ref_steps
    for s in trace.steps:
        if s.best is not None:
            assert s.best == (s.best_subset[0], len(s.best_subset))
    return choice, trace


def params(d, ratio):
    return ProblemParams(d=d, sigma2=ratio, epsilon=1.0, L=1.0, delta=1.0)


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_random_graphs_match_the_forward_peel(seed):
    # few distinct weights and h values, so equal cut weights and equal
    # batch terms (score ties) are common; some nodes are switches
    rng = random.Random(seed)
    spec = random_graph_spec(rng, n_max=40, w_max=4, h_max=3)
    for node in spec["nodes"][1:]:
        if rng.random() < 0.15:
            node["h"] = "inf"
    g = build_graph(spec)
    p = params(rng.choice([0.0, 1.0, 10.0, 200.0, 1e6]),
               rng.choice([0.0, 0.5, 4.0, 50.0]))
    assert_matches_reference(g, p)


def _repeated_h(g, rng, values):
    return type(g)(g.nodes, {v: rng.choice(values) for v in g.nodes},
                   g.bandwidth, g.latency)


def test_generator_graphs_match_the_forward_peel():
    rng = random.Random(7)
    graphs = [
        topologies.star(40),
        topologies.star(25, b=3.0),
        topologies.ring(30),
        topologies.p_torus(5),
        topologies.k_clusters(30, 3, b_slow=0.1),
        topologies.k_clusters(24, 4, b_slow=0.5, b_fast=10.0),
    ]
    for g in graphs:
        for h_values in ((1.0,), (0.5, 1.0, 2.0)):
            jittered = _repeated_h(g, rng, h_values)
            for d, ratio in ((100.0, 10.0), (1000.0, 1000.0), (1.0, 0.0),
                             (1e9, 1.0)):
                assert_matches_reference(jittered, params(d, ratio))


def _tied_step(spec, d):
    g = build_graph(spec)
    p = params(d, 0.0)
    _, trace = assert_matches_reference(g, p)
    step = trace.steps[1]
    comm = d / step.weight
    terms = [harmonic_batch_term(0.0, c, g.h) for c in step.components]
    assert terms[0] != terms[1]
    assert comm + terms[0] == comm + terms[1]
    return step, terms


def test_float_ties_prefer_size_then_min_node():
    # step 2 splits off at w = 5, so d / w = 2e17 and its ulp is 32:
    # batch terms 1, 2 and 3 round to one score, and the rule decides
    path = {"nodes": [{"id": 1, "h": 1.0}, {"id": 2, "h": 2.0},
                      {"id": 3, "h": 2.0}],
            "links": [{"a": 1, "b": 2, "bandwidth": 5.0},
                      {"a": 2, "b": 3, "bandwidth": 9.0}]}
    step, terms = _tied_step(path, 1e18)
    assert step.components == ((1,), (2, 3))
    assert terms[0] < terms[1]
    assert step.best_subset == (2, 3)  # the larger subset, not the term

    pairs = {"nodes": [{"id": 1, "h": 3.0}, {"id": 2, "h": 3.0},
                       {"id": 3, "h": 1.0}, {"id": 4, "h": 1.0}],
             "links": [{"a": 1, "b": 2, "bandwidth": 9.0},
                       {"a": 2, "b": 3, "bandwidth": 5.0},
                       {"a": 3, "b": 4, "bandwidth": 9.0}]}
    step, terms = _tied_step(pairs, 1e18)
    assert step.components == ((1, 2), (3, 4))
    assert terms[0] > terms[1]
    assert step.best_subset == (1, 2)  # equal sizes: the smaller min node
