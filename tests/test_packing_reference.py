"""The breadth-first packer against the constructions it replaced.

``_pack_star``, ``_pack_ring`` and ``_pack_complete`` are the earlier
specialized packers, kept here verbatim as references.  On stars the
breadth-first packer must build the same trees (``==``); on rings the
same number of trees and, on the full ring, the same AllReduce time; on
cliques it must reach the min S-cut with trees of depth at most 2, where
the zigzag paths reached about half of it.  No path may return more
trees than the vector has coordinates.

``_bfs_trees_one_copy`` is the breadth-first packer as it was before it
claimed copies in bulk, searching once per tree; the packer must build
the same trees.
"""

import math
import random
from collections import Counter, deque
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from flowsgd import (SteinerTree, build_graph,
                     min_S_cut_multigraph, orient_to_pivot,
                     pack_steiner_trees, run_allreduce, topologies,
                     unit_multigraph, verify_packing)
from flowsgd.steiner_packing import _bfs_trees

from conftest import random_graph_spec

BANDWIDTHS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


# == the earlier constructions ==

def _pack_star(mg, S, hub, pivot):
    leaves = [s for s in S if s != hub]
    copies = min(mg.multiplicity[(min(hub, v), max(hub, v))] for v in leaves)
    trees = []
    for c in range(copies):
        edges = tuple(sorted((min(hub, v), max(hub, v), c) for v in leaves))
        trees.append(SteinerTree(edges))
    return trees


def _pack_ring(mg, order, pivot):
    n = len(order)
    pos = order.index(pivot)
    ring = order[pos:] + order[:pos]  # ring[0] == pivot
    copies = min(mg.multiplicity.values())
    trees = []
    for c in range(copies):
        # clockwise: every node forwards to its successor until the pivot
        cw = [(ring[i], ring[(i + 1) % n]) for i in range(1, n)]
        # counterclockwise: forward to the predecessor
        ccw = [(ring[(i + 1) % n], ring[i]) for i in range(0, n - 1)]
        for arcs in (cw, ccw):
            edges = tuple(sorted(
                (min(a, b), max(a, b), c) for a, b in arcs))
            trees.append(SteinerTree(edges))
    return trees


def _pack_complete(mg, copies, pivot):
    """Zigzag Hamiltonian-path decomposition rooted for any pivot.

    For even n the n/2 zigzag paths on Z_n partition the edge set; for odd
    n the (n-1)/2 zigzags on Z_{n-1} are closed into cycles through the
    leftover vertex and one closing edge is dropped.  Spanning paths are
    Steiner trees for every terminal set.
    """
    nodes = sorted(mg.nodes)
    n = len(nodes)
    trees = []

    def zigzag(start, ring_size):
        seq = [start]
        for t in range(1, ring_size):
            delta = (t + 1) // 2 if t % 2 else -(t // 2)
            seq.append((start + delta) % ring_size)
        return seq

    if n % 2 == 0:
        paths = []
        for j in range(n // 2):
            seq = [nodes[i] for i in zigzag(j, n)]
            paths.append(list(zip(seq, seq[1:])))
    else:
        extra = nodes[-1]
        paths = []
        for j in range((n - 1) // 2):
            seq = [nodes[i] for i in zigzag(j, n - 1)]
            pairs = list(zip(seq, seq[1:]))
            # close through the leftover vertex, entering at the path head
            pairs.append((extra, seq[0]))
            paths.append(pairs)
    for c in range(copies):
        for pairs in paths:
            edges = tuple(sorted(
                (min(a, b), max(a, b), c) for a, b in pairs))
            trees.append(SteinerTree(edges))
    return trees


def _bfs_trees_one_copy(mg, S, pivot, limit):
    terminals = set(S)
    adj = {v: [] for v in mg.nodes}
    for u, v in sorted(mg.multiplicity):  # so each list is in id order
        adj[u].append(v)
        adj[v].append(u)
    sent = {}  # arc (v, u) -> copies claimed from v to u

    def free(v, u):
        key = (v, u) if v < u else (u, v)
        return sent.get((v, u), 0) < mg.multiplicity[key]

    trees = []
    while len(trees) < limit:
        parent = {pivot: None}
        missing = len(terminals) - 1
        entries = iter(adj[pivot])
        queue = deque()
        while missing:
            if not queue:
                v = next((v for v in entries
                          if v not in parent and free(v, pivot)), None)
                if v is None:
                    return trees
                parent[v] = pivot
                missing -= v in terminals
                queue.append(v)
                continue
            u = queue.popleft()
            for v in adj[u]:
                if v not in parent and free(v, u):
                    parent[v] = u
                    queue.append(v)
                    missing -= v in terminals
        del parent[pivot]
        kids = Counter(parent.values())
        leaves = [v for v in parent if v not in terminals and not kids[v]]
        while leaves:
            u = parent.pop(leaves.pop())
            kids[u] -= 1
            if u not in terminals and not kids[u]:
                leaves.append(u)
        edges = []
        for v, u in parent.items():
            c = sent.get((v, u), 0)
            sent[(v, u)] = c + 1
            edges.append((min(u, v), max(u, v), c))
        trees.append(SteinerTree(tuple(sorted(edges))))
    return trees


# == helpers ==

def _depth(packing):
    """Largest hop count from a tree node to the pivot."""
    worst = 0
    for tree in packing.trees:
        depth = {packing.pivot: 0}
        for child, parent, _ in orient_to_pivot(tree, packing.pivot):
            depth[child] = depth[parent] + 1
        worst = max(worst, max(depth.values()))
    return worst


def _shuffled_ids(rng, n):
    ids = rng.sample(range(1, 3 * n + 1), n)
    return ids, [{"id": v, "h": 1.0} for v in ids]


def _terminals(rng, nodes):
    return tuple(sorted(rng.sample(nodes, rng.randint(2, len(nodes)))))


# == stars, rings and cliques ==

@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=96)
def test_star_trees_equal_the_reference(seed):
    rng = random.Random(seed)
    ids, nodes = _shuffled_ids(rng, rng.randint(2, 9))
    hub = rng.choice(ids)
    g = build_graph({"nodes": nodes, "links": [
        {"a": min(hub, v), "b": max(hub, v),
         "bandwidth": rng.choice(BANDWIDTHS)} for v in ids if v != hub]})
    mg = unit_multigraph(g)
    S = _terminals(rng, ids)
    packing = pack_steiner_trees(mg, S)
    assert packing.trees == tuple(_pack_star(mg, S, hub, S[0]))
    assert packing.pivot == S[0]
    assert verify_packing(packing, mg, S).valid


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=96)
def test_ring_matches_the_reference_count_and_time(seed):
    rng = random.Random(seed)
    order, nodes = _shuffled_ids(rng, rng.randint(3, 9))
    b = rng.choice(BANDWIDTHS)
    g = build_graph({"nodes": nodes, "links": [
        {"a": min(u, v), "b": max(u, v), "bandwidth": b}
        for u, v in zip(order, order[1:] + order[:1])]})
    mg = unit_multigraph(g)
    S = _terminals(rng, order)
    packing = pack_steiner_trees(mg, S)
    assert verify_packing(packing, mg, S).valid
    reference = _pack_ring(mg, order, S[0])
    assert packing.p == len(reference) == min_S_cut_multigraph(mg, S)
    if len(S) == len(order):
        ref = replace(packing, trees=tuple(reference))
        for d in (1, 7, 100):
            assert run_allreduce(g, packing, d)[0].completion_time == \
                run_allreduce(g, ref, d)[0].completion_time


def test_clique_reaches_the_cut_with_depth_two():
    for n in range(3, 10):
        for b in (1.0, 2.0, 3.0):
            g = topologies.all_to_all(n, b=b)
            mg = unit_multigraph(g)
            copies = int(b)
            packing = pack_steiner_trees(mg, g.nodes)
            assert verify_packing(packing, mg, g.nodes).valid
            assert packing.p == packing.alpha == (n - 1) * copies
            assert _depth(packing) <= 2
            zigzag = _pack_complete(mg, copies, packing.pivot)
            assert len(zigzag) == (n // 2 if n % 2 == 0 else (n - 1) // 2) \
                * copies


def test_cluster_subset_packs_up_to_d_shallow_trees():
    # one 10-node cluster, fast links of 100 unit copies each
    g = topologies.k_clusters(40, 4, b_slow=0.1, b_fast=10.0)
    mg = unit_multigraph(g)
    S = tuple(range(1, 11))
    for d in (128, 1000):
        packing = pack_steiner_trees(mg, S, d=d)
        assert packing.alpha == 900
        assert packing.p == min(packing.alpha, d)
        assert _depth(packing) <= 2
        assert verify_packing(packing, mg, S).valid


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_first_tree_is_breadth_first_from_the_lowest_entry(seed):
    # before any arc is claimed, each part of the graph without the pivot
    # hangs off its lowest-id pivot neighbour at hop distance + 1
    g = build_graph(random_graph_spec(random.Random(seed), n_max=9))
    packing = pack_steiner_trees(unit_multigraph(g), g.nodes)
    pivot = packing.pivot
    want = {pivot: 0}
    for entry in g.neighbors(pivot):
        if entry in want:
            continue
        want[entry] = 1
        frontier = [entry]
        while frontier:
            nxt = []
            for u in frontier:
                for v in g.neighbors(u):
                    if v not in want:
                        want[v] = want[u] + 1
                        nxt.append(v)
            frontier = nxt
    depth = {pivot: 0}
    for child, parent, _ in orient_to_pivot(packing.trees[0], pivot):
        depth[child] = depth[parent] + 1
    assert depth == want


# == the cap at d ==

def test_torus_construction_is_capped_at_d():
    g = topologies.p_torus(5, b=2.0)
    mg = unit_multigraph(g)
    assert pack_steiner_trees(mg, g.nodes).p == 8
    for d in (1, 3, 8, 50):
        packing = pack_steiner_trees(mg, g.nodes, d=d)
        assert packing.p == min(8, d)
        assert packing.pivot == 13  # the center still roots the trees
        assert verify_packing(packing, mg, g.nodes).valid
    with pytest.raises(ValueError, match="vector size"):
        pack_steiner_trees(mg, g.nodes, d=0)


@pytest.mark.parametrize("g", [topologies.p_torus(5), topologies.ring(6)],
                         ids=["torus", "breadth_first"])
def test_cap_must_be_an_integer_of_at_least_one(g):
    mg = unit_multigraph(g)
    for d in (2.5, 2.0, True, False, 0, -3):
        with pytest.raises(ValueError, match="vector size"):
            pack_steiner_trees(mg, g.nodes, d=d)
    with pytest.raises(TypeError):  # d is keyword-only
        pack_steiner_trees(mg, g.nodes, 2)
    assert pack_steiner_trees(mg, g.nodes, d=2).p == 2


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=12), st.data())
@settings(max_examples=60)
def test_bfs_packer_is_capped_at_d(seed, d, data):
    spec = random_graph_spec(random.Random(seed), n_max=7, w_max=4)
    g = build_graph(spec)
    S = tuple(sorted(data.draw(
        st.sets(st.sampled_from(sorted(g.nodes)), min_size=2))))
    mg = unit_multigraph(g)
    full = pack_steiner_trees(mg, S)
    capped = pack_steiner_trees(mg, S, d=d)
    assert capped.p == min(full.p, d)
    assert capped.trees == full.trees[:d]
    assert verify_packing(capped, mg, S).valid


# == bulk claims ==

def _assert_same_trees(mg, S, d):
    S = tuple(sorted(S))
    limit = math.inf if d is None else d
    got = _bfs_trees(mg, S, S[0], limit)
    want = _bfs_trees_one_copy(mg, S, S[0], limit)
    assert [t.edges for t in got] == [t.edges for t in want], (S, d)


def test_bulk_claims_match_one_copy_per_search_on_random_graphs():
    # 400 graphs x (full S + 3 random subsets) x 4 vector sizes
    cases = 0
    for seed in range(400):
        rng = random.Random(seed)
        g = build_graph(random_graph_spec(rng))
        mg = unit_multigraph(g)
        nodes = sorted(g.nodes)
        subsets = [tuple(nodes)] + [_terminals(rng, nodes) for _ in range(3)]
        for S in subsets:
            for d in (None, 1, 3, 1000):
                _assert_same_trees(mg, S, d)
                cases += 1
    assert cases == 6400


def test_bulk_claims_match_one_copy_per_search_on_bench_shapes():
    g = topologies.k_clusters(200, 10, b_slow=0.1, b_fast=10.0)
    _assert_same_trees(unit_multigraph(g), range(1, 21), 1000)
    for g in (topologies.ring(8, b=1.001), topologies.p_torus(5, b=1.01)):
        _assert_same_trees(unit_multigraph(g), g.nodes, 1000)
