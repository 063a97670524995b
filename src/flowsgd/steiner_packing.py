"""Edge-disjoint Steiner tree packing over unit-capacity multigraphs.

The AllReduce scheduler splits the vector into p blocks and pushes each
block through its own tree, so the packing count p is the parallelism.
``pack_steiner_trees`` produces the trees; ``verify_packing`` re-checks
every claimed property from scratch and reports violations instead of
trusting the builder.

Two disjointness regimes coexist:

* the greedy extractor and the star/complete constructions never reuse an
  edge instance at all;
* the ring and 2-torus constructions exploit full-duplex links — two
  trees may share an undirected instance when their streams traverse it
  in opposite directions (orientation is toward the pivot within each
  tree).  The verifier checks uniqueness of (instance, direction), which
  is the physically binding constraint, and still caps p at the
  undirected min S-cut: every tree must cross any pivot-separating cut
  in the toward-pivot direction, and each instance offers that direction
  once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph_core import UndirectedView, UnitMultigraph, min_S_cut

INFINITY = math.inf


@dataclass(frozen=True)
class SteinerTree:
    """One tree of a packing: edge instances (u, v, copy) with u < v."""

    edges: tuple

    def nodes(self):
        out = set()
        for u, v, _ in self.edges:
            out.add(u)
            out.add(v)
        return out


@dataclass(frozen=True)
class TreePacking:
    trees: tuple
    terminals: tuple
    pivot: int
    alpha: float  # min S-cut of the multigraph; inf for |S| < 2

    @property
    def p(self):
        return len(self.trees)

    @property
    def ratio(self):
        if self.alpha == INFINITY:
            return 0.0
        return self.p / self.alpha

    def to_dict(self):
        return {
            "pivot": self.pivot,
            "p": self.p,
            "alpha": "inf" if self.alpha == INFINITY else self.alpha,
            "ratio": self.ratio,
            "terminals": list(self.terminals),
            "trees": [{"edges": [list(e) for e in t.edges]}
                      for t in self.trees],
        }


@dataclass(frozen=True)
class PackingReport:
    valid: bool
    problems: tuple
    p: int
    alpha: float

    @property
    def ratio(self):
        if self.alpha == INFINITY:
            return 0.0
        return self.p / self.alpha


def min_S_cut_multigraph(mg: UnitMultigraph, S):
    """Minimum S-separating cut counted in unit-edge instances.

    Equals ``scale`` times the bandwidth min S-cut, because multiplicities
    are exactly the scaled bandwidths; :func:`pack_steiner_trees` reads
    it so from a shared cut tree.  Here the multigraph gets a tree of its
    own, which keeps :func:`verify_packing`'s check independent.
    """
    S = tuple(S)
    if len(S) < 2:
        raise ValueError("S-cut needs at least two terminals")
    weight = {key: float(m) for key, m in mg.multiplicity.items()}
    return int(round(min_S_cut(UndirectedView(mg.nodes, weight, {}), S)))


# == Verification ==

def orient_to_pivot(tree: SteinerTree, pivot):
    """Map each instance to its reduce direction (child, parent, copy).

    Raises if the tree does not contain the pivot or is not connected.
    """
    adj = {}
    for u, v, c in tree.edges:
        adj.setdefault(u, []).append((v, (u, v, c)))
        adj.setdefault(v, []).append((u, (u, v, c)))
    if pivot not in adj:
        raise ValueError("pivot not in tree")
    oriented = []
    seen = {pivot}
    stack = [pivot]
    while stack:
        parent = stack.pop()
        for child, inst in adj[parent]:
            if child not in seen:
                seen.add(child)
                stack.append(child)
                oriented.append((child, parent, inst))
    if len(oriented) != len(tree.edges):
        raise ValueError("tree is disconnected or cyclic")
    return oriented


def verify_packing(packing: TreePacking, mg: UnitMultigraph, S):
    """Re-derive every packing property; failures name tree and edge.

    Checks, per tree: instances exist in the multigraph, no instance
    repeats inside the tree, the edge set is connected and acyclic, and
    every terminal is covered.  Across trees: no (instance, direction
    toward pivot) is claimed twice.  Globally: p does not exceed the
    min S-cut.
    """
    S = tuple(sorted(S))
    problems = []
    alpha = min_S_cut_multigraph(mg, S) if len(S) >= 2 else INFINITY

    if len(S) >= 2 and packing.pivot not in S:
        problems.append(f"pivot {packing.pivot} not a terminal")

    directed_use = {}
    for ti, tree in enumerate(packing.trees):
        local = set()
        ok = True
        for u, v, c in tree.edges:
            key = (u, v) if u < v else (v, u)
            mult = mg.multiplicity.get(key, 0)
            if not (0 <= c < mult):
                problems.append(
                    f"tree {ti}: instance {(u, v, c)} not in multigraph")
                ok = False
            if (key, c) in local:
                problems.append(
                    f"tree {ti}: instance {(u, v, c)} repeated in tree")
                ok = False
            local.add((key, c))
        nodes = tree.nodes()
        missing = [s for s in S if s not in nodes]
        if missing:
            problems.append(f"tree {ti}: terminals {missing} not covered")
            ok = False
        if not ok:
            continue
        try:
            oriented = orient_to_pivot(tree, packing.pivot)
        except ValueError as exc:
            problems.append(f"tree {ti}: {exc}")
            continue
        if len(nodes) != len(tree.edges) + 1:
            problems.append(f"tree {ti}: edge set is not a tree")
            continue
        for child, parent, (u, v, c) in oriented:
            key = ((u, v) if u < v else (v, u), c, child, parent)
            if key in directed_use:
                problems.append(
                    f"trees {directed_use[key]} and {ti}: instance "
                    f"{(u, v, c)} streamed {child}->{parent} twice")
            else:
                directed_use[key] = ti

    if alpha != INFINITY and packing.p > alpha:
        problems.append(f"p={packing.p} exceeds min S-cut {alpha}")
    return PackingReport(not problems, tuple(problems), packing.p, alpha)


# == Topology recognition ==

def _skeleton(mg: UnitMultigraph):
    adj = {v: set() for v in mg.nodes}
    for (u, v) in mg.multiplicity:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _detect_star(mg):
    adj = _skeleton(mg)
    n = len(mg.nodes)
    if n < 2 or len(mg.multiplicity) != n - 1:
        return None
    hubs = [v for v, ns in adj.items() if len(ns) == n - 1]
    if not hubs:
        return None
    hub = min(hubs)
    if all(len(adj[v]) == 1 for v in mg.nodes if v != hub):
        return hub
    return None


def _detect_ring(mg):
    adj = _skeleton(mg)
    n = len(mg.nodes)
    if n < 3 or len(mg.multiplicity) != n:
        return None
    if any(len(ns) != 2 for ns in adj.values()):
        return None
    # walk the cycle to confirm a single loop and recover its order
    start = min(mg.nodes)
    order = [start]
    prev, cur = None, start
    while True:
        nxt = sorted(v for v in adj[cur] if v != prev)
        if not nxt:
            return None
        step = nxt[0]
        if step == start:
            break
        order.append(step)
        prev, cur = cur, step
    return order if len(order) == n else None


def _detect_complete(mg):
    n = len(mg.nodes)
    if n < 2 or len(mg.multiplicity) != n * (n - 1) // 2:
        return None
    mults = set(mg.multiplicity.values())
    if len(mults) != 1:
        return None
    return mults.pop()


def _detect_torus2d(mg):
    """Canonical row-major 2-torus: ids 1..side^2, side >= 3, uniform mult."""
    n = len(mg.nodes)
    side = math.isqrt(n)
    if side * side != n or side < 3:
        return None
    if mg.nodes != tuple(range(1, n + 1)):
        return None
    mults = set(mg.multiplicity.values())
    if len(mults) != 1:
        return None

    def nid(x, y):
        return 1 + (x % side) + (y % side) * side

    expected = set()
    for y in range(side):
        for x in range(side):
            for (dx, dy) in ((1, 0), (0, 1)):
                a, b = nid(x, y), nid(x + dx, y + dy)
                expected.add((min(a, b), max(a, b)))
    if set(mg.multiplicity) != expected:
        return None
    return side, mults.pop()


# == Specialized constructions ==

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


def _pack_torus2d(mg, side, copies, pivot):
    """Four directional in-trees per copy, pivot at the torus center.

    Each block class moves along one axis direction until it reaches the
    pivot's row/column ("the cross"), where it turns toward the pivot;
    the four resulting in-trees are arc-disjoint because each uses its
    own axis direction off the cross and the two cross segments split
    the remaining directions between them.
    """
    k = side // 2

    def nid(x, y):
        return 1 + (x % side) + (y % side) * side

    def arcs_for(sign_x, sign_y, primary_x):
        arcs = []
        for y in range(side):
            for x in range(side):
                if (x, y) == (k, k):
                    continue
                on_cross = (x == k or y == k)
                if primary_x:
                    step = (sign_x, 0) if not on_cross else (0, sign_y)
                else:
                    step = (0, sign_y) if not on_cross else (sign_x, 0)
                dx, dy = step
                arcs.append((nid(x, y), nid(x + dx, y + dy)))
        return arcs

    blocks = [
        arcs_for(+1, +1, True),
        arcs_for(+1, +1, False),
        arcs_for(-1, -1, True),
        arcs_for(-1, -1, False),
    ]
    trees = []
    for c in range(copies):
        for arcs in blocks:
            edges = tuple(sorted(
                (min(a, b), max(a, b), c) for a, b in arcs))
            trees.append(SteinerTree(edges))
    return trees


# == Greedy extraction ==

def _greedy_trees(mg, S, pivot):
    remaining = dict(mg.multiplicity)
    adj = {v: set() for v in mg.nodes}
    for (u, v) in mg.multiplicity:
        adj[u].add(v)
        adj[v].add(u)

    def take(u, v):
        key = (u, v) if u < v else (v, u)
        copy = mg.multiplicity[key] - remaining[key]
        remaining[key] -= 1
        return (key[0], key[1], copy)

    def has_cap(u, v):
        key = (u, v) if u < v else (v, u)
        return remaining.get(key, 0) > 0

    trees = []
    while True:
        tree_nodes = {pivot}
        tree_edges = []
        # phase 1: nearest-neighbor path growth from the pivot
        cur = pivot
        while True:
            cands = sorted(v for v in adj[cur]
                           if v not in tree_nodes and has_cap(cur, v))
            if not cands:
                break
            nxt = cands[0]
            tree_edges.append(take(cur, nxt))
            tree_nodes.add(nxt)
            cur = nxt
        # phase 2: BFS-attach each remaining terminal via the closest path
        failed = False
        while not set(S) <= tree_nodes:
            parent = {}
            frontier = sorted(tree_nodes)
            seen = set(tree_nodes)
            goal = None
            while frontier and goal is None:
                nxt_frontier = []
                for u in frontier:
                    for v in sorted(adj[u]):
                        if v in seen or not has_cap(u, v):
                            continue
                        seen.add(v)
                        parent[v] = u
                        if v in S and v not in tree_nodes:
                            goal = v
                            break
                        nxt_frontier.append(v)
                    if goal is not None:
                        break
                frontier = nxt_frontier
            if goal is None:
                failed = True
                break
            path = [goal]
            while path[-1] not in tree_nodes:
                path.append(parent[path[-1]])
            for a, b in zip(path, path[1:]):
                tree_edges.append(take(a, b))
            tree_nodes.update(path)
        if failed:
            # roll the partial tree's capacity back and stop
            for u, v, _ in tree_edges:
                remaining[(u, v)] += 1
            break
        # trim non-terminal leaf branches
        degree = {}
        for u, v, _ in tree_edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        pruned = True
        while pruned:
            pruned = False
            for u, v, c in list(tree_edges):
                for leaf, other in ((u, v), (v, u)):
                    if degree.get(leaf) == 1 and leaf not in S:
                        tree_edges.remove((u, v, c))
                        remaining[(u, v)] += 1
                        degree[leaf] -= 1
                        degree[other] -= 1
                        pruned = True
                        break
        trees.append(SteinerTree(tuple(sorted(tree_edges))))
    return trees


def pack_steiner_trees(mg: UnitMultigraph, S, tree=None):
    """Pack edge-disjoint trees each connecting the terminal set S.

    Stars, rings, canonical row-major 2-tori and complete graphs get
    their specialized construction, anything else the greedy extractor.
    A single terminal yields the zero-tree packing (nothing to send).
    The pivot is the lowest-id terminal, except the center of a
    recognized 2-torus when it belongs to S (the directional
    construction routes to it).

    ``alpha`` is ``round(mg.scale * min_S_cut(None, S, tree))`` for
    ``tree`` a Gomory-Hu tree of the bandwidth graph ``mg`` came from;
    without ``tree`` it is :func:`min_S_cut_multigraph`, the same number.
    """
    S = tuple(sorted(set(S)))
    if not S:
        raise ValueError("empty terminal set")
    missing = [s for s in S if s not in mg.nodes]
    if missing:
        raise ValueError(f"terminals not in graph: {missing}")
    if len(S) == 1:
        return TreePacking((), S, S[0], INFINITY)

    if tree is None:
        alpha = min_S_cut_multigraph(mg, S)
    elif tree.nodes != mg.nodes:
        raise ValueError("cut tree and multigraph have different nodes")
    else:
        alpha = int(round(mg.scale * min_S_cut(None, S, tree)))
    pivot = S[0]

    hub = _detect_star(mg)
    if hub is not None:
        return TreePacking(tuple(_pack_star(mg, S, hub, pivot)), S,
                           pivot, alpha)
    order = _detect_ring(mg)
    if order is not None:
        return TreePacking(tuple(_pack_ring(mg, order, pivot)), S,
                           pivot, alpha)
    torus = _detect_torus2d(mg)
    if torus is not None:
        side, copies = torus
        center = 1 + (side // 2) + (side // 2) * side
        if center in S:
            trees = _pack_torus2d(mg, side, copies, center)
            return TreePacking(tuple(trees), S, center, alpha)
    copies = _detect_complete(mg)
    if copies is not None:
        return TreePacking(tuple(_pack_complete(mg, copies, pivot)), S,
                           pivot, alpha)
    return TreePacking(tuple(_greedy_trees(mg, S, pivot)), S, pivot, alpha)
