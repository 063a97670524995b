"""Steiner tree packing over unit-capacity multigraphs.

The AllReduce scheduler splits the vector into p blocks and pushes each
block through its own tree, so the packing count p is the parallelism.
``pack_steiner_trees`` produces the trees; ``verify_packing`` re-checks
every claimed property from scratch and reports violations instead of
trusting the builder.

Links are full duplex, so the binding resource is an edge instance in
one direction: each tree is oriented toward the pivot, and two trees may
share an instance only if they stream over it in opposite directions.
Every tree crosses each pivot-separating cut toward the pivot, and each
instance offers that direction once, so p never exceeds the undirected
min S-cut.  When the subgraph S induces carries that cut, Edmonds'
branching theorem says trees disjoint in this sense reach it.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property

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


def _ratio(packing):
    """Trees per unit of min S-cut, p / alpha; 0.0 when alpha is infinite."""
    if packing.alpha == INFINITY:
        return 0.0
    return packing.p / packing.alpha


@dataclass(frozen=True)
class TreePacking:
    trees: tuple
    terminals: tuple
    pivot: int
    alpha: float  # min S-cut of the multigraph; inf for |S| < 2

    @property
    def p(self):
        return len(self.trees)

    ratio = property(_ratio)

    @cached_property
    def _shapes(self):
        copies = {}
        for ti, tree in enumerate(self.trees):
            links = frozenset((u, v) for u, v, _ in tree.edges)
            first, k = copies.get(links, (ti, 0))
            copies[links] = (first, k + 1)
        return list(copies.values())

    def shapes(self):
        """``(first tree index, copies)`` per distinct tree shape.

        Trees have the same shape when they use the same links, whatever
        the copy indices; shapes come in order of first appearance.  The
        grouping is made once per packing and returned on every call.
        """
        return self._shapes

    def to_dict(self):
        return {
            "pivot": self.pivot,
            "p": self.p,
            "shapes": len(self.shapes()),
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

    ratio = property(_ratio)


def min_S_cut_multigraph(mg: UnitMultigraph, S):
    """Minimum S-separating cut counted in unit-edge instances.

    Equals ``scale`` times the bandwidth min S-cut, because multiplicities
    are exactly the scaled bandwidths; :func:`pack_steiner_trees` reads
    it so from the cut tree of ``mg.graph``.  Here the multigraph gets a
    tree of its own, which keeps :func:`verify_packing`'s check
    independent.
    """
    S = tuple(S)
    if len(S) < 2:
        raise ValueError("S-cut needs at least two terminals")
    weight = {key: float(m) for key, m in mg.multiplicity.items()}
    return int(round(min_S_cut(UndirectedView(mg.nodes, weight), S)))


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


# == Trees ==

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


def _bfs_trees(mg, S, pivot, limit):
    """Up to ``limit`` in-trees toward ``pivot``, each spanning ``S``.

    A tree may use the arc v->u while fewer than ``multiplicity`` copies
    of the link have been sent from v to u.  Each tree enters the pivot
    through its lowest-id neighbour with a free arc, grows breadth-first
    (in id order) from its nodes other than the pivot, and opens another
    arc into the pivot only when that search runs out first: the pivot's
    in-arcs bound p.  It stops once every terminal is in and drops
    non-terminal leaves.  The search only asks whether an arc is
    exhausted, so it would find the same tree again until one of the
    arcs it kept runs out: the tree is claimed that many times at once
    (at most ``limit`` trees in all), copy j taking the lowest free copy
    of each kept arc plus j.  Packing ends when a terminal is out of
    reach.
    """
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
        first = {(v, u): sent.get((v, u), 0) for v, u in parent.items()}
        k = min(limit - len(trees),
                min(mg.multiplicity[(min(a), max(a))] - c
                    for a, c in first.items()))
        shape = sorted((min(a), max(a), c) for a, c in first.items())
        for j in range(k):
            trees.append(SteinerTree(tuple((u, v, c + j)
                                           for u, v, c in shape)))
        for a, c in first.items():
            sent[a] = c + k
    return trees


def pack_steiner_trees(mg: UnitMultigraph, S, *, d=None):
    """Pack trees connecting the terminal set S, disjoint per direction.

    Every tree is an in-tree toward the pivot, and no two trees send over
    the same edge instance in the same direction.  A canonical row-major
    2-torus whose center is in S gets four directional trees per copy,
    rooted at the center; anything else gets the breadth-first packer
    (:func:`_bfs_trees`), rooted at the lowest-id terminal.  A
    ``d``-coordinate AllReduce has no use for more than ``d`` trees, so
    with ``d`` given (an integer >= 1) at most ``d`` are returned.  A
    single terminal yields the zero-tree packing (nothing to send).

    ``alpha`` is ``round(mg.scale * min_S_cut(mg.graph, S))``, read from
    the cut tree of the graph ``mg`` was built from; it equals
    :func:`min_S_cut_multigraph`.
    """
    S = tuple(sorted(set(S)))
    if not S:
        raise ValueError("empty terminal set")
    missing = [s for s in S if s not in mg.nodes]
    if missing:
        raise ValueError(f"terminals not in graph: {missing}")
    if d is not None and (isinstance(d, bool)
                          or not isinstance(d, numbers.Integral) or d < 1):
        raise ValueError(f"vector size must be an integer >= 1, got {d!r}")
    if len(S) == 1:
        return TreePacking((), S, S[0], INFINITY)

    alpha = int(round(mg.scale * min_S_cut(mg.graph, S)))
    torus = _detect_torus2d(mg)
    if torus is not None:
        side, copies = torus
        center = 1 + (side // 2) + (side // 2) * side
        if center in S:
            trees = _pack_torus2d(mg, side, copies, center)
            return TreePacking(tuple(trees[:d]), S, center, alpha)
    pivot = S[0]
    trees = _bfs_trees(mg, S, pivot, INFINITY if d is None else d)
    return TreePacking(tuple(trees), S, pivot, alpha)
