"""Communication graphs, cuts, and Gomory-Hu machinery.

This module owns the static description of a compute cluster: a set of
nodes with per-gradient computation times ``h_i`` (``inf`` marks a relay
switch that cannot compute) joined by full-duplex links with symmetric
bandwidth.  On top of that it provides the cut toolbox everything else is
built on:

==================  =========================================================
``max_flow_min_cut``  exact min s-t cut on the undirected bandwidth view;
                      its value is the ``math.fsum`` of the capacities
                      leaving the smallest source side
``gomory_hu_tree``    all-pairs min cuts in n-1 tree edges, cached per graph;
                      its flows share one residual network, and an s-t
                      flow stops at the nearest member of a super-sink T:
                      t and each earlier source x with λ(x, t) >= deg(s).
                      The cut is unchanged: λ(s, t) >= min(λ(s, T),
                      λ(x, t)), and no s-t cut below deg(s) splits x from t
``min_S_cut``         smallest cut splitting a node set, from the cut tree
``unit_multigraph``   unit-capacity rescaling of the finite proxy, cached
                      per proxy, which it keeps: its tree gives packing's α
``leaf_branch_peeling``  logarithmic-depth decomposition of a tree
==================  =========================================================

Bandwidths are coordinates per second, computation times are seconds per
gradient, and latencies are seconds per hop.  All structures are plain
frozen dataclasses; treat their dict fields as read-only: a graph
caches its adjacency, its cut tree, its unit multigraph and its
finite-bandwidth proxy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction

INFINITY = math.inf

# Largest denominator, and scale, a unit multigraph may use.
MAX_SCALE = 10 ** 6

# Residual capacities below this fraction of the largest capacity are
# considered exhausted.  Integer bandwidths are handled exactly.
_FLOW_EPS = 1e-12


def _as_h(value):
    if isinstance(value, str):
        if value.strip().lower() in ("inf", "infinity"):
            return INFINITY
        raise ValueError(f"bad computation time: {value!r}")
    h = float(value)
    if not h > 0:
        raise ValueError(f"computation time must be positive, got {h}")
    return h


def _as_id(value):
    # bool is an int subclass, and True would alias node 1
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"node id must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class WeightedGraph:
    """A cluster: nodes with compute times and symmetric full-duplex links.

    ``bandwidth`` and ``latency`` are keyed by directed pairs ``(i, j)``;
    both orientations are always present and carry equal values.
    """

    nodes: tuple
    h: dict
    bandwidth: dict
    latency: dict

    def workers(self):
        """Nodes that can compute gradients (finite ``h``)."""
        return tuple(v for v in self.nodes if math.isfinite(self.h[v]))

    @cached_property
    def _adjacency(self):
        adj = {v: [] for v in self.nodes}
        for i, j in self.bandwidth:
            adj[i].append(j)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    def neighbors(self, v):
        """Linked nodes in ascending id order (built once per graph)."""
        return self._adjacency[v]

    @cached_property
    def _cut_tree(self):
        return _build_gomory_hu_tree(self.undirected())

    @cached_property
    def _unit_multigraph(self):
        return _build_unit_multigraph(self)

    @cached_property
    def _schedules(self):
        # training schedules, keyed by what each was planned from
        # (``optimizers._planned``)
        return {}

    @cached_property
    def _finite_proxy(self):
        finite = [b for b in self.bandwidth.values() if math.isfinite(b)]
        if len(finite) == len(self.bandwidth):
            return self
        if not finite:
            raise ValueError(
                "all links are infinite; nothing to scale against")
        cap = max(finite) * 16.0
        bw = {k: (cap if not math.isfinite(b) else b)
              for k, b in self.bandwidth.items()}
        return replace(self, bandwidth=bw)

    def undirected(self):
        """Collapse the directed pairs into one weighted edge per link."""
        weight = {}
        for (i, j), b in self.bandwidth.items():
            weight[(i, j) if i < j else (j, i)] = b
        return UndirectedView(self.nodes, weight)


@dataclass(frozen=True)
class UndirectedView:
    """Undirected bandwidth view used by all cut computations."""

    nodes: tuple
    weight: dict


@dataclass(frozen=True)
class CutResult:
    """Value and source side of a minimum cut.

    When ``value`` is infinite no separating side exists and ``side``
    degenerates to all nodes.
    """

    value: float
    side: frozenset


def build_graph(spec):
    """Construct a :class:`WeightedGraph` from a topology description.

    ``spec`` is a mapping with two entries: ``nodes``, a list of
    ``{"id": int, "h": number | "inf"}``, and ``links``, a list of
    ``{"a": id, "b": id, "bandwidth": number, "latency": number}`` with
    ``latency`` optional (default 0).  Unknown fields anywhere are
    rejected so that typos fail loudly.
    """
    if not isinstance(spec, dict):
        raise ValueError("topology must be a mapping")
    unknown = set(spec) - {"nodes", "links"}
    if unknown:
        raise ValueError(f"unknown topology fields: {sorted(unknown)}")
    node_specs = spec.get("nodes")
    link_specs = spec.get("links")
    if not node_specs:
        raise ValueError("topology needs at least one node")

    h = {}
    for ns in node_specs:
        extra = set(ns) - {"id", "h"}
        if extra:
            raise ValueError(f"unknown node fields: {sorted(extra)}")
        nid = _as_id(ns["id"])
        if nid in h:
            raise ValueError(f"duplicate node id {nid}")
        h[nid] = _as_h(ns["h"])
    nodes = tuple(sorted(h))

    bandwidth = {}
    latency = {}
    for ls in link_specs or ():
        extra = set(ls) - {"a", "b", "bandwidth", "latency"}
        if extra:
            raise ValueError(f"unknown link fields: {sorted(extra)}")
        a, b = _as_id(ls["a"]), _as_id(ls["b"])
        if a == b:
            raise ValueError(f"self-link at node {a}")
        if a not in h or b not in h:
            raise ValueError(f"link {a}-{b} references unknown node")
        if (a, b) in bandwidth:
            raise ValueError(f"duplicate link {a}-{b}")
        bw = ls["bandwidth"]
        bw = INFINITY if bw in ("inf", "infinity") else float(bw)
        if not bw > 0:
            raise ValueError(f"bandwidth on {a}-{b} must be positive")
        lat = float(ls.get("latency", 0.0))
        if not 0 <= lat < INFINITY:
            raise ValueError(
                f"latency on {a}-{b} must be finite and nonnegative")
        for i, j in ((a, b), (b, a)):
            bandwidth[(i, j)] = bw
            latency[(i, j)] = lat

    g = WeightedGraph(nodes, h, bandwidth, latency)
    reach = {nodes[0]}
    frontier = [nodes[0]]
    while frontier:
        for j in g.neighbors(frontier.pop()):
            if j not in reach:
                reach.add(j)
                frontier.append(j)
    if len(reach) != len(nodes):
        missing = sorted(set(nodes) - reach)
        raise ValueError(f"graph is disconnected: no path to {missing}")
    return g


def parse_topology(text):
    """Parse a JSON topology document into a :class:`WeightedGraph`."""
    return build_graph(json.loads(text))


def serialize_topology(g):
    """Inverse of :func:`parse_topology`, stable field order."""
    links = []
    for (i, j), b in sorted(g.bandwidth.items()):
        if i < j:
            entry = {"a": i, "b": j,
                     "bandwidth": "inf" if b == INFINITY else b}
            if g.latency[(i, j)]:
                entry["latency"] = g.latency[(i, j)]
            links.append(entry)
    doc = {
        "nodes": [{"id": v, "h": "inf" if g.h[v] == INFINITY else g.h[v]}
                  for v in g.nodes],
        "links": links,
    }
    return json.dumps(doc, indent=2) + "\n"


# == Maximum flow ==

class _FlowNetwork:
    """Residual network of an undirected view, built once for many flows.

    Infinite links are contracted (the smallest id represents its
    component) and the finite links between two components merged into
    one link, whose two arcs ``a`` and ``a ^ 1`` are each the other's
    residual.  Each :meth:`min_cut` resets the arcs the last flow pushed
    along to their base capacities, so flows never see each other's
    residual state.

    The network remembers the first cut computed from each component x:
    its sink t_x and its value w_x = λ(x, t_x).  A later flow from s to t
    goes to a super-sink T that holds t and every x != s with t_x = t and
    w_x >= deg(s).  The result is the same as with T = {t}:

    - λ(s, t) >= min(λ(s, T), min over x of λ(x, t)), since a minimum
      s-t cut either separates s from all of T or is an x-t cut; and
      λ(s, t) <= λ(s, T), since every s-T cut is an s-t cut.  As
      λ(s, T) <= deg(s) <= w_x, the two values are equal.
    - An s-t cut below deg(s) leaves all of T on t's side (one with x on
      s's side is an x-t cut, of at least w_x).  So when λ(s, t) <
      deg(s), the minimum s-t and s-T cuts are the same cuts; otherwise
      {s} is the smallest source side of both.

    Degrees and cut values are ``math.fsum`` sums of base capacities:
    each is correctly rounded, and a cut's value does not depend on the
    paths its flow took.
    """

    def __init__(self, und):
        uf = _UnionFind(und.nodes)
        for (u, v), w in und.weight.items():
            if w == INFINITY:
                uf.union(u, v)
        reps = sorted({uf.find(v) for v in und.nodes})
        index = {r: i for i, r in enumerate(reps)}
        self.component = {v: index[uf.find(v)] for v in und.nodes}
        self.members = [[] for _ in reps]
        for v in und.nodes:
            self.members[self.component[v]].append(v)
        self.everything = frozenset(und.nodes)

        merged = {}
        for (u, v), w in und.weight.items():
            iu, iv = self.component[u], self.component[v]
            if w == INFINITY or iu == iv:
                continue
            key = (iu, iv) if iu < iv else (iv, iu)
            merged[key] = merged.get(key, 0.0) + w
        self.arcs = [[] for _ in reps]  # arc ids out of each component
        self.head = []  # component each arc points to
        self.base = []  # capacity of each arc before any flow
        for (iu, iv), w in sorted(merged.items()):
            self.arcs[iu].append(len(self.head))
            self.arcs[iv].append(len(self.head) + 1)
            self.head += (iv, iu)
            self.base += (w, w)
        # total capacity of each component's links
        self.degree = [math.fsum(self.base[a] for a in out)
                       for out in self.arcs]
        self.cap = list(self.base)
        self.touched = []  # arcs a flow pushed along since the last reset
        # residual capacities below this are exhausted
        self.eps = max(self.base, default=1.0) * _FLOW_EPS
        # sink and value of the first cut from each component (-1: none)
        self.cut_sink = [-1] * len(reps)
        self.cut_value = [0.0] * len(reps)

    def min_cut(self, s, t):
        """Minimum s-t cut; ``side`` is everything reachable from ``s``
        in the final residual network, the smallest source side, and
        ``value`` the ``math.fsum`` of the base capacities leaving it."""
        cs, ct = self.component[s], self.component[t]
        if cs == ct:
            return CutResult(INFINITY, self.everything)
        cap, base = self.cap, self.base
        for a in self.touched:
            cap[a], cap[a ^ 1] = base[a], base[a ^ 1]
        self.touched.clear()
        reach = self._max_flow(cs, ct)
        inside = set(reach)
        head = self.head
        value = math.fsum(base[a] for i in reach for a in self.arcs[i]
                          if head[a] not in inside)
        if self.cut_sink[cs] < 0:
            self.cut_sink[cs] = ct
            self.cut_value[cs] = value
        return CutResult(value, frozenset(
            v for i in reach for v in self.members[i]))

    def _max_flow(self, s, t):
        """Dinic's blocking flows from ``s`` to the super-sink of ``t``;
        returns the components reachable from ``s`` in the final residual
        network.

        No s-t cut exceeds the smaller terminal degree, and the flow to
        the super-sink has the s-t value, so a flow that reaches that
        degree (up to rounding) is maximum unless float slack still leaves
        an augmenting path; only then does the search go on.  Either way
        the pushes are those of a run to exhaustion.  The flow's own value
        is not returned: :meth:`min_cut` sums the capacities leaving the
        side, which does not depend on the paths the pushes took.
        """
        bound = min(self.degree[s], self.degree[t]) * (1 - 1e-9)
        total = 0.0
        while True:
            level, queue = self._levels(s, t)
            if level[s] < 0:
                return queue
            # the sinks reached are the live nodes of the deepest level,
            # which closes the queue
            bottom = next(level[u] for u in reversed(queue) if level[u] >= 0)
            it = [0] * len(level)
            while True:
                pushed = self._push(s, bottom, level, it)
                if pushed <= 0:
                    break
                total += pushed
                if total >= bound:
                    done, reach = self._levels(s, t)
                    if done[s] < 0:
                        return reach
                    bound = INFINITY

    def _levels(self, s, t):
        """Residual distances from ``s`` of the nodes on shortest paths to
        the super-sink of ``t`` (see the class docstring).

        Returns ``(level, queue)``.  The breadth-first search stops at the
        first level that holds a sink, and a pass back over its queue
        keeps only the nodes with a residual arc to a kept node one level
        deeper; the rest, and the non-sinks of the last level, keep level
        -1.  A push would find them dead ends, so skipping them leaves the
        pushed flows unchanged, and the pass costs no more than the
        search.  When no sink is reachable, every level is -1 and
        ``queue`` holds every node reachable from ``s``.
        """
        arcs, head, cap, eps = self.arcs, self.head, self.cap, self.eps
        cut_sink, cut_value = self.cut_sink, self.cut_value
        floor = self.degree[s]
        level = [-1] * len(arcs)
        level[s] = 0
        live = [-1] * len(arcs)
        queue = [s]
        bottom = -1  # level of the nearest sinks
        for u in queue:
            depth = level[u] + 1
            if depth > bottom >= 0:
                break
            for a in arcs[u]:
                v = head[a]
                if level[v] < 0 and cap[a] > eps:
                    level[v] = depth
                    queue.append(v)
                    if v == t or cut_sink[v] == t and cut_value[v] >= floor:
                        live[v] = bottom = depth
        if bottom < 0:
            return live, queue
        for u in reversed(queue):
            depth = level[u]
            if depth < bottom:
                for a in arcs[u]:
                    if live[head[a]] == depth + 1 and cap[a] > eps:
                        live[u] = depth
                        break
        return live, queue

    def _push(self, s, bottom, level, it):
        """Push the bottleneck of one path in the level graph from ``s``
        to a sink, a live node at level ``bottom``.

        Depth-first along ``it[u]``, the index of each node's next
        untried arc; a dead end exhausts its node's arcs and advances its
        parent's.  Returns 0 when s itself runs out of arcs.
        """
        arcs, head, cap, eps = self.arcs, self.head, self.cap, self.eps
        path = []  # arcs of the walk from s to u
        u = s
        while level[u] != bottom:
            out = arcs[u]
            end = len(out)
            i = it[u]
            depth = level[u] + 1
            while i < end:
                a = out[i]
                if cap[a] > eps and level[head[a]] == depth:
                    break
                i += 1
            it[u] = i
            if i < end:
                path.append(a)
                u = head[a]
            else:
                if not path:
                    return 0.0
                u = head[path.pop() ^ 1]
                it[u] += 1
        pushed = min(cap[a] for a in path)
        for a in path:
            cap[a] -= pushed
            cap[a ^ 1] += pushed
        self.touched += path
        return pushed


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # keep the smaller id as representative for determinism
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def max_flow_min_cut(g, s, t):
    """Exact minimum s-t cut of the undirected bandwidth view.

    Infinite-bandwidth links are contracted first, so graphs mixing
    finite and infinite capacities are fine; if ``s`` and ``t`` end up
    merged the cut value is infinite and ``side`` covers everything.
    Otherwise ``side`` is the smallest source side of a minimum cut and
    ``value`` the ``math.fsum`` of the bandwidths of the links leaving it
    (the links between two contracted components summed first).
    """
    und = g.undirected() if isinstance(g, WeightedGraph) else g
    if s == t or s not in und.nodes or t not in und.nodes:
        raise ValueError(f"bad terminal pair ({s}, {t})")
    return _FlowNetwork(und).min_cut(s, t)


# == Gomory-Hu tree ==

@dataclass(frozen=True)
class GomoryHuTree:
    """Cut tree: the min u-v cut equals the lightest edge on the tree path."""

    nodes: tuple
    edges: tuple  # ((u, v, weight), ...) with u < v

    def sorted_edges(self):
        """Edges in the removal order used by the subset search: ascending
        weight, then ascending larger endpoint, then smaller endpoint.

        Within a weight class this peels edges attached to low-id hubs
        before edges reaching high-id leaves, which keeps the example
        traces stable; any deterministic order yields the same optimum.
        """
        return sorted(self.edges, key=lambda e: (e[2], e[1], e[0]))

    def weights(self):
        return sorted(w for _, _, w in self.edges)

    def adjacency(self):
        adj = {v: [] for v in self.nodes}
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj

    def path_min_weight(self, s, t):
        """Min edge weight on the unique s-t path (= min s-t cut value)."""
        adj = self.adjacency()
        best = {s: INFINITY}
        stack = [s]
        while stack:
            u = stack.pop()
            for v, w in adj[u]:
                if v not in best:
                    best[v] = min(best[u], w)
                    stack.append(v)
        if t not in best:
            raise ValueError(f"{t} not reachable from {s} in tree")
        return best[t]


def gomory_hu_tree(g):
    """Gomory-Hu tree of ``g``, built with n-1 max-flow calls.

    A :class:`WeightedGraph` builds it once and returns the same tree
    afterwards; an :class:`UndirectedView` gets a fresh one per call.
    Nodes are processed in ascending id order with the lowest id as the
    initial hub, which makes the tree deterministic.

    Gusfield's method runs all n-1 flows on one residual network, with
    infinite links contracted once and the last flow's arcs reset before
    each flow.  The network remembers each source's first cut, so a flow
    from s to t goes to a super-sink: t plus every earlier source x whose
    first cut went to t and weighed at least deg(s).  That changes no
    cut, because λ(s, t) >= min(λ(s, T), λ(x, t)) with λ(x, t) >= deg(s)
    >= λ(s, T), and an s-t cut below deg(s) must leave every such x on
    t's side (see ``_FlowNetwork``).  On a torus the search then ends at
    an already processed neighbour instead of crossing the graph.

    A flow stops once it reaches the smaller weighted degree of its two
    terminals, an upper bound on every cut between them.  Each cut's
    source side is the set reachable from the source in the final
    residual network, the smallest one, and its value the ``math.fsum``
    of the capacities leaving that side, so the tree is the same, bit for
    bit, as with a separate :func:`max_flow_min_cut` per pair.
    """
    if isinstance(g, WeightedGraph):
        return g._cut_tree
    return _build_gomory_hu_tree(g)


def _build_gomory_hu_tree(und):
    nodes = sorted(und.nodes)
    if len(nodes) == 1:
        return GomoryHuTree(tuple(nodes), ())
    net = _FlowNetwork(und)
    parent = {v: nodes[0] for v in nodes[1:]}
    weight = {}
    for v in nodes[1:]:
        cut = net.min_cut(v, parent[v])
        weight[v] = cut.value
        for u in cut.side:
            if u != v and parent.get(u) == parent[v]:
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


def min_S_cut(g, S):
    """Smallest cut separating at least two members of ``S``.

    Equals the minimum weight among edges of ``gomory_hu_tree(g)`` whose
    removal splits ``S``.  By convention a set with fewer than two nodes
    cannot be separated, so the value is infinite.
    """
    S = frozenset(S)
    if len(S) < 2:
        return INFINITY
    tree = gomory_hu_tree(g)
    missing = S - set(tree.nodes)
    if missing:
        raise ValueError(f"nodes not in graph: {sorted(missing)}")
    adj = tree.adjacency()
    root = tree.nodes[0]
    order, parent_of = [], {root: None}
    stack = [root]
    while stack:
        u = stack.pop()
        order.append(u)
        for v, w in adj[u]:
            if v not in parent_of:
                parent_of[v] = (u, w)
                stack.append(v)
    below = {v: (1 if v in S else 0) for v in tree.nodes}
    best = INFINITY
    for u in reversed(order):
        if parent_of[u] is None:
            continue
        _, w = parent_of[u]
        if 0 < below[u] < len(S):
            best = min(best, w)
        pu = parent_of[u][0]
        below[pu] += below[u]
    return best


# == Unit-capacity multigraph ==

@dataclass(frozen=True)
class UnitMultigraph:
    """Integral rescaling of a graph into parallel unit-capacity edges.

    A link of bandwidth ``b`` becomes ``round(scale * b)`` parallel unit
    edges; interleaving coordinates over the copies gives each one an
    effective rate of ``1 / scale`` in either direction.  ``graph`` is
    the all-finite graph it was built from.
    """

    nodes: tuple
    scale: int
    multiplicity: dict  # (u, v) with u < v -> copies
    graph: WeightedGraph = field(compare=False, repr=False)

    @property
    def unit_rate(self):
        return 1.0 / self.scale


def unit_multigraph(g):
    """Unit multigraph of :func:`finite_bandwidth_proxy` of ``g``, built
    once per proxy and shared by ``g`` and its proxy.

    Each bandwidth is matched to a rational with denominator at most
    ``MAX_SCALE``; the scale is the lcm of the denominators.  Bandwidths
    further than ``1e-9`` (relative) from that rational, or an lcm beyond
    ``MAX_SCALE``, are errors, and so is a graph whose links are all
    infinite.
    """
    return g._finite_proxy._unit_multigraph


def _build_unit_multigraph(g):
    und = g.undirected()
    denoms = []
    fracs = {}
    for key in sorted(und.weight):
        b = und.weight[key]
        frac = Fraction(b).limit_denominator(MAX_SCALE)
        if abs(float(frac) - b) > 1e-9 * max(1.0, b):
            raise ValueError(
                f"bandwidth {b} on {key} is not rational within 1e-9 "
                f"at scale {MAX_SCALE}")
        fracs[key] = frac
        denoms.append(frac.denominator)
    scale = math.lcm(*denoms) if denoms else 1
    if scale > MAX_SCALE:
        raise ValueError(
            f"required scale {scale} exceeds max_scale {MAX_SCALE}")
    mult = {}
    for key, frac in fracs.items():
        copies = frac * scale
        assert copies.denominator == 1
        if copies.numerator > 0:
            mult[key] = copies.numerator
    return UnitMultigraph(tuple(sorted(und.nodes)), scale, mult, g)


def finite_bandwidth_proxy(g):
    """Replace infinite link bandwidths with 16 times the fastest finite
    one, so the tree-packing machinery (which needs rational capacities)
    can run on graphs that mix finite and infinite links.

    An infinite link then admits 16 times as many unit tree instances as
    the widest finite link, which is enough for it never to be the
    packing bottleneck in practice.  The proxy is built once per graph
    and returned on every later call, so its cut tree and its unit
    multigraph are built once too.  Graphs with no infinite link are
    returned unchanged; graphs with *only* infinite links are an error --
    on those, communication takes no simulated time at all and callers
    should skip the transfer entirely.
    """
    return g._finite_proxy


def all_infinite_bandwidth(g):
    """True when every link is infinite: communication is then free, and
    :func:`finite_bandwidth_proxy` has nothing to scale against."""
    return all(b == INFINITY for b in g.bandwidth.values())


# == Leaf/branch peeling ==

@dataclass(frozen=True)
class PeelLayer:
    leaves: frozenset
    branches: frozenset


def leaf_branch_peeling(adjacency):
    """Peel a tree into layers of leaves plus absorbed degree-2 chains.

    Each round removes the current leaves together with every degree-2
    node reachable from them through other degree-2 nodes (degrees taken
    at the start of the round).  The number of rounds — the peeling depth
    — is at most ``floor(log2(n + 2))``.

    ``adjacency`` maps each vertex to its neighbors; vertices may be any
    hashable values.
    Returns ``(layers, depth)``.
    """
    adj = {v: set(ns) for v, ns in adjacency.items()}
    for v, ns in adj.items():
        for u in ns:
            if u not in adj or v not in adj[u]:
                raise ValueError("adjacency is not symmetric")
        if v in ns:
            raise ValueError("self loop")
    n = len(adj)
    if n == 0:
        raise ValueError("empty tree")
    edge_count = sum(len(ns) for ns in adj.values()) // 2
    root = next(iter(adj))
    seen = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    if len(seen) != n or edge_count != n - 1:
        raise ValueError("input is not a tree")

    layers = []
    remaining = {v: set(ns) for v, ns in adj.items()}
    while remaining:
        degree = {v: len(ns) for v, ns in remaining.items()}
        leaves = {v for v, d in degree.items() if d <= 1}
        branches = set()
        frontier = set(leaves)
        while True:
            grown = {
                v for v in remaining
                if v not in leaves and v not in branches
                and degree[v] == 2 and remaining[v] & frontier
            }
            if not grown:
                break
            branches |= grown
            frontier = grown
        gone = leaves | branches
        for v in gone:
            for u in remaining[v]:
                remaining[u].discard(v)
            del remaining[v]
        layers.append(PeelLayer(frozenset(leaves), frozenset(branches)))
    return tuple(layers), len(layers)
