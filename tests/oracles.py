"""Independent reference computations used to cross-check the package.

Everything in this file is deliberately written WITHOUT importing from
``flowsgd``: cuts are found by enumerating vertex bipartitions, selection
scores are re-derived from a brute-force all-pairs cut matrix, streaming
times come from closed-form fluid arithmetic, and batch collection is a
direct heap walk.  Slow on purpose; call only on desk-scale inputs.

Graphs are passed around here as ``(nodes, edges)`` where ``nodes`` is an
iterable of hashable ids and ``edges`` maps an undirected pair (as a
2-tuple in either order or a frozenset) to a positive weight.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction


def _norm_edges(edges):
    out = {}
    for key, w in edges.items():
        u, v = tuple(key)
        if u == v:
            raise ValueError("self loop in oracle graph")
        out[frozenset((u, v))] = w
    return out


def cut_weight(edges, side):
    """Total weight of edges with exactly one endpoint in ``side``."""
    side = set(side)
    total = 0.0
    for key, w in _norm_edges(edges).items():
        u, v = tuple(key)
        if (u in side) != (v in side):
            total += w
    return total


def brute_force_min_cut(nodes, edges, s, t):
    """Exact min s-t cut by enumerating all subsets containing s but not t."""
    nodes = sorted(nodes)
    if s == t:
        raise ValueError("s == t")
    others = [v for v in nodes if v not in (s, t)]
    best = math.inf
    best_side = {s}
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            side = {s, *combo}
            val = cut_weight(edges, side)
            if val < best:
                best = val
                best_side = side
    return best, best_side


def brute_force_all_pairs(nodes, edges):
    """All-pairs min cut matrix, one bipartition enumeration for all pairs."""
    nodes = sorted(nodes)
    anchor = nodes[0]
    cuts = {}
    # Enumerating subsets containing the anchor covers every bipartition once.
    rest = nodes[1:]
    mat = {(u, v): math.inf for u in nodes for v in nodes if u != v}
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            side = {anchor, *combo}
            if len(side) == len(nodes):
                continue
            val = cut_weight(edges, side)
            comp = [v for v in nodes if v not in side]
            for u in side:
                for v in comp:
                    if val < mat[(u, v)]:
                        mat[(u, v)] = val
                        mat[(v, u)] = val
    return mat


def brute_force_min_s_cut(nodes, edges, terminals):
    """Minimum weight of a cut separating at least two of ``terminals``."""
    terminals = sorted(terminals)
    if len(terminals) < 2:
        return math.inf
    nodes = sorted(nodes)
    anchor = nodes[0]
    rest = nodes[1:]
    best = math.inf
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            side = {anchor, *combo}
            inside = sum(1 for x in terminals if x in side)
            if 0 < inside < len(terminals):
                best = min(best, cut_weight(edges, side))
    return best


def gh_weight_multiset(nodes, edges):
    """Sorted multiset of Gomory-Hu tree weights, derived without building one.

    Any maximum spanning tree of the all-pairs min-cut matrix has the same
    sorted weight list as a Gomory-Hu tree, and all maximum spanning trees
    share one weight multiset.
    """
    nodes = sorted(nodes)
    mat = brute_force_all_pairs(nodes, edges)
    pairs = sorted(
        ((u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]),
    )
    pairs.sort(key=lambda p: (-mat[p], p))
    parent = {v: v for v in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    weights = []
    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            weights.append(mat[(u, v)])
    return sorted(weights)


def harmonic_term(h_values, ratio):
    """min over m of (harmonic mean of m fastest h) * (1 + ratio/m)."""
    finite = sorted(h for h in h_values if math.isfinite(h))
    if not finite:
        return math.inf
    best = math.inf
    inv_sum = 0.0
    for m, h in enumerate(finite, start=1):
        inv_sum += 1.0 / h
        best = min(best, (m / inv_sum) * (1.0 + ratio / m))
    return best


def batch_bound(h_values, batch):
    """min over m of (harmonic mean of m fastest h) * (1 + batch/m)."""
    return harmonic_term(h_values, batch)


def exhaustive_best_score(nodes, edges, h, d, ratio):
    """Independent minimization of d/w + harmonic over every threshold partition.

    Tie-order-independent: for each distinct cut level c the partition of the
    relation ``min-cut(u, v) >= c`` is evaluated (this is the forest obtained
    after deleting every strictly-lighter tree edge, whatever the removal
    order inside a weight class was), plus the all-singletons step with an
    infinite weight.  Partitions reached mid-way through a weight class are
    refinements whose harmonic term cannot beat the class's first step, so
    they never change the minimum.
    """
    nodes = sorted(nodes)
    if len(nodes) == 1:
        return harmonic_term([h[nodes[0]]], ratio)
    mat = brute_force_all_pairs(nodes, edges)
    levels = sorted({mat[p] for p in mat})
    best = math.inf
    for c in levels:
        # connected components of the "min cut >= c" equivalence
        seen = set()
        comm = d / c if math.isfinite(c) else (0.0 if d == 0 else d / c)
        for v in nodes:
            if v in seen:
                continue
            comp = {v}
            for u in nodes:
                if u != v and mat[(u, v)] >= c:
                    comp.add(u)
            seen |= comp
            score = comm + harmonic_term([h[x] for x in comp], ratio)
            best = min(best, score)
    for v in nodes:  # the sentinel all-singletons step
        best = min(best, harmonic_term([h[v]], ratio))
    return best


def simulate_batch_collection(h_values, stop):
    """Heap walk of back-to-back gradient computation.

    ``h_values`` is a list of per-worker seconds per gradient; ``stop`` is a
    predicate over the tuple of completed counts, checked after every single
    completion (ties broken by worker index).  Returns (counts, elapsed).
    """
    counts = [0] * len(h_values)
    heap = [(h, i) for i, h in enumerate(h_values) if math.isfinite(h)]
    heapq.heapify(heap)
    if stop(tuple(counts)):
        return tuple(counts), 0.0
    if not heap:
        raise ValueError("no finite-speed workers")
    while True:
        t, i = heapq.heappop(heap)
        counts[i] += 1
        if stop(tuple(counts)):
            return tuple(counts), t
        heapq.heappush(heap, (t + h_values[i], i))


def leon_rule_reference(counts, n, ratio):
    """Exact-arithmetic restatement of the heterogeneous stop rule."""
    if any(b < 1 for b in counts):
        return False
    harm = Fraction(n) / sum(Fraction(1, b) for b in counts)
    return harm >= Fraction(max(math.ceil(ratio), n), n)


def max_min_fair_rates(paths, capacity):
    """Progressive-filling max-min fair allocation.

    ``paths``: list of edge-id lists (one per flow); ``capacity``: edge id ->
    capacity.  Returns the list of per-flow rates.
    """
    rates = [None] * len(paths)
    remaining = dict(capacity)
    active = {i for i, p in enumerate(paths) if p}
    for i, p in enumerate(paths):
        if not p:
            rates[i] = math.inf
    while active:
        share = math.inf
        for e, cap in remaining.items():
            users = sum(1 for i in active if e in paths[i])
            if users:
                share = min(share, cap / users)
        frozen = set()
        for e in list(remaining):
            users = [i for i in active if e in paths[i]]
            if users and math.isclose(remaining[e] / len(users), share,
                                      rel_tol=1e-12, abs_tol=1e-15):
                frozen.update(users)
        if not frozen or share is math.inf:
            raise RuntimeError("no bottleneck found")
        for i in frozen:
            rates[i] = share
        for e in list(remaining):
            used = sum(1 for i in frozen if e in paths[i])
            remaining[e] -= share * used
        active -= frozen
    return rates


def streamed_phase_time(size, depth, rate, latency_per_hop=0.0):
    """Fluid time for one streaming phase over a uniform-rate tree.

    A node forwards a coordinate as soon as every child has delivered it, so
    the last coordinate reaches the root ``depth - 1`` coordinate-slots after
    the stream itself would finish on a single hop.
    """
    if depth <= 0:
        return 0.0
    return (size + depth - 1) / rate + depth * latency_per_hop


def aggregation_stream_time(children, bandwidth, pivot, size):
    """Fluid completion time of in-network aggregation toward ``pivot``.

    ``children`` maps node -> list of children in the aggregation tree;
    ``bandwidth`` maps directed pairs (child, parent) -> rate.  Returns the
    time at which the pivot has the full aggregated vector.
    """

    def rate_into(v):
        rs = []
        for c in children.get(v, ()):  # empty for leaves
            rs.append(min(bandwidth[(c, v)], rate_into(c)))
        return min(rs) if rs else math.inf

    def start_of(v):
        # offset at which v's own outgoing stream could begin
        s = 0.0
        for c in children.get(v, ()):
            edge_rate = min(bandwidth[(c, v)], rate_into(c))
            s = max(s, start_of(c) + 1.0 / edge_rate)
        return s

    r = rate_into(pivot)
    if r is math.inf:  # pivot alone
        return 0.0
    return start_of(pivot) + size / r


def central_difference_grad(f, x, step=1e-6):
    """Central finite differences, one coordinate at a time."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2 * step)
    return g


def objective_components(kind, d, n, seed=0, L=1.0, delta=1.0,
                         n_samples=None):
    """The n explicit components whose mean ``make_objective`` computes.

    Replays its seeded draws (the quadratic centres and start direction,
    the logistic features, labels and row blocks) and returns one
    namespace per component with ``d``, ``f``, ``grad``, ``L`` and
    ``x0``; every component starts at the mean's start.
    """
    from types import SimpleNamespace

    import numpy as np

    rng = np.random.default_rng(seed)
    if kind == "quadratic":
        radius = math.sqrt(2.0 * delta / L)
        centers = [rng.standard_normal(d) for _ in range(n)]
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        x0 = np.mean(centers, axis=0) + radius * direction
        return tuple(
            SimpleNamespace(
                d=d, L=L, x0=x0,
                f=lambda x, c=c: 0.5 * L * float(np.dot(x - c, x - c)),
                grad=lambda x, c=c: L * (x - c))
            for c in centers)

    assert kind == "synthetic_logreg"
    reg = 1e-3
    m = n_samples or max(4 * d, 16)
    A = rng.standard_normal((m, d)) / math.sqrt(d)
    w_true = rng.standard_normal(d)
    y = np.sign(A @ w_true + 0.3 * rng.standard_normal(m))
    y[y == 0] = 1.0
    size = m // n

    def block(Ab, yb):
        def f(x):
            return float(np.mean(np.logaddexp(0.0, -yb * (Ab @ x)))
                         + 0.5 * reg * np.dot(x, x))

        def grad(x):
            s = 1.0 / (1.0 + np.exp(yb * (Ab @ x)))
            return (Ab.T @ (-yb * s)) / len(yb) + reg * x

        return SimpleNamespace(
            d=d, f=f, grad=grad, x0=np.zeros(d),
            L=np.linalg.norm(Ab, 2) ** 2 / (4.0 * len(yb)) + reg)

    return tuple(block(A[c * size:(c + 1) * size], y[c * size:(c + 1) * size])
                 for c in range(n))
