"""Choosing which workers should participate in an SGD iteration.

The central routine, :func:`find_fastest_subset`, peels a Gomory-Hu tree
of the communication graph from its lightest edge upward.  At step k the
forest obtained by deleting the k-1 lightest tree edges partitions the
nodes into k candidate subsets, and each candidate S is scored by

    t_k(S) = d / w_k  +  min_m (harmonic mean of the m fastest h in S)
                              * (1 + ratio / m)

— seconds of communication through the step's cut bottleneck plus seconds
of computation for a variance-reducing batch (``ratio`` is sigma^2 over
the target accuracy).  The subset attaining the global minimum is the one
a bandwidth-aware method should train on.

The peel runs in reverse, as offline union-find: adding the tree edges
heaviest-first from n singletons gives the same forests, so each step
merges two components and scores only the merged one anew.  The trace
keeps one split per step; a step's full partition is rebuilt on demand.

Also housed here: the per-iteration score pieces, the batch-collection
time bound, the target batch size, and the heterogeneous stopping rule.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field

from .graph_core import WeightedGraph, gomory_hu_tree

INFINITY = math.inf

# Relative slack when snapping near-integer ratios before a ceiling, so
# that e.g. sigma^2/eps arriving as 16.000000000000002 still ceils to 16.
_CEIL_SNAP = 1e-9


def _ceil_snapped(x):
    nearest = round(x)
    if abs(x - nearest) <= _CEIL_SNAP * max(1.0, abs(x)):
        return int(nearest)
    return int(math.ceil(x))


@dataclass(frozen=True)
class ProblemParams:
    """Optimization-problem scalars shared across the whole stack.

    d: vector dimension (coordinates); sigma2: gradient-variance bound;
    epsilon: target squared-gradient-norm accuracy; L: smoothness
    constant; delta: initial objective gap f(x0) - f*.
    """

    d: float
    sigma2: float
    epsilon: float
    L: float
    delta: float

    def __post_init__(self):
        if not 0 <= self.d < math.inf:
            raise ValueError(
                f"dimension must be finite and nonnegative, got {self.d}")
        if not 0 <= self.sigma2 < math.inf:
            raise ValueError("variance bound must be finite and "
                             f"nonnegative, got {self.sigma2}")
        for name in ("epsilon", "L", "delta"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")

    @property
    def ratio(self):
        """sigma^2 / epsilon, the variance-to-accuracy ratio."""
        return self.sigma2 / self.epsilon


def _harmonic_prefix(ratio, times):
    """Minimize ``(m / sum_{i<=m} 1/h_i) * (1 + ratio / m)`` over m.

    ``times`` are compute times; infinite ones (switches) are dropped and
    the rest sorted ascending.  Returns ``(value, m, deterministic,
    statistical)``: the minimum, its smallest argmin, and the two parts
    of the minimum -- the harmonic mean ``m / sum 1/h`` of the m fastest
    times and the batch-collection remainder ``ratio / sum 1/h``.
    """
    finite = sorted(t for t in times if math.isfinite(t))
    if not finite:
        raise ValueError("no finite compute time in subset")
    if ratio < 0:
        raise ValueError("ratio must be nonnegative")
    best = None
    inv_sum = 0.0
    for m, hv in enumerate(finite, start=1):
        inv_sum += 1.0 / hv
        value = (m / inv_sum) * (1.0 + ratio / m)
        if best is None or value < best[0]:
            best = (value, m, inv_sum)
    value, m, inv_sum = best
    return value, m, m / inv_sum, ratio / inv_sum


def harmonic_batch_term(ratio, S, h):
    """Best achievable batch-plus-straggler computation time within S.

    Evaluates ``min over m of (m / sum_{i<=m} 1/h_i) * (1 + ratio / m)``
    with the h values of S sorted ascending; nodes with infinite h
    (switches) cannot compute and are excluded before the minimization.

    Raises ``ValueError`` when S is empty or contains no finite-h node.
    """
    if not S:
        raise ValueError("empty subset")
    return _harmonic_prefix(ratio, (h[i] for i in S))[0]


def subset_score(k, S, params, w_k, h):
    """Score t_k(S): cut-limited communication plus batch computation.

    ``w_k`` is the step's sorted tree weight; an infinite weight means the
    subset communicates with nobody outside and the d/w term vanishes
    (d/inf = 0).  ``k`` is carried only for trace context.
    """
    if not (w_k > 0):
        raise ValueError("cut weight must be positive")
    comm = 0.0 if w_k == INFINITY else params.d / w_k
    return comm + harmonic_batch_term(params.ratio, S, h)


def _find(parent, x):
    """Root of x in a union-find ``parent`` map, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


@dataclass(frozen=True)
class SelectionStep:
    """One peeling step: its weight, its best score and the split it makes.

    ``best`` is ``(min node, size)`` of the best-scoring component, or
    None when every component is all-switch.  ``components`` and
    ``best_subset`` are not stored: they are rebuilt on access from the
    tree's sorted edges, which all steps of one search share, so a trace
    takes O(n) memory.
    """

    k: int
    weight: float
    best: tuple | None
    best_score: float
    removed_edge: tuple | None  # (u, v) deleted after scoring; None at k=n
    nodes: tuple = field(repr=False, compare=False)
    order: tuple = field(repr=False, compare=False)  # sorted tree edges

    @property
    def components(self):
        """The k components, sorted tuples ordered by their minimum node."""
        parent = {v: v for v in self.nodes}
        for u, v, _ in self.order[self.k - 1:]:
            parent[_find(parent, u)] = _find(parent, v)
        groups = {}
        for v in self.nodes:
            groups.setdefault(_find(parent, v), []).append(v)
        return tuple(sorted((tuple(sorted(c)) for c in groups.values()),
                            key=lambda c: c[0]))

    @property
    def best_subset(self):
        """The best component, or () when every component is all-switch."""
        if self.best is None:
            return ()
        return next(c for c in self.components if c[0] == self.best[0])


@dataclass(frozen=True)
class SubsetChoice:
    subset: tuple
    k: int
    score: float
    weight: float


@dataclass(frozen=True)
class SelectionTrace:
    steps: tuple

    def to_dict(self):
        """One split per step: numbers only, O(1) per step."""
        def num(x):
            return "inf" if x == INFINITY else x

        return {
            "steps": [
                {
                    "k": s.k,
                    "weight": num(s.weight),
                    "best_score": num(s.best_score),
                    "best": None if s.best is None else
                    {"min_node": s.best[0], "size": s.best[1]},
                    "removed_edge": list(s.removed_edge)
                    if s.removed_edge else None,
                }
                for s in self.steps
            ]
        }


def _step_best(heap, comps, parent, comm):
    """Best live component at this step's ``comm`` term, or None.

    ``heap`` holds ``(term, -size, min node)`` for every component ever
    formed; an entry is live while the component holding its min node
    still has that min node and size.  Float addition is monotone, so
    ``comm + term`` never decreases along the heap order: the first live
    entry gives the best score, and the scan goes on only while later
    terms round to that same sum.  Among those it keeps the larger
    subset, then the smaller min node.  Scanned entries go back.
    """
    best, seen = None, []
    while heap:
        term, neg_size, low = heap[0]
        root = _find(parent, low)
        if comps[root][:2] != (low, -neg_size):
            heapq.heappop(heap)  # merged away
            continue
        score = comm + term
        if best is not None and score != best[0]:
            break
        seen.append(heapq.heappop(heap))
        if best is None or (neg_size, low) < best[1]:
            best = (score, (neg_size, low))
    for entry in seen:
        heapq.heappush(heap, entry)
    if best is None:
        return None
    score, (neg_size, low) = best
    return score, (low, -neg_size)


def find_fastest_subset(g: WeightedGraph, params: ProblemParams):
    """Peel the Gomory-Hu tree and return the best-scoring worker subset.

    Step k (k = 1..n) scores every component of the forest left after
    deleting the k-1 lightest tree edges of ``gomory_hu_tree(g)`` with
    :func:`subset_score`, using the k-th sorted weight (infinity at
    k = n) as the communication bottleneck; the step's edge is then
    removed.  Equal weights are removed in the order of
    ``GomoryHuTree.sorted_edges``.  Equal scores prefer the larger
    subset, then the smaller minimum node, and across steps the smaller k.

    The loop runs the peel in reverse: deleting edges lightest-first
    gives the same forests as adding them heaviest-first, so it starts
    from n singletons at k = n and unions one edge per step.  Each root
    keeps its min node, size and sorted finite ``h`` values, so only a
    merged component needs a new harmonic prefix, and a heap of
    ``(term, -size, min node)`` yields each step's best component.  Apart
    from the merged components' prefixes, O(size) each, and scans over
    float-tied scores, the search takes O(n log n).

    Returns ``(SubsetChoice, SelectionTrace)``; the trace records every
    step (weight, best component, best score, removed edge).
    """
    tree = gomory_hu_tree(g)
    nodes = tree.nodes
    n = len(nodes)
    order = tuple(tree.sorted_edges())
    ratio = params.ratio

    parent = {v: v for v in nodes}
    comps = {}  # root -> (min node, size, sorted finite h)
    heap = []
    for v in nodes:
        finite = [g.h[v]] if math.isfinite(g.h[v]) else []
        comps[v] = (v, 1, finite)
        if finite:
            heap.append((_harmonic_prefix(ratio, finite)[0], -1, v))
    heapq.heapify(heap)

    steps = []
    best_step = None
    for k in range(n, 0, -1):
        removed = None
        weight = INFINITY
        if k < n:
            u, v, weight = order[k - 1]
            removed = (u, v)
            ru, rv = _find(parent, u), _find(parent, v)
            low_u, size_u, h_u = comps.pop(ru)
            low_v, size_v, h_v = comps.pop(rv)
            if size_u < size_v:
                ru, rv = rv, ru
            parent[rv] = ru
            merged = sorted(h_u + h_v)
            low, size = min(low_u, low_v), size_u + size_v
            comps[ru] = (low, size, merged)
            if merged:
                heapq.heappush(heap, (_harmonic_prefix(ratio, merged)[0],
                                      -size, low))
        comm = 0.0 if weight == INFINITY else params.d / weight
        pick = _step_best(heap, comps, parent, comm)
        score, best = (INFINITY, None) if pick is None else pick
        step = SelectionStep(k, weight, best, score, removed, nodes, order)
        steps.append(step)
        if pick is not None and (best_step is None
                                 or score <= best_step.best_score):
            best_step = step
    if best_step is None:
        raise ValueError("graph has no node able to compute")
    steps.reverse()
    choice = SubsetChoice(best_step.best_subset, best_step.k,
                          best_step.best_score, best_step.weight)
    return choice, SelectionTrace(tuple(steps))


def batch_collection_bound(B, S, h):
    """Upper bound on the seconds needed to accumulate B gradients in S.

    Same harmonic structure as the selection score: the best prefix of
    workers (sorted by speed) computing back to back collects B gradients
    within ``(harmonic mean of m fastest h) * (1 + B/m)`` seconds.
    """
    if B < 0:
        raise ValueError("batch size must be nonnegative")
    return harmonic_batch_term(float(B), S, h)


def grace_target_batch(params: ProblemParams):
    """Per-iteration global batch target: max(ceil(sigma^2/eps), 1)."""
    return max(_ceil_snapped(params.ratio), 1)


def leon_stop_rule(B, n, params: ProblemParams):
    """Heterogeneous batch stop: harmonic mean of counts reaches the target.

    True iff every worker holds at least one gradient and the harmonic
    mean of the counts is at least ``max(ceil(sigma^2/eps), n) / n``.
    Counts of zero simply evaluate to false (still waiting), not an
    error.  Evaluated in exact integer arithmetic, one term per distinct
    count: with Σ_b m_b/b = num/den, the rule is n²·den ≥ target·num.
    """
    counts = list(B)
    if len(counts) != n:
        raise ValueError(f"expected {n} counts, got {len(counts)}")
    low = min(counts)
    if low < 0:
        raise ValueError("negative batch count")
    if low == 0:
        return False
    num, den = 0, 1
    for b, m in Counter(counts).items():
        b = int(b)  # a numpy count would overflow the products
        num, den = num * b + m * den, den * b
    return n * n * den >= max(_ceil_snapped(params.ratio), n) * num
