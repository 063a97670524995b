"""Choosing which workers should participate in an SGD iteration.

The central routine, :func:`find_fastest_subset`, walks a Gomory-Hu tree
of the communication graph from its lightest edge upward.  At step k the
forest obtained by deleting the k-1 lightest tree edges partitions the
nodes into k candidate subsets, and each candidate S is scored by

    t_k(S) = d / w_k  +  min_m (harmonic mean of the m fastest h in S)
                              * (1 + ratio / m)

— seconds of communication through the step's cut bottleneck plus seconds
of computation for a variance-reducing batch (``ratio`` is sigma^2 over
the target accuracy).  The subset attaining the global minimum is the one
a bandwidth-aware method should train on.

Also housed here: the per-iteration score pieces, the batch-collection
time bound, the target batch size, and the heterogeneous stopping rule.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class SelectionStep:
    k: int
    weight: float
    components: tuple  # sorted tuples of node ids, k of them
    best_subset: tuple  # () when every component is all-switch
    best_score: float
    removed_edge: tuple | None  # (u, v) deleted after scoring; None at k=n


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
        def num(x):
            return "inf" if x == INFINITY else x

        return {
            "steps": [
                {
                    "k": s.k,
                    "weight": num(s.weight),
                    "components": [list(c) for c in s.components],
                    "best_subset": list(s.best_subset),
                    "best_score": num(s.best_score),
                    "removed_edge": list(s.removed_edge)
                    if s.removed_edge else None,
                }
                for s in self.steps
            ]
        }


def _components(nodes, edges):
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


def find_fastest_subset(g: WeightedGraph, params: ProblemParams):
    """Walk the Gomory-Hu tree and return the best-scoring worker subset.

    Implements the tree-peeling loop directly on ``gomory_hu_tree(g)``:
    sort the tree's edges ascending, and for k = 1..n score every
    connected component of the forest left after deleting the k-1
    lightest edges with :func:`subset_score`, using the k-th sorted
    weight (infinity at k = n) as the communication bottleneck; a
    component's batch term is kept while it survives.  After scoring,
    the step's edge is removed — ties among equal weights go to the
    lexicographically smallest endpoint pair, and ties among equal
    component scores prefer the larger subset, then the smallest minimum
    node id.

    Returns ``(SubsetChoice, SelectionTrace)``; the trace records every
    step (weight, components, best score, removed edge).
    """
    tree = gomory_hu_tree(g)
    nodes = tree.nodes
    n = len(nodes)
    order = tree.sorted_edges()
    h = g.h

    steps = []
    best_choice = None
    terms = {}  # component -> batch term, None for an all-switch one
    remaining = [(u, v) for u, v, _ in order]
    for k in range(1, n + 1):
        weight = order[k - 1][2] if k <= n - 1 else INFINITY
        comps = _components(nodes, remaining)
        if len(comps) != k:
            raise AssertionError("forest component count drifted")
        comm = 0.0 if weight == INFINITY else params.d / weight
        step_best = None
        for comp in comps:
            if comp not in terms:
                terms[comp] = harmonic_batch_term(params.ratio, comp, h) \
                    if any(math.isfinite(h[i]) for i in comp) else None
            if terms[comp] is None:
                continue  # all-switch component: score +inf, never chosen
            score = comm + terms[comp]
            key = (score, -len(comp), comp[0])
            if step_best is None or key < step_best[0]:
                step_best = (key, comp, score)
        removed = remaining.pop(0) if k <= n - 1 else None
        if step_best is None:
            steps.append(SelectionStep(k, weight, tuple(comps), (),
                                       INFINITY, removed))
            continue
        _, comp, score = step_best
        steps.append(SelectionStep(k, weight, tuple(comps), comp, score,
                                   removed))
        if best_choice is None or score < best_choice.score:
            best_choice = SubsetChoice(comp, k, score, weight)
    if best_choice is None:
        raise ValueError("graph has no node able to compute")
    return best_choice, SelectionTrace(tuple(steps))


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
    error.  Evaluated in exact rational arithmetic, one term per distinct
    count.
    """
    counts = list(B)
    if len(counts) != n:
        raise ValueError(f"expected {n} counts, got {len(counts)}")
    if any(b < 0 for b in counts):
        raise ValueError("negative batch count")
    if any(b == 0 for b in counts):
        return False
    inverse = sum(Fraction(m, int(b)) for b, m in Counter(counts).items())
    harm = Fraction(n) / inverse
    threshold = Fraction(max(_ceil_snapped(params.ratio), n), n)
    return harm >= threshold
