"""Closed-form time-complexity calculators for the SGD variants.

Every calculator returns a :class:`ComplexityReport` whose term
breakdown is in simulated seconds.  Two arithmetic modes exist:

* ``"constants"`` — explicit constants where the analysis states them
  (iteration count ``ceil(4·L·Δ/ε)``, step size 1/(2L)); this is the
  mode the consistency tests compare term-by-term.
* ``"asymptotic"`` — all leading constants collapse to 1 (iteration
  count becomes ``L·Δ/ε``), matching how the formulas are usually
  displayed.

The heterogeneous-method iteration constant is not pinned down by the
analysis; constants mode reuses 4 by symmetry with the homogeneous
bound and flags that choice in the report notes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .graph_core import WeightedGraph, gomory_hu_tree, min_S_cut
from .selection import (ProblemParams, _ceil_snapped, _harmonic_prefix,
                        find_fastest_subset)

INFINITY = math.inf

_MODES = ("constants", "asymptotic")

#: displayed lower bounds carry an extra polylog factor that is never
#: folded into computed numbers
POLYLOG_NOTE = ("lower-bound displays carry an extra log^14(n+1) factor; "
                "it is annotation only and never multiplied in")


@dataclass(frozen=True)
class ComplexityReport:
    """Seconds-valued term breakdown for one method on one instance."""

    method: str
    mode: str
    total: float
    terms: dict
    combine: str  # "sum" | "max"
    regime: str = ""
    notes: tuple = ()

    def check(self):
        """Assert the total/terms invariant; returns self for chaining."""
        assert all(v >= 0 for v in self.terms.values()), self.terms
        want = (sum(self.terms.values()) if self.combine == "sum"
                else max(self.terms.values()))
        assert math.isclose(self.total, want, rel_tol=1e-12, abs_tol=1e-12)
        return self

    def to_dict(self):
        return {"method": self.method, "mode": self.mode,
                "total": self.total, "terms": dict(self.terms),
                "combine": self.combine, "regime": self.regime,
                "notes": list(self.notes)}


def iteration_count(params: ProblemParams, mode):
    """Iterations to reach an ε-stationary point, per the chosen mode."""
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    ld = params.L * params.delta / params.epsilon
    return float(_ceil_snapped(4.0 * ld)) if mode == "constants" else ld


def grace_complexity(g: WeightedGraph, params: ProblemParams,
                     mode="constants"):
    """Total seconds for the subset-planned pipelined method.

    Picks the fastest worker subset from the cut tree, then charges
    ``(d / cut + harmonic batch term) × iterations``.
    """
    k_iter = iteration_count(params, mode)
    choice, _ = find_fastest_subset(g, params)
    comm = 0.0 if choice.weight == INFINITY else params.d / choice.weight
    _, m_star, det, stat = _harmonic_prefix(
        params.ratio, (g.h[i] for i in choice.subset))
    terms = {"communication": comm * k_iter,
             "deterministic": det * k_iter,
             "statistical": stat * k_iter}
    return ComplexityReport(
        "grace", mode, sum(terms.values()), terms, "sum",
        regime=f"k={choice.k} |S|={len(choice.subset)} m={m_star}",
    ).check()


def leon_complexity(g: WeightedGraph, params: ProblemParams,
                    mode="constants", workers=None):
    """Heterogeneous-setting bound: the worst of three bottlenecks.

    ``max{d/(global min cut), max h_i, (σ²/(nε))·mean(h)} × iterations``.
    Passing ``workers`` restricts the compute terms to that subset and
    replaces the global min cut by the cut separating the subset (the
    switch-aware variant); by default workers are the finite-h nodes and
    the cut is the smallest weight in the Gomory-Hu tree.
    """
    if workers is None:
        ws = sorted(g.workers())
        if len(g.nodes) == 1:
            w1 = INFINITY
        else:
            tree = gomory_hu_tree(g)
            w1 = min(tree.weights())
    else:
        ws = sorted(workers)
        unknown = [i for i in ws if i not in g.h]
        if unknown:
            raise ValueError(f"unknown workers {unknown}")
        if any(not math.isfinite(g.h[i]) for i in ws):
            raise ValueError("workers must have finite compute times")
        w1 = INFINITY if len(ws) < 2 else min_S_cut(g, ws)
    if not ws:
        raise ValueError("no computing node")
    n = len(ws)
    k_iter = iteration_count(params, mode)
    comm = 0.0 if w1 == INFINITY else params.d / w1
    mean_h = sum(g.h[i] for i in ws) / n
    terms = {"communication": comm * k_iter,
             "compute": max(g.h[i] for i in ws) * k_iter,
             "statistical": (params.ratio / n) * mean_h * k_iter}
    notes = ()
    if mode == "constants":
        notes = ("iteration constant 4 is a convention here; the "
                 "heterogeneous analysis leaves it unspecified",)
    return ComplexityReport(
        "leon", mode, max(terms.values()), terms, "max",
        regime=f"n={n} cut={'inf' if w1 == INFINITY else w1}",
        notes=notes).check()


def sync_sgd_complexity(g: WeightedGraph, params: ProblemParams,
                        mode="constants"):
    """Fully synchronous baseline: every worker, slowest link and GPU.

    ``(d/b_min + h_max) × iterations × (1 + σ²/(nε))``.
    """
    ws = sorted(g.workers())
    if not ws:
        raise ValueError("no computing node")
    n = len(ws)
    finite_b = [b for b in g.bandwidth.values() if b != INFINITY]
    b_min = min(finite_b) if finite_b else INFINITY
    comm = 0.0 if b_min == INFINITY else params.d / b_min
    factor = iteration_count(params, mode) * (1.0 + params.ratio / n)
    terms = {"communication": comm * factor,
             "compute": max(g.h[i] for i in ws) * factor}
    return ComplexityReport(
        "sync", mode, sum(terms.values()), terms, "sum",
        regime=f"n={n} b_min={'inf' if b_min == INFINITY else b_min}",
    ).check()


def hero_sgd_complexity(params: ProblemParams, h, mode="constants"):
    """Run everything on the single fastest worker; no communication."""
    finite = [v for v in (h.values() if isinstance(h, dict) else h)
              if math.isfinite(v)]
    if not finite:
        raise ValueError("no computing node")
    h_min = min(finite)
    k_iter = iteration_count(params, mode)
    terms = {"compute": h_min * k_iter,
             "statistical": h_min * params.ratio * k_iter}
    return ComplexityReport(
        "hero", mode, sum(terms.values()), terms, "sum",
        regime=f"h_min={h_min}").check()


# == Named-topology closed forms ==

def _two_regime(all_terms, hero_terms, method, mode, notes=()):
    """min over the cooperate-vs-solo branches; cooperation wins ties."""
    total_all = sum(all_terms.values())
    total_hero = sum(hero_terms.values())
    if total_all <= total_hero:
        return ComplexityReport(method, mode, total_all, all_terms, "sum",
                                regime="cooperate", notes=notes).check()
    return ComplexityReport(method, mode, total_hero, hero_terms, "sum",
                            regime="solo", notes=notes).check()


def topology_closed_form(kind, params: ProblemParams, *, n=None, b=None,
                         h=None, p=None, clusters=None, b_slow=None,
                         cluster_h=None, mode="constants"):
    """Explicit formula for a named topology, equal compute time ``h``.

    Each formula is the two-branch minimum — cooperate through the
    topology's bottleneck cut, or run on one worker — and mirrors the
    general calculator term by term on a concretely built instance of
    the same topology.  Kinds: ``star``, ``p_torus`` (needs ``p``),
    ``all_to_all``, ``k_clusters`` (needs ``clusters`` and ``b_slow``;
    pass ``cluster_h`` for the per-cluster compute-time variant).
    """
    k_iter = iteration_count(params, mode)
    r = params.ratio

    def solo(h_val):
        return {"communication": 0.0, "deterministic": h_val * k_iter,
                "statistical": h_val * r * k_iter}

    def coop(cut, h_val, group):
        return {"communication": (0.0 if cut == INFINITY
                                  else params.d / cut) * k_iter,
                "deterministic": h_val * k_iter,
                "statistical": h_val * (r / group) * k_iter}

    if kind == "star":
        _need(n=n, b=b, h=h)
        if n < 2:
            raise ValueError("star needs n >= 2")
        return _two_regime(coop(b, h, n), solo(h), "star", mode)
    if kind == "p_torus":
        _need(n=n, b=b, h=h, p=p)
        cut = 2.0 * p * b
        return _two_regime(
            coop(cut, h, n), solo(h), "p_torus", mode,
            notes=("bottleneck cut is 2pb; displays often keep only the "
                   "p scaling",))
    if kind == "all_to_all":
        _need(n=n, b=b, h=h)
        if n < 2:
            raise ValueError("all_to_all needs n >= 2")
        return _two_regime(coop((n - 1.0) * b, h, n), solo(h),
                           "all_to_all", mode)
    if kind == "k_clusters":
        _need(n=n, clusters=clusters, b_slow=b_slow)
        K = clusters
        if K < 2 or n % K:
            raise ValueError("need K >= 2 clusters of equal size")
        cut = b_slow if K == 2 else 2.0 * b_slow
        size = n // K
        if cluster_h is None:
            _need(h=h)
            one = {"communication": 0.0, "deterministic": h * k_iter,
                   "statistical": h * (r / size) * k_iter}
            return _two_regime(coop(cut, h, n), one, "k_clusters", mode,
                               notes=_CLUSTER_NOTE)
        if len(cluster_h) != K:
            raise ValueError("cluster_h must list one time per cluster")
        # solo branch: the fastest cluster works alone
        h_min = min(cluster_h)
        one = {"communication": 0.0, "deterministic": h_min * k_iter,
               "statistical": h_min * (r / size) * k_iter}
        # cooperate branch: harmonic mean over the m fastest workers, a
        # cluster's worth at each compute time; the optimum falls on a
        # cluster boundary because the score is monotone within a cluster
        _, _, det, stat = _harmonic_prefix(
            r, [hv for hv in cluster_h for _ in range(size)])
        allb = {"communication": (params.d / cut) * k_iter,
                "deterministic": det * k_iter,
                "statistical": stat * k_iter}
        return _two_regime(allb, one, "k_clusters", mode,
                           notes=_CLUSTER_NOTE)
    raise ValueError(f"unknown topology kind {kind!r}")


_CLUSTER_NOTE = ("ring of clusters: the separating cut uses two slow "
                 "links (one when K=2); displays often keep only b_slow",)


def _need(**kw):
    missing = [k for k, v in kw.items() if v is None]
    if missing:
        raise ValueError(f"missing topology parameters: {missing}")


# == Sparse-graph trade-off bounds ==

@dataclass(frozen=True)
class TradeoffReport:
    """Degree-based lower-bound surfaces for uniform-h, uniform-b graphs.

    ``by_degree`` scans m active workers against k(m), the m-th largest
    node degree; ``by_count`` scans a degree threshold m against n(m),
    the number of nodes of degree at least m.  Both include the
    always-available single-worker fallback; values are asymptotic
    (constants 1) and omit the polylog factor (see ``notes``).
    """

    k_of_m: dict
    n_of_m: dict
    by_degree: float
    by_degree_argmin: int
    by_count: float
    by_count_argmin: int
    solo: float
    notes: tuple = (POLYLOG_NOTE,)

    def to_dict(self):
        return {"k_of_m": dict(self.k_of_m), "n_of_m": dict(self.n_of_m),
                "by_degree": self.by_degree,
                "by_degree_argmin": self.by_degree_argmin,
                "by_count": self.by_count,
                "by_count_argmin": self.by_count_argmin,
                "solo": self.solo, "notes": list(self.notes)}


def tradeoff_bounds(g: WeightedGraph, params: ProblemParams):
    """Evaluate the degree-statistics lower bounds on a concrete graph.

    Requires every node to share one compute time and every edge one
    bandwidth.  Reports k(m) (m-th largest degree), n(m) (nodes with
    degree ≥ m), and the two resulting bound values with their argmins,
    against the single-worker fallback.
    """
    hs = {g.h[i] for i in g.nodes}
    if len(hs) != 1 or not math.isfinite(next(iter(hs))):
        raise ValueError("bounds require one finite compute time shared "
                         "by every node")
    bs = {b for b in g.bandwidth.values()}
    if len(bs) != 1 or next(iter(bs)) == INFINITY:
        raise ValueError("bounds require one finite bandwidth shared by "
                         "every edge")
    h = next(iter(hs))
    b = next(iter(bs))
    n = len(g.nodes)
    if n < 2:
        raise ValueError("bounds need at least two nodes")
    k_iter = iteration_count(params, "asymptotic")
    r = params.ratio

    deg = {i: len(g.neighbors(i)) for i in g.nodes}
    desc = sorted(deg.values(), reverse=True)
    k_of_m = {m: desc[m - 1] for m in range(2, n + 1)}
    n_of_m = {m: sum(1 for v in deg.values() if v >= m)
              for m in range(1, n)}

    solo = h * (1.0 + r) * k_iter + h * k_iter

    best_deg = None
    for m in range(2, n + 1):
        val = (params.d / (k_of_m[m] * b) + h * r / m) * k_iter
        if best_deg is None or val < best_deg[0]:
            best_deg = (val, m)
    by_degree = min(best_deg[0] + h * k_iter, solo)

    best_cnt = None
    for m in range(1, n):
        if n_of_m[m] == 0:
            continue
        val = (params.d / (m * b) + h * r / n_of_m[m]) * k_iter
        if best_cnt is None or val < best_cnt[0]:
            best_cnt = (val, m)
    by_count = min(best_cnt[0] + h * k_iter, solo)

    return TradeoffReport(k_of_m, n_of_m, by_degree, best_deg[1],
                          by_count, best_cnt[1], solo)

