"""Simulated SGD variants over synthetic objectives.

The optimization arithmetic is exact (numpy vectors, seeded noise); the
*clock* comes from the simulator: batch collection is an event walk over
worker compute times, and communication rounds are timed by the
streaming model.  The timing model is deterministic, so each method's
per-iteration counts and times form a schedule, made once per graph and
reused by every seed; one loop runs every method from its schedule.

Noise is additive isotropic Gaussian with variance σ²/d per coordinate
and per gradient.  Every method's step sees its batch's noises only
through one weighted sum, so each iteration draws that sum as one
d-vector, N(0, w·σ²/d) with the method's weight w, from a counter-based
generator keyed by (seed, iteration): a trace never depends on
scheduling or thread count, and a run builds one generator per
iteration, not one per (worker, iteration).
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .graph_core import (WeightedGraph, finite_bandwidth_proxy,
                         gomory_hu_tree, unit_multigraph)
from .selection import (ProblemParams, find_fastest_subset,
                        grace_target_batch, leon_stop_rule)
from .simulator import (run_allreduce, run_gradient_computation,
                        run_naive_sync_round)
from .steiner_packing import pack_steiner_trees

INFINITY = math.inf


@dataclass(frozen=True)
class Objective:
    """A differentiable target with known smoothness and a start.

    ``parts`` is the number of equal-weight components the target
    averages: one per worker for leon, 1 for everything else.
    """

    d: int
    f: object  # x -> float
    grad: object  # x -> ndarray
    L: float
    x0: np.ndarray
    parts: int = 1


_REG = 1e-3  # weight of synthetic_logreg's ℓ2 term


def _require_count(name, value):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def make_objective(kind, d, n_components=1, seed=0, L=1.0, delta=1.0,
                   n_samples=None):
    """Build a synthetic objective: the mean of ``n_components`` parts.

    ``quadratic``: seeded minimizers c_1..c_n, one per component, each
    with f_i(x) = (L/2)‖x−c_i‖².  Their mean is computed in closed form,
    f(x) = (L/2)(‖x−c̄‖² + s) with c̄ the mean centre and
    s = (1/n)·Σ‖c_i−c̄‖², so ∇f(x) = L(x−c̄); the start is placed so the
    gap is exactly ``delta``.

    ``synthetic_logreg``: seeded Gaussian features with ±1 labels and an
    ℓ2 term of weight 1e-3, started at zero.  The n components partition
    the sample rows into equal blocks, so their mean is the full-data
    objective; L is the largest block's smoothness constant, which
    bounds every component's (and the mean's).

    The returned Objective has ``parts = n_components``; with one
    component it is that component.
    """
    _require_count("d", d)
    _require_count("n_components", n_components)
    if not (math.isfinite(L) and L > 0):
        raise ValueError(f"L must be finite and > 0, got {L!r}")
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"delta must be finite and >= 0, got {delta!r}")
    if n_samples is not None:
        _require_count("n_samples", n_samples)

    if kind == "quadratic":
        rng = np.random.default_rng(seed)
        radius = math.sqrt(2.0 * delta / L)
        centers = np.array([rng.standard_normal(d)
                            for _ in range(n_components)])
        center = np.mean(centers, axis=0)
        spread = float(np.mean(np.sum((centers - center) ** 2, axis=1)))
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        return Objective(
            d=d,
            f=lambda x: 0.5 * L * (float(np.dot(x - center, x - center))
                                   + spread),
            grad=lambda x: L * (x - center),
            L=L, x0=center + radius * direction, parts=n_components)

    if kind == "synthetic_logreg":
        rng = np.random.default_rng(seed)
        m = n_samples or max(4 * d, 16)
        if m % n_components:
            raise ValueError("components must partition the samples")
        A = rng.standard_normal((m, d)) / math.sqrt(d)
        w_true = rng.standard_normal(d)
        y = np.sign(A @ w_true + 0.3 * rng.standard_normal(m))
        y[y == 0] = 1.0

        def f(x):
            z = -y * (A @ x)
            return float(np.mean(np.logaddexp(0.0, z))
                         + 0.5 * _REG * np.dot(x, x))

        def grad(x):
            z = -y * (A @ x)
            s = 1.0 / (1.0 + np.exp(-z))
            return (A.T @ (-y * s)) / m + _REG * x

        size = m // n_components
        L = max(np.linalg.norm(A[c * size:(c + 1) * size], 2) ** 2
                / (4.0 * size) + _REG for c in range(n_components))
        return Objective(d=d, f=f, grad=grad, L=L, x0=np.zeros(d),
                         parts=n_components)

    raise ValueError(f"unknown objective kind {kind!r}")


class StochasticOracle:
    """Seeded noisy-gradient source shared by all methods.

    A single gradient carries N(0, σ²/d) noise per coordinate, so
    E‖g−∇f‖² = σ².  The training loop reads only σ² and the seed: it
    draws each iteration's summed noise as one vector keyed by
    (seed, iteration) and takes exact gradients from its one Objective
    (leon's is the closed-form mean of its components).
    :meth:`gradient_sum` draws one keyed by (seed, worker, iteration) and
    adds the exact gradient of one of ``objectives``, an Objective or a
    sequence of them.  Both draws come from counter-based generators, so
    traces are reproducible regardless of execution order.
    """

    def __init__(self, objectives, sigma2, seed=0):
        if isinstance(objectives, Objective):
            objectives = (objectives,)
        self.components = tuple(objectives)
        if not self.components:
            raise ValueError("need at least one objective")
        if sigma2 < 0:
            raise ValueError("variance must be nonnegative")
        self.sigma2 = float(sigma2)
        self.seed = seed

    def _draw(self, key, weight, d):
        """Summed noise N(0, weight·σ²/d) per coordinate, or 0.0 if none.

        ``weight`` is the sum of the squared coefficients put on the
        single-gradient noises: B for a sum of B gradients, Σ_w 1/(n²·B_w)
        for leon's mean of per-worker means.  The vector comes from the
        Philox stream of (seed, *key): the training loop keys it by
        iteration, so methods with equal weights draw the same vector.
        """
        if self.sigma2 == 0 or weight == 0:
            return 0.0
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=key)
        rng = np.random.Generator(np.random.Philox(seq))
        return rng.normal(0.0, math.sqrt(weight * self.sigma2 / d), d)

    def gradient_sum(self, x, worker, iteration, count, component=0):
        """Sum of ``count`` noisy gradients of one component at x.

        The summed noise, N(0, count·σ²/d) per coordinate, is one vector
        keyed by (seed, worker, iteration).
        """
        obj = self.components[component]
        return count * obj.grad(x) + self._draw((worker, iteration), count,
                                                obj.d)


@dataclass(frozen=True)
class TrainingTrace:
    """Per-iteration record of a simulated run.

    Rows are (iteration, sim_time_s, grad_norm_sq, f_value, total_batch)
    starting with the initial point at time zero; times are strictly
    increasing.  ``comm_seconds`` totals the simulated communication
    time (zero when the run never exchanged vectors).
    """

    method: str
    rows: tuple
    status: str  # "max_iters" | "reached_target"
    comm_seconds: float

    def final_time(self):
        return self.rows[-1][1]

    def min_grad_sq(self):
        return min(r[2] for r in self.rows)

    def time_to_value(self, target_f):
        """First simulated time with f ≤ target, or None."""
        for _, t, _, fv, _ in self.rows:
            if fv <= target_f:
                return t
        return None

    def to_csv(self, path_or_file):
        if hasattr(path_or_file, "write"):
            self._write(path_or_file)
        else:
            with open(path_or_file, "w", newline="") as fh:
                self._write(fh)

    def _write(self, fh):
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["iter", "sim_time_s", "grad_norm_sq", "f_value",
                    "total_batch"])
        for row in self.rows:
            w.writerow([row[0], repr(row[1]), repr(row[2]), repr(row[3]),
                        row[4]])

    def csv_bytes(self):
        buf = io.StringIO()
        self._write(buf)
        return buf.getvalue().encode()


def _all_infinite_bandwidth(g):
    return all(b == INFINITY for b in g.bandwidth.values())


def _allreduce_seconds(g, terminals, d, mode):
    """Simulated time of one AllReduce among ``terminals`` (0 if alone)."""
    if len(terminals) < 2 or d == 0 or _all_infinite_bandwidth(g):
        return 0.0
    g = finite_bandwidth_proxy(g)
    mg = unit_multigraph(g)
    packing = pack_steiner_trees(mg, tuple(terminals), gomory_hu_tree(g),
                                 d=d)
    trace, _ = run_allreduce(g, packing, d, mode=mode)
    return trace.completion_time


@dataclass(frozen=True)
class _Schedule:
    """One iteration of a method, the same for every seed: gradients per
    worker, compute and communication seconds, and the step's ``c`` and
    ``w`` (see :func:`_sgd`).
    """

    counts: dict
    compute: float
    comm: float
    c: float
    w: float


def _minibatch(counts, compute, comm):
    """Step with the batch's gradient sum: c = w = B = ΣB_w."""
    total = sum(counts.values())
    return _Schedule(counts, compute, comm, total, total)


def _planned(plan, g, *args):
    """``plan(g, *args)``, made once per graph and arguments.

    ``args`` hold everything the plan reads besides ``g``; no plan reads
    the seed.  The cache lives on the graph and goes with it.
    """
    cache = g._schedules
    key = (plan, *args)
    if key not in cache:
        cache[key] = plan(g, *args)
    return cache[key]


def _sgd(method, objective, oracle, schedule, max_iters, gamma,
         target_grad_sq):
    """The training loop of every method.

    Each iteration steps x ← x − (γ/c)·(c·∇F(x) + N(0, w·σ²/d)), with F
    the one ``objective`` (for leon, the mean of its components), c and
    w from the schedule, and the noise one vector keyed by
    (seed, iteration); γ defaults to 1/(2L).  Each iterate's gradient is
    computed once: its row records ‖∇F‖² and the next step reuses it.
    """
    d = objective.d
    if gamma is None:
        gamma = 1.0 / (2.0 * objective.L)
    c, w = schedule.c, schedule.w
    batch = sum(schedule.counts.values())
    x = objective.x0.copy()
    fv, grad = objective.f(x), objective.grad(x)
    rows = [(0, 0.0, float(np.dot(grad, grad)), fv, 0)]
    t = comm_total = 0.0
    status = "max_iters"
    for k in range(1, max_iters + 1):
        x = x - (gamma / c) * (c * grad + oracle._draw((k,), w, d))
        t += schedule.compute + schedule.comm
        comm_total += schedule.comm
        fv, grad = objective.f(x), objective.grad(x)
        gsq = float(np.dot(grad, grad))
        rows.append((k, t, gsq, fv, batch))
        if target_grad_sq is not None and gsq <= target_grad_sq:
            status = "reached_target"
            break
    return TrainingTrace(method, tuple(rows), status, comm_total)


def _grace_schedule(g, params, d, mode, subset):
    if subset is None:
        choice, _ = find_fastest_subset(g, params)
        subset = choice.subset
    workers = sorted(i for i in subset if math.isfinite(g.h[i]))
    if not workers:
        raise ValueError("subset has no computing node")
    target = grace_target_batch(params)
    counts, elapsed = run_gradient_computation(
        workers, g.h, lambda c: sum(c.values()) >= target)
    return _minibatch(counts, elapsed,
                      _allreduce_seconds(g, workers, d, mode))


def grace_sgd(g: WeightedGraph, objective: Objective,
              oracle: StochasticOracle, params: ProblemParams,
              max_iters, gamma=None, mode="streamed", subset=None,
              target_grad_sq=None):
    """Subset-planned SGD: plan once, then batch + AllReduce per step.

    The worker subset comes from the cut-tree planner unless ``subset``
    overrides it.  Each iteration collects B ≥ max{⌈σ²/ε⌉, 1} gradients
    across the subset (whoever finishes contributes), reduces the sum
    over the packed trees, and steps with γ/B.  γ defaults to 1/(2L).
    The sum is B·∇f(x) plus its noise, drawn as one N(0, B·σ²/d) vector
    per iteration.
    ``mode`` is the AllReduce block handling, ``"streamed"`` or
    ``"store_forward"`` (see :func:`flowsgd.simulator.run_allreduce`).
    """
    schedule = _planned(_grace_schedule, g, params, objective.d, mode,
                        None if subset is None else frozenset(subset))
    return _sgd("grace", objective, oracle, schedule, max_iters, gamma,
                target_grad_sq)


def _leon_schedule(g, params, d, mode):
    workers = sorted(g.workers())
    n = len(workers)
    counts, elapsed = run_gradient_computation(
        workers, g.h,
        lambda c: leon_stop_rule(tuple(c[w] for w in workers), n, params))
    comm = _allreduce_seconds(g, workers, d, mode)
    weight = sum(1.0 / counts[w] for w in workers) / (n * n)
    return _Schedule(counts, elapsed, comm, 1, weight)


def leon_sgd(g: WeightedGraph, objective: Objective,
             oracle: StochasticOracle, params: ProblemParams, max_iters,
             gamma=None, mode="streamed", target_grad_sq=None):
    """All-workers SGD with the harmonic-mean batch stopping rule.

    ``objective`` is the mean of ``objective.parts`` components, one per
    worker (see :func:`make_objective`).  Accumulation continues until
    the rule fires, then the batch-averaged gradients are averaged again
    across workers and exchanged over trees spanning all workers.  That
    mean of means is (1/n)·Σ_c ∇f_c(x) = ∇F(x) plus its noise, drawn as
    one N(0, (σ²/d)·Σ_w 1/(n²·B_w)) vector per iteration.  γ defaults to
    1/(2L), L bounding every component's smoothness.
    ``mode`` is the AllReduce block handling, ``"streamed"`` or
    ``"store_forward"``, as in :func:`grace_sgd`.
    """
    n = len(g.workers())
    if objective.parts != n:
        raise ValueError(f"need one component per worker "
                         f"({n} workers, {objective.parts} components)")
    schedule = _planned(_leon_schedule, g, params, objective.d, mode)
    return _sgd("leon", objective, oracle, schedule, max_iters, gamma,
                target_grad_sq)


def _sync_schedule(g, d):
    workers = sorted(g.workers())
    if not workers:
        raise ValueError("no computing node")
    _, elapsed = run_gradient_computation(workers, g.h,
                                          lambda c: all(c.values()))
    comm = run_naive_sync_round(g, workers[0], d).completion_time \
        if len(g.nodes) > 1 and not _all_infinite_bandwidth(g) else 0.0
    return _minibatch(dict.fromkeys(workers, 1), elapsed, comm)


def sync_sgd(g: WeightedGraph, objective: Objective,
             oracle: StochasticOracle, params: ProblemParams,
             max_iters, gamma=None, target_grad_sq=None):
    """Lock-step baseline: everyone computes, one naive round per step.

    Each worker contributes one gradient (so an iteration costs h_max
    of compute), then the sum crosses a hop-shortest aggregation tree to
    the lowest-id worker and back.
    """
    schedule = _planned(_sync_schedule, g, objective.d)
    return _sgd("sync", objective, oracle, schedule, max_iters, gamma,
                target_grad_sq)


def hero_sgd(objective: Objective, oracle: StochasticOracle,
             params: ProblemParams, max_iters, h, gamma=None,
             target_grad_sq=None):
    """Single-machine fallback: the fastest worker does everything."""
    finite = {w: v for w, v in h.items() if math.isfinite(v)}
    if not finite:
        raise ValueError("no computing node")
    worker = min(finite, key=lambda w: (finite[w], w))
    target = grace_target_batch(params)
    counts, elapsed = run_gradient_computation(
        [worker], {worker: finite[worker]}, lambda c: c[worker] >= target)
    return _sgd("hero", objective, oracle,
                _minibatch(counts, elapsed, 0.0), max_iters, gamma,
                target_grad_sq)
