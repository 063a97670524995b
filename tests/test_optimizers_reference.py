"""The one training loop against the two loops it replaced.

``_reference_minibatch_sgd`` (grace, sync and hero) and
``reference_leon_sgd`` are the earlier loops, kept here verbatim with the
``_loop`` driver they shared and the schedule code each method ran inline.
grace, sync and hero traces must agree with them exactly (``==``, not
approximately): same rows, status and communication total.

leon trains on one objective, the closed-form mean of its components,
while ``reference_leon_sgd`` sums the explicit components that
``oracles.objective_components`` replays from ``make_objective``'s seeded
draws.  The two differ only in rounding, so leon's method, row count,
iterations, times, batches, status and communication total are still
compared with ``==``; only its ``grad_norm_sq`` and ``f_value`` are
compared to a relative 1e-9 (the mean's gradient near the minimum
cancels most digits: the worst case seen was 2.2e-13).
"""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from flowsgd import (Objective, ProblemParams, StochasticOracle,
                     TrainingTrace, find_fastest_subset,
                     finite_bandwidth_proxy, grace_sgd,
                     grace_target_batch, hero_sgd, leon_sgd, leon_stop_rule,
                     make_objective, pack_steiner_trees, run_allreduce,
                     run_gradient_computation, run_naive_sync_round,
                     sync_sgd, topologies, unit_multigraph)

INFINITY = math.inf


def _all_infinite_bandwidth(g):
    return all(b == INFINITY for b in g.bandwidth.values())


def _allreduce_seconds(g, terminals, d, mode):
    """Simulated time of one AllReduce among ``terminals`` (0 if alone)."""
    if len(terminals) < 2 or d == 0:
        return 0.0
    if _all_infinite_bandwidth(g):
        return 0.0
    g = finite_bandwidth_proxy(g)
    mg = unit_multigraph(g)
    packing = pack_steiner_trees(mg, tuple(terminals))
    trace, _ = run_allreduce(g, packing, d, mode=mode)
    return trace.completion_time


def _loop(point, steps, max_iters, target_grad_sq):
    """Shared iteration driver: steps() advances x and returns the cost.

    ``point()`` gives (f, ∇f) at the current x, once per iterate; the
    row records ‖∇f‖² and ``steps(k, grad)`` reuses that gradient.  Rows
    follow the trace schema.  Returns ``(rows, status, comm_total)``.
    """
    f0, grad = point()
    rows = [(0, 0.0, float(np.dot(grad, grad)), f0, 0)]
    t = 0.0
    status = "max_iters"
    comm_total = 0.0
    for k in range(1, max_iters + 1):
        elapsed, comm, batch = steps(k, grad)
        t += elapsed + comm
        comm_total += comm
        fv, grad = point()
        gsq = float(np.dot(grad, grad))
        rows.append((k, t, gsq, fv, batch))
        if target_grad_sq is not None and gsq <= target_grad_sq:
            status = "reached_target"
            break
    return rows, status, comm_total


def _reference_minibatch_sgd(method, objective, oracle, batch, elapsed,
                             comm, max_iters, gamma, target_grad_sq):
    """Shared grace/sync/hero run: one objective, a fixed batch per worker.

    ``batch`` maps each worker to its gradients per iteration.  Every
    iteration steps with γ/B times the batch's gradient sum, B·∇f(x) plus
    one N(0, B·σ²/d) draw, where B = ΣB_w; γ defaults to 1/(2L).
    ``elapsed`` and ``comm`` are the per-iteration compute and
    communication seconds.
    """
    gamma = 1.0 / (2.0 * objective.L) if gamma is None else gamma
    total_batch = sum(batch.values())
    x = objective.x0.copy()

    def point():
        return objective.f(x), objective.grad(x)

    def step(k, grad):
        nonlocal x
        total = total_batch * grad + oracle._draw(
            (k,), total_batch, objective.d)
        x = x - (gamma / total_batch) * total
        return elapsed, comm, total_batch

    rows, status, comm_total = _loop(point, step, max_iters,
                                     target_grad_sq)
    return TrainingTrace(method, tuple(rows), status, comm_total)


def reference_grace_sgd(g, objective, oracle, params, max_iters,
                        gamma=None, mode="streamed", subset=None,
                        target_grad_sq=None):
    if subset is None:
        choice, _ = find_fastest_subset(g, params)
        subset = choice.subset
    workers = sorted(i for i in subset if math.isfinite(g.h[i]))
    if not workers:
        raise ValueError("subset has no computing node")
    target = grace_target_batch(params)
    counts, elapsed = run_gradient_computation(
        workers, g.h, lambda c: sum(c.values()) >= target)
    comm = _allreduce_seconds(g, workers, objective.d, mode)
    return _reference_minibatch_sgd("grace", objective, oracle, counts,
                                    elapsed, comm, max_iters, gamma,
                                    target_grad_sq)


def reference_leon_sgd(g, objectives, oracle, params, max_iters,
                       gamma=None, mode="streamed", target_grad_sq=None):
    workers = sorted(g.workers())
    n = len(workers)
    components = tuple(objectives) if not isinstance(objectives, Objective) \
        else (objectives,)
    if len(components) != n:
        raise ValueError(f"need one component per worker "
                         f"({n} workers, {len(components)} components)")
    L = max(o.L for o in components)
    gamma = 1.0 / (2.0 * L) if gamma is None else gamma
    d = components[0].d

    counts, elapsed = run_gradient_computation(
        workers, g.h,
        lambda c: leon_stop_rule(tuple(c[w] for w in workers), n, params))
    comm = _allreduce_seconds(g, workers, d, mode)
    total_batch = sum(counts.values())
    weight = sum(1.0 / counts[w] for w in workers) / (n * n)

    x = components[0].x0.copy()

    def point():
        return (sum(o.f(x) for o in components) / n,
                sum(o.grad(x) for o in components) / n)

    def step(k, grad):
        nonlocal x
        mean = grad + oracle._draw((k,), weight, d)
        x = x - gamma * mean
        return elapsed, comm, total_batch

    rows, status, comm_total = _loop(point, step, max_iters,
                                     target_grad_sq)
    return TrainingTrace("leon", tuple(rows), status, comm_total)


def reference_sync_sgd(g, objective, oracle, params, max_iters, gamma=None,
                       batch_size=1, target_grad_sq=None):
    workers = sorted(g.workers())
    if not workers:
        raise ValueError("no computing node")
    _, elapsed = run_gradient_computation(
        workers, g.h, lambda c: all(c[w] >= batch_size for w in workers))
    if len(g.nodes) > 1 and not _all_infinite_bandwidth(g):
        comm = run_naive_sync_round(g, workers[0],
                                    objective.d).completion_time
    else:
        comm = 0.0
    return _reference_minibatch_sgd("sync", objective, oracle,
                                    dict.fromkeys(workers, batch_size),
                                    elapsed, comm, max_iters, gamma,
                                    target_grad_sq)


def reference_hero_sgd(objective, oracle, params, max_iters, h, gamma=None,
                       target_grad_sq=None):
    finite = {w: v for w, v in h.items() if math.isfinite(v)}
    if not finite:
        raise ValueError("no computing node")
    worker = min(finite, key=lambda w: (finite[w], w))
    target = grace_target_batch(params)
    counts, elapsed = run_gradient_computation(
        [worker], {worker: finite[worker]},
        lambda c: c[worker] >= target)
    return _reference_minibatch_sgd("hero", objective, oracle, counts,
                                    elapsed, 0.0, max_iters, gamma,
                                    target_grad_sq)


# == the library against the references ==

def _graphs():
    # heterogeneous h: unequal per-worker batches for grace and leon
    star = topologies.star(5, b=2.0)
    star = dataclasses.replace(
        star, h={v: 0.5 + 0.75 * (v % 3) for v in star.nodes})
    pair = topologies.all_to_all(2, b=2.0)
    return {
        "star": star,
        "clusters": topologies.k_clusters(6, 2, b_slow=0.5, b_fast=4.0,
                                          h=[1.0, 2.5]),
        "torus": topologies.p_torus(3, b=0.5),
        "pair": dataclasses.replace(pair, h={1: 1.0, 2: 2.5}),
    }


def _objectives(kind, d, n, seed):
    """The single objective, leon's mean of n, and its n components."""
    samples = None if kind == "quadratic" else 8 * n
    return (make_objective(kind, d, seed=seed, n_samples=samples),
            make_objective(kind, d, n_components=n, seed=seed,
                           n_samples=samples),
            oracles.objective_components(kind, d, n, seed=seed,
                                         n_samples=samples))


def _assert_same(trace, ref):
    assert trace.method == ref.method
    assert trace.rows == ref.rows
    assert trace.status == ref.status
    assert trace.comm_seconds == ref.comm_seconds


def _assert_same_up_to_rounding(trace, ref):
    """``==`` except for ‖∇F‖² and F, which match to a relative 1e-9."""
    assert trace.method == ref.method
    assert len(trace.rows) == len(ref.rows)
    for (k, t, gsq, fv, batch), (rk, rt, rgsq, rfv, rbatch) in zip(
            trace.rows, ref.rows):
        assert (k, t, batch) == (rk, rt, rbatch)
        assert gsq == pytest.approx(rgsq, rel=1e-9)
        assert fv == pytest.approx(rfv, rel=1e-9)
    assert trace.status == ref.status
    assert trace.comm_seconds == ref.comm_seconds


@pytest.mark.parametrize("graph,kind", [
    ("star", "quadratic"), ("clusters", "quadratic"), ("torus", "quadratic"),
    ("pair", "synthetic_logreg"), ("star", "synthetic_logreg"),
    ("clusters", "synthetic_logreg")])
@pytest.mark.parametrize("sigma2", [0.0, 3.0])
@pytest.mark.parametrize("gamma,target", [(None, None), (0.3, None),
                                          (None, 0.05)])
def test_every_method_matches_its_reference_loop(graph, kind, sigma2, gamma,
                                                  target):
    g = _graphs()[graph]
    d, seed, iters = 8, 4, 12
    p = ProblemParams(d=float(d), sigma2=sigma2, epsilon=0.2, L=1.0,
                      delta=1.0)
    single, mean, parts = _objectives(kind, d, len(g.workers()), seed)
    kw = {"gamma": gamma, "target_grad_sq": target}

    def oracle(objs):
        return StochasticOracle(objs, sigma2, seed=seed)

    _assert_same(grace_sgd(g, single, oracle(single), p, iters, **kw),
                 reference_grace_sgd(g, single, oracle(single), p, iters,
                                     **kw))
    _assert_same_up_to_rounding(
        leon_sgd(g, mean, oracle(mean), p, iters, **kw),
        reference_leon_sgd(g, parts, oracle(mean), p, iters, **kw))
    _assert_same(sync_sgd(g, single, oracle(single), p, iters, **kw),
                 reference_sync_sgd(g, single, oracle(single), p, iters,
                                    **kw))
    _assert_same(hero_sgd(single, oracle(single), p, iters, g.h, **kw),
                 reference_hero_sgd(single, oracle(single), p, iters, g.h,
                                    **kw))


def test_the_early_stop_cases_stop_early():
    # the target cases above exercise the early stop, not only max_iters
    g = _graphs()["star"]
    single, mean, _ = _objectives("quadratic", 8, len(g.workers()), 4)
    p = ProblemParams(d=8.0, sigma2=0.0, epsilon=0.2, L=1.0, delta=1.0)
    for trace in (
            grace_sgd(g, single, StochasticOracle(single, 0.0), p, 12,
                      target_grad_sq=0.05),
            leon_sgd(g, mean, StochasticOracle(mean, 0.0), p, 12,
                     target_grad_sq=0.05)):
        assert trace.status == "reached_target"
        assert len(trace.rows) < 13


def test_grace_overrides_match_the_reference():
    g = _graphs()["clusters"]
    obj = make_objective("quadratic", 8, seed=2)
    p = ProblemParams(d=8.0, sigma2=2.0, epsilon=0.2, L=1.0, delta=1.0)
    for subset in ({1, 2, 4}, g.nodes):
        for mode in ("streamed", "store_forward"):
            kw = {"subset": subset, "mode": mode}
            _assert_same(
                grace_sgd(g, obj, StochasticOracle(obj, 2.0, seed=1), p, 6,
                          **kw),
                reference_grace_sgd(g, obj, StochasticOracle(obj, 2.0,
                                                             seed=1),
                                    p, 6, **kw))
