import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowsgd import (ProblemParams, StochasticOracle, build_graph,
                     grace_sgd, hero_sgd, leon_sgd, leon_stop_rule,
                     make_objective, run_gradient_computation,
                     run_naive_sync_round, sync_sgd)
from flowsgd import topologies

import oracles
from conftest import LINE_SPEC


def params(d=16.0, sigma2=0.0, epsilon=0.1, L=1.0, delta=1.0):
    return ProblemParams(d=d, sigma2=sigma2, epsilon=epsilon, L=L,
                         delta=delta)


def quadratic(d=16, **kw):
    return make_objective("quadratic", d, **kw)


# == objectives and the oracle ==

def test_quadratic_starts_at_the_requested_gap():
    obj = quadratic(d=12, L=2.0, delta=3.0, seed=5)
    assert obj.f(obj.x0) == pytest.approx(3.0, rel=1e-12)
    g0 = obj.grad(obj.x0)
    # ||grad||^2 = 2 L delta for a quadratic started delta above the min
    assert float(g0 @ g0) == pytest.approx(2.0 * 2.0 * 3.0, rel=1e-12)


def test_quadratic_components_average_to_mean_center():
    mean = quadratic(d=8, n_components=3, seed=1)
    assert mean.parts == 3
    comps = oracles.objective_components("quadratic", 8, 3, seed=1)
    centers = [o.x0 - o.grad(o.x0) for o in comps]  # L = 1
    assert np.allclose(mean.grad(np.mean(centers, axis=0)), 0.0,
                       atol=1e-12)


def test_logreg_gradient_matches_central_differences():
    obj = make_objective("synthetic_logreg", 6, seed=3, n_samples=48)
    x = obj.x0 + 0.1
    num = oracles.central_difference_grad(obj.f, x)
    assert np.max(np.abs(num - obj.grad(x))) < 1e-5


def test_logreg_components_partition_the_samples():
    full = make_objective("synthetic_logreg", 5, seed=7, n_samples=30)
    mean = make_objective("synthetic_logreg", 5, seed=7, n_samples=30,
                          n_components=3)
    parts = oracles.objective_components("synthetic_logreg", 5, 3, seed=7,
                                         n_samples=30)
    x = np.linspace(-0.5, 0.5, 5)
    assert mean.parts == 3
    assert mean.f(x) == pytest.approx(sum(o.f(x) for o in parts) / 3,
                                      rel=1e-12)
    assert np.allclose(mean.grad(x), sum(o.grad(x) for o in parts) / 3,
                       rtol=1e-12, atol=0.0)
    assert mean.f(x) == pytest.approx(full.f(x), rel=1e-12)
    assert np.allclose(mean.grad(x), full.grad(x), rtol=1e-12, atol=0.0)
    with pytest.raises(ValueError):
        make_objective("synthetic_logreg", 5, n_samples=10, n_components=3)
    with pytest.raises(ValueError):
        make_objective("parabola", 4)


@given(st.sampled_from(["quadratic", "synthetic_logreg"]),
       st.sampled_from([1, 2, 3, 7, 100]), st.integers(0, 10 ** 6),
       st.integers(1, 9))
@settings(max_examples=40)
def test_mean_objective_is_the_average_of_its_components(kind, n, seed, d):
    samples = None if kind == "quadratic" \
        else math.ceil(max(4 * d, 16) / n) * n
    mean = make_objective(kind, d, n_components=n, seed=seed, L=1.5,
                          delta=2.0, n_samples=samples)
    parts = oracles.objective_components(kind, d, n, seed=seed, L=1.5,
                                         delta=2.0, n_samples=samples)
    assert mean.parts == n
    assert mean.L == max(o.L for o in parts)
    for o in parts:
        assert np.array_equal(mean.x0, o.x0)
    rng = np.random.default_rng(seed)
    for x in (mean.x0, rng.standard_normal(d), 3.0 * rng.standard_normal(d)):
        assert mean.f(x) == pytest.approx(sum(o.f(x) for o in parts) / n,
                                          rel=1e-12)
        average = sum(o.grad(x) for o in parts) / n
        assert np.linalg.norm(mean.grad(x) - average) \
            <= 1e-12 * np.linalg.norm(average)


@pytest.mark.parametrize("kind", ["quadratic", "synthetic_logreg"])
@pytest.mark.parametrize("kw,name", [
    ({"d": 0}, "d"), ({"d": 2.5}, "d"), ({"d": True}, "d"),
    ({"n_components": 0}, "n_components"),
    ({"n_components": -2}, "n_components"),
    ({"n_components": 1.0}, "n_components"),
    ({"L": 0.0}, "L"), ({"L": -1.0}, "L"), ({"L": math.inf}, "L"),
    ({"L": math.nan}, "L"),
    ({"delta": -1.0}, "delta"), ({"delta": math.inf}, "delta"),
    ({"delta": math.nan}, "delta"),
    ({"n_samples": 0}, "n_samples"), ({"n_samples": -8}, "n_samples")])
def test_make_objective_rejects_bad_arguments(kind, kw, name):
    args = {"d": 4, **kw}
    with pytest.raises(ValueError, match=rf"^{name} must"):
        make_objective(kind, **args)


def test_oracle_streams_are_reproducible():
    obj = quadratic(d=10)
    oracle = StochasticOracle(obj, sigma2=2.0, seed=9)
    x = obj.x0
    a = oracle.gradient_sum(x, worker=3, iteration=7, count=2)
    b = oracle.gradient_sum(x, worker=3, iteration=7, count=2)
    c = oracle.gradient_sum(x, worker=3, iteration=8, count=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_oracle_noise_statistics():
    d = 25
    obj = quadratic(d=d)
    oracle = StochasticOracle(obj, sigma2=2.5, seed=0)
    x = obj.x0
    true = obj.grad(x)
    errs = []
    for k in range(4000):
        g = oracle.gradient_sum(x, worker=1, iteration=k, count=1) - true
        errs.append(g)
    errs = np.array(errs)
    assert np.abs(errs.mean(axis=0)).max() < 0.05
    assert np.mean((errs ** 2).sum(axis=1)) == pytest.approx(2.5, rel=0.10)


def test_iteration_draw_is_keyed_by_seed_and_iteration():
    oracle = StochasticOracle(quadratic(d=10), sigma2=2.0, seed=9)
    a = oracle._draw((7,), 3, 10)
    assert a.shape == (10,)
    assert np.array_equal(a, oracle._draw((7,), 3, 10))
    assert np.array_equal(a, StochasticOracle(quadratic(d=10), 2.0,
                                              seed=9)._draw((7,), 3, 10))
    assert not np.array_equal(a, oracle._draw((8,), 3, 10))
    assert not np.array_equal(a, StochasticOracle(quadratic(d=10), 2.0,
                                                  seed=10)._draw((7,), 3, 10))
    # the weight scales one vector: same stream, a different variance
    assert np.allclose(oracle._draw((7,), 12, 10), 2.0 * a)
    assert oracle._draw((7,), 0, 10) == 0.0
    assert StochasticOracle(quadratic(d=10), 0.0)._draw((7,), 3, 10) == 0.0


def test_a_kept_draw_equals_a_fresh_oracles_draw():
    # the oracle keeps each (key, d) vector: draws of other keys, weights
    # and dimensions leave a key's draw as a fresh oracle makes it
    oracle = StochasticOracle(quadratic(d=10), sigma2=2.0, seed=9)
    for key, weight, d in (((7,), 0.5, 10), ((7,), 3, 4), ((8,), 3, 10),
                           ((3, 7), 3, 10), ((7,), 1e-3, 10)):
        oracle._draw(key, weight, d)
    a = oracle._draw((7,), 3, 10)
    fresh = StochasticOracle(quadratic(d=10), 2.0, seed=9)._draw((7,), 3, 10)
    assert a.tobytes() == fresh.tobytes()
    # bitwise the normal draw of the same Philox stream
    seq = np.random.SeedSequence(entropy=9, spawn_key=(7,))
    rng = np.random.Generator(np.random.Philox(seq))
    assert a.tobytes() == rng.normal(0.0, math.sqrt(3 * 2.0 / 10),
                                     10).tobytes()
    # every draw is a new array: writing to one leaves the next unchanged
    a[:] = 0.0
    b = oracle._draw((7,), 3, 10)
    assert b.tobytes() == fresh.tobytes()
    b *= 2.0
    assert oracle._draw((7,), 3, 10).tobytes() == fresh.tobytes()
    assert oracle._draw((7,), 3, 4).tobytes() == StochasticOracle(
        quadratic(d=10), 2.0, seed=9)._draw((7,), 3, 4).tobytes()


def test_iteration_draw_has_the_weighted_variance():
    d, sigma2, weight = 25, 2.5, 0.3
    oracle = StochasticOracle(quadratic(d=d), sigma2, seed=1)
    draws = np.array([oracle._draw((k,), weight, d) for k in range(4000)])
    assert np.abs(draws.mean(axis=0)).max() < 0.05
    assert np.mean((draws ** 2).sum(axis=1)) == pytest.approx(
        weight * sigma2, rel=0.10)


def test_leon_step_noise_matches_the_mean_of_worker_means():
    # Three workers with unequal speeds stop at unequal counts B_w.  With
    # gamma = 1/L one step lands at x1 = x̄* - noise, so the averaged
    # gradient's squared norm after it is the step's squared noise.
    d, sigma2, n = 16, 2.0, 3
    g = build_graph({
        "nodes": [{"id": i, "h": h} for i, h in ((1, 1.0), (2, 2.0),
                                                  (3, 5.0))],
        "links": [{"a": 1, "b": 2, "bandwidth": "inf"},
                  {"a": 2, "b": 3, "bandwidth": "inf"}]})
    p = params(d=float(d), sigma2=sigma2, epsilon=0.5)
    counts, _ = run_gradient_computation(
        (1, 2, 3), g.h, lambda c: leon_stop_rule((c[1], c[2], c[3]), n, p))
    B = [counts[w] for w in (1, 2, 3)]
    assert len(set(B)) == 3
    weight = sum(1.0 / (n * n * b) for b in B)

    # the old draw: B_w single gradients per worker, averaged per worker,
    # then across workers
    rng = np.random.default_rng(0)
    scale = math.sqrt(sigma2 / d)
    old = np.array([sum(rng.normal(0.0, scale, (b, d)).mean(axis=0)
                        for b in B) / n for _ in range(4000)])
    assert np.mean((old ** 2).sum(axis=1)) == pytest.approx(
        weight * sigma2, rel=0.10)

    comps = quadratic(d=d, n_components=n, seed=3)
    steps = [leon_sgd(g, comps, StochasticOracle(comps, sigma2, seed=s), p,
                      max_iters=1, gamma=1.0).rows[1][2]
             for s in range(2000)]
    assert np.mean(steps) == pytest.approx(weight * sigma2, rel=0.10)


def test_oracle_rejects_bad_variance():
    with pytest.raises(ValueError):
        StochasticOracle(quadratic(), sigma2=-1.0)


# == method behaviour on the quadratic ==

def test_noiseless_grace_contracts_geometrically():
    g = topologies.star(4, b=100.0)
    obj = quadratic(d=8, delta=2.0)
    p = params(d=8.0, sigma2=0.0, delta=2.0)
    oracle = StochasticOracle(obj, sigma2=0.0)
    trace = grace_sgd(g, obj, oracle, p, max_iters=60,
                      target_grad_sq=1e-20)
    assert trace.status == "reached_target"
    grads = [r[2] for r in trace.rows]
    assert all(b < a for a, b in zip(grads, grads[1:]))
    fs = [r[3] for r in trace.rows]
    assert all(b <= a for a, b in zip(fs, fs[1:]))


def test_trace_times_strictly_increase():
    g = topologies.star(3, b=1.0)
    obj = quadratic(d=8)
    p = params(d=8.0, sigma2=1.0)
    trace = grace_sgd(g, obj, StochasticOracle(obj, 1.0), p, max_iters=5,
                      subset=g.nodes)
    times = [r[1] for r in trace.rows]
    assert times[0] == 0.0
    assert all(b > a for a, b in zip(times, times[1:]))
    assert trace.final_time() == times[-1]
    assert trace.comm_seconds > 0


def test_single_node_run_never_communicates():
    g = build_graph({"nodes": [{"id": 1, "h": 2.0}], "links": []})
    obj = quadratic(d=4)
    p = params(d=4.0, sigma2=1.0)
    trace = grace_sgd(g, obj, StochasticOracle(obj, 1.0), p, max_iters=3)
    assert trace.comm_seconds == 0.0


def test_grace_on_one_worker_is_hero():
    g = topologies.star(4, b=2.0)  # equal h; hero picks lowest id
    obj = quadratic(d=8)
    p = params(d=8.0, sigma2=2.0)
    oracle = StochasticOracle(obj, 2.0, seed=4)
    alone = grace_sgd(g, obj, oracle, p, max_iters=6, subset={1})
    hero = hero_sgd(obj, oracle, p, max_iters=6, h=g.h)
    assert alone.rows == hero.rows
    assert alone.comm_seconds == hero.comm_seconds == 0.0


def test_grace_subset_must_compute():
    spec = {"nodes": [{"id": 1, "h": 1.0}, {"id": 2, "h": "inf"}],
            "links": [{"a": 1, "b": 2, "bandwidth": 1.0}]}
    g = build_graph(spec)
    obj = quadratic(d=4)
    with pytest.raises(ValueError):
        grace_sgd(g, obj, StochasticOracle(obj, 0.0), params(d=4.0),
                  max_iters=2, subset={2})


def test_leon_matches_grace_with_identical_components():
    g = topologies.all_to_all(2, b=2.0)
    obj = quadratic(d=4)
    p = params(d=4.0, sigma2=0.4, epsilon=0.1)  # target batch 4
    oracle = StochasticOracle(obj, 0.4, seed=2)
    grace = grace_sgd(g, obj, oracle, p, max_iters=5)
    both = dataclasses.replace(obj, parts=2)
    leon = leon_sgd(g, both, StochasticOracle(both, 0.4, seed=2), p,
                    max_iters=5)
    for a, b in zip(grace.rows, leon.rows):
        assert a[0] == b[0]
        assert a[1] == pytest.approx(b[1])
        assert a[2] == pytest.approx(b[2], rel=1e-9)


def test_leon_needs_one_component_per_worker(five_node):
    obj = quadratic(d=4)
    with pytest.raises(ValueError, match="component"):
        leon_sgd(five_node, dataclasses.replace(obj, parts=2),
                 StochasticOracle(obj, 0.0),
                 params(d=4.0), max_iters=1)


def test_leon_finds_the_heterogeneous_stationary_point():
    g = topologies.all_to_all(2, b=10.0)
    comps = quadratic(d=6, n_components=2, seed=11)
    p = params(d=6.0, sigma2=0.0)
    trace = leon_sgd(g, comps, StochasticOracle(comps, 0.0), p,
                     max_iters=80, target_grad_sq=1e-18)
    assert trace.status == "reached_target"
    assert trace.min_grad_sq() <= 1e-18


def test_leon_iteration_cost_splits_compute_and_comm():
    g = topologies.all_to_all(2, b=2.0)
    comps = quadratic(d=4, n_components=2, seed=1)
    p = params(d=4.0, sigma2=0.4, epsilon=0.1)  # harmonic target => B=(2,2)
    trace = leon_sgd(g, comps, StochasticOracle(comps, 0.4), p, max_iters=4)
    dts = [b[1] - a[1] for a, b in zip(trace.rows, trace.rows[1:])]
    comm_per_iter = trace.comm_seconds / 4
    assert all(dt == pytest.approx(2.0 + comm_per_iter) for dt in dts)
    assert trace.rows[1][4] == 4  # total batch per iteration


def test_sync_iteration_cost_is_slowest_worker_plus_round():
    spec = {"nodes": [{"id": 1, "h": 1.5}, {"id": 2, "h": 2.0}],
            "links": [{"a": 1, "b": 2, "bandwidth": 1.0}]}
    g = build_graph(spec)
    obj = quadratic(d=64)
    p = params(d=64.0, sigma2=1.0)
    trace = sync_sgd(g, obj, StochasticOracle(obj, 1.0), p, max_iters=3)
    round_time = run_naive_sync_round(g, 1, 64).completion_time
    dt = trace.rows[1][1] - trace.rows[0][1]
    assert dt == pytest.approx(2.0 + round_time)
    assert trace.rows[1][4] == 2


def test_hero_runs_on_the_fastest_worker():
    obj = quadratic(d=4)
    p = params(d=4.0, sigma2=0.4, epsilon=0.1)  # batch target 4
    trace = hero_sgd(obj, StochasticOracle(obj, 0.4), p, max_iters=3,
                     h={1: 3.0, 2: 1.0, 3: 5.0})
    dt = trace.rows[1][1] - trace.rows[0][1]
    assert dt == pytest.approx(4.0)  # 4 gradients at h = 1
    assert trace.comm_seconds == 0.0
    with pytest.raises(ValueError):
        hero_sgd(obj, StochasticOracle(obj, 0.0), p, max_iters=1,
                 h={1: math.inf})


def test_store_and_forward_costs_more_on_a_path():
    g = build_graph(json.loads(json.dumps(LINE_SPEC)))
    obj = quadratic(d=64)
    p = params(d=64.0, sigma2=0.0)
    oracle = StochasticOracle(obj, 0.0)
    fast = grace_sgd(g, obj, oracle, p, max_iters=2, subset=g.nodes)
    slow = grace_sgd(g, obj, oracle, p, max_iters=2, subset=g.nodes,
                     mode="store_forward")
    assert slow.comm_seconds > fast.comm_seconds
    assert [r[2] for r in slow.rows] == [r[2] for r in fast.rows]


def test_one_graph_plans_each_setting_apart():
    # the graph caches each schedule under everything the plan reads, so
    # reusing one graph gives the traces of a fresh graph per run
    def make():
        return topologies.k_clusters(6, 2, b_slow=0.5, b_fast=4.0,
                                     h=[1.0, 2.5])

    shared = make()
    runs = [({"subset": subset, "mode": mode}, params(sigma2=sigma2), d)
            for subset in ({1, 2, 4}, {1, 4, 5, 6})
            for mode in ("streamed", "store_forward")
            for sigma2 in (2.0, 0.5)
            for d in (16, 32)]
    runs += [({}, params(sigma2=2.0), 16), ({}, params(sigma2=2.0), 32)]
    for kw, p, d in runs:
        obj = quadratic(d=d)
        oracle = StochasticOracle(obj, p.sigma2, seed=3)
        assert grace_sgd(shared, obj, oracle, p, 4, **kw) \
            == grace_sgd(make(), obj, oracle, p, 4, **kw)
    for mode in ("streamed", "store_forward", "streamed"):
        comps = quadratic(d=8, n_components=6)
        oracle = StochasticOracle(comps, 2.0, seed=3)
        assert leon_sgd(shared, comps, oracle, params(d=8.0, sigma2=2.0), 4,
                        mode=mode) \
            == leon_sgd(make(), comps, oracle, params(d=8.0, sigma2=2.0), 4,
                        mode=mode)


def test_target_stops_the_run_early():
    g = topologies.star(3, b=5.0)
    obj = quadratic(d=4)
    p = params(d=4.0)
    trace = grace_sgd(g, obj, StochasticOracle(obj, 0.0), p, max_iters=50,
                      target_grad_sq=1e9)
    assert trace.status == "reached_target"
    assert len(trace.rows) == 2  # initial point plus the one checked step


def test_trace_csv_round_trip(tmp_path):
    g = topologies.star(3, b=5.0)
    obj = quadratic(d=4)
    p = params(d=4.0, sigma2=1.0)
    t1 = grace_sgd(g, obj, StochasticOracle(obj, 1.0, seed=8), p, max_iters=4)
    t2 = grace_sgd(g, obj, StochasticOracle(obj, 1.0, seed=8), p, max_iters=4)
    assert t1.csv_bytes() == t2.csv_bytes()
    out = tmp_path / "trace.csv"
    t1.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "iter,sim_time_s,grad_norm_sq,f_value,total_batch"
    assert len(lines) == len(t1.rows) + 1
    assert t1.time_to_value(t1.rows[-1][3]) is not None
    assert t1.time_to_value(-1.0) is None


def test_theoretical_iteration_budget_suffices():
    # smooth case: K = ceil(4 L delta / eps) steps reach 2 eps
    g = topologies.star(8, b=100.0)
    p = params(d=16.0, sigma2=1.6, epsilon=0.1, delta=8.0)
    budget = math.ceil(4 * p.L * p.delta / p.epsilon)
    for seed in range(3):
        obj = quadratic(d=16, delta=8.0, seed=seed)
        trace = grace_sgd(g, obj, StochasticOracle(obj, 1.6, seed=seed), p,
                          max_iters=budget, target_grad_sq=2 * p.epsilon)
        assert trace.status == "reached_target"
