import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from flowsgd import (INFINITY, ProblemParams, batch_collection_bound,
                     build_graph, find_fastest_subset, grace_target_batch,
                     harmonic_batch_term, leon_stop_rule, subset_score)
from flowsgd import topologies

import oracles
from conftest import random_graph_spec, spec_edges, assert_close


def params(d=100.0, sigma2=1.0, epsilon=0.1, L=1.0, delta=1.0):
    return ProblemParams(d=d, sigma2=sigma2, epsilon=epsilon, L=L,
                         delta=delta)


@pytest.mark.parametrize("field", ["d", "sigma2", "epsilon", "L", "delta"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_params_reject_non_finite_scalars(field, value):
    with pytest.raises(ValueError, match="finite"):
        params(**{field: value})


def test_harmonic_single_worker_no_noise():
    assert harmonic_batch_term(0.0, (1,), {1: 3.0}) == 3.0


def test_harmonic_two_equal_workers():
    # m=1 gives 1*(1+2); m=2 gives 1*(1+1); the pair wins
    assert harmonic_batch_term(2.0, (1, 2), {1: 1.0, 2: 1.0}) == 2.0


def test_harmonic_slow_partner_ignored():
    assert harmonic_batch_term(0.0, (1, 2), {1: 1.0, 2: 100.0}) == 1.0


def test_harmonic_skips_switches():
    got = harmonic_batch_term(2.0, (1, 2, 3), {1: 1.0, 2: 1.0, 3: INFINITY})
    assert got == 2.0
    with pytest.raises(ValueError):
        harmonic_batch_term(1.0, (3,), {3: INFINITY})


def test_score_singleton_at_infinite_weight():
    p = params(sigma2=4.0, epsilon=1.0)
    got = subset_score(5, (2,), p, INFINITY, {2: 3.0})
    assert got == 3.0 * (1 + 4.0)


def test_score_five_workers_at_the_weakest_cut(five_node):
    p = params(d=40.0, sigma2=2.0, epsilon=1.0)
    got = subset_score(1, five_node.nodes, p, 1.0, five_node.h)
    # d/w + min_m (1 + ratio/m): equal unit h, best m = 5
    assert_close(got, 40.0 + (1 + 2.0 / 5))


def test_score_zero_dimension_is_pure_compute():
    p = params(d=0.0, sigma2=0.0)
    assert subset_score(2, (1,), p, 7.0, {1: 2.5}) == 2.5


def test_five_node_selection_trace(five_node):
    # equal compute times: the split order follows the sorted cut weights
    choice, trace = find_fastest_subset(five_node, params(d=8.0, sigma2=5.0))
    by_k = {s.k: [set(c) for c in s.components] for s in trace.steps}
    assert by_k[1] == [{1, 2, 3, 4, 5}]
    assert {4} in by_k[2] and len(by_k[2]) == 2
    assert {4} in by_k[3] and {3} in by_k[3]
    assert {1, 2} in by_k[4] and {5} in by_k[4] and {4} in by_k[4]
    assert by_k[5] == [{1}, {2}, {3}, {4}, {5}]


def test_selection_partitions_refine(five_node):
    _, trace = find_fastest_subset(five_node, params())
    prev = None
    for step in trace.steps:
        comps = [set(c) for c in step.components]
        assert len(comps) == step.k
        if prev is not None:
            for c in comps:
                assert any(c <= q for q in prev)
        prev = comps


def test_zero_noise_picks_the_fastest_machine():
    spec = {"nodes": [{"id": 1, "h": 3}, {"id": 2, "h": 1},
                      {"id": 3, "h": 2}],
            "links": [{"a": 1, "b": 2, "bandwidth": 4},
                      {"a": 2, "b": 3, "bandwidth": 4}]}
    choice, _ = find_fastest_subset(build_graph(spec), params(sigma2=0.0))
    assert choice.subset == (2,)
    assert choice.score == 1.0


def test_expensive_link_forces_solo_regime():
    g = topologies.star(6, b=1.0)
    choice, _ = find_fastest_subset(g, params(d=1e9, sigma2=1.0))
    assert len(choice.subset) == 1


def test_cheap_link_keeps_everyone():
    g = topologies.star(6, b=1e9)
    choice, _ = find_fastest_subset(g, params(d=1.0, sigma2=100.0))
    assert set(choice.subset) == set(g.nodes)


def test_batch_bound_edge_cases():
    assert batch_collection_bound(0, (1,), {1: 2.0}) == 2.0
    assert batch_collection_bound(5, (1,), {1: 1.0}) == 6.0
    assert batch_collection_bound(2, (1, 2), {1: 1.0, 2: 1.0}) == 2.0


def test_grace_target_batch_rounds_up():
    assert grace_target_batch(params(sigma2=0.32, epsilon=0.1)) == 4
    assert grace_target_batch(params(sigma2=0.0)) == 1
    assert grace_target_batch(params(sigma2=10.0, epsilon=0.1)) == 100


def test_leon_rule_thresholds():
    p4 = params(sigma2=4.0, epsilon=1.0)
    assert leon_stop_rule((2, 2), 2, p4)
    assert not leon_stop_rule((1, 4), 2, p4)
    assert leon_stop_rule((1, 1), 2, params(sigma2=0.0))


def test_leon_rule_waits_for_first_gradient():
    assert not leon_stop_rule((0, 50), 2, params(sigma2=0.0))
    with pytest.raises(ValueError):
        leon_stop_rule((1, 1, 1), 2, params())


@given(st.lists(st.integers(min_value=0, max_value=12), min_size=1,
                max_size=40),
       st.integers(min_value=0, max_value=30))
@settings(max_examples=300)
def test_leon_rule_matches_the_per_worker_sum(counts, ratio):
    # summing m/b once per distinct count b is the same exact rational
    p = params(sigma2=float(ratio), epsilon=1.0)
    n = len(counts)
    expected = all(counts) and Fraction(n) / sum(
        Fraction(1, b) for b in counts) >= Fraction(max(ratio, n), n)
    assert leon_stop_rule(tuple(counts), n, p) == expected


@given(st.integers(min_value=1, max_value=100).flatmap(
           lambda n: st.lists(st.integers(min_value=0, max_value=10 ** 6),
                              min_size=n, max_size=n)),
       st.integers(min_value=0, max_value=10 ** 8),
       st.sampled_from(["exact", "ulp_up", "ulp_down", "half"]))
@example([16] * 4, 64, "ulp_up")  # sigma^2/eps = 64.00000000000001
@example([16] * 4, 64, "ulp_down")
@example([16] * 4, 65, "exact")
@example([10 ** 6] * 100, 10 ** 8, "ulp_up")
@settings(max_examples=300)
def test_leon_rule_matches_the_reference_at_scale(counts, ratio, offset):
    # large counts, up to 100 workers, and ratios an ulp off an integer,
    # which snap to it (16.000000000000002 ceils to 16, not 17)
    sigma2 = {"exact": float(ratio),
              "ulp_up": math.nextafter(float(ratio), math.inf),
              "ulp_down": math.nextafter(float(ratio), -math.inf),
              "half": ratio + 0.5}[offset]
    p = params(sigma2=max(sigma2, 0.0), epsilon=1.0)
    reference_ratio = ratio + 0.5 if offset == "half" else ratio
    n = len(counts)
    assert leon_stop_rule(tuple(counts), n, p) == \
        oracles.leon_rule_reference(counts, n, reference_ratio)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=100)
def test_selection_matches_exhaustive_oracle(seed):
    rng = random.Random(seed)
    spec = random_graph_spec(rng, n_max=6)
    g = build_graph(spec)
    d = rng.choice([0.0, 1.0, 10.0, 200.0])
    ratio = rng.choice([0.0, 0.5, 4.0, 50.0])
    p = params(d=d, sigma2=ratio, epsilon=1.0)
    choice, trace = find_fastest_subset(g, p)
    ref = oracles.exhaustive_best_score(
        g.nodes, spec_edges(spec), dict(g.h), d, ratio)
    assert math.isclose(choice.score, ref, rel_tol=1e-12)
    # the kept batch terms give exactly the scores subset_score computes
    for s in trace.steps:
        if s.best_subset:
            assert s.best_score == subset_score(s.k, s.best_subset, p,
                                                s.weight, g.h)


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_trace_weights_sorted_and_comm_term_shrinks(seed):
    spec = random_graph_spec(random.Random(seed))
    g = build_graph(spec)
    _, trace = find_fastest_subset(g, params(d=10.0, sigma2=3.0))
    weights = [s.weight for s in trace.steps]
    assert weights == sorted(weights)
    comm = [10.0 / w for w in weights]
    assert all(b <= a + 1e-12 for a, b in zip(comm, comm[1:]))


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.floats(min_value=0.1, max_value=40))
def test_harmonic_term_scales_linearly(seed, scale):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    h = {i: rng.uniform(0.5, 8.0) for i in range(1, n + 1)}
    ratio = rng.uniform(0.0, 20.0)
    S = tuple(h)
    base = harmonic_batch_term(ratio, S, h)
    scaled = harmonic_batch_term(ratio, S, {i: v * scale
                                            for i, v in h.items()})
    assert math.isclose(scaled, base * scale, rel_tol=1e-9)


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_bound_caps_simulated_collection(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    h = [rng.uniform(0.2, 5.0) for _ in range(n)]
    B = rng.randint(1, 40)
    bound = batch_collection_bound(B, tuple(range(n)),
                                   dict(enumerate(h)))
    counts, elapsed = oracles.simulate_batch_collection(
        h, lambda c: sum(c) >= B)
    assert sum(counts) >= B
    assert elapsed <= bound * (1 + 1e-12)
