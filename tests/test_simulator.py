import json
import math
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from flowsgd import (INFINITY, ProblemParams, SimTimeoutError, SimTrace,
                     SteinerTree, TraceEvent, TreePacking, audit_capacity,
                     batch_collection_bound, build_graph,
                     finite_bandwidth_proxy, leon_stop_rule,
                     pack_steiner_trees, run_allreduce,
                     run_gradient_computation, run_naive_sync_round,
                     run_separate_transfers, shared_edge_rates,
                     unit_multigraph)
from flowsgd import topologies

import oracles
from conftest import FIVE_NODE_SPEC, LINE_SPEC, random_infinite_links_spec


def packed(g, S=None):
    mg = unit_multigraph(g)
    return pack_steiner_trees(mg, set(g.nodes) if S is None else set(S))


def phase_time(trace, phase):
    times = [e.time for e in trace.events
             if e.event_kind == "phase_done" and e.detail == f"phase={phase}"]
    assert len(times) == 1
    return times[0]


# == gradient computation ==

def test_gradient_two_parallel_workers():
    counts, elapsed = run_gradient_computation(
        (1, 2), {1: 1.0, 2: 1.0}, lambda c: sum(c.values()) >= 2)
    assert counts == {1: 1, 2: 1}
    assert elapsed == 1.0


def test_gradient_single_worker_sequential():
    counts, elapsed = run_gradient_computation(
        (7,), {7: 1.0}, lambda c: sum(c.values()) >= 5)
    assert counts == {7: 5}
    assert elapsed == 5.0


def test_gradient_leon_rule_stop():
    # harmonic-mean target with sigma^2/eps = 4 on two unit-speed workers
    p = ProblemParams(d=10.0, sigma2=4.0, epsilon=1.0, L=1.0, delta=1.0)
    stop = lambda c: leon_stop_rule((c[1], c[2]), 2, p)
    counts, elapsed = run_gradient_computation((1, 2), {1: 1.0, 2: 1.0}, stop)
    assert counts == {1: 2, 2: 2}
    assert elapsed == 2.0


def test_gradient_timeout_guard():
    with pytest.raises(SimTimeoutError):
        run_gradient_computation((1,), {1: 1.0}, lambda c: False,
                                 max_seconds=50)
    with pytest.raises(SimTimeoutError):
        run_gradient_computation((1,), {1: 1.0}, lambda c: False,
                                 max_events=10)


def test_gradient_needs_a_finite_worker():
    with pytest.raises(ValueError):
        run_gradient_computation((1, 2), {1: INFINITY, 2: INFINITY},
                                 lambda c: sum(c.values()) >= 1)


def test_gradient_event_recording():
    record = []
    counts, elapsed = run_gradient_computation(
        (1, 2), {1: 1.0, 2: 3.0}, lambda c: sum(c.values()) >= 4,
        record=record)
    assert [e.event_kind for e in record] == ["gradient_done"] * len(record)
    times = [e.time for e in record]
    assert times == sorted(times)
    assert times[-1] == elapsed
    assert sum(counts.values()) == 4


@given(st.lists(st.floats(min_value=0.25, max_value=8.0), min_size=1,
                max_size=5),
       st.integers(min_value=1, max_value=30))
@settings(max_examples=60)
@example([0.25, 0.5], 8)  # both finish at 1.5: worker 1 goes first
def test_gradient_sum_target_matches_oracle_and_bound(h_values, B):
    workers = tuple(range(1, len(h_values) + 1))
    h = dict(zip(workers, h_values))
    counts, elapsed = run_gradient_computation(
        workers, h, lambda c: sum(c.values()) >= B)
    ocounts, oelapsed = oracles.simulate_batch_collection(
        h_values, lambda c: sum(c) >= B)
    assert tuple(counts[w] for w in workers) == ocounts
    assert elapsed == oelapsed
    assert elapsed <= batch_collection_bound(B, workers, h) + 1e-9


# == allreduce over packed trees ==

def test_allreduce_star_round_trip():
    g = topologies.star(10)
    trace, schedule = run_allreduce(g, packed(g), 1000)
    # one reduce plus one broadcast over unit links: about 2 * d / b
    assert trace.completion_time == pytest.approx(2000.0, rel=0.10)
    assert schedule.phases == ("reduce", "broadcast")
    assert audit_capacity(trace, g) <= 1 + 1e-9
    assert trace.completion_time == max(e.time for e in trace.events)


def test_line_aggregation_beats_separate_transfers():
    g = build_graph(json.loads(json.dumps(LINE_SPEC)))
    d = 1000
    naive = run_separate_transfers(g, (1, 2, 3, 4), 5, d)
    assert naive.completion_time == pytest.approx(4 * d, rel=0.05)
    streamed = run_naive_sync_round(g, 5, d)
    assert phase_time(streamed, "reduce") == pytest.approx(d, rel=0.05)


def test_allreduce_torus_uses_all_four_trees():
    g = topologies.p_torus(5)
    pk = packed(g)
    assert pk.p == 4
    d = 10_000
    trace, _ = run_allreduce(g, pk, d)
    assert trace.completion_time <= 2.2 * d / pk.alpha
    single = TreePacking(trees=pk.trees[:1], terminals=pk.terminals,
                         pivot=pk.pivot, alpha=pk.alpha)
    lone, _ = run_allreduce(g, single, d)
    assert lone.completion_time / trace.completion_time >= 3.5
    assert audit_capacity(trace, g) <= 1 + 1e-9


def test_allreduce_single_worker_is_empty():
    g = topologies.star(4)
    pk = packed(g, S={2})
    assert pk.p == 0
    trace, schedule = run_allreduce(g, pk, 100)
    assert trace.completion_time == 0.0
    assert trace.events == ()
    assert schedule.phases == ()


def test_allreduce_rejects_foreign_packing():
    g = topologies.star(5)
    pk = packed(g)
    other = topologies.star(5, b=3.0)  # multiplicity 3 per link
    alien = pack_steiner_trees(unit_multigraph(other), set(other.nodes))
    with pytest.raises(ValueError, match="packing/graph mismatch"):
        run_allreduce(g, alien, 100)


def test_allreduce_argument_validation():
    g = topologies.star(4)
    pk = packed(g)
    with pytest.raises(ValueError):
        run_allreduce(g, pk, 100, mode="teleport")
    with pytest.raises(ValueError):
        run_allreduce(g, pk, 0)


@pytest.mark.parametrize("d", [-5, 0, math.nan, math.inf])
@pytest.mark.parametrize("run", [
    lambda g, d: run_allreduce(g, packed(g), d),
    lambda g, d: run_naive_sync_round(g, 1, d),
    lambda g, d: run_separate_transfers(g, (2, 3), 1, d),
], ids=["allreduce", "naive_sync_round", "separate_transfers"])
def test_vector_size_must_be_finite_and_positive(run, d):
    with pytest.raises(ValueError, match="vector size"):
        run(topologies.ring(6), d)


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=2000))
@settings(max_examples=40)
def test_allreduce_over_infinite_links_times_the_proxy(seed, d):
    g = build_graph(random_infinite_links_spec(random.Random(seed)))
    proxy = finite_bandwidth_proxy(g)
    pk = packed(g)
    trace, schedule = run_allreduce(g, pk, d)
    ref, ref_schedule = run_allreduce(proxy, pk, d)
    assert trace.events == ref.events
    assert trace.completion_time == ref.completion_time
    assert schedule == ref_schedule


def test_store_and_forward_pays_per_hop():
    g = build_graph(json.loads(json.dumps(LINE_SPEC)))
    pk = packed(g)
    streamed, _ = run_allreduce(g, pk, 1000, mode="streamed")
    stored, _ = run_allreduce(g, pk, 1000, mode="store_forward")
    # whole-block forwarding multiplies the deep path, pipelining does not
    assert stored.completion_time >= 3 * streamed.completion_time
    hub = topologies.star(6)
    flat_s, _ = run_allreduce(hub, packed(hub), 1000, mode="streamed")
    flat_f, _ = run_allreduce(hub, packed(hub), 1000,
                              mode="store_forward")
    assert flat_f.completion_time == pytest.approx(flat_s.completion_time)


def one_tree(g, edges, pivot, alpha):
    """A packing of one tree made of copy 0 of each of ``edges``."""
    tree = SteinerTree(tuple((min(e), max(e), 0) for e in edges))
    return TreePacking((tree,), g.nodes, pivot, alpha)


@given(st.data())
@settings(max_examples=60)
def test_allreduce_phases_match_uniform_tree_oracle(data):
    n = data.draw(st.integers(min_value=2, max_value=30))
    edges = [(v, data.draw(st.integers(min_value=1, max_value=v - 1)))
             for v in range(2, n + 1)]
    b = data.draw(st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]))
    lat = data.draw(st.sampled_from([0.0, 0.1, 0.37, 2.0]))
    d = data.draw(st.integers(min_value=1, max_value=5000))
    pivot = data.draw(st.integers(min_value=1, max_value=n))
    g = build_graph({
        "nodes": [{"id": v, "h": 1.0} for v in range(1, n + 1)],
        "links": [{"a": u, "b": v, "bandwidth": b, "latency": lat}
                  for u, v in edges]})
    hops = {pivot: 0}
    frontier = [pivot]
    while frontier:
        u = frontier.pop()
        for v in g.neighbors(u):
            if v not in hops:
                hops[v] = hops[u] + 1
                frontier.append(v)
    depth = max(hops.values())
    rate = unit_multigraph(g).unit_rate
    pk = one_tree(g, edges, pivot, round(b / rate))

    streamed, _ = run_allreduce(g, pk, d)
    want = oracles.streamed_phase_time(d, depth, rate, lat)
    assert phase_time(streamed, "reduce") == pytest.approx(want, rel=1e-12)
    assert phase_time(streamed, "broadcast") == \
        pytest.approx(2 * want, rel=1e-12)
    stored, _ = run_allreduce(g, pk, d, mode="store_forward")
    want = depth * (lat + d / rate)
    assert phase_time(stored, "reduce") == pytest.approx(want, rel=1e-12)
    assert phase_time(stored, "broadcast") == \
        pytest.approx(2 * want, rel=1e-12)


@pytest.mark.parametrize("mode", ["streamed", "store_forward"])
def test_allreduce_down_a_1500_node_path(mode):
    g = topologies.ring(1500)
    pk = one_tree(g, [(v, v + 1) for v in range(1, 1500)], 1, 2)
    trace, _ = run_allreduce(g, pk, 1000, mode=mode)
    want = (oracles.streamed_phase_time(1000, 1499, 1.0)
            if mode == "streamed" else 1499 * 1000.0)
    assert phase_time(trace, "reduce") == want
    assert phase_time(trace, "broadcast") == 2 * want


def test_allreduce_counts_every_contributor_once():
    g = topologies.p_torus(3)
    pk = packed(g)
    trace, schedule = run_allreduce(g, pk, 90)
    into_pivot = [e for e in trace.events
                  if e.event_kind == "flow_done"
                  and e.flow_id.startswith("reduce/")
                  and e.node == pk.pivot]
    assert into_pivot
    for ev in into_pivot:
        fields = dict(kv.split("=") for kv in ev.detail.split(";"))
        assert int(fields["contrib"]) == len(pk.terminals)
        assert int(fields["size"]) == schedule.block_size
    blocks = {e.flow_id.split("/")[1] for e in into_pivot}
    assert len(blocks) == pk.p
    assert pk.p * schedule.block_size >= 90


def _scaled(g, k):
    """``g`` with every bandwidth multiplied by ``k`` and no latency."""
    return replace(g, bandwidth={e: k * b for e, b in g.bandwidth.items()},
                   latency=dict.fromkeys(g.latency, 0.0))


@pytest.mark.parametrize("g", [
    topologies.ring(8), topologies.p_torus(5), topologies.star(6),
    topologies.k_clusters(12, 3, b_slow=1.0, b_fast=2.0)],
    ids=["ring", "torus", "star", "clusters"])
def test_streamed_allreduce_time_scales_with_bandwidth(g):
    # k times the bandwidth gives k times the copies of the same shapes,
    # which stream as one tree at k times the rate
    base, _ = run_allreduce(_scaled(g, 1), packed(g), 1200)
    for k in (2, 3):
        fast = _scaled(g, k)
        trace, _ = run_allreduce(fast, packed(fast), 1200)
        assert trace.completion_time == \
            pytest.approx(base.completion_time / k, rel=1e-12)
        assert audit_capacity(trace, fast) <= 1 + 1e-9


@pytest.mark.parametrize("g, streamed, stored", [
    (topologies.ring(8), 1012.0, 7000.0),
    (topologies.ring(8, b=3.0), 338.0, 2338.0),
    (topologies.ring(8, b=1.001), 2012.0, 14000.0),
    (topologies.p_torus(5), 516.0, 4500.0),
    (topologies.p_torus(5, b=1.01), 615.8415841584158, 5400.0)],
    ids=["ring", "ring-b3", "ring-b1.001", "torus", "torus-b1.01"])
def test_allreduce_time_does_not_depend_on_the_scale(g, streamed, stored):
    # at b = 1.001 the multigraph has scale 1000, yet a hop costs one
    # coordinate at the shape's rate, not a slot of 1000 s per copy
    pk = pack_steiner_trees(unit_multigraph(g), g.nodes, d=1000)
    for mode, want in (("streamed", streamed), ("store_forward", stored)):
        trace, _ = run_allreduce(g, pk, 1000, mode=mode)
        assert trace.completion_time == pytest.approx(want, rel=1e-12)
        assert audit_capacity(trace, g) <= 1 + 1e-9


def test_copies_of_a_shape_stream_as_one_tree():
    g = topologies.ring(8, b=3.0)
    pk = packed(g)
    assert pk.p == 6 and pk.shapes() == [(0, 3), (3, 3)]
    trace, schedule = run_allreduce(g, pk, 600)
    assert schedule.block_size == 100
    flows = [e for e in trace.events if e.event_kind == "flow_done"]
    assert len(flows) == 2 * 2 * 7
    assert {e.flow_id.split("/")[1] for e in flows} == {"t0", "t3"}
    assert {e.detail.split(";")[:2] == ["block=0", "copies=3"]
            for e in flows if "/t0/" in e.flow_id} == {True}
    assert {e.rate for e in flows} == {3.0}
    assert trace.utilization[(2, 1)] == pytest.approx(
        300 / (3.0 * trace.completion_time))


# == naive aggregation round ==

def test_naive_round_bottleneck_dominates(five_node):
    d = 2000
    trace = run_naive_sync_round(five_node, 4, d)
    # everything funnels through the unit-bandwidth link next to the pivot
    assert trace.completion_time == pytest.approx(2 * d, rel=0.01)
    assert audit_capacity(trace, five_node) <= 1 + 1e-9


def test_naive_round_single_node():
    g = build_graph({"nodes": [{"id": 1, "h": 1.0}], "links": []})
    trace = run_naive_sync_round(g, 1, 500)
    assert trace.completion_time == 0.0
    assert [e.event_kind for e in trace.events] == ["phase_done",
                                                    "phase_done"]


def test_naive_round_star_hub():
    g = topologies.star(6, b=2.0)
    trace = run_naive_sync_round(g, 1, 1000)
    assert trace.completion_time == pytest.approx(2 * 1000 / 2.0, rel=0.10)


def test_naive_round_on_a_1500_ring():
    # the hop-shortest tree from node 1 has two branches, 750 hops deep
    trace = run_naive_sync_round(topologies.ring(1500), 1, 1000)
    want = oracles.streamed_phase_time(1000, 750, 1.0)
    assert phase_time(trace, "reduce") == want
    assert phase_time(trace, "broadcast") == 2 * want


def test_naive_round_rejects_unknown_pivot(five_node):
    with pytest.raises(ValueError):
        run_naive_sync_round(five_node, 99, 10)


# == contending point-to-point transfers ==

def test_shared_rates_equal_split():
    rates = shared_edge_rates({"a": ((1, 2),), "b": ((1, 2),)},
                              {(1, 2): 1.0})
    assert rates == {"a": 0.5, "b": 0.5}


def test_shared_rates_lone_flow_gets_everything():
    rates = shared_edge_rates({"a": ((1, 2),)}, {(1, 2): 7.0})
    assert rates["a"] == 7.0
    assert shared_edge_rates({"z": ()}, {})["z"] == INFINITY


def test_shared_rates_chain_bottleneck():
    rates = shared_edge_rates(
        {"through": ((1, 2), (2, 3)), "first": ((1, 2),),
         "second": ((2, 3),)},
        {(1, 2): 1.0, (2, 3): 2.0})
    assert rates["through"] == pytest.approx(0.5)
    assert rates["first"] == pytest.approx(0.5)
    assert rates["second"] == pytest.approx(1.5)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=60)
def test_shared_rates_match_progressive_filling_oracle(seed):
    rng = random.Random(seed)
    edges = [(i, i + 1) for i in range(rng.randint(1, 4))]
    caps = {e: rng.choice([0.5, 1.0, 2.0, 4.0]) for e in edges}
    n_flows = rng.randint(1, 5)
    paths = []
    for _ in range(n_flows):
        k = rng.randint(1, len(edges))
        paths.append(tuple(sorted(rng.sample(edges, k))))
    flows = {f"f{i}": p for i, p in enumerate(paths)}
    got = shared_edge_rates(flows, caps)
    want = oracles.max_min_fair_rates([list(p) for p in paths], caps)
    for i in range(n_flows):
        assert got[f"f{i}"] == pytest.approx(want[i], rel=1e-9)


def test_transfers_record_rate_changes(line_graph):
    trace = run_separate_transfers(line_graph, (1, 2, 3, 4), 5, 100)
    kinds = {e.event_kind for e in trace.events}
    assert "rate_change" in kinds and "flow_done" in kinds
    # all four vectors cross the final link, which is then fully busy
    assert trace.utilization[(4, 5)] == pytest.approx(1.0)


# == trace plumbing ==

def test_traces_are_deterministic(five_node):
    a = run_naive_sync_round(five_node, 4, 500).csv_bytes()
    b = run_naive_sync_round(five_node, 4, 500).csv_bytes()
    assert a == b
    g = topologies.p_torus(3)
    x, _ = run_allreduce(g, packed(g), 999)
    y, _ = run_allreduce(g, packed(g), 999)
    assert x.csv_bytes() == y.csv_bytes()


def test_completion_time_is_max_event_time(five_node, line_graph):
    for trace in (run_naive_sync_round(five_node, 4, 100),
                  run_separate_transfers(line_graph, (1, 3), 5, 50)):
        assert trace.completion_time == max(e.time for e in trace.events)


def test_audit_catches_two_full_rate_flows_on_one_link(line_graph):
    # both streams use all of the unit link 1->2 while they overlap
    trace = SimTrace((
        TraceEvent(2.0, "flow_done", 2, (1, 2), "a", "", 1.0, 0.0),
        TraceEvent(3.0, "flow_done", 2, (1, 2), "b", "", 1.0, 1.0),
    ), 3.0, {})
    assert audit_capacity(trace, line_graph) == 2.0


def test_allreduce_csv_text():
    # the typed fields turn into the same text: u->v edges, .17g numbers
    g = build_graph({
        "nodes": [{"id": 1, "h": 1.0}, {"id": 2, "h": 1.0}],
        "links": [{"a": 1, "b": 2, "bandwidth": 1 / 3, "latency": 0.1}]})
    tree = SteinerTree(((1, 2, 0),))
    trace, _ = run_allreduce(g, TreePacking((tree,), (1, 2), 2, 1), 2)
    assert trace.csv_bytes().decode() == (
        "time,event_kind,node,edge,flow_id,detail\n"
        "6.1,flow_done,2,1->2,reduce/t0/1-2#0,block=0;size=2;contrib=2;"
        "rate=0.33333333333333331;start=0\n"
        "6.1,phase_done,2,,,phase=reduce\n"
        "12.2,flow_done,1,2->1,broadcast/t0/1-2#0,block=0;"
        "rate=0.33333333333333331;start=6.0999999999999996\n"
        "12.2,phase_done,2,,,phase=broadcast\n")
    assert trace.events[0].edge == (1, 2)
    assert trace.events[0].rate == 1 / 3 and trace.events[0].start == 0.0
    assert trace.utilization == {(1, 2): 2 / (1 / 3 * 12.2),
                                 (2, 1): 2 / (1 / 3 * 12.2)}
