import csv
import json
import os

import numpy as np
import pytest

import flowsgd.graph_core
import flowsgd.optimizers
from flowsgd import (TreePacking, SteinerTree, audit_capacity,
                     finite_bandwidth_proxy, min_S_cut_multigraph,
                     run_allreduce, serialize_topology, topologies,
                     unit_multigraph, verify_packing)
from flowsgd.cli import main

from conftest import FIVE_NODE_SPEC


def write_five_node(tmp_path):
    path = tmp_path / "five.json"
    path.write_text(json.dumps(FIVE_NODE_SPEC))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_analyze_writes_method_table(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["analyze", "--gen", "star:6:b=2", "--out", str(out),
               "--d", "4"])
    assert rc == 0
    rows = read_csv(out / "analysis.csv")
    assert rows[0] == ["method", "mode", "combine", "term", "seconds"]
    methods = {r[0] for r in rows[1:]}
    assert methods == {"grace", "leon", "sync", "hero"}
    totals = [r for r in rows[1:] if r[3] == "total"]
    assert len(totals) == 4
    # uniform h and b: the degree bounds apply and get written too
    assert (out / "tradeoff.csv").exists()
    assert (out / "tradeoff.json").exists()
    text = capsys.readouterr().out
    assert "grace" in text and "trade-off" in text


def test_analyze_skips_bounds_on_mixed_bandwidths(tmp_path, capsys):
    rc = main(["analyze", write_five_node(tmp_path), "--out",
               str(tmp_path / "o")])
    assert rc == 0
    assert not (tmp_path / "o" / "tradeoff.json").exists()
    assert "not applicable" in capsys.readouterr().out


def test_analyze_asymptotic_mode(tmp_path):
    out = tmp_path / "a"
    assert main(["analyze", "--gen", "ring:5", "--out", str(out),
                 "--mode", "asymptotic", "--methods", "grace,hero"]) == 0
    rows = read_csv(out / "analysis.csv")
    assert {r[1] for r in rows[1:]} == {"asymptotic"}
    assert {r[0] for r in rows[1:]} == {"grace", "hero"}


def partitions_from_trace(tree, steps):
    """Each step's forest: the cut tree minus the edges removed before it."""
    removed = set()
    by_k = {}
    for step in steps:
        parent = {v: v for v in tree["nodes"]}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for u, v, _ in tree["edges"]:
            if (u, v) not in removed:
                parent[find(u)] = find(v)
        groups = {}
        for v in tree["nodes"]:
            groups.setdefault(find(v), []).append(v)
        by_k[step["k"]] = sorted(sorted(g) for g in groups.values())
        if step["removed_edge"] is not None:
            removed.add(tuple(sorted(step["removed_edge"])))
    return by_k


def test_plan_documents_the_subset_search(tmp_path, capsys):
    out = tmp_path / "plan"
    rc = main(["plan", write_five_node(tmp_path), "--out", str(out)])
    assert rc == 0
    tree = json.loads((out / "gh_tree.json").read_text())
    assert sorted(w for _, _, w in tree["edges"]) == [1.0, 2.0, 2.0, 3.0]
    sel = json.loads((out / "selection.json").read_text())
    # the trace keeps one split per step; the partitions follow from it
    steps = partitions_from_trace(tree, sel["trace"]["steps"])
    assert steps[2] == [[1, 2, 3, 5], [4]]
    assert steps[3] == [[1, 2, 5], [3], [4]]
    assert steps[4] == [[1, 2], [3], [4], [5]]
    assert steps[5] == [[1], [2], [3], [4], [5]]
    for step in sel["trace"]["steps"]:
        best = step["best"]
        assert [best["min_node"], best["size"]] in \
            [[c[0], len(c)] for c in steps[step["k"]]]
    # an expensive vector on a weak graph: work alone, nothing to pack
    assert sel["chosen"]["subset"] == [1]
    assert sel["chosen"]["components"] == steps[sel["chosen"]["k"]]
    packing = json.loads((out / "packing.json").read_text())
    assert packing["p"] == 0 and "single-worker" in packing["notice"]
    assert not (out / "schedule.json").exists()
    assert "chosen S*" in capsys.readouterr().out


def test_plan_packs_only_the_workers_of_the_subset(tmp_path, capsys):
    # S* = {1, 2} holds one worker and the relay 2 it reaches over an
    # infinite link: a single-worker plan, with no trees to pack
    path = tmp_path / "relay.json"
    path.write_text(json.dumps({
        "nodes": [{"id": 1, "h": 1}, {"id": 2, "h": "inf"},
                  {"id": 3, "h": 100}],
        "links": [{"a": 1, "b": 2, "bandwidth": "inf"},
                  {"a": 2, "b": 3, "bandwidth": 0.01}]}))
    out = tmp_path / "relay"
    assert main(["plan", str(path), "--d", "100", "--out", str(out)]) == 0
    sel = json.loads((out / "selection.json").read_text())
    assert sel["chosen"]["subset"] == [1, 2]
    packing = json.loads((out / "packing.json").read_text())
    assert packing == {"p": 0,
                       "notice": "single-worker plan: no trees needed"}
    assert not (out / "schedule.json").exists()
    assert "single worker, nothing to pack" in capsys.readouterr().out


def _selection_bytes(tmp_path, spec):
    out = tmp_path / spec.replace(":", "_")
    assert main(["plan", "--gen", spec, "--out", str(out)]) == 0
    return (out / "selection.json").stat().st_size


def test_selection_json_grows_linearly(tmp_path, capsys):
    # one split per step: doubling the star roughly doubles the file
    small = _selection_bytes(tmp_path, "star:200")
    large = _selection_bytes(tmp_path, "star:400")
    assert large < 2.5 * small


def test_plan_scales_to_a_300_node_ring(tmp_path, capsys):
    # every step adds one fixed-size record to the file and to stdout
    out = tmp_path / "ring"
    assert main(["plan", "--gen", "ring:300", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    sel = json.loads((out / "selection.json").read_text())
    assert len(sel["trace"]["steps"]) == 300
    assert (out / "selection.json").stat().st_size < 300 * 300
    assert len(text) < 300 * 120


def test_plan_packs_trees_when_cooperation_wins(tmp_path):
    out = tmp_path / "coop"
    rc = main(["plan", "--gen", "star:5:b=4", "--out", str(out),
               "--d", "20"])
    assert rc == 0
    packing = json.loads((out / "packing.json").read_text())
    assert packing["p"] == 4  # equals the leaf cut of a b=4 star
    sched = json.loads((out / "schedule.json").read_text())
    assert sched["phases"] == ["reduce", "broadcast"]
    assert sched["predicted_seconds"] == pytest.approx(10.0)


def test_single_worker_plan_removes_a_stale_schedule(tmp_path, capsys):
    out = str(tmp_path / "x")
    assert main(["plan", "--gen", "star:5:b=4", "--d", "20",
                 "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "schedule.json"))
    assert main(["plan", "--gen", "star:5:b=4", "--d", "1e9",
                 "--out", out]) == 0
    packing = json.loads((tmp_path / "x" / "packing.json").read_text())
    assert packing["p"] == 0 and "single-worker" in packing["notice"]
    assert not os.path.exists(os.path.join(out, "schedule.json"))


def test_plan_on_infinite_links_is_free(tmp_path, capsys):
    # no finite link to scale a multigraph by: nothing to pack or time
    out = tmp_path / "free"
    (out / "schedule.json").parent.mkdir()
    (out / "schedule.json").write_text("{}")
    assert main(["plan", "--gen", "clusters:4x2:b_slow=inf", "--d", "100",
                 "--out", str(out)]) == 0
    sel = json.loads((out / "selection.json").read_text())
    assert len(sel["chosen"]["subset"]) == 4
    packing = json.loads((out / "packing.json").read_text())
    assert packing == {"p": 0,
                       "notice": "all links are infinite: no trees needed"}
    assert not (out / "schedule.json").exists()
    assert "communication is free" in capsys.readouterr().out


def test_plan_builds_one_unit_multigraph(tmp_path, monkeypatch):
    # the packing and the AllReduce share the proxy's cached multigraph
    builds = []
    build = flowsgd.graph_core._build_unit_multigraph

    def counted(und):
        builds.append(und)
        return build(und)

    monkeypatch.setattr(flowsgd.graph_core, "_build_unit_multigraph",
                        counted)
    assert main(["plan", "--gen", "clusters:40x4:b_slow=0.1", "--d", "1000",
                 "--sigma2", "1000", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "schedule.json").exists()
    assert len(builds) == 1


def test_plan_store_forward_pays_a_block_per_hop(tmp_path, capsys):
    # ring:6 packs two 5-hop paths, each carrying a 500-coordinate block
    predicted = {}
    for comm in ("streamed", "store_forward"):
        out = tmp_path / comm
        assert main(["plan", "--gen", "ring:6", "--d", "1000", "--sigma2",
                     "1000", "--comm", comm, "--out", str(out)]) == 0
        assert f"({comm})" in capsys.readouterr().out
        sched = json.loads((out / "schedule.json").read_text())
        predicted[comm] = sched["predicted_seconds"]
    assert predicted == {"streamed": 2 * (500 + 4),
                         "store_forward": 2 * 5 * 500}


def count_max_flows(monkeypatch):
    # every max-flow, in a cut tree or alone, is one min_cut on a network
    calls = []
    network = flowsgd.graph_core._FlowNetwork
    flow = network.min_cut

    def counted(net, s, t):
        calls.append((s, t))
        return flow(net, s, t)

    monkeypatch.setattr(network, "min_cut", counted)
    return calls


def test_plan_builds_one_cut_tree(tmp_path, monkeypatch):
    # selection and the packing alpha read the tree gh_tree.json records
    calls = count_max_flows(monkeypatch)
    assert main(["plan", "--gen", "torus:5x5", "--d", "1000", "--sigma2",
                 "1000", "--out", str(tmp_path)]) == 0
    assert len(calls) == 24  # n - 1 max-flows: one Gomory-Hu tree
    packing = json.loads((tmp_path / "packing.json").read_text())
    assert packing["p"] == 4 and packing["alpha"] == 4


@pytest.mark.parametrize("argv", [
    ["experiment", "--methods", "grace,leon,sync,hero", "--seeds", "0:3"],
    ["analyze"],
])
def test_every_command_builds_one_cut_tree(tmp_path, monkeypatch, argv):
    # every training cell and both cut-based bounds share the graph's tree
    calls = count_max_flows(monkeypatch)
    assert main(argv + ["--gen", "torus:4x4", "--out", str(tmp_path)]) == 0
    assert len(calls) == 15


def test_training_cells_share_the_proxy_tree(tmp_path, monkeypatch):
    # infinite links: one tree of the graph and one of its cached proxy
    calls = count_max_flows(monkeypatch)
    assert main(["experiment", "--gen", "clusters:40x4:b_slow=0.1",
                 "--methods", "grace,leon,sync,hero", "--seeds", "0:2",
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == 2 * 39


def test_experiment_plans_each_method_once(tmp_path, monkeypatch):
    # the schedule does not depend on the seed: grace and leon pack and
    # time one AllReduce each, not one per seed
    calls = []
    for name in ("pack_steiner_trees", "run_allreduce"):
        def counted(*args, _name=name,
                    _fn=getattr(flowsgd.optimizers, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(flowsgd.optimizers, name, counted)
    assert main(["experiment", "--gen", "clusters:40x4:b_slow=0.1",
                 "--methods", "grace,leon,sync,hero", "--seeds", "0:3",
                 "--out", str(tmp_path)]) == 0
    assert sorted(calls) == ["pack_steiner_trees"] * 2 + ["run_allreduce"] * 2


def test_experiment_builds_one_generator_per_noisy_iteration(tmp_path,
                                                             monkeypatch):
    # each iteration draws its summed noise once, whatever the batch size
    built = []
    philox = np.random.Philox

    def counted(*args, **kwargs):
        built.append(args)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    assert main(["experiment", "--gen", "torus:4x4", "--methods",
                 "grace,leon,sync,hero", "--seeds", "0:2",
                 "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "runs.csv")[1:]
    iterations = sum(1 for row in rows if row[2] != "0")
    assert max(int(row[6]) for row in rows) > 1
    assert len(built) == iterations


def test_plan_with_infinite_links_packs_the_proxy(tmp_path):
    # clusters joined by infinite fast links: the packing runs on the
    # finite proxy, whose alpha the independent multigraph cut confirms
    out = tmp_path / "inf"
    assert main(["plan", "--gen", "clusters:40x4:b_slow=0.1", "--d", "1000",
                 "--sigma2", "1000", "--out", str(out)]) == 0
    g = topologies.k_clusters(40, 4, b_slow=0.1)
    proxy = finite_bandwidth_proxy(g)
    assert proxy is not g
    subset = json.loads((out / "selection.json").read_text())["chosen"][
        "subset"]
    doc = json.loads((out / "packing.json").read_text())
    mg = unit_multigraph(proxy)
    assert mg.scale > 1
    assert doc["alpha"] == min_S_cut_multigraph(mg, subset) == 144
    packing = TreePacking(
        tuple(SteinerTree(tuple(tuple(e) for e in t["edges"]))
              for t in doc["trees"]),
        tuple(doc["terminals"]), doc["pivot"], doc["alpha"])
    report = verify_packing(packing, mg, subset)
    assert report.valid, report.problems[:3]
    assert report.p == doc["p"] == 144


def test_plan_passes_the_bench_plan_check(tmp_path, capsys):
    # rebuilds the packing from packing.json, one tree per entry, the way
    # perfbench/workloads.check_plan does, and re-simulates the AllReduce
    out = tmp_path / "clusters"
    assert main(["plan", "--gen", "clusters:40x4:b_slow=0.1:b_fast=10",
                 "--d", "1000", "--sigma2", "1000", "--out", str(out)]) == 0
    graph = topologies.k_clusters(40, 4, b_slow=0.1, b_fast=10.0)
    subset = json.loads((out / "selection.json").read_text())["chosen"][
        "subset"]
    doc = json.loads((out / "packing.json").read_text())
    packing = TreePacking(
        tuple(SteinerTree(tuple(tuple(e) for e in t["edges"]))
              for t in doc["trees"]),
        tuple(doc["terminals"]), doc["pivot"], doc["alpha"])
    assert list(packing.terminals) == sorted(subset)
    proxy = finite_bandwidth_proxy(graph)
    report = verify_packing(packing, unit_multigraph(proxy),
                            packing.terminals)
    assert report.valid, report.problems[:3]
    assert report.p <= report.alpha
    trace, _ = run_allreduce(proxy, packing, 1000)
    assert audit_capacity(trace, proxy) <= 1 + 1e-9
    predicted = json.loads((out / "schedule.json").read_text())[
        "predicted_seconds"]
    assert predicted == trace.completion_time
    # every copy of a shape is one packing.json entry; the count is kept
    shapes = len(packing.shapes())
    assert doc["shapes"] == shapes < packing.p
    assert f"p={packing.p} trees in {shapes} shapes" in \
        capsys.readouterr().out


def test_generated_and_file_topologies_agree(tmp_path):
    doc = serialize_topology(topologies.star(6, b=2.0))
    path = tmp_path / "star.json"
    path.write_text(doc)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["analyze", str(path), "--out", str(a), "--d", "4"]) == 0
    assert main(["analyze", "--gen", "star:6:b=2", "--out", str(b),
                 "--d", "4"]) == 0
    assert (a / "analysis.csv").read_bytes() == \
        (b / "analysis.csv").read_bytes()


def test_simulate_writes_one_trace(tmp_path, capsys):
    out = tmp_path / "sim"
    rc = main(["simulate", "--gen", "star:3:b=5", "--out", str(out),
               "--method", "hero", "--seed", "3", "--max-iters", "4",
               "--d", "8"])
    assert rc == 0
    rows = read_csv(out / "trace_hero_seed3.csv")
    assert rows[0] == ["iter", "sim_time_s", "grad_norm_sq", "f_value",
                       "total_batch"]
    assert len(rows) == 6  # header + initial point + 4 iterations
    assert "status max_iters" in capsys.readouterr().out


def test_experiment_grid_and_reruns_are_identical(tmp_path):
    args = ["experiment", "--gen", "star:3:b=5", "--methods", "grace,hero",
            "--seeds", "0:2", "--max-iters", "3", "--d", "8"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("runs.csv", "time_to_target.csv", "trace_grace_seed1.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    runs = read_csv(a / "runs.csv")
    assert runs[0] == ["method", "seed", "iter", "sim_time_s",
                       "grad_norm_sq", "f_value", "total_batch"]
    cells = {(r[0], r[1]) for r in runs[1:]}
    assert cells == {("grace", "0"), ("grace", "1"),
                     ("hero", "0"), ("hero", "1")}
    summary = read_csv(a / "time_to_target.csv")
    assert summary[0] == ["method", "seed", "target_grad_sq", "time_s",
                          "reached"]
    assert len(summary) == 5


@pytest.mark.parametrize("objective,times", [
    ("quadratic", [("", "0"), ("840.0", "1")]),
    ("synthetic_logreg", [("84.0", "1"), ("168.0", "1")])])
def test_leon_reaches_the_target_at_the_recorded_times(tmp_path, objective,
                                                       times):
    # times recorded from the loop that summed one objective per worker:
    # the closed-form mean moves the iterates by rounding only, so the
    # same iterations reach the target
    assert main(["experiment", "--gen", "clusters:12x3:b_slow=0.5",
                 "--methods", "leon", "--seeds", "0:2", "--objective",
                 objective, "--d", "16", "--sigma2", "1.6", "--max-iters",
                 "100", "--target-grad-sq", "0.01",
                 "--out", str(tmp_path)]) == 0
    assert read_csv(tmp_path / "time_to_target.csv")[1:] == [
        ["leon", str(seed), "0.01", t, hit]
        for seed, (t, hit) in enumerate(times)]


def test_experiment_store_forward_reaches_the_simulator(tmp_path):
    final = {}
    for comm in ("streamed", "store_forward"):
        out = tmp_path / comm
        assert main(["experiment", "--gen", "ring:6", "--methods", "grace",
                     "--comm", comm, "--max-iters", "2", "--d", "8",
                     "--out", str(out)]) == 0
        final[comm] = float(read_csv(out / "runs.csv")[-1][3])
    assert final["store_forward"] > final["streamed"]


def test_exit_code_for_bad_usage(tmp_path, capsys):
    assert main(["plan", str(tmp_path / "nope.json")]) == 2
    assert main(["plan", "--gen", "moebius:4"]) == 2
    assert main(["plan", "--gen", "torus:5x4"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": [')
    assert main(["plan", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_exit_code_for_bad_values(tmp_path):
    assert main(["analyze", "--gen", "star:4", "--out", str(tmp_path),
                 "--epsilon", "-1"]) == 1
    assert main(["simulate", "--gen", "star:3:b=5", "--out", str(tmp_path),
                 "--max-iters", "0", "--d", "4"]) == 0
    assert main(["simulate", "--gen", "star:3:b=0.01", "--out",
                 str(tmp_path), "--max-iters", "50", "--d", "1000",
                 "--max-sim-seconds", "1"]) == 1


@pytest.mark.parametrize("flag,value", [
    ("--d", "nan"), ("--d", "inf"), ("--sigma2", "nan"), ("--sigma2", "inf"),
])
def test_problem_scalars_must_be_finite(tmp_path, capsys, flag, value):
    # at the parent, --d nan died mid-plan and --d inf planned one worker
    assert main(["plan", "--gen", "star:8", flag, value,
                 "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "must be finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["plan", "simulate", "experiment"])
@pytest.mark.parametrize("d", ["0", "0.5"])
def test_vector_size_must_be_a_whole_number(tmp_path, capsys, command, d):
    # rejected before any work: a vector has a whole number of coordinates
    assert main([command, "--gen", "star:5:b=4", "--d", d,
                 "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "--d must be a whole number" in captured.err
    assert captured.out == ""


def test_analyze_accepts_a_zero_vector_size(tmp_path):
    assert main(["analyze", "--gen", "star:5:b=4", "--d", "0",
                 "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("argv,flag", [
    (["experiment", "--seeds", "1,-2"], "--seed/--seeds"),
    (["simulate", "--seed", "-1"], "--seed/--seeds"),
    (["experiment", "--seeds", "1,1"], "--seeds"),
    (["experiment", "--methods", "grace,grace"], "--methods"),
    (["experiment", "--max-iters", "-3"], "--max-iters"),
    (["simulate", "--target-grad-sq", "nan"], "--target-grad-sq"),
    (["simulate", "--target-grad-sq", "-1"], "--target-grad-sq"),
    (["simulate", "--target-grad-sq", "0"], "--target-grad-sq"),
    (["simulate", "--target-grad-sq", "inf"], "--target-grad-sq"),
    (["experiment", "--seeds", "abc"], "--seeds"),
    (["experiment", "--seeds", "1:x"], "--seeds"),
])
def test_training_flags_are_checked_first(tmp_path, capsys, argv, flag):
    # unchecked, a negative seed failed in numpy after the first cell was
    # written, repeats listed a cell twice, and the other values ran
    out = tmp_path / "out"
    assert main(argv + ["--gen", "star:4", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("cap", ["0", "-1", "nan"])
def test_sim_cap_must_be_positive(tmp_path, capsys, cap):
    assert main(["simulate", "--gen", "star:3", "--out", str(tmp_path),
                 "--max-sim-seconds", cap]) == 2
    assert "--max-sim-seconds must be positive" in capsys.readouterr().err


def test_out_env_is_honored(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("FLOWSGD_OUT", str(target))
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", "--gen", "star:4", "--d", "4"]) == 0
    assert (target / "analysis.csv").exists()
