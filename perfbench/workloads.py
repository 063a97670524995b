"""The benchmark's workloads: seeded inputs, CLI argv and output checks.

Each workload is one CLI command run over and over.  Its inputs (the
topology file with per-node compute times ``h``, and for ``experiment``
the seed list) are drawn from the workload seed, so the program only
ever receives files.  Cluster speeds are sorted so that cluster 0 (ids
1..size) is the fastest on every seed: selection then picks the same
subset shape on every seed and only the ``h`` values move.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Callable

PLAN_D = 1000


class CheckError(Exception):
    """A program output failed a correctness check."""


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _load(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def _jittered(graph, rng, low, high):
    return replace(graph, h={v: rng.uniform(low, high) for v in graph.nodes})


def _torus(fs, rng):
    return _jittered(fs.topologies.p_torus(20), rng, 0.5, 1.5), {}


def _star(fs, rng):
    return _jittered(fs.topologies.star(500), rng, 0.5, 1.5), {}


def _plan_clusters(fs, rng):
    speeds = sorted(rng.uniform(0.5, 2.0) for _ in range(10))
    g = fs.topologies.k_clusters(200, 10, b_slow=0.1, b_fast=10.0)
    h = {v: speeds[(v - 1) // 20] * rng.uniform(0.95, 1.05)
         for v in g.nodes}
    return replace(g, h=h), {}


def _train_clusters(fs, rng):
    speeds = sorted(rng.uniform(0.5, 2.0) for _ in range(10))
    g = fs.topologies.k_clusters(100, 10, b_slow=0.1, b_fast=10.0, h=speeds)
    seeds = rng.sample(range(1000), 3)
    return g, {"seeds": ",".join(map(str, seeds))}


def check_plan(fs, graph, out):
    """Subset of >= 2 workers, a valid packing with p <= alpha, and an
    AllReduce that re-simulates to the reported time within capacity."""
    subset = _load(out, "selection.json")["chosen"]["subset"]
    _require(len(subset) >= 2, f"chosen subset has {len(subset)} worker(s)")
    doc = _load(out, "packing.json")
    alpha = math.inf if doc["alpha"] == "inf" else doc["alpha"]
    packing = fs.TreePacking(
        tuple(fs.SteinerTree(tuple(tuple(e) for e in t["edges"]))
              for t in doc["trees"]),
        tuple(doc["terminals"]), doc["pivot"], alpha)
    _require(list(packing.terminals) == sorted(subset),
             "packing terminals differ from the chosen subset")
    proxy = fs.finite_bandwidth_proxy(graph)
    report = fs.verify_packing(packing, fs.unit_multigraph(proxy),
                               packing.terminals)
    _require(report.valid, f"invalid packing: {report.problems[:3]}")
    _require(report.p <= report.alpha,
             f"p={report.p} exceeds alpha={report.alpha}")
    trace, _ = fs.run_allreduce(proxy, packing, PLAN_D)
    worst = fs.audit_capacity(trace, proxy)
    _require(worst <= 1 + 1e-9, f"AllReduce exceeds capacity by {worst}")
    predicted = _load(out, "schedule.json")["predicted_seconds"]
    _require(predicted == trace.completion_time,
             f"schedule says {predicted}s, re-simulation "
             f"{trace.completion_time}s")
    return {"allreduce_sim_s": predicted}


def _strictly_increasing(times, what):
    _require(all(a < b for a, b in zip(times, times[1:])),
             f"{what}: simulated times are not strictly increasing")


def check_experiment(out, methods, seeds):
    """Every cell's trace is well formed and grace reaches 2*epsilon."""
    with open(os.path.join(out, "runs.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    cells = {}
    for r in rows:
        cells.setdefault((r["method"], int(r["seed"])), []).append(r)
    expected = {(m, s) for m in methods for s in seeds}
    _require(set(cells) == expected, f"runs.csv cells {sorted(cells)}")
    for (method, seed), cell in cells.items():
        _require([int(r["iter"]) for r in cell] == list(range(len(cell))),
                 f"{method} seed {seed}: iterations out of order")
        _strictly_increasing([float(r["sim_time_s"]) for r in cell],
                             f"runs.csv {method} seed {seed}")
        with open(os.path.join(out, f"trace_{method}_seed{seed}.csv"),
                  newline="") as fh:
            trace = list(csv.DictReader(fh))
        _strictly_increasing([float(r["sim_time_s"]) for r in trace],
                             f"trace_{method}_seed{seed}.csv")
    with open(os.path.join(out, "time_to_target.csv"), newline="") as fh:
        hits = [r for r in csv.DictReader(fh) if r["method"] == "grace"]
    missed = [r["seed"] for r in hits if r["reached"] != "1"]
    _require(len(hits) == len(seeds) and not missed,
             f"grace misses the 2*epsilon target on seeds {missed}")
    per_iter = sorted(float(cell[-1]["sim_time_s"]) / int(cell[-1]["iter"])
                      for (m, _), cell in cells.items() if m == "grace")
    return {"sim_iter_s": per_iter[len(per_iter) // 2],
            "samples": sum(int(r["total_batch"]) for r in rows)}


TRAIN_METHODS = ("grace", "leon", "sync", "hero")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple  # template: {topology}, {out} and make_graph's fields
    make_graph: Callable  # (flowsgd, random.Random) -> (graph, fields)
    check: Callable  # (flowsgd, graph, out dir, fields) -> extra values


def _plan(name, make_graph):
    return Workload(
        name,
        ("plan", "{topology}", "--d", str(PLAN_D), "--sigma2", "1000",
         "--out", "{out}"),
        make_graph, lambda fs, g, out, fields: check_plan(fs, g, out))


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    _plan("plan-torus", _torus),
    _plan("plan-star", _star),
    _plan("plan-clusters", _plan_clusters),
    Workload(
        "train-clusters",
        ("experiment", "{topology}", "--methods", ",".join(TRAIN_METHODS),
         "--seeds", "{seeds}", "--d", "128", "--sigma2", "40",
         "--out", "{out}"),
        _train_clusters,
        lambda fs, g, out, fields: check_experiment(
            out, TRAIN_METHODS,
            [int(s) for s in fields["seeds"].split(",")])),
)}

# Known defects, run once outside the timed workloads and left visible.
PROBES = {
    "probe.ring1500": ("plan", "--gen", "ring:1500", "--out", "{out}"),
    "probe.store_forward": ("plan", "--gen", "star:8", "--d", "1000",
                            "--sigma2", "1000", "--comm", "store_forward",
                            "--out", "{out}"),
}
