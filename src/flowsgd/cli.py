"""Command-line front end: analyze, plan, simulate, experiment.

Every subcommand takes a cluster description -- either a JSON topology
file or a ``--gen`` string such as ``torus:5x5:b=0.1`` -- plus the
optimization-problem scalars, and writes deterministic artifacts (CSV
and JSON) into the output directory.  Re-running a command with the
same arguments reproduces the output files byte for byte.

Exit codes: 0 on success, 1 on domain errors (invalid graph, packing or
training failures), 2 on usage and I/O errors (unreadable files, bad
``--gen`` strings, malformed JSON, out-of-range training flags).  A
command that fails its argument checks writes nothing.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

from .analyzer import (grace_complexity, hero_sgd_complexity,
                       leon_complexity, sync_sgd_complexity,
                       tradeoff_bounds)
from .graph_core import (INFINITY, WeightedGraph, finite_bandwidth_proxy,
                         gomory_hu_tree, parse_topology, serialize_topology,
                         unit_multigraph)
from .optimizers import (StochasticOracle, _all_infinite_bandwidth,
                         grace_sgd, hero_sgd, leon_sgd, make_objective,
                         sync_sgd)
from .selection import ProblemParams, find_fastest_subset
from .simulator import run_allreduce
from .steiner_packing import pack_steiner_trees
from . import topologies

OUT_ENV = "FLOWSGD_OUT"
METHODS = ("grace", "leon", "sync", "hero")


class UsageError(Exception):
    """Bad command line or unreadable input: exit code 2."""


# == Configuration ==

@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs, resolved and validated."""

    graph: WeightedGraph
    params: ProblemParams
    methods: tuple
    objective: str
    seeds: tuple
    out_dir: str
    analysis_mode: str = "constants"
    comm_mode: str = "streamed"
    max_iters: int = 200
    target_grad_sq: float | None = None
    max_sim_seconds: float = INFINITY

    def __post_init__(self):
        if not self.seeds:
            raise UsageError("need at least one seed")
        if min(self.seeds) < 0:
            raise UsageError(f"--seed/--seeds must be nonnegative, got "
                             f"{min(self.seeds)}")
        if len(set(self.seeds)) < len(self.seeds):
            raise UsageError(f"--seeds repeats a seed: {list(self.seeds)}")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise UsageError(f"unknown methods: {bad}; pick from {METHODS}")
        if len(set(self.methods)) < len(self.methods):
            raise UsageError("--methods repeats a method: "
                             f"{','.join(self.methods)}")
        if self.max_iters < 0:
            raise UsageError(f"--max-iters must be nonnegative, got "
                             f"{self.max_iters}")
        if self.target_grad_sq is not None \
                and not 0 < self.target_grad_sq < INFINITY:
            raise UsageError("--target-grad-sq must be finite and positive, "
                             f"got {self.target_grad_sq:g}")
        if not self.max_sim_seconds > 0:
            raise UsageError("--max-sim-seconds must be positive, got "
                             f"{self.max_sim_seconds:g}")


def _num(text):
    if text.strip().lower() in ("inf", "infinity"):
        return INFINITY
    return float(text)


def _parse_gen(spec):
    """Build a topology from a generator string.

    Grammar: ``kind:shape[:key=value]...`` where kind is one of star,
    ring, torus, all_to_all, clusters; shape is a node count (``star:8``),
    torus sides (``torus:5x5``), or ``clusters:<n>x<K>``.  Remaining
    segments set bandwidths and compute times, e.g. ``b=0.1``, ``h=2``,
    ``b_slow=inf``.
    """
    parts = spec.split(":")
    kind, shape = parts[0], parts[1] if len(parts) > 1 else None
    if not shape:
        raise UsageError(f"--gen {spec!r}: missing size (try 'star:8')")
    kw = {}
    for seg in parts[2:]:
        if "=" not in seg:
            raise UsageError(f"--gen {spec!r}: expected key=value, got {seg!r}")
        key, val = seg.split("=", 1)
        kw[key] = _num(val)
    try:
        if kind == "star":
            return topologies.star(int(shape), **kw)
        if kind == "ring":
            return topologies.ring(int(shape), **kw)
        if kind == "torus":
            sides = [int(s) for s in shape.split("x")]
            if len(set(sides)) != 1:
                raise UsageError(
                    f"--gen {spec!r}: torus sides must all be equal")
            return topologies.p_torus(sides[0], p=len(sides), **kw)
        if kind == "all_to_all":
            return topologies.all_to_all(int(shape), **kw)
        if kind == "clusters":
            n, k = (int(s) for s in shape.split("x"))
            return topologies.k_clusters(n, k, **kw)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"--gen {spec!r}: {exc}") from None
    raise UsageError(f"--gen {spec!r}: unknown kind {kind!r}")


def _load_graph(args):
    if args.gen and args.topology:
        raise UsageError("give either a topology file or --gen, not both")
    if args.gen:
        return _parse_gen(args.gen)
    if not args.topology:
        raise UsageError("need a topology file or --gen")
    try:
        with open(args.topology) as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {args.topology}: {exc}") from None
    try:
        return parse_topology(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{args.topology}: line {exc.lineno} column "
                         f"{exc.colno}: {exc.msg}") from None


def _config(args, methods, seeds):
    out = args.out or os.environ.get(OUT_ENV) or "."
    cap = getattr(args, "max_sim_seconds", None)
    cfg = ExperimentConfig(
        graph=_load_graph(args),
        params=ProblemParams(d=args.d, sigma2=args.sigma2,
                             epsilon=args.epsilon, L=args.lipschitz,
                             delta=args.delta),
        methods=tuple(methods),
        objective=getattr(args, "objective", "quadratic"),
        seeds=tuple(seeds),
        out_dir=out,
        analysis_mode=getattr(args, "mode", "constants"),
        comm_mode=getattr(args, "comm", "streamed"),
        max_iters=getattr(args, "max_iters", 200),
        target_grad_sq=getattr(args, "target_grad_sq", None),
        max_sim_seconds=INFINITY if cap is None else cap,
    )
    # every command but analyze builds vectors of d coordinates
    d = cfg.params.d
    if args.command != "analyze" and not (d >= 1 and d.is_integer()):
        raise ValueError(f"--d must be a whole number >= 1, got {d:g}")
    os.makedirs(out, exist_ok=True)
    return cfg


# == Output helpers ==

def _atomic_write(path, data):
    """Write bytes through a same-directory temp file and rename."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_json(path, payload):
    _atomic_write(path, (json.dumps(payload, sort_keys=True)
                         + "\n").encode())


def _csv_bytes(header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue().encode()


def _fmt(x):
    if x == INFINITY:
        return "inf"
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


# == analyze ==

def _complexity_reports(cfg):
    g, p, mode = cfg.graph, cfg.params, cfg.analysis_mode
    builders = {
        "grace": lambda: grace_complexity(g, p, mode=mode),
        "leon": lambda: leon_complexity(g, p, mode=mode),
        "sync": lambda: sync_sgd_complexity(g, p, mode=mode),
        "hero": lambda: hero_sgd_complexity(p, g.h, mode=mode),
    }
    return [builders[m]() for m in cfg.methods]


def cmd_analyze(cfg):
    reports = _complexity_reports(cfg)
    rows = []
    for r in reports:
        for term, value in sorted(r.terms.items()):
            rows.append([r.method, r.mode, r.combine, term, repr(value)])
        rows.append([r.method, r.mode, r.combine, "total", repr(r.total)])
    path = os.path.join(cfg.out_dir, "analysis.csv")
    _atomic_write(path, _csv_bytes(
        ["method", "mode", "combine", "term", "seconds"], rows))

    width = max(len(r.method) for r in reports)
    print(f"time complexity ({cfg.analysis_mode} mode)")
    for r in reports:
        terms = " + " if r.combine == "sum" else " max "
        detail = terms.join(f"{k}={_fmt(v)}" for k, v in sorted(r.terms.items()))
        print(f"  {r.method:<{width}}  total={_fmt(r.total):<12} [{r.regime}]"
              f"  {detail}")

    try:
        trade = tradeoff_bounds(cfg.graph, cfg.params)
    except ValueError as exc:
        print(f"trade-off bounds: not applicable ({exc})")
    else:
        _write_json(os.path.join(cfg.out_dir, "tradeoff.json"),
                    trade.to_dict())
        _atomic_write(
            os.path.join(cfg.out_dir, "tradeoff.csv"),
            _csv_bytes(["bound", "argmin_m", "seconds"], [
                ["by_degree", trade.by_degree_argmin, repr(trade.by_degree)],
                ["by_count", trade.by_count_argmin, repr(trade.by_count)],
                ["solo", 1, repr(trade.solo)],
            ]))
        print(f"trade-off bounds: by_degree={_fmt(trade.by_degree)} "
              f"(m={trade.by_degree_argmin}), by_count={_fmt(trade.by_count)} "
              f"(m={trade.by_count_argmin}), solo={_fmt(trade.solo)}")
    print(f"wrote {path}")
    return 0


# == plan ==

def cmd_plan(cfg):
    g, params = cfg.graph, cfg.params
    tree = gomory_hu_tree(g)
    choice, trace = find_fastest_subset(g, params)
    partition = trace.steps[choice.k - 1].components

    _write_json(os.path.join(cfg.out_dir, "gh_tree.json"), {
        "nodes": list(tree.nodes),
        "edges": [[u, v, w] for u, v, w in tree.edges],
    })
    _write_json(os.path.join(cfg.out_dir, "selection.json"), {
        "chosen": {"subset": list(choice.subset), "k": choice.k,
                   "score": choice.score,
                   "weight": "inf" if choice.weight == INFINITY
                             else choice.weight,
                   "components": [list(c) for c in partition]},
        "trace": trace.to_dict(),
    })

    print(f"cut tree weights: {tree.weights()}")
    print("subset search (best component and removed edge at each step):")
    for step in trace.steps:
        best = "none" if step.best is None else \
            f"min {step.best[0]} size {step.best[1]}"
        removed = "-" if step.removed_edge is None else \
            "{}-{}".format(*step.removed_edge)
        print(f"  k={step.k} weight={_fmt(step.weight)} "
              f"score={_fmt(step.best_score)} best={best} removed={removed}")
    print(f"chosen partition (k={choice.k}): "
          + " | ".join("{" + ",".join(map(str, c)) + "}" for c in partition))
    print(f"chosen S*: {set(choice.subset)} (k={choice.k}, "
          f"t*={_fmt(choice.score)})")

    # relay switches in S* forward but never compute: pack the workers
    workers = [v for v in choice.subset if math.isfinite(g.h[v])]
    schedule_path = os.path.join(cfg.out_dir, "schedule.json")
    if len(workers) < 2 or _all_infinite_bandwidth(g):
        if len(workers) < 2:
            notice = "single-worker plan: no trees needed"
            line = "single worker, nothing to pack"
        else:
            notice = "all links are infinite: no trees needed"
            line = "all links infinite, communication is free"
        _write_json(os.path.join(cfg.out_dir, "packing.json"),
                    {"p": 0, "notice": notice})
        if os.path.exists(schedule_path):
            os.remove(schedule_path)
        print(f"packing: {line}")
        return 0

    # the packing runs on the proxy, which is g unless g has infinite links
    proxy = finite_bandwidth_proxy(g)
    packing = pack_steiner_trees(unit_multigraph(proxy), workers,
                                 gomory_hu_tree(proxy), d=int(params.d))
    _write_json(os.path.join(cfg.out_dir, "packing.json"), packing.to_dict())
    sim, schedule = run_allreduce(proxy, packing, int(params.d),
                                  mode=cfg.comm_mode)
    doc = schedule.to_dict()
    doc["predicted_seconds"] = sim.completion_time
    _write_json(schedule_path, doc)
    print(f"packing: p={packing.p} trees in {len(packing.shapes())} "
          f"shapes, alpha={_fmt(packing.alpha)} "
          f"(ratio {packing.ratio:.3f})")
    print(f"allreduce of d={int(params.d)}: {sim.completion_time:.6g}s "
          f"({cfg.comm_mode})")
    return 0


# == simulate / experiment ==

def _objective_for(method, cfg, seed):
    n = len(cfg.graph.workers())
    if method == "leon":
        samples = None
        if cfg.objective == "synthetic_logreg":
            base = max(4 * int(cfg.params.d), 16)
            samples = math.ceil(base / n) * n
        return make_objective(cfg.objective, int(cfg.params.d),
                              n_components=n, seed=seed,
                              L=cfg.params.L, delta=cfg.params.delta,
                              n_samples=samples)
    return make_objective(cfg.objective, int(cfg.params.d), seed=seed,
                          L=cfg.params.L, delta=cfg.params.delta)


def _run_cell(cfg, method, seed):
    objective = _objective_for(method, cfg, seed)
    oracle = StochasticOracle(objective, cfg.params.sigma2, seed=seed)
    kw = {"target_grad_sq": cfg.target_grad_sq}
    if method == "grace":
        trace = grace_sgd(cfg.graph, objective, oracle, cfg.params,
                          cfg.max_iters, mode=cfg.comm_mode, **kw)
    elif method == "leon":
        trace = leon_sgd(cfg.graph, objective, oracle, cfg.params,
                         cfg.max_iters, mode=cfg.comm_mode, **kw)
    elif method == "sync":
        trace = sync_sgd(cfg.graph, objective, oracle, cfg.params,
                         cfg.max_iters, **kw)
    else:
        trace = hero_sgd(objective, oracle, cfg.params, cfg.max_iters,
                         cfg.graph.h, **kw)
    if trace.final_time() > cfg.max_sim_seconds:
        raise ValueError(
            f"{method} seed {seed}: simulated {trace.final_time():.6g}s "
            f"exceeds the cap {cfg.max_sim_seconds:.6g}s")
    return trace


def _cell_path(cfg, method, seed):
    return os.path.join(cfg.out_dir, f"trace_{method}_seed{seed}.csv")


def cmd_simulate(cfg):
    method, seed = cfg.methods[0], cfg.seeds[0]
    trace = _run_cell(cfg, method, seed)
    path = _cell_path(cfg, method, seed)
    _atomic_write(path, trace.csv_bytes())
    print(f"{method} seed {seed}: {len(trace.rows) - 1} iterations, "
          f"{trace.final_time():.6g}s simulated, min grad^2 "
          f"{_fmt(trace.min_grad_sq())}, status {trace.status}")
    print(f"wrote {path}")
    return 0


def cmd_experiment(cfg):
    target = cfg.target_grad_sq
    if target is None:
        target = 2 * cfg.params.epsilon
    long_rows = []
    summary = []
    for method in cfg.methods:
        for seed in cfg.seeds:
            trace = _run_cell(cfg, method, seed)
            _atomic_write(_cell_path(cfg, method, seed), trace.csv_bytes())
            for it, t, gsq, fv, batch in trace.rows:
                long_rows.append([method, seed, it, repr(t), repr(gsq),
                                  repr(fv), batch])
            hit = next((t for _, t, gsq, _, _ in trace.rows
                        if gsq <= target), None)
            summary.append([method, seed, repr(target),
                            "" if hit is None else repr(hit),
                            int(hit is not None)])
            state = "never" if hit is None else f"{hit:.6g}s"
            print(f"  {method} seed {seed}: grad^2 <= {_fmt(target)} "
                  f"at {state}")
    _atomic_write(os.path.join(cfg.out_dir, "runs.csv"), _csv_bytes(
        ["method", "seed", "iter", "sim_time_s", "grad_norm_sq",
         "f_value", "total_batch"], long_rows))
    _atomic_write(os.path.join(cfg.out_dir, "time_to_target.csv"),
                  _csv_bytes(["method", "seed", "target_grad_sq",
                              "time_s", "reached"], summary))
    print(f"wrote {os.path.join(cfg.out_dir, 'runs.csv')} and "
          f"time_to_target.csv ({len(summary)} cells)")
    return 0


# == Argument parsing ==

def _add_common(sub):
    sub.add_argument("topology", nargs="?", help="JSON topology file")
    sub.add_argument("--gen", help="generate a topology, e.g. torus:5x5:b=1")
    sub.add_argument("--out", help=f"output directory (default ${OUT_ENV} "
                                   "or the working directory)")
    sub.add_argument("--d", type=float, default=100.0,
                     help="model dimension (coordinates)")
    sub.add_argument("--sigma2", type=float, default=1.0,
                     help="gradient variance bound")
    sub.add_argument("--epsilon", type=float, default=0.1,
                     help="target squared gradient norm")
    sub.add_argument("--lipschitz", "-L", type=float, default=1.0,
                     help="smoothness constant")
    sub.add_argument("--delta", type=float, default=1.0,
                     help="initial objective gap")


def _add_training(sub):
    sub.add_argument("--objective", default="quadratic",
                     choices=("quadratic", "synthetic_logreg"))
    sub.add_argument("--max-iters", type=int, default=200)
    sub.add_argument("--target-grad-sq", type=float, default=None,
                     help="stop a run early at this squared gradient norm")
    sub.add_argument("--max-sim-seconds", type=float, default=None,
                     help="fail if a run simulates past this many seconds")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="flowsgd",
        description="Bandwidth-aware planning and simulated training "
                    "for decentralized SGD.")
    subs = parser.add_subparsers(dest="command", required=True)

    an = subs.add_parser("analyze", help="time-complexity tables")
    _add_common(an)
    an.add_argument("--mode", default="constants",
                    choices=("constants", "asymptotic"))
    an.add_argument("--methods", default="grace,leon,sync,hero")

    pl = subs.add_parser("plan", help="subset choice, tree packing, schedule")
    _add_common(pl)

    si = subs.add_parser("simulate", help="one simulated training run")
    _add_common(si)
    _add_training(si)
    si.add_argument("--method", default="grace", choices=METHODS)
    si.add_argument("--seed", type=int, default=0)

    ex = subs.add_parser("experiment", help="methods x seeds grid")
    _add_common(ex)
    _add_training(ex)
    ex.add_argument("--methods", default="grace,sync")
    ex.add_argument("--seeds", default="0",
                    help="comma list ('0,3,7') or range ('0:20')")

    for sub in (pl, si, ex):
        sub.add_argument("--comm", default="streamed",
                         choices=("streamed", "store_forward"),
                         help="AllReduce block handling")
    return parser


def _parse_seeds(text):
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            seeds = tuple(range(int(lo), int(hi)))
        else:
            seeds = tuple(int(s) for s in text.split(",") if s)
    except ValueError:
        raise UsageError(f"--seeds must be integers ('0,2' or '0:3'), got "
                         f"{text!r}") from None
    if not seeds:
        raise UsageError(f"empty seed list: {text!r}")
    return seeds


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        if args.command == "analyze":
            cfg = _config(args, args.methods.split(","), (0,))
            return cmd_analyze(cfg)
        if args.command == "plan":
            cfg = _config(args, ("grace",), (0,))
            return cmd_plan(cfg)
        if args.command == "simulate":
            cfg = _config(args, (args.method,), (args.seed,))
            return cmd_simulate(cfg)
        cfg = _config(args, args.methods.split(","),
                      _parse_seeds(args.seeds))
        return cmd_experiment(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
