"""Layer spans recorded from outside the program.

The traced run replaces public functions of each ``flowsgd`` layer at the
module attribute its caller looks up (``flowsgd.cli.gomory_hu_tree``,
``flowsgd.selection.gomory_hu_tree``, ...) with a wrapper that records a
span: name, start, end, parent span and operation id.  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
time covered by its children; calls are strictly nested in this single
threaded client, so the children's durations simply add up.
``Tracer.audit`` checks that from the recorded spans afterwards.

Nothing under ``src/`` is changed: the wrappers are installed before a
traced operation and the original attributes restored after it.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import statistics
import time

# (attribute path, span name).  Several call sites may feed one span name.
SPAN_SITES = (
    ("flowsgd.cli:gomory_hu_tree", "graph_core.gomory_hu_tree"),
    ("flowsgd.selection:gomory_hu_tree", "graph_core.gomory_hu_tree"),
    ("flowsgd.graph_core:gomory_hu_tree", "graph_core.gomory_hu_tree"),
    ("flowsgd.graph_core:max_flow_min_cut", "graph_core.max_flow_min_cut"),
    ("flowsgd.cli:unit_multigraph", "graph_core.unit_multigraph"),
    ("flowsgd.optimizers:unit_multigraph", "graph_core.unit_multigraph"),
    ("flowsgd.simulator:unit_multigraph", "graph_core.unit_multigraph"),
    ("flowsgd.graph_core:build_graph", "graph_core.build_graph"),
    ("flowsgd.topologies:build_graph", "graph_core.build_graph"),
    ("flowsgd.topologies:star", "topologies"),
    ("flowsgd.topologies:ring", "topologies"),
    ("flowsgd.topologies:p_torus", "topologies"),
    ("flowsgd.topologies:all_to_all", "topologies"),
    ("flowsgd.topologies:k_clusters", "topologies"),
    ("flowsgd.cli:find_fastest_subset", "selection.find_fastest_subset"),
    ("flowsgd.optimizers:find_fastest_subset",
     "selection.find_fastest_subset"),
    ("flowsgd.optimizers:leon_stop_rule", "selection.leon_stop_rule"),
    ("flowsgd.cli:pack_steiner_trees", "steiner_packing.pack_steiner_trees"),
    ("flowsgd.optimizers:pack_steiner_trees",
     "steiner_packing.pack_steiner_trees"),
    ("flowsgd.steiner_packing:min_S_cut_multigraph",
     "steiner_packing.min_S_cut_multigraph"),
    ("flowsgd.cli:run_allreduce", "simulator.run_allreduce"),
    ("flowsgd.optimizers:run_allreduce", "simulator.run_allreduce"),
    ("flowsgd.optimizers:run_gradient_computation",
     "simulator.run_gradient_computation"),
    ("flowsgd.optimizers:run_naive_sync_round",
     "simulator.run_naive_sync_round"),
    ("flowsgd.optimizers:StochasticOracle.gradient_sum",
     "optimizers.gradient_sum"),
    ("flowsgd.cli:grace_sgd", "optimizers.grace_sgd"),
    ("flowsgd.cli:leon_sgd", "optimizers.leon_sgd"),
    ("flowsgd.cli:sync_sgd", "optimizers.sync_sgd"),
    ("flowsgd.cli:hero_sgd", "optimizers.hero_sgd"),
)

# Called too often for a span each (O(n^2) times per plan on a star):
# only counted.
COUNT_SITES = (
    ("flowsgd.selection:subset_score", "selection.subset_score"),
)

# The planning work ``optimizers`` does per training cell.
PLAN_GROUP = "optimizers.plan"
PLAN_GROUP_SITES = frozenset((
    "flowsgd.optimizers:find_fastest_subset",
    "flowsgd.optimizers:pack_steiner_trees",
    "flowsgd.optimizers:run_allreduce",
))

ROOT_SPAN = "cli.main"

# name -> (unit, kind, value of one operation's OpStats).  "setup" metrics
# are taken over the set-up repetitions, "op" metrics over operations.
PER_LAYER = {
    "graph_core.gomory_hu_tree.calls":
        ("count", "op", lambda s: s.calls("graph_core.gomory_hu_tree")),
    "graph_core.gomory_hu_tree.s":
        ("s", "op", lambda s: s.total("graph_core.gomory_hu_tree")),
    "graph_core.max_flow_min_cut.calls":
        ("count", "op", lambda s: s.calls("graph_core.max_flow_min_cut")),
    "graph_core.max_flow_min_cut.s":
        ("s", "op", lambda s: s.total("graph_core.max_flow_min_cut")),
    "graph_core.unit_multigraph.s":
        ("s", "op", lambda s: s.total("graph_core.unit_multigraph")),
    "graph_core.build_graph.s":
        ("s", "setup", lambda s: s.total("graph_core.build_graph")),
    "topologies.s":
        ("s", "setup", lambda s: s.total("topologies")),
    "selection.find_fastest_subset.s":
        ("s", "op", lambda s: s.total("selection.find_fastest_subset")),
    "selection.find_fastest_subset.self_s":
        ("s", "op", lambda s: s.self_time("selection.find_fastest_subset")),
    "selection.subset_score.calls":
        ("count", "op", lambda s: s.count("selection.subset_score")),
    "selection.leon_stop_rule.calls":
        ("count", "op", lambda s: s.calls("selection.leon_stop_rule")),
    "selection.leon_stop_rule.s":
        ("s", "op", lambda s: s.total("selection.leon_stop_rule")),
    "steiner_packing.pack_steiner_trees.s":
        ("s", "op", lambda s: s.total("steiner_packing.pack_steiner_trees")),
    "steiner_packing.pack_steiner_trees.self_s":
        ("s", "op",
         lambda s: s.self_time("steiner_packing.pack_steiner_trees")),
    "steiner_packing.min_S_cut_multigraph.calls":
        ("count", "op",
         lambda s: s.calls("steiner_packing.min_S_cut_multigraph")),
    "steiner_packing.min_S_cut_multigraph.s":
        ("s", "op",
         lambda s: s.total("steiner_packing.min_S_cut_multigraph")),
    "steiner_packing.p":
        ("count", "op", lambda s: s.count("steiner_packing.p")),
    "steiner_packing.alpha":
        ("count", "op", lambda s: s.count("steiner_packing.alpha")),
    "steiner_packing.p_over_alpha":
        ("ratio", "op", lambda s: _ratio(s.count("steiner_packing.p"),
                                         s.count("steiner_packing.alpha"))),
    "simulator.run_allreduce.calls":
        ("count", "op", lambda s: s.calls("simulator.run_allreduce")),
    "simulator.run_allreduce.s":
        ("s", "op", lambda s: s.total("simulator.run_allreduce")),
    "simulator.allreduce_events":
        ("count", "op", lambda s: s.count("simulator.allreduce_events")),
    "simulator.allreduce_over_dw":
        ("ratio", "op", lambda s: _median(s.gauges)),
    "simulator.run_gradient_computation.calls":
        ("count", "op",
         lambda s: s.calls("simulator.run_gradient_computation")),
    "simulator.run_gradient_computation.s":
        ("s", "op", lambda s: s.total("simulator.run_gradient_computation")),
    "simulator.run_naive_sync_round.s":
        ("s", "op", lambda s: s.total("simulator.run_naive_sync_round")),
    "optimizers.gradient_sum.calls":
        ("count", "op", lambda s: s.calls("optimizers.gradient_sum")),
    "optimizers.gradient_sum.s":
        ("s", "op", lambda s: s.total("optimizers.gradient_sum")),
    "optimizers.noise_rows":
        ("count", "op", lambda s: s.count("optimizers.noise_rows")),
    "optimizers.plan.calls":
        ("count", "op", lambda s: s.calls(PLAN_GROUP)),
    "optimizers.plan.s":
        ("s", "op", lambda s: s.total(PLAN_GROUP)),
    "optimizers.grace_sgd.s":
        ("s", "op", lambda s: s.total("optimizers.grace_sgd")),
    "optimizers.leon_sgd.s":
        ("s", "op", lambda s: s.total("optimizers.leon_sgd")),
    "optimizers.sync_sgd.s":
        ("s", "op", lambda s: s.total("optimizers.sync_sgd")),
    "optimizers.hero_sgd.s":
        ("s", "op", lambda s: s.total("optimizers.hero_sgd")),
    "cli.self_s":
        ("s", "op", lambda s: s.self_time(ROOT_SPAN)),
}


def _ratio(a, b):
    return a / b if b and math.isfinite(b) else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def _resolve(site):
    """Return (owner object, attribute name) for ``module:attr.attr``."""
    module_name, path = site.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            break
    if owner is None or not callable(getattr(owner, attr, None)):
        raise LookupError(f"traced attribute {site} no longer exists")
    return owner, attr


class OpStats:
    """Per-operation totals built from the spans and counters of one op."""

    def __init__(self):
        self.span_calls = {}
        self.span_total = {}
        self.span_self = {}
        self.counters = {}
        self.gauges = []

    def add_span(self, name, duration, self_time):
        self.span_calls[name] = self.span_calls.get(name, 0) + 1
        self.span_total[name] = self.span_total.get(name, 0.0) + duration
        self.span_self[name] = self.span_self.get(name, 0.0) + self_time

    def calls(self, name):
        return self.span_calls.get(name, 0)

    def total(self, name):
        return self.span_total.get(name, 0.0)

    def self_time(self, name):
        return self.span_self.get(name, 0.0)

    def count(self, name):
        return self.counters.get(name, 0)


class Tracer:
    """Span recorder plus the wrappers that feed it.

    ``spans`` holds ``(span_id, parent_id, op_id, name, start, end)``
    tuples in closing order.
    """

    def __init__(self):
        self.spans = []
        self.ops = {}  # op_id -> OpStats
        self.seen_sites = set()
        self._op = None
        self._stack = []  # [span_id, name, start, child_time]
        self._next_id = 0
        self._pending_dw = None

    # -- recording --

    def _open(self, name):
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([span_id, name, time.perf_counter(), 0.0])

    def _close(self, group=None):
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, parent[0] if parent else None,
                           self._op[0], name, start, end))
        stats = self._op[1]
        stats.add_span(name, duration, duration - child)
        if group is not None:
            stats.span_calls[group] = stats.span_calls.get(group, 0) + 1
            stats.span_total[group] = stats.span_total.get(group, 0.0) \
                + duration

    def _count(self, name, amount=1):
        counters = self._op[1].counters
        counters[name] = counters.get(name, 0) + amount

    @contextlib.contextmanager
    def operation(self, op_id, root=ROOT_SPAN):
        """Attribute every span inside the block to ``op_id``."""
        stats = self.ops[op_id] = OpStats()
        self._op = (op_id, stats)
        self._pending_dw = None
        self._open(root)
        try:
            yield stats
        finally:
            self._close()
            if self._stack:
                raise RuntimeError(f"op {op_id}: {len(self._stack)} spans "
                                   "left open")
            self._op = None

    # -- observers of return values --

    def _observe(self, name, result, args, kwargs):
        if name == "steiner_packing.pack_steiner_trees":
            self._count("steiner_packing.p", result.p)
            if math.isfinite(result.alpha):
                self._count("steiner_packing.alpha", result.alpha)
        elif name == "selection.find_fastest_subset":
            choice, _ = result
            params = args[1] if len(args) > 1 else kwargs["params"]
            if math.isfinite(choice.weight):
                self._pending_dw = params.d / choice.weight
        elif name == "simulator.run_allreduce":
            trace, _ = result
            self._count("simulator.allreduce_events", len(trace.events))
            if self._pending_dw:
                self._op[1].gauges.append(
                    trace.completion_time / self._pending_dw)
                self._pending_dw = None

    # -- wrappers --

    def _span_wrapper(self, site, name, fn):
        group = PLAN_GROUP if site in PLAN_GROUP_SITES else None
        observed = name in ("steiner_packing.pack_steiner_trees",
                            "selection.find_fastest_subset",
                            "simulator.run_allreduce")
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            tracer.seen_sites.add(site)
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(group)
            if observed:
                tracer._observe(name, result, args, kwargs)
            return result

        if name == "optimizers.gradient_sum":
            def gradient_sum(self, x, worker, iteration, count, component=0):
                if tracer._op is not None and self.sigma2 > 0 and count > 0:
                    tracer._count("optimizers.noise_rows", count)
                return wrapper(self, x, worker, iteration, count, component)
            return gradient_sum
        return wrapper

    def _count_wrapper(self, site, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._op is not None:
                tracer.seen_sites.add(site)
                tracer._count(name)
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every site for the block; fail loudly on a missing one."""
        targets = [(site, name, self._span_wrapper)
                   for site, name in SPAN_SITES]
        targets += [(site, name, self._count_wrapper)
                    for site, name in COUNT_SITES]
        resolved = [(_resolve(site), site, name, make)
                    for site, name, make in targets]
        patched = []
        try:
            for (owner, attr), site, name, make in resolved:
                original = getattr(owner, attr)
                setattr(owner, attr, make(site, name, original))
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    # -- reporting --

    def audit(self, op_id, seconds, tolerance=0.01):
        """Recheck one operation's spans from their recorded tuples alone.

        Self times are recomputed as each span's duration minus the union
        of its children's intervals and compared with the ones the stack
        recorded, and their sum with ``seconds``, the operation's time as
        timed around ``main`` by the caller.  Returns the problems found:
        a span that ends outside its parent or overlaps a sibling (a
        wrapper that recorded the wrong parent), a span directly inside
        one of the same name (a site wrapped twice, so its calls count
        twice), self times the stack got wrong, or a sum that misses part
        of the operation (time outside the root span).
        """
        spans = [span for span in self.spans if span[2] == op_id]
        children = {}
        for span in spans:
            children.setdefault(span[1], []).append(span)
        problems = []
        if len(children.get(None, ())) != 1:
            problems.append(f"{len(children.get(None, ()))} root spans")
        recomputed = {}
        for span_id, _, _, name, start, end in spans:
            covered, reach = 0.0, start
            for kid_id, _, _, kid, kid_start, kid_end in sorted(
                    children.get(span_id, ()), key=lambda c: c[4]):
                if kid_start < start or kid_end > end:
                    problems.append(f"span {kid} #{kid_id} ends outside "
                                    f"its parent {name} #{span_id}")
                elif kid_start < reach:
                    problems.append(f"span {kid} #{kid_id} overlaps a "
                                    f"sibling inside {name} #{span_id}")
                if kid == name:
                    problems.append(f"span {kid} #{kid_id} directly inside "
                                    f"{name} #{span_id}: wrapped twice?")
                lo, hi = max(kid_start, reach), min(kid_end, end)
                if hi > lo:
                    covered += hi - lo
                reach = max(reach, hi)
            recomputed[name] = recomputed.get(name, 0.0) \
                + (end - start) - covered
        recorded = self.ops[op_id].span_self
        for name in sorted(set(recorded) | set(recomputed)):
            a, b = recorded.get(name, 0.0), recomputed.get(name, 0.0)
            if abs(a - b) > 1e-6 + 1e-9 * abs(b):
                problems.append(f"{name}: recorded self time {a:.6f} s, "
                                f"from the spans {b:.6f} s")
        total = sum(recomputed.values())
        if abs(total - seconds) > tolerance * seconds:
            problems.append(f"self times sum to {total:.6f} s of "
                            f"{seconds:.6f} s")
        return problems

    def unused_sites(self):
        every = [site for site, _ in SPAN_SITES + COUNT_SITES]
        return [site for site in every if site not in self.seen_sites]

    def per_layer(self, setup_ids, op_ids):
        """Median over set-up repetitions or operations, per metric."""
        out = {}
        for metric, (unit, kind, value) in PER_LAYER.items():
            ids = setup_ids if kind == "setup" else op_ids
            out[metric] = (statistics.median(value(self.ops[i])
                                             for i in ids), unit)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("span_id,parent_id,op_id,name,start,end\n")
            for span in self.spans:
                fh.write(",".join("" if f is None else str(f)
                                  for f in span) + "\n")
