"""Deterministic fluid-model simulator for computation and streaming.

Time advances only at completions and rate changes; everything in
between is linear, so flows are described by (start, rate, size) rather
than per-coordinate packets.  Three kinds of activity are modeled:

* back-to-back gradient computation with an arbitrary monotone stopping
  predicate (:func:`run_gradient_computation`);
* tree streaming for AllReduce schedules and for the naive aggregation
  round (:func:`run_allreduce`, :func:`run_naive_sync_round`), timed by
  one iterative kernel: a stream runs at the slowest rate feeding it and
  each hop adds its link latency plus a per-hop startup -- one
  coordinate slot when pipelined, the whole block when stored and
  forwarded -- in one bottom-up pass for the reduce phase and one
  top-down pass for the broadcast;
* point-to-point transfers that contend for links and share them
  max-min fairly, recomputed at every event boundary
  (:func:`run_separate_transfers`, :func:`shared_edge_rates`).

All runs are bit-deterministic: equal-time gradient completions are
processed in node-id order, and transfers whose remaining size falls
within a 1e-12 relative tolerance finish together.
"""

from __future__ import annotations

import csv
import heapq
import io
import math
from dataclasses import dataclass
from typing import NamedTuple

from .graph_core import WeightedGraph, unit_multigraph
from .steiner_packing import TreePacking, orient_to_pivot

INFINITY = math.inf
TIME_TOL = 1e-12


class SimTimeoutError(RuntimeError):
    """Raised when a simulation exceeds its simulated-time or event cap."""


class TraceEvent(NamedTuple):
    time: float
    event_kind: str  # gradient_done | flow_done | phase_done | rate_change
    node: object  # node id or ""
    edge: str  # "u->v" or ""
    flow_id: str
    detail: str


@dataclass(frozen=True)
class Flow:
    flow_id: str
    path: tuple  # directed (u, v) hops
    size: float  # coordinates
    rate: float  # coordinates per second on every hop
    start: float
    finish: float
    role: str  # reduce | broadcast | transfer


@dataclass(frozen=True)
class SimSchedule:
    pivot: int
    block_size: int
    blocks: tuple  # block index -> tree index (identity here)
    phases: tuple  # ("reduce", "broadcast") or ("reduce",)

    def to_dict(self):
        return {
            "pivot": self.pivot,
            "block_size": self.block_size,
            "blocks": list(self.blocks),
            "phases": list(self.phases),
        }


@dataclass(frozen=True)
class SimTrace:
    events: tuple
    completion_time: float
    utilization: dict

    def to_csv(self, path_or_file):
        if hasattr(path_or_file, "write"):
            self._write(path_or_file)
        else:
            with open(path_or_file, "w", newline="") as fh:
                self._write(fh)

    def _write(self, fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["time", "event_kind", "node", "edge", "flow_id", "detail"])
        for ev in self.events:
            writer.writerow([repr(ev.time), ev.event_kind, ev.node,
                             ev.edge, ev.flow_id, ev.detail])

    def csv_bytes(self):
        buf = io.StringIO()
        self._write(buf)
        return buf.getvalue().encode()


def _edge_str(u, v):
    return f"{u}->{v}"


def _finish_trace(events, utilization):
    events = tuple(sorted(events, key=lambda e: (e.time, e[1:])))
    completion = max((e.time for e in events), default=0.0)
    return SimTrace(events, completion, utilization)


# == Gradient computation ==

def run_gradient_computation(workers, h, stop, max_seconds=1e9,
                             max_events=10_000_000, record=None):
    """Workers compute gradients back to back until ``stop`` fires.

    ``stop`` sees the dict of completed counts after every single
    completion (simultaneous finishes are processed in node-id order) and
    must be monotone.  Returns ``(counts, elapsed)``.  A predicate that
    never fires trips the simulated-time / event-count guard with
    :class:`SimTimeoutError`.  Pass a list as ``record`` to collect
    ``gradient_done`` trace events.
    """
    workers = sorted(workers)
    counts = {w: 0 for w in workers}
    if stop(dict(counts)):
        return counts, 0.0
    # (finish time, node id): simultaneous finishes pop in id order
    heap = [(h[w], w) for w in workers if math.isfinite(h[w])]
    if not heap:
        raise ValueError("no worker can compute")
    heapq.heapify(heap)
    done = 0
    while True:
        t, w = heapq.heappop(heap)
        if t > max_seconds:
            raise SimTimeoutError(
                f"stop predicate unsatisfied after {max_seconds} simulated "
                f"seconds")
        counts[w] += 1
        done += 1
        if record is not None:
            record.append(TraceEvent(t, "gradient_done", w, "", "",
                                     f"count={counts[w]}"))
        if stop(dict(counts)):
            return counts, t
        if done >= max_events:
            raise SimTimeoutError(
                f"stop predicate unsatisfied after {max_events} events")
        heapq.heappush(heap, (t + h[w], w))


# == Tree streaming ==

def _stream(arcs, latency, rate, size, slot):
    """Per-arc ``(start, finish, rate)`` of one tree-streaming phase.

    ``arcs`` are directed links (u, v) in feeding order: every arc into u
    comes before (u, v) -- bottom-up toward the pivot for a reduce,
    top-down from it for a broadcast.  ``latency`` and ``rate`` map a
    directed link to its latency and rate.  The stream on (u, v) runs at
    the smaller of its link rate and the slowest stream into u, and
    starts when the last stream into u has been under way for its link
    latency plus ``slot / rate``: ``slot`` is one coordinate when
    pipelined and the whole ``size`` when stored and forwarded.  Times
    are relative to the start of the phase.
    """
    rate_in, ready = {}, {}
    out = []
    for u, v in arcs:
        r = min(rate[(u, v)], rate_in.get(u, INFINITY))
        start = ready.get(u, 0.0)
        lat = latency[(u, v)]
        out.append((start, start + lat + size / r, r))
        ready[v] = max(ready.get(v, 0.0), start + lat + slot / r)
        rate_in[v] = min(rate_in.get(v, INFINITY), r)
    return out


def run_allreduce(g: WeightedGraph, packing: TreePacking, d, mode="streamed"):
    """Execute an AllReduce schedule over packed trees and trace it.

    The vector is zero-padded into ``p`` blocks of ``ceil(d/p)``
    coordinates, block j streaming through tree j.  Every tree edge is an
    instance of the unit multigraph and carries exactly ``1/scale``
    coordinates per second.  The broadcast phase starts after every
    tree's reduce has completed (one barrier, as in the two-phase
    schedule), reusing each tree with reversed orientation — disjointness
    of the reduce arcs then carries over to the broadcast arcs.

    ``mode="streamed"`` pipelines coordinates (per-hop startup of one
    coordinate slot); ``mode="store_forward"`` forwards only whole
    blocks, for comparison.
    """
    if mode not in ("streamed", "store_forward"):
        raise ValueError(f"unknown mode {mode!r}")
    if d <= 0:
        raise ValueError("vector size must be positive")
    mg = unit_multigraph(g)
    for ti, tree in enumerate(packing.trees):
        for u, v, c in tree.edges:
            if not (0 <= c < mg.multiplicity.get((u, v), 0)):
                raise ValueError(
                    f"packing/graph mismatch: tree {ti} instance {(u, v, c)}")

    p = packing.p
    if p == 0:
        schedule = SimSchedule(packing.pivot, 0, (), ())
        return _finish_trace([], {}), schedule

    block = math.ceil(d / p)
    slot = 1.0 if mode == "streamed" else block
    unit = dict.fromkeys(g.bandwidth, mg.unit_rate)
    schedule = SimSchedule(packing.pivot, block, tuple(range(p)),
                           ("reduce", "broadcast"))
    contributors = len(packing.terminals)

    events = []
    carried = {}  # directed physical edge -> coordinates

    def flow(time, a, b, fid, detail):
        carried[_edge_str(a, b)] = carried.get(_edge_str(a, b), 0.0) + block
        events.append(TraceEvent(time, "flow_done", b, _edge_str(a, b), fid,
                                 detail))

    reduce_done = 0.0
    cascades = []
    for ti, tree in enumerate(packing.trees):
        up = orient_to_pivot(tree, packing.pivot)[::-1]
        cascades.append(up)
        timing = _stream([(a, b) for a, b, _ in up], g.latency, unit, block,
                         slot)
        for (a, b, inst), (start, finish, rate) in zip(up, timing):
            head = (f"size={block};contrib={contributors};"
                    if b == packing.pivot else "")
            flow(finish, a, b, f"reduce/t{ti}/{inst[0]}-{inst[1]}#{inst[2]}",
                 f"block={ti};{head}rate={rate:.17g};start={start:.17g}")
            reduce_done = max(reduce_done, finish)
    events.append(TraceEvent(reduce_done, "phase_done", packing.pivot, "",
                             "", "phase=reduce"))

    completion = reduce_done
    for ti, up in enumerate(cascades):
        down = [(b, a, inst) for a, b, inst in reversed(up)]
        timing = _stream([(a, b) for a, b, _ in down], g.latency, unit,
                         block, slot)
        for (a, b, inst), (start, finish, rate) in zip(down, timing):
            flow(reduce_done + finish, a, b,
                 f"broadcast/t{ti}/{inst[0]}-{inst[1]}#{inst[2]}",
                 f"block={ti};rate={rate:.17g};"
                 f"start={reduce_done + start:.17g}")
            completion = max(completion, reduce_done + finish)
    events.append(TraceEvent(completion, "phase_done", packing.pivot, "",
                             "", "phase=broadcast"))

    util = _utilization(carried, g, completion)
    return _finish_trace(events, util), schedule


def _utilization(carried, g, completion):
    if completion <= 0:
        return {e: 0.0 for e in carried}
    util = {}
    for edge, coords in sorted(carried.items()):
        u, v = edge.split("->")
        b = g.bandwidth[(int(u), int(v))]
        util[edge] = 0.0 if b == INFINITY else coords / (b * completion)
    return util


# == Naive aggregation round ==

def _bfs_tree(g, pivot):
    """Shortest-path tree by hop count; children visited in id order.

    Returns the parent map and the nodes in visiting order.
    """
    parent = {pivot: None}
    order = [pivot]
    frontier = [pivot]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.neighbors(u):
                if v not in parent:
                    parent[v] = u
                    order.append(v)
                    nxt.append(v)
        frontier = nxt
    return parent, order


def run_naive_sync_round(g: WeightedGraph, pivot, d):
    """One streamed aggregation to the pivot plus a broadcast back.

    Every node streams its vector up a hop-shortest tree; an interior
    node merges children streams coordinate-by-coordinate and forwards
    immediately, so the effective rate into any node is the minimum link
    rate below it and each hop adds one coordinate slot of startup.  The
    broadcast mirrors the tree downward.  Completion of both phases is
    returned in the trace; a single node completes at time zero.
    """
    if pivot not in g.nodes:
        raise ValueError(f"pivot {pivot} not in graph")
    parent, order = _bfs_tree(g, pivot)
    if len(order) != len(g.nodes):
        raise ValueError("graph is disconnected")
    if len(g.nodes) == 1:
        return _finish_trace(
            [TraceEvent(0.0, "phase_done", pivot, "", "", "phase=reduce"),
             TraceEvent(0.0, "phase_done", pivot, "", "",
                        "phase=broadcast")], {})

    up = [(v, parent[v]) for v in reversed(order[1:])]
    events = []
    carried = {}
    for (c, v), (start, finish, r) in zip(
            up, _stream(up, g.latency, g.bandwidth, d, 1.0)):
        carried[_edge_str(c, v)] = d
        events.append(TraceEvent(
            finish, "flow_done", v, _edge_str(c, v), f"reduce/{c}-{v}",
            f"rate={r:.17g};start={start:.17g}"))
    reduce_done = max(e.time for e in events)
    events.append(TraceEvent(reduce_done, "phase_done", pivot, "", "",
                             "phase=reduce"))

    completion = reduce_done
    down = [(v, c) for c, v in reversed(up)]
    for (v, c), (start, finish, r) in zip(
            down, _stream(down, g.latency, g.bandwidth, d, 1.0)):
        carried[_edge_str(v, c)] = d
        events.append(TraceEvent(
            reduce_done + finish, "flow_done", c, _edge_str(v, c),
            f"broadcast/{v}-{c}",
            f"rate={r:.17g};start={reduce_done + start:.17g}"))
        completion = max(completion, reduce_done + finish)
    events.append(TraceEvent(completion, "phase_done", pivot, "", "",
                             "phase=broadcast"))
    return _finish_trace(events, _utilization(carried, g, completion))


# == Contending point-to-point transfers ==

def shared_edge_rates(flows, bandwidth):
    """Max-min fair allocation for flows with fixed directed paths.

    ``flows``: mapping flow id -> iterable of directed (u, v) hops (an
    empty path gets infinite rate); ``bandwidth``: directed edge -> cap.
    Progressive filling: repeatedly give every unfrozen flow the largest
    common rate some edge can still support equally, freeze that edge's
    flows, subtract, continue.
    """
    rates = {}
    paths = {fid: tuple(path) for fid, path in flows.items()}
    active = set()
    for fid, path in paths.items():
        if path:
            active.add(fid)
        else:
            rates[fid] = INFINITY
    remaining = dict(bandwidth)
    while active:
        share = INFINITY
        for e, cap in remaining.items():
            users = sum(1 for fid in active if e in paths[fid])
            if users:
                share = min(share, cap / users)
        if share == INFINITY:
            for fid in active:
                rates[fid] = INFINITY
            break
        frozen = set()
        for e in remaining:
            users = [fid for fid in active if e in paths[fid]]
            if users and remaining[e] / len(users) <= share * (1 + 1e-12):
                frozen.update(users)
        for fid in frozen:
            rates[fid] = share
        for e in remaining:
            used = sum(1 for fid in frozen if e in paths[fid])
            if used:
                remaining[e] = max(0.0, remaining[e] - share * used)
        active -= frozen
    return rates


def _shortest_path(g, src, dst):
    parent = {src: None}
    frontier = [src]
    while frontier and dst not in parent:
        nxt = []
        for u in frontier:
            for v in g.neighbors(u):
                if v not in parent:
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt
    if dst not in parent:
        raise ValueError(f"no path {src} -> {dst}")
    path = []
    v = dst
    while parent[v] is not None:
        path.append((parent[v], v))
        v = parent[v]
    return tuple(reversed(path))


def run_separate_transfers(g: WeightedGraph, sources, dest, d):
    """Each source pushes its own d-coordinate vector to ``dest``.

    Flows follow hop-shortest paths and contend max-min fairly; rates are
    recomputed whenever a flow completes (rate_change events record each
    boundary).  This is the no-aggregation baseline.
    """
    flows = {f"xfer/{s}": _shortest_path(g, s, dest)
             for s in sorted(sources) if s != dest}
    remaining = {fid: float(d) for fid in flows}
    events = []
    carried = {}
    t = 0.0
    while remaining:
        rates = shared_edge_rates(
            {fid: flows[fid] for fid in remaining}, g.bandwidth)
        for fid in sorted(remaining):
            events.append(TraceEvent(
                t, "rate_change", "", "", fid, f"rate={rates[fid]:.17g}"))
        span = min(remaining[fid] / rates[fid] for fid in remaining)
        t += span
        finished = [fid for fid in sorted(remaining)
                    if remaining[fid] - rates[fid] * span
                    <= TIME_TOL * max(1.0, d)]
        for fid in sorted(remaining):
            moved = rates[fid] * span
            remaining[fid] -= moved
            for e in flows[fid]:
                carried[_edge_str(*e)] = carried.get(_edge_str(*e), 0.0) \
                    + moved
        for fid in finished:
            events.append(TraceEvent(
                t, "flow_done", flows[fid][-1][1] if flows[fid] else dest,
                _edge_str(*flows[fid][-1]) if flows[fid] else "", fid,
                "delivered"))
            del remaining[fid]
        if not finished:
            raise AssertionError("no progress in transfer loop")
    events.append(TraceEvent(t, "phase_done", dest, "", "",
                             "phase=transfers"))
    return _finish_trace(events, _utilization(carried, g, t))


def audit_capacity(trace: SimTrace, g: WeightedGraph):
    """Re-check the capacity invariant from a trace's flow events.

    Reconstructs each flow's (start, finish, rate, edge) from the recorded
    details and integrates per-directed-edge rate over time; returns the
    worst ratio of aggregate rate to capacity (≤ 1 + 1e-9 when the run
    respected the fluid constraints).
    """
    intervals = {}
    for ev in trace.events:
        if ev.event_kind != "flow_done" or not ev.edge:
            continue
        fields = dict(kv.split("=") for kv in ev.detail.split(";")
                      if "=" in kv)
        if "rate" not in fields or "start" not in fields:
            continue
        rate = float(fields["rate"])
        start = float(fields["start"])
        intervals.setdefault(ev.edge, []).append((start, ev.time, rate))
    worst = 0.0
    for edge, ivs in intervals.items():
        u, v = edge.split("->")
        key = (int(u), int(v))
        cap = g.bandwidth[key]
        if cap == INFINITY:
            continue
        times = sorted({t for iv in ivs for t in iv[:2]})
        for lo, hi in zip(times, times[1:]):
            mid = (lo + hi) / 2
            total = sum(r for s, f, r in ivs if s <= mid <= f)
            worst = max(worst, total / cap)
    return worst
