"""Deterministic fluid-model simulator for computation and streaming.

Time advances only at completions and rate changes; everything in
between is linear, so flows are described by (start, rate, size) rather
than per-coordinate packets.  Three kinds of activity are modeled:

* back-to-back gradient computation with an arbitrary monotone stopping
  predicate (:func:`run_gradient_computation`);
* tree streaming for AllReduce schedules and for the naive aggregation
  round (:func:`run_allreduce`, :func:`run_naive_sync_round`), both a
  reduce up every tree, a barrier and a broadcast back down, timed by
  one iterative kernel: a stream runs at the slowest rate feeding it and
  each hop adds its link latency plus a per-hop startup -- one
  coordinate slot when pipelined, the whole block when stored and
  forwarded -- in one bottom-up pass for the reduce phase and one
  top-down pass for the broadcast (the naive round is the one-tree case).
  Copies of one tree shape stream as one tree weighted by their number,
  so an AllReduce costs one pass per shape and its time depends on the
  link bandwidths, not on the unit multigraph's scale;
* point-to-point transfers that contend for links and share them
  max-min fairly, recomputed at every event boundary
  (:func:`run_separate_transfers`, :func:`shared_edge_rates`).

All runs are bit-deterministic: equal-time gradient completions are
processed in node-id order, and transfers whose remaining size falls
within a 1e-12 relative tolerance finish together.  A trace keeps its
events in time order, equal times in the order they were produced.
Events hold numbers: a directed ``(u, v)`` link and a flow's rate and
start; :meth:`SimTrace.to_csv` is the one place they become text.
"""

from __future__ import annotations

import csv
import heapq
import io
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .graph_core import WeightedGraph, unit_multigraph
from .steiner_packing import TreePacking, orient_to_pivot

INFINITY = math.inf
TIME_TOL = 1e-12


class SimTimeoutError(RuntimeError):
    """Raised when a simulation exceeds its simulated-time or event cap."""


class TraceEvent(NamedTuple):
    """One simulator event.

    ``edge`` is the directed link ``(u, v)`` a flow crossed last, or
    ``None``.  A streamed flow's ``flow_done`` carries its ``rate``
    (coordinates per second) and ``start`` (seconds); a ``rate_change``
    carries only the ``rate``; other events carry neither.  ``detail``
    holds the remaining ``key=value`` fields, ``;``-separated.
    """

    time: float
    event_kind: str  # gradient_done | flow_done | phase_done | rate_change
    node: object  # node id or ""
    edge: tuple | None
    flow_id: str
    detail: str
    rate: float | None = None
    start: float | None = None


@dataclass(frozen=True)
class SimSchedule:
    """Block j of ``block_size`` coordinates streams through tree j."""

    pivot: int
    block_size: int
    phases: tuple  # ("reduce", "broadcast"); () when there is no tree

    def to_dict(self):
        return {
            "pivot": self.pivot,
            "block_size": self.block_size,
            "phases": list(self.phases),
        }


@dataclass(frozen=True)
class SimTrace:
    events: tuple
    completion_time: float
    utilization: dict  # directed (u, v) -> share of capacity in use

    def to_csv(self, path_or_file):
        if hasattr(path_or_file, "write"):
            self._write(path_or_file)
        else:
            with open(path_or_file, "w", newline="") as fh:
                self._write(fh)

    def _write(self, fh):
        # edge as "u->v"; rate and start appended to detail, each .17g
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["time", "event_kind", "node", "edge", "flow_id", "detail"])
        for ev in self.events:
            edge = "" if ev.edge is None else "{}->{}".format(*ev.edge)
            detail = [ev.detail] if ev.detail else []
            if ev.rate is not None:
                detail.append(f"rate={ev.rate:.17g}")
            if ev.start is not None:
                detail.append(f"start={ev.start:.17g}")
            writer.writerow([repr(ev.time), ev.event_kind, ev.node, edge,
                             ev.flow_id, ";".join(detail)])

    def csv_bytes(self):
        buf = io.StringIO()
        self._write(buf)
        return buf.getvalue().encode()


def _finish_trace(events, utilization):
    events = tuple(sorted(events, key=attrgetter("time")))
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
            record.append(TraceEvent(t, "gradient_done", w, None, "",
                                     f"count={counts[w]}"))
        if stop(dict(counts)):
            return counts, t
        if done >= max_events:
            raise SimTimeoutError(
                f"stop predicate unsatisfied after {max_events} events")
        heapq.heappush(heap, (t + h[w], w))


def _check_size(d):
    """A vector size is finite and positive."""
    if not 0 < d < INFINITY:
        raise ValueError(f"vector size must be finite and positive, got {d}")


# == Tree streaming ==

def _stream(arcs, latency, rate, size, slot, copies):
    """Per-arc ``(start, finish, rate)`` of one tree-streaming phase.

    ``arcs`` are directed links (u, v) in feeding order: every arc into u
    comes before (u, v) -- bottom-up toward the pivot for a reduce,
    top-down from it for a broadcast.  ``latency`` and ``rate`` map a
    directed link to its latency and rate; ``copies`` multiplies every
    rate.  The stream on (u, v) runs at the smaller of its link rate and
    the slowest stream into u, and starts when the last stream into u has
    been under way for its link latency plus ``slot / rate``: ``slot`` is
    one coordinate when pipelined and the whole ``size`` when stored and
    forwarded.  Times are relative to the start of the phase.
    """
    rate_in, ready = {}, {}
    out = []
    for u, v in arcs:
        r = min(copies * rate[(u, v)], rate_in.get(u, INFINITY))
        start = ready.get(u, 0.0)
        lat = latency[(u, v)]
        out.append((start, start + lat + size / r, r))
        ready[v] = max(ready.get(v, 0.0), start + lat + slot / r)
        rate_in[v] = min(rate_in.get(v, INFINITY), r)
    return out


def _reduce_broadcast(g, pivot, trees, rate, size, pipelined, head):
    """Trace a reduce up every tree, a barrier, then a broadcast down.

    ``trees`` holds one ``(detail, up, copies)`` per tree, ``up`` its
    arcs ``(a, b, name)`` in feeding order toward ``pivot``.  Once the
    last reduce has arrived, each tree streams its reversed arcs in
    reverse order.  A tree stands for ``copies`` trees on the
    same links: every arc carries ``copies * size`` coordinates at
    ``copies`` times ``rate``, timed by :func:`_stream` with a per-hop
    slot of one coordinate if ``pipelined``, else of all of them.  A flow
    is named ``<phase>/<name>``; its detail is the tree's ``detail``,
    with ``head`` added on reduce flows into the pivot.
    """
    events = []
    carried = {}  # directed link -> coordinates
    offset = done = 0.0
    for phase in ("reduce", "broadcast"):
        for detail, up, copies in trees:
            into = f"{detail};{head}" if head else detail
            arcs = up if phase == "reduce" else \
                [(b, a, name) for a, b, name in reversed(up)]
            sent = copies * size
            timing = _stream([(a, b) for a, b, _ in arcs], g.latency, rate,
                             sent, 1.0 if pipelined else sent, copies)
            for (a, b, name), (start, finish, r) in zip(arcs, timing):
                carried[(a, b)] = carried.get((a, b), 0.0) + sent
                events.append(TraceEvent(
                    offset + finish, "flow_done", b, (a, b),
                    f"{phase}/{name}",
                    into if phase == "reduce" and b == pivot else detail,
                    r, offset + start))
                done = max(done, offset + finish)
        events.append(TraceEvent(done, "phase_done", pivot, None, "",
                                 f"phase={phase}"))
        offset = done
    return _finish_trace(events, _utilization(carried, g, done))


def run_allreduce(g: WeightedGraph, packing: TreePacking, d, mode="streamed"):
    """Execute an AllReduce schedule over packed trees and trace it.

    The vector is zero-padded into ``p`` blocks of ``ceil(d/p)``
    coordinates, block j streaming through tree j.  Every tree edge is an
    instance of the unit multigraph, good for ``1/scale`` coordinates per
    second, so the ``k`` copies of one tree shape
    (:meth:`TreePacking.shapes`) stream as one tree: ``k`` blocks at
    ``k/scale`` per arc, traced under the first copy's name.  Each shape
    is oriented toward the pivot once, and both phases stream it.  The
    broadcast phase starts after every tree's reduce has completed (one
    barrier, as in the two-phase schedule), reusing each tree with
    reversed orientation — disjointness of the reduce arcs then carries
    over to the broadcast arcs.

    ``mode="streamed"`` pipelines coordinates (per-hop startup of one
    coordinate slot); ``mode="store_forward"`` forwards only whole
    blocks -- all ``k`` of a shape -- for comparison.

    ``g`` may have infinite links: :func:`unit_multigraph` rescales its
    finite proxy, so the events and completion time are the proxy's (an
    infinite link's utilization reads 0).
    """
    if mode not in ("streamed", "store_forward"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_size(d)
    mg = unit_multigraph(g)
    for ti, tree in enumerate(packing.trees):
        for u, v, c in tree.edges:
            if not (0 <= c < mg.multiplicity.get((u, v), 0)):
                raise ValueError(
                    f"packing/graph mismatch: tree {ti} instance {(u, v, c)}")

    if packing.p == 0:
        return _finish_trace([], {}), SimSchedule(packing.pivot, 0, ())

    block = math.ceil(d / packing.p)
    trees = [(f"block={ti}" + (f";copies={k}" if k > 1 else ""),
              [(a, b, f"t{ti}/{u}-{v}#{c}") for a, b, (u, v, c)
               in reversed(orient_to_pivot(packing.trees[ti],
                                           packing.pivot))], k)
             for ti, k in packing.shapes()]
    trace = _reduce_broadcast(
        g, packing.pivot, trees, dict.fromkeys(g.bandwidth, mg.unit_rate),
        block, mode == "streamed",
        f"size={block};contrib={len(packing.terminals)}")
    return trace, SimSchedule(packing.pivot, block, ("reduce", "broadcast"))


def _utilization(carried, g, completion):
    util = {}
    for edge, coords in sorted(carried.items()):
        b = g.bandwidth[edge]
        util[edge] = 0.0 if completion <= 0 or b == INFINITY \
            else coords / (b * completion)
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
    broadcast mirrors the tree downward: the one-tree case of
    :func:`run_allreduce`, at link bandwidth with the whole ``d`` as the
    block.  Completion of both phases is returned in the trace; a single
    node completes at time zero.
    """
    _check_size(d)
    if pivot not in g.nodes:
        raise ValueError(f"pivot {pivot} not in graph")
    parent, order = _bfs_tree(g, pivot)
    if len(order) != len(g.nodes):
        raise ValueError("graph is disconnected")
    up = [(c, parent[c], f"{c}-{parent[c]}") for c in reversed(order[1:])]
    return _reduce_broadcast(g, pivot, [("", up, 1)], g.bandwidth, d, True,
                             "")


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
    """Hop-shortest path from ``src`` to ``dst``: :func:`_bfs_tree`'s."""
    parent, _ = _bfs_tree(g, src)
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
    _check_size(d)
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
                t, "rate_change", "", None, fid, "", rates[fid]))
        span = min(remaining[fid] / rates[fid] for fid in remaining)
        t += span
        finished = [fid for fid in sorted(remaining)
                    if remaining[fid] - rates[fid] * span
                    <= TIME_TOL * max(1.0, d)]
        for fid in sorted(remaining):
            moved = rates[fid] * span
            remaining[fid] -= moved
            for e in flows[fid]:
                carried[e] = carried.get(e, 0.0) + moved
        for fid in finished:
            last = flows[fid][-1] if flows[fid] else None
            events.append(TraceEvent(
                t, "flow_done", dest, last, fid, "delivered"))
            del remaining[fid]
        if not finished:
            raise AssertionError("no progress in transfer loop")
    events.append(TraceEvent(t, "phase_done", dest, None, "",
                             "phase=transfers"))
    return _finish_trace(events, _utilization(carried, g, t))


def audit_capacity(trace: SimTrace, g: WeightedGraph):
    """Re-check the capacity invariant from a trace's flow events.

    Takes each streamed flow's (start, finish, rate) on its directed
    link from the ``flow_done`` events that carry a rate and a start, and
    integrates the rate per link over time; returns the worst ratio of
    aggregate rate to capacity (≤ 1 + 1e-9 when the run respected the
    fluid constraints).
    """
    intervals = {}
    for ev in trace.events:
        if ev.event_kind == "flow_done" and ev.start is not None:
            intervals.setdefault(ev.edge, []).append(
                (ev.start, ev.time, ev.rate))
    worst = 0.0
    for edge, ivs in intervals.items():
        cap = g.bandwidth[edge]
        if cap == INFINITY:
            continue
        times = sorted({t for iv in ivs for t in iv[:2]})
        for lo, hi in zip(times, times[1:]):
            mid = (lo + hi) / 2
            total = sum(r for s, f, r in ivs if s <= mid <= f)
            worst = max(worst, total / cap)
    return worst
