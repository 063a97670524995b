"""Machine speed sampled during each timed operation.

The shared machine this benchmark runs on slows down by up to a half for
seconds at a time and drifts by a third over minutes, so raw wall times of
runs taken minutes apart do not agree.  While an operation runs, an
interval timer interrupts it every SAMPLE_INTERVAL_S and the signal
handler, in this same (only) thread, times one pass of a fixed reference
loop: Dijkstra's algorithm with ``heapq`` over a fixed random graph of
dicts, the kind of interpreter work the program is made of.  The speed is
CAL_REF_S over the mean pass time.  The operation's time without the
handler, multiplied by that speed, is its time at reference speed: the
speed at which a pass takes CAL_REF_S.

Each timed pass follows an untimed one, so it starts from the harness's
own data in the caches, not from what the program left there;
``footprint_check.py`` tests that the speed does not follow the program's
memory footprint.  The handler costs about 1.5% of an operation.

Over 17 to 35 operations of each workload, this cut the operations'
wall time spread (standard deviation over mean) from 0.12-0.16 to
0.03-0.05.  A loop that builds and queries a dict did worse on every
workload (0.04-0.06), and mixing in random reads over a 6 MB buffer worse
still.  Passes timed just before and after each operation, outside it,
made the spread worse than no correction, because the speed changes
within an operation.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import random
import signal
import statistics
import time

CAL_REF_S = 0.001
SAMPLE_INTERVAL_S = 0.1


def _random_graph(nodes=300, degree=4, seed=0):
    rng = random.Random(seed)
    adjacency = {u: {} for u in range(nodes)}
    for u in range(nodes):
        for v in rng.sample(range(nodes), degree):
            if v != u:
                adjacency[u][v] = adjacency[v][u] = rng.random()
    return adjacency


_GRAPH = _random_graph()


def _reference_pass():
    """Shortest distances from node 0 of ``_GRAPH``."""
    dist, heap, done = {0: 0.0}, [(0.0, 0)], set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in _GRAPH[u].items():
            if d + w < dist.get(v, math.inf):
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist


def time_pass():
    """Seconds of one pass of the reference loop, after an untimed one."""
    _reference_pass()
    start = time.perf_counter()
    _reference_pass()
    return time.perf_counter() - start


class SpeedSampler:
    """Collects reference-pass times while ``sampling()`` is active."""

    def __init__(self):
        self.passes = []
        self.seconds = 0.0  # spent in the handler, untimed passes included

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.passes.append(time_pass())
        self.seconds += time.perf_counter() - start

    @contextlib.contextmanager
    def sampling(self):
        """Sample for the block; yields the sampler itself."""
        self.passes, self.seconds = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def speed(passes):
    """Speed relative to reference: 1.0 at reference, lower when slower."""
    return CAL_REF_S / statistics.mean(passes)
