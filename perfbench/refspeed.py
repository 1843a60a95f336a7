"""Host-speed reference: a fixed kernel timed between a run's operations.

The benchmark's host is shared with other tenants. They slow pure-Python code
by 30-50% for seconds to minutes at a time, in CPU time as well as wall time,
so two runs of the same code minutes apart can differ by more than any bound
worth setting. A fixed kernel slows down with them, and a run scales its
timings by the kernel's speed next to them.

The kernel has two halves, both plain Python that never calls the program:

- walk: follow a shuffled chain of 40 000 small dicts (about 10 MB, more than
  the caches the tenants contend for), format a string per hop, sort them;
- graph: build a 400-node dependency graph of slotted objects, mark it in
  order and build a small record per node.

Measured against the replay and scale workloads operation by operation, the
walk alone slows down less than they do (log-time slope of the workload on
the kernel about 1.3-1.4) and the graph alone more (about 0.7). The graph
here takes about 0.45 of the walk's time, which puts the slope near 1 on both.
The collector is paused during a call, and everything a call allocates is
freed before it returns, so the kernel does not move the program's
collections.

A run calls the kernel between operations (and between set-ups), spending
SHARE of their time on it. Each operation's (and set-up's) time is scaled by REF_S / (median seconds per
kernel call over the calls made within one operation length, at least
LOCAL_S, of it): the time it would take on a host where one kernel call takes
REF_S. Drift of the host cancels; a change to the program does not, since the
kernel does not depend on it.
"""

from __future__ import annotations

import bisect
import gc
import random
import resource
import statistics
import time

CHAIN = 40_000  # dicts in the walk's chain
HOPS = 1_000  # hops per call
GRAPH = 400  # nodes in the graph per call
SHARE = 0.1  # kernel seconds per second of timed work
LOCAL_S = 0.1  # least reach, either side of an interval, of the calls that time it
REF_S = 0.002  # the kernel call time the reported timings are scaled to


class _Node:
    __slots__ = ("id", "deps", "done", "seen")

    def __init__(self, i: int, deps: list[int]):
        self.id = i
        self.deps = deps
        self.done = False
        self.seen: list[int] = []


class RefSpeed:
    def __init__(self):
        rss_before = _rss_bytes()
        rng = random.Random(0)
        self.chain = [{"id": f"node{i:06d}", "n": i, "next": 0} for i in range(CHAIN)]
        order = list(range(CHAIN))
        rng.shuffle(order)
        for a, b in zip(order, order[1:] + order[:1]):
            self.chain[a]["next"] = b
        self.at = order[0]
        self.rss_mb = max(0, _rss_bytes() - rss_before) / 2**20  # the chain's resident size
        self.ends: list[float] = []  # perf_counter at the end of each call
        self.samples: list[float] = []  # seconds of each call
        self.spent = 0.0

    def call(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        try:
            self._walk()
            self._graph()
        finally:
            t1 = time.perf_counter()
            if enabled:
                gc.enable()
        self.ends.append(t1)
        self.samples.append(t1 - t0)
        self.spent += t1 - t0

    def _walk(self) -> None:
        chain, at, out = self.chain, self.at, []
        for _ in range(HOPS):
            node = chain[at]
            out.append(f"{node['id']}={node['n']}")
            at = node["next"]
        out.sort()
        self.at = at

    @staticmethod
    def _graph() -> int:
        nodes = [_Node(i, [i - 1, i - 2] if i > 1 else []) for i in range(GRAPH)]
        records = {}
        for node in nodes:
            if all(nodes[d].done for d in node.deps):
                node.done = True
                node.seen.extend(node.deps)
            records[node.id] = {"id": node.id, "seen": list(node.seen), "deps": tuple(node.deps)}
        return len(records)

    def keep_up(self, work_s: float) -> None:
        """Call the kernel until it has had SHARE of `work_s` seconds of work."""
        while self.spent < SHARE * work_s:
            self.call()

    def factor(self, start: int = 0, stop: int | None = None) -> float | None:
        """Reported time per measured time, REF_S / median kernel call, over
        the calls numbered start..stop; None if there were none."""
        calls = self.samples[start:stop]
        return REF_S / statistics.median(calls) if calls else None

    def local_factor(self, t0: float, t1: float) -> float | None:
        """The factor for an interval [t0, t1] of perf_counter time, from the
        calls that ended within max(t1 - t0, LOCAL_S) of it."""
        reach = max(t1 - t0, LOCAL_S)
        lo = bisect.bisect_left(self.ends, t0 - reach)
        hi = bisect.bisect_right(self.ends, t1 + reach)
        return self.factor(lo, hi)


def _rss_bytes() -> int:
    """Current resident set size; 0 where /proc is not available."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0
    return pages * resource.getpagesize()
