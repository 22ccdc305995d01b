"""A fixed pure-Python computation that measures how fast the machine runs.

On a shared machine the same work can take 25-50% longer from one minute to
the next. The benchmark times this probe before every instance and, while an
instance runs, every SAMPLE_INTERVAL seconds from a timer signal. Each
instance's time, less the time spent in probes, is scaled by
``REFERENCE_S / m``, where ``m`` is the median of the probes taken during the
instance and of the WINDOW probes on either side of it: the time on a
machine where the probe takes ``REFERENCE_S``. The probe's input is built
here, not by riskroute, so a change to the library cannot change the probe;
it runs checker code of the same kind as the library's (dict lookups,
polynomial evaluation, DP over a DAG).
"""

from __future__ import annotations

import contextlib
import gc
import random
import signal
import statistics
import time

import checker

#: Probe time at the reference speed: about the fastest this machine runs it.
REFERENCE_S = 0.0004
#: Probes on each side of an instance that also count towards its speed.
WINDOW = 4
#: Seconds between probes while an instance runs.
SAMPLE_INTERVAL = 0.1


def _probe_network() -> tuple[checker.Net, dict[str, float]]:
    rng = random.Random(20141101)
    nodes = ["s"] + [f"v{i:02d}" for i in range(1, 19)] + ["t"]
    arcs = list(zip(nodes, nodes[1:]))
    while len(arcs) < 60:
        i = rng.randrange(len(nodes) - 1)
        arcs.append((nodes[i], nodes[rng.randrange(i + 1, len(nodes))]))
    edges = [
        {
            "id": f"e{j:02d}",
            "tail": a,
            "head": b,
            "latency": [rng.uniform(0.1, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5)],
            "risk": [rng.uniform(0.0, 0.3)],
        }
        for j, (a, b) in enumerate(arcs)
    ]
    doc = {
        "nodes": nodes,
        "edges": edges,
        "source": "s",
        "sink": "t",
        "demand": 1.0,
        "gamma": 1.0,
        "risk_model": checker.MEAN_VAR,
    }
    return checker.Net(doc), {e["id"]: rng.uniform(0.0, 1.0) for e in edges}


class Probe:
    def __init__(self) -> None:
        self._net, self._flows = _probe_network()
        self._busy = False
        #: timed probe durations, in the order taken
        self.times: list[float] = []
        #: total seconds spent inside probe calls, warm-up included
        self.spent = 0.0

    def _work(self) -> None:
        costs = checker.edge_costs(self._net, self._flows, checker.MEAN_VAR)
        checker.shortest_path(self._net, costs)
        checker.path_count(self._net)

    def __call__(self) -> None:
        if self._busy:  # a timer signal that arrives during a probe
            return
        self._busy = True
        start = time.perf_counter()
        # An untimed first pass brings the probe's data back into the caches,
        # and with the collector off no collection of the library's objects
        # lands in the probe: its time must not depend on what ran before.
        self._work()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(5):
                self._work()
            self.times.append(time.perf_counter() - t0)
        finally:
            gc.enable()
            self.spent += time.perf_counter() - start
            self._busy = False

    @contextlib.contextmanager
    def sampling(self, take=None):
        """Call ``take`` (by default, take a probe) every SAMPLE_INTERVAL
        seconds inside the block."""
        take = take or self
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: take())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, first: int = 0, last: int | None = None) -> float:
        """Factor to the reference speed from probes ``first`` to ``last``
        and WINDOW more on either side (all probes by default)."""
        last = len(self.times) - 1 if last is None else last
        window = self.times[max(0, first - WINDOW) : last + WINDOW + 1]
        return REFERENCE_S / statistics.median(window)
