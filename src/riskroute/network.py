"""Single origin-destination networks with polynomial edge costs.

A network is a finite directed graph with one source and one sink. Every edge
carries two nonnegative-coefficient polynomials in the edge flow: a latency
(mean delay) and a risk term. Under the ``mean-var`` model the risk polynomial
is read as a variance and path costs add it linearly; under ``mean-stdev`` it
is read as a standard deviation and path costs combine it as the root of the
sum of squares. Nonnegative coefficients keep every cost nonnegative and
nondecreasing on the nonnegative axis and make the Beckmann antiderivative
exact, which the solvers rely on. An edge holds each polynomial as a tuple of
coefficients in ascending powers, and :func:`poly_value`, the library's one
value kernel, evaluates one, by straight-line code up to 4 coefficients.

A network derives its topology once, on first use: each edge's position
among the sorted ids, the shortest-path sweep over a topological order and
the series-parallel fold, both on those positions. The solvers, the report
and the oracle walk these instead of the edges' ids. A pickled or copied
network carries its fields alone and derives its topology again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import heapq
import math

RISK_MEAN_VAR = "mean-var"
RISK_MEAN_STDEV = "mean-stdev"
RISK_MODELS = (RISK_MEAN_VAR, RISK_MEAN_STDEV)


class PathCountError(RuntimeError):
    """Raised when a network has more simple source-sink paths than a
    caller's cap allows."""


def poly_value(coeffs: Sequence[float], x):
    """The polynomial with coefficients ``coeffs`` in ascending powers at
    ``x``, a float or a numpy array, by Horner's steps from 0.0; ``()`` is
    the scalar 0.0, on an array too. The library's one value kernel: 1-4
    coefficients run straight-line code with the loop's float operations in
    its order, from the same leading 0.0 * x, and :func:`_horner_loop` runs
    the rest, so every length has the loop's bits."""
    n = len(coeffs)
    if n == 3:
        c0, c1, c2 = coeffs
        return ((0.0 * x + c2) * x + c1) * x + c0
    if n == 4:
        c0, c1, c2, c3 = coeffs
        return (((0.0 * x + c3) * x + c2) * x + c1) * x + c0
    if n == 2:
        c0, c1 = coeffs
        return (0.0 * x + c1) * x + c0
    if n == 1:
        return 0.0 * x + coeffs[0]
    return _horner_loop(coeffs, x)


def _horner_loop(coeffs: Sequence[float], x):
    """:func:`poly_value` by one loop of Horner steps from 0.0."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True, slots=True)
class Edge:
    """An edge and its two cost polynomials, each a tuple of coefficients in
    ascending powers. Coefficients are expected to be nonnegative
    (validate_instance reports violations); the record is permissive so
    that invalid files can be parsed first and judged afterwards."""

    id: str
    tail: str
    head: str
    latency: tuple[float, ...]
    risk: tuple[float, ...]


@dataclass(frozen=True)
class Network:
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    source: str
    sink: str

    def __getstate__(self) -> dict:
        # the fields alone: the cached topology is rebuilt on first use, and
        # the fold's read-only pairs cannot be pickled
        return {"nodes": self.nodes, "edges": self.edges, "source": self.source, "sink": self.sink}

    @cached_property
    def edge_map(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def out_edges(self) -> dict[str, tuple[Edge, ...]]:
        adj: dict[str, list[Edge]] = {v: [] for v in self.nodes}
        for e in self.edges:
            if e.tail in adj:
                adj[e.tail].append(e)
        return {v: tuple(sorted(es, key=lambda e: e.id)) for v, es in adj.items()}

    @cached_property
    def topo_order(self) -> tuple[str, ...]:
        """The declared nodes in a topological order, by Kahn peeling. Edges
        with an undeclared endpoint are skipped; nodes on or behind a directed
        cycle are left out."""
        indeg = {v: 0 for v in self.nodes}
        for e in self.edges:
            if e.head in indeg:
                indeg[e.head] += 1
        queue = [v for v, d in indeg.items() if d == 0]
        order: list[str] = []
        while queue:
            v = queue.pop()
            order.append(v)
            for e in self.out_edges.get(v, ()):
                if e.head not in indeg:
                    continue  # undeclared endpoint, reported separately
                indeg[e.head] -= 1
                if indeg[e.head] == 0:
                    queue.append(e.head)
        return tuple(order)

    @cached_property
    def edge_position(self) -> dict[str, int]:
        """Each edge id's position, its rank among the sorted ids, listed in
        that order. Tuples of positions compare as the id tuples they stand
        for, so work on positions breaks every tie as it would on ids."""
        return dict(zip(sorted(self.edge_map), range(len(self.edge_map))))

    @cached_property
    def sweep(self) -> tuple[tuple[tuple[int, int], ...], ...] | None:
        """A shortest-path DP's relaxations: each node of ``topo_order`` from
        the source to just before the sink, a node's index being its place
        here (the sink's is the length), with its out-edges in ``out_edges``
        order as (edge position, head index), less those to heads past the
        sink or off ``topo_order``. None when no path can reach the sink."""
        order = self.topo_order
        where = dict(zip(order, range(len(order))))
        first, last = where.get(self.source), where.get(self.sink)
        if first is None or last is None or last < first:
            return None
        position, out_edges = self.edge_position, self.out_edges
        return tuple([
            tuple([(position[e.id], j - first) for e in out_edges[v]
                   if (j := where.get(e.head, last + 1)) <= last])
            for v in order[first:last]
        ])

    @cached_property
    def series_parallel(
        self,
    ) -> tuple[tuple[tuple[int, int, bool], ...], Mapping[tuple[str, str], int]]:
        """The series and parallel reduction of Valdes, Tarjan and Lawler on
        (tail, head) pairs, as read-only ``(steps, pairs)`` on parts: part
        ``p`` below the number of edges m is the edge at position ``p``, and
        step ``k = (first, second, parallel)`` joins two parts into part
        m + k.

        Every edge, in declaration order, brings its part to its pair; a pair
        that already holds a part takes the edge in parallel after it. Then
        series nodes are bypassed, the least node id first: an interior node
        with one in-pair (u, node) and one out-pair (node, w), u != w, joins
        their parts in series for the pair (u, w), in parallel after the part
        of (u, w) when that pair exists. ``pairs`` maps each pair left to its
        part, in the order the pairs were first made: the edges' pairs in
        declaration order, then the bypasses'. The network is two-terminal
        series-parallel between its source and sink exactly when the one pair
        (source, sink) is left. Topology only, so it is made once per
        network."""
        position = self.edge_position
        m = len(position)
        src, dst = self.source, self.sink
        steps: list[tuple[int, int, bool]] = []
        pairs: dict[tuple[str, str], int] = {}
        into: dict[str, set[str]] = {}
        out: dict[str, set[str]] = {}

        def put(tail: str, head: str, part: int) -> None:
            key = (tail, head)
            if key in pairs:
                steps.append((pairs[key], part, True))
                pairs[key] = m + len(steps) - 1
            else:
                pairs[key] = part
                out.setdefault(tail, set()).add(head)
                into.setdefault(head, set()).add(tail)

        for e in self.edges:
            put(e.tail, e.head, position[e.id])
        # a heap of the nodes that may be series nodes: every interior node at
        # first, then both ends of each bypass
        waiting = sorted(into.keys() & out.keys() - {src, dst})
        while waiting:
            node = heapq.heappop(waiting)
            ins, outs = into.get(node, ()), out.get(node, ())
            if not len(ins) == len(outs) == 1 or ins == outs:
                continue
            (tail,), (head,) = ins, outs
            del into[node], out[node]
            out[tail].discard(node)
            into[head].discard(node)
            steps.append((pairs.pop((tail, node)), pairs.pop((node, head)), False))
            put(tail, head, m + len(steps) - 1)
            for v in (tail, head):
                if v != src and v != dst:
                    heapq.heappush(waiting, v)
        return tuple(steps), MappingProxyType(pairs)


@dataclass(frozen=True, slots=True)
class Instance:
    """A routing instance: network, demand, risk appetite, risk model."""

    network: Network
    demand: float
    gamma: float
    risk_model: str = RISK_MEAN_VAR
    name: str = ""


@dataclass(frozen=True)
class Validation:
    ok: bool
    violations: tuple[str, ...]


def _has_cycle(network: Network) -> bool:
    # distinct nodes left out of the Kahn peel mean a directed cycle
    return len(network.topo_order) != len(set(network.nodes))


def _sink_reachable(network: Network) -> bool:
    seen = {network.source}
    stack = [network.source]
    while stack:
        v = stack.pop()
        for e in network.out_edges.get(v, ()):
            if e.head not in seen:
                seen.add(e.head)
                stack.append(e.head)
    return network.sink in seen


def _edge_size(edge: Edge, demand: float, gamma: float) -> float:
    """A bound on every number the solvers derive from this edge at flows up
    to ``demand``: with D = max(demand, 1), D times the perceived cost
    (latency plus gamma times risk) at 2D, plus the squared risk at 2D; inf
    when it overflows. For nonnegative coefficients, a polynomial's value at
    2D bounds its value, its slope and every Taylor coefficient at flows up
    to D (sum_k C(i, k) = 2**i), and D times it bounds the Beckmann
    integral. Summed over the edges, it bounds every path cost and every sum
    the solvers form."""
    scale = max(demand, 1.0)
    risk = poly_value(edge.risk, 2.0 * scale)
    return scale * (poly_value(edge.latency, 2.0 * scale) + gamma * risk) + risk * risk


def validate_instance(instance: Instance) -> Validation:
    """Check every structural invariant; collect violations instead of raising."""
    net = instance.network
    bad: list[str] = []
    declared = set(net.nodes)

    if len(set(net.nodes)) != len(net.nodes):
        bad.append("duplicate node id")
    if net.source not in declared:
        bad.append(f"source {net.source!r} is not a declared node")
    if net.sink not in declared:
        bad.append(f"sink {net.sink!r} is not a declared node")
    if net.source == net.sink:
        bad.append("source equals sink")

    # costs are bounded only once demand and gamma are valid
    scale_ok = 0.0 < instance.demand < math.inf and 0.0 <= instance.gamma < math.inf
    seen_ids: set[str] = set()
    sizes: list[float] = []
    for e in net.edges:
        if e.id in seen_ids:
            bad.append(f"duplicate edge id {e.id!r}")
        seen_ids.add(e.id)
        if e.tail not in declared:
            bad.append(f"edge {e.id!r}: undeclared tail {e.tail!r}")
        if e.head not in declared:
            bad.append(f"edge {e.id!r}: undeclared head {e.head!r}")
        if e.tail == e.head:
            bad.append(f"edge {e.id!r}: self-loop")
        coeffs_ok = True
        for label, poly in (("latency", e.latency), ("risk", e.risk)):
            # one pass in the common case; NaN fails both comparisons
            if not all(0.0 <= c < math.inf for c in poly):
                coeffs_ok = False
                finite = all(map(math.isfinite, poly))
                kind = "negative" if finite else "non-finite"
                bad.append(f"edge {e.id!r}: {kind} coefficient in {label}")
        if coeffs_ok and scale_ok:
            sizes.append(_edge_size(e, instance.demand, instance.gamma))
            if not math.isfinite(sizes[-1]):
                bad.append(f"edge {e.id!r}: cost or slope overflows at demand {instance.demand}")
    if all(map(math.isfinite, sizes)) and not math.isfinite(sum(sizes)):
        bad.append(f"the sum of the edge costs overflows at demand {instance.demand}")

    if not math.isfinite(instance.demand):
        bad.append(f"demand must be finite (got {instance.demand})")
    elif instance.demand <= 0:
        bad.append(f"demand must be positive (got {instance.demand})")
    if not math.isfinite(instance.gamma):
        bad.append(f"gamma must be finite (got {instance.gamma})")
    elif instance.gamma < 0:
        bad.append(f"gamma must be nonnegative (got {instance.gamma})")
    if instance.risk_model not in RISK_MODELS:
        bad.append(f"unknown risk model {instance.risk_model!r}")

    if _has_cycle(net):
        bad.append("directed cycle detected")
    if net.source in declared and net.sink in declared and net.source != net.sink:
        if not _sink_reachable(net):
            bad.append("sink unreachable from source")

    return Validation(ok=not bad, violations=tuple(bad))


def is_series_parallel(network: Network) -> bool:
    """True when the network is two-terminal series-parallel between its
    source and sink: :attr:`Network.series_parallel` leaves only that pair."""
    return network.series_parallel[1].keys() == {(network.source, network.sink)}


def is_braess_topology(network: Network) -> bool:
    """True for the four-node Braess wheatstone: two two-hop routes plus one
    crossing edge from the first route's midpoint to the second's."""
    if len(network.nodes) != 4 or len(network.edges) != 5:
        return False
    src, dst = network.source, network.sink
    middles = [v for v in network.nodes if v not in (src, dst)]
    if len(middles) != 2:
        return False
    pairs = sorted((e.tail, e.head) for e in network.edges)
    for m1, m2 in (tuple(middles), tuple(reversed(middles))):
        want = sorted(
            [(src, m1), (m1, dst), (src, m2), (m2, dst), (m1, m2)]
        )
        if pairs == want:
            return True
    return False
