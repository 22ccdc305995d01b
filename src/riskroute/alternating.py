"""Alternating-path certificates comparing two flows of equal demand.

Given a risk-averse flow x and a risk-neutral flow z on the same network,
edges split into A (z_e >= x_e and z_e > 0: the risk-neutral flow loads them
at least as much) and B (the risk-averse flow loads them strictly more);
edges unused by both join neither class. Orienting A-edges forward and B-edges
backward always leaves a source->sink path: an alternating path. Its forward
edges carry the risk-neutral flow's cost mass and its backward edges the
risk-averse flow's extra spending, which is what the price-of-risk-aversion
bounds charge. The number of maximal forward runs (eta) multiplies the bound,
so the search below minimizes it exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .network import Network
from .solvers import Flow

FORWARD = "forward"
BACKWARD = "backward"

#: Edge-classification tolerance of the PRA report, relative to demand.
CLASSIFY_EPS_REL = 1e-7


class NoAlternatingPathError(RuntimeError):
    """No residual source->sink path: the two flows cannot both satisfy the
    same demand (numerically corrupt input)."""


@dataclass(frozen=True)
class EdgePartition:
    forward_like: frozenset[str]   # A: risk-neutral flow at least as large
    backward_like: frozenset[str]  # B: risk-averse flow strictly larger


def classify_edges(x: Flow, z: Flow, eps: float) -> EdgePartition:
    """Partition edges by comparing the two flows at tolerance ``eps``.

    Boundary rule: ties within eps go to A (or to neither class when both
    flows are essentially zero), so A collects every edge the risk-neutral
    flow still uses at least as much as the risk-averse one.
    """
    a: set[str] = set()
    b: set[str] = set()
    for eid, ze in z.edge_flow.items():
        xe = x.edge_flow[eid]
        if max(xe, ze) <= eps:
            continue
        if ze > eps and ze >= xe - eps:
            a.add(eid)
        else:
            b.add(eid)
    return EdgePartition(frozenset(a), frozenset(b))


@dataclass(frozen=True)
class AlternatingPath:
    """Contiguous source->sink walk over distinct nodes whose arcs traverse
    A-edges forward and B-edges backward."""

    arcs: tuple[tuple[str, str], ...]  # (edge_id, FORWARD | BACKWARD)
    forward_runs: int

    def forward_edges(self) -> tuple[str, ...]:
        return tuple(eid for eid, d in self.arcs if d == FORWARD)

    def backward_edges(self) -> tuple[str, ...]:
        return tuple(eid for eid, d in self.arcs if d == BACKWARD)

    @property
    def all_forward(self) -> bool:
        return not self.backward_edges()


def find_alternating_path(partition: EdgePartition, network: Network) -> AlternatingPath:
    """Alternating path minimizing the number of forward runs.

    Exact search: Dijkstra over (node, direction of the last arc) states with
    lexicographic cost (forward runs, backward arcs, arc sequence), so an
    all-forward path is returned whenever one exists. The network must be
    acyclic, as ``validate_instance`` ensures; then the walk popped at the
    sink is simple. A closed sub-walk holds a backward arc, and cutting it
    out adds no forward run: the arc after the cut starts a new run only if
    the sub-walk ended forward, and then the sub-walk's last run goes too.
    """
    emap = network.edge_map
    residual: dict[str, list[tuple[str, str, str]]] = {v: [] for v in network.nodes}
    for eid in partition.forward_like:
        e = emap[eid]
        residual[e.tail].append((eid, FORWARD, e.head))
    for eid in partition.backward_like:
        e = emap[eid]
        residual[e.head].append((eid, BACKWARD, e.tail))
    for arcs in residual.values():
        arcs.sort()

    # heap entries: (runs, backward arcs, arc sequence, node, last direction)
    heap: list[tuple[int, int, tuple, str, str | None]] = [(0, 0, (), network.source, None)]
    done: set[tuple[str, str | None]] = set()
    while heap:
        runs, nbwd, arcs, node, last = heapq.heappop(heap)
        if (node, last) in done:
            continue
        done.add((node, last))
        if node == network.sink:
            return AlternatingPath(arcs=arcs, forward_runs=runs)
        for eid, direction, nxt in residual[node]:
            if (nxt, direction) in done:
                continue
            new_runs = runs + (1 if direction == FORWARD and last != FORWARD else 0)
            new_nbwd = nbwd + (1 if direction == BACKWARD else 0)
            heapq.heappush(
                heap, (new_runs, new_nbwd, arcs + ((eid, direction),), nxt, direction)
            )
    raise NoAlternatingPathError(
        "no residual source->sink path; the flow pair is inconsistent"
    )


def eta_ceiling(network: Network) -> int:
    """Worst-case forward-run count: ceil((n - 1) / 2) for n network nodes,
    which equals n // 2."""
    return len(network.nodes) // 2


def theoretical_pra_bound(gamma: float, kappa: float, eta: int) -> float:
    """Price-of-risk-aversion ceiling 1 + gamma * kappa * eta."""
    if gamma == 0.0 or kappa == 0.0:
        return 1.0
    return 1.0 + gamma * kappa * eta
