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

The search runs on edge positions over :attr:`Network.sweep`. Flows of
equal demand on an acyclic network are sums of source-sink paths, whose
nodes lie between the source and the sink in topological order, so every
loaded edge is a sweep edge.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from .network import Network

FORWARD = "forward"
BACKWARD = "backward"

#: Edge-classification tolerance of the PRA report, relative to demand.
CLASSIFY_EPS_REL = 1e-7


class NoAlternatingPathError(RuntimeError):
    """No residual source->sink path: the two flows cannot both satisfy the
    same demand (numerically corrupt input)."""


@dataclass(frozen=True)
class AlternatingPath:
    """Contiguous source->sink walk over distinct nodes whose arcs traverse
    A-edges forward and B-edges backward."""

    arcs: tuple[tuple[int, str], ...]  # (edge position, FORWARD | BACKWARD)
    forward_runs: int

    @property
    def all_forward(self) -> bool:
        return all(direction == FORWARD for _, direction in self.arcs)


def find_alternating_path(
    network: Network, x: Sequence[float], z: Sequence[float], eps: float
) -> AlternatingPath:
    """Alternating path minimizing the number of forward runs between the
    risk-averse edge flows ``x`` and the risk-neutral ``z``, lists by edge
    position. A sweep edge is in A when z_e > eps and z_e >= x_e - eps (ties
    within eps go to A), else in B unless both flows are at most eps; an
    A-edge gives an arc at its tail, a B-edge one at its head, and nodes are
    sweep indices, the sink's ``len(network.sweep)``.

    Exact search: Dijkstra over (node, direction of the last arc) states with
    lexicographic cost (forward runs, backward arcs, arc sequence), so an
    all-forward path is returned whenever one exists. Arc sequences of
    positions compare as those of the ids they stand for. The network must
    be acyclic, as ``validate_instance`` ensures; then the walk popped at the
    sink is simple. A closed sub-walk holds a backward arc, and cutting it
    out adds no forward run: the arc after the cut starts a new run only if
    the sub-walk ended forward, and then the sub-walk's last run goes too.
    """
    steps = network.sweep
    if steps is None:
        raise NoAlternatingPathError(f"sink {network.sink!r} unreachable from source")
    sink = len(steps)
    residual: list[list[tuple[int, str, int]]] = [[] for _ in range(sink + 1)]
    for tail, out in enumerate(steps):
        for pos, head in out:
            xe, ze = x[pos], z[pos]
            if max(xe, ze) <= eps:
                continue
            if ze > eps and ze >= xe - eps:
                residual[tail].append((pos, FORWARD, head))
            else:
                residual[head].append((pos, BACKWARD, tail))
    for arcs in residual:
        arcs.sort()

    # heap entries: (runs, backward arcs, arc sequence, node, last direction)
    heap: list[tuple[int, int, tuple, int, str | None]] = [(0, 0, (), 0, None)]
    done: set[tuple[int, str | None]] = set()
    while heap:
        runs, nbwd, arcs, node, last = heapq.heappop(heap)
        if (node, last) in done:
            continue
        done.add((node, last))
        if node == sink:
            return AlternatingPath(arcs=arcs, forward_runs=runs)
        for pos, direction, nxt in residual[node]:
            if (nxt, direction) in done:
                continue
            new_runs = runs + (1 if direction == FORWARD and last != FORWARD else 0)
            new_nbwd = nbwd + (1 if direction == BACKWARD else 0)
            heapq.heappush(
                heap, (new_runs, new_nbwd, arcs + ((pos, direction),), nxt, direction)
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
