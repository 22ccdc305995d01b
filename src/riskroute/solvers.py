"""Equilibrium solvers.

Risk-neutral, mean-var and mean-stdev Wardrop equilibria are all path flows
on which every used path costs the same and no unused path costs less. One
solver, :func:`solve_wardrop`, finds them in every mode by an active-set
Newton loop on the equal-cost system of the used paths and the cheapest
path, to the one default tolerance ``DEFAULT_TOL``. A solve evaluates an
edge's polynomials again only where the edge's flow moved. Polynomials of
up to 4 coefficients, all that the generated families draw, run
straight-line Horner steps that make a loop's float operations in the
loop's order, so every result has the loop's bits; other lengths run the
loop. Values come from :func:`~riskroute.network.poly_value`, values with
slopes from :func:`_value_slope`. The separable pricing of
:meth:`_PathPool.priced` and the Taylor shift of
:func:`_transfer_derivative` keep inline copies: a kernel call there
measured 7-8% slower on the ``certify-general`` benchmark (2-CPU Xeon,
Python 3.11).

Risk-neutral and mean-var costs are edge-separable (c_e is the latency plus
gamma times the variance under mean-var), the cheapest path is a shortest
path, and equilibria minimize the Beckmann potential
sum_e integral_0^{f_e} c_e(t) dt. Each step, along the Newton direction or a
pairwise transfer, exactly minimizes the potential: its directional
derivative is one polynomial in the step, whose root :func:`_newton_step`
finds by Newton's method inside a bisection bracket.

Mean-stdev costs are not separable, so no potential exists. That mode finds
its cheapest path by one DP over the same sweep that keeps, at each node,
the lower-left convex hull of its partial paths' (latency, variance) points,
so it enumerates no paths either. It judges the full Newton step by the true
merit and each halving of it by the same merit with the support's cheapest
path for the cheapest, so the hull DP runs only at the full step and at the
accepted point. A two-path support, or a Newton step that finds no descent,
shifts flow pairwise until the two path costs cross, found by the same root
search on their difference and its slope.

The relative gap of a flow is (sum_p f_p Q_p - d * min_q Q_q) / (d * min_q Q_q):
zero exactly at equilibrium, and small values certify an epsilon-equilibrium
regardless of how the flow was produced.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import partial
from itertools import islice, zip_longest
from operator import itemgetter
from typing import Callable, Mapping, Sequence

import numpy as np

from .network import RISK_MEAN_STDEV, RISK_MEAN_VAR, Instance, Network, poly_value

RISK_NEUTRAL = "risk-neutral"

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200_000

#: Iteration ceiling of the root search :func:`_newton_step`: it resolves
#: 2**-60 of the bracket, and bisects this many times on ``(value, 0.0)``.
LINE_SEARCH_STEPS = 60
#: Per-iteration tolerance when asserting the potential never increases.
POTENTIAL_BACKSLIDE_TOL = 1e-12
#: Smallest mean-stdev transfer worth applying, relative to demand.
SHIFT_FLOOR_REL = 1e-12
#: Trials of the mean-stdev Newton step, the full step and its halvings,
#: before the pairwise step instead.
BACKTRACK_STEPS = 20

#: Feasibility tolerance, relative to demand.
FLOW_SUM_TOL = 1e-9


class ConvergenceError(RuntimeError):
    """A solve failed: a solver-side invariant broke (potential increased,
    unreachable sink) or the solve stopped short of its tolerance."""


class ZeroCostPathWarning(UserWarning):
    """Cheapest path cost is zero; relative gap degraded to absolute."""


@dataclass(frozen=True)
class Flow:
    """Explicit path flows plus the edge flows they induce."""

    path_flow: dict[tuple[str, ...], float]
    edge_flow: dict[str, float]
    objective_mode: str


@dataclass(frozen=True)
class EquilibriumResult:
    """A solver's best flow and why the solver stopped.

    ``stop_reason`` is ``"converged"`` (gap and the worst used path's excess
    over the cheapest both at most the tolerance), ``"max-iter"`` (iteration
    budget spent), ``"round-off"`` (the most expensive used path is already
    the cheapest, or the loop revisited a path flow, so the gap left is
    rounding), ``"no-descent"`` (risk-neutral and mean-var: the exact line
    search along the pairwise transfer found no step that lowers the
    potential) or ``"shift-floor"`` (mean-stdev: the pairwise step, on a
    two-path support or where Newton found no descent, fell below
    ``SHIFT_FLOOR_REL`` of the demand);
    ``converged`` is read from it.

    ``min_path_cost`` is the cheapest path's cost under the flow's objective
    mode, and ``deviation`` the most expensive used path's cost less that, at
    least 0; both are the solve's own, at the returned flow. The gap is
    flow-weighted, so a lightly loaded used path can sit above the minimum by
    far more than the gap: checks that sample single path costs take the
    deviation, zero exactly at equilibrium, as their round-off allowance.
    """

    flow: Flow
    relative_gap: float
    iterations: int
    min_path_cost: float
    deviation: float
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def _edge_costs(instance: Instance, mode: str) -> list[tuple[float, ...]]:
    """Separable cost coefficients of each edge under ``mode`` (risk-neutral
    or mean-var), by edge position: the latency's, or under mean-var the
    latency's plus gamma times the risk's, the shorter padded with zeros."""
    net = instance.network
    edges = map(net.edge_map.__getitem__, net.edge_position)
    if mode == RISK_NEUTRAL:
        return [e.latency for e in edges]
    if mode == RISK_MEAN_VAR:
        g = instance.gamma
        return [
            tuple([x + g * y for x, y in zip_longest(e.latency, e.risk, fillvalue=0.0)])
            for e in edges
        ]
    raise ValueError(f"no separable edge cost under mode {mode!r}")


def _raise_bad_cost(network: Network, costs: Sequence[float]) -> None:
    """Raise ValueError naming the first edge in declaration order whose
    cost in ``costs`` (by position) is negative or NaN; return when there is
    none."""
    position = network.edge_position
    for e in network.edges:
        c = costs[position[e.id]]
        if not c >= 0.0:
            raise ValueError(f"edge {e.id!r} has cost {c}, not a nonnegative number")


def _sweep_path(network: Network, costs: Sequence[float]) -> tuple[float, tuple[int, ...]]:
    """The one shortest-path DP: cost and edge positions of the shortest
    source->sink path under nonnegative costs listed by position, over
    :attr:`Network.sweep`. Each node keeps the least (distance, positions)
    label over its in-edges, so ties go to the smallest position sequence,
    which stands for the smallest id sequence. Raises ValueError naming the
    first edge in declaration order with a negative or NaN cost, and
    ConvergenceError when no path reaches the sink."""
    if math.isnan(sum(costs)) or not min(costs, default=0.0) >= 0.0:  # a NaN makes the sum NaN
        _raise_bad_cost(network, costs)
    steps = network.sweep
    labels: list = [(0.0, ())] + [None] * len(steps or ())
    # a node's label is final before the loop reaches it: heads come later
    for label, out in zip(labels, steps or ()):
        if label is None:
            continue
        dist, path = label
        for pos, head in out:
            d = dist + costs[pos]
            old = labels[head]
            # the lexicographic order of (d, path + (pos,)), building the
            # path only where it decides
            if old is None or d < old[0] or (d == old[0] and path + (pos,) < old[1]):
                labels[head] = (d, path + (pos,))
    if steps is None or labels[-1] is None:
        raise ConvergenceError(f"sink {network.sink!r} unreachable from source")
    return labels[-1]


def _transfer_derivative(
    costs: Sequence[Sequence[float]], flows: Sequence[float], delta: Mapping[int, float]
) -> tuple[float, ...]:
    """The potential's derivative g(t) = sum_e s_e c_e(f_e + s_e t) along a
    transfer that changes each edge flow f_e by s_e t, as one polynomial's
    coefficients in t (``costs``, ``flows`` and ``delta`` on edge positions).

    Each edge's cost coefficients are Taylor-shifted to f_e by repeated
    synthetic division, its t**k coefficient scaled by s_e**(k+1), and every
    coefficient summed over the edges with math.fsum, zeros padding the
    shorter edges: they leave a correctly rounded sum as it is. Costs of 1-4
    coefficients, all that the generated families draw, are shifted by
    inline straight-line code that makes the loop's float operations in its
    order: a loop-only shift measured 7% slower on the ``certify-general``
    benchmark.
    """
    terms = []
    append = terms.append
    for pos, s in delta.items():
        c = costs[pos]
        f = flows[pos]
        n = len(c)
        if n == 4:
            c0, c1, c2, c3 = c
            b2 = c2 + f * c3
            b1 = c1 + f * b2
            b0 = c0 + f * b1
            b2 = b2 + f * c3
            b1 = b1 + f * b2
            b2 = b2 + f * c3
            s2 = s * s
            s3 = s2 * s
            append((b0 * s, b1 * s2, b2 * s3, c3 * (s3 * s)))
        elif n == 3:
            c0, c1, c2 = c
            b1 = c1 + f * c2
            b0 = c0 + f * b1
            b1 = b1 + f * c2
            s2 = s * s
            append((b0 * s, b1 * s2, c2 * (s2 * s)))
        elif n == 2:
            c0, c1 = c
            append(((c0 + f * c1) * s, c1 * (s * s)))
        elif n == 1:
            append((c[0] * s,))
        else:
            b = list(c)
            for k in range(n - 1):
                acc = b[-1]
                for i in range(n - 2, k - 1, -1):
                    acc = b[i] = b[i] + f * acc
            scale = s
            for k in range(n):
                b[k] *= scale
                scale *= s
            append(b)
    return tuple(map(math.fsum, zip_longest(*terms, fillvalue=0.0)))


def _newton_step(g: Callable[[float], tuple[float, float]], hi: float) -> float:
    """Largest-progress root on [0, hi] of a nondecreasing function whose
    value and slope at t are ``g(t)``, so each point is evaluated once.

    Returns hi when the value at hi is <= 0 and 0 when it is >= 0 at 0;
    otherwise the largest point found with value <= 0 next to the root, to
    the resolution of ``LINE_SEARCH_STEPS`` bisection steps. Newton steps
    run inside the bracket [lo, up], value <= 0 at lo and > 0 at up; a zero
    slope or a step that leaves the bracket bisects it instead, so a ``g``
    returning ``(value, 0.0)`` bisects every step: ``LINE_SEARCH_STEPS``
    halvings, fewer only where no float is left inside the bracket. Newton
    converging from the right leaves ``lo`` behind, so once its step is
    within the resolution there, the search steps down from ``up`` in
    doubling steps until the value is <= 0. Rounding noise near the root
    moves Newton by more than the resolution, so the search also stops
    when the bracket closes.
    """
    if g(hi)[0] <= 0.0:
        return hi
    value, slope = g(0.0)
    if value >= 0.0:
        return 0.0
    resolution = drop = hi * 2.0**-LINE_SEARCH_STEPS
    lo, up = 0.0, hi
    t = 0.0  # the last point evaluated; g(t) == (value, slope)
    for _ in range(LINE_SEARCH_STEPS):
        nxt = t - value / slope if slope > 0.0 else math.inf
        if t > 0.0 and abs(nxt - t) <= resolution:
            if value <= 0.0:
                break
            drop = max(drop, math.ulp(up))
            nxt = up - drop
            drop *= 2.0
        if not lo < nxt < up:
            nxt = 0.5 * (lo + up)
            if not lo < nxt < up:
                break  # no float left inside the bracket
        value, slope = g(nxt)
        if value <= 0.0:
            lo = nxt
        else:
            up = nxt
        if up - lo <= resolution:
            break
        t = nxt
    return lo


def _gap_quiet(total: float, demand: float, min_cost: float) -> tuple[float, bool]:
    floor = demand * min_cost
    excess = total - floor
    if excess < 0.0:  # round-off; the certificate can never be negative
        excess = 0.0
    if floor <= 0.0:
        return excess, True
    return excess / floor, False


def _warn_zero_floor() -> None:
    # Attribute the warning to the first caller outside this module.
    frame, level = sys._getframe(1), 2
    while frame.f_back is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    warnings.warn(
        "cheapest path has zero cost; reporting absolute gap",
        ZeroCostPathWarning,
        stacklevel=level,
    )


def _meanstdev_price(
    moments: tuple[list[float], list[float]], gamma: float, path: tuple[int, ...]
) -> float:
    """The mean-stdev cost L + gamma * sqrt(V) of ``path``, where L and V
    are the math.fsum of the edge latencies and variances ``moments`` over
    its edges."""
    lat, var = moments
    latency = math.fsum(map(lat.__getitem__, path))
    return latency + gamma * math.sqrt(math.fsum(map(var.__getitem__, path)))


def _meanstdev_cheapest(
    instance: Instance, moments: tuple[list[float], list[float]]
) -> tuple[float, tuple[int, ...]]:
    """The least (mean-stdev cost, path) at the edge latencies and variances
    ``moments`` (by edge position), by one DP over :attr:`Network.sweep`
    that keeps, at each node, the lower-left convex hull (the chain) of its
    partial paths' (L, V) points (Nikolova, Brand & Karger, ICAPS 2006).

    The source's chain is the one point (0, 0). Each out-edge adds its
    latency and variance to every point of its tail's chain and hands the
    points to its head. A node fed by two or more in-edges is hulled by
    :func:`_lower_left` when the sweep reaches it; a chain brought by one
    edge is a hull already, moved. The sink's chain vertices are priced by
    :func:`_meanstdev_price`, as a solve prices them, and the least (cost,
    path) is returned; with gamma 0 this is the latency shortest path.

    Why it is exact: L and V are sums over a path's edges. A partial point
    at a node that is not a hull vertex is componentwise at least a convex
    combination of vertices, and adding any suffix keeps that true. The cost
    L + gamma * sqrt(V) is concave and nondecreasing in (L, V), so every
    completion of the point costs at least as much as a completion of some
    vertex, and the sink's chain holds a cheapest path. Exact (L, V) twins
    share every suffix, so the least of them, the sweep's own tie rule,
    is the only one kept. Paths are links (position, parent link), so an
    extension costs O(1); they are flattened at the sink, and elsewhere only
    to choose between twins.

    Raises as :func:`_sweep_path` does, with gamma 0 too: ValueError for a
    bad latency first, then ConvergenceError for an unreachable sink, then
    ValueError for a bad variance.
    """
    net, gamma = instance.network, instance.gamma
    lat, var = moments
    for costs in (lat, var):
        if math.isnan(sum(costs)) or not min(costs, default=0.0) >= 0.0:
            _sweep_path(net, lat)  # a bad latency or an unreachable sink raises first
            _raise_bad_cost(net, costs)
    if gamma == 0.0:
        path = _sweep_path(net, lat)[1]
        return _meanstdev_price(moments, gamma, path), path
    steps = net.sweep
    chains: list = [[(0.0, 0.0, None)]] + [None] * len(steps or ())
    merged = [False] * len(chains)
    # a node's chain is complete before the loop reaches it: heads come later
    for node, out in enumerate(steps or ()):
        chain = chains[node]
        if chain is None:
            continue
        if merged[node]:
            chain = _lower_left(chain)
        for pos, head in out:
            a, b = lat[pos], var[pos]
            points = [(x + a, y + b, (pos, link)) for x, y, link in chain]
            if chains[head] is None:
                chains[head] = points
            else:
                chains[head] += points
                merged[head] = True
    chain = chains[-1]
    if steps is None or chain is None:
        raise ConvergenceError(f"sink {net.sink!r} unreachable from source")
    if merged[-1]:
        chain = _lower_left(chain)
    paths = [_unlink(link) for *_, link in chain]
    return min((_meanstdev_price(moments, gamma, path), path) for path in paths)


def _lower_left(points: list) -> list:
    """The lower-left convex hull of (L, V, link) points, sorted by L: the
    points left after a sort by (L, V) keeps those whose V strictly falls,
    and pops a middle point that the cross product does not put strictly
    below its neighbours' segment. Of exact (L, V) twins only the one with
    the least path stays. The sort compares no links."""
    points.sort(key=itemgetter(0, 1))
    chain = points[:1]
    x1, y1, _ = chain[0]  # the chain's last point
    for point in islice(points, 1, None):
        x, y, link = point
        if y >= y1:
            if y == y1 and x == x1 and _unlink(link) < _unlink(chain[-1][2]):
                chain[-1] = point
            continue
        while len(chain) > 1:
            x0, y0, _ = chain[-2]
            if (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) > 0.0:
                break
            chain.pop()
            x1, y1 = x0, y0
        chain.append(point)
        x1, y1 = x, y
    return chain


def _unlink(link: tuple | None) -> tuple[int, ...]:
    """The edge positions of a path held as links (position, parent link)
    back to the source's None, in path order."""
    path = []
    while link is not None:
        pos, link = link
        path.append(pos)
    return tuple(reversed(path))


def solve_wardrop(
    instance: Instance,
    mode: str = RISK_NEUTRAL,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> EquilibriumResult:
    """Wardrop equilibrium under ``mode``: risk-neutral, or the instance's
    own risk model (mean-var or mean-stdev), by one active-set Newton loop.

    It starts with all demand on the cheapest path at zero flow. Each
    iteration takes the support S, the used paths plus the cheapest path,
    made independent by :func:`_independent_support`, and steps towards the
    solution of the linearized equal-cost system on S
    (:func:`_newton_iterate`). Where that finds no step, and where S holds
    two paths, flow moves from the most expensive used path onto the
    cheapest (:func:`_pairwise_step`). The loop
    stops once the relative gap and the worst used path's excess over the
    cheapest are both at most ``tol``, or at the first iterate it revisits;
    an unconverged solve returns the iterate of least merit (their sum).
    Under a separable mode the Beckmann potential is asserted never to rise.

    Raises ValueError when ``mode`` is neither risk-neutral nor the
    instance's risk model, when ``tol`` is not a finite number >= 0, or when
    ``max_iter`` is negative.
    """
    if mode not in (RISK_NEUTRAL, instance.risk_model):
        raise ValueError(
            f"no {mode!r} equilibrium on a {instance.risk_model!r} instance"
        )
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter!r}")
    pool = _PathPool(instance, mode)
    _, start = pool.cheapest(pool.table)
    it = best_it = pool.evaluate({start: instance.demand})
    stop_reason = "max-iter"
    seen: set[tuple] = set()

    for iterations in range(max_iter + 1):
        if it.merit < best_it.merit:
            best_it = it
        else:
            # a step depends on the ordered path flows alone: a repeat cycles
            state = tuple(it.paths.items())
            if state in seen:
                stop_reason = "round-off"
                break
            seen.add(state)
        if it.gap <= tol and it.excess <= tol:
            best_it, stop_reason = it, "converged"
            break
        if iterations == max_iter:
            break

        it, support = _independent_support(pool, it)
        if it.worst == it.best:
            stop_reason = "round-off"
            break
        nxt = None
        if len(support) > 2:
            nxt = _newton_iterate(pool, it, support)
        if nxt is None:
            nxt = _pairwise_step(pool, it)
        if nxt is None:
            stop_reason = "no-descent" if pool.separable else "shift-floor"
            break
        it = nxt

    if best_it.zero_floor:
        _warn_zero_floor()
    # ids come back once; a solve's paths are source-sink chains, its flows > 0
    total = math.fsum(best_it.paths.values())
    if abs(total - instance.demand) > FLOW_SUM_TOL * instance.demand:
        raise ValueError(f"path flows sum to {total}, demand is {instance.demand}")
    net = instance.network
    ids = tuple(net.edge_position)
    edge_flows = dict.fromkeys(net.edge_map, 0.0)  # in declaration order
    edge_flows.update(zip(ids, best_it.flows))
    paths = {tuple(map(ids.__getitem__, p)): x for p, x in best_it.paths.items() if x}
    flow = Flow(paths, edge_flows, mode)
    floor = best_it.floor
    deviation = max(0.0, best_it.costs[best_it.worst] - floor)
    return EquilibriumResult(flow, best_it.gap, iterations, floor, deviation, stop_reason)


@dataclass
class _Iterate:
    """A path flow and its edge flows, on edge positions, with the costs of
    its used paths and the cheapest path,
    the cheapest cost as the search found it (``floor``), its most expensive
    used path (ties to the lexicographically largest), the relative gap, the
    worst used path's excess over the cheapest (relative; absolute when the
    cheapest costs 0) and, under a separable mode, the Beckmann potential."""

    paths: dict[tuple[int, ...], float]
    flows: list[float]
    costs: dict[tuple[int, ...], float]
    floor: float
    best: tuple[int, ...]
    worst: tuple[int, ...]
    gap: float
    excess: float
    zero_floor: bool
    potential: float | None

    @property
    def merit(self) -> float:
        return self.gap + self.excess


class _PathPool:
    """The path costs of one instance under one cost mode: edge costs and
    shortest paths under a separable mode, the hull DP of
    :func:`_meanstdev_cheapest` under mean-stdev. Either way only the used
    paths and the cheapest path are priced, or for a mean-stdev halving the
    Newton support, whose cheapest path :meth:`evaluate` takes for the DP's.

    The pool lasts one solve and keeps its edge table, lists by position:
    each edge's flow at its last pricing (``at``) and two values at that
    flow (``table``), the edge's cost and Beckmann potential term under a
    separable mode, its latency and variance (squared risk) under mean-stdev.
    They are priced by :func:`poly_value`'s Horner steps from coefficient
    tuples: ``costs``, each edge's separable cost, or its latency under
    mean-stdev, whose risks are in ``risks``. A separable cost of 2-4
    coefficients and its Beckmann term run inline, straight-line code with
    poly_value's float operations in its order: a call per edge measured 8%
    slower on the ``certify-general`` benchmark. The table starts at zero
    flow, where on coefficients in [0, inf) (-0.0 too) those steps give the
    constant coefficient plus 0.0, 0.0 for no coefficients, and a potential
    term of 0.0."""

    def __init__(self, instance: Instance, mode: str) -> None:
        self.instance = instance
        self.mode = mode
        self.separable = mode != RISK_MEAN_STDEV
        if self.separable:
            self.costs = _edge_costs(instance, mode)
            second = [0.0] * len(self.costs)
        else:
            net = instance.network
            self.costs = _edge_costs(instance, RISK_NEUTRAL)  # the latencies
            self.risks = [net.edge_map[eid].risk for eid in net.edge_position]
            second = [(c[0] + 0.0 if c else 0.0) ** 2 for c in self.risks]
        first = [c[0] + 0.0 if c else 0.0 for c in self.costs]
        self.at = [0.0] * len(self.costs)
        self.table = (first, second)

    def priced(
        self, paths: Mapping[tuple[int, ...], float]
    ) -> tuple[list[float], tuple[list[float], list[float]]]:
        """The edge flows of ``paths``, each summed over the paths in their
        order, and the edge table at them. Only an edge whose flow differs
        from its last pricing is evaluated again (a NaN flow always is)."""
        flows = [0.0] * len(self.at)
        for path, amount in paths.items():
            for pos in path:
                flows[pos] += amount
        at, (first, second), costs = self.at, self.table, self.costs
        moved = [(pos, f) for pos, f in enumerate(flows) if at[pos] != f]
        if self.separable:  # the cost and its Beckmann integral at once
            for pos, f in moved:
                at[pos] = f
                c = costs[pos]
                n = len(c)
                z = 0.0 * f
                if n == 4:
                    c0, c1, c2, c3 = c
                    first[pos] = (((z + c3) * f + c2) * f + c1) * f + c0
                    second[pos] = ((((z + c3 / 4) * f + c2 / 3) * f + c1 / 2) * f + c0) * f
                elif n == 3:
                    c0, c1, c2 = c
                    first[pos] = ((z + c2) * f + c1) * f + c0
                    second[pos] = (((z + c2 / 3) * f + c1 / 2) * f + c0) * f
                elif n == 2:
                    c0, c1 = c
                    first[pos] = (z + c1) * f + c0
                    second[pos] = ((z + c1 / 2) * f + c0) * f
                else:
                    value = term = 0.0
                    k = n
                    for x in reversed(c):
                        value = value * f + x
                        term = term * f + x / k
                        k -= 1
                    first[pos], second[pos] = value, term * f
        else:  # poly_value on the latency and the risk
            risks = self.risks
            for pos, f in moved:
                at[pos] = f
                first[pos] = poly_value(costs[pos], f)
                second[pos] = poly_value(risks[pos], f) ** 2
        return flows, self.table

    def cheapest(self, table: tuple[list[float], list[float]]) -> tuple[float, tuple[int, ...]]:
        """The cheapest path's cost and the path at the edge table ``table``."""
        if self.separable:
            return _sweep_path(self.instance.network, table[0])
        return _meanstdev_cheapest(self.instance, table)

    def evaluate(
        self, paths: dict[tuple[int, ...], float], among: Sequence[tuple[int, ...]] = ()
    ) -> _Iterate:
        """The iterate of ``paths``; given mean-stdev paths ``among`` that hold
        them all, the cheapest of ``among`` stands for the hull DP's."""
        instance = self.instance
        flows, table = self.priced(paths)
        potential = None
        if self.separable:
            floor, best = self.cheapest(table)
            prices, terms = table
            costs = {p: math.fsum(map(prices.__getitem__, p)) for p in (*paths, best)}
            potential = math.fsum(terms)
        elif among:
            costs = {p: _meanstdev_price(table, instance.gamma, p) for p in among}
            floor, best = min((c, p) for p, c in costs.items())
        else:
            floor, best = self.cheapest(table)
            costs = {p: _meanstdev_price(table, instance.gamma, p) for p in (*paths, best)}
        worst = max(paths, key=lambda p: (costs[p], p))
        total = math.fsum(amount * costs[p] for p, amount in paths.items())
        gap, zero_floor = _gap_quiet(total, instance.demand, floor)
        excess, _ = _gap_quiet(costs[worst], 1.0, floor)
        return _Iterate(
            paths, flows, costs, floor, best, worst, gap, excess, zero_floor, potential
        )


def _independent_mod2(paths: Sequence[tuple[int, ...]]) -> bool:
    """True when the paths' edge incidence vectors are independent mod 2,
    which proves them independent (rank over GF(2) is at most rank over the
    rationals), by XOR elimination of the paths' edge bitmasks (bit = position)."""
    pivots = {}  # highest bit -> pivot row
    for path in paths:
        row = 0
        for pos in path:
            row |= 1 << pos
        while row.bit_length() in pivots:
            row ^= pivots[row.bit_length()]
        if not row:
            return False
        pivots[row.bit_length()] = row
    return True


def _path_dependency(paths: Sequence[tuple[int, ...]]) -> list[int] | None:
    """Integer weights w with gcd 1 and sum_i w_i * (edge incidence vector of
    ``paths[i]``) = 0, or None when those vectors are independent.

    None at once when :func:`_independent_mod2` proves them independent;
    else fraction-free Gaussian elimination, exact on 0/1 vectors: path i has
    a sparse row mapping its edge positions to its edge entries and ~i (the
    negative keys) to its weights, reduced against the pivot rows, then
    divided once by the gcd of its entries, which keeps them small. A row
    left without edge entries gives the dependency."""
    if _independent_mod2(paths):
        return None
    pivots: list[tuple[int, dict]] = []
    for i, path in enumerate(paths):
        row: dict = dict.fromkeys(path, 1)
        row[~i] = 1
        for edge, pivot in pivots:
            a = row.get(edge, 0)
            if a:
                b = pivot[edge]
                out = {k: b * x for k, x in row.items()}
                for k, y in pivot.items():
                    out[k] = out.get(k, 0) - a * y
                row = {k: x for k, x in out.items() if x}
        g = math.gcd(*row.values())
        row = {k: x // g for k, x in row.items()}
        edges = [k for k in row if k >= 0]
        if not edges:
            return [row.get(~j, 0) for j in range(len(paths))]
        pivots.append((min(edges), row))
    return None


def _independent_support(
    pool: _PathPool, it: _Iterate
) -> tuple[_Iterate, list[tuple[int, ...]]]:
    """The Newton support of ``it``: its used paths and its cheapest path,
    with linearly independent edge-incidence vectors.

    A dependent support makes the Newton system singular. Moving flow along
    a dependency keeps every edge flow, and so every path cost, while the
    total cost sum_p x_p Q_p changes linearly (under mean-stdev; it stays
    put under a separable mode). Each dependency is oriented so that the
    total does not rise (bringing the cheapest path in on a tie) and
    followed by :func:`_moved` until a path's flow reaches zero, which takes
    that path out. Two distinct paths are always independent, but the used
    paths need not be: a pairwise step can bring in a cheapest path that a
    reduction took out. So the loop reduces every support of more than two
    paths until it is independent or holds two paths, whether the cheapest
    path carries flow or not. Returns the iterate after these moves and the
    support, in lexicographic order.
    """
    support = sorted({*it.paths, it.best})
    paths = it.paths
    while len(support) > 2:
        weights = _path_dependency(support)
        if weights is None:
            break
        change = math.fsum(w * it.costs[p] for p, w in zip(support, weights))
        lead = weights[support.index(it.best)] if it.best in support else 0
        if change > 0.0 or (change == 0.0 and lead < 0):
            weights = [-w for w in weights]
        # the first path to run dry along the dependency, and the step to it
        step, out = min(
            (paths.get(p, 0.0) / -w, i) for i, (p, w) in enumerate(zip(support, weights)) if w < 0
        )
        paths = _moved(paths, dict(zip(support, weights)), step)
        del support[out]
    if paths != it.paths:
        it = pool.evaluate(paths)
    return it, support


def _value_slope(coeffs: Sequence[float], f: float) -> tuple[float, float]:
    """A polynomial's value and derivative at ``f`` from its coefficients,
    both by :func:`poly_value`'s Horner steps (on i * coeffs[i] for the slope).
    Up to 4 coefficients the steps are straight-line code, the loop's float
    operations in its order, from the same leading 0.0 * f: at a flow >= 0
    it makes a -0.0 top coefficient +0.0, and it keeps a NaN flow NaN."""
    n = len(coeffs)
    if n == 4:
        c0, c1, c2, c3 = coeffs
        z = 0.0 * f
        return (((z + c3) * f + c2) * f + c1) * f + c0, ((z + 3 * c3) * f + 2 * c2) * f + c1
    if n == 3:
        c0, c1, c2 = coeffs
        z = 0.0 * f
        return ((z + c2) * f + c1) * f + c0, (z + 2 * c2) * f + c1
    if n == 2:
        c0, c1 = coeffs
        z = 0.0 * f
        return (z + c1) * f + c0, z + c1
    value = slope = 0.0
    for i in range(n - 1, -1, -1):
        value = value * f + coeffs[i]
        if i:
            slope = slope * f + i * coeffs[i]
    return value, slope


def _path_jacobian(
    pool: _PathPool, flows: Sequence[float], support: list[tuple[int, ...]]
) -> list[list[float]]:
    """The path Jacobian dQ_p/dx_q on ``support`` at the edge flows ``flows``:
    the sum over e in p and q of c_e'(f_e) under a separable mode, and of
    l_e'(f_e) + gamma * s_e(f_e) * s_e'(f_e) / s_p under mean-stdev, with l_e
    the latency, s_e the edge risk and s_p the path's root-sum-square risk
    (the second term is 0 on a riskless path). math.fsum is correctly
    rounded, so each unordered pair is summed once and mirrored; only the
    division by s_p is made per row. A pair without a shared edge keeps the
    0.0 that those sums give. Each slope is :func:`_value_slope`'s."""
    gamma = pool.instance.gamma
    costs, separable = pool.costs, pool.separable
    slope, curvature, var = {}, {}, {}
    for pos in {pos for p in support for pos in p}:
        f = flows[pos]
        slope[pos] = _value_slope(costs[pos], f)[1]
        if separable:
            continue
        risk, acc = _value_slope(pool.risks[pos], f)
        curvature[pos] = gamma * risk * acc
        var[pos] = risk * risk
    sigma = [math.sqrt(math.fsum(map(var.__getitem__, p))) if var else 0.0 for p in support]
    edge_sets = [set(p) for p in support]
    jac = [[0.0] * len(support) for _ in support]
    for i in range(len(support)):
        for j in range(i, len(support)):
            shared = edge_sets[i] & edge_sets[j]
            if not shared:
                continue
            value = math.fsum(map(slope.__getitem__, shared))
            bend = math.fsum(map(curvature.__getitem__, shared)) if var else 0.0
            jac[i][j] = value + bend / sigma[i] if sigma[i] > 0.0 else value
            jac[j][i] = value + bend / sigma[j] if sigma[j] > 0.0 else value
    return jac


def _newton_iterate(
    pool: _PathPool, it: _Iterate, support: list[tuple[int, ...]]
) -> _Iterate | None:
    """One active-set Newton step on ``support``, or None when the
    equal-cost system is singular or the step finds no descent.

    The system's matrix is the path Jacobian (:func:`_path_jacobian`),
    bordered by the flow sum. A path whose Newton target is negative is
    fixed at zero, its flow redistributed through its Jacobian column, and
    the system solved again. Under a separable mode the step along the
    Newton direction exactly minimizes the potential, up to twice the Newton
    step. Under mean-stdev the full Newton step is taken when it lowers the
    merit; otherwise the step is halved until :meth:`_PathPool.evaluate`'s
    merit over the support (the least support-path cost for the cheapest,
    no hull DP) falls below the iterate's, ``BACKTRACK_STEPS`` trials in
    all, and only the accepted point is evaluated in full.
    """
    # Costs are taken relative to the cheapest, and the step keeps the total
    # flow, so that the multiplier and the step's sum are rounded on the
    # scale of the step itself: the potential's slope along the step is then
    # exact to the end, where lambda * sum(dx) would otherwise swamp it.
    jac = _path_jacobian(pool, it.flows, support)
    floor = it.costs[it.best]
    now = [it.paths.get(p, 0.0) for p in support]
    free = list(range(len(support)))
    while True:
        fixed = [j for j in range(len(support)) if j not in free]
        matrix = [[jac[i][j] for j in free] + [-1.0] for i in free]
        matrix.append([1.0] * len(free) + [0.0])
        rhs = [
            math.fsum(jac[i][j] * now[j] for j in fixed)
            - (it.costs[support[i]] - floor)
            for i in free
        ]
        rhs.append(math.fsum(now[j] for j in fixed))
        try:
            solution = np.linalg.solve(matrix, rhs).tolist()
        except np.linalg.LinAlgError:  # an exactly singular system
            return None
        if not all(map(math.isfinite, solution)):
            return None
        low = min(range(len(free)), key=lambda k: now[free[k]] + solution[k])
        if now[free[low]] + solution[low] >= 0.0:
            break
        del free[low]
    step = [-x for x in now]
    for i, dx in zip(free, solution):
        step[i] = dx
    direction = {p: v for p, v in zip(support, step) if v != 0.0}

    if pool.separable:
        # searching past the Newton point (t = 1) lets the exact step follow
        # the curvature of the costs, and the bound keeps a direction shrunk
        # by rounding from being stretched into a huge step
        hi = min([2.0, *(it.paths[p] / -v for p, v in direction.items() if v < 0.0)])
        return _line_step(pool, it, direction, hi)
    nxt = pool.evaluate(_moved(it.paths, direction, 1.0))
    if nxt.merit < it.merit:
        return nxt
    t = 1.0
    for _ in range(BACKTRACK_STEPS - 1):
        t *= 0.5
        trial = _moved(it.paths, direction, t)
        if pool.evaluate(trial, support).merit < it.merit:
            return pool.evaluate(trial)
    return None


def _pairwise_step(pool: _PathPool, it: _Iterate) -> _Iterate | None:
    """Move flow from the most expensive used path onto the cheapest, at
    most all of it.

    Under a separable mode the amount exactly minimizes the potential, and
    the result is None when that amount is 0. Under mean-stdev the amount
    makes the two path costs just cross, found by :func:`_newton_step` on
    their difference and its slope (:func:`_crossing`), and the result is
    None when it is below ``SHIFT_FLOOR_REL`` of the demand.
    """
    worst = it.worst
    transfer = {worst: -1.0, it.best: 1.0}
    if pool.separable:
        return _line_step(pool, it, transfer, it.paths[worst])
    step = _newton_step(_crossing(pool, it.flows, it.best, worst), it.paths[worst])
    if step < SHIFT_FLOOR_REL * pool.instance.demand:
        return None
    return pool.evaluate(_moved(it.paths, transfer, step))


def _crossing(
    pool: _PathPool, flows: Sequence[float], best: tuple[int, ...], worst: tuple[int, ...]
) -> Callable[[float], tuple[float, float]]:
    """Q_best - Q_worst under mean-stdev, and its slope, as a function of
    the amount t moved from ``worst`` onto ``best`` at the edge flows
    ``flows`` (by position).

    Only the edges on one path and not the other move: best's own by +t,
    worst's own by -t. The shared edges' latencies cancel in the difference
    and their variance is summed once, so a trial prices only the moved
    edges, from their latency and risk coefficients. With l_e the latency,
    r_e the edge risk and s_p the root-sum-square risk of path p, the slope
    is the sum of l_e' + gamma * r_e * r_e' / s_best over best's own edges
    and of l_e' + gamma * r_e * r_e' / s_worst over worst's own edges (a
    risk term is 0 on a riskless path).
    """
    gamma = pool.instance.gamma
    own_best = [pos for pos in best if pos not in worst]
    own_worst = [pos for pos in worst if pos not in best]
    shared = math.fsum(
        poly_value(pool.risks[pos], flows[pos]) ** 2 for pos in best if pos in worst
    )

    def crossing(t: float) -> tuple[float, float]:
        costs, slopes = [], []
        for sign, own in ((1.0, own_best), (-1.0, own_worst)):
            lat, var, dlat, bend = [], [shared], [], []
            for pos in own:
                f = flows[pos] + sign * t
                latency, latency_slope = _value_slope(pool.costs[pos], f)
                risk, risk_slope = _value_slope(pool.risks[pos], f)
                lat.append(latency)
                var.append(risk * risk)
                dlat.append(latency_slope)
                bend.append(risk * risk_slope)
            sigma = math.sqrt(math.fsum(var))
            costs.append(math.fsum(lat) + gamma * sigma)
            bent = gamma * math.fsum(bend) / sigma if sigma > 0.0 else 0.0
            slopes.append(math.fsum(dlat) + bent)
        return costs[0] - costs[1], slopes[0] + slopes[1]

    return crossing


def _line_step(
    pool: _PathPool,
    it: _Iterate,
    direction: Mapping[tuple[int, ...], float],
    hi: float,
) -> _Iterate | None:
    """The separable iterate x + t * direction whose t in [0, hi] minimizes
    the Beckmann potential, or None when that t is 0. Raises
    ConvergenceError when the potential rises instead."""
    change: dict[int, float] = {}
    for p, v in direction.items():
        for pos in p:
            change[pos] = change.get(pos, 0.0) + v
    delta = {pos: s for pos, s in change.items() if s != 0.0}
    if not delta:
        return None
    g = _transfer_derivative(pool.costs, it.flows, delta)
    step = _newton_step(partial(_value_slope, g), hi)
    if step <= 0.0:
        return None
    nxt = pool.evaluate(_moved(it.paths, direction, step))
    phi = it.potential
    if nxt.potential > phi + POTENTIAL_BACKSLIDE_TOL * max(1.0, abs(phi)):
        raise ConvergenceError(f"potential increased from {phi} to {nxt.potential}")
    return nxt


def _moved(
    paths: Mapping[tuple[int, ...], float],
    direction: Mapping[tuple[int, ...], float],
    step: float,
) -> dict[tuple[int, ...], float]:
    """The path flows paths + step * direction. A path that the step runs
    dry is set to exactly zero, and paths without flow are dropped."""
    out = dict(paths)
    for p, v in direction.items():
        x = out.get(p, 0.0)
        out[p] = 0.0 if v < 0.0 and x / -v <= step else x + step * v
    return {p: x for p, x in out.items() if x > 0.0}


def solve_rawe(
    instance: Instance,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> EquilibriumResult:
    """Risk-averse equilibrium under the instance's own risk model."""
    return solve_wardrop(instance, instance.risk_model, tol, max_iter)


def solve_rnwe(
    instance: Instance,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> EquilibriumResult:
    """Risk-neutral equilibrium (latency-only costs)."""
    return solve_wardrop(instance, RISK_NEUTRAL, tol, max_iter)


def solve_pair(
    instance: Instance,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[EquilibriumResult, EquilibriumResult]:
    """Risk-averse and risk-neutral equilibria, both converged.

    Raises ConvergenceError, by :func:`require_converged`, for the first of
    the two solves that stopped short of its tolerance.
    """
    x = solve_rawe(instance, tol=tol, max_iter=max_iter)
    z = solve_rnwe(instance, tol=tol, max_iter=max_iter)
    return require_converged(x, "risk-averse"), require_converged(z, "risk-neutral")


def require_converged(result: EquilibriumResult, label: str) -> EquilibriumResult:
    """``result`` if it converged; else ConvergenceError naming the ``label``
    solver's gap, iterations and stop reason."""
    if not result.converged:
        raise ConvergenceError(
            f"{label} solver stopped at gap {float(result.relative_gap)!r} "
            f"after {result.iterations} iterations ({result.stop_reason})"
        )
    return result
