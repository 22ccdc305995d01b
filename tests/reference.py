"""The tests' second opinion on the library, keyed by edge id.

The library prices on edge positions alone and brings ids back only in its
results. This module holds what tests compare it with: the shortest path
by a label DP keyed by edge id; path flows made into a ``Flow``, their edge
flows and their path costs; a flow's relative gap and its cheapest path,
found by the library's own search through ids; the mean-stdev cheapest
path by the Aneja-Nair chord search, on positions; a polynomial's
derivative, and its value and derivative by one loop; the separable edge
costs as coefficient tuples with their Beckmann potential; the solve's and
the report's edge tables by ``poly_value`` calls; the transfer derivative
with one sum per degree, the path Jacobian summed pair by pair in full and
the path dependency by exact elimination alone; the scalar Braess sigma
inequality; and the path decomposition of an integer edge flow keyed by
id, which refuses one that is not conserved.
Tests assert that the library's values equal these, to the bit where the
arithmetic is the same."""

import math
from itertools import zip_longest
from types import SimpleNamespace
from typing import Mapping

from riskroute import solvers
from riskroute.analysis import SIGMA_SLACK
from riskroute.network import (
    RISK_MEAN_STDEV,
    RISK_MEAN_VAR,
    RISK_MODELS,
    Instance,
    Network,
    poly_value,
)
from riskroute.solvers import FLOW_SUM_TOL, RISK_NEUTRAL, ConvergenceError, Flow


def shortest_path(network: Network, costs) -> tuple[float, tuple[str, ...]]:
    """Shortest source->sink path under nonnegative edge costs keyed by edge
    id, by a DP over the network's topological order in which each node
    keeps the least (distance, edge-id sequence) label over its in-edges.
    Raises ValueError on the first negative or NaN cost in the mapping's
    order, and ConvergenceError when no path reaches the sink."""
    for eid, c in costs.items():
        if not c >= 0.0:  # also catches NaN
            raise ValueError(f"edge {eid!r} has cost {c}, not a nonnegative number")
    sink, out_edges = network.sink, network.out_edges
    labels = {network.source: (0.0, ())}
    for node in network.topo_order:
        label = labels.get(node)
        if label is None:
            continue
        if node == sink:
            return label
        dist, path = label
        for e in out_edges[node]:
            d = dist + costs[e.id]
            old = labels.get(e.head)
            if old is None or d < old[0] or (d == old[0] and path + (e.id,) < old[1]):
                labels[e.head] = (d, path + (e.id,))
    raise ConvergenceError(f"sink {network.sink!r} unreachable from source")


def cost_polys(instance: Instance, mode: str) -> dict[str, tuple[float, ...]]:
    """Each edge's separable cost coefficients under ``mode``: the
    latency's, or latency + gamma * risk under mean-var."""
    edges = instance.network.edges
    if mode == RISK_NEUTRAL:
        return {e.id: e.latency for e in edges}
    return {e.id: scaled_plus(e.latency, e.risk, instance.gamma) for e in edges}


def scaled_plus(poly, other, scale: float) -> tuple[float, ...]:
    """Coefficientwise ``poly + scale * other``, the shorter padded with
    zeros."""
    pairs = zip_longest(poly, other, fillvalue=0.0)
    return tuple([x + scale * y for x, y in pairs])


def derivative(poly, x: float) -> float:
    """The derivative of the coefficients ``poly`` at ``x`` by Horner steps
    on the coefficients i * poly[i]."""
    acc = 0.0
    for i in reversed(range(1, len(poly))):
        acc = acc * x + i * poly[i]
    return acc


def value_slope(poly, x: float) -> tuple[float, float]:
    """The value and derivative of the coefficients ``poly`` at ``x``, as
    one loop of Horner steps from 0.0 on poly[i] and on i * poly[i]."""
    value = slope = 0.0
    for i in reversed(range(len(poly))):
        value = value * x + poly[i]
        if i:
            slope = slope * x + i * poly[i]
    return value, slope


def integral(poly, x: float) -> float:
    """The antiderivative of the coefficients ``poly`` at ``x``, zero at the
    origin."""
    acc = 0.0
    for i in reversed(range(len(poly))):
        acc = acc * x + poly[i] / (i + 1)
    return acc * x


def potential_value(cost_polys, flows) -> float:
    """Beckmann potential sum_e integral_0^{f_e} c_e."""
    return math.fsum(integral(cost_polys[eid], f) for eid, f in flows.items())


def solve_table(instance: Instance, mode: str, flows) -> tuple[dict, dict]:
    """A solve's edge table at ``flows`` (at zero flow, where a solve
    starts, when ``flows`` is None): each edge's separable cost and Beckmann
    potential term, or its latency and squared risk under mean-stdev, each
    a poly_value call."""
    edges = instance.network.edges
    if flows is None:
        flows = dict.fromkeys(instance.network.edge_map, 0.0)
    if mode == RISK_MEAN_STDEV:
        return (
            {e.id: poly_value(e.latency, flows[e.id]) for e in edges},
            {e.id: poly_value(e.risk, flows[e.id]) ** 2 for e in edges},
        )
    polys = cost_polys(instance, mode)
    return (
        {e: poly_value(p, flows[e]) for e, p in polys.items()},
        {e: integral(p, flows[e]) for e, p in polys.items()},
    )


def edge_table(network: Network, flows) -> tuple[dict, dict, float, float]:
    """A report's edge table: each edge's latency and risk by poly_value
    calls, the social cost as the builtin sum over the edges, and kappa, the
    largest ratio risk/latency, infinite at the first edge with positive
    risk over zero latency."""
    lat, risk = {}, {}
    for e in network.edges:
        f = flows[e.id]
        lat[e.id], risk[e.id] = poly_value(e.latency, f), poly_value(e.risk, f)
    cost = sum(lat[e.id] * flows[e.id] for e in network.edges)
    kappa = 0.0
    for eid, latency in lat.items():
        if latency > 0.0:
            kappa = max(kappa, risk[eid] / latency)
        elif risk[eid] > 0.0:
            return lat, risk, cost, math.inf
    return lat, risk, cost, kappa


def transfer_derivative(polys, flows, delta) -> tuple[float, ...]:
    """g(t) = sum_e s_e c_e(f_e + s_e t) as one polynomial in t: each edge
    polynomial Taylor-shifted to f_e, its t**k coefficient scaled by
    s_e**(k+1), each degree summed with math.fsum over the edges that have
    it."""
    terms = []
    for eid, s in delta.items():
        b = list(polys[eid])
        f = flows[eid]
        for k in range(len(b) - 1):
            for i in range(len(b) - 2, k - 1, -1):
                b[i] += f * b[i + 1]
        scale = s
        for k in range(len(b)):
            b[k] *= scale
            scale *= s
        terms.append(b)
    width = max(map(len, terms))
    return tuple(math.fsum(b[k] for b in terms if k < len(b)) for k in range(width))


def path_jacobian(instance: Instance, mode: str, flows, support) -> list[list[float]]:
    """dQ_p/dx_q on ``support``, each entry summed on its own: the slopes of
    the edges p and q share, plus, under mean-stdev, their curvature terms
    gamma * s_e * s_e' over p's root-sum-square risk."""
    emap = instance.network.edge_map
    polys = None if mode == RISK_MEAN_STDEV else cost_polys(instance, mode)
    slope, curvature, var = {}, {}, {}
    for eid in {eid for p in support for eid in p}:
        f = flows[eid]
        if polys is not None:
            slope[eid] = derivative(polys[eid], f)
            continue
        edge = emap[eid]
        risk = poly_value(edge.risk, f)
        slope[eid] = derivative(edge.latency, f)
        curvature[eid] = instance.gamma * risk * derivative(edge.risk, f)
        var[eid] = risk * risk
    edge_sets = [set(p) for p in support]
    jac = []
    for p, p_edges in zip(support, edge_sets):
        sigma = math.sqrt(math.fsum(map(var.__getitem__, p))) if var else 0.0
        row = []
        for q_edges in edge_sets:
            shared = p_edges & q_edges
            value = math.fsum(map(slope.__getitem__, shared))
            if sigma > 0.0:
                value += math.fsum(map(curvature.__getitem__, shared)) / sigma
            row.append(value)
        jac.append(row)
    return jac


def path_dependency(paths) -> list[int] | None:
    """Integer weights with gcd 1 that cancel the paths' edge incidence
    vectors, or None when they are independent, by fraction-free Gaussian
    elimination alone."""
    pivots = []
    for i, path in enumerate(paths):
        row = dict.fromkeys(path, 1)
        row[i] = 1
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
        edges = [k for k in row if isinstance(k, str)]
        if not edges:
            return [row.get(j, 0) for j in range(len(paths))]
        pivots.append((min(edges), row))
    return None


def flow_from_paths(instance: Instance, path_flow, mode: str) -> Flow:
    """A ``Flow`` of path flows keyed by id tuples, zero flows dropped.
    Raises ValueError on an unknown mode, a negative or NaN flow, a path
    that is no source-sink chain of the network's edges, or flows that miss
    the demand by over ``FLOW_SUM_TOL`` of it."""
    if mode not in (RISK_NEUTRAL, *RISK_MODELS):
        raise ValueError(f"unknown objective mode {mode!r}")
    net = instance.network
    clean = {tuple(p): float(v) for p, v in path_flow.items() if v != 0.0}
    for path, amount in clean.items():
        if not amount >= 0.0:  # also catches NaN
            raise ValueError(f"path flow {amount} on {path} is negative or NaN")
        edges = [net.edge_map.get(eid) for eid in path]
        if None in edges:
            raise ValueError(f"path {path} has an edge not in the network")
        heads = [net.source, *(e.head for e in edges)]
        if heads != [*(e.tail for e in edges), net.sink]:
            raise ValueError(f"path {path} is not a chain from source to sink")
    total = math.fsum(clean.values())
    if abs(total - instance.demand) > FLOW_SUM_TOL * instance.demand:
        raise ValueError(f"path flows sum to {total}, demand is {instance.demand}")
    return Flow(clean, edge_flow(clean, net), mode)


def edge_flow(path_flow, network: Network) -> dict[str, float]:
    """Per-edge flows of path flows keyed by id tuples, summed in the paths'
    order; every edge gets an entry."""
    flows = dict.fromkeys(network.edge_map, 0.0)
    for path, amount in path_flow.items():
        for eid in path:
            flows[eid] += amount
    return flows


def path_cost(instance: Instance, flows, path, mode: str) -> float:
    """Cost of the id path ``path`` at edge flows keyed by id: its latency
    when ``mode`` is risk-neutral, else the latency plus gamma times its
    :func:`path_risk`."""
    latency = sum(poly_value(instance.network.edge_map[eid].latency, flows[eid]) for eid in path)
    if mode == RISK_NEUTRAL:
        return latency
    return latency + instance.gamma * path_risk(instance, flows, path)


def path_risk(instance: Instance, flows, path) -> float:
    """Risk term of the id path ``path`` at edge flows keyed by id: the sum
    of the edge risks under mean-var, their root-sum-square under
    mean-stdev."""
    emap = instance.network.edge_map
    if instance.risk_model == RISK_MEAN_VAR:
        return sum(poly_value(emap[eid].risk, flows[eid]) for eid in path)
    return math.sqrt(sum(poly_value(emap[eid].risk, flows[eid]) ** 2 for eid in path))


def cheapest_path(instance: Instance, flows, mode: str) -> tuple[float, tuple[str, ...]]:
    """The cheapest path under ``mode`` at edge flows keyed by id, found by
    the library's own search (a solve's pool priced at those flows), with
    its :func:`path_cost`. ``mode`` must be risk-neutral or the instance's
    risk model."""
    if mode not in (RISK_NEUTRAL, instance.risk_model):
        raise ValueError(f"no {mode!r} path costs on a {instance.risk_model!r} instance")
    net = instance.network
    pool = solvers._PathPool(instance, mode)
    _, table = pool.priced({(pos,): flows[eid] for eid, pos in net.edge_position.items()})
    ids = list(net.edge_position)
    path = tuple(ids[pos] for pos in pool.cheapest(table)[1])
    return path_cost(instance, flows, path, mode), path


def meanstdev_cheapest_by_chords(
    instance: Instance, moments: tuple[list[float], list[float]]
) -> tuple[float, tuple[int, ...]]:
    """The least (mean-stdev cost, path) at the edge latencies and variances
    ``moments`` (by edge position), by the Aneja-Nair chord search of the
    lower-left convex hull of the paths' (L, V) points: the referee of the
    library's hull DP, solvers._meanstdev_cheapest.

    L and V are sums over a path's edges, and its cost L + gamma * sqrt(V)
    is concave and nondecreasing in them, so the cheapest path is a hull
    vertex: a shortest path under latency + lambda * variance for some
    lambda >= 0 (Nikolova, Brand & Karger, ICAPS 2006). The search starts
    from the shortest paths under the latencies and under the variances.
    For found paths p and q it takes the shortest path r at the slope
    lambda = (L_q - L_p) / (V_p - V_q) of their chord; when r is new and
    weighs strictly less than p and q, it searches the chords p, r and r, q
    (Aneja & Nair, 1979). Each such step finds a new path, so the search
    ends. A chord is dropped when its corner bound L_p + gamma * sqrt(V_q)
    is above the cheapest cost found. Paths are priced by
    solvers._meanstdev_price, as a solve prices them, ties go to the
    lexicographically smallest path found, and with gamma 0 this is the
    latency shortest path.
    """
    net, gamma = instance.network, instance.gamma
    lat, var = moments
    found: dict[tuple[int, ...], tuple[float, float, float]] = {}

    def vertex(weights: list[float]) -> tuple[int, ...] | None:
        # the shortest path under ``weights``, or None when already found
        path = solvers._sweep_path(net, weights)[1]
        if path in found:
            return None
        found[path] = solvers._meanstdev_price(moments, gamma, path)
        return path

    first = vertex(lat)
    if gamma == 0.0:
        return found[first][2], first
    last = vertex(var)
    best = min(cost for *_, cost in found.values())
    chords = [(first, last)] if last else []
    while chords:
        p, q = chords.pop()
        (lp, vp, _), (lq, vq, _) = found[p], found[q]
        if not (lp < lq and vp > vq) or lp + gamma * math.sqrt(vq) > best:
            continue
        slope = (lq - lp) / (vp - vq)
        r = vertex([x + slope * y for x, y in zip(lat, var)])
        if r is None:
            continue
        lr, vr, cost = found[r]
        best = min(best, cost)
        if lr + slope * vr < min(lp + slope * vp, lq + slope * vq):
            chords += [(p, r), (r, q)]
    return min((cost, path) for path, (*_, cost) in found.items())


def relative_gap(instance: Instance, flow: Flow) -> float:
    """The relative gap of ``flow`` under its own objective mode, re-priced
    from its edge flows; warns ZeroCostPathWarning where the cheapest path
    costs 0 and the gap is absolute."""
    flows, mode = flow.edge_flow, flow.objective_mode
    best, _ = cheapest_path(instance, flows, mode)
    total = math.fsum(x * path_cost(instance, flows, p, mode) for p, x in flow.path_flow.items())
    gap, zero_floor = solvers._gap_quiet(total, instance.demand, best)
    if zero_floor:
        solvers._warn_zero_floor()
    return gap


def braess_stdev_inequality(a: float, b: float, c: float, d: float, e: float):
    """The Braess path-stdev inequality on one row of sigmas, in scalar
    arithmetic: its precondition (in the cancelled form), lhs, rhs and
    whether it holds, as attributes."""
    lhs = math.hypot(a, b) + math.hypot(c, d) - math.sqrt(a**2 + e**2 + d**2)
    rhs = b + c
    precondition = a**2 + e**2 <= c**2 or e**2 + d**2 <= b**2
    return SimpleNamespace(precondition=precondition, lhs=lhs, rhs=rhs, holds=lhs <= rhs + SIGMA_SLACK)


class ConservationError(ValueError):
    """Edge flows do not satisfy flow conservation."""


def decompose_edge_flow(
    network: Network, units: Mapping[str, int]
) -> dict[tuple[str, ...], int]:
    """Path decomposition of a conserved integer edge flow on an acyclic
    network; an edge missing from ``units`` carries no flow.

    Each path walks from the source along the first out-edge (in edge-id
    order) with flow left, which starts the lexicographically first path
    with flow left since flow entering a node leaves it, and carries that
    path's least flow. A walk stranded before the sink, or flow left over,
    means the flow was negative or not conserved: ConservationError.
    """
    residual = dict(units)
    out: dict[tuple[str, ...], int] = {}
    while any(residual.get(e.id, 0) > 0 for e in network.out_edges[network.source]):
        node, path = network.source, []
        while node != network.sink:
            left = [e for e in network.out_edges.get(node, ()) if residual.get(e.id, 0) > 0]
            if not left:
                raise ConservationError(f"flow into {node!r} does not reach the sink")
            path.append(left[0].id)
            node = left[0].head
        amount = min(map(residual.__getitem__, path))
        for eid in path:
            residual[eid] -= amount
        out[tuple(path)] = amount
    if any(residual.values()):
        raise ConservationError("decomposition left flow on some edge")
    return out
