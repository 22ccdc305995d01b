"""Reference versions of solver and report pieces that the library computes
a faster way: the shortest path by a label DP keyed by edge id, the
separable edge costs as ``CostPoly`` objects and their Beckmann potential,
the solve's and the report's edge tables by ``CostPoly`` calls, the
transfer derivative with one sum per degree, the path Jacobian summed pair
by pair in full, and the path dependency by exact elimination alone. Tests
assert that the library's values equal these to the bit."""

import math

from riskroute.network import RISK_MEAN_STDEV, CostPoly, Instance, Network
from riskroute.solvers import RISK_NEUTRAL, ConvergenceError


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


def cost_polys(instance: Instance, mode: str) -> dict[str, CostPoly]:
    """Each edge's separable cost under ``mode``: the latency, or
    latency + gamma * risk under mean-var."""
    edges = instance.network.edges
    if mode == RISK_NEUTRAL:
        return {e.id: e.latency for e in edges}
    return {e.id: e.latency.scaled_plus(e.risk, instance.gamma) for e in edges}


def potential_value(cost_polys, flows) -> float:
    """Beckmann potential sum_e integral_0^{f_e} c_e."""
    return math.fsum(cost_polys[eid].integral(f) for eid, f in flows.items())


def solve_table(instance: Instance, mode: str, flows) -> tuple[dict, dict]:
    """A solve's edge table at ``flows`` (at zero flow, where a solve
    starts, when ``flows`` is None): each edge's separable cost and Beckmann
    potential term, or its latency and squared risk under mean-stdev, each
    a CostPoly call."""
    edges = instance.network.edges
    if flows is None:
        flows = dict.fromkeys(instance.network.edge_map, 0.0)
    if mode == RISK_MEAN_STDEV:
        return (
            {e.id: e.latency(flows[e.id]) for e in edges},
            {e.id: e.risk(flows[e.id]) ** 2 for e in edges},
        )
    polys = cost_polys(instance, mode)
    return (
        {e: p(flows[e]) for e, p in polys.items()},
        {e: p.integral(flows[e]) for e, p in polys.items()},
    )


def edge_table(network: Network, flows) -> tuple[dict, dict, float, float]:
    """A report's edge table: each edge's latency and risk by CostPoly
    calls, the social cost as the builtin sum over the edges, and kappa, the
    largest ratio risk/latency, infinite at the first edge with positive
    risk over zero latency."""
    lat, risk = {}, {}
    for e in network.edges:
        f = flows[e.id]
        lat[e.id], risk[e.id] = e.latency(f), e.risk(f)
    cost = sum(lat[e.id] * flows[e.id] for e in network.edges)
    kappa = 0.0
    for eid, latency in lat.items():
        if latency > 0.0:
            kappa = max(kappa, risk[eid] / latency)
        elif risk[eid] > 0.0:
            return lat, risk, cost, math.inf
    return lat, risk, cost, kappa


def transfer_derivative(polys, flows, delta) -> CostPoly:
    """g(t) = sum_e s_e c_e(f_e + s_e t) as one polynomial in t: each edge
    polynomial Taylor-shifted to f_e, its t**k coefficient scaled by
    s_e**(k+1), each degree summed with math.fsum over the edges that have
    it."""
    terms = []
    for eid, s in delta.items():
        b = list(polys[eid].coeffs)
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
    return CostPoly(
        tuple(math.fsum(b[k] for b in terms if k < len(b)) for k in range(width))
    )


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
            slope[eid] = polys[eid].derivative(f)
            continue
        edge = emap[eid]
        risk = edge.risk(f)
        slope[eid] = edge.latency.derivative(f)
        curvature[eid] = instance.gamma * risk * edge.risk.derivative(f)
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
