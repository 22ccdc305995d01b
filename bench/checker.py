"""Reference computations for checking riskroute's outputs.

Everything here works from the instance document (the JSON object that
``riskroute.instances.write_instance`` emits) and from plain path-flow
dictionaries, and imports nothing from riskroute, so a fault in the library
cannot hide itself by being repeated here. The algorithms are deliberately
different from the library's: shortest paths by dynamic programming in
topological order instead of Dijkstra, path counts by DP instead of
enumeration, and path enumeration by plain recursion.

Every ``check_*`` function returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

MEAN_VAR = "mean-var"
MEAN_STDEV = "mean-stdev"
RISK_NEUTRAL = "risk-neutral"

#: Relative-gap limits by objective.
GAP_LIMIT = {RISK_NEUTRAL: 1e-8, MEAN_VAR: 1e-8, MEAN_STDEV: 1e-6}
#: Relative slack on the paper's mean-var bounds.
BOUND_REL_SLACK = 1e-6
#: Agreement between a value the library reports and the same value here.
VALUE_REL_TOL = 1e-9
#: Agreement between the oracle's value and the latency at its maximizer.
ORACLE_VALUE_TOL = 1e-12
#: The zigzag closed forms, as the library's own verify suite states them.
ZIGZAG_TOL = 1e-6

PathFlow = Mapping[Sequence[str], float]


def poly(coeffs: Sequence[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_derivative(coeffs: Sequence[float], x: float) -> float:
    return sum(i * c * x ** (i - 1) for i, c in enumerate(coeffs) if i)


class Net:
    """An instance document with the adjacency the checks need."""

    def __init__(self, doc: Mapping):
        self.nodes = list(doc["nodes"])
        self.source = doc["source"]
        self.sink = doc["sink"]
        self.demand = float(doc["demand"])
        self.gamma = float(doc["gamma"])
        self.risk_model = doc["risk_model"]
        self.edges = {e["id"]: e for e in doc["edges"]}
        self.out: dict[str, list[dict]] = {v: [] for v in self.nodes}
        self.inc: dict[str, list[dict]] = {v: [] for v in self.nodes}
        for e in doc["edges"]:
            self.out[e["tail"]].append(e)
            self.inc[e["head"]].append(e)
        self.order = self._topological_order()

    def _topological_order(self) -> list[str]:
        indeg = {v: len(self.inc[v]) for v in self.nodes}
        ready = [v for v in self.nodes if indeg[v] == 0]
        order = []
        while ready:
            v = ready.pop()
            order.append(v)
            for e in self.out[v]:
                indeg[e["head"]] -= 1
                if indeg[e["head"]] == 0:
                    ready.append(e["head"])
        if len(order) != len(self.nodes):
            raise ValueError("instance has a directed cycle")
        return order

    def latency(self, eid: str, flow: float) -> float:
        return poly(self.edges[eid]["latency"], flow)

    def risk(self, eid: str, flow: float) -> float:
        return poly(self.edges[eid]["risk"], flow)


# --- flows and costs ----------------------------------------------------------


def edge_flows(net: Net, path_flow: PathFlow) -> dict[str, float]:
    flows = {eid: 0.0 for eid in net.edges}
    for path, amount in path_flow.items():
        for eid in path:
            flows[eid] += amount
    return flows


def is_source_sink_path(net: Net, path: Sequence[str]) -> bool:
    """True for a simple, contiguous source->sink path of declared edges."""
    node = net.source
    seen = {node}
    for eid in path:
        e = net.edges.get(eid)
        if e is None or e["tail"] != node or e["head"] in seen:
            return False
        node = e["head"]
        seen.add(node)
    return bool(path) and node == net.sink


def edge_costs(net: Net, flows: Mapping[str, float], mode: str) -> dict[str, float]:
    """Separable per-edge cost: latency, plus gamma times variance under
    mean-var."""
    if mode == RISK_NEUTRAL:
        return {eid: net.latency(eid, f) for eid, f in flows.items()}
    if mode == MEAN_VAR:
        g = net.gamma
        return {
            eid: net.latency(eid, f) + g * net.risk(eid, f) for eid, f in flows.items()
        }
    raise ValueError(f"no separable cost under {mode!r}")


def shortest_path(net: Net, costs: Mapping[str, float]) -> float:
    """Source->sink distance by DP over the topological order."""
    dist = {v: math.inf for v in net.nodes}
    dist[net.source] = 0.0
    for v in net.order:
        if dist[v] == math.inf:
            continue
        for e in net.out[v]:
            cand = dist[v] + costs[e["id"]]
            if cand < dist[e["head"]]:
                dist[e["head"]] = cand
    return dist[net.sink]


def path_count(net: Net) -> int:
    """Number of source->sink paths (every path of a DAG is simple)."""
    ways = {v: 0 for v in net.nodes}
    ways[net.source] = 1
    for v in net.order:
        for e in net.out[v]:
            ways[e["head"]] += ways[v]
    return ways[net.sink]


def all_paths(net: Net) -> list[tuple[str, ...]]:
    paths: list[tuple[str, ...]] = []

    def extend(node: str, prefix: tuple[str, ...]) -> None:
        if node == net.sink:
            paths.append(prefix)
            return
        for e in net.out[node]:
            extend(e["head"], prefix + (e["id"],))

    extend(net.source, ())
    return paths


def stdev_path_cost(net: Net, flows: Mapping[str, float], path: Sequence[str]) -> float:
    lat = sum(net.latency(eid, flows[eid]) for eid in path)
    var = sum(net.risk(eid, flows[eid]) ** 2 for eid in path)
    return lat + net.gamma * math.sqrt(var)


def shortest_latency(net: Net, flows: Mapping[str, float]) -> float:
    """S(f): the latency of the latency-shortest path at edge flows f."""
    return shortest_path(net, edge_costs(net, flows, RISK_NEUTRAL))


def social_cost(net: Net, flows: Mapping[str, float]) -> float:
    return sum(f * net.latency(eid, f) for eid, f in flows.items())


def relative_gap(net: Net, path_flow: PathFlow, mode: str) -> float:
    """(sum_p f_p Q_p - d min_q Q_q) / (d min_q Q_q) under objective ``mode``."""
    flows = edge_flows(net, path_flow)
    d = net.demand
    if mode == MEAN_STDEV:
        best = min(stdev_path_cost(net, flows, p) for p in all_paths(net))
        total = sum(f * stdev_path_cost(net, flows, p) for p, f in path_flow.items())
    else:
        costs = edge_costs(net, flows, mode)
        best = shortest_path(net, costs)
        total = sum(f * sum(costs[eid] for eid in p) for p, f in path_flow.items())
    floor = d * best
    excess = max(0.0, total - floor)
    return excess / floor if floor > 0.0 else excess


def kappa(net: Net, flows: Mapping[str, float]) -> float:
    """Largest edge ratio risk/latency at the flow; 0/0 is 0, r/0 is inf."""
    worst = 0.0
    for eid, f in flows.items():
        lat, risk = net.latency(eid, f), net.risk(eid, f)
        if lat > 0.0:
            worst = max(worst, risk / lat)
        elif risk > 0.0:
            return math.inf
    return worst


def oracle_slack(net: Net, grid: int) -> float:
    """Demand times the sum of latency slopes at full demand, over the grid."""
    d = net.demand
    return d * sum(poly_derivative(e["latency"], d) for e in net.edges.values()) / grid


# --- checks -------------------------------------------------------------------


def _close(a: float, b: float, rel: float = VALUE_REL_TOL) -> bool:
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_flow(
    net: Net, path_flow: PathFlow, reported_edge_flow: Mapping[str, float], label: str
) -> list[str]:
    """Path flows are nonnegative flows on real paths that meet the demand,
    and the edge flows the library reports are the ones they induce."""
    bad = []
    for path, amount in path_flow.items():
        if not is_source_sink_path(net, path):
            bad.append(f"{label}: {path} is not a simple source-sink path")
        if not amount >= 0.0:
            bad.append(f"{label}: negative path flow {amount}")
    total = sum(path_flow.values())
    if not abs(total - net.demand) <= 1e-9 * net.demand:
        bad.append(f"{label}: path flows sum to {total}, demand {net.demand}")
    if bad:
        return bad
    flows = edge_flows(net, path_flow)
    if set(reported_edge_flow) != set(flows):
        return [f"{label}: edge flows cover the wrong edges"]
    for eid, f in flows.items():
        if not abs(f - reported_edge_flow[eid]) <= 1e-10 * max(1.0, net.demand):
            bad.append(f"{label}: edge {eid} flow {reported_edge_flow[eid]} != {f}")
    return bad


def check_gap(net: Net, path_flow: PathFlow, mode: str, label: str) -> list[str]:
    gap = relative_gap(net, path_flow, mode)
    if not gap <= GAP_LIMIT[mode]:
        return [f"{label}: relative gap {gap} > {GAP_LIMIT[mode]}"]
    return []


def check_certificate(
    net: Net,
    x_path_flow: PathFlow,
    z_path_flow: PathFlow,
    report: Mapping,
) -> list[str]:
    """Check a pra report against the two flows it was built from.

    ``report`` holds the report's ``cost_rawe``, ``cost_rnwe``, ``pra``,
    ``kappa``, ``rho`` and ``eta``, and ``checks`` as (name, passed, proven,
    skipped) tuples.
    """
    bad = []
    x = edge_flows(net, x_path_flow)
    z = edge_flows(net, z_path_flow)
    cost_x, cost_z = social_cost(net, x), social_cost(net, z)
    k = kappa(net, x)
    s_x, s_z = shortest_latency(net, x), shortest_latency(net, z)
    pra = cost_x / cost_z
    rho = s_x / s_z
    for name, mine in (
        ("cost_rawe", cost_x),
        ("cost_rnwe", cost_z),
        ("pra", pra),
        ("kappa", k),
        ("rho", rho),
    ):
        if not _close(report[name], mine):
            bad.append(f"{name} {report[name]} != reference {mine}")
    failed = [c[0] for c in report["checks"] if c[2] and not c[3] and not c[1]]
    if failed:
        bad.append("proven checks failed: " + ", ".join(failed))
    if net.risk_model == MEAN_VAR:
        half = len(net.nodes) // 2
        gk = net.gamma * k
        if report["eta"] > half:
            bad.append(f"eta {report['eta']} > floor(n/2) = {half}")
        if not pra <= (1.0 + gk * half) * (1.0 + BOUND_REL_SLACK):
            bad.append(f"pra {pra} > 1 + gamma*kappa*floor(n/2) = {1.0 + gk * half}")
        if not pra <= (1.0 + gk) * rho * (1.0 + BOUND_REL_SLACK):
            bad.append(f"pra {pra} > (1 + gamma*kappa)*rho = {(1.0 + gk) * rho}")
    return bad


def check_oracle(
    net: Net,
    z_path_flow: PathFlow,
    value: float,
    maximizer: PathFlow,
    grid: int,
    series_parallel: bool,
) -> list[str]:
    """Check a grid oracle result.

    The value is attained at its maximizer, a grid point, and is at least the
    shortest-path latency at every single-path vertex of the grid. On a
    series-parallel network it is at most S(z) + oracle_slack: Wardrop
    equilibria maximize the shortest-path latency there.
    """
    bad = []
    d = net.demand
    step = d / grid
    for path, amount in maximizer.items():
        if not is_source_sink_path(net, path):
            bad.append(f"maximizer path {path} is not a source-sink path")
        elif not abs(amount / step - round(amount / step)) <= 1e-9:
            bad.append(f"maximizer flow {amount} is off the grid")
    if not abs(sum(maximizer.values()) - d) <= 1e-9 * d:
        bad.append("maximizer does not meet the demand")
    if bad:
        return bad
    at_max = shortest_latency(net, edge_flows(net, maximizer))
    if not abs(at_max - value) <= ORACLE_VALUE_TOL * max(1.0, abs(value)):
        bad.append(f"oracle value {value} != latency {at_max} at its maximizer")
    for path in all_paths(net):
        vertex = shortest_latency(net, edge_flows(net, {path: d}))
        if value < vertex - ORACLE_VALUE_TOL * max(1.0, vertex):
            bad.append(f"oracle value {value} < {vertex} at the vertex on {path}")
    if series_parallel:
        s_z = shortest_latency(net, edge_flows(net, z_path_flow))
        allowance = oracle_slack(net, grid)
        if not value <= s_z + allowance + ORACLE_VALUE_TOL:
            bad.append(f"oracle value {value} > S(z) {s_z} + slack {allowance}")
    return bad


def check_zigzag(net: Net, k: int, z_path_flow: PathFlow, value: float) -> list[str]:
    """Zigzag k: the oracle reaches 1 while the equilibrium's S(z) is 1/k."""
    bad = []
    if not abs(value - 1.0) <= ZIGZAG_TOL:
        bad.append(f"zigzag k={k}: oracle value {value} != 1")
    s_z = shortest_latency(net, edge_flows(net, z_path_flow))
    if not abs(s_z - 1.0 / k) <= ZIGZAG_TOL:
        bad.append(f"zigzag k={k}: S(z) {s_z} != 1/{k}")
    return bad
