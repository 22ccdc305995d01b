"""Equilibrium solvers.

Risk-neutral and mean-variance equilibria minimize the separable Beckmann
potential sum_e integral_0^{f_e} c_e(t) dt, where c_e is the latency plus
gamma times the variance under mean-var. The solver runs a conditional
gradient loop: evaluate edge costs at the current flow, find the cheapest
path (the all-or-nothing direction), then move flow in a pairwise transfer
from the most expensive flow-carrying path onto it. The potential's
directional derivative along a transfer is one polynomial in the step, built
once per transfer, and the step is its root, found by Newton's method inside
a bisection bracket. Pairwise transfers drain dead paths exactly, so the
iterate support stays small and convergence is fast on the instance sizes
this library targets.

Mean-stdev perceived costs are not edge-separable, so no potential exists.
That solver works over the enumerated path set: an active-set Newton method
drives every used path to one common cost, and where Newton makes no
progress a pairwise shift sized by bisection takes its place. It is
certified purely by the reported relative gap.

The relative gap of a flow is (sum_p f_p Q_p - d * min_q Q_q) / (d * min_q Q_q):
zero exactly at equilibrium, and small values certify an epsilon-equilibrium
regardless of how the flow was produced.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

from .network import (
    DEFAULT_PATH_CAP,
    RISK_MEAN_STDEV,
    RISK_MEAN_VAR,
    CostPoly,
    Instance,
    Network,
    edge_flow,
    enumerate_simple_paths,
    path_cost,
    path_latency,
)

RISK_NEUTRAL = "risk-neutral"
OBJECTIVE_MODES = (RISK_NEUTRAL, RISK_MEAN_VAR, RISK_MEAN_STDEV)

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200_000
DEFAULT_TOL_MEANSTDEV = 1e-6
DEFAULT_MEANSTDEV_PATH_CAP = 2_000

#: Iteration ceiling of every line search: the mean-stdev bisection always
#: takes this many steps (2**-60 of the bracket), the Newton search at most.
LINE_SEARCH_STEPS = 60
#: Per-iteration tolerance when asserting the potential never increases.
POTENTIAL_BACKSLIDE_TOL = 1e-12
#: Smallest mean-stdev transfer worth applying, relative to demand.
SHIFT_FLOOR_REL = 1e-12
#: Halvings of the mean-stdev Newton step before the bisection step instead.
BACKTRACK_STEPS = 20

#: Feasibility tolerances, relative to demand.
FLOW_SUM_TOL = 1e-9
EDGE_CONSISTENCY_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """A solve failed: a solver-side invariant broke (potential increased,
    unreachable sink) or the solve stopped short of its tolerance."""


class ConservationError(ValueError):
    """Edge flows do not satisfy flow conservation."""


class ZeroCostPathWarning(UserWarning):
    """Cheapest path cost is zero; relative gap degraded to absolute."""


@dataclass(frozen=True)
class Flow:
    """Explicit path flows plus the edge flows they induce."""

    path_flow: dict[tuple[str, ...], float]
    edge_flow: dict[str, float]
    objective_mode: str

    @classmethod
    def from_paths(
        cls,
        instance: Instance,
        path_flow: Mapping[tuple[str, ...], float],
        mode: str,
    ) -> "Flow":
        if mode not in OBJECTIVE_MODES:
            raise ValueError(f"unknown objective mode {mode!r}")
        clean = {tuple(p): float(v) for p, v in path_flow.items() if v != 0.0}
        if any(v < 0.0 for v in clean.values()):
            raise ValueError("negative path flow")
        total = math.fsum(clean.values())
        if abs(total - instance.demand) > FLOW_SUM_TOL * instance.demand:
            raise ValueError(
                f"path flows sum to {total}, demand is {instance.demand}"
            )
        return cls(
            path_flow=clean,
            edge_flow=edge_flow(clean, instance.network),
            objective_mode=mode,
        )


@dataclass(frozen=True)
class EquilibriumResult:
    """A solver's best flow and why the solver stopped.

    ``stop_reason`` is ``"converged"`` (gap at most the tolerance; under
    mean-stdev, the worst used path's excess over the cheapest too),
    ``"max-iter"`` (iteration budget spent), ``"round-off"`` (the most
    expensive used path is already the cheapest, so the gap left is
    rounding), ``"no-descent"`` (:func:`solve_wardrop`: the line search
    found no step) or ``"shift-floor"`` (:func:`solve_rawe_meanstdev`: Newton
    found no descent and the bisection step fell below ``SHIFT_FLOOR_REL`` of
    the demand); None when the result was not made by a solver.
    """

    flow: Flow
    relative_gap: float
    iterations: int
    converged: bool
    stop_reason: str | None = None


def cost_polynomials(instance: Instance, mode: str) -> dict[str, CostPoly]:
    """Separable per-edge cost under ``mode`` (risk-neutral or mean-var)."""
    if mode == RISK_NEUTRAL:
        return {e.id: e.latency for e in instance.network.edges}
    if mode == RISK_MEAN_VAR:
        g = instance.gamma
        return {
            e.id: e.latency.scaled_plus(e.risk, g) for e in instance.network.edges
        }
    raise ValueError(f"no separable edge cost under mode {mode!r}")


def shortest_path(
    network: Network, costs: Mapping[str, float]
) -> tuple[float, tuple[str, ...]]:
    """Label-setting shortest path under nonnegative edge costs.

    Ties resolve to the lexicographically smallest edge-id sequence, so the
    result is deterministic even with parallel edges. Raises ValueError on a
    negative or NaN cost.
    """
    for eid, c in costs.items():
        if not c >= 0.0:  # also catches NaN
            raise ValueError(f"edge {eid!r} has cost {c}, not a nonnegative number")
    done: set[str] = set()
    heap: list[tuple[float, tuple[str, ...], str]] = [(0.0, (), network.source)]
    while heap:
        dist, path, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        if node == network.sink:
            return dist, path
        for e in network.out_edges.get(node, ()):
            if e.head not in done:
                heapq.heappush(heap, (dist + costs[e.id], path + (e.id,), e.head))
    raise ConvergenceError(f"sink {network.sink!r} unreachable from source")


def potential_value(
    cost_polys: Mapping[str, CostPoly], flows: Mapping[str, float]
) -> float:
    """Beckmann potential sum_e integral_0^{f_e} c_e."""
    return math.fsum(cost_polys[eid].integral(f) for eid, f in flows.items())


def _edge_costs(
    cost_polys: Mapping[str, CostPoly], flows: Mapping[str, float]
) -> dict[str, float]:
    return {eid: cost_polys[eid](flows[eid]) for eid in flows}


def _transfer_derivative(
    polys: Mapping[str, CostPoly],
    flows: Mapping[str, float],
    delta: Mapping[str, float],
) -> CostPoly:
    """The potential's derivative g(t) = sum_e s_e c_e(f_e + s_e t) along a
    transfer that changes each edge flow f_e by s_e t, as one polynomial in t.

    Each edge polynomial is Taylor-shifted to f_e by repeated synthetic
    division, its t**k coefficient scaled by s_e**(k+1), and every
    coefficient summed over the edges with math.fsum.
    """
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


def _newton_step(g: CostPoly, hi: float) -> float:
    """Largest-progress root of a nondecreasing polynomial ``g`` on [0, hi].

    Returns hi when g(hi) <= 0 and 0 when g(0) >= 0; otherwise the largest
    point found with g <= 0 next to the root, to the resolution of
    ``LINE_SEARCH_STEPS`` bisection steps. Newton steps run inside the
    bracket [lo, up], g(lo) <= 0 < g(up); a zero slope or a step that leaves
    the bracket bisects it instead. Newton converging from the right leaves
    ``lo`` behind, so once its step is within the resolution there, the
    search steps down from ``up`` in doubling steps until g <= 0. Rounding
    noise in g near the root moves Newton by more than the resolution, so
    the search also stops when the bracket closes.
    """
    if g(hi) <= 0.0:
        return hi
    value = g(0.0)
    if value >= 0.0:
        return 0.0
    resolution = drop = hi * 2.0**-LINE_SEARCH_STEPS
    lo, up = 0.0, hi
    t = 0.0  # the last point evaluated; g(t) == value
    for _ in range(LINE_SEARCH_STEPS):
        slope = g.derivative(t)
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
        value = g(nxt)
        if value <= 0.0:
            lo = nxt
        else:
            up = nxt
        if up - lo <= resolution:
            break
        t = nxt
    return lo


def _bisect_step(derivative, hi: float) -> float:
    """Largest-progress root of a nondecreasing directional derivative on
    [0, hi] via fixed-step bisection."""
    if derivative(hi) <= 0.0:
        return hi
    if derivative(0.0) >= 0.0:
        return 0.0
    lo = 0.0
    for _ in range(LINE_SEARCH_STEPS):
        mid = 0.5 * (lo + hi)
        if derivative(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def solve_wardrop(
    instance: Instance,
    mode: str = RISK_NEUTRAL,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> EquilibriumResult:
    """Wardrop equilibrium under a separable cost (risk-neutral or mean-var).

    Returns once the relative gap drops to ``tol``; otherwise returns the best
    iterate seen with ``converged=False``. The Beckmann potential is asserted
    to be non-increasing across iterations.
    """
    if mode not in (RISK_NEUTRAL, RISK_MEAN_VAR):
        raise ValueError(f"solve_wardrop handles risk-neutral/mean-var, not {mode!r}")
    if mode == RISK_MEAN_VAR and instance.risk_model != RISK_MEAN_VAR:
        raise ValueError(
            f"instance risk model is {instance.risk_model!r}; "
            "mean-var equilibria need a mean-var instance"
        )
    net = instance.network
    d = instance.demand
    polys = cost_polynomials(instance, mode)

    # all-or-nothing start on the cheapest empty-network path
    zero_flows = {e.id: 0.0 for e in net.edges}
    _, first = shortest_path(net, _edge_costs(polys, zero_flows))
    paths: dict[tuple[str, ...], float] = {first: d}
    flows = edge_flow(paths, net)
    phi = potential_value(polys, flows)

    best_gap = math.inf
    best_paths = dict(paths)
    best_zero_floor = False
    gap = math.inf
    iterations = 0
    stop_reason = "max-iter"

    for iterations in range(max_iter + 1):
        costs = _edge_costs(polys, flows)
        sp_cost, sp_path = shortest_path(net, costs)
        path_costs = {
            p: math.fsum(costs[eid] for eid in p) for p in paths
        }
        total = math.fsum(paths[p] * c for p, c in path_costs.items())
        gap, zero_floor = _gap_quiet(total, d, sp_cost)
        if gap < best_gap:
            best_gap = gap
            best_paths = dict(paths)
            best_zero_floor = zero_floor
        if gap <= tol:
            if zero_floor:
                _warn_zero_floor()
            flow = Flow.from_paths(instance, paths, mode)
            return EquilibriumResult(flow, gap, iterations, True, "converged")
        if iterations == max_iter:
            break

        # most expensive flow-carrying path; ties to the lexicographically
        # largest path so the choice is deterministic
        worst = max(paths, key=lambda p: (path_costs[p], p))
        if worst == sp_path:
            # single used path already cheapest; gap>tol must be round-off
            stop_reason = "round-off"
            break
        shed = {eid: -1.0 for eid in worst}
        for eid in sp_path:
            shed[eid] = shed.get(eid, 0.0) + 1.0
        delta = {eid: s for eid, s in shed.items() if s != 0.0}
        step = _newton_step(_transfer_derivative(polys, flows, delta), paths[worst])
        if step <= 0.0:
            stop_reason = "no-descent"
            break
        paths[worst] -= step
        if paths[worst] <= 0.0:
            del paths[worst]
        paths[sp_path] = paths.get(sp_path, 0.0) + step
        flows = edge_flow(paths, net)
        new_phi = potential_value(polys, flows)
        if new_phi > phi + POTENTIAL_BACKSLIDE_TOL * max(1.0, abs(phi)):
            raise ConvergenceError(
                f"potential increased from {phi} to {new_phi} at iteration {iterations}"
            )
        phi = new_phi

    if best_zero_floor:
        _warn_zero_floor()
    flow = Flow.from_paths(instance, best_paths, mode)
    return EquilibriumResult(flow, best_gap, iterations, False, stop_reason)


def _gap_quiet(total: float, demand: float, min_cost: float) -> tuple[float, bool]:
    floor = demand * min_cost
    excess = total - floor
    if excess < 0.0:  # round-off; the certificate can never be negative
        excess = 0.0
    if floor <= 0.0:
        return excess, True
    return excess / floor, False


def _warn_zero_floor() -> None:
    warnings.warn(
        "cheapest path has zero cost; reporting absolute gap",
        ZeroCostPathWarning,
        stacklevel=3,
    )


def _gap_from(total: float, demand: float, min_cost: float) -> float:
    gap, zero_floor = _gap_quiet(total, demand, min_cost)
    if zero_floor:
        _warn_zero_floor()
    return gap


def mode_path_cost(
    instance: Instance, flows: Mapping[str, float], path: Sequence[str], mode: str
) -> float:
    """Cost of ``path`` under ``mode``: its latency when risk-neutral, its
    perceived cost under the instance's risk model otherwise."""
    if mode == RISK_NEUTRAL:
        return path_latency(instance.network, flows, path)
    return path_cost(instance, flows, path)


def cheapest_path(
    instance: Instance, flows: Mapping[str, float], mode: str
) -> tuple[float, tuple[str, ...]]:
    """Cheapest source->sink path under ``mode`` at the given edge flows, with
    its :func:`mode_path_cost`.

    Risk-neutral and mean-var costs are edge-separable, so the cheapest path
    is a :func:`shortest_path` on the mode's edge costs. The mean-stdev risk
    sqrt(sum_e sigma_e**2) is not, so that mode takes the lexicographic
    minimum over every simple path (PathCountError beyond DEFAULT_PATH_CAP).
    ``mode`` must be risk-neutral or the instance's risk model.
    """
    if mode == RISK_NEUTRAL or mode == instance.risk_model == RISK_MEAN_VAR:
        costs = _edge_costs(cost_polynomials(instance, mode), flows)
        _, path = shortest_path(instance.network, costs)
        return mode_path_cost(instance, flows, path, mode), path
    if mode == instance.risk_model == RISK_MEAN_STDEV:
        paths = enumerate_simple_paths(instance.network, cap=DEFAULT_PATH_CAP)
        return min((path_cost(instance, flows, p), p) for p in paths)
    raise ValueError(f"no {mode!r} path costs on a {instance.risk_model!r} instance")


def relative_gap(instance: Instance, flow: Flow, mode: str | None = None) -> float:
    """Equilibrium certificate for ``flow`` under ``mode`` (defaults to the
    flow's own objective mode)."""
    mode = mode or flow.objective_mode
    flows = flow.edge_flow
    min_cost, _ = cheapest_path(instance, flows, mode)
    total = math.fsum(
        amount * mode_path_cost(instance, flows, p, mode)
        for p, amount in flow.path_flow.items()
    )
    return _gap_from(total, instance.demand, min_cost)


def solve_rawe_meanstdev(
    instance: Instance,
    tol: float = DEFAULT_TOL_MEANSTDEV,
    max_iter: int = DEFAULT_MAX_ITER,
) -> EquilibriumResult:
    """Risk-averse equilibrium under mean-stdev perceived costs.

    An active-set Newton method on the used paths. Each iteration takes the
    support S, the used paths plus the cheapest path, made independent by
    :func:`_independent_support`, and solves the linearized equal-cost system
    Q_S + J dx = lambda * 1, sum(dx) = d - sum(x_S) for the flows on S
    (:func:`_newton_iterate`). When Newton finds no step that lowers the
    merit (relative gap plus the worst used path's excess over the cheapest),
    as when J is singular, the iteration instead moves flow from the most
    expensive used path onto the cheapest until their costs cross, sizing
    the shift by bisection. The solve stops once the gap and the excess are
    both at most ``tol``; the returned relative gap is the certificate, and
    an unconverged solve returns the iterate of least merit.
    """
    if instance.risk_model != RISK_MEAN_STDEV:
        raise ValueError(
            f"instance risk model is {instance.risk_model!r}; expected mean-stdev"
        )
    pool = _PathPool(instance)
    d = instance.demand
    zero_flows = {e.id: 0.0 for e in instance.network.edges}
    start = min(pool.paths, key=lambda p: (path_cost(instance, zero_flows, p), p))
    it = best_it = pool.evaluate({start: d})
    shift_floor = SHIFT_FLOOR_REL * d
    iterations = 0
    stop_reason = "max-iter"

    for iterations in range(max_iter + 1):
        if it.merit < best_it.merit:
            best_it = it
        if it.gap <= tol and it.excess <= tol:
            if it.zero_floor:
                _warn_zero_floor()
            flow = Flow.from_paths(instance, it.paths, RISK_MEAN_STDEV)
            return EquilibriumResult(flow, it.gap, iterations, True, "converged")
        if iterations == max_iter:
            break

        it, support = _independent_support(pool, it)
        worst = max(it.paths, key=lambda p: (it.costs[p], p))
        if worst == it.best:
            stop_reason = "round-off"
            break
        nxt = _newton_iterate(pool, it, support)
        if nxt is None:
            step = _pairwise_step(instance, it, worst)
            if step < shift_floor:
                stop_reason = "shift-floor"
                break
            paths = dict(it.paths)
            paths[worst] -= step
            if paths[worst] <= 0.0:
                del paths[worst]
            paths[it.best] = paths.get(it.best, 0.0) + step
            nxt = pool.evaluate(paths)
        it = nxt

    if best_it.zero_floor:
        _warn_zero_floor()
    flow = Flow.from_paths(instance, best_it.paths, RISK_MEAN_STDEV)
    return EquilibriumResult(flow, best_it.gap, iterations, False, stop_reason)


@dataclass(frozen=True)
class _StdevIterate:
    """A mean-stdev path flow with every path's perceived cost, the cheapest
    path, and two certificates: the relative gap, and the worst used path's
    excess over the cheapest, relative (absolute when the cheapest costs 0)."""

    paths: dict[tuple[str, ...], float]
    flows: dict[str, float]
    costs: dict[tuple[str, ...], float]
    best: tuple[str, ...]
    gap: float
    excess: float
    zero_floor: bool

    @property
    def merit(self) -> float:
        return self.gap + self.excess


class _PathPool:
    """The enumerated paths of one mean-stdev instance and the evaluation of
    path flows on them."""

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self.edges = instance.network.edges
        self.paths = enumerate_simple_paths(
            instance.network, cap=DEFAULT_MEANSTDEV_PATH_CAP
        )

    def evaluate(self, paths: dict[tuple[str, ...], float]) -> _StdevIterate:
        instance = self.instance
        flows = edge_flow(paths, instance.network)
        lat = {e.id: e.latency(flows[e.id]) for e in self.edges}
        var = {e.id: e.risk(flows[e.id]) ** 2 for e in self.edges}
        gamma = instance.gamma
        costs = {
            p: math.fsum(lat[eid] for eid in p)
            + gamma * math.sqrt(math.fsum(var[eid] for eid in p))
            for p in self.paths
        }
        best = min(self.paths, key=lambda p: (costs[p], p))
        total = math.fsum(amount * costs[p] for p, amount in paths.items())
        gap, zero_floor = _gap_quiet(total, instance.demand, costs[best])
        excess, _ = _gap_quiet(max(costs[p] for p in paths), 1.0, costs[best])
        return _StdevIterate(paths, flows, costs, best, gap, excess, zero_floor)


def _path_dependency(paths: Sequence[tuple[str, ...]]) -> list[int] | None:
    """Integer weights w, not all zero, with sum_i w_i * (edge incidence
    vector of ``paths[i]``) = 0, or None when those vectors are independent.

    Fraction-free Gaussian elimination, exact on 0/1 vectors: each path's
    vector is reduced against the pivots found so far, carrying its weights
    along, and a vector reduced to zero gives the dependency.
    """
    pivots: list[tuple[str, dict[str, int], dict[int, int]]] = []
    for i, path in enumerate(paths):
        vec = dict.fromkeys(path, 1)
        weights = {i: 1}
        for edge, pivot_vec, pivot_weights in pivots:
            a = vec.get(edge, 0)
            if a:
                b = pivot_vec[edge]
                vec = _combine(b, vec, -a, pivot_vec)
                weights = _combine(b, weights, -a, pivot_weights)
        if not vec:
            return [weights.get(j, 0) for j in range(len(paths))]
        pivots.append((min(vec), vec, weights))
    return None


def _combine(a: int, u: dict, b: int, v: dict) -> dict:
    """The sparse vector a*u + b*v without its zero entries."""
    out = {k: a * x for k, x in u.items()}
    for k, y in v.items():
        out[k] = out.get(k, 0) + b * y
    return {k: x for k, x in out.items() if x}


def _independent_support(
    pool: _PathPool, it: _StdevIterate
) -> tuple[_StdevIterate, list[tuple[str, ...]]]:
    """The Newton support of ``it``: its used paths and its cheapest path,
    with linearly independent edge-incidence vectors.

    Mean-stdev costs are not separable, so path flows with the same edge
    flows are not interchangeable, and a dependent support makes the Newton
    system singular. Moving flow along a dependency keeps every edge flow,
    and so every path cost, while the total cost sum_p x_p Q_p changes
    linearly. Each dependency is oriented so that the total does not rise
    (bringing the cheapest path in on a tie) and followed until a path's
    flow reaches zero, which takes that path out. Two distinct paths are
    always independent. Returns the iterate after these moves and the
    support, in lexicographic order.
    """
    support = sorted({*it.paths, it.best})
    paths = dict(it.paths)
    while len(support) > 2:
        weights = _path_dependency(support)
        if weights is None:
            break
        change = math.fsum(w * it.costs[p] for p, w in zip(support, weights))
        lead = weights[support.index(it.best)] if it.best in support else 0
        if change > 0.0 or (change == 0.0 and lead < 0):
            weights = [-w for w in weights]
        flow = [paths.get(p, 0.0) for p in support]
        # the first path to run dry along the dependency, and the step to it
        step, out = min((flow[i] / -w, i) for i, w in enumerate(weights) if w < 0)
        if step > 0.0:
            for i, (p, w) in enumerate(zip(support, weights)):
                if w:
                    paths[p] = 0.0 if i == out else flow[i] + step * w
            paths = {p: v for p, v in paths.items() if v > 0.0}
        del support[out]
    if paths != it.paths:
        it = pool.evaluate(paths)
    return it, support


def _solve_linear(matrix: list[list[float]], rhs: list[float]) -> list[float] | None:
    """Solution of a square linear system by Gaussian elimination with
    partial pivoting; None when a pivot is zero or the solution not finite."""
    n = len(rhs)
    rows = [row + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        top = max(range(col, n), key=lambda r: abs(rows[r][col]))
        if rows[top][col] == 0.0:
            return None
        rows[col], rows[top] = rows[top], rows[col]
        pivot = rows[col]
        for row in rows[col + 1 :]:
            factor = row[col] / pivot[col]
            if factor:
                for c in range(col, n + 1):
                    row[c] -= factor * pivot[c]
    x = [0.0] * n
    for r in reversed(range(n)):
        row = rows[r]
        x[r] = (row[n] - sum(row[c] * x[c] for c in range(r + 1, n))) / row[r]
    return x if all(map(math.isfinite, x)) else None


def _newton_iterate(
    pool: _PathPool, it: _StdevIterate, support: list[tuple[str, ...]]
) -> _StdevIterate | None:
    """One damped active-set Newton step on ``support``, or None when the
    equal-cost system is singular or no step lowers the merit.

    The path Jacobian is dQ_p/dx_q = sum over e in p and q of
    l_e'(f_e) + gamma * s_e(f_e) * s_e'(f_e) / s_p, with l_e the latency,
    s_e the edge risk and s_p the path's root-sum-square risk (the second
    term is 0 on a riskless path). A path whose Newton target is negative is
    fixed at zero, its flow redistributed through its Jacobian column, and
    the system solved again. The step towards the target is then halved
    until the merit falls, at most ``BACKTRACK_STEPS`` times.
    """
    instance = pool.instance
    emap = instance.network.edge_map
    gamma = instance.gamma
    slope: dict[str, float] = {}
    curvature: dict[str, float] = {}
    var: dict[str, float] = {}
    for eid in {eid for p in support for eid in p}:
        edge, f = emap[eid], it.flows[eid]
        risk = edge.risk(f)
        slope[eid] = edge.latency.derivative(f)
        curvature[eid] = gamma * risk * edge.risk.derivative(f)
        var[eid] = risk * risk
    edge_sets = [set(p) for p in support]
    jac = []
    for p, p_edges in zip(support, edge_sets):
        sigma = math.sqrt(math.fsum(var[eid] for eid in p))
        row = []
        for q_edges in edge_sets:
            shared = p_edges & q_edges
            value = math.fsum(slope[eid] for eid in shared)
            if sigma > 0.0:
                value += math.fsum(curvature[eid] for eid in shared) / sigma
            row.append(value)
        jac.append(row)

    now = [it.paths.get(p, 0.0) for p in support]
    free = list(range(len(support)))
    while True:
        fixed = [j for j in range(len(support)) if j not in free]
        matrix = [[jac[i][j] for j in free] + [-1.0] for i in free]
        matrix.append([1.0] * len(free) + [0.0])
        rhs = [
            math.fsum(jac[i][j] * now[j] for j in fixed) - it.costs[support[i]]
            for i in free
        ]
        rhs.append(instance.demand - math.fsum(now[i] for i in free))
        solution = _solve_linear(matrix, rhs)
        if solution is None:
            return None
        target = [now[i] + dx for i, dx in zip(free, solution)]
        low = min(range(len(free)), key=target.__getitem__)
        if target[low] >= 0.0:
            break
        del free[low]
    goal = [0.0] * len(support)
    for i, v in zip(free, target):
        goal[i] = v

    t = 1.0
    for _ in range(BACKTRACK_STEPS):
        trial = {}
        for p, a, b in zip(support, now, goal):
            v = (1.0 - t) * a + t * b
            if v > 0.0:
                trial[p] = v
        nxt = pool.evaluate(trial)
        if nxt.merit < it.merit:
            return nxt
        t *= 0.5
    return None


def _pairwise_step(
    instance: Instance, it: _StdevIterate, worst: tuple[str, ...]
) -> float:
    """Flow to move from ``worst`` onto the cheapest path so that their costs
    just cross, found by bisection on [0, flow on ``worst``]."""
    emap = instance.network.edge_map
    gamma = instance.gamma
    flows = it.flows
    worst_set = set(worst)
    best_set = set(it.best)
    # (latency, risk, base flow, +1/-1/0 response to the shift) per edge
    best_terms = [
        (emap[eid].latency, emap[eid].risk, flows[eid], 1.0 if eid not in worst_set else 0.0)
        for eid in it.best
    ]
    worst_terms = [
        (emap[eid].latency, emap[eid].risk, flows[eid], -1.0 if eid not in best_set else 0.0)
        for eid in worst
    ]

    def _q(terms, step: float) -> float:
        lat = 0.0
        var = 0.0
        for latency, risk, base, sign in terms:
            f = base + sign * step
            lat += latency(f)
            var += risk(f) ** 2
        return lat + gamma * math.sqrt(var)

    def cost_delta(step: float) -> float:
        # Q(best) - Q(worst) after moving ``step`` from worst to best
        return _q(best_terms, step) - _q(worst_terms, step)

    return _bisect_step(cost_delta, it.paths[worst])


def solve_rawe(
    instance: Instance,
    tol: float | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
) -> EquilibriumResult:
    """Risk-averse equilibrium under the instance's own risk model."""
    if instance.risk_model == RISK_MEAN_VAR:
        return solve_wardrop(
            instance, RISK_MEAN_VAR, tol if tol is not None else DEFAULT_TOL, max_iter
        )
    return solve_rawe_meanstdev(
        instance, tol if tol is not None else DEFAULT_TOL_MEANSTDEV, max_iter
    )


def solve_rnwe(
    instance: Instance,
    tol: float | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
) -> EquilibriumResult:
    """Risk-neutral equilibrium (latency-only costs)."""
    return solve_wardrop(
        instance, RISK_NEUTRAL, tol if tol is not None else DEFAULT_TOL, max_iter
    )


def solve_pair(
    instance: Instance,
    tol: float | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[EquilibriumResult, EquilibriumResult]:
    """Risk-averse and risk-neutral equilibria, both converged.

    Raises ConvergenceError naming the first of the two solves that stopped
    short of its tolerance.
    """
    x = solve_rawe(instance, tol=tol, max_iter=max_iter)
    z = solve_rnwe(instance, tol=tol, max_iter=max_iter)
    for label, result in (("risk-averse", x), ("risk-neutral", z)):
        if not result.converged:
            raise ConvergenceError(
                f"{label} solver stopped at gap {float(result.relative_gap)!r} "
                f"after {result.iterations} iterations ({result.stop_reason})"
            )
    return x, z


def decompose_edge_flow(
    paths: Sequence[tuple[str, ...]], flows: Mapping[str, float]
) -> dict[tuple[str, ...], float]:
    """Path decomposition of a conserved edge flow on an acyclic network.

    ``paths`` must be every source->sink path in lexicographic order, as
    :func:`enumerate_simple_paths` returns them. One greedy pass routes the
    bottleneck of each path in turn, which is the lexicographically first
    path with flow left, since every path passed keeps an edge at zero. So a
    conserved flow is used up; when an edge is left with more than 1e-10 *
    max(1, d) either way (d the largest edge flow), the flow was negative or
    not conserved and ConservationError is raised. Integer flows decompose
    into integer amounts.
    """
    residual = dict(flows)
    scale = max([1.0, *residual.values()])
    floor = SHIFT_FLOOR_REL * scale
    out: dict[tuple[str, ...], float] = {}
    for path in paths:
        amount = min(map(residual.__getitem__, path))
        if amount > floor:
            out[path] = amount
            for eid in path:
                residual[eid] -= amount
    leftover = max(map(abs, residual.values()), default=0.0)
    if leftover > 1e-10 * scale:
        raise ConservationError(f"decomposition left residual {leftover} on some edge")
    return out
