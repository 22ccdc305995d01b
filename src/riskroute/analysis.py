"""Price-of-risk-aversion reports, bound checks, and the shortest-path oracle.

The report compares a solved risk-averse flow x with a solved risk-neutral
flow z. Its headline number is pra = C(x)/C(z), the ratio of social costs.
Every bound the library knows is evaluated as a named (lhs, rhs) pair with a
pass flag; checks marked unproven are reported but never treated as failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .alternating import (
    BACKWARD,
    CLASSIFY_EPS_REL,
    FORWARD,
    eta_ceiling,
    find_alternating_path,
    theoretical_pra_bound,
)
from .network import (
    RISK_MEAN_STDEV,
    RISK_MEAN_VAR,
    Edge,
    Instance,
    Network,
    PathCountError,
    _has_cycle,
    is_braess_topology,
    is_series_parallel,
    poly_value,
)
from .solvers import RISK_NEUTRAL, EquilibriumResult, _sweep_path

#: Relative slack when judging lhs <= rhs under solver round-off.
CHECK_REL_SLACK = 1e-6
CHECK_ABS_SLACK = 1e-12

DEFAULT_ORACLE_GRID = 100
DEFAULT_ORACLE_MAX_PATHS = 6


#: An edge table at one flow: each edge's latency and risk (lists by edge
#: position), the social cost and kappa.
_EdgeTable = tuple[list[float], list[float], float, float]


def _edge_table(network: Network, flows: Mapping[str, float]) -> _EdgeTable:
    """Each edge's latency and risk at the given flows, the social cost
    sum_e f_e * latency_e(f_e) and kappa, the largest edge ratio
    risk/latency, in one pass over the edges in declaration order.

    The polynomials are evaluated by :func:`poly_value`, and the social cost
    is the builtin sum of its terms in edge order: the library's one social
    cost, which ``riskroute solve`` prints too. Kappa counts 0/0 as 0 and
    positive risk over zero latency as infinite."""
    position = network.edge_position
    lat, risk = [0.0] * len(position), [0.0] * len(position)
    terms = []
    kappa = 0.0
    for e in network.edges:
        f = flows[e.id]
        a, b = poly_value(e.latency, f), poly_value(e.risk, f)
        pos = position[e.id]
        lat[pos], risk[pos] = a, b
        terms.append(a * f)
        if a > 0.0:
            ratio = b / a
            if ratio > kappa:
                kappa = ratio
        elif b > 0.0:
            kappa = math.inf
    return lat, risk, sum(terms), kappa


# --- named bound checks -----------------------------------------------------


def within(lhs: float, rhs: float, allowance: float = 0.0) -> bool:
    """True when lhs <= rhs up to solver round-off: ``CHECK_REL_SLACK`` of
    rhs, ``CHECK_ABS_SLACK`` and ``allowance``. Every check of a report and
    every oracle verdict is judged by this rule."""
    return lhs <= rhs * (1.0 + CHECK_REL_SLACK) + CHECK_ABS_SLACK + allowance


class BoundCheck(NamedTuple):
    """One named bound check of a report: lhs <= rhs, judged by
    :func:`within`. An immutable named tuple."""

    name: str
    lhs: float
    rhs: float
    passed: bool
    proven: bool = True
    skipped: bool = False
    note: str = ""


def _min_risk_path(instance: Instance, risks: list[float]) -> tuple[int, ...]:
    """Least-risk source->sink path, as edge positions, at the edge risks
    listed by position: a shortest path on them, or on their squares under
    mean-stdev, whose path risk is the monotone square root of that sum."""
    if instance.risk_model == RISK_MEAN_STDEV:
        risks = [r * r for r in risks]
    return _sweep_path(instance.network, risks)[1]


@dataclass(frozen=True)
class PraReport:
    """A solved pair's price of risk aversion, its bounds and its checks, as
    :func:`pra_report` makes it. ``checks`` is the only list of checks:
    ``failed`` and ``ok`` read it."""

    instance_name: str
    risk_model: str
    gamma: float
    cost_rnwe: float
    cost_rawe: float
    pra: float
    kappa: float
    kappa_diagnostic: float
    eta: int
    bound_eta: float
    bound_worstcase: float
    rho: float
    bound_rho: float
    alternating_arcs: tuple[tuple[str, str], ...]
    checks: tuple[BoundCheck, ...]
    gap_rnwe: float
    gap_rawe: float
    degenerate: bool

    @property
    def failed(self) -> tuple[str, ...]:
        """Names of the proven, evaluated checks that failed, in report order."""
        return tuple(c.name for c in self.checks if c.proven and not (c.skipped or c.passed))

    @property
    def ok(self) -> bool:
        """True when every proven, evaluated check passed."""
        return not self.failed


def pra_report(
    instance: Instance,
    x_result: EquilibriumResult,
    z_result: EquilibriumResult,
) -> PraReport:
    """Full certificate for a solved instance pair.

    Both results must be converged; the risk-averse result under the
    instance's risk model and the risk-neutral one under latency costs,
    else ValueError. The alternating path compares their edge flows by
    position at ``CLASSIFY_EPS_REL`` times the demand, and ids come back
    once, in ``alternating_arcs``. The report reads the results'
    edge flows and their own certificates (``min_path_cost``,
    ``deviation``), and prices no path: S(z) is z's ``min_path_cost``.
    Each flow's edge latencies and risks, social cost and kappa come from
    one pass over the edges (:func:`_edge_table`), which prices each cost
    polynomial once by :func:`poly_value`. The checks are
    :class:`BoundCheck` rows, immutable named tuples.

    The checks come from one table, in report order. A row gives a check's
    name, whether it applies to the instance, whether it is free of kappa,
    lhs and rhs, the factors of x's and z's ``deviation`` in its round-off
    allowance, and whether its bound is proven; :func:`within` judges it. A
    check that does not apply is left out, except that every check but the
    first is listed as skipped when the risk-neutral cost is zero. Checks
    that scale by kappa are skipped when it is infinite, and the rho bound
    when rho is undefined.

    The chain proofs apply one equilibrium inequality per forward run of the
    alternating path, so approximate equilibria can miss by eta times the
    worst used-path deviation (demand-scaled, like the compared costs).
    """
    if not (x_result.converged and z_result.converged):
        raise ValueError("pra_report needs converged equilibria on both sides")
    x, z = x_result.flow, z_result.flow
    for flow, mode in ((x, instance.risk_model), (z, RISK_NEUTRAL)):
        if flow.objective_mode != mode:
            raise ValueError(
                f"pra_report needs a {mode!r} equilibrium, got {flow.objective_mode!r}"
            )
    net, d = instance.network, instance.demand
    lat_x, risk_x, cost_x, kappa = _edge_table(net, x.edge_flow)
    lat_z, _, cost_z, kappa_z = _edge_table(net, z.edge_flow)
    kappa_diag = max(kappa, kappa_z)
    gk = instance.gamma * kappa
    one_gk, two_gk = 1.0 + gk, 1.0 + 2.0 * gk

    ids = tuple(net.edge_position)
    flows = ([flow.edge_flow[eid] for eid in ids] for flow in (x, z))
    path = find_alternating_path(net, *flows, CLASSIFY_EPS_REL * d)
    eta = path.forward_runs

    degenerate = not cost_z > 0.0
    pra = cost_x / cost_z if not degenerate else math.nan
    s_x = _sweep_path(net, lat_x)[0]
    s_z = z_result.min_path_cost
    rho = s_x / s_z if s_z > 0.0 else math.nan

    bound_eta = theoretical_pra_bound(instance.gamma, kappa, eta)
    bound_worst = theoretical_pra_bound(instance.gamma, kappa, eta_ceiling(net))
    bound_rho = one_gk * rho if not math.isinf(kappa) and math.isfinite(rho) else math.nan

    mean_var = instance.risk_model == RISK_MEAN_VAR
    stdev = instance.risk_model == RISK_MEAN_STDEV
    braess = is_braess_topology(net)
    # Under mean-stdev the alternating chain holds only on the Braess
    # topology, where the root-sum-square risk does not break it.
    alternating = mean_var or braess
    eta_proven = mean_var or path.all_forward or braess
    all_forward = stdev and path.all_forward
    fwd_x, bwd_x, fwd_z, bwd_z = (
        math.fsum(lat[pos] for pos, direction in path.arcs if direction == side)
        for lat in (lat_x, lat_z)
        for side in (FORWARD, BACKWARD)
    )
    # The path sums are per unit of flow and bound the common equilibrium
    # path cost, so every chain value carries the demand factor.
    chain_x = d * (one_gk * fwd_x - bwd_x)
    chain_z = d * (one_gk * fwd_z - bwd_z)
    chain_mid = cost_z + gk * d * fwd_z
    least_risk = d * sum(map(lat_x.__getitem__, _min_risk_path(instance, risk_x)))
    rows = (
        ("rawe-cost-le-min-path-cost", True, True, cost_x, d * x_result.min_path_cost,
         0.0, 0.0, True),
        ("rawe-cost-le-scaled-latency", True, False, cost_x, d * one_gk * s_x, 0.0, 0.0, True),
        ("rawe-cost-le-min-risk-path-latency", True, True, cost_x, least_risk, 0.0, 0.0, True),
        ("alternating-rawe-bound", alternating, False, cost_x, chain_x, 2.0, 0.0, True),
        ("chain-monotone-link", alternating, False, chain_x, chain_z, 0.0, 0.0, True),
        ("chain-rnwe-link", alternating, False, chain_z, chain_mid, 0.0, 1.0, True),
        ("chain-eta-link", alternating, False, chain_mid, bound_eta * cost_z, 0.0, gk, True),
        ("alternating-rnwe-bound", True, True, d * (fwd_z - bwd_z), cost_z, 0.0, 1.0, True),
        ("pra-eta-bound", True, False, cost_x, bound_eta * cost_z, 2.0, one_gk, eta_proven),
        ("pra-worstcase-bound", True, False, cost_x, bound_worst * cost_z, 2.0, one_gk, eta_proven),
        ("pra-rho-bound", True, False, cost_x, bound_rho * cost_z, 0.0, 0.0, True),
        ("stdev-all-forward-bound", all_forward, False, cost_x, one_gk * cost_z, 2.0, one_gk, True),
        ("braess-stdev-bound", stdev and braess, False, cost_x, two_gk * cost_z, 2.0, two_gk, True),
    )
    checks = []
    for name, applies, kappa_free, lhs, rhs, fx, fz, proven in rows:
        if degenerate and name != "rawe-cost-le-min-path-cost":
            note = "risk-neutral cost is zero"
        elif not applies:
            continue
        elif math.isinf(kappa) and not kappa_free:
            note = "kappa is infinite"
        elif name == "pra-rho-bound" and not math.isfinite(rho):
            note = "rho is undefined"
        else:
            allowance = d * eta * (fx * x_result.deviation + fz * z_result.deviation)
            passed = within(lhs, rhs, allowance)
            note = "" if proven else "unproven bound"
            checks.append(BoundCheck(name, lhs, rhs, passed, proven, note=note))
            continue
        checks.append(BoundCheck(name, math.nan, math.nan, True, skipped=True, note=note))
    return PraReport(
        instance_name=instance.name,
        risk_model=instance.risk_model,
        gamma=instance.gamma,
        cost_rnwe=cost_z,
        cost_rawe=cost_x,
        pra=pra,
        kappa=kappa,
        kappa_diagnostic=kappa_diag,
        eta=eta,
        bound_eta=bound_eta,
        bound_worstcase=bound_worst,
        rho=rho,
        bound_rho=bound_rho,
        alternating_arcs=tuple((ids[pos], direction) for pos, direction in path.arcs),
        checks=tuple(checks),
        gap_rnwe=z_result.relative_gap,
        gap_rawe=x_result.relative_gap,
        degenerate=degenerate,
    )


def _jsonable(value: float) -> float | str:
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # 'inf' / 'nan'
    return value


def report_to_dict(report: PraReport) -> dict:
    """JSON-ready view of a report (non-finite numbers become strings)."""
    return {
        "instance": report.instance_name,
        "risk_model": report.risk_model,
        "gamma": report.gamma,
        "cost_rnwe": report.cost_rnwe,
        "cost_rawe": report.cost_rawe,
        "pra": _jsonable(report.pra),
        "kappa": _jsonable(report.kappa),
        "kappa_diagnostic": _jsonable(report.kappa_diagnostic),
        "eta": report.eta,
        "bound_eta": _jsonable(report.bound_eta),
        "bound_worstcase": _jsonable(report.bound_worstcase),
        "rho": _jsonable(report.rho),
        "bound_rho": _jsonable(report.bound_rho),
        "alternating_path": [
            {"edge": eid, "direction": direction}
            for eid, direction in report.alternating_arcs
        ],
        "gap_rnwe": report.gap_rnwe,
        "gap_rawe": report.gap_rawe,
        "degenerate": report.degenerate,
        "ok": report.ok,
        "checks": [
            {
                "name": c.name,
                "lhs": _jsonable(c.lhs),
                "rhs": _jsonable(c.rhs),
                "passed": c.passed,
                "proven": c.proven,
                "skipped": c.skipped,
                "note": c.note,
            }
            for c in report.checks
        ],
    }


# --- Braess sigma inequality -------------------------------------------------


#: Violations smaller than this are round-off, not counterexamples.
SIGMA_SLACK = 1e-9


def braess_stdev_inequality_batch(
    sigmas: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The path-stdev inequality on the Braess labeling (a: s->u, b: u->t,
    c: s->w, d: w->t, e: u->w), over an (N, 5) array of sigma rows (a, b, c,
    d, e); returns (precondition mask, lhs, rhs, holds mask).

    With route stdevs sigma_p = hypot(a, b), sigma_q = hypot(c, d) and
    sigma_r = sqrt(a^2 + e^2 + d^2), the claim sigma_p + sigma_q - sigma_r
    <= sigma_b + sigma_c holds whenever the zigzag route is not the riskiest
    (sigma_r <= max(sigma_p, sigma_q)). The precondition is tested in its
    cancelled form, a^2 + e^2 <= c^2 or e^2 + d^2 <= b^2, so that a sigma
    too small to change sigma_r after rounding still counts; a row holds
    when lhs <= rhs + ``SIGMA_SLACK``."""
    s = np.asarray(sigmas, dtype=float)
    if s.ndim != 2 or s.shape[1] != 5:
        raise ValueError("expected an (N, 5) array of sigma values")
    sa, sb, sc, sd, se = (s[:, i] for i in range(5))
    sp = np.hypot(sa, sb)
    sq = np.hypot(sc, sd)
    sr = np.sqrt(sa**2 + se**2 + sd**2)
    precondition = (sa**2 + se**2 <= sc**2) | (se**2 + sd**2 <= sb**2)
    lhs, rhs = sp + sq - sr, sb + sc
    return precondition, lhs, rhs, lhs <= rhs + SIGMA_SLACK


# --- shortest-path maximizer: series-parallel fold, branch-and-bound on the rest --


@dataclass(frozen=True)
class OracleResult:
    value: float
    path_flow: dict[tuple[str, ...], float]
    grid: int
    points: int
    series_parallel: bool


#: Most lattice points the search holds in one block, so the oracle's
#: memory does not grow with the number of points.
_BLOCK_POINTS = 1 << 16

#: The search drops a partial flow only when its bound is below the threshold
#: by more than this share of the threshold, so that round-off in a bound
#: cannot drop a maximizer.
_PRUNE_MARGIN = 1e-9


def _split(partial: np.ndarray, rest: int, col: int):
    """Yield, in blocks of at most _BLOCK_POINTS columns, every point of
    ``partial`` expanded into one point per amount from 0 up to its value in
    row ``rest``, in that order, the amount moved to row ``col``."""
    counts = partial[rest] + 1
    ends = counts.cumsum()
    starts = ends - counts
    total = int(ends[-1])
    for lo in range(0, total, _BLOCK_POINTS):
        # how many of the outputs lo, lo + 1, ... each input point makes
        reps = counts
        if total > _BLOCK_POINTS:
            hi = lo + _BLOCK_POINTS
            reps = (np.minimum(ends, hi) - np.maximum(starts, lo)).clip(0)
        block = partial.repeat(reps, axis=1)
        taken = np.arange(lo, lo + block.shape[1]) - starts.repeat(reps)
        block[col] = taken
        block[rest] -= taken
        yield block


def _flow_lattice(partial: np.ndarray, ops: list, prune, start: int = 0):
    """Yield, in blocks of at most _BLOCK_POINTS columns, every completion of
    the partial integer flows ``partial`` (one column per point, one row per
    edge) by ``ops[start:]`` that survives ``prune``.

    An op ``(rest, ins, col)`` either sets row ``rest`` to the sum of the
    rows ``ins`` (a node's inflow, parked on its last out-edge), or, when
    ``ins`` is None, splits every point by :func:`_split`. Each block a split
    ``ops[i]`` makes is replaced by ``prune(block, i)``, the columns to keep.
    """
    for i in range(start, len(ops)):
        rest, ins, col = ops[i]
        if ins is not None:
            partial[rest] = partial[ins[0]]
            for c in ins[1:]:
                partial[rest] += partial[c]
            continue
        for block in _split(partial, rest, col):
            block = prune(block, i)
            if block.shape[1]:
                yield from _flow_lattice(block, ops, prune, i + 1)
        return
    yield partial


def _caps(partial: np.ndarray, ops: list, start: int, grid: int) -> np.ndarray:
    """Per-edge upper flows of every completion of ``partial`` by
    ``ops[start:]``. Rows already set keep their values; a parked rest row
    caps itself and each sibling still to be split off it; a join row is the
    sum of its in-edges' caps, at most ``grid``."""
    caps = partial.copy()
    for rest, ins, col in ops[start:]:
        if ins is None:
            caps[col] = caps[rest]
        else:
            np.minimum(caps[ins].sum(axis=0), grid, out=caps[rest])
    return caps


def _parallel_merge(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """M(j) = max over i <= j of min(first[i], second[j - i]) for every j up
    to the common last index, and the first maximizing i for each j.

    Both arrays are nondecreasing, so a value v is reachable at j units iff
    A(v) + B(v) <= j, where A(v) and B(v) are the first indices at which
    ``first`` and ``second`` reach v. M(j) is the largest of their values
    reachable at j, and A(M(j)) its first maximizing i: O(grid) memory."""
    values = np.sort(np.concatenate((first, second)))
    reach = first.searchsorted(values)
    need = reach + second.searchsorted(values)
    k = need.searchsorted(np.arange(len(first)), "right") - 1
    return values[k], reach[k]


def max_shortest_path_oracle(
    instance: Instance,
    grid: int = DEFAULT_ORACLE_GRID,
    max_paths: int = DEFAULT_ORACLE_MAX_PATHS,
) -> OracleResult:
    """Maximize the shortest-path latency over the demand simplex, exactly
    over the path-flow grid with d/grid steps.

    The shortest-path latency depends on the edge flows alone, and on an
    acyclic network integral flow decomposition maps that grid onto the
    integer s-t flows of value ``grid`` (times d/grid); the search runs over
    those. Every edge needs nonnegative finite latency coefficients.

    The fold of :attr:`Network.series_parallel` is walked step by step,
    each part carrying M(j), the largest shortest-path latency it reaches at
    j units, and how to split them: an edge's M is its latency polynomial
    evaluated at 0, 1, ..., grid units, a series step adds M1 + M2, and a
    parallel one takes M(j) = max over i <= j of min(M1(i), M2(j - i)),
    keeping the first maximizing i. Every integer flow splits over the
    parts this way, and every M is nondecreasing, so M(j) is the largest
    value v with A(v) + B(v) <= j, A and B the first indices at which M1
    and M2 reach v (:func:`_parallel_merge`). A series-parallel network
    (``series_parallel``) folds to the one pair (source, sink), whose
    M(grid) is the maximum. Otherwise the lattice branch-and-bound
    (:func:`_lattice_maximum`) runs on the core left: one edge per pair,
    named by the first edge its fold took in, with the pair's M as its
    latency row and the network's nodes in their order; where nothing
    folds, as on Braess, the core is the network. No path is enumerated:
    the lattice counts the core's paths by dynamic programming over its
    topological order, at most ``max_paths`` (PathCountError beyond).

    Backtracking the splits from each pair's units gives the maximizing edge
    flow: the first lattice point of the core, and the first maximizing
    split of each merge. ``value`` is the shortest-path length at its
    latencies. ``points`` counts the C(grid+2, 2) pairs (i, j) of i <= j
    units each parallel merge settles, plus the core lattice points
    evaluated. ``path_flow`` puts the edge flow on paths over
    :attr:`Network.sweep`: from the source, each path leaves every node by
    its first out-edge with units left and carries its least units, so the
    paths come in lexicographic id order. Memory is one row of grid + 1
    floats per part made and not yet merged plus one split row per
    parallel merge: an edge's row is made when a step first takes it in.
    """
    if grid < 1:
        raise ValueError(f"oracle grid must be a positive integer (got {grid})")
    if max_paths < 1:
        raise ValueError(f"oracle max_paths must be a positive integer (got {max_paths})")
    net = instance.network
    for e in net.edges:
        if not all(0.0 <= c < math.inf for c in e.latency):
            raise ValueError(
                f"the oracle needs nondecreasing latencies: edge {e.id!r} has"
                " a negative or non-finite latency coefficient"
            )
    scale = instance.demand / grid
    flows = np.arange(grid + 1) * scale
    emap = net.edge_map
    ids = list(net.edge_position)
    edges = [emap[eid] for eid in ids]
    m = len(edges)
    steps, pairs = net.series_parallel
    rows: dict[int, np.ndarray] = {}
    splits: dict[int, np.ndarray] = {}

    def take(part: int) -> np.ndarray:
        """A part's M, dropped from ``rows`` as it is taken in."""
        if part >= m:
            return rows.pop(part)
        lat = edges[part].latency
        # the zero polynomial () evaluates to a scalar, not a row
        return poly_value(lat, flows) if lat else 0.0 * flows

    for k, (first, second, parallel) in enumerate(steps):
        if parallel:
            rows[m + k], splits[k] = _parallel_merge(take(first), take(second))
        else:
            rows[m + k] = take(first) + take(second)
    series_parallel = is_series_parallel(net)
    if series_parallel:
        count, stack = 0, [(pairs[net.source, net.sink], grid)]
    else:
        names = []
        for part in pairs.values():
            while part >= m:
                part = steps[part - m][0]
            names.append(ids[part])
        # the core's latency rows are the pairs' M, so its polynomials go unused
        core_edges = tuple(Edge(n, *pair, (), ()) for n, pair in zip(names, pairs))
        core = Network(net.nodes, core_edges, net.source, net.sink)
        core_lat = {n: take(part) for n, part in zip(names, pairs.values())}
        _, core_units, count = _lattice_maximum(core, core_lat, max_paths)
        stack = [(part, core_units.get(n, 0)) for n, part in zip(names, pairs.values())]
    units = [0] * m
    while stack:
        part, j = stack.pop()
        if part < m:
            units[part] = j
            continue
        first, second, parallel = steps[part - m]
        if parallel:
            i = int(splits[part - m][j])
            stack += [(first, i), (second, j - i)]
        else:  # in series both parts carry all j units
            stack += [(first, j), (second, j)]
    value = _sweep_path(net, [poly_value(e.latency, u * scale) for e, u in zip(edges, units)])[0]
    count += len(splits) * math.comb(grid + 2, 2)
    path_flow: dict[tuple[str, ...], float] = {}
    sweep, left = net.sweep, grid
    while left:
        node, path = 0, []
        while node < len(sweep):
            pos, node = next((pos, head) for pos, head in sweep[node] if units[pos])
            path.append(pos)
        amount = min(units[pos] for pos in path)
        for pos in path:
            units[pos] -= amount
        path_flow[tuple(ids[pos] for pos in path)] = amount * scale
        left -= amount
    return OracleResult(value, path_flow, grid, count, series_parallel)


def _lattice_maximum(
    net: Network, lat: Mapping[str, np.ndarray], max_paths: int
) -> tuple[float, dict[str, int], int]:
    """The largest shortest-path latency over the integer edge flows of
    value grid on the edges of the source-sink paths by branch-and-bound,
    the first maximizing flow in lattice order (units per path edge id) and
    the number of lattice points evaluated. ``lat`` maps each edge id to its
    latency at 0, 1, ..., grid units. The search runs on edge positions over
    :attr:`Network.sweep`, ids coming back only in the units. No path is
    listed: two passes over the sweep count the paths into each node from
    the source and from each node to the sink, an edge is on a path when the
    count into its tail and the count from its head are positive, and more
    than ``max_paths`` paths raise PathCountError.

    The search runs node by node in topological order: each node's inflow
    is split over its out-edges in edge-id order, earlier edges taking the
    smaller shares first. Without pruning it evaluates C(grid+k-1, k-1)
    points for k parallel paths, fewer wherever paths share edges; its size
    grows exponentially with the network. A point's shortest-path latency
    is one sweep over the nodes in topological order, for a whole block of
    points at once.

    Latencies are nondecreasing, so the shortest-path latency at per-edge
    upper flows bounds every completion of a partial flow (:func:`_caps`).
    The threshold is always fixed before the search (a lattice of at most
    one split keeps its blocks whole and never reads it), as the best of the
    single-path vertices and of a greedy walk's leaves. Both are walks of :func:`_flow_lattice`: the vertices keep each split
    that moves none or all of a node's inflow, one lattice point per path;
    the greedy walk keeps the first column of largest bound of each block a
    split makes, so it follows one column per block (one leaf in all unless
    a split outgrows ``_BLOCK_POINTS``). A partial flow whose
    bound is below the threshold by more than ``_PRUNE_MARGIN`` is dropped.
    No maximizer is ever pruned, so the maximizer is the one exhaustive
    enumeration finds.
    """
    if _has_cycle(net):
        raise ValueError("the oracle needs an acyclic network")
    steps = net.sweep or ()
    into = [1] + [0] * len(steps)
    for i, out in enumerate(steps):
        for _, j in out:
            into[j] += into[i]
    onward = [0] * len(steps) + [1]
    for i in range(len(steps) - 1, -1, -1):
        onward[i] = sum(onward[j] for _, j in steps[i])
    # paths of at least one edge, so none when the source is the sink
    paths = onward[0] if steps else 0
    if paths > max_paths:
        raise PathCountError(
            f"more than {max_paths} simple paths from {net.source!r} to {net.sink!r}"
        )
    if not paths:
        raise ValueError("no source-sink path")
    # one row per path edge, in position order
    on_path = sorted(pos for i, out in enumerate(steps) for pos, j in out if into[i] and onward[j])
    row = dict(zip(on_path, range(len(on_path))))
    ids = list(net.edge_position)
    lat = np.array([lat[ids[pos]] for pos in on_path])
    grid = lat.shape[1] - 1
    edges = np.arange(len(row))[:, None]
    # each node's path out-edges as (row, head index)
    pushes = [[(row[pos], j) for pos, j in out if pos in row] for out in steps]
    # In topological order a node's inflow is parked on its last out-edge,
    # once every in-edge has its value, and split off from there to the
    # other out-edges.
    first = np.zeros((len(row), 1), dtype=np.int64)
    ops: list = []
    ins: list[list[int]] = [[] for _ in range(len(steps) + 1)]
    for i, out in enumerate(pushes):
        for k, j in out:
            ins[j].append(k)
        if not out:
            continue
        rest = out[-1][0]
        if i:
            ops.append((rest, ins[i], None))
        else:
            first[rest] = grid
        ops += [(rest, None, k) for k, _ in out[:-1]]

    def shortest(block: np.ndarray) -> np.ndarray:
        """Shortest-path latency at each column's edge flows: each node's
        distance, final once the sweep reaches it, is pushed along its path
        out-edges, a head keeping the least."""
        cost = lat[edges, block]
        dist: list = [0.0] + [None] * len(pushes)
        for d, out in zip(dist, pushes):
            for k, j in out:
                if dist[j] is None:
                    dist[j] = d + cost[k]
                else:
                    np.minimum(dist[j], d + cost[k], out=dist[j])
        return dist[-1]

    def bound(block: np.ndarray, start: int) -> np.ndarray:
        return shortest(_caps(block, ops, start, grid))

    splits = [i for i, (_, ins, _) in enumerate(ops) if ins is None]

    def all_or_nothing(block: np.ndarray, i: int) -> np.ndarray:
        rest, _, col = ops[i]
        return block[:, (block[col] == 0) | (block[rest] == 0)]

    def keep_best(block: np.ndarray, i: int) -> np.ndarray:
        j = int(bound(block, i + 1).argmax())
        return block[:, j : j + 1]

    # the single-path vertices and the walk's leaves are lattice points
    vertices = _flow_lattice(first.copy(), ops, all_or_nothing)
    leaves = _flow_lattice(first.copy(), ops, keep_best)
    threshold = float(shortest(np.hstack([*vertices, *leaves])).max())
    floor = threshold * (1.0 - _PRUNE_MARGIN)

    def prune(block: np.ndarray, i: int) -> np.ndarray:
        # the last split makes the lattice points themselves
        if i == splits[-1]:
            return block
        return block[:, ~(bound(block, i + 1) < floor)]

    best_value = -math.inf
    best_flow: list[int] = []
    count = 0
    for block in _flow_lattice(first, ops, prune):
        count += block.shape[1]
        s_values = shortest(block)
        idx = int(s_values.argmax())
        if s_values[idx] > best_value:
            best_value = float(s_values[idx])
            best_flow = block[:, idx].tolist()
    return best_value, {ids[pos]: u for pos, u in zip(on_path, best_flow)}, count
