"""Alternating-path certificates: edge classification, the exact minimum-run
search against an exhaustive oracle, and the bounds read off the path."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from riskroute.alternating import (
    BACKWARD,
    CLASSIFY_EPS_REL,
    FORWARD,
    AlternatingPath,
    EdgePartition,
    NoAlternatingPathError,
    classify_edges,
    eta_ceiling,
    find_alternating_path,
    theoretical_pra_bound,
)
from riskroute.analysis import pra_report
from riskroute.instances import make
from riskroute.network import RISK_MEAN_STDEV, CostPoly, Edge, Network
from riskroute.solvers import RISK_NEUTRAL, Flow, solve_rawe, solve_rnwe

seeds = st.integers(min_value=0, max_value=10_000)


def _solved_partition(instance):
    x = solve_rawe(instance).flow
    z = solve_rnwe(instance).flow
    eps = CLASSIFY_EPS_REL * instance.demand
    return x, z, classify_edges(x, z, eps)


def _min_runs_exhaustive(partition: EdgePartition, network: Network) -> int | None:
    """Minimum forward-run count over all simple residual paths, by DFS.

    Independent of the production search: enumerates every source->sink path
    whose node sequence is simple and counts runs directly.
    """
    emap = network.edge_map
    residual: dict[str, list[tuple[str, str]]] = {v: [] for v in network.nodes}
    for eid in partition.forward_like:
        e = emap[eid]
        residual[e.tail].append((FORWARD, e.head))
    for eid in partition.backward_like:
        e = emap[eid]
        residual[e.head].append((BACKWARD, e.tail))

    best: int | None = None

    def walk(node: str, visited: frozenset[str], last: str | None, runs: int) -> None:
        nonlocal best
        if best is not None and runs > best:
            return
        if node == network.sink:
            best = runs if best is None else min(best, runs)
            return
        for direction, nxt in residual[node]:
            if nxt in visited:
                continue
            extra = 1 if direction == FORWARD and last != FORWARD else 0
            walk(nxt, visited | {nxt}, direction, runs + extra)

    walk(network.source, frozenset({network.source}), None, 0)
    return best


def _assert_contiguous(path: AlternatingPath, partition: EdgePartition, network: Network):
    """The arcs chain source to sink over distinct nodes, each taken from the
    matching side of the partition."""
    emap = network.edge_map
    at = network.source
    seen = {at}
    for eid, direction in path.arcs:
        edge = emap[eid]
        if direction == FORWARD:
            assert eid in partition.forward_like
            assert edge.tail == at
            at = edge.head
        else:
            assert eid in partition.backward_like
            assert edge.head == at
            at = edge.tail
        assert at not in seen
        seen.add(at)
    assert at == network.sink


# --- edge classification ----------------------------------------------------------


def test_classify_edges_boundary_rules():
    """Ties within eps go to A, near-zero pairs join neither class, strictly
    larger risk-averse flow goes to B."""
    eps = 1e-6

    def flow_of(values):
        return Flow(path_flow={}, edge_flow=values, objective_mode=RISK_NEUTRAL)

    z = flow_of({"tie": 1.0, "dust": eps / 2, "extra": 0.5, "slack": 0.7, "fresh": 0.0})
    x = flow_of({"tie": 1.0 + eps / 2, "dust": eps / 2, "extra": 0.7, "slack": 0.5, "fresh": 0.3})
    part = classify_edges(x, z, eps)
    assert part.forward_like == frozenset({"tie", "slack"})
    assert part.backward_like == frozenset({"extra", "fresh"})


def test_classify_edges_braess():
    """At v=0.1 the risk-neutral flow keeps the outer edges b and c while the
    risk-averse flow moves everything onto the zigzag a-e-d."""
    instance = make("braess", v=0.1)
    _, _, part = _solved_partition(instance)
    assert part.forward_like == frozenset({"b", "c"})
    assert part.backward_like == frozenset({"a", "d", "e"})


# --- path search ----------------------------------------------------------


def test_braess_alternating_path_frozen():
    instance = make("braess", v=0.1)
    _, _, part = _solved_partition(instance)
    path = find_alternating_path(part, instance.network)
    assert path.arcs == (("c", FORWARD), ("e", BACKWARD), ("b", FORWARD))
    assert path.forward_runs == 2
    assert not path.all_forward
    assert path.forward_edges() == ("c", "b")
    assert path.backward_edges() == ("e",)


def test_pigou_alternating_path_is_single_forward_edge():
    instance = make("pigou", kappa=1.0, gamma=1.0)
    _, _, part = _solved_partition(instance)
    path = find_alternating_path(part, instance.network)
    assert path.arcs == (("e2", FORWARD),)
    assert path.all_forward
    assert path.forward_runs == 1


def test_no_alternating_path_when_partition_is_empty():
    instance = make("pigou", kappa=1.0, gamma=1.0)
    empty = EdgePartition(frozenset(), frozenset())
    with pytest.raises(NoAlternatingPathError):
        find_alternating_path(empty, instance.network)


@settings(deadline=None, max_examples=40)
@given(seeds)
def test_forward_runs_match_exhaustive_minimum(seed):
    """The Dijkstra search returns exactly the smallest run count attainable
    by any simple residual path."""
    instance = make("random_general", seed=seed, n=6, m=10)
    _, _, part = _solved_partition(instance)
    path = find_alternating_path(part, instance.network)
    _assert_contiguous(path, part, instance.network)
    oracle = _min_runs_exhaustive(part, instance.network)
    assert oracle is not None
    assert path.forward_runs == oracle


def test_loop_that_ties_in_runs_is_not_taken():
    """The walk e1 e2 e3 e4 e5 loops v->u->v and ties the simple path e1 e4
    e5 at two forward runs, and its arc sequence sorts first; the extra
    backward arc alone rules it out."""
    unit = CostPoly((1.0,))
    ends = {"e1": "sv", "e2": "vu", "e3": "vu", "e4": "wv", "e5": "wt"}
    network = Network(
        nodes=("s", "t", "u", "v", "w"),
        edges=tuple(Edge(eid, tail, head, unit, unit) for eid, (tail, head) in ends.items()),
        source="s",
        sink="t",
    )
    part = EdgePartition(frozenset({"e1", "e2", "e5"}), frozenset({"e3", "e4"}))
    path = find_alternating_path(part, network)
    assert path.arcs == (("e1", FORWARD), ("e4", BACKWARD), ("e5", FORWARD))
    assert path.forward_runs == 2


def _random_partitions():
    """Seeded random splits of each network's edges into A, B and unused."""
    networks = [make("zigzag", k=k).network for k in range(2, 7) for _ in range(100)]
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(4, 8)
        networks.append(make("random_general", seed=seed, n=n, m=rng.randint(n, 2 * n)).network)
        networks.append(make("random_sp", seed=seed, budget=rng.randint(1, 6)).network)
    rng = random.Random(0)
    for network in networks:
        for _ in range(4):
            sides: tuple[set[str], ...] = (set(), set(), set())
            for e in network.edges:
                rng.choice(sides).add(e.id)
            yield EdgePartition(frozenset(sides[0]), frozenset(sides[1])), network


def test_search_is_exact_on_arbitrary_partitions():
    """On any split of an acyclic network's edges into A, B and unused, the
    search returns a simple path with the fewest forward runs, and raises
    exactly when no simple residual path exists."""
    outcomes = {"none": 0, "forward": 0, "mixed": 0}
    for part, network in _random_partitions():
        oracle = _min_runs_exhaustive(part, network)
        if oracle is None:
            outcomes["none"] += 1
            with pytest.raises(NoAlternatingPathError):
                find_alternating_path(part, network)
            continue
        path = find_alternating_path(part, network)
        _assert_contiguous(path, part, network)
        assert path.forward_runs == oracle
        outcomes["forward" if path.all_forward else "mixed"] += 1
    assert min(outcomes.values()) >= 100, outcomes


@settings(deadline=None, max_examples=40)
@given(seeds)
def test_forward_runs_within_node_ceiling(seed):
    instance = make("random_general", seed=seed, n=7, m=13)
    _, _, part = _solved_partition(instance)
    path = find_alternating_path(part, instance.network)
    ceiling = eta_ceiling(instance.network)
    assert ceiling == len(instance.network.nodes) // 2
    assert 1 <= path.forward_runs <= ceiling


@settings(deadline=None, max_examples=25)
@given(seeds, st.integers(min_value=2, max_value=4))
def test_series_parallel_paths_are_all_forward(seed, budget):
    instance = make("random_sp", seed=seed, budget=budget, max_paths=6)
    _, _, part = _solved_partition(instance)
    path = find_alternating_path(part, instance.network)
    assert path.all_forward
    assert path.forward_runs == 1


# --- bounds ----------------------------------------------------------


def _report_checks(instance):
    """The solved instance's report and its checks by name; the
    alternating-rawe-bound rhs and the alternating-rnwe-bound lhs are the
    bounds read off the alternating path."""
    report = pra_report(instance, solve_rawe(instance), solve_rnwe(instance))
    return report, {c.name: c for c in report.checks}


def test_braess_bounds_frozen():
    """Both certificate bounds are tight on the Braess example at v=0.1."""
    report, checks = _report_checks(make("braess", v=0.1))
    assert report.kappa == pytest.approx(0.1, rel=1e-9)
    assert checks["alternating-rawe-bound"].rhs == pytest.approx(
        1.3000000000000003, rel=1e-12
    )
    assert checks["alternating-rnwe-bound"].lhs == pytest.approx(1.1, rel=1e-12)


def test_bounds_carry_demand_factor():
    """On a Pigou instance with doubled demand both bounds double: the path
    quantities are per unit of flow, so the social-cost comparison needs the
    demand factor."""
    instance = dataclasses.replace(make("pigou", kappa=1.0, gamma=1.0), demand=2.0)
    report, checks = _report_checks(instance)
    assert checks["alternating-rawe-bound"].rhs == pytest.approx(4.0, rel=1e-9)
    assert checks["alternating-rnwe-bound"].lhs == pytest.approx(2.0, rel=1e-9)
    assert report.cost_rawe == pytest.approx(3.0, rel=1e-9)
    assert report.cost_rnwe == pytest.approx(2.0, rel=1e-9)


@settings(deadline=None, max_examples=30)
@given(seeds)
def test_bounds_bracket_social_costs(seed):
    """The upper bound covers the risk-averse cost and the lower bound stays
    under the risk-neutral cost on random instances."""
    instance = make("random_general", seed=seed, n=6, m=10)
    report, checks = _report_checks(instance)
    slack = 1e-6
    cost_x, cost_z = report.cost_rawe, report.cost_rnwe
    assert cost_x <= checks["alternating-rawe-bound"].rhs + slack * cost_x
    assert checks["alternating-rnwe-bound"].lhs <= cost_z + slack * cost_z


def test_mean_stdev_bound_requires_braess_topology():
    instance = make("pigou", kappa=1.0, gamma=1.0, risk_model=RISK_MEAN_STDEV)
    _, checks = _report_checks(instance)
    assert "alternating-rawe-bound" not in checks


def test_mean_stdev_bound_on_braess():
    """A single risky edge per path makes variance and stdev coincide, so the
    mean-stdev bound reproduces the mean-var value."""
    instance = make("braess", v=0.1, risk_model=RISK_MEAN_STDEV)
    report, checks = _report_checks(instance)
    bound = checks["alternating-rawe-bound"].rhs
    assert bound == pytest.approx(1.3000000000000003, rel=1e-9)
    assert report.cost_rawe <= bound * (1.0 + 1e-9)


def test_theoretical_pra_bound():
    assert theoretical_pra_bound(0.0, 5.0, 3) == 1.0
    assert theoretical_pra_bound(2.0, 0.0, 9) == 1.0
    assert theoretical_pra_bound(0.5, 0.2, 3) == 1.0 + 0.5 * 0.2 * 3
    assert theoretical_pra_bound(1.0, 0.1, 2) == pytest.approx(1.2, rel=1e-12)
