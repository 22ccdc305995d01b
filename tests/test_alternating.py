"""Alternating-path certificates: edge classification, the exact minimum-run
search against an exhaustive oracle, and the bounds read off the path."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from riskroute import suites
from riskroute.alternating import (
    BACKWARD,
    CLASSIFY_EPS_REL,
    FORWARD,
    AlternatingPath,
    NoAlternatingPathError,
    eta_ceiling,
    find_alternating_path,
    theoretical_pra_bound,
)
from riskroute.analysis import pra_report
from riskroute.instances import make
from riskroute.network import RISK_MEAN_STDEV, RISK_MODELS, Edge, Network
from riskroute.solvers import solve_rawe, solve_rnwe

seeds = st.integers(min_value=0, max_value=10_000)

UNIT = (1.0,)


def _by_position(network: Network, flows) -> list[float]:
    return [flows[eid] for eid in network.edge_position]


def _solved(instance):
    """The search's inputs on a solved instance: the risk-averse and the
    risk-neutral edge flows by position and the report's tolerance."""
    net = instance.network
    x = _by_position(net, solve_rawe(instance).flow.edge_flow)
    z = _by_position(net, solve_rnwe(instance).flow.edge_flow)
    return x, z, CLASSIFY_EPS_REL * instance.demand


def _solved_path(instance) -> AlternatingPath:
    return find_alternating_path(instance.network, *_solved(instance))


def _partition(network: Network, x, z, eps) -> tuple[set[str], set[str]]:
    """The oracle's own split of the edges into A (the risk-neutral flow
    above eps and at least the risk-averse one, within eps) and B (the rest
    above eps), by id."""
    forward, backward = set(), set()
    for eid, pos in network.edge_position.items():
        if max(x[pos], z[pos]) <= eps:
            continue
        (forward if z[pos] > eps and z[pos] >= x[pos] - eps else backward).add(eid)
    return forward, backward


def _split_flows(network: Network, forward, backward) -> tuple[list[float], list[float]]:
    """Edge flows by position that put the ids ``forward`` in A and
    ``backward`` in B at eps 0.5, and leave the other edges unused."""
    position = network.edge_position
    x, z = [0.0] * len(position), [0.0] * len(position)
    for eid in forward:
        z[position[eid]] = 1.0
    for eid in backward:
        x[position[eid]] = 1.0
    return x, z


def _ids(network: Network, path: AlternatingPath) -> tuple[tuple[str, str], ...]:
    ids = tuple(network.edge_position)
    return tuple((ids[pos], direction) for pos, direction in path.arcs)


def _min_runs_exhaustive(forward, backward, network: Network) -> int | None:
    """Minimum forward-run count over all simple residual paths, by DFS.

    Independent of the production search: on ids and node names, it
    enumerates every source->sink path whose node sequence is simple and
    counts runs directly.
    """
    emap = network.edge_map
    residual: dict[str, list[tuple[str, str]]] = {v: [] for v in network.nodes}
    for eid in forward:
        e = emap[eid]
        residual[e.tail].append((FORWARD, e.head))
    for eid in backward:
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


def _assert_contiguous(path: AlternatingPath, forward, backward, network: Network):
    """The arcs chain source to sink over distinct nodes, each taken from the
    matching side of the partition."""
    emap = network.edge_map
    at = network.source
    seen = {at}
    for eid, direction in _ids(network, path):
        edge = emap[eid]
        if direction == FORWARD:
            assert eid in forward
            assert edge.tail == at
            at = edge.head
        else:
            assert eid in backward
            assert edge.head == at
            at = edge.tail
        assert at not in seen
        seen.add(at)
    assert at == network.sink


def _search(network: Network, x, z, eps) -> AlternatingPath | None:
    try:
        return find_alternating_path(network, x, z, eps)
    except NoAlternatingPathError:
        return None


def _edge_class(xe: float, ze: float, eps: float) -> str | None:
    """The class the search gives an edge with risk-averse flow ``xe`` and
    risk-neutral flow ``ze``: "A" when the edge alone from source to sink is
    an alternating path, "B" when it makes one backward as the crossing edge
    e of Braess, between the forward edges c and b, and None when neither
    search finds a path."""
    single = Network(("s", "t"), (Edge("e", "s", "t", UNIT, UNIT),), "s", "t")
    if _search(single, [xe], [ze], eps) is not None:
        return "A"
    braess = make("braess", v=0.1).network  # positions a, b, c, d, e
    if _search(braess, [0.0, 0.0, 0.0, 0.0, xe], [0.0, 1.0, 1.0, 0.0, ze], eps) is not None:
        return "B"
    return None


# --- edge classification ----------------------------------------------------------


def test_classify_edges_boundary_rules():
    """Ties within eps go to A, near-zero pairs join neither class, strictly
    larger risk-averse flow goes to B."""
    eps = 1e-6
    cases = {  # (risk-averse flow, risk-neutral flow, class)
        "tie": (1.0 + eps / 2, 1.0, "A"),
        "dust": (eps / 2, eps / 2, None),
        "extra": (0.7, 0.5, "B"),
        "slack": (0.5, 0.7, "A"),
        "fresh": (0.3, 0.0, "B"),
    }
    for name, (xe, ze, side) in cases.items():
        assert _edge_class(xe, ze, eps) == side, name


def test_classify_edges_braess():
    """At v=0.1 the risk-neutral flow keeps the outer edges b and c while the
    risk-averse flow moves everything onto the zigzag a-e-d."""
    instance = make("braess", v=0.1)
    x, z, eps = _solved(instance)
    ids = tuple(instance.network.edge_position)
    classes = {eid: _edge_class(x[pos], z[pos], eps) for pos, eid in enumerate(ids)}
    assert classes == {"a": "B", "b": "A", "c": "A", "d": "B", "e": "B"}
    assert _partition(instance.network, x, z, eps) == ({"b", "c"}, {"a", "d", "e"})


def _loaded_off_sweep(instance) -> tuple[int, list[str]]:
    """The solved instance's edges that either flow loads above the report's
    tolerance, and those of them the search cannot see: off the sweep."""
    x, z, eps = _solved(instance)
    net = instance.network
    on_sweep = {pos for out in net.sweep for pos, _ in out}
    loaded = [pos for pos in range(len(x)) if max(x[pos], z[pos]) > eps]
    ids = tuple(net.edge_position)
    return len(loaded), [ids[pos] for pos in loaded if pos not in on_sweep]


def test_every_loaded_edge_is_a_sweep_edge():
    """The search classifies sweep edges only. Solved flows are sums of
    source-sink paths, so on bound-chain draws 0-1999 under both risk models
    and sp-theorem draws 0-999 every edge either flow loads above
    ``CLASSIFY_EPS_REL`` of the demand is a sweep edge."""
    instances = [
        suites.random_general(seed, risk_model=model)
        for seed in range(2000)
        for model in RISK_MODELS
    ] + [suites.random_sp(seed, max_budget=5, max_paths=6) for seed in range(1000)]
    total = 0
    for instance in instances:
        loaded, off = _loaded_off_sweep(instance)
        assert not off, (instance.name, instance.risk_model, off)
        total += loaded
    assert total > 20_000


# --- path search ----------------------------------------------------------


def test_braess_alternating_path_frozen():
    instance = make("braess", v=0.1)
    path = _solved_path(instance)
    arcs = (("c", FORWARD), ("e", BACKWARD), ("b", FORWARD))
    assert _ids(instance.network, path) == arcs
    assert path.forward_runs == 2
    assert not path.all_forward
    report = pra_report(instance, solve_rawe(instance), solve_rnwe(instance))
    assert report.alternating_arcs == arcs


def test_pigou_alternating_path_is_single_forward_edge():
    instance = make("pigou", kappa=1.0, gamma=1.0)
    path = _solved_path(instance)
    assert _ids(instance.network, path) == (("e2", FORWARD),)
    assert path.all_forward
    assert path.forward_runs == 1


def test_no_alternating_path_when_partition_is_empty():
    """Unused edges leave no residual arc; a network whose sink comes before
    its source has no sweep."""
    network = make("pigou", kappa=1.0, gamma=1.0).network
    unused = [0.0] * len(network.edges)
    with pytest.raises(NoAlternatingPathError):
        find_alternating_path(network, unused, unused, 0.5)
    backwards = Network(("s", "t"), (Edge("e", "t", "s", UNIT, UNIT),), "s", "t")
    assert backwards.sweep is None
    with pytest.raises(NoAlternatingPathError):
        find_alternating_path(backwards, [1.0], [1.0], 0.5)


@settings(deadline=None, max_examples=40)
@given(seeds)
def test_forward_runs_match_exhaustive_minimum(seed):
    """The Dijkstra search returns exactly the smallest run count attainable
    by any simple residual path."""
    instance = make("random_general", seed=seed, n=6, m=10)
    x, z, eps = _solved(instance)
    path = find_alternating_path(instance.network, x, z, eps)
    forward, backward = _partition(instance.network, x, z, eps)
    _assert_contiguous(path, forward, backward, instance.network)
    oracle = _min_runs_exhaustive(forward, backward, instance.network)
    assert oracle is not None
    assert path.forward_runs == oracle


def test_loop_that_ties_in_runs_is_not_taken():
    """The walk e1 e2 e3 e4 e5 loops v->u->v and ties the simple path e1 e4
    e5 at two forward runs, and its arc sequence sorts first; the extra
    backward arc alone rules it out. The unused e6 and e7 put every node on
    a source-sink path, so every edge is a sweep edge."""
    ends = {
        "e1": "sv", "e2": "vu", "e3": "vu", "e4": "wv", "e5": "wt", "e6": "sw", "e7": "ut",
    }
    network = Network(
        nodes=("s", "t", "u", "v", "w"),
        edges=tuple(Edge(eid, tail, head, UNIT, UNIT) for eid, (tail, head) in ends.items()),
        source="s",
        sink="t",
    )
    assert len({pos for out in network.sweep for pos, _ in out}) == len(ends)
    flows = _split_flows(network, {"e1", "e2", "e5"}, {"e3", "e4"})
    path = find_alternating_path(network, *flows, 0.5)
    assert _ids(network, path) == (("e1", FORWARD), ("e4", BACKWARD), ("e5", FORWARD))
    assert path.forward_runs == 2


def _random_partitions():
    """Seeded random splits of each network's sweep edges into A, B and
    unused."""
    networks = [make("zigzag", k=k).network for k in range(2, 7) for _ in range(100)]
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(4, 8)
        networks.append(make("random_general", seed=seed, n=n, m=rng.randint(n, 2 * n)).network)
        networks.append(make("random_sp", seed=seed, budget=rng.randint(1, 6)).network)
    rng = random.Random(0)
    for network in networks:
        ids = tuple(network.edge_position)
        sweep_ids = [ids[pos] for out in network.sweep for pos, _ in out]
        for _ in range(4):
            sides: tuple[set[str], ...] = (set(), set(), set())
            for eid in sweep_ids:
                rng.choice(sides).add(eid)
            yield sides[0], sides[1], network


def test_search_is_exact_on_arbitrary_partitions():
    """On any split of an acyclic network's sweep edges into A, B and unused,
    the search returns a simple path with the fewest forward runs, and
    raises exactly when no simple residual path exists."""
    outcomes = {"none": 0, "forward": 0, "mixed": 0}
    for forward, backward, network in _random_partitions():
        oracle = _min_runs_exhaustive(forward, backward, network)
        flows = _split_flows(network, forward, backward)
        if oracle is None:
            outcomes["none"] += 1
            with pytest.raises(NoAlternatingPathError):
                find_alternating_path(network, *flows, 0.5)
            continue
        path = find_alternating_path(network, *flows, 0.5)
        _assert_contiguous(path, forward, backward, network)
        assert path.forward_runs == oracle
        outcomes["forward" if path.all_forward else "mixed"] += 1
    assert min(outcomes.values()) >= 100, outcomes


@settings(deadline=None, max_examples=40)
@given(seeds)
def test_forward_runs_within_node_ceiling(seed):
    instance = make("random_general", seed=seed, n=7, m=13)
    path = _solved_path(instance)
    ceiling = eta_ceiling(instance.network)
    assert ceiling == len(instance.network.nodes) // 2
    assert 1 <= path.forward_runs <= ceiling


@settings(deadline=None, max_examples=25)
@given(seeds, st.integers(min_value=2, max_value=4))
def test_series_parallel_paths_are_all_forward(seed, budget):
    instance = make("random_sp", seed=seed, budget=budget, max_paths=6)
    path = _solved_path(instance)
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
