"""Network primitives: cost polynomials, validation, series-parallel
recognition, and the reference path enumeration of tests/paths.py."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskroute.network import (
    Edge,
    Instance,
    Network,
    PathCountError,
    is_braess_topology,
    is_series_parallel,
    poly_value,
    validate_instance,
)
from riskroute.instances import make
from riskroute.solvers import RISK_NEUTRAL

import reference
from paths import enumerate_simple_paths

coeff_lists = st.lists(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False), min_size=1, max_size=4
)
flows = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)


def _net(edges, nodes=None, source="s", sink="t"):
    if nodes is None:
        seen = {source, sink}
        for e in edges:
            seen.update((e.tail, e.head))
        nodes = tuple(sorted(seen))
    return Network(nodes=nodes, edges=tuple(edges), source=source, sink=sink)


def _edge(eid, tail, head, lat=(1.0,), risk=(0.0,)):
    return Edge(eid, tail, head, tuple(lat), tuple(risk))


# --- cost polynomials --------------------------------------------------------


@given(coeff_lists, flows)
def test_costpoly_matches_power_series(coeffs, x):
    poly = tuple(coeffs)
    direct = math.fsum(c * x**i for i, c in enumerate(coeffs))
    assert poly_value(poly, x) == pytest.approx(direct, rel=1e-12, abs=1e-12)


@given(coeff_lists, flows)
def test_costpoly_integral_matches_antiderivative(coeffs, x):
    poly = tuple(coeffs)
    direct = math.fsum(c * x ** (i + 1) / (i + 1) for i, c in enumerate(coeffs))
    assert reference.integral(poly, x) == pytest.approx(direct, rel=1e-12, abs=1e-12)


@given(coeff_lists, flows)
def test_costpoly_nonnegative_coeffs_monotone(coeffs, x):
    poly = tuple(coeffs)
    assert poly_value(poly, x + 0.5) >= poly_value(poly, x) - 1e-12
    assert reference.derivative(poly, x) >= 0.0


@given(coeff_lists, st.integers(min_value=1, max_value=200), flows)
def test_costpoly_on_an_array_matches_polyval_and_each_point(coeffs, grid, demand):
    """The oracle evaluates each edge's latency on the whole grid at once:
    the row is bitwise numpy's polyval and the scalar call at each point."""
    poly = tuple(coeffs)
    grid_flows = np.arange(grid + 1) * (demand / grid)
    row = poly_value(poly, grid_flows).view(np.int64)
    table = np.polynomial.polynomial.polyval(grid_flows, coeffs)
    points = np.array([poly_value(poly, j * (demand / grid)) for j in range(grid + 1)])
    assert np.array_equal(row, table.view(np.int64))
    assert np.array_equal(row, points.view(np.int64))


def test_costpoly_of_and_predicates():
    poly = (1.0, 2.0)
    assert poly_value(poly, 3.0) == 7.0
    assert reference.derivative(poly, 3.0) == 2.0


def test_costpoly_scaled_plus():
    """On seeded random coefficient tuples of unequal lengths, the
    coefficients are bit for bit those of padding both tuples with zeros to
    the longer length and adding coefficientwise."""
    combined = reference.scaled_plus((1.0, 2.0), (0.5,), 2.0)
    assert poly_value(combined, 0.0) == 2.0
    assert poly_value(combined, 1.0) == 4.0
    rng = random.Random(0)

    def coeffs():
        pick = (0.0, -0.0, rng.random(), rng.uniform(0.0, 1e6), rng.expovariate(1e-3))
        return tuple(rng.choice(pick) for _ in range(rng.randint(0, 5)))

    for _ in range(2000):
        a, b, scale = coeffs(), coeffs(), rng.choice((0.0, 0.7, rng.uniform(0, 50)))
        n = max(len(a), len(b))
        pa, pb = a + (0.0,) * (n - len(a)), b + (0.0,) * (n - len(b))
        expected = tuple(x + scale * y for x, y in zip(pa, pb))
        got = reference.scaled_plus(a, b, scale)
        assert [x.hex() for x in got] == [x.hex() for x in expected], (a, b, scale)


# --- validation --------------------------------------------------------------


def _braess_instance():
    return make("braess", v=0.1)


def test_validate_accepts_families():
    for instance in (
        make("pigou", gamma=1.0, kappa=1.0),
        _braess_instance(),
        make("zigzag", k=3),
        make("random_sp", seed=7, budget=3),
        make("random_general", seed=7, n=6, m=9),
    ):
        verdict = validate_instance(instance)
        assert verdict.ok, verdict.violations


def test_validate_duplicate_edge_ids():
    net = _net([_edge("e1", "s", "t"), _edge("e1", "s", "t")])
    verdict = validate_instance(Instance(net, demand=1.0, gamma=1.0))
    assert not verdict.ok
    assert any("duplicate" in v for v in verdict.violations)


def test_validate_undeclared_endpoint():
    net = Network(
        nodes=("s", "t"),
        edges=(_edge("e1", "s", "u"), _edge("e2", "u", "t")),
        source="s",
        sink="t",
    )
    verdict = validate_instance(Instance(net, demand=1.0, gamma=1.0))
    assert not verdict.ok


def test_validate_self_loop():
    net = _net([_edge("e1", "s", "t"), _edge("e2", "t", "t")])
    verdict = validate_instance(Instance(net, demand=1.0, gamma=1.0))
    assert not verdict.ok
    assert any("self-loop" in v for v in verdict.violations)


def test_validate_negative_coefficients():
    net = _net([_edge("e1", "s", "t", lat=(1.0, -0.5))])
    verdict = validate_instance(Instance(net, demand=1.0, gamma=1.0))
    assert not verdict.ok


def test_validate_demand_and_gamma():
    net = _net([_edge("e1", "s", "t")])
    assert not validate_instance(Instance(net, demand=0.0, gamma=1.0)).ok
    assert not validate_instance(Instance(net, demand=-1.0, gamma=1.0)).ok
    assert not validate_instance(Instance(net, demand=1.0, gamma=-0.1)).ok
    assert not validate_instance(
        Instance(net, demand=1.0, gamma=1.0, risk_model="quantile")
    ).ok


def test_validate_cycle():
    net = _net(
        [
            _edge("e1", "s", "u"),
            _edge("e2", "u", "v"),
            _edge("e3", "v", "u"),
            _edge("e4", "v", "t"),
        ]
    )
    verdict = validate_instance(Instance(net, demand=1.0, gamma=1.0))
    assert not verdict.ok
    assert any("cycle" in v for v in verdict.violations)


def test_validate_repeated_node_id_is_not_a_cycle():
    """The Kahn peel lists each distinct node once, so a repeated node id is
    reported as a duplicate and not also as a directed cycle."""
    net = _net([_edge("e1", "s", "t")], nodes=("s", "t", "t"))
    verdict = validate_instance(Instance(net, demand=1.0, gamma=1.0))
    assert verdict.violations == ("duplicate node id",)


def test_validate_source_equals_sink():
    net = _net([_edge("e1", "s", "t")], sink="s")
    verdict = validate_instance(Instance(net, demand=1.0, gamma=1.0))
    assert "source equals sink" in verdict.violations


def test_validate_unreachable_sink():
    net = _net([_edge("e1", "s", "u")], nodes=("s", "t", "u"))
    verdict = validate_instance(Instance(net, demand=1.0, gamma=1.0))
    assert not verdict.ok


# --- reference path enumeration ----------------------------------------------


def test_enumerate_braess_paths():
    paths = list(enumerate_simple_paths(_braess_instance().network))
    assert paths == [("a", "b"), ("a", "e", "d"), ("c", "d")]


def test_enumerate_is_deterministic():
    net = make("random_general", seed=11, n=7, m=12).network
    assert list(enumerate_simple_paths(net)) == list(enumerate_simple_paths(net))


def test_enumerate_cap():
    net = make("zigzag", k=4).network
    with pytest.raises(PathCountError):
        enumerate_simple_paths(net, cap=3)


def test_zigzag_path_counts():
    # Path count grows quadratically with the rung count.
    assert len(list(enumerate_simple_paths(make("zigzag", k=2).network))) == 3
    assert len(list(enumerate_simple_paths(make("zigzag", k=3).network))) == 6
    assert len(list(enumerate_simple_paths(make("zigzag", k=4).network))) == 10


# --- flow bookkeeping --------------------------------------------------------


def test_edge_flow_sums_paths():
    net = _braess_instance().network
    flows = reference.edge_flow({("a", "b"): 0.25, ("a", "e", "d"): 0.5, ("c", "d"): 0.25}, net)
    assert flows["a"] == pytest.approx(0.75)
    assert flows["b"] == pytest.approx(0.25)
    assert flows["c"] == pytest.approx(0.25)
    assert flows["d"] == pytest.approx(0.75)
    assert flows["e"] == pytest.approx(0.5)


def test_social_cost_matches_path_form():
    instance = _braess_instance()
    net = instance.network
    path_flow = {("a", "b"): 0.25, ("a", "e", "d"): 0.5, ("c", "d"): 0.25}
    flows = reference.edge_flow(path_flow, net)
    by_paths = math.fsum(
        f * reference.path_cost(instance, flows, p, RISK_NEUTRAL) for p, f in path_flow.items()
    )
    assert reference.edge_table(net, flows)[2] == pytest.approx(by_paths, rel=1e-12)


def test_path_cost_models():
    instance = _braess_instance()
    flows = reference.edge_flow({("a", "b"): 1.0}, instance.network)
    lat = reference.path_cost(instance, flows, ("a", "b"), RISK_NEUTRAL)
    assert reference.path_cost(instance, flows, ("a", "b"), instance.risk_model) == pytest.approx(
        lat + instance.gamma * 0.1
    )


# --- series-parallel recognition ---------------------------------------------


def test_pigou_is_series_parallel():
    assert is_series_parallel(make("pigou", gamma=1.0, kappa=1.0).network)


def test_braess_is_not_series_parallel():
    assert not is_series_parallel(_braess_instance().network)


def test_zigzag_is_not_series_parallel():
    for k in (2, 3, 4):
        assert not is_series_parallel(make("zigzag", k=k).network)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=6))
def test_random_sp_family_recognized(seed, budget):
    assert is_series_parallel(make("random_sp", seed=seed, budget=budget).network)


def test_two_parallel_links_then_series():
    net = _net(
        [
            _edge("e1", "s", "u"),
            _edge("e2", "s", "u"),
            _edge("e3", "u", "t"),
        ]
    )
    assert is_series_parallel(net)


def test_dead_end_or_cycle_is_not_series_parallel():
    dead_end = _net([_edge("e1", "s", "t"), _edge("e2", "s", "u")])
    assert not is_series_parallel(dead_end)
    # bypassing w would leave a self-loop on u, which never reduces
    cycle = _net([_edge("e1", "s", "t"), _edge("e2", "u", "w"), _edge("e3", "w", "u")])
    assert not is_series_parallel(cycle)


def test_fold_returns_the_pairs_left():
    """Zigzag k=2 folds its two series nodes u01 and w02 and leaves a Braess
    core of five pairs, in the order they were first made; each part lists
    its edges in fold order. Pigou folds to the pair (s, t)."""

    def fold(instance):
        network = instance.network
        steps, pairs = network.series_parallel
        parts = [(eid,) for eid in network.edge_position]
        for first, second, _ in steps:
            parts.append(parts[first] + parts[second])
        return {pair: parts[part] for pair, part in pairs.items()}

    pairs = fold(make("zigzag", k=2))
    assert list(pairs.items()) == [
        (("w01", "t"), ("t01",)),
        (("s", "u02"), ("s02",)),
        (("w01", "u02"), ("c01",)),
        (("s", "w01"), ("s01", "m01")),
        (("u02", "t"), ("m02", "t02")),
    ]
    assert fold(make("pigou", gamma=1.0, kappa=1.0)) == {("s", "t"): ("e1", "e2")}


def test_is_braess_topology():
    assert is_braess_topology(_braess_instance().network)
    assert not is_braess_topology(make("pigou", gamma=1.0, kappa=1.0).network)
    assert not is_braess_topology(make("zigzag", k=2).network)
    # four nodes and five edges, but a direct s->t edge where Braess crosses
    uncrossed = _net(
        [_edge("a", "s", "u"), _edge("b", "u", "t"), _edge("c", "s", "w"),
         _edge("d", "w", "t"), _edge("e", "s", "t")]
    )
    assert len(uncrossed.nodes) == 4 and len(uncrossed.edges) == 5
    assert not is_braess_topology(uncrossed)


def test_is_braess_topology_flipped_middle():
    # Same diamond with the crossing edge running the other way.
    net = _net(
        [
            _edge("a", "s", "u", lat=(0.0, 1.0)),
            _edge("b", "u", "t"),
            _edge("c", "s", "w"),
            _edge("d", "w", "t", lat=(0.0, 1.0)),
            _edge("e", "w", "u"),
        ]
    )
    assert is_braess_topology(net)
