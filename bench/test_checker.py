"""The reference checker against closed forms from the paper's examples.

Run from the repository root: ``python -m pytest bench``. Instances are
written out by hand as documents, so these tests need no riskroute code.
"""

import random

import pytest

import checker


def _edge(eid, tail, head, latency, risk=(0.0,)):
    return {"id": eid, "tail": tail, "head": head, "latency": list(latency), "risk": list(risk)}


def _doc(nodes, edges, gamma=1.0, demand=1.0, risk_model="mean-var"):
    return {
        "name": "t",
        "nodes": nodes,
        "edges": edges,
        "source": "s",
        "sink": "t",
        "demand": demand,
        "gamma": gamma,
        "risk_model": risk_model,
    }


def braess(v):
    alpha = 2.0 * v
    return checker.Net(
        _doc(
            ["s", "t", "u", "w"],
            [
                _edge("a", "s", "u", (0.0, alpha)),
                _edge("b", "u", "t", (1.0,), (v,)),
                _edge("c", "s", "w", (1.0,), (v,)),
                _edge("d", "w", "t", (0.0, alpha)),
                _edge("e", "u", "w", (1.0 - alpha + v,)),
            ],
        )
    )


def pigou(gamma, kappa):
    return checker.Net(
        _doc(
            ["s", "t"],
            [
                _edge("e1", "s", "t", (0.0, 1.0 + gamma * kappa)),
                _edge("e2", "s", "t", (1.0,), (kappa,)),
            ],
            gamma=gamma,
        )
    )


def zigzag(k):
    nodes, edges = ["s", "t"], []
    for i in range(1, k + 1):
        nodes += [f"u{i}", f"w{i}"]
        edges += [
            _edge(f"s{i}", "s", f"u{i}", (0.0,)),
            _edge(f"m{i}", f"u{i}", f"w{i}", (0.0, 1.0)),
            _edge(f"t{i}", f"w{i}", "t", (0.0,)),
        ]
    edges += [_edge(f"c{i}", f"w{i}", f"u{i + 1}", (0.0,)) for i in range(1, k)]
    return checker.Net(_doc(nodes, edges))


def test_braess_costs():
    net = braess(0.1)
    z = {("a", "b"): 0.5, ("c", "d"): 0.5}
    x = {("a", "e", "d"): 1.0}
    assert checker.social_cost(net, checker.edge_flows(net, z)) == pytest.approx(1.1, abs=1e-15)
    assert checker.social_cost(net, checker.edge_flows(net, x)) == pytest.approx(1.3, abs=1e-15)
    assert checker.relative_gap(net, z, checker.RISK_NEUTRAL) < 1e-15
    assert checker.relative_gap(net, x, checker.MEAN_VAR) < 1e-15
    # the zigzag route alone is not a risk-neutral equilibrium: it costs 1.3
    # while a,b costs 1.2
    assert checker.relative_gap(net, x, checker.RISK_NEUTRAL) == pytest.approx(0.1 / 1.2)


def test_braess_certificate_passes():
    net = braess(0.1)
    z = {("a", "b"): 0.5, ("c", "d"): 0.5}
    x = {("a", "e", "d"): 1.0}
    report = dict(
        cost_rawe=1.3, cost_rnwe=1.1, pra=1.3 / 1.1, kappa=0.1, rho=1.2 / 1.1, eta=2, checks=[]
    )
    assert checker.check_certificate(net, x, z, report) == []
    report["pra"] = 1.2
    assert any("pra" in p for p in checker.check_certificate(net, x, z, report))


@pytest.mark.parametrize("gamma,kappa", [(1.0, 0.5), (2.0, 0.25), (0.5, 1.0)])
def test_pigou_pra_is_one_plus_gamma_kappa(gamma, kappa):
    net = pigou(gamma, kappa)
    share = 1.0 / (1.0 + gamma * kappa)
    z = {("e1",): share, ("e2",): 1.0 - share}
    x = {("e1",): 1.0}
    xf, zf = checker.edge_flows(net, x), checker.edge_flows(net, z)
    pra = checker.social_cost(net, xf) / checker.social_cost(net, zf)
    assert pra == pytest.approx(1.0 + gamma * kappa, rel=1e-15)
    assert checker.kappa(net, xf) == pytest.approx(kappa, rel=1e-15)
    assert checker.relative_gap(net, z, checker.RISK_NEUTRAL) < 1e-15
    assert checker.relative_gap(net, x, checker.MEAN_VAR) < 1e-15
    # the chain is tight: pra = 1 + gamma*kappa*eta with eta = 1 = floor(n/2)
    report = dict(
        cost_rawe=1.0 + gamma * kappa, cost_rnwe=1.0, pra=pra, kappa=kappa, rho=1.0, eta=1,
        checks=[("pra-eta-bound", True, True, False)],
    )
    assert checker.check_certificate(net, x, z, report) == []


@pytest.mark.parametrize("k", [2, 3, 4])
def test_zigzag_oracle_closed_forms(k):
    net = zigzag(k)
    paths = checker.all_paths(net)
    assert len(paths) == checker.path_count(net) == k * (k + 1) // 2
    crossing = max(paths, key=len)  # s1 m1 c1 m2 ... mk tk, through every rung
    direct = {(f"s{i}", f"m{i}", f"t{i}"): 1.0 / k for i in range(1, k + 1)}
    assert checker.relative_gap(net, direct, checker.RISK_NEUTRAL) < 1e-15
    s_z = checker.shortest_latency(net, checker.edge_flows(net, direct))
    assert s_z == pytest.approx(1.0 / k, rel=1e-15)
    vertices = [checker.shortest_latency(net, checker.edge_flows(net, {p: 1.0})) for p in paths]
    assert max(vertices) == 1.0
    assert checker.shortest_latency(net, checker.edge_flows(net, {crossing: 1.0})) == 1.0
    assert checker.check_oracle(net, direct, 1.0, {crossing: 1.0}, 10, False) == []
    assert checker.check_zigzag(net, k, direct, 1.0) == []
    # zigzag is not series-parallel: the series-parallel bound must not hold
    assert checker.check_oracle(net, direct, 1.0, {crossing: 1.0}, 10, True) != []


def test_oracle_check_rejects_wrong_values():
    net = zigzag(2)
    direct = {("s1", "m1", "t1"): 0.5, ("s2", "m2", "t2"): 0.5}
    crossing = {("s1", "m1", "c1", "m2", "t2"): 1.0}
    assert checker.check_oracle(net, direct, 0.9, crossing, 10, False) != []
    off_grid = {("s1", "m1", "c1", "m2", "t2"): 0.95, ("s1", "m1", "t1"): 0.05}
    assert checker.check_oracle(net, direct, 1.0, off_grid, 10, False) != []


def _random_dag(rng, n, m):
    nodes = ["s"] + [f"v{i}" for i in range(1, n - 1)] + ["t"]
    arcs = list(zip(nodes, nodes[1:]))
    while len(arcs) < m:
        i = rng.randrange(n - 1)
        arcs.append((nodes[i], nodes[rng.randrange(i + 1, n)]))
    edges = [
        _edge(f"e{j:02d}", a, b, (rng.uniform(0.1, 1), rng.uniform(0, 1)), (rng.uniform(0, 0.5),))
        for j, (a, b) in enumerate(arcs)
    ]
    return checker.Net(_doc(nodes, edges, risk_model="mean-stdev"))


@pytest.mark.parametrize("seed", range(5))
def test_dp_agrees_with_enumeration(seed):
    rng = random.Random(seed)
    net = _random_dag(rng, 7, 14)
    paths = checker.all_paths(net)
    assert len(paths) == checker.path_count(net)
    assert all(checker.is_source_sink_path(net, p) for p in paths)
    flows = {eid: rng.uniform(0, 1) for eid in net.edges}
    costs = checker.edge_costs(net, flows, checker.MEAN_VAR)
    assert checker.shortest_path(net, costs) == pytest.approx(
        min(sum(costs[e] for e in p) for p in paths), rel=1e-12
    )


def test_stdev_equilibrium_closed_form():
    # A two-edge route with stdevs 0.3 and 0.4 costs 0.2 + 0.1 + hypot(0.3, 0.4)
    # = 0.8 under mean-stdev, matched by the direct edge at flow 0.8. Read as
    # variances, the route costs 0.3 + 0.3 + 0.4 = 1.0 under mean-var, so the
    # same flow has gap (0.8 * 0.8 + 0.2 * 1.0 - 0.8) / 0.8 = 0.05.
    net = checker.Net(
        _doc(
            ["s", "m", "t"],
            [
                _edge("a", "s", "m", (0.2,), (0.3,)),
                _edge("b", "m", "t", (0.1,), (0.4,)),
                _edge("d", "s", "t", (0.0, 1.0)),
            ],
            risk_model="mean-stdev",
        )
    )
    x = {("d",): 0.8, ("a", "b"): 0.2}
    assert checker.relative_gap(net, x, checker.MEAN_STDEV) < 1e-15
    assert checker.relative_gap(net, x, checker.MEAN_VAR) == pytest.approx(0.05)


def test_flow_check_catches_bad_paths_and_edges():
    net = braess(0.1)
    good = {("a", "b"): 0.5, ("c", "d"): 0.5}
    edges = checker.edge_flows(net, good)
    assert checker.check_flow(net, good, edges, "z") == []
    assert checker.check_flow(net, {("a", "d"): 1.0}, edges, "z") != []
    assert checker.check_flow(net, {("a", "b"): 0.5}, edges, "z") != []
    assert checker.check_flow(net, good, dict(edges, e=0.1), "z") != []
    assert checker.all_paths(net) == [("a", "b"), ("a", "e", "d"), ("c", "d")]
