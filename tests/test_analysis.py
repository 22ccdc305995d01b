"""Report assembly: kappa, the named bound checks, the sigma inequality, and
the exact grid maximizer of the shortest-path latency."""

import copy
import dataclasses
import hashlib
import importlib
import itertools
import json
import math
import pickle
import pkgutil
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import riskroute
import riskroute.analysis as analysis
import riskroute.network as network
import riskroute.solvers as solvers
from riskroute import suites
from riskroute.analysis import (
    DEFAULT_ORACLE_GRID,
    DEFAULT_ORACLE_MAX_PATHS,
    SIGMA_SLACK,
    BoundCheck,
    braess_stdev_inequality_batch,
    max_shortest_path_oracle,
    pra_report,
    report_to_dict,
    within,
)
from riskroute.instances import make
from riskroute.network import (
    RISK_MEAN_STDEV,
    RISK_MEAN_VAR,
    Edge,
    Instance,
    Network,
    PathCountError,
    is_series_parallel,
    poly_value,
)
from riskroute.solvers import (
    DEFAULT_TOL,
    EquilibriumResult,
    ZeroCostPathWarning,
    solve_pair,
    solve_rawe,
    solve_rnwe,
)

import reference
from paths import enumerate_simple_paths

sigma_values = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


def _edge(eid, tail, head, lat, risk=(0.0,)):
    return Edge(eid, tail, head, tuple(lat), tuple(risk))


def _parallel_instance(edges, name):
    net = Network(nodes=("s", "t"), edges=tuple(edges), source="s", sink="t")
    return Instance(network=net, demand=1.0, gamma=1.0, name=name)


def _solved_report(instance):
    return pra_report(instance, solve_rawe(instance), solve_rnwe(instance))


def _kappa(network, flows):
    """The report's kappa at edge flows keyed by id."""
    return analysis._edge_table(network, flows)[3]


def _shortest_length(network, flows):
    """The report's latency-shortest path length at edge flows keyed by id."""
    return solvers._sweep_path(network, analysis._edge_table(network, flows)[0])[0]


# --- kappa ----------------------------------------------------------


def test_kappa_at_flow_examples():
    braess = make("braess", v=0.1)
    x = solve_rawe(braess).flow
    assert _kappa(braess.network, x.edge_flow) == pytest.approx(0.1, rel=1e-9)

    pigou = make("pigou", kappa=1.0, gamma=1.0)
    assert _kappa(pigou.network, {"e1": 1.0, "e2": 0.0}) == pytest.approx(1.0)


def test_kappa_infinite_on_free_risky_edge():
    """Zero latency with positive risk has no finite ratio."""
    instance = _parallel_instance(
        [_edge("e1", "s", "t", (1.0,)), _edge("e2", "s", "t", (0.0, 1000.0), (1.0,))],
        name="steep",
    )
    assert _kappa(instance.network, {"e1": 1.0, "e2": 0.0}) == math.inf


# --- edge tables ------------------------------------------------------


def _table_bits(table):
    """Edge tables (lists by edge position, then scalars) as the exact hex
    strings of their values."""
    return [[v.hex() for v in part] if isinstance(part, list) else part.hex() for part in table]


def _by_position(network, table):
    """A reference table, its dicts keyed by edge id, with each dict made a
    list by edge position."""
    return [
        [part[eid] for eid in network.edge_position] if isinstance(part, dict) else part
        for part in table
    ]


def test_edge_table_matches_reference():
    """On the bound-chain draws, seeds 0-299, mean-var as drawn and as
    mean-stdev copies: at both solved flows the report's one-pass edge table
    (latencies, risks, social cost, kappa) and the shortest path length on
    its latencies equal the poly_value-call reference to the bit, and
    so does each solve's zero-flow table."""
    for model in (RISK_MEAN_VAR, RISK_MEAN_STDEV):
        for seed in range(300):
            instance = suites.random_general(seed, risk_model=model)
            net = instance.network
            for result in (solve_rawe(instance), solve_rnwe(instance)):
                flows = result.flow.edge_flow
                want = reference.edge_table(net, flows)
                got = analysis._edge_table(net, flows)
                assert _table_bits(got) == _table_bits(_by_position(net, want))
                assert _kappa(net, flows).hex() == want[3].hex()
                length = _shortest_length(net, flows)
                assert length.hex() == reference.shortest_path(net, want[0])[0].hex()
            for mode in (solvers.RISK_NEUTRAL, model):
                pool = solvers._PathPool(instance, mode)
                assert pool.at == [0.0] * len(net.edges)
                want = reference.solve_table(instance, mode, None)
                assert _table_bits(pool.table) == _table_bits(_by_position(net, want))


#: Edge polynomials at the corners of Horner's steps: -0.0 coefficients, a
#: single coefficient, no coefficients, and zero latency under positive risk.
_CORNER_EDGES = [
    _edge("a", "s", "t", (-0.0,), (-0.0,)),
    _edge("b", "s", "t", (2.0,), ()),
    _edge("c", "s", "t", (), (0.5,)),
    _edge("d", "s", "t", (-0.0, 1.0, -0.0), (-0.0, 0.25)),
    _edge("e", "s", "t", (0.5, 0.0, 3.0), (1.0, 2.0)),
]


@pytest.mark.parametrize("model", [RISK_MEAN_VAR, RISK_MEAN_STDEV])
def test_edge_tables_match_reference_at_the_corners(model):
    """On parallel edges with -0.0 coefficients, one coefficient, none, and
    zero latency under positive risk (kappa is infinite with edge c, finite
    without it), the report's edge table at zero and positive flows and
    each solve's zero-flow table and repricing equal the poly_value-call
    references to the bit."""
    for edges in (_CORNER_EDGES, [e for e in _CORNER_EDGES if e.id != "c"]):
        instance = dataclasses.replace(_parallel_instance(edges, "corners"), risk_model=model)
        net = instance.network
        kappas = set()
        for flows in (
            dict.fromkeys(net.edge_map, 0.0),
            {e.id: 0.25 * i for i, e in enumerate(edges)},
        ):
            got = analysis._edge_table(net, flows)
            assert _table_bits(got) == _table_bits(_by_position(net, reference.edge_table(net, flows)))
            kappas.add(got[3])
        assert (math.inf in kappas) == (edges is _CORNER_EDGES)
        for mode in (solvers.RISK_NEUTRAL, model):
            pool = solvers._PathPool(instance, mode)
            want = reference.solve_table(instance, mode, None)
            assert _table_bits(pool.table) == _table_bits(_by_position(net, want))
            flows = {e.id: 0.5 + i for i, e in enumerate(edges)}
            want = reference.solve_table(instance, mode, flows)
            paths = {(pos,): flows[eid] for eid, pos in net.edge_position.items()}
            assert _table_bits(pool.priced(paths)[1]) == _table_bits(_by_position(net, want))


def _sealed_horner_loop(coeffs, x):
    raise AssertionError("an edge polynomial took poly_value's loop")


def test_certify_path_calls_no_edge_polynomial_method(monkeypatch):
    """solve_wardrop in each mode and pra_report never take the slow path of
    an edge polynomial: with ``poly_value``'s loop fallback raising, Braess,
    Pigou and the bound-chain draws (seeds 0-99, mean-var and mean-stdev)
    solve and report exactly as they do unpatched (every float by its
    round-trip repr)."""
    instances = [make("braess", v=0.1), make("pigou", kappa=1.0, gamma=1.0)]
    instances += [
        suites.random_general(seed, risk_model=model)
        for model in (RISK_MEAN_VAR, RISK_MEAN_STDEV)
        for seed in range(100)
    ]

    def certify(instance):
        x, z = solve_rawe(instance), solve_rnwe(instance)
        report = pra_report(instance, x, z) if x.converged and z.converged else None
        return repr((x, z, report))

    plain = [certify(instance) for instance in instances]
    monkeypatch.setattr(network, "_horner_loop", _sealed_horner_loop)
    with pytest.raises(AssertionError, match="loop"):
        poly_value((1.0,) * 5, 2.0)
    for instance, want in zip(instances, plain):
        assert certify(instance) == want, instance.name
    assert sum("PraReport" in out for out in plain) > 150


# --- reports ----------------------------------------------------------


#: The bound checks in report order.
CHECK_NAMES = [
    "rawe-cost-le-min-path-cost",
    "rawe-cost-le-scaled-latency",
    "rawe-cost-le-min-risk-path-latency",
    "alternating-rawe-bound",
    "chain-monotone-link",
    "chain-rnwe-link",
    "chain-eta-link",
    "alternating-rnwe-bound",
    "pra-eta-bound",
    "pra-worstcase-bound",
    "pra-rho-bound",
    "stdev-all-forward-bound",
    "braess-stdev-bound",
]


def _degenerate_report():
    """The report on one zero-latency risky edge: the risk-neutral cost is
    zero, so every check is listed, all but the first skipped."""
    instance = _parallel_instance([_edge("z1", "s", "t", (0.0,), (1.0,))], name="flat")
    with pytest.warns(ZeroCostPathWarning):
        z_result = solve_rnwe(instance)
    return pra_report(instance, solve_rawe(instance), z_result)


def test_check_registry_names():
    names = [c.name for c in _degenerate_report().checks]
    assert len(set(names)) == 13
    assert names == CHECK_NAMES


def test_bound_check_is_an_immutable_value():
    """A check row keeps its field names, order and defaults, refuses
    assignment, hashes, and compares equal to an equal row."""
    assert BoundCheck._fields == ("name", "lhs", "rhs", "passed", "proven", "skipped", "note")
    assert BoundCheck._field_defaults == {"proven": True, "skipped": False, "note": ""}
    row = BoundCheck("pra-eta-bound", 1.5, 2.0, True)
    assert (row.proven, row.skipped, row.note) == (True, False, "")
    with pytest.raises(AttributeError):
        row.passed = False
    twin = BoundCheck("pra-eta-bound", 1.5, 2.0, passed=True, proven=True, skipped=False, note="")
    assert row == twin and hash(row) == hash(twin)
    assert len({row, twin}) == 1
    assert row._replace(passed=False) != row


def test_braess_report_frozen_values():
    report = _solved_report(make("braess", v=0.1))
    assert report.cost_rnwe == pytest.approx(1.1, rel=1e-9)
    assert report.cost_rawe == pytest.approx(1.3, rel=1e-9)
    assert report.pra == pytest.approx(1.1818181818181817, rel=1e-9)
    assert report.kappa == pytest.approx(0.1, rel=1e-9)
    assert report.kappa_diagnostic == pytest.approx(0.1, rel=1e-9)
    assert report.eta == 2
    assert report.bound_eta == pytest.approx(1.2, rel=1e-9)
    assert report.bound_worstcase == pytest.approx(1.2, rel=1e-9)
    assert report.rho == pytest.approx(1.0909090909090908, rel=1e-9)
    assert report.bound_rho == pytest.approx(1.2, rel=1e-9)
    assert report.alternating_arcs == (
        ("c", "forward"),
        ("e", "backward"),
        ("b", "forward"),
    )
    assert report.gap_rnwe <= DEFAULT_TOL
    assert report.gap_rawe <= DEFAULT_TOL
    assert not report.degenerate
    assert len(report.checks) == 11
    assert all(not c.skipped for c in report.checks)
    assert all(c.passed for c in report.checks)
    assert report.ok


def test_pigou_report_frozen_values():
    report = _solved_report(make("pigou", kappa=1.0, gamma=1.0))
    assert report.cost_rnwe == pytest.approx(1.0, rel=1e-9)
    assert report.cost_rawe == pytest.approx(2.0, rel=1e-9)
    assert report.pra == pytest.approx(2.0, rel=1e-9)
    assert report.eta == 1
    assert report.bound_eta == pytest.approx(2.0, rel=1e-9)
    assert report.rho == pytest.approx(1.0, rel=1e-9)
    assert report.bound_rho == pytest.approx(2.0, rel=1e-9)
    assert report.alternating_arcs == (("e2", "forward"),)
    assert report.ok


_BRAESS_CHECKS = [
    "rawe-cost-le-min-path-cost",
    "rawe-cost-le-scaled-latency",
    "rawe-cost-le-min-risk-path-latency",
    "alternating-rawe-bound",
    "chain-monotone-link",
    "chain-rnwe-link",
    "chain-eta-link",
    "alternating-rnwe-bound",
    "pra-eta-bound",
    "pra-worstcase-bound",
    "pra-rho-bound",
]
_NO_CHAIN_CHECKS = [
    "rawe-cost-le-min-path-cost",
    "rawe-cost-le-scaled-latency",
    "rawe-cost-le-min-risk-path-latency",
    "alternating-rnwe-bound",
    "pra-eta-bound",
    "pra-worstcase-bound",
    "pra-rho-bound",
]


@pytest.mark.parametrize(
    "instance, eta, backward, names, unproven",
    [
        (make("braess", v=0.1), 2, ["e"], _BRAESS_CHECKS, set()),
        (
            make("braess", v=0.1, risk_model=RISK_MEAN_STDEV),
            2,
            ["e"],
            _BRAESS_CHECKS + ["braess-stdev-bound"],
            set(),
        ),
        (
            make("pigou", kappa=1.0, gamma=1.0, risk_model=RISK_MEAN_STDEV),
            1,
            [],
            _NO_CHAIN_CHECKS + ["stdev-all-forward-bound"],
            set(),
        ),
        (
            make(
                "random_general", seed=12, n=6, m=12, risk_model=RISK_MEAN_STDEV,
                gamma=2.0, kappa_target=0.8,
            ),
            2,
            ["e05"],
            _NO_CHAIN_CHECKS,
            {"pra-eta-bound", "pra-worstcase-bound"},
        ),
    ],
    ids=["braess", "braess-stdev", "pigou-stdev", "stdev-backward-arc"],
)
def test_report_holds_the_applicable_checks(instance, eta, backward, names, unproven):
    """Which checks a report holds and which of them are proven: the chain
    links need mean-var or the Braess topology, the mean-stdev extras need
    an all-forward path or the Braess topology, and off both the eta bounds
    are reported unproven without gating the verdict."""
    report = _solved_report(instance)
    assert report.eta == eta
    assert [eid for eid, d in report.alternating_arcs if d == "backward"] == backward
    assert [c.name for c in report.checks] == names
    assert {c.name for c in report.checks if not c.proven} == unproven
    for c in report.checks:
        assert not c.skipped and c.passed
        assert c.note == ("unproven bound" if c.name in unproven else "")
    assert report.ok


def test_report_with_infinite_kappa_skips_scaled_checks():
    """An idle zero-latency risky edge forces kappa to infinity; every check
    that multiplies by kappa is skipped with a note, the rest still run."""
    instance = _parallel_instance(
        [_edge("e1", "s", "t", (1.0,)), _edge("e2", "s", "t", (0.0, 1000.0), (1.0,))],
        name="steep",
    )
    report = _solved_report(instance)
    assert math.isinf(report.kappa)
    assert not report.degenerate
    by_name = {c.name: c for c in report.checks}
    skipped = {name for name, c in by_name.items() if c.skipped}
    assert skipped == {
        "rawe-cost-le-scaled-latency",
        "alternating-rawe-bound",
        "chain-monotone-link",
        "chain-rnwe-link",
        "chain-eta-link",
        "pra-eta-bound",
        "pra-worstcase-bound",
        "pra-rho-bound",
    }
    assert all("kappa is infinite" in by_name[name].note for name in skipped)
    evaluated = set(by_name) - skipped
    assert evaluated == {
        "rawe-cost-le-min-path-cost",
        "rawe-cost-le-min-risk-path-latency",
        "alternating-rnwe-bound",
    }
    assert all(by_name[name].passed for name in evaluated)
    assert report.ok


def test_degenerate_report_when_risk_neutral_cost_is_zero():
    report = _degenerate_report()
    assert report.degenerate
    assert math.isnan(report.pra)
    assert [c.name for c in report.checks] == CHECK_NAMES
    assert not report.checks[0].skipped and report.checks[0].passed
    assert all(c.skipped for c in report.checks[1:])
    assert all("risk-neutral cost is zero" in c.note for c in report.checks[1:])
    assert report.ok


def test_report_requires_converged_results():
    instance = make("pigou", kappa=1.0, gamma=1.0)
    good = solve_rawe(instance)
    bad = EquilibriumResult(
        flow=good.flow,
        relative_gap=1.0,
        iterations=0,
        min_path_cost=good.min_path_cost,
        deviation=good.deviation,
        stop_reason="max-iter",
    )
    with pytest.raises(ValueError, match="converged"):
        pra_report(instance, good, bad)


def test_report_to_dict_json_round_trip():
    report = _solved_report(make("braess", v=0.1))
    payload = report_to_dict(report)
    decoded = json.loads(json.dumps(payload))
    assert decoded["pra"] == pytest.approx(1.1818181818181817, rel=1e-9)
    assert decoded["eta"] == 2
    assert decoded["ok"] is True
    assert len(decoded["checks"]) == 11
    assert decoded["alternating_path"] == [
        {"edge": "c", "direction": "forward"},
        {"edge": "e", "direction": "backward"},
        {"edge": "b", "direction": "forward"},
    ]


def test_report_to_dict_stringifies_non_finite_values():
    instance = _parallel_instance(
        [_edge("e1", "s", "t", (1.0,)), _edge("e2", "s", "t", (0.0, 1000.0), (1.0,))],
        name="steep",
    )
    payload = report_to_dict(_solved_report(instance))
    assert payload["kappa"] == "inf"
    json.dumps(payload)


# --- path bounds ----------------------------------------------------------


def test_min_risk_path_check_braess():
    """The min-risk route a-e-d bounds the risk-averse cost by its latency
    1.3, which the Braess equilibrium attains."""
    report = _solved_report(make("braess", v=0.1))
    check = next(
        c for c in report.checks if c.name == "rawe-cost-le-min-risk-path-latency"
    )
    assert check.rhs == pytest.approx(1.3, rel=1e-9)
    assert check.passed


def test_min_risk_path_matches_enumeration():
    """On random_general seeds 0-199 at both solved flows, under both risk
    models, the least-risk path is the brute-force minimum of (path risk,
    path) or ties its risk within 4 ulps."""
    for seed in range(200):
        instance = suites.random_general(seed)
        x, z = solve_rawe(instance), solve_rnwe(instance)
        for inst in (instance, dataclasses.replace(instance, risk_model=RISK_MEAN_STDEV)):
            for flows in (x.flow.edge_flow, z.flow.edge_flow):
                risks = analysis._edge_table(inst.network, flows)[1]
                ids = tuple(inst.network.edge_position)
                path = tuple(ids[pos] for pos in analysis._min_risk_path(inst, risks))
                risk = reference.path_risk(inst, flows, path)
                ref_risk, ref_path = min(
                    (reference.path_risk(inst, flows, p), p)
                    for p in enumerate_simple_paths(inst.network)
                )
                if path != ref_path:
                    assert abs(risk - ref_risk) <= 4 * math.ulp(ref_risk), seed


def test_mean_var_report_enumerates_no_paths():
    """A mean-var report and gap take every minimum over paths as a shortest
    path, and a mean-stdev solve and report search the (latency, variance)
    hull by shortest paths: neither needs the paths, which no riskroute
    module lists (test_oracle_enumerates_no_path)."""
    instance = make("random_general", seed=0, n=20, m=60)
    x, z = solve_pair(instance)
    stdev = make("braess", v=0.1, risk_model=RISK_MEAN_STDEV)
    assert pra_report(instance, x, z).ok
    for result in (x, z):
        assert reference.relative_gap(instance, result.flow) <= result.relative_gap + 1e-12
    sx, sz = solve_pair(stdev)  # mean-stdev and risk-neutral solve_wardrop
    assert pra_report(stdev, sx, sz).ok
    assert reference.relative_gap(stdev, sx.flow) <= sx.relative_gap + 1e-12


@pytest.mark.parametrize("model", [RISK_MEAN_VAR, RISK_MEAN_STDEV])
def test_report_prices_no_path(monkeypatch, model):
    """The report reads the results' edge flows and the certificates their
    solves made: it builds no path pool and never reads a path flow."""
    instance = make("random_general", seed=3, n=8, m=16, risk_model=model)
    x, z = solve_pair(instance)
    expected = report_to_dict(pra_report(instance, x, z))

    def refuse(*args, **kwargs):
        raise AssertionError("_PathPool built during the report")

    monkeypatch.setattr(solvers, "_PathPool", refuse)
    x, z = (
        dataclasses.replace(r, flow=dataclasses.replace(r.flow, path_flow=None))
        for r in (x, z)
    )
    assert report_to_dict(pra_report(instance, x, z)) == expected


def test_report_fields_match_their_definitions():
    """On the bound-chain draws, seeds 0-199, and random_general n=20, m=60
    seeds 0-19, the report's costs equal (==) the reference edge table's
    social cost at the solved flows, its kappa the edge table's kappa at x,
    its kappa diagnostic the larger of that at x and at z, and its rho the
    shortest path length on x's latencies over z's min_path_cost."""
    instances = [suites.random_general(seed) for seed in range(200)]
    instances += [make("random_general", seed=seed, n=20, m=60) for seed in range(20)]
    for instance in instances:
        x, z = solve_pair(instance)
        report = pra_report(instance, x, z)
        net, xf, zf = instance.network, x.flow.edge_flow, z.flow.edge_flow
        assert report.cost_rawe == reference.edge_table(net, xf)[2], instance.name
        assert report.cost_rnwe == reference.edge_table(net, zf)[2], instance.name
        kappa_x, kappa_z = _kappa(net, xf), _kappa(net, zf)
        assert report.kappa == kappa_x, instance.name
        assert report.kappa_diagnostic == max(kappa_x, kappa_z), instance.name
        assert report.rho == _shortest_length(net, xf) / z.min_path_cost, instance.name


def test_report_rejects_swapped_results():
    instance = make("braess", v=0.1)
    x, z = solve_pair(instance)
    with pytest.raises(ValueError, match="'mean-var' equilibrium"):
        pra_report(instance, z, x)
    stdev = dataclasses.replace(instance, risk_model=RISK_MEAN_STDEV)
    with pytest.raises(ValueError, match="'mean-stdev' equilibrium"):
        pra_report(stdev, x, z)


@pytest.mark.parametrize("n, m, seeds", [(40, 120, range(10)), (100, 400, range(5))])
def test_report_beyond_the_path_cap(n, m, seeds):
    """Certificates under both risk models need no path enumeration, so they
    cover networks with more simple paths than DEFAULT_PATH_CAP."""
    for risk_model in (RISK_MEAN_VAR, RISK_MEAN_STDEV):
        for seed in seeds:
            instance = make(
                "random_general", seed=seed, n=n, m=m, risk_model=risk_model
            )
            x, z = solve_pair(instance)
            assert pra_report(instance, x, z).ok, (risk_model, seed)
    with pytest.raises(PathCountError):
        enumerate_simple_paths(instance.network)


def test_shortest_path_length_zigzag():
    """At the risk-neutral equilibrium of the k-stage zigzag the shortest
    path latency is 1/k."""
    for k in (2, 3):
        instance = make("zigzag", k=k)
        z = solve_rnwe(instance).flow
        s_z = _shortest_length(instance.network, z.edge_flow)
        assert s_z == pytest.approx(1.0 / k, rel=1e-6)


# --- relabeled ids ----------------------------------------------------------

#: Values that follow a tie-break by edge id and can move when ids are
#: relabeled: the least-risk path's latency and the alternating path's
#: chain value for x. Each bound holds for any tied choice.
TIE_DEPENDENT = {
    ("rawe-cost-le-min-risk-path-latency", "rhs"),
    ("alternating-rawe-bound", "rhs"),
    ("chain-monotone-link", "lhs"),
}


def _relabeled(instance: Instance) -> Instance:
    """The instance with each edge renamed so that sorted ids reverse the
    declaration order."""
    edges = instance.network.edges
    renamed = tuple(
        dataclasses.replace(e, id=f"r{len(edges) - 1 - i:04d}") for i, e in enumerate(edges)
    )
    network = dataclasses.replace(instance.network, edges=renamed)
    return dataclasses.replace(instance, network=network)


def _relabel_mismatches(instance: Instance) -> list[str]:
    """Where solving and reporting the relabeled copy differs from the
    instance: a stop reason, eta, ``ok`` or a check's flags, or an lhs or
    rhs outside ``CHECK_REL_SLACK`` relative, tie-dependent values aside."""
    solved = []
    for copy in (instance, _relabeled(instance)):
        x, z = solve_rawe(copy), solve_rnwe(copy)
        solved.append(((x.stop_reason, z.stop_reason), pra_report(copy, x, z)))
    (stops, report), (stops_r, report_r) = solved
    bad = [] if stops == stops_r else [f"stop reasons {stops} != {stops_r}"]
    if (report.eta, report.ok) != (report_r.eta, report_r.ok):
        bad.append(f"eta, ok {report.eta, report.ok} != {report_r.eta, report_r.ok}")
    for check, check_r in itertools.zip_longest(report.checks, report_r.checks):
        flags = (check.name, check.passed, check.proven, check.skipped)
        if flags != (check_r.name, check_r.passed, check_r.proven, check_r.skipped):
            bad.append(f"{check.name} flags differ")
            continue
        for side in ("lhs", "rhs"):
            a, b = getattr(check, side), getattr(check_r, side)
            if (check.name, side) in TIE_DEPENDENT or (math.isnan(a) and math.isnan(b)):
                continue
            if not abs(a - b) <= analysis.CHECK_REL_SLACK * max(abs(a), abs(b)):
                bad.append(f"{check.name} {side} {a!r} != {b!r}")
    return bad


def _relabel_cases() -> list[Instance]:
    return [
        suites.random_general(seed, risk_model=model)
        for seed in range(200)
        for model in (RISK_MEAN_VAR, RISK_MEAN_STDEV)
    ] + [
        make("braess", v=0.1),
        make("braess", v=0.1, risk_model=RISK_MEAN_STDEV),
        suites.random_general(362),
    ]


def test_relabeled_ids_leave_the_report_alone():
    """Solves and reports work on edge positions, which follow the sorted
    ids. Renaming the edges so that id order reverses declaration order
    changes no stop reason, eta, verdict or check flag, and moves no check
    value beyond round-off but the tie-dependent ones, on bound-chain draws
    0-199 under both risk models, Braess v=0.1 under both and seed 362."""
    for instance in _relabel_cases():
        assert _relabel_mismatches(instance) == [], (instance.name, instance.risk_model)


def test_relabeling_catches_latencies_summed_by_declaration_index(monkeypatch):
    """A report that sums the alternating path's latencies by declaration
    index instead of by position is right wherever ids sort in declaration
    order, as on the bound-chain draws; their relabeled copies show it."""
    search = analysis.find_alternating_path

    def by_declaration(network, x, z, eps):
        path = search(network, x, z, eps)
        declared = {e.id: i for i, e in enumerate(network.edges)}
        ids = tuple(network.edge_position)
        arcs = tuple((declared[ids[pos]], d) for pos, d in path.arcs)
        return dataclasses.replace(path, arcs=arcs)

    monkeypatch.setattr(analysis, "find_alternating_path", by_declaration)
    draws = [suites.random_general(seed) for seed in range(20)]
    assert all(tuple(e.id for e in d.network.edges) == tuple(d.network.edge_position) for d in draws)
    caught = sum(bool(_relabel_mismatches(draw)) for draw in draws)
    assert caught >= 15, caught


# --- sigma inequality ----------------------------------------------------------


def test_sigma_inequality_worked_example():
    verdict = reference.braess_stdev_inequality(3.0, 4.0, 0.0, 0.0, 0.0)
    assert verdict.precondition
    assert verdict.lhs == pytest.approx(2.0, rel=1e-12)
    assert verdict.rhs == pytest.approx(4.0, rel=1e-12)
    assert verdict.holds


def test_sigma_inequality_needs_precondition():
    """With the zigzag route riskiest the raw inequality can fail, which is
    why the claim carries the precondition: here lhs = 2 - sqrt(3) > 0 = rhs."""
    verdict = reference.braess_stdev_inequality(1.0, 0.0, 0.0, 1.0, 1.0)
    assert not verdict.precondition
    assert not verdict.holds
    assert verdict.lhs == pytest.approx(2.0 - math.sqrt(3.0), rel=1e-12)
    assert verdict.rhs == 0.0


@given(sigma_values, sigma_values, sigma_values, sigma_values, sigma_values)
def test_sigma_inequality_holds_under_precondition(sa, sb, sc, sd, se):
    verdict = reference.braess_stdev_inequality(sa, sb, sc, sd, se)
    if verdict.precondition:
        assert verdict.holds
        assert verdict.lhs <= verdict.rhs + SIGMA_SLACK


def test_sigma_precondition_survives_rounding():
    """sqrt(sa^2 + 16) rounds to 4 for sa = 5.96e-8, yet sigma_r exceeds
    max(sigma_p, sigma_q) = 4, so the precondition is false; the inequality
    itself fails there by sa > SIGMA_SLACK."""
    sigmas = (5.96e-8, 0.0, 0.0, 4.0, 0.0)
    verdict = reference.braess_stdev_inequality(*sigmas)
    assert not verdict.precondition
    assert not verdict.holds
    precondition, _, _, holds = braess_stdev_inequality_batch(np.array([sigmas]))
    assert not precondition[0]
    assert not holds[0]


def test_sigma_batch_matches_scalar():
    rng = np.random.default_rng(42)
    rows = rng.uniform(0.0, 10.0, size=(500, 5))
    pre, lhs, rhs, holds = braess_stdev_inequality_batch(rows)
    for i, row in enumerate(rows):
        verdict = reference.braess_stdev_inequality(*row)
        assert verdict.precondition == bool(pre[i])
        assert verdict.holds == bool(holds[i])
        assert lhs[i] == pytest.approx(verdict.lhs, rel=1e-12, abs=1e-12)
        assert rhs[i] == pytest.approx(verdict.rhs, rel=1e-12, abs=1e-12)


def test_sigma_batch_rejects_wrong_shape():
    with pytest.raises(ValueError, match="\\(N, 5\\)"):
        braess_stdev_inequality_batch(np.zeros((4, 3)))


# --- shortest-path maximizer ----------------------------------------------------------


def _lattice_oracle(instance, grid, max_paths=DEFAULT_ORACLE_MAX_PATHS):
    """The lattice branch-and-bound on the raw network, nothing folded: the
    reference for the oracle's fold. Its value is the lattice's own minimum
    of path sums; the maximizer is decomposed as the oracle decomposes its."""
    net = instance.network
    step = instance.demand / grid
    flows = np.arange(grid + 1) * step
    lat = {e.id: poly_value(e.latency, flows) for e in net.edges}
    value, units, points = analysis._lattice_maximum(net, lat, max_paths)
    path_flow = {p: n * step for p, n in reference.decompose_edge_flow(net, units).items()}
    return SimpleNamespace(value=value, path_flow=path_flow, points=points)


def test_oracle_pigou():
    """max over the simplex of min(2 f1, 1) is 1, first attained at the even
    split. Pigou is two parallel edges, so the DP makes one merge."""
    instance = make("pigou", kappa=1.0, gamma=1.0)
    result = max_shortest_path_oracle(instance, grid=100)
    assert result.value == pytest.approx(1.0, abs=1e-12)
    assert result.path_flow == {("e1",): 0.5, ("e2",): 0.5}
    assert result.grid == 100
    assert result.points == math.comb(102, 2)


def test_oracle_pigou_at_a_million_units():
    """The merge's memory is linear in the grid, so grid 10^6 fits: the same
    even split, one merge of C(10^6 + 2, 2) pairs."""
    instance = make("pigou", kappa=1.0, gamma=1.0)
    result = max_shortest_path_oracle(instance, grid=1_000_000)
    assert result.value == 1.0
    assert result.path_flow == {("e1",): 0.5, ("e2",): 0.5}
    assert result.points == math.comb(1_000_002, 2)


def test_oracle_memory_stays_near_one_latency_table():
    """Each edge's latency row comes from poly_value when a fold step
    first takes it in, and each part's row is dropped once merged, so the
    traced peak stays below the bytes of an (edges x grid+1) table of
    floats."""
    instance = make("random_sp", seed=4, budget=200)
    grid = 10_000
    tracemalloc.start()
    try:
        max_shortest_path_oracle(instance, grid=grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = len(instance.network.edges) * (grid + 1) * 8
    assert peak <= 0.8 * table, peak / table


def test_the_fold_is_made_once_per_network(monkeypatch):
    """Two oracle calls and a recognition on one network fold it once, and
    the pairs every caller shares cannot be written."""
    fold = Network.series_parallel.func
    calls = []

    def counted(network):
        calls.append(network)
        return fold(network)

    monkeypatch.setattr(Network.series_parallel, "func", counted)
    instance = make("zigzag", k=2)
    for grid in (10, 20):
        max_shortest_path_oracle(instance, grid=grid, max_paths=10)
    assert not is_series_parallel(instance.network)
    assert len(calls) == 1
    pairs = instance.network.series_parallel[1]
    with pytest.raises(TypeError):
        pairs["s", "t"] = 0


@pytest.mark.parametrize("how", ["pickle", "deepcopy"])
def test_a_folded_network_pickles_and_copies(how):
    """After a solve, a report and an oracle call have cached a network's
    topology and fold, a pickled or deep-copied instance equals the original,
    carries its fields alone, and gives the same oracle result, whose pairs
    still cannot be written."""
    for instance in (
        make("pigou", kappa=1.0, gamma=1.0),
        make("braess", v=0.1),
        make("random_sp", seed=4, budget=60),
    ):
        x, z = solve_pair(instance)
        pra_report(instance, x, z)
        want = max_shortest_path_oracle(instance)
        if how == "pickle":
            copied = pickle.loads(pickle.dumps(instance))
        else:
            copied = copy.deepcopy(instance)
        assert copied == instance
        assert copied.network.__dict__.keys() == {"nodes", "edges", "source", "sink"}
        got = max_shortest_path_oracle(copied)
        assert (got.value.hex(), got.points) == (want.value.hex(), want.points)
        assert list(got.path_flow.items()) == list(want.path_flow.items())
        with pytest.raises(TypeError):
            copied.network.series_parallel[1][copied.network.source, copied.network.sink] = 0


def test_oracle_takes_the_zero_polynomial_as_zero_latency():
    """The zero polynomial () is the zero latency, as (0.0,) is."""
    pigou = make("pigou", kappa=1.0, gamma=1.0)
    results = []
    for poly in ((), (0.0,)):
        first, *rest = pigou.network.edges
        net = dataclasses.replace(
            pigou.network, edges=(dataclasses.replace(first, latency=poly), *rest)
        )
        results.append(max_shortest_path_oracle(dataclasses.replace(pigou, network=net)))
    assert results[0] == results[1]
    assert results[0].value == 0.0


def test_oracle_zigzag_two_stages():
    """The two-stage zigzag maximizer reaches 1.0 while the equilibrium
    shortest path sits at 1/2: the ratio the worst-case bound is built from."""
    instance = make("zigzag", k=2)
    result = max_shortest_path_oracle(instance, grid=100, max_paths=10)
    assert result.value == pytest.approx(1.0, abs=1e-6)
    z = solve_rnwe(instance).flow
    assert _shortest_length(instance.network, z.edge_flow) == pytest.approx(
        0.5, rel=1e-6
    )


@pytest.mark.parametrize(
    "family, params, grid, max_paths, path, value, points",
    [
        # the source's 70,001 amounts make two blocks, so the threshold walk
        # follows two columns from the first split
        ("braess", dict(v=0.1), 70_000, 6, ("a", "e", "d"), 1.2, 70_001),
        ("zigzag", dict(k=3), 30, 10, ("s01", "m01", "c01", "m02", "c02", "m03", "t03"), 1.0, 31),
    ],
)
def test_oracle_pins_the_pruned_lattice(family, params, grid, max_paths, path, value, points):
    """Two non-series-parallel searches that the threshold prunes to grid + 1
    lattice points: the value, the maximizer (all demand on the zigzag
    route) and the points counted are pinned."""
    instance = make(family, **params)
    result = max_shortest_path_oracle(instance, grid=grid, max_paths=max_paths)
    assert not result.series_parallel
    assert (result.value, result.path_flow, result.points) == (value, {path: 1.0}, points)


def test_oracle_respects_path_cap():
    instance = make("zigzag", k=2)
    with pytest.raises(PathCountError):
        max_shortest_path_oracle(instance, grid=10, max_paths=2)


def test_oracle_verdict_catches_a_one_percent_error():
    """On series-parallel networks every grid point is a feasible flow, so the
    verdict allows round-off only: it accepts the equilibrium's S(z) on every
    oracle-suite seed and rejects S(z) deflated by 1% on every one."""
    for seed in range(100):
        instance = suites.random_sp(
            seed, max_budget=4, max_paths=DEFAULT_ORACLE_MAX_PATHS
        )
        z = solve_rnwe(instance).flow
        best = _shortest_length(instance.network, z.edge_flow)
        value = max_shortest_path_oracle(
            instance, grid=DEFAULT_ORACLE_GRID, max_paths=DEFAULT_ORACLE_MAX_PATHS
        ).value
        assert within(value, best), seed
        assert not within(value, 0.99 * best), seed


@pytest.mark.parametrize(
    "budget, seeds", [(200, range(10)), (1000, (4,))], ids=["budget200", "budget1000"]
)
def test_oracle_certifies_wide_series_parallel_supports(budget, seeds):
    """random_sp draws with far more than DEFAULT_ORACLE_MAX_PATHS paths: the
    DP needs none of them, and the equilibrium attains its maximum."""
    for seed in seeds:
        instance = make("random_sp", seed=seed, budget=budget)
        result = max_shortest_path_oracle(instance, grid=DEFAULT_ORACLE_GRID)
        assert result.series_parallel
        z = solve_rnwe(instance)
        assert within(result.value, z.min_path_cost), seed
    with pytest.raises(PathCountError):
        enumerate_simple_paths(instance.network, cap=DEFAULT_ORACLE_MAX_PATHS)


def _digest(path_flow):
    """A short fingerprint of a path flow's paths and exact amounts."""
    text = repr(sorted((p, amount.hex()) for p, amount in path_flow.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_oracle_enumerates_no_path():
    """No riskroute module lists paths, and at grid 30 the oracle returns the
    value, path flows and points that its search returned when it still
    listed the core's paths. Pigou and random_sp seed 8 are series-parallel
    and ignore max_paths=1; the others search a lattice."""
    for info in pkgutil.iter_modules(riskroute.__path__):
        module = importlib.import_module(f"riskroute.{info.name}")
        assert not hasattr(module, "enumerate_simple_paths"), info.name
    pinned = [
        ("pigou", dict(kappa=1.0, gamma=1.0), 1, "0x1.0000000000000p+0", 496, "eb8237af45d7463d"),
        ("random_sp", dict(seed=8, budget=200), 1, "0x1.e1e1e49bd563cp+3", 51584, "2e24b12dacb754cb"),
        ("braess", dict(v=0.1), 6, "0x1.3333333333333p+0", 31, "30f4fb98d31290ea"),
        ("zigzag", dict(k=2), 10, "0x1.0000000000000p+0", 31, "31a2aec34f3b7549"),
        ("zigzag", dict(k=3), 10, "0x1.0000000000000p+0", 31, "5c8e7693cb11477a"),
        ("zigzag", dict(k=4), 10, "0x1.0000000000000p+0", 31, "c1d112a023becca1"),
        ("random_general", dict(seed=293, n=7, m=14), 6, "0x1.7583dc77aef2bp+1", 2931, "f0f8d51ceb067fd7"),
        # a threshold with one single-path vertex, not one per path, lets
        # this search evaluate 355,190 points
        ("random_general", dict(seed=136, n=8, m=14), 10, "0x1.562af97188590p+1", 6985, "78a3b4efe77c7527"),
    ]
    for family, params, max_paths, value, points, digest in pinned:
        result = max_shortest_path_oracle(make(family, **params), grid=30, max_paths=max_paths)
        got = (result.value.hex(), result.points, _digest(result.path_flow))
        assert got == (value, points, digest), (family, params)


def _awkward_cores():
    """Networks whose path counts and path edges a DP can get wrong."""
    s_first = [_edge("sa", "s", "a", (0.0, 1.0)), _edge("at", "a", "t", (0.0, 1.0))]
    s_first.append(_edge("st", "s", "t", (1.0,)))
    parallel = s_first + [_edge("sa2", "s", "a", (0.5,)), _edge("at2", "a", "t", (0.0, 2.0))]
    # x has out-edges, one into the source, but no path from the source
    # reaches it, so it precedes the source in the topological order
    unreached = s_first + [_edge("xs", "x", "s", (1.0,)), _edge("xa", "x", "a", (1.0,))]
    # the source reaches d and e, which do not reach the sink
    dead_end = s_first + [_edge("sd", "s", "d", (1.0,)), _edge("ad", "a", "d", (1.0,))]
    dead_end.append(_edge("de", "d", "e", (1.0,)))
    cores = {
        "parallel edges": (("s", "a", "t"), parallel),
        "unreached tail": (("s", "a", "t", "x"), unreached),
        "dead end": (("s", "a", "d", "e", "t"), dead_end),
    }
    instances = [
        Instance(Network(nodes, tuple(edges), "s", "t"), demand=1.0, gamma=1.0, name=name)
        for name, (nodes, edges) in cores.items()
    ]
    return instances + [make("zigzag", k=k) for k in (2, 3, 4)]


def test_lattice_counts_the_paths_the_reference_lists():
    """On each awkward core the lattice searches exactly the edges of the
    reference's paths, accepts a cap of their number and refuses one less
    with the reference's message, and attains the stars-and-bars maximum."""
    grid = 4
    counts = []
    for instance in _awkward_cores():
        net = instance.network
        paths = enumerate_simple_paths(net)
        counts.append(len(paths))
        flows = np.arange(grid + 1) * instance.demand / grid
        lat = {e.id: poly_value(e.latency, flows) for e in net.edges}
        value, units, _ = analysis._lattice_maximum(net, lat, len(paths))
        assert set(units) == set().union(*paths), instance.name
        assert abs(value - _composition_maximum(instance, grid)) <= 1e-12, instance.name
        with pytest.raises(PathCountError) as listed:
            enumerate_simple_paths(net, cap=len(paths) - 1)
        with pytest.raises(PathCountError) as counted:
            analysis._lattice_maximum(net, lat, len(paths) - 1)
        assert str(counted.value) == str(listed.value), instance.name
    assert counts == [5, 2, 2, 3, 6, 10]


def test_oracle_reports_which_search_ran():
    """series_parallel is true exactly when the network is series-parallel."""
    instances = [make("braess", v=0.1), make("pigou", kappa=1.0, gamma=1.0)]
    instances += [make("zigzag", k=k) for k in (2, 3)]
    instances += [suites.random_sp(seed, max_budget=4, max_paths=6) for seed in range(20)]
    instances += [suites.random_general(seed) for seed in range(40)]
    seen = set()
    for instance in instances:
        if len(enumerate_simple_paths(instance.network, cap=100)) <= 10:
            result = max_shortest_path_oracle(instance, grid=10, max_paths=10)
            assert result.series_parallel == is_series_parallel(instance.network)
            seen.add(result.series_parallel)
    assert seen == {True, False}


def _composition_maximum(instance, grid):
    """Maximum over every path flow in d/grid steps of the shortest-path
    latency, by stars and bars over the simple paths."""
    net = instance.network
    paths = enumerate_simple_paths(net, cap=100)
    k = len(paths)
    step = instance.demand / grid
    best = -math.inf
    for bars in itertools.combinations(range(grid + k - 1), k - 1):
        cuts = (-1, *bars, grid + k - 1)
        counts = [b - a - 1 for a, b in zip(cuts, cuts[1:])]
        flows = {e.id: 0.0 for e in net.edges}
        for path, count in zip(paths, counts):
            for eid in path:
                flows[eid] += count * step
        best = max(best, min(reference.path_cost(instance, flows, p, solvers.RISK_NEUTRAL) for p in paths))
    return best


def _composition_maximum_vectorized(instance, grid):
    """:func:`_composition_maximum` with numpy, one row per path flow, for
    the grids and path counts the loop is too slow for."""
    net = instance.network
    paths = enumerate_simple_paths(net, cap=100)
    k = len(paths)
    bars = list(itertools.combinations(range(1, grid + k), k - 1))
    cuts = np.zeros((len(bars), k + 1), dtype=np.int64)
    cuts[:, 1:k] = np.array(bars, dtype=np.int64).reshape(len(bars), k - 1)
    cuts[:, k] = grid + k
    units = np.diff(cuts, axis=1) - 1
    incidence = np.array([[e.id in p for e in net.edges] for p in paths], dtype=float)
    flows = units @ incidence * (instance.demand / grid)
    latency = np.column_stack(
        [
            np.polynomial.polynomial.polyval(flows[:, j], e.latency)
            for j, e in enumerate(net.edges)
        ]
    )
    return float((latency @ incidence.T).min(axis=1).max())


def test_composition_references_agree():
    checked = 0
    for seed in range(60):
        instance = suites.random_sp(seed, max_budget=4, max_paths=6)
        if len(enumerate_simple_paths(instance.network)) <= 4:
            loop = _composition_maximum(instance, grid=12)
            assert abs(_composition_maximum_vectorized(instance, grid=12) - loop) <= 1e-12
            checked += 1
    assert checked >= 50


def _check_against_compositions(instance, grid):
    result = max_shortest_path_oracle(instance, grid=grid, max_paths=10)
    assert abs(result.value - _composition_maximum_vectorized(instance, grid)) <= 1e-12
    # the maximizer is a grid point of the path simplex that attains the value
    step = instance.demand / grid
    for amount in result.path_flow.values():
        assert amount > 0.0
        assert abs(amount / step - round(amount / step)) <= 1e-9
    assert math.fsum(result.path_flow.values()) == pytest.approx(
        instance.demand, rel=1e-12
    )
    flows = reference.edge_flow(result.path_flow, instance.network)
    assert abs(_shortest_length(instance.network, flows) - result.value) <= 1e-12


@pytest.mark.parametrize(
    "family, params, grid",
    [
        ("pigou", dict(kappa=1.0, gamma=1.0), 100),
        ("zigzag", dict(k=2), 10),
        ("zigzag", dict(k=3), 10),
        # the grids of the verify oracle suite
        ("zigzag", dict(k=2), 100),
        ("zigzag", dict(k=3), 30),
        ("zigzag", dict(k=4), 10),
    ],
)
def test_oracle_matches_path_compositions(family, params, grid):
    _check_against_compositions(make(family, **params), grid)


def test_oracle_matches_path_compositions_random_sp():
    """Every instance of the verify oracle suite's first 300 seeds, among
    them the 5- and 6-path ones, where the search prunes most."""
    by_paths = {}
    for seed in range(300):
        instance = suites.random_sp(seed, max_budget=4, max_paths=6)
        _check_against_compositions(instance, grid=20)
        k = len(enumerate_simple_paths(instance.network))
        by_paths[k] = by_paths.get(k, 0) + 1
    assert by_paths[5] >= 3 and by_paths[6] >= 2


def test_oracle_counts_integer_edge_flows():
    """random_sp seed 29 is three parallel edges in series with two, so 6
    paths: the lattice takes C(102, 2) ways to split 100 units over the
    first three times 101 over the last two, against C(105, 5) path-flow
    grid points. The DP makes three merges of C(102, 2) pairs each."""
    instance = suites.random_sp(29, max_budget=4, max_paths=6)
    assert len(enumerate_simple_paths(instance.network)) == 6
    result = _lattice_oracle(instance, grid=100)
    assert result.points == math.comb(102, 2) * 101 == 520_251
    assert max_shortest_path_oracle(instance, grid=100).points == 3 * math.comb(102, 2)


def _constant_latencies(instance):
    edges = tuple(
        dataclasses.replace(e, latency=(1.0,)) for e in instance.network.edges
    )
    return dataclasses.replace(
        instance, network=dataclasses.replace(instance.network, edges=edges)
    )


def test_oracle_ties_return_the_first_lattice_point():
    """With constant latencies every lattice point ties with the threshold,
    so none may be pruned, and the first one is returned: each node's whole
    inflow on its last out-edge."""
    instance = _constant_latencies(suites.random_sp(29, max_budget=4, max_paths=6))
    result = _lattice_oracle(instance, grid=20)
    assert result.value == 2.0
    assert result.path_flow == {("e04", "e03"): instance.demand}
    assert result.points == math.comb(22, 2) * 21


def test_oracle_ties_return_the_first_split_of_each_merge():
    """With constant latencies every split of every merge ties, and the DP
    keeps the first: no flow to the part reduced first, so all of it on the
    last declared edge of each parallel group."""
    instance = _constant_latencies(suites.random_sp(29, max_budget=4, max_paths=6))
    result = max_shortest_path_oracle(instance, grid=20)
    assert result.value == 2.0
    assert result.path_flow == {("e04", "e03"): instance.demand}


def _nondecreasing(rng, grid):
    """A nondecreasing array of grid + 1 values with plateaus and values
    repeated across arrays: cumulative sums of small integers, many zero."""
    steps = rng.choice([0, 0, 0, 1, 2], size=grid + 1)
    return (steps.cumsum() * 0.5).astype(float)


def _merge_inputs(rng, grid):
    """Pairs of nondecreasing arrays: plateaus with values repeated across
    the pair, the same array twice, constant arrays, and strictly
    increasing random floats."""
    first = _nondecreasing(rng, grid)
    yield first, _nondecreasing(rng, grid)
    yield first, first.copy()
    yield np.full(grid + 1, 1.5), np.full(grid + 1, float(rng.integers(3)))
    yield np.sort(rng.random(grid + 1)), np.cumsum(rng.random(grid + 1) + 1e-3)


def test_parallel_merge_matches_double_loop():
    """The merge gives the brute-force value and first argmax."""
    rng = np.random.default_rng(18)
    for grid in range(1, 121):
        for first, second in _merge_inputs(rng, grid):
            value, split = analysis._parallel_merge(first, second)
            for j in range(grid + 1):
                best, arg = -math.inf, None
                for i in range(j + 1):
                    v = min(first[i], second[j - i])
                    if v > best:
                        best, arg = v, i
                assert (value[j], split[j]) == (best, arg), (grid, j)


def _check_fold_against_lattice(
    instance, grid, max_paths=DEFAULT_ORACLE_MAX_PATHS, lattice_paths=DEFAULT_ORACLE_MAX_PATHS
):
    folded = max_shortest_path_oracle(instance, grid=grid, max_paths=max_paths)
    lattice = _lattice_oracle(instance, grid=grid, max_paths=lattice_paths)
    assert abs(folded.value - lattice.value) <= 1e-12 * abs(lattice.value)
    # the maximizer is a grid point of the path simplex that attains the value
    step = instance.demand / grid
    for amount in folded.path_flow.values():
        assert abs(amount / step - round(amount / step)) <= 1e-9
    assert math.fsum(folded.path_flow.values()) == pytest.approx(instance.demand, rel=1e-12)
    flows = reference.edge_flow(folded.path_flow, instance.network)
    at = _shortest_length(instance.network, flows)
    assert abs(at - folded.value) <= 1e-12 * abs(folded.value)
    return folded, lattice


def test_series_parallel_dp_matches_the_lattice():
    """Every oracle-suite seed 0-999 at grid 20, and at grid 100 the seeds
    where the lattice prunes nothing (29, 219, 796) or prunes most (94)."""
    for seed in range(1000):
        instance = suites.random_sp(seed, max_budget=4, max_paths=6)
        _check_fold_against_lattice(instance, grid=20)
    for seed in (29, 94, 219, 796):
        instance = suites.random_sp(seed, max_budget=4, max_paths=6)
        _check_fold_against_lattice(instance, grid=100)


def test_folded_oracle_matches_the_raw_lattice_off_series_parallel():
    """Bound-chain draws that are not series-parallel and fit the path cap:
    folding their series-parallel parts first keeps the raw lattice's
    maximum within round-off, and the shortest path at the maximizer is the
    value. Most draws fold some part, which changes the points counted."""
    checked = folded = 0
    for seed in range(300):
        instance = suites.random_general(seed)
        if is_series_parallel(instance.network):
            continue
        try:
            result, lattice = _check_fold_against_lattice(instance, grid=80)
        except PathCountError:
            continue
        checked += 1
        folded += result.points != lattice.points
    assert checked >= 100 and folded >= 90


def _edge_units(result, instance, names=None):
    """The oracle maximizer's units on each edge, ids mapped through
    ``names`` when given."""
    step = instance.demand / result.grid
    units = {}
    for path, amount in result.path_flow.items():
        for eid in path:
            key = names[eid] if names else eid
            units[key] = units.get(key, 0) + round(amount / step)
    return units


def test_relabeled_ids_leave_the_oracle_alone():
    """The fold runs in declaration order and node ids, so renaming the
    edges to reverse their id order leaves a series-parallel oracle's value
    bits, points and maximizer's edge units alone: oracle-suite seeds 0-299
    at grid 100 and random_sp budget 60 seeds 0-9 at grid 1000. The core
    lattice's order follows ids, so on bound-chain draws 0-99 at grid 20
    only the value must match, within round-off."""
    cases = [(suites.random_sp(seed, max_budget=4, max_paths=6), 100) for seed in range(300)]
    cases += [(make("random_sp", seed=seed, budget=60), 1000) for seed in range(10)]
    for instance, grid in cases:
        copy = _relabeled(instance)
        back = {r.id: e.id for r, e in zip(copy.network.edges, instance.network.edges)}
        result = max_shortest_path_oracle(instance, grid=grid)
        renamed = max_shortest_path_oracle(copy, grid=grid)
        got = (renamed.value.hex(), renamed.points, _edge_units(renamed, copy, back))
        want = (result.value.hex(), result.points, _edge_units(result, instance))
        assert got == want, instance.name
    for seed in range(100):
        instance = suites.random_general(seed)
        value = max_shortest_path_oracle(instance, grid=20, max_paths=12).value
        renamed = max_shortest_path_oracle(_relabeled(instance), grid=20, max_paths=12).value
        assert abs(renamed - value) <= 1e-12 * abs(value), seed


def _upper_fold(instance, grid):
    """An upper bound U on the largest shortest-path latency over every
    flow, not only the grid's: the oracle's fold with each edge's row read
    one unit up, row index i holding the latency at i + 1 units. By
    induction over the fold, a part's row at index i bounds its largest
    shortest-path latency at any flow of at most i + 1 units, since two
    flows t1 + t2 <= (i + 1) units are each at most i1 + 1 and i2 + 1 units
    with i1 + i2 <= i. U is the (source, sink) row at index grid - 1."""
    net = instance.network
    steps, pairs = net.series_parallel
    flows = np.arange(1, grid + 1) * (instance.demand / grid)
    # adding 0.0 * flows makes a row of the zero polynomial's scalar
    rows = [poly_value(net.edge_map[eid].latency, flows) + 0.0 * flows for eid in net.edge_position]
    for first, second, parallel in steps:
        a, b = rows[first], rows[second]
        rows.append(analysis._parallel_merge(a, b)[0] if parallel else a + b)
    return float(rows[pairs[net.source, net.sink]][grid - 1])


def test_the_equilibrium_lies_between_the_oracle_and_the_upper_fold():
    """Both sides of the series-parallel theorem: the equilibrium's shortest
    path S(z) is at least the grid maximum L and at most the upper fold's U,
    which bounds the maximum over all flows, on oracle-suite seeds 0-299 at
    grid 1000."""
    for seed in range(300):
        instance = suites.random_sp(seed, max_budget=4, max_paths=6)
        best = solve_rnwe(instance).min_path_cost
        lower = max_shortest_path_oracle(instance, grid=1000).value
        assert within(lower, best), seed
        assert within(best, _upper_fold(instance, 1000)), seed


def test_upper_fold_catches_a_tenth_of_a_percent_excess():
    """At grid 10^4 the upper fold is tight enough to reject S(z) inflated
    by 0.1% on every oracle-suite seed 0-49."""
    for seed in range(50):
        instance = suites.random_sp(seed, max_budget=4, max_paths=6)
        best = solve_rnwe(instance).min_path_cost
        assert not within(best * (1 + 1e-3), _upper_fold(instance, 10_000)), seed


def _twin_braess():
    """Braess with a parallel twin on every edge, of slope 0.3 more: 16
    simple paths, and the three of Braess once the twins fold."""
    instance = make("braess", v=0.1)
    net = instance.network
    twins = tuple(
        Edge(e.id + "2", e.tail, e.head, reference.scaled_plus(e.latency, (0.0, 0.3), 1.0), e.risk)
        for e in net.edges
    )
    net = dataclasses.replace(net, edges=net.edges + twins)
    return dataclasses.replace(instance, network=net, name="twin-braess")


def test_oracle_certifies_a_core_within_the_path_cap():
    """The cap counts the core's paths: twin Braess, beyond max_paths=3 by
    its own 16 paths, is searched on its 3-path core and matches the raw
    lattice run with a cap of 16."""
    instance = _twin_braess()
    assert len(enumerate_simple_paths(instance.network, cap=100)) == 16
    folded, lattice = _check_fold_against_lattice(instance, grid=20, max_paths=3, lattice_paths=16)
    assert not folded.series_parallel
    assert folded.points == 5 * math.comb(22, 2) + 21
    assert lattice.points > folded.points
    with pytest.raises(PathCountError, match="more than 2 simple paths"):
        max_shortest_path_oracle(instance, grid=20, max_paths=2)


def test_oracle_off_path_edge_goes_to_the_lattice():
    """An edge on no source-sink path makes the network non-series-parallel.
    The two s-t edges fold into one pair, C(12, 2) merge pairs; the core
    lattice ignores the dead end and evaluates its one point."""
    edges = (
        _edge("e1", "s", "t", (0.0, 2.0)),
        _edge("e2", "s", "t", (1.0,)),
        _edge("e3", "s", "u", (1.0,)),
    )
    net = Network(nodes=("s", "u", "t"), edges=edges, source="s", sink="t")
    instance = Instance(network=net, demand=1.0, gamma=1.0, name="dead end")
    result = max_shortest_path_oracle(instance, grid=10)
    assert result.value == pytest.approx(1.0, abs=1e-12)
    assert not result.series_parallel
    assert result.points == math.comb(12, 2) + 1


@pytest.mark.parametrize(
    "family, params, grid",
    [
        ("pigou", dict(kappa=1.0, gamma=1.0), 100),
        ("zigzag", dict(k=3), 10),
        # 6 paths, where the search prunes partial flows
        ("random_sp", dict(seed=94, budget=4, max_paths=6), 100),
    ],
)
def test_oracle_blocks_do_not_change_the_result(monkeypatch, family, params, grid):
    """Blocks smaller than one node's split (pigou: 101 amounts) and than
    one lattice level give the same points, maximum and maximizer."""
    instance = make(family, **params)
    whole = _lattice_oracle(instance, grid=grid, max_paths=10)
    monkeypatch.setattr(analysis, "_BLOCK_POINTS", 7)
    blocked = _lattice_oracle(instance, grid=grid, max_paths=10)
    assert blocked.points == whole.points
    assert blocked.value == pytest.approx(whole.value, abs=1e-15)
    assert blocked.path_flow == whole.path_flow


def test_oracle_rejects_bad_input():
    pigou = make("pigou", kappa=1.0, gamma=1.0)
    with pytest.raises(ValueError, match="grid must be a positive integer"):
        max_shortest_path_oracle(pigou, grid=0)
    for max_paths in (0, -1):
        with pytest.raises(ValueError, match="max_paths must be a positive integer"):
            max_shortest_path_oracle(pigou, max_paths=max_paths)
    # a and b reach each other, so the path edges hold a cycle
    edges = [
        _edge("sa", "s", "a", (1.0,)),
        _edge("sb", "s", "b", (1.0,)),
        _edge("ab", "a", "b", (1.0,)),
        _edge("ba", "b", "a", (1.0,)),
        _edge("at", "a", "t", (1.0,)),
        _edge("bt", "b", "t", (1.0,)),
    ]
    net = Network(nodes=("s", "a", "b", "t"), edges=tuple(edges), source="s", sink="t")
    cyclic = Instance(network=net, demand=1.0, gamma=1.0, name="cyclic")
    with pytest.raises(ValueError, match="acyclic"):
        max_shortest_path_oracle(cyclic, grid=10)
    # acyclicity is checked before the paths are counted: 4 simple paths
    with pytest.raises(ValueError, match="acyclic"):
        max_shortest_path_oracle(cyclic, grid=10, max_paths=1)
    net = Network(
        nodes=("s", "u", "t"), edges=(_edge("su", "s", "u", (1.0,)),), source="s", sink="t"
    )
    pathless = Instance(network=net, demand=1.0, gamma=1.0, name="pathless")
    with pytest.raises(ValueError, match="no source-sink path"):
        max_shortest_path_oracle(pathless, grid=10)


def test_oracle_searches_a_lattice_with_a_repeated_node_id():
    """A repeated node id is no cycle: the lattice of Braess with its sink
    listed twice gives the result of Braess itself."""
    braess = make("braess", v=0.1)
    net = braess.network
    repeated = dataclasses.replace(
        braess, network=dataclasses.replace(net, nodes=(*net.nodes, net.sink))
    )
    assert max_shortest_path_oracle(repeated, grid=40) == max_shortest_path_oracle(
        braess, grid=40
    )


@pytest.mark.parametrize("coeffs", [(1.0, -0.5), (math.inf,)])
def test_oracle_needs_nondecreasing_latencies(coeffs):
    """The search's bound holds only for nondecreasing latencies, so a path
    edge with a negative or non-finite latency coefficient is refused."""
    instance = _parallel_instance(
        [_edge("e1", "s", "t", coeffs), _edge("e2", "s", "t", (0.0, 1.0))], "falling"
    )
    with pytest.raises(ValueError, match="nondecreasing latencies: edge 'e1'"):
        max_shortest_path_oracle(instance, grid=10)
