"""Tight instances: the eta bound pra <= 1 + gamma*kappa*eta is reached.

Every bound check is one-sided, lhs <= rhs, so a fault that inflates kappa,
eta or a right-hand side passes them all. These instances pin the other
side: eta sits at its worst-case ceiling and the PRA comes close to the
bound, so inflating any of them by a large enough factor fails here.
"""

import pytest

from riskroute.alternating import BACKWARD, FORWARD, eta_ceiling
from riskroute.analysis import pra_report
from riskroute.instances import make
from riskroute.network import (
    RISK_MEAN_STDEV,
    RISK_MEAN_VAR,
    Edge,
    Instance,
    Network,
)
from riskroute.solvers import solve_pair


def _report(instance):
    x, z = solve_pair(instance)
    return pra_report(instance, x, z)


def _eta_ratio(report):
    """How much of the eta bound the PRA uses: (pra - 1)/(gamma*kappa*eta)."""
    return (report.pra - 1.0) / (report.gamma * report.kappa * report.eta)


def test_braess_reaches_the_eta_bound():
    """braess has eta = 2 = eta_ceiling(4) and PRA (1+3v)/(1+v) against the
    bound 1 + 2v, so the ratio is 1/(1+v)."""
    v = 0.01
    instance = make("braess", v=v)
    report = _report(instance)
    assert report.ok
    assert report.eta == eta_ceiling(instance.network) == 2
    assert abs(_eta_ratio(report) - 1.0 / (1.0 + v)) <= 1e-9


# Generalized Braess graph B^3 (Roughgarden, JCSS 2006) with fixed roles:
# a_i = s->v_i and d_i = w_i->t linear, e_i = v_i->w_i constant and risk-free,
# and the risky edges r_1 = v_1->t, r_i = v_i->w_(i-1), r_4 = s->w_3 with
# constant latency and constant risk v. The costs come from a seeded hill
# climb over these roles.
B3_SA = (1.644, 1.7496, 0.9011)
B3_SD = (0.4366, 0.1974, 0.8242)
B3_CE = (1.0039, 1.3672, 0.8741)
B3_CR = (1.1367, 1.2488, 1.2298, 1.294)
B3_V = 0.01


def _edge(eid, tail, head, latency, risk=(0.0,)):
    return Edge(eid, tail, head, latency, risk)


def _b3(risk_model):
    edges = []
    for i in (1, 2, 3):
        edges += [
            _edge(f"a{i}", "s", f"v{i}", (0.0, B3_SA[i - 1])),
            _edge(f"d{i}", f"w{i}", "t", (0.0, B3_SD[i - 1])),
            _edge(f"e{i}", f"v{i}", f"w{i}", (B3_CE[i - 1],)),
        ]
    tails_heads = [("v1", "t"), ("v2", "w1"), ("v3", "w2"), ("s", "w3")]
    for j, (tail, head) in enumerate(tails_heads, start=1):
        edges.append(_edge(f"r{j}", tail, head, (B3_CR[j - 1],), (B3_V,)))
    nodes = ("s", "t", "v1", "v2", "v3", "w1", "w2", "w3")
    network = Network(nodes=nodes, edges=tuple(edges), source="s", sink="t")
    return Instance(network, demand=1.0, gamma=1.0, risk_model=risk_model, name="b3")


@pytest.mark.parametrize("risk_model", [RISK_MEAN_VAR, RISK_MEAN_STDEV])
def test_generalized_braess_b3_grows_past_smaller_eta(risk_model):
    """On B^3 (n = 8) eta reaches eta_ceiling = 4 along r4, e3 backward, r3,
    e2 backward, r2, e1 backward, r1. The PRA exceeds 1 + 2*gamma*kappa, the
    bound for every instance with eta <= 2, and uses at least 60% of the eta
    bound (measured: 2.713 and 0.678)."""
    instance = _b3(risk_model)
    report = _report(instance)
    assert report.ok
    assert report.eta == eta_ceiling(instance.network) == 4
    assert report.alternating_arcs == (
        ("r4", FORWARD),
        ("e3", BACKWARD),
        ("r3", FORWARD),
        ("e2", BACKWARD),
        ("r2", FORWARD),
        ("e1", BACKWARD),
        ("r1", FORWARD),
    )
    assert (report.pra - 1.0) / (report.gamma * report.kappa) > 2.0
    assert _eta_ratio(report) >= 0.6


@pytest.mark.parametrize("risk_model", [RISK_MEAN_VAR, RISK_MEAN_STDEV])
@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_pigou_price_does_not_depend_on_the_delay_shape(p, risk_model):
    """The PRA does not depend on the shape of the delay functions. A Pigou
    network whose risk-free edge e1 has latency (1+gamma*kappa)*x**p, beside
    e2 with latency 1 and constant risk kappa, reaches the eta bound
    1 + gamma*kappa = 2 at gamma = kappa = demand = 1 for every degree p: the
    risk-averse flow takes e1 whole at cost 2, the risk-neutral flow splits
    at cost 1. The solves land within a few ulps of 2 (p = 4 reads
    1.9999999999999991, 4 ulps below)."""
    gamma = kappa = 1.0
    e1 = _edge("e1", "s", "t", (0.0,) * p + (1.0 + gamma * kappa,))
    e2 = _edge("e2", "s", "t", (1.0,), (kappa,))
    network = Network(nodes=("s", "t"), edges=(e1, e2), source="s", sink="t")
    instance = Instance(network, demand=1.0, gamma=gamma, risk_model=risk_model, name="pigou-p")
    report = _report(instance)
    assert report.ok
    assert report.eta == 1
    assert abs(report.pra - 2.0) <= 1e-15
