"""End-to-end acceptance checks for the equilibrium and certificate pipeline.

Each criterion is one test that prints a single PASS/FAIL verdict line
(outside pytest's capture, so a full run leaves one line per criterion in the
console) and then asserts. Solved instance pools are shared across criteria
through module-scoped fixtures; everything here is seeded and deterministic.
"""

import math
from dataclasses import dataclass

import pytest

from riskroute import suites
from riskroute.alternating import NoAlternatingPathError
from riskroute.analysis import PraReport, pra_report
from riskroute.instances import make
from riskroute.network import RISK_MEAN_STDEV, Instance
from riskroute.solvers import solve_rawe, solve_rnwe

REL_SLACK = 1e-6

GENERAL_SEEDS = 500
SP_SEEDS = 200
ORACLE_SEEDS = 100
SIGMA_SAMPLES = 100_000


@dataclass(frozen=True)
class Solved:
    instance: Instance
    report: PraReport


def _solved(instance: Instance) -> Solved:
    report = pra_report(instance, solve_rawe(instance), solve_rnwe(instance))
    return Solved(instance, report)


@pytest.fixture()
def verdict(capsys):
    def emit(label: str, ok: bool, detail: str = "") -> None:
        line = f"{label}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line = f"{line}  ({detail})"
        with capsys.disabled():
            print(line, flush=True)

    return emit


@pytest.fixture(scope="module")
def general_pool() -> tuple[list[Solved], list[str]]:
    """Random acyclic instances with 4 to 8 nodes, solved and certified."""
    bundles: list[Solved] = []
    missing: list[str] = []
    for seed in range(GENERAL_SEEDS):
        instance = suites.random_general(seed)
        try:
            bundles.append(_solved(instance))
        except NoAlternatingPathError as exc:
            missing.append(f"{instance.name}: {exc}")
    return bundles, missing


@pytest.fixture(scope="module")
def sp_pool() -> list[Solved]:
    """Random series-parallel instances, solved and certified."""
    return [_solved(suites.random_sp(seed, max_budget=5)) for seed in range(SP_SEEDS)]


@pytest.fixture(scope="module")
def stdev_pool() -> tuple[list[Solved], Solved]:
    """Mean-stdev bundles: the Braess family plus the Pigou tight member."""
    braess = [
        _solved(make("braess", v=v, risk_model=RISK_MEAN_STDEV))
        for v in (0.05, 0.1, 0.3)
    ]
    pigou = _solved(make("pigou", kappa=1.0, gamma=1.0, risk_model=RISK_MEAN_STDEV))
    return braess, pigou


def test_criterion_01_pigou_exactness(verdict):
    """The Pigou instance with unit kappa and gamma has known equilibria."""
    r = _solved(make("pigou", kappa=1.0, gamma=1.0)).report
    errors = (
        abs(r.cost_rnwe - 1.0),
        abs(r.cost_rawe - 2.0),
        abs(r.pra - 2.0),
        abs(r.pra - (1.0 + r.gamma * r.kappa)),
    )
    ok = max(errors) <= 1e-6
    verdict("criterion 01 pigou exactness", ok, f"max error {max(errors):.2e}")
    assert ok, errors


def test_criterion_02_braess_price_curve(verdict):
    """The Braess family traces pra = (1 + 3v) / (1 + v) over v."""
    curve_err = 0.0
    for v in (0.05, 0.1, 0.2, 0.3, 0.5):
        r = _solved(make("braess", v=v)).report
        curve_err = max(curve_err, abs(r.pra - (1.0 + 3.0 * v) / (1.0 + v)))
    r = _solved(make("braess", v=0.1)).report
    cost_err = max(abs(r.cost_rnwe - 1.1), abs(r.cost_rawe - 1.3))
    ok = curve_err <= 1e-5 and cost_err <= 1e-6
    verdict(
        "criterion 02 braess price curve",
        ok,
        f"curve error {curve_err:.2e}  cost error {cost_err:.2e}",
    )
    assert ok, (curve_err, cost_err)


def test_criterion_03_general_braess_limit(verdict):
    """Near-linear latencies push (pra - 1) / (gamma * kappa) toward 2."""
    r = _solved(make("braess_general", alpha=0.002, v=0.001)).report
    ratio = (r.pra - 1.0) / (r.gamma * r.kappa)
    ok = ratio > 1.995
    verdict(
        "criterion 03 general braess limit", ok, f"normalized gap {ratio:.6f}"
    )
    assert ok, ratio


def test_criterion_04_eta_bound_random_general(verdict, general_pool):
    """cost_rawe <= (1 + gamma*kappa*eta) * cost_rnwe on every random
    instance, with an alternating path found each time."""
    bundles, missing = general_pool
    violations = [
        f"{s.instance.name}: pra {s.report.pra!r} > bound {s.report.bound_eta!r}"
        for s in bundles
        if s.report.cost_rawe
        > s.report.bound_eta * s.report.cost_rnwe * (1.0 + REL_SLACK)
    ]
    ok = len(bundles) == GENERAL_SEEDS and not missing and not violations
    verdict(
        "criterion 04 eta bound on random instances",
        ok,
        f"instances {len(bundles)}  violations {len(violations)}  "
        f"missing paths {len(missing)}",
    )
    assert ok, (missing + violations)[:5]


def test_criterion_05_eta_ceiling(verdict, general_pool):
    """eta never exceeds ceil((n - 1) / 2) for an n-node network."""
    bundles, _ = general_pool
    violations = [
        f"{s.instance.name}: eta {s.report.eta} on {n} nodes"
        for s in bundles
        for n in (len(s.instance.network.nodes),)
        if s.report.eta > math.ceil((n - 1) / 2)
    ]
    ok = not violations
    verdict(
        "criterion 05 eta ceiling",
        ok,
        f"instances {len(bundles)}  violations {len(violations)}",
    )
    assert ok, violations[:5]


def test_criterion_06_series_parallel_eta_one(verdict, sp_pool):
    """Series-parallel networks give eta = 1, pra <= 1 + gamma*kappa, and the
    Pigou member attains the bound."""
    bad_eta = [s.instance.name for s in sp_pool if s.report.eta != 1]
    bad_pra = [
        f"{s.instance.name}: pra {s.report.pra!r} kappa {s.report.kappa!r}"
        for s in sp_pool
        if s.report.pra
        > (1.0 + s.report.gamma * s.report.kappa) * (1.0 + REL_SLACK)
    ]
    pigou = _solved(make("pigou", kappa=1.0, gamma=1.0)).report
    equality_err = abs(pigou.pra - (1.0 + pigou.gamma * pigou.kappa))
    ok = not bad_eta and not bad_pra and equality_err <= 1e-6
    verdict(
        "criterion 06 series-parallel eta bound",
        ok,
        f"instances {len(sp_pool)}  eta!=1 {len(bad_eta)}  "
        f"pra violations {len(bad_pra)}  equality error {equality_err:.2e}",
    )
    assert ok, (bad_eta + bad_pra)[:5]


def test_criterion_07_oracle_dominates_equilibrium(verdict):
    """On series-parallel networks no point of the oracle's grid beats the
    equilibrium shortest-path length beyond round-off; the zigzag family
    shows the guarantee failing off series-parallel."""
    violations = suites.oracle_seeds(ORACLE_SEEDS, grid=100)
    zigzag, zigzag_err = suites.zigzag_closed_forms()
    ok = not violations and not zigzag
    verdict(
        "criterion 07 shortest-path oracle",
        ok,
        f"instances {ORACLE_SEEDS}  violations {len(violations)}  "
        f"zigzag error {zigzag_err:.2e}",
    )
    assert ok, (violations[:5], zigzag)


def test_criterion_08_mean_stdev_bounds(verdict, stdev_pool):
    """Mean-stdev Braess instances respect pra <= 1 + 2*gamma*kappa and the
    mean-stdev Pigou instance attains pra = 1 + gamma*kappa."""
    braess, pigou = stdev_pool
    violations = [
        f"{s.instance.name}: pra {s.report.pra!r} kappa {s.report.kappa!r}"
        for s in braess
        if s.report.pra
        > (1.0 + 2.0 * s.report.gamma * s.report.kappa) * (1.0 + REL_SLACK)
    ]
    equality_err = abs(pigou.report.pra - (1.0 + pigou.report.gamma * pigou.report.kappa))
    ok = not violations and equality_err <= 1e-6
    verdict(
        "criterion 08 mean-stdev bounds",
        ok,
        f"braess violations {len(violations)}  equality error {equality_err:.2e}",
    )
    assert ok, (violations, equality_err)


def test_criterion_09_stdev_path_inequality(verdict):
    """Random sigma vectors satisfying the precondition never violate
    sigma_p + sigma_q - sigma_r <= sigma_b + sigma_c beyond slack."""
    violations, checked = suites.sigma_lemma(SIGMA_SAMPLES)
    ok = not violations
    verdict(
        "criterion 09 stdev path inequality",
        ok,
        f"samples {checked}  violations {len(violations)}",
    )
    assert ok, violations[:5]


def test_criterion_10_rho_bound(verdict, general_pool, sp_pool, stdev_pool):
    """pra <= (1 + gamma*kappa) * rho across every certified pool."""
    braess, pigou = stdev_pool
    bundles = general_pool[0] + sp_pool + braess + [pigou]
    violations = [
        f"{s.instance.name}: pra {s.report.pra!r} bound {s.report.bound_rho!r}"
        for s in bundles
        if not math.isfinite(s.report.bound_rho)
        or s.report.pra > s.report.bound_rho * (1.0 + REL_SLACK)
    ]
    ok = not violations
    verdict(
        "criterion 10 rho bound",
        ok,
        f"instances {len(bundles)}  violations {len(violations)}",
    )
    assert ok, violations[:5]


def test_criterion_11_convergence_quality(verdict, general_pool, sp_pool, stdev_pool):
    """Every reported gap sits under tolerance and gamma = 0 reproduces the
    risk-neutral edge flows."""
    braess, pigou = stdev_pool
    mean_var = general_pool[0] + sp_pool
    loose = [
        f"{s.instance.name}: gaps {s.report.gap_rawe!r} {s.report.gap_rnwe!r}"
        for s in mean_var
        if s.report.gap_rawe > 1e-8 or s.report.gap_rnwe > 1e-8
    ]
    loose += [
        f"{s.instance.name}: gaps {s.report.gap_rawe!r} {s.report.gap_rnwe!r}"
        for s in braess + [pigou]
        if s.report.gap_rawe > 1e-8 or s.report.gap_rnwe > 1e-8
    ]
    worst_diff = 0.0
    for seed in range(1000, 1100):
        instance = suites.random_general(seed, gamma=0.0)
        x = solve_rawe(instance).flow.edge_flow
        z = solve_rnwe(instance).flow.edge_flow
        worst_diff = max(worst_diff, max(abs(x[e] - z[e]) for e in x))
    ok = not loose and worst_diff <= 1e-6
    verdict(
        "criterion 11 convergence quality",
        ok,
        f"loose gaps {len(loose)}  worst gamma-0 edge diff {worst_diff:.2e}",
    )
    assert ok, (loose[:5], worst_diff)
