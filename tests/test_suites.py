"""The property suites' failure lines, forced one by one.

Seeded instances pass every suite, so each failing branch is reached by
replacing what the suite calls: the report, the oracle, a solve or the
series-parallel test. The lines are compared as text, because they are what
``riskroute verify`` prints after ``FAIL``.
"""

import dataclasses
import math
import types

import numpy as np
import pytest

import riskroute.cli as cli
from riskroute import suites
from riskroute.alternating import BACKWARD, NoAlternatingPathError
from riskroute.analysis import BoundCheck
from riskroute.cli import main
from riskroute.instances import make, write_instance

# S(z) of the first seeded draw of sp_theorem (budget <= 5) and of
# oracle_seeds (budget <= 4).
SP_SEED0_BEST = "0.416653240062"
ORACLE_SEED0_BEST = "1.7553764610937919"


def _with_failed_checks(report):
    """``report`` with one proven check failed, one unproven check failed and
    one skipped check marked failed: only the first is a failure."""
    checks = list(report.checks)
    for i, c in enumerate(checks):
        if c.name == "pra-eta-bound":
            checks[i] = c._replace(passed=False)
        elif c.name == "pra-worstcase-bound":
            checks[i] = c._replace(passed=False, proven=False)
    checks.append(BoundCheck("skipped-check", 0.0, 0.0, False, skipped=True))
    return dataclasses.replace(report, checks=tuple(checks))


def _patch_report(monkeypatch, edit):
    real = suites.pra_report
    monkeypatch.setattr(suites, "pra_report", lambda *args: edit(real(*args)))


def _patch_oracle(monkeypatch, value):
    monkeypatch.setattr(
        suites,
        "max_shortest_path_oracle",
        lambda *args, **kwargs: types.SimpleNamespace(value=value),
    )


# --- bound-chain ----------------------------------------------------------


def test_bound_chain_names_failed_proven_checks(monkeypatch):
    _patch_report(monkeypatch, _with_failed_checks)
    assert suites.bound_chain(2) == (
        ["seed 0: pra-eta-bound", "seed 1: pra-eta-bound"],
        2,
    )


def test_bound_chain_reports_unconverged_solve():
    assert suites.bound_chain(1, max_iter=0) == (
        [
            "seed 0: risk-averse solver stopped at gap 1.6005210033939838"
            " after 0 iterations (max-iter)"
        ],
        1,
    )


def test_bound_chain_reports_missing_alternating_path(monkeypatch):
    def refuse(*args):
        raise NoAlternatingPathError("no alternating path")

    monkeypatch.setattr(suites, "pra_report", refuse)
    assert suites.bound_chain(1) == (["seed 0: no alternating path"], 1)


# --- sp-theorem -----------------------------------------------------------


def test_sp_theorem_lists_every_broken_property(monkeypatch):
    def broken(report):
        report = _with_failed_checks(report)
        return dataclasses.replace(
            report,
            eta=2,
            alternating_arcs=(*report.alternating_arcs, ("e0", BACKWARD)),
            pra=2.0,
            gamma=1.0,
            kappa=0.5,
        )

    _patch_report(monkeypatch, broken)
    _patch_oracle(monkeypatch, 5.0)
    assert suites.sp_theorem(1) == (
        [
            "seed 0: checks pra-eta-bound; eta 2;"
            " backward arc on a series-parallel network;"
            " pra 2.0 > 1.5000014999999998;"
            f" oracle 5.0 > S(z) {SP_SEED0_BEST}"
        ],
        4,
    )


def test_sp_theorem_pra_ceiling_has_no_absolute_slack(monkeypatch):
    """The pra ceiling is (1 + gamma kappa)(1 + 1e-6) with no absolute
    term: a pra one ulp above it fails."""
    ceiling = (1.0 + 1.0 * 0.5) * (1.0 + 1e-6)

    def at(pra):
        def edit(report):
            return dataclasses.replace(report, pra=pra, gamma=1.0, kappa=0.5)

        return edit

    _patch_report(monkeypatch, at(ceiling))
    assert suites.sp_theorem(1) == ([], 4)
    above = math.nextafter(ceiling, math.inf)
    _patch_report(monkeypatch, at(above))
    assert suites.sp_theorem(1) == (
        [f"seed 0: pra {above!r} > {ceiling!r}"],
        4,
    )


def test_sp_theorem_reports_unconverged_solve():
    assert suites.sp_theorem(2, max_iter=0) == (
        [
            "seed 1: risk-averse solver stopped at gap 1.1243127290305601"
            " after 0 iterations (max-iter)"
        ],
        5,
    )


def test_sp_theorem_flags_zigzag_taken_for_series_parallel(monkeypatch):
    monkeypatch.setattr(suites, "is_series_parallel", lambda network: True)
    assert suites.sp_theorem(1) == (
        [
            f"zigzag k={k}: wrongly recognized as series-parallel"
            for k in suites.ZIGZAG_KS
        ],
        4,
    )


# --- oracle ---------------------------------------------------------------


def test_oracle_seeds_report_unconverged_risk_neutral_solve():
    assert suites.oracle_seeds(3, max_iter=0) == [
        "seed 0: risk-neutral solver did not converge",
        "seed 1: risk-neutral solver did not converge",
    ]


def test_oracle_seeds_report_a_beaten_equilibrium(monkeypatch):
    _patch_oracle(monkeypatch, 5.0)
    assert suites.oracle_seeds(1) == [f"seed 0: oracle 5.0 > S(z) {ORACLE_SEED0_BEST}"]


def test_zigzag_closed_forms_report_both_forms(monkeypatch):
    _patch_oracle(monkeypatch, 2.0)
    monkeypatch.setattr(
        suites, "solve_rnwe", lambda instance: types.SimpleNamespace(min_path_cost=1.0)
    )
    assert suites.zigzag_closed_forms() == (
        [
            "zigzag k=2: oracle 2.0 != 1.0; S(z) 1.0 != 0.5",
            "zigzag k=3: oracle 2.0 != 1.0; S(z) 1.0 != 0.3333333333333333",
            "zigzag k=4: oracle 2.0 != 1.0; S(z) 1.0 != 0.25",
        ],
        1.0,
    )


# --- sigma-lemma ----------------------------------------------------------


def test_sigma_lemma_lists_at_most_a_batch_of_counterexamples(monkeypatch):
    def violated(batch):
        ones = np.ones(len(batch))
        return ones > 0.0, ones, np.zeros(len(batch)), ones < 0.0

    monkeypatch.setattr(suites, "braess_stdev_inequality_batch", violated)
    failures, total = suites.sigma_lemma(30)
    rows = np.random.default_rng(0).uniform(0.0, 10.0, size=(60, 5))
    assert total == 30
    assert failures == [
        f"sigmas {rows[i].tolist()}: lhs 1.0 rhs 0.0"
        for i in range(suites.SIGMA_LISTED)
    ]


# --- the command line -----------------------------------------------------


def test_verify_prints_each_failure_line(monkeypatch, capsys):
    _patch_oracle(monkeypatch, 5.0)
    assert main(["verify", "--suite", "oracle", "--seeds", "1"]) == cli.EXIT_BOUND
    assert capsys.readouterr().out.splitlines() == [
        f"FAIL seed 0: oracle 5.0 > S(z) {ORACLE_SEED0_BEST}",
        "FAIL zigzag k=2: oracle 5.0 != 1.0",
        "FAIL zigzag k=3: oracle 5.0 != 1.0",
        "FAIL zigzag k=4: oracle 5.0 != 1.0",
        "oracle: 0/4 PASS",
    ]


@pytest.mark.parametrize(
    "family, params, code, last",
    [
        ("pigou", {"kappa": 1.0, "gamma": 1.0}, cli.EXIT_BOUND,
         "equilibrium attains the max within round-off: FAIL"),
        ("zigzag", {"k": 2}, cli.EXIT_OK,
         "equilibrium attains the max within round-off: False"
         " (not series-parallel, no guarantee)"),
    ],
)
def test_oracle_command_beaten_equilibrium(
    tmp_path, monkeypatch, capsys, family, params, code, last
):
    """On a series-parallel network a beaten equilibrium fails; off one the
    verdict is informational."""
    real = cli.max_shortest_path_oracle

    def raised(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), value=5.0)

    monkeypatch.setattr(cli, "max_shortest_path_oracle", raised)
    path = tmp_path / "net.json"
    path.write_bytes(write_instance(make(family, **params)))
    assert main(["oracle", str(path), "--grid", "20", "--max-paths", "10"]) == code
    assert capsys.readouterr().out.splitlines()[-1] == last
