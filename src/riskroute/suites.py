"""Property suites: the seeded instance draws, the pass rules, and the four
suites that ``riskroute verify`` runs.

The command line and the acceptance tests both run the suites from here, so
what each suite draws and what counts as passing is decided in this module
only. The round-off rule under which a value passes its bound is the one
exception: it is :func:`riskroute.analysis.within`, shared by the PRA
report's checks, the oracle verdicts here and ``riskroute oracle``. A suite
returns one failure line per failing case and the number of cases it
checked; it goes through its seeds in order and is deterministic.
"""

from __future__ import annotations

import random
from typing import Any

import numpy as np

from .alternating import FORWARD, NoAlternatingPathError
from .analysis import (
    CHECK_REL_SLACK,
    DEFAULT_ORACLE_GRID,
    DEFAULT_ORACLE_MAX_PATHS,
    braess_stdev_inequality_batch,
    max_shortest_path_oracle,
    pra_report,
    within,
)
from .instances import make
from .network import Instance, is_series_parallel
from .solvers import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ConvergenceError,
    solve_pair,
    solve_rnwe,
)

DEFAULT_SEEDS = {
    "bound-chain": 200,
    "sp-theorem": 100,
    "sigma-lemma": 100_000,
    "oracle": 50,
}
SUITES = tuple(DEFAULT_SEEDS)
# Zigzag k checked against the closed forms, at the default oracle grid.
ZIGZAG_KS = (2, 3, 4)
ZIGZAG_TOL = 1e-6
# Counterexamples listed per batch of sigma samples.
SIGMA_LISTED = 25


def num(value: float) -> str:
    """A float in repr form, the format of every number riskroute prints."""
    return repr(float(value))


# --- seeded draws --------------------------------------------------------------


def random_general(seed: int, **params: Any) -> Instance:
    """``random_general`` instance with n in [4, 8] and m in [n, 2n], both
    drawn from ``seed``; ``params`` go to the family unchanged."""
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    m = rng.randint(n, 2 * n)
    return make("random_general", seed=seed, n=n, m=m, **params)


def random_sp(seed: int, max_budget: int, max_paths: int | None = None) -> Instance:
    """``random_sp`` instance with a budget in [2, max_budget] drawn from
    ``seed``, and at most ``max_paths`` paths when that is given."""
    budget = random.Random(seed).randint(2, max_budget)
    return make("random_sp", seed=seed, budget=budget, max_paths=max_paths)


# --- pass rules ----------------------------------------------------------------


def zigzag_closed_forms() -> tuple[list[str], float]:
    """Grid oracle at DEFAULT_ORACLE_GRID and risk-neutral equilibrium on
    zigzag k in ZIGZAG_KS against their closed forms: the maximum shortest
    path stays 1 while the equilibrium's is 1/k, so the series-parallel
    guarantee fails off series-parallel networks.

    Returns one failure line per k missing a form by more than ZIGZAG_TOL,
    and the largest error seen.
    """
    failures: list[str] = []
    worst = 0.0
    for k in ZIGZAG_KS:
        instance = make("zigzag", k=k)
        # the core of k = 4 has 10 paths
        value = max_shortest_path_oracle(instance, max_paths=10).value
        best = solve_rnwe(instance).min_path_cost
        bad: list[str] = []
        if abs(value - 1.0) > ZIGZAG_TOL:
            bad.append(f"oracle {num(value)} != 1.0")
        if abs(best - 1.0 / k) > ZIGZAG_TOL:
            bad.append(f"S(z) {num(best)} != {num(1.0 / k)}")
        if bad:
            failures.append(f"zigzag k={k}: " + "; ".join(bad))
        worst = max(worst, abs(value - 1.0), abs(best - 1.0 / k))
    return failures, worst


# --- suites --------------------------------------------------------------------


def bound_chain(
    seeds: int, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> tuple[list[str], int]:
    """Random general-topology mean-var instances: every proven check of the
    report must pass, and an alternating path must exist."""
    failures: list[str] = []
    for seed in range(seeds):
        instance = random_general(seed)
        try:
            x, z = solve_pair(instance, tol, max_iter)
            report = pra_report(instance, x, z)
        except (ConvergenceError, NoAlternatingPathError) as exc:
            failures.append(f"seed {seed}: {exc}")
            continue
        if report.failed:
            failures.append(f"seed {seed}: {','.join(report.failed)}")
    return failures, seeds


def sp_theorem(
    seeds: int,
    grid: int = DEFAULT_ORACLE_GRID,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[list[str], int]:
    """Random series-parallel instances: eta = 1, the alternating path never
    uses an edge backward, the price of risk aversion stays within 1 + gamma
    kappa, and no point of the oracle's grid beats the equilibrium shortest
    path beyond round-off (:func:`within`). The zigzag family must be
    flagged non-SP."""
    failures: list[str] = []
    for seed in range(seeds):
        instance = random_sp(seed, max_budget=5, max_paths=DEFAULT_ORACLE_MAX_PATHS)
        try:
            x, z = solve_pair(instance, tol, max_iter)
            report = pra_report(instance, x, z)
        except (ConvergenceError, NoAlternatingPathError) as exc:
            failures.append(f"seed {seed}: {exc}")
            continue
        bad: list[str] = []
        if report.failed:
            bad.append(f"checks {','.join(report.failed)}")
        if report.eta != 1:
            bad.append(f"eta {report.eta}")
        if any(direction != FORWARD for _, direction in report.alternating_arcs):
            bad.append("backward arc on a series-parallel network")
        ceiling = (1.0 + report.gamma * report.kappa) * (1.0 + CHECK_REL_SLACK)
        if report.pra > ceiling:
            bad.append(f"pra {num(report.pra)} > {num(ceiling)}")
        value, best = max_shortest_path_oracle(instance, grid=grid).value, z.min_path_cost
        if not within(value, best):
            bad.append(f"oracle {num(value)} > S(z) {num(best)}")
        if bad:
            failures.append(f"seed {seed}: " + "; ".join(bad))
    for k in ZIGZAG_KS:
        if is_series_parallel(make("zigzag", k=k).network):
            failures.append(f"zigzag k={k}: wrongly recognized as series-parallel")
    return failures, seeds + len(ZIGZAG_KS)


def sigma_lemma(samples: int) -> tuple[list[str], int]:
    """Fuzz the Braess path-stdev inequality on random edge sigmas in
    [0, 10]^5, rejection-sampled to satisfy the precondition. At most
    SIGMA_LISTED counterexamples are listed per batch of samples."""
    rng = np.random.default_rng(0)
    failures: list[str] = []
    checked = 0
    while checked < samples:
        batch = rng.uniform(0.0, 10.0, size=(2 * (samples - checked), 5))
        precondition, lhs, rhs, holds = braess_stdev_inequality_batch(batch)
        rows = batch[precondition]
        lhs = lhs[precondition]
        rhs = rhs[precondition]
        take = min(len(rows), samples - checked)
        violating = np.nonzero(~holds[precondition][:take])[0]
        for i in violating[:SIGMA_LISTED]:
            failures.append(
                f"sigmas {rows[i].tolist()}: lhs {num(lhs[i])} rhs {num(rhs[i])}"
            )
        checked += take
    return failures, samples


def oracle_seeds(
    seeds: int,
    grid: int = DEFAULT_ORACLE_GRID,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[str]:
    """Random series-parallel instances whose risk-neutral equilibrium must
    attain the grid maximum of the shortest-path latency within round-off
    (:func:`within`): it maximizes that latency over all feasible flows, and
    every grid point is one, so the grid's resolution earns no allowance.
    Returns one failure line per failing seed."""
    failures: list[str] = []
    for seed in range(seeds):
        instance = random_sp(seed, max_budget=4, max_paths=DEFAULT_ORACLE_MAX_PATHS)
        z = solve_rnwe(instance, tol=tol, max_iter=max_iter)
        if not z.converged:
            failures.append(f"seed {seed}: risk-neutral solver did not converge")
            continue
        value, best = max_shortest_path_oracle(instance, grid=grid).value, z.min_path_cost
        if not within(value, best):
            failures.append(f"seed {seed}: oracle {num(value)} > S(z) {num(best)}")
    return failures


def oracle(
    seeds: int,
    grid: int = DEFAULT_ORACLE_GRID,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[list[str], int]:
    """Exact grid maximization of the shortest-path latency:
    :func:`oracle_seeds` on the seeded series-parallel instances plus
    :func:`zigzag_closed_forms`."""
    failures = oracle_seeds(seeds, grid, tol, max_iter)
    zigzag, _ = zigzag_closed_forms()
    return failures + zigzag, seeds + len(ZIGZAG_KS)


def run(
    suite: str,
    seeds: int,
    grid: int | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[list[str], int]:
    """Run the suite named ``suite`` over ``seeds`` cases. ``grid`` applies to
    sp-theorem and oracle (None means ``DEFAULT_ORACLE_GRID``), ``tol`` and
    ``max_iter`` to every solve a suite makes on its seeded instances."""
    grid = DEFAULT_ORACLE_GRID if grid is None else grid
    if suite == "bound-chain":
        return bound_chain(seeds, tol, max_iter)
    if suite == "sp-theorem":
        return sp_theorem(seeds, grid, tol, max_iter)
    if suite == "sigma-lemma":
        return sigma_lemma(seeds)
    if suite == "oracle":
        return oracle(seeds, grid, tol, max_iter)
    raise ValueError(f"unknown suite {suite!r}")
