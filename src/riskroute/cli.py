"""Command-line front end: solve, analyze, sweep, verify, generate, oracle.

Exit codes: 0 success, 2 input problem (unreadable file, malformed
instance, bad parameters), 3 solver non-convergence, 4 proven bound or
property failure. All output is deterministic given flags, files, and
seeds; floats print in repr form so CSV files are byte-stable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Iterable, Sequence

from . import suites
from .alternating import NoAlternatingPathError
from .analysis import (
    DEFAULT_ORACLE_GRID,
    DEFAULT_ORACLE_MAX_PATHS,
    PraReport,
    _edge_table,
    max_shortest_path_oracle,
    pra_report,
    report_to_dict,
    within,
)
from .instances import FAMILIES, make, read_instance, write_instance
from .network import (
    RISK_MODELS,
    Instance,
    PathCountError,
    validate_instance,
)
from .solvers import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ConvergenceError,
    require_converged,
    solve_pair,
    solve_rawe,
    solve_rnwe,
)
from .suites import num as _num

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONVERGENCE = 3
EXIT_BOUND = 4

CSV_HEADER = "param,cost_rnwe,cost_rawe,pra,kappa,eta,bound_eta,bound_rho,pass"


class CliError(Exception):
    """Error with a designated exit code."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_INPUT) from None


def _load_instance(path: str, risk_model: str | None) -> Instance:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_INPUT) from None
    instance = read_instance(raw)
    if risk_model is not None:
        instance = dataclasses.replace(instance, risk_model=risk_model)
    return _validated(instance)


def _validated(instance: Instance, where: str = "") -> Instance:
    """``instance`` if it is valid, else a CliError listing its violations
    after the prefix ``where``."""
    verdict = validate_instance(instance)
    if not verdict.ok:
        raise CliError(where + "; ".join(verdict.violations), EXIT_INPUT)
    return instance


def _parse_value(raw: str) -> Any:
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _parse_set(items: Iterable[str]) -> dict[str, Any]:
    params: dict[str, Any] = {}
    for item in items:
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise CliError(f"--set expects NAME=VALUE, got {item!r}", EXIT_INPUT)
        params[key] = _parse_value(raw.strip())
    return params


def _csv_row(param: str, report: PraReport) -> str:
    fields = (
        param,
        _num(report.cost_rnwe),
        _num(report.cost_rawe),
        _num(report.pra),
        _num(report.kappa),
        str(report.eta),
        _num(report.bound_eta),
        _num(report.bound_rho),
        "1" if report.ok else "0",
    )
    return ",".join(fields)


# --- solve -------------------------------------------------------------------


def cmd_solve(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance, args.risk_model)
    solver = solve_rnwe if args.mode == "rnwe" else solve_rawe
    result = solver(instance, tol=args.tol, max_iter=args.max_iter)
    flow = result.flow
    cost = _edge_table(instance.network, flow.edge_flow)[2]  # the report's social cost
    name = instance.name or args.instance
    print(
        f"instance {name}  risk model {instance.risk_model}"
        f"  gamma {_num(instance.gamma)}  demand {_num(instance.demand)}"
    )
    print(f"mode {args.mode}  objective {flow.objective_mode}")
    print(
        f"converged {result.converged}  iterations {result.iterations}"
        f"  relative gap {_num(result.relative_gap)}"
    )
    print(f"social cost {_num(cost)}")
    print("path flows:")
    for path in sorted(flow.path_flow):
        print(f"  {_num(flow.path_flow[path])}  {','.join(path)}")
    if args.out:
        doc = {
            "instance": name,
            "mode": args.mode,
            "risk_model": instance.risk_model,
            "converged": result.converged,
            "stop_reason": result.stop_reason,
            "iterations": result.iterations,
            "relative_gap": result.relative_gap,
            "social_cost": cost,
            "path_flow": [
                {"edges": list(path), "flow": flow.path_flow[path]}
                for path in sorted(flow.path_flow)
            ],
            "edge_flow": {e.id: flow.edge_flow[e.id] for e in instance.network.edges},
        }
        _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    require_converged(result, "risk-neutral" if args.mode == "rnwe" else "risk-averse")
    return EXIT_OK


# --- analyze -----------------------------------------------------------------


def _print_report(report: PraReport) -> None:
    print(
        f"instance {report.instance_name}  risk model {report.risk_model}"
        f"  gamma {_num(report.gamma)}"
    )
    print(f"cost_rnwe {_num(report.cost_rnwe)}  gap {_num(report.gap_rnwe)}")
    print(f"cost_rawe {_num(report.cost_rawe)}  gap {_num(report.gap_rawe)}")
    print(f"pra {_num(report.pra)}")
    print(f"kappa {_num(report.kappa)}  eta {report.eta}")
    print(
        f"bound_eta {_num(report.bound_eta)}"
        f"  bound_worstcase {_num(report.bound_worstcase)}"
    )
    print(f"rho {_num(report.rho)}  bound_rho {_num(report.bound_rho)}")
    arcs = " ".join(f"{eid}:{direction}" for eid, direction in report.alternating_arcs)
    print(f"alternating path {arcs or '(none)'}")
    if report.degenerate:
        print("degenerate instance: risk-neutral cost is zero, ratios skipped")
    print("checks:")
    width = max(len(c.name) for c in report.checks)
    for c in report.checks:
        status = "SKIP" if c.skipped else ("PASS" if c.passed else "FAIL")
        detail = c.note if c.skipped else f"{_num(c.lhs)} <= {_num(c.rhs)}"
        qualifier = "" if c.proven else "  [unproven]"
        print(f"  {status}  {c.name:<{width}}  {detail}{qualifier}")
    print(CSV_HEADER)
    print(_csv_row(report.instance_name or "instance", report))
    print(f"result {'PASS' if report.ok else 'FAIL'}")


def cmd_analyze(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance, args.risk_model)
    x, z = solve_pair(instance, args.tol, args.max_iter)
    report = pra_report(instance, x, z)
    _print_report(report)
    if args.out:
        _write_text(args.out, json.dumps(report_to_dict(report), indent=2) + "\n")
    return EXIT_OK if report.ok else EXIT_BOUND


# --- sweep -------------------------------------------------------------------


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise CliError("sweep needs --steps >= 2", EXIT_INPUT)
    if not args.start < args.stop:
        raise CliError("sweep needs --from < --to", EXIT_INPUT)
    fixed = _parse_set(args.set or [])
    if args.param in fixed:
        raise CliError(
            f"swept parameter {args.param!r} also given via --set", EXIT_INPUT
        )
    if args.risk_model is not None:
        fixed["risk_model"] = args.risk_model
    span = args.stop - args.start
    values = [args.start + span * i / (args.steps - 1) for i in range(args.steps)]

    rows: list[str] = []
    failed: list[str] = []
    for value in values:
        params = dict(fixed)
        params[args.param] = value
        instance = _validated(
            make(args.family, seed=args.seed, **params), f"{args.param}={_num(value)}: "
        )
        x, z = solve_pair(instance, args.tol, args.max_iter)
        report = pra_report(instance, x, z)
        rows.append(_csv_row(_num(value), report))
        if not report.ok:
            failed.append(_num(value))
    _write_text(args.out, "\n".join([CSV_HEADER] + rows) + "\n")
    print(f"wrote {args.out}  rows {len(rows)}  failed {len(failed)}")
    for param in failed:
        print(f"FAIL {args.param}={param}")
    return EXIT_OK if not failed else EXIT_BOUND


# --- verify ------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    seeds = args.seeds if args.seeds is not None else suites.DEFAULT_SEEDS[args.suite]
    if seeds < 1:
        raise CliError("--seeds must be >= 1", EXIT_INPUT)
    failures, total = suites.run(args.suite, seeds, args.grid, args.tol, args.max_iter)
    for line in failures:
        print(f"FAIL {line}")
    print(f"{args.suite}: {total - len(failures)}/{total} PASS")
    return EXIT_OK if not failures else EXIT_BOUND


# --- generate ----------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    params = _parse_set(args.set or [])
    if args.risk_model is not None:
        params["risk_model"] = args.risk_model
    instance = _validated(make(args.family, seed=args.seed, **params))
    text = write_instance(instance).decode("utf-8")
    if args.out:
        _write_text(args.out, text)
        print(f"wrote {args.out}  instance {instance.name}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# --- oracle ------------------------------------------------------------------


def cmd_oracle(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance, None)
    try:
        oracle = max_shortest_path_oracle(
            instance, grid=args.grid, max_paths=args.max_paths
        )
    except PathCountError as exc:
        raise CliError(f"{exc}; raise --max-paths to allow more routes", EXIT_INPUT) from None
    z = solve_rnwe(instance, tol=args.tol, max_iter=args.max_iter)
    require_converged(z, "risk-neutral")
    best = z.min_path_cost
    name = instance.name or args.instance
    print(f"instance {name}  series-parallel {oracle.series_parallel}")
    print(
        f"oracle max shortest path {_num(oracle.value)}"
        f"  grid {oracle.grid}  points {oracle.points}"
    )
    print(f"equilibrium shortest path {_num(best)}  gap {_num(z.relative_gap)}")
    print("maximizing path flows:")
    for path in sorted(oracle.path_flow):
        print(f"  {_num(oracle.path_flow[path])}  {','.join(path)}")
    attained = within(oracle.value, best)
    if oracle.series_parallel:
        print(
            "equilibrium attains the max within round-off:"
            f" {'PASS' if attained else 'FAIL'}"
        )
        return EXIT_OK if attained else EXIT_BOUND
    print(
        f"equilibrium attains the max within round-off: {attained}"
        " (not series-parallel, no guarantee)"
    )
    return EXIT_OK


# --- parser ------------------------------------------------------------------


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOL,
        help="relative gap target (default 1e-8)",
    )
    parser.add_argument(
        "--max-iter",
        type=int,
        default=DEFAULT_MAX_ITER,
        help="iteration budget per solve",
    )


def _add_risk_model_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--risk-model",
        choices=RISK_MODELS,
        default=None,
        help="override the instance's risk model",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskroute",
        description=(
            "Risk-neutral and risk-averse Wardrop equilibria with"
            " alternating-path certificates and price-of-risk-aversion bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one equilibrium and print the flow")
    p_solve.add_argument("instance", help="instance JSON file")
    p_solve.add_argument(
        "--mode",
        choices=("rnwe", "rawe"),
        default="rawe",
        help="risk-neutral or risk-averse objective (default rawe)",
    )
    _add_solver_flags(p_solve)
    _add_risk_model_flag(p_solve)
    p_solve.add_argument("--out", default=None, help="also write the result as JSON")
    p_solve.set_defaults(func=cmd_solve)

    p_analyze = sub.add_parser(
        "analyze", help="solve both equilibria and print the full bound report"
    )
    p_analyze.add_argument("instance", help="instance JSON file")
    _add_solver_flags(p_analyze)
    _add_risk_model_flag(p_analyze)
    p_analyze.add_argument("--out", default=None, help="also write the report as JSON")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sweep = sub.add_parser(
        "sweep", help="sweep one family parameter and write a CSV of reports"
    )
    p_sweep.add_argument("--family", choices=FAMILIES, required=True)
    p_sweep.add_argument("--param", required=True, help="name of the swept parameter")
    p_sweep.add_argument("--from", dest="start", type=float, required=True, metavar="A")
    p_sweep.add_argument("--to", dest="stop", type=float, required=True, metavar="B")
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument(
        "--set",
        action="append",
        metavar="NAME=VALUE",
        help="fixed family parameter (repeatable)",
    )
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    _add_solver_flags(p_sweep)
    _add_risk_model_flag(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser(
        "verify", help="run a property suite over generated instances"
    )
    p_verify.add_argument("--suite", choices=suites.SUITES, required=True)
    p_verify.add_argument(
        "--seeds",
        type=int,
        default=None,
        help="number of seeded cases (default: per-suite)",
    )
    p_verify.add_argument(
        "--grid",
        type=int,
        default=None,
        help="oracle grid for the sp-theorem and oracle suites",
    )
    _add_solver_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_generate = sub.add_parser("generate", help="write a family instance as JSON")
    p_generate.add_argument("--family", choices=FAMILIES, required=True)
    p_generate.add_argument("--seed", type=int, default=None)
    p_generate.add_argument(
        "--set",
        action="append",
        metavar="NAME=VALUE",
        help="family parameter (repeatable)",
    )
    _add_risk_model_flag(p_generate)
    p_generate.add_argument("--out", default=None, help="output path (default stdout)")
    p_generate.set_defaults(func=cmd_generate)

    p_oracle = sub.add_parser(
        "oracle",
        help="maximize the shortest-path latency over the flow grid",
        description=(
            "Maximize the shortest-path latency over the path-flow grid with"
            " demand/grid steps and compare it with the risk-neutral equilibrium."
            " A DP folds the series and parallel parts, each parallel merge in"
            " O(grid) by first reach indices; a lattice branch-and-bound searches"
            " the core left, if any (the whole network where nothing folds)."
            " points counts the C(grid+2, 2) pairs each parallel merge settles plus"
            " the core lattice points evaluated."
        ),
    )
    p_oracle.add_argument("instance", help="instance JSON file")
    p_oracle.add_argument("--grid", type=int, default=DEFAULT_ORACLE_GRID)
    p_oracle.add_argument(
        "--max-paths",
        type=int,
        default=DEFAULT_ORACLE_MAX_PATHS,
        help="most simple paths the core may have (default %(default)s)",
    )
    _add_solver_flags(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except NoAlternatingPathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
