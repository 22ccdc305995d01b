"""Command-line behavior: exit codes, output schemas, CSV byte stability."""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import riskroute.analysis as analysis
import riskroute.cli as cli
from riskroute import suites
from riskroute.analysis import pra_report
from riskroute.cli import CSV_HEADER, main
from riskroute.instances import make, write_instance
from riskroute.network import RISK_MEAN_STDEV, RISK_MEAN_VAR, Edge, Instance, Network
from riskroute.solvers import solve_rawe, solve_rnwe


def _write(tmp_path, name, instance):
    path = tmp_path / name
    path.write_bytes(write_instance(instance))
    return str(path)


# --- generate ----------------------------------------------------------


def test_generate_writes_canonical_json(tmp_path, capsys):
    out = tmp_path / "braess.json"
    assert main(["generate", "--family", "braess", "--set", "v=0.1", "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["demand"] == 1.0
    twin = tmp_path / "braess2.json"
    assert main(["generate", "--family", "braess", "--set", "v=0.1", "--out", str(twin)]) == 0
    assert out.read_bytes() == twin.read_bytes()


def test_generate_stdout_is_deterministic(capsys):
    argv = ["generate", "--family", "pigou", "--set", "kappa=1.0", "--set", "gamma=1.0"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    json.loads(first)


def test_generate_rejects_unknown_family():
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--family", "nonsense"])
    assert exc.value.code == 2


def test_generate_reports_missing_parameter(capsys):
    assert main(["generate", "--family", "braess"]) == 2
    assert "error:" in capsys.readouterr().err


def test_generate_rejects_malformed_set_item(capsys):
    assert main(["generate", "--family", "braess", "--set", "v0.1"]) == 2
    assert "NAME=VALUE" in capsys.readouterr().err


_GENERAL = ["--family", "random_general", "--seed", "0", "--set", "n=5", "--set", "m=6"]
_SP = ["--family", "random_sp", "--seed", "0"]


@pytest.mark.parametrize(
    "argv",
    [
        _GENERAL + ["--set", "gamma=abc"],
        _GENERAL + ["--set", "kappa_target=abc"],
        _SP + ["--set", "budget=3", "--set", "max_paths=abc"],
        _SP + ["--set", "budget=inf"],
        ["--family", "random_general", "--seed", "0", "--set", "n=1e400", "--set", "m=6"],
        ["--family", "zigzag", "--set", "k=inf"],
        ["--family", "zigzag", "--set", "k=2.7"],
        ["--family", "pigou", "--set", "gamma=nan", "--set", "kappa=1"],
    ],
    ids=[
        "gamma-text", "kappa-target-text", "max-paths-text", "budget-inf",
        "n-overflow", "k-inf", "k-fraction", "gamma-nan",
    ],
)
def test_generate_malformed_parameters_exit_2(capsys, argv):
    """Every family parameter must be a finite number, and an integer one a
    whole number."""
    assert main(["generate"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_sweep_over_an_integer_parameter_rejects_fractions(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--family", "zigzag", "--param", "k", "--from", "2", "--to", "3"]
    assert main(argv + ["--steps", "3", "--out", str(out)]) == 2
    assert "whole number" in capsys.readouterr().err
    assert not out.exists()


def test_generate_zigzag_keeps_the_risk_model(capsys):
    argv = ["generate", "--family", "zigzag", "--set", "k=2", "--risk-model", "mean-stdev"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["risk_model"] == RISK_MEAN_STDEV


@pytest.mark.parametrize("field", ["demand", "coefficient"])
@pytest.mark.parametrize("sign", [1, -1])
def test_integer_too_large_for_a_float_exits_2(tmp_path, capsys, field, sign):
    doc = json.loads(write_instance(make("braess", v=0.1)))
    if field == "demand":
        doc["demand"] = sign * 10**400
    else:
        doc["edges"][0]["latency"][0] = sign * 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "too large for a float" in err


# --- solve ----------------------------------------------------------


def test_solve_json_output(tmp_path):
    instance = _write(tmp_path, "braess.json", make("braess", v=0.1))
    out = tmp_path / "flow.json"
    assert main(["solve", instance, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["converged"] is True
    assert doc["stop_reason"] == "converged"
    assert doc["relative_gap"] <= 1e-8
    assert doc["social_cost"] == pytest.approx(1.3, rel=1e-9)
    assert doc["edge_flow"]["e"] == pytest.approx(1.0, rel=1e-9)
    assert doc["path_flow"] == [
        {"edges": ["a", "e", "d"], "flow": pytest.approx(1.0, rel=1e-9)}
    ]


def test_solve_risk_neutral_splits_outer_paths(tmp_path):
    instance = _write(tmp_path, "braess.json", make("braess", v=0.1))
    out = tmp_path / "flow.json"
    assert main(["solve", instance, "--mode", "rnwe", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["social_cost"] == pytest.approx(1.1, rel=1e-9)
    flows = {tuple(row["edges"]): row["flow"] for row in doc["path_flow"]}
    assert flows[("a", "b")] == pytest.approx(0.5, rel=1e-6)
    assert flows[("c", "d")] == pytest.approx(0.5, rel=1e-6)


def test_unconverged_solve_names_its_stop_reason(tmp_path, capsys):
    """A zero-tolerance solve of bound-chain seed 11 stops at round-off: the
    text output is unchanged, stderr names the reason, and so does --out."""
    instance = _write(
        tmp_path, "g11.json", make("random_general", seed=11, n=7, m=14)
    )
    out = tmp_path / "flow.json"
    argv = ["solve", instance, "--mode", "rnwe", "--tol", "0", "--out", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "converged False  iterations 8  relative gap 0.0\n" in captured.out
    assert "error" not in captured.out
    assert captured.err == "error: risk-neutral solver stopped at gap 0.0 (round-off)\n"
    doc = json.loads(out.read_text())
    assert doc["converged"] is False
    assert doc["stop_reason"] == "round-off"


def test_solve_missing_file_exits_2(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_solve_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"{not json")
    assert main(["solve", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_rejects_unknown_risk_model(tmp_path):
    instance = _write(tmp_path, "braess.json", make("braess", v=0.1))
    with pytest.raises(SystemExit) as exc:
        main(["solve", instance, "--risk-model", "median"])
    assert exc.value.code == 2


# --- analyze ----------------------------------------------------------


def test_analyze_braess(tmp_path, capsys):
    instance = _write(tmp_path, "braess.json", make("braess", v=0.1))
    out = tmp_path / "report.json"
    assert main(["analyze", instance, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "pra 1.1818181818181817" in text
    assert "eta 2" in text
    assert CSV_HEADER in text
    assert "result PASS" in text
    doc = json.loads(out.read_text())
    assert doc["ok"] is True
    assert doc["eta"] == 2
    assert len(doc["checks"]) == 11


def _pigou_p4():
    """Pigou with the degree-4 latency 2x**4 on e1 (5 coefficients) beside
    e2 of latency 1 and risk 1, at gamma = demand = 1 under mean-var."""
    e1 = Edge("e1", "s", "t", (0.0, 0.0, 0.0, 0.0, 2.0), (0.0,))
    e2 = Edge("e2", "s", "t", (1.0,), (1.0,))
    network = Network(nodes=("s", "t"), edges=(e1, e2), source="s", sink="t")
    return Instance(network, demand=1.0, gamma=1.0, risk_model=RISK_MEAN_VAR, name="pigou-p4")


def _frozen_name(instance):
    """The tests/data file stem of an instance's frozen report: its name,
    suffixed -stdev under mean-stdev."""
    return instance.name + ("-stdev" if instance.risk_model == RISK_MEAN_STDEV else "")


@pytest.mark.parametrize(
    "instance",
    [
        make("braess", v=0.1),
        make("pigou", kappa=1.0, gamma=1.0),
        make("random_general", seed=0, n=20, m=110),
        suites.random_general(362),
        make("random_general", seed=0, n=20, m=110, risk_model=RISK_MEAN_STDEV),
        _pigou_p4(),
    ],
    ids=_frozen_name,
)
def test_analyze_out_bytes_are_frozen(tmp_path, instance):
    """The analyze --out file of Braess v=0.1, of Pigou kappa = gamma = 1,
    of random_general seed 0 with n=20, m=110 under mean-var and mean-stdev,
    whose edge ids e00-e109 sort unlike their declaration order (e100 before
    e11), of bound-chain draw 362, whose alternating path has two forward
    runs around the backward arc e06, and of a Pigou with a 5-coefficient
    latency, which no solver kernel of 4 coefficients serves, and
    report_to_dict of the same report, equal the frozen reports in
    tests/data byte for byte."""
    frozen = (Path(__file__).parent / "data" / f"{_frozen_name(instance)}.report.json").read_text()
    out = tmp_path / "report.json"
    assert main(["analyze", _write(tmp_path, "instance.json", instance), "--out", str(out)]) == 0
    assert out.read_text() == frozen
    report = pra_report(instance, solve_rawe(instance), solve_rnwe(instance))
    assert json.dumps(analysis.report_to_dict(report), indent=2) + "\n" == frozen


def test_analyze_exits_4_when_a_proven_check_fails(tmp_path, monkeypatch, capsys):
    """Exit-code plumbing only: doctor the report so one proven check fails."""

    def doctored(instance, x, z):
        report = pra_report(instance, x, z)
        checks = list(report.checks)
        checks[0] = checks[0]._replace(passed=False)
        return dataclasses.replace(report, checks=tuple(checks))

    monkeypatch.setattr(cli, "pra_report", doctored)
    instance = _write(tmp_path, "braess.json", make("braess", v=0.1))
    assert main(["analyze", instance]) == 4
    text = capsys.readouterr().out
    assert "FAIL  rawe-cost-le-min-path-cost" in text
    assert "result FAIL" in text


def test_analyze_prints_unproven_checks(tmp_path, capsys):
    """On a mean-stdev instance whose alternating path has a backward arc the
    eta bounds are unproven: printed with the qualifier, not gating the exit."""
    stdev = make(
        "random_general", seed=12, n=6, m=12, risk_model=RISK_MEAN_STDEV,
        gamma=2.0, kappa_target=0.8,
    )
    assert main(["analyze", _write(tmp_path, "stdev.json", stdev)]) == 0
    lines = capsys.readouterr().out.splitlines()
    unproven = [line.split()[1] for line in lines if line.endswith("[unproven]")]
    assert unproven == ["pra-eta-bound", "pra-worstcase-bound"]
    assert lines[-1] == "result PASS"


def test_analyze_beyond_the_path_cap(tmp_path, capsys):
    """Mean-var n=100, m=400 (seed 0) and mean-stdev n=40, m=120 (seeds
    0-9) and n=100, m=400 (seeds 0-4) certify without enumerating paths."""
    cases = [("mean-var", 100, 400, 0)]
    cases += [("mean-stdev", 40, 120, seed) for seed in range(10)]
    cases += [("mean-stdev", 100, 400, seed) for seed in range(5)]
    out = tmp_path / "big.json"
    for risk_model, n, m, seed in cases:
        argv = ["generate", "--family", "random_general", "--seed", str(seed)]
        argv += ["--set", f"n={n}", "--set", f"m={m}", "--risk-model", risk_model]
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(out)]) == 0, (risk_model, n, m, seed)
        assert capsys.readouterr().out.endswith("result PASS\n")


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.update(demand=math.nan),
        lambda doc: doc.update(gamma=math.inf),
        lambda doc: doc["edges"][0].update(latency=[math.nan, 1.0]),
    ],
    ids=["nan-demand", "inf-gamma", "nan-coefficient"],
)
def test_analyze_rejects_non_finite_numbers(tmp_path, capsys, edit):
    doc = json.loads(write_instance(make("braess", v=0.1)))
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "finite" in err
    assert "Traceback" not in err


def _on_every_edge(doc, **fields):
    for edge in doc["edges"]:
        edge.update(fields)
    return doc


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["edges"][0].update(latency=[1e308, 1e308, 1e308]),
        lambda doc: doc.update(demand=1e308),
        # each edge is finite, their sum along a path is not
        lambda doc: _on_every_edge(doc, latency=[1e308]),
        # finite costs at demand 1e-300, but slopes of 1e308 that overflow
        # when two edges' slopes are summed
        lambda doc: _on_every_edge(doc, latency=[0.0, 1e308]).update(demand=1e-300),
    ],
    ids=["huge-latency", "huge-demand", "huge-path-sum", "huge-slope"],
)
def test_overflowing_costs_exit_2(tmp_path, capsys, edit):
    doc = json.loads(write_instance(make("braess", v=0.1)))
    edit(doc)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    for command in ("analyze", "solve", "oracle"):
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "overflows" in err


def test_analyze_non_convergence_exits_3(tmp_path, capsys):
    instance = _write(
        tmp_path, "hard.json", make("random_general", seed=11, n=6, m=10)
    )
    assert main(["analyze", instance, "--max-iter", "1", "--tol", "1e-15"]) == 3
    assert "stopped at gap" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "analyze", "verify"])
@pytest.mark.parametrize(
    "flag",
    [
        ["--tol", "inf"],
        ["--tol", "nan"],
        ["--tol", "-1"],
        ["--max-iter", "-1"],
    ],
    ids=["tol-inf", "tol-nan", "tol-negative", "max-iter-negative"],
)
def test_bad_solver_flags_exit_2(tmp_path, capsys, command, flag):
    """A tolerance that is not a finite number >= 0 or a negative iteration
    budget is bad input, not a solve that passed or stopped short."""
    if command == "verify":
        argv = ["verify", "--suite", "bound-chain", "--seeds", "3"]
    else:
        argv = [command, _write(tmp_path, "braess.json", make("braess", v=0.1))]
    assert main(argv + flag) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


#: Well-formed documents the fuzz below corrupts.
_FUZZ_BASES = tuple(
    write_instance(instance)
    for instance in (
        make("braess", v=0.1),
        make("braess", v=0.1, risk_model=RISK_MEAN_STDEV),
        make("pigou", kappa=1.0, gamma=1.0, risk_model=RISK_MEAN_STDEV),
        make("random_sp", seed=3, budget=3),
    )
)
_HUGE = [1.7976931348623157e308, 1e308, 1e200, 1e154, 1e103]
_ODD_NUMBERS = st.one_of(
    st.sampled_from(
        _HUGE
        + [-1e308, 1e-300, 5e-324, 0.0, -1.0, math.nan, math.inf, -math.inf]
        + [10**400, -(10**400)]
    ),
    st.floats(),
)
_WRONG_TYPES = st.sampled_from(["x", [], [1.0], {}, None, True])


@st.composite
def _malformed_documents(draw):
    """An instance document with one or two corruptions: an odd number in
    demand, gamma or a cost coefficient, an odd constant cost on one edge,
    a huge monomial cost on every edge, a missing or an extra key, or a
    value of the wrong type."""
    doc = json.loads(draw(st.sampled_from(_FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 2))):
        edges = doc.get("edges")
        edges = [e for e in edges if isinstance(e, dict)] if isinstance(edges, list) else []
        edge = draw(st.sampled_from(edges)) if edges else None
        target = doc if edge is None or draw(st.booleans()) else edge
        key = draw(st.sampled_from(["latency", "risk"]))
        kind = draw(
            st.sampled_from(["number", "coefficient", "edge", "every-edge", "drop", "extra", "type"])
        )
        if kind == "number":
            doc[draw(st.sampled_from(["demand", "gamma"]))] = draw(_ODD_NUMBERS)
        elif kind == "coefficient" and edge is not None and edge.get(key):
            poly = edge[key]
            if isinstance(poly, list):
                poly[draw(st.integers(0, len(poly) - 1))] = draw(_ODD_NUMBERS)
        elif kind == "edge" and edge is not None:
            edge[key] = [draw(_ODD_NUMBERS)]
        elif kind == "every-edge":
            poly = [0.0] * draw(st.integers(0, 3)) + [draw(st.sampled_from(_HUGE))]
            for e in edges:
                e[key] = list(poly)
        elif kind == "drop" and target:
            del target[draw(st.sampled_from(sorted(target)))]
        elif kind == "extra":
            target["extra"] = draw(_ODD_NUMBERS)
        elif kind == "type" and target:
            target[draw(st.sampled_from(sorted(target)))] = draw(_WRONG_TYPES)
    return doc


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_malformed_documents())
def test_malformed_documents_exit_cleanly(doc):
    """solve, analyze and oracle end every malformed document with a
    documented exit code and no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "instance.json")
        Path(path).write_text(json.dumps(doc))
        for argv in (["solve", path], ["analyze", path], ["oracle", path, "--grid", "10"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2, 3, 4), (argv[0], code, err.getvalue())
            assert "Traceback" not in err.getvalue() + out.getvalue()


# --- sweep ----------------------------------------------------------


def test_sweep_csv_schema_and_closed_form(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--family", "braess", "--param", "v",
        "--from", "0.05", "--to", "0.3", "--steps", "6", "--out", str(out),
    ])
    assert code == 0
    assert "failed 0" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 7
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 9
        assert fields[8] == "1"
        v = float(fields[0])
        pra = float(fields[3])
        assert pra == pytest.approx((1.0 + 3.0 * v) / (1.0 + v), abs=1e-5)
        assert int(fields[5]) == 2


def test_sweep_is_byte_stable(tmp_path):
    def run(name):
        out = tmp_path / name
        argv = [
            "sweep", "--family", "braess", "--param", "v",
            "--from", "0.1", "--to", "0.4", "--steps", "4", "--out", str(out),
        ]
        assert main(argv) == 0
        return out.read_bytes()

    assert run("first.csv") == run("second.csv")


def test_sweep_rejects_bad_ranges(tmp_path, capsys):
    base = [
        "sweep", "--family", "braess", "--param", "v",
        "--out", str(tmp_path / "x.csv"),
    ]
    assert main(base + ["--from", "0.1", "--to", "0.3", "--steps", "1"]) == 2
    assert main(base + ["--from", "0.3", "--to", "0.1", "--steps", "3"]) == 2
    assert (
        main(base + ["--from", "0.1", "--to", "0.3", "--steps", "3", "--set", "v=0.2"])
        == 2
    )
    assert "also given" in capsys.readouterr().err


# --- verify ----------------------------------------------------------


def test_verify_sigma_lemma(capsys):
    assert main(["verify", "--suite", "sigma-lemma", "--seeds", "500"]) == 0
    assert "sigma-lemma: 500/500 PASS" in capsys.readouterr().out


def test_verify_bound_chain_small(capsys):
    assert main(["verify", "--suite", "bound-chain", "--seeds", "3"]) == 0
    assert "bound-chain: 3/3 PASS" in capsys.readouterr().out


def test_verify_sp_theorem_small(capsys):
    """Two seeded cases plus the three fixed zigzag recognition checks."""
    assert main(["verify", "--suite", "sp-theorem", "--seeds", "2", "--grid", "20"]) == 0
    assert "sp-theorem: 5/5 PASS" in capsys.readouterr().out


def test_verify_oracle_small(capsys):
    """One seeded case plus the three fixed zigzag worst-case checks."""
    assert main(["verify", "--suite", "oracle", "--seeds", "1", "--grid", "20"]) == 0
    assert "oracle: 4/4 PASS" in capsys.readouterr().out


def test_verify_rejects_nonpositive_seeds(capsys):
    assert main(["verify", "--suite", "sigma-lemma", "--seeds", "0"]) == 2
    assert "--seeds" in capsys.readouterr().err


# --- oracle ----------------------------------------------------------


def test_oracle_pigou_attains_max(tmp_path, capsys):
    instance = _write(tmp_path, "pigou.json", make("pigou", kappa=1.0, gamma=1.0))
    assert main(["oracle", instance, "--grid", "50"]) == 0
    text = capsys.readouterr().out
    assert "series-parallel True" in text
    assert "PASS" in text


def test_oracle_zigzag_is_informational(tmp_path, capsys):
    instance = _write(tmp_path, "zigzag.json", make("zigzag", k=2))
    assert main(["oracle", instance, "--grid", "40", "--max-paths", "10"]) == 0
    text = capsys.readouterr().out
    assert "series-parallel False" in text
    assert "no guarantee" in text


@pytest.mark.parametrize(
    "instance, options",
    [
        (make("zigzag", k=3), ["--max-paths", "10"]),
        (make("braess", v=0.1), ["--grid", "2000"]),
        (make("random_general", seed=293, n=7, m=14), []),
    ],
    ids=["zigzag-k3", "braess-v0.1", "random-n7-m14-s293"],
)
def test_oracle_stdout_bytes_are_frozen(tmp_path, capsys, instance, options):
    """The oracle's stdout on zigzag k=3 (--max-paths 10), Braess v=0.1 at
    grid 2000 and random_general seed 293 with n=7, m=14 at the default
    grid, all searched by the lattice, equals the frozen text in tests/data
    byte for byte."""
    frozen = (Path(__file__).parent / "data" / f"{instance.name}.oracle.txt").read_text()
    assert main(["oracle", _write(tmp_path, "instance.json", instance), *options]) == 0
    assert capsys.readouterr().out == frozen


def test_oracle_path_cap_exits_2(tmp_path, capsys):
    instance = _write(tmp_path, "zigzag.json", make("zigzag", k=2))
    assert main(["oracle", instance, "--max-paths", "2"]) == 2
    assert "raise --max-paths" in capsys.readouterr().err


def test_oracle_non_positive_grid_exits_2(tmp_path, capsys):
    instance = _write(tmp_path, "pigou.json", make("pigou", kappa=1.0, gamma=1.0))
    assert main(["oracle", instance, "--grid", "0"]) == 2
    assert "grid must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family, params, value",
    [("braess", dict(v=0.1), "-1"), ("pigou", dict(kappa=1.0, gamma=1.0), "0")],
)
def test_oracle_non_positive_max_paths_exits_2(tmp_path, capsys, family, params, value):
    """Refused on every network, series-parallel ones too, with one line."""
    instance = _write(tmp_path, "instance.json", make(family, **params))
    assert main(["oracle", instance, "--max-paths", value]) == 2
    err = capsys.readouterr().err
    assert err == f"error: oracle max_paths must be a positive integer (got {value})\n"


def test_oracle_refused_allocation_exits_2(tmp_path, capsys, monkeypatch):
    """A grid too big for memory ends with one error line, not a traceback.
    The merge is patched to refuse, so nothing big is allocated."""

    def refuse(first, second):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(analysis, "_parallel_merge", refuse)
    instance = _write(tmp_path, "pigou.json", make("pigou", kappa=1.0, gamma=1.0))
    assert main(["oracle", instance, "--grid", "1000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Unable to allocate 7.28 TiB" in captured.err
    assert "Traceback" not in captured.err and captured.err.count("\n") == 1


# --- parser ----------------------------------------------------------


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
