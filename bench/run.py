"""Benchmark for riskroute's certify pipeline.

Run from the root of a riskroute checkout:

    python3 bench/run.py --workload certify-general --seed 0 --seconds 5 --trace 0

The run draws the workload's instances from the seed, loads each one the way
every CLI command does (generate, write, read back, validate), then calls the
library on every instance in whole rounds until ``--seconds`` have passed.
Every output is checked by ``checker.py``, which shares no code with the
library. Timings are scaled to a reference machine speed measured by
``probe.py``. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` times an untraced and a traced pass of the
same rounds and reports per-layer metrics. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

# One thread in total: the BLAS pool must be sized before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: An untraced run sets up at least SETUP_REPEATS times and until
#: SETUP_MIN_SECONDS have passed; setup_s is the median set-up.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
#: Probes before and after each set-up, whose median gives its speed.
SETUP_PROBES = 5
#: Instances beyond the tail percentile.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "instances_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer metrics: name -> unit. Times and counts are per round of the
#: traced pass (per set-up for the instances and validation layers).
PER_LAYER_UNITS = {
    "solvers.solve_wardrop.busy_s": "s",
    "solvers.solve_wardrop.iterations": "count",
    "solvers.shortest_path.calls": "count",
    "solvers.shortest_path.busy_s": "s",
    "solvers.unconverged": "count",
    "solvers.solve_rawe_meanstdev.busy_s": "s",
    "solvers.solve_rawe_meanstdev.iterations": "count",
    "network.enumerate_simple_paths.calls": "count",
    "network.enumerate_simple_paths.busy_s": "s",
    "network.paths_enumerated": "count",
    "analysis.pra_report.busy_s": "s",
    "analysis.pra_report.checks_evaluated": "count",
    "alternating.classify_edges.busy_s": "s",
    "alternating.find_alternating_path.busy_s": "s",
    "analysis.max_shortest_path_oracle.busy_s": "s",
    "analysis.max_shortest_path_oracle.points": "count",
    "analysis.max_shortest_path_oracle.points_per_s": "1/s",
    "instances.make.busy_s": "s",
    "instances.roundtrip.busy_s": "s",
    "network.validate_instance.busy_s": "s",
    "trace.overhead_s": "s",
}


def load_library(root: Path) -> SimpleNamespace:
    """Import riskroute from the checkout's ``src``, never from elsewhere."""
    src = root / "src"
    if not (src / "riskroute" / "__init__.py").is_file():
        raise SystemExit(f"error: no riskroute package under {src}; run from a checkout root")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import riskroute.alternating
    import riskroute.analysis
    import riskroute.instances
    import riskroute.network
    import riskroute.solvers

    if Path(riskroute.__file__).resolve().parent != (src / "riskroute").resolve():
        raise SystemExit(f"error: riskroute was imported from {riskroute.__file__}")
    return SimpleNamespace(
        instances=riskroute.instances,
        network=riskroute.network,
        solvers=riskroute.solvers,
        analysis=riskroute.analysis,
    )


# --- set-up -------------------------------------------------------------------


def generate(lib, case):
    return lib.instances.make(case.family, seed=case.seed, **case.params)


def setup(lib, cases):
    """Generate every instance, round-trip it through JSON and validate it:
    the load path of every CLI command. Returns the loaded instances, their
    documents, and the labels of cases that failed validation."""
    instances, docs, invalid = [], [], []
    for case in cases:
        data = lib.instances.write_instance(generate(lib, case))
        loaded = lib.instances.read_instance(data)
        if not lib.network.validate_instance(loaded).ok:
            invalid.append(case.label)
        instances.append(loaded)
        docs.append(data)
    return instances, docs, invalid


# --- the timed pass -----------------------------------------------------------


def run_case(lib, case, instance):
    if case.kind == "certify":
        x = lib.solvers.solve_rawe(instance)
        z = lib.solvers.solve_rnwe(instance)
        report = lib.analysis.pra_report(instance, x, z) if x.converged and z.converged else None
        return SimpleNamespace(x=x, z=z, report=report, oracle=None)
    z = lib.solvers.solve_rnwe(instance)
    oracle = lib.analysis.max_shortest_path_oracle(
        instance, grid=case.grid, max_paths=case.max_paths
    )
    return SimpleNamespace(x=None, z=z, report=None, oracle=oracle)


def fingerprint(out):
    """Values that must repeat exactly from one round to the next."""
    if isinstance(out, BaseException):
        return repr(out)
    parts = [out.z.iterations, out.z.relative_gap]
    if out.x is not None:
        parts += [out.x.iterations, out.x.relative_gap]
    if out.report is not None:
        parts += [out.report.pra, out.report.eta]
    if out.oracle is not None:
        parts += [out.oracle.value, out.oracle.points]
    return tuple(parts)


def timed_pass(lib, cases, instances, probe, seconds=None, rounds=None, tracer=None):
    """Run whole rounds until ``seconds`` have passed (or exactly ``rounds``),
    timing the probe before every case and every SAMPLE_INTERVAL during it.
    In a traced pass each probe is a ``probe.run`` span, so that no other
    span holds probe time.

    Returns (elapsed seconds, rounds, per-case latencies at the probe's
    reference speed, the same unscaled, first-round outputs, labels of cases
    whose output changed between rounds).
    """
    runs = []  # (seconds less probe time, first probe, last probe)
    outputs = [None] * len(cases)
    prints = [None] * len(cases)
    unsteady = set()
    done = 0

    def take():
        if not tracer:
            return probe()
        if not tracer.busy:  # a signal may land inside the tracer's bookkeeping
            span = tracer.open("probe.run")
            probe()
            tracer.close(span)

    root = tracer.open("pass") if tracer else -1
    start = time.perf_counter()
    with probe.sampling(take):
        while True:
            for i, (case, instance) in enumerate(zip(cases, instances)):
                take()
                first, spent = len(probe.times) - 1, probe.spent
                span = tracer.open("case", i) if tracer else -1
                t0 = time.perf_counter()
                try:
                    out = run_case(lib, case, instance)
                except Exception as exc:  # one failing instance must not end the run
                    if done == 0:
                        traceback.print_exc(file=sys.stderr)
                    out = exc
                t1 = time.perf_counter()
                runs.append((t1 - t0 - (probe.spent - spent), first, len(probe.times) - 1))
                if tracer:
                    tracer.close(span)
                if done == 0:
                    outputs[i] = out
                    prints[i] = fingerprint(out)
                elif fingerprint(out) != prints[i]:
                    unsteady.add(case.label)
            done += 1
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds) if rounds is None else (done >= rounds):
                break
    if tracer:
        tracer.close(root)
        start, end = tracer.spans[root][1:3]
        elapsed = end - start
    scaled = [t * probe.scale(first, last) for t, first, last in runs]
    raw = [t for t, _, _ in runs]
    n = len(cases)
    return (
        elapsed,
        done,
        [scaled[i::n] for i in range(n)],
        [raw[i::n] for i in range(n)],
        outputs,
        unsteady,
    )


# --- checking -----------------------------------------------------------------


def plain(result):
    return dict(result.flow.path_flow), dict(result.flow.edge_flow)


def check_case(checker, case, doc, out):
    """Problems with one case's output; empty when it passed."""
    net = checker.Net(json.loads(doc))
    z_paths, z_edges = plain(out.z)
    bad = checker.check_flow(net, z_paths, z_edges, "rnwe")
    if not bad:
        bad += checker.check_gap(net, z_paths, checker.RISK_NEUTRAL, "rnwe")
    if case.kind == "certify":
        x_paths, x_edges = plain(out.x)
        bad += checker.check_flow(net, x_paths, x_edges, "rawe")
        if bad:
            return bad
        bad += checker.check_gap(net, x_paths, net.risk_model, "rawe")
        r = out.report
        report = dict(
            cost_rawe=r.cost_rawe,
            cost_rnwe=r.cost_rnwe,
            pra=r.pra,
            kappa=r.kappa,
            rho=r.rho,
            eta=r.eta,
            checks=[(c.name, c.passed, c.proven, c.skipped) for c in r.checks],
        )
        bad += checker.check_certificate(net, x_paths, z_paths, report)
        return bad
    if bad:
        return bad
    o = out.oracle
    bad += checker.check_oracle(
        net, z_paths, o.value, o.path_flow, case.grid, series_parallel=case.family == "random_sp"
    )
    if case.family == "zigzag":
        bad += checker.check_zigzag(net, case.params["k"], z_paths, o.value)
    return bad


def judge(checker, cases, docs, outputs, invalid, unsteady):
    """Split cases into failed (raised, did not converge, invalid input) and
    wrong (an output failed a check). Prints one line per problem."""
    failed, wrong = set(), set()
    for case, doc, out in zip(cases, docs, outputs):
        if case.label in invalid:
            problems, bucket = ["instance failed validation"], failed
        elif isinstance(out, BaseException):
            problems, bucket = [f"raised {out!r}"], failed
        elif not out.z.converged or (out.x is not None and not out.x.converged):
            problems, bucket = ["solver did not converge"], failed
        else:
            bucket = wrong
            try:
                problems = check_case(checker, case, doc, out)
            except Exception as exc:  # a malformed output must not end the run
                problems = [f"checker raised {exc!r}"]
            if case.label in unsteady:
                problems.append("output changed between rounds")
        if problems:
            bucket.add(case.label)
            for p in problems:
                print(f"FAIL {case.label}: {p}")
    return failed, wrong


# --- metrics ------------------------------------------------------------------


def harrell_davis(values, p):
    """Harrell-Davis estimate of the ``p`` quantile: the order statistics
    averaged with weights from a Beta(p(n+1), (1-p)(n+1)) density over their
    ranks. Unlike a single order statistic, it does not jump when timing
    noise reorders the instances next to a gap in their times."""
    import numpy as np  # only after load_library has pinned the BLAS pool

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    steps = 64  # midpoint rule, steps per rank
    t = (np.arange(steps * n) + 0.5) / (steps * n)
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, steps).sum(axis=1)
    return float(weights @ x / weights.sum())


def latency_metrics(latencies):
    """Per-case median latency, then the median and the tail over cases: the
    highest percentile with TAIL_BEYOND cases beyond it."""
    per_case = [statistics.median(ts) for ts in latencies]
    n = len(per_case)
    tail = (n - TAIL_BEYOND) / n
    return (
        harrell_davis(per_case, 0.5) * 1e3,
        harrell_davis(per_case, tail) * 1e3,
        100.0 * tail,
    )


#: Per-layer metrics of the traced set-up, which runs once.
SETUP_LAYER_METRICS = (
    "instances.make.busy_s",
    "instances.roundtrip.busy_s",
    "network.validate_instance.busy_s",
)


def layer_metrics(tracer, rounds, overhead, pass_scale, setup_scale):
    """Per-layer metrics: ``<span>.busy_s`` is the span's self time,
    ``<span>.calls`` its count, anything else a counter of the tracer. Times
    are scaled to the probe's reference speed: the pass's by ``pass_scale``,
    the set-up's by ``setup_scale``; ``overhead`` comes scaled."""
    busy, calls = tracer.busy_by_name()
    values = dict(tracer.counts)
    for name in PER_LAYER_UNITS:
        span, _, kind = name.rpartition(".")
        if kind == "busy_s":
            values[name] = busy[span]
        elif kind == "calls":
            values[name] = calls[span]
    values["instances.roundtrip.busy_s"] = (
        busy["instances.write_instance"] + busy["instances.read_instance"]
    )
    metrics = {}
    for name in PER_LAYER_UNITS:
        value = values.get(name, 0.0)
        if name in SETUP_LAYER_METRICS:
            metrics[name] = value * setup_scale
        else:
            metrics[name] = value * (pass_scale if name.endswith(".busy_s") else 1.0) / rounds
    metrics["trace.overhead_s"] = overhead / rounds
    oracle = "analysis.max_shortest_path_oracle"
    metrics[oracle + ".points_per_s"] = (
        metrics[oracle + ".points"] / metrics[oracle + ".busy_s"]
        if metrics[oracle + ".busy_s"]
        else 0.0
    )
    return metrics


def layer_shares(tracer, root_name):
    """Share of a root span's time spent in each module (self time): the
    speed probes under "probe" and the benchmark's loop under "bench"."""
    own = tracer.self_times()
    roots = {i for i, s in enumerate(tracer.spans) if s[0] == root_name and s[3] < 0}
    shares: dict[str, float] = {}
    total = 0.0
    for i, span in enumerate(tracer.spans):
        j = i
        while tracer.spans[j][3] >= 0:
            j = tracer.spans[j][3]
        if j not in roots:
            continue
        module = span[0].split(".")[0] if "." in span[0] else "bench"
        shares[module] = shares.get(module, 0.0) + own[i]
        total += own[i]
    return {m: v / total for m, v in sorted(shares.items())}, total


def os_threads() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return -1


# --- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    lib = load_library(root)
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here))
    import checker
    import probe
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    def path_count(case):
        doc = lib.instances.write_instance(generate(lib, case))
        return checker.path_count(checker.Net(json.loads(doc)))

    cases = workloads.draw(args.workload, args.seed, path_count)
    print(f"workload {args.workload}  seed {args.seed}  cases per round {len(cases)}")

    tracer = spans.Tracer() if args.trace else None
    raw_setups, setup_scales = [], []
    while True:
        around = probe.Probe()
        for _ in range(SETUP_PROBES):
            around()
        if tracer:
            tracer.install()
            span = tracer.open("setup")
        t0 = time.perf_counter()
        instances, docs, invalid = setup(lib, cases)
        raw_setups.append(time.perf_counter() - t0)
        if tracer:
            tracer.close(span)
            tracer.uninstall()
        for _ in range(SETUP_PROBES):
            around()
        setup_scales.append(around.scale())
        # a traced run sets up once, traced
        if tracer or (len(raw_setups) >= SETUP_REPEATS and sum(raw_setups) >= SETUP_MIN_SECONDS):
            break
    setup_times = [t * k for t, k in zip(raw_setups, setup_scales)]

    speed = probe.Probe()
    elapsed, rounds, latencies, raw_latencies, outputs, unsteady = timed_pass(
        lib, cases, instances, speed, seconds=args.seconds
    )
    if tracer:
        tracer.install()
        t_speed = probe.Probe()
        t_elapsed, _, _, _, t_outputs, t_unsteady = timed_pass(
            lib, cases, instances, t_speed, rounds=rounds, tracer=tracer
        )
        tracer.uninstall()
        for case, a, b in zip(cases, outputs, t_outputs):
            if fingerprint(a) != fingerprint(b):
                unsteady.add(case.label)
        unsteady |= t_unsteady

    failed, wrong = judge(checker, cases, docs, outputs, set(invalid), unsteady)
    passes = 2 if tracer else 1
    attempted = len(cases) * rounds * passes
    n_failed = len(failed | wrong) * rounds * passes
    correct = not wrong

    if tracer:
        overhead = t_elapsed - elapsed
        scaled_overhead = t_elapsed * t_speed.scale() - elapsed * speed.scale()
        metrics = layer_metrics(
            tracer, rounds, scaled_overhead, t_speed.scale(), setup_scales[0]
        )
        shares, traced_total = layer_shares(tracer, "pass")
        identity = abs(traced_total - (elapsed + overhead))
        print(
            f"unscaled: self times over the traced pass {traced_total:.6f} s; untraced pass "
            f"{elapsed:.6f} s + overhead {overhead:.6f} s; difference {identity:.2e} s"
        )
        if identity > 1e-6 * max(1.0, traced_total):
            print("FAIL span self times do not add up to the traced pass")
            correct = False
        for module, share in shares.items():
            print(f"share {module:12s} {100.0 * share:6.2f} %")
        out_dir = here / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_file)
        print(f"spans written to {trace_file.relative_to(root)} ({len(tracer.spans)} spans)")
        units = PER_LAYER_UNITS
    else:
        ok_instances = (len(cases) - len(failed | wrong)) * rounds

        def timings(per_case, setups):
            p50, tail, _ = latency_metrics(per_case)
            return {
                "instances_per_s": ok_instances / sum(map(sum, per_case)),
                "latency_p50_ms": p50,
                "latency_tail_ms": tail,
                "setup_s": statistics.median(setups),
            }

        metrics = timings(latencies, setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(
            f"tail percentile p{latency_metrics(latencies)[2]:g} over {len(cases)} instances; "
            f"{len(setup_times)} set-ups; probe median {statistics.median(speed.times) * 1e3:.4f} ms"
        )
        for name, value in timings(raw_latencies, raw_setups).items():
            print(f"unscaled {name:36s} {value:.6g} {END_TO_END_UNITS[name]}")
        units = END_TO_END_UNITS

    print(f"rounds {rounds}  pass {elapsed:.3f} s  os threads {os_threads()}")
    for name, value in metrics.items():
        print(f"{name:45s} {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
