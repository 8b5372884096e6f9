"""asymloss benchmark: one caller, a closed loop, every output checked.

    python3 bench/run.py --workload verify_grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload in turn

Run from the root of a checkout.  The program is imported from the
checkout's ``src/``; the benchmark fails, printing no result, when it is
not there.  One process, one thread of computation (numpy and scipy
thread pools pinned to 1), and each operation starts when the previous
one returns.  CLI operations call ``asymloss.cli.main(argv)`` in-process,
so the one-time import is counted in ``setup_s``, not in each operation.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run wraps each layer's public
functions in spans (see spans.py) and reports the per-layer metrics
instead.  See README.md for the workloads and metrics.
"""

import os
import sys
import time

# Pin native thread pools before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
WORK_DIR = os.path.join(BENCH_DIR, "_work")
# The keys of workloads.WORKLOADS, which can be imported only after the program.
WORKLOAD_NAMES = ("verify_grid", "analyze_mc", "backtest_csv", "custom_pdf")
# Set-up runs in fresh processes this many times per run; the median is reported.
SETUP_REPEATS = 3
# Traced counts are taken over this many first timed operations, which every
# run of 25 s completes, so that they repeat exactly for a seed.
COUNT_OPS = 20


def import_program():
    """Put the checkout's src/ first on sys.path and import asymloss from it, or exit."""
    package = os.path.join(SRC_DIR, "asymloss")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"error: no asymloss package at {package}; run from a checkout of the repository")
    sys.path.insert(0, SRC_DIR)
    import asymloss

    if os.path.dirname(os.path.abspath(asymloss.__file__)) != package:
        sys.exit(f"error: imported asymloss from {asymloss.__file__}, not from {package}")


def _setup_probe(workload, seed):
    """Child process: import the program, build the distributions, report the clock."""
    import_program()
    import workloads

    workloads.WORKLOADS[workload](seed, WORK_DIR).dists()
    print(repr(time.monotonic()))


def _setup_seconds(workload, seed):
    """Process start through import and distribution construction, in a fresh process."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    start = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - start


def _layer_metrics(summary, head, head_ops, ops, pdf_calls):
    """Times and rates from ``summary`` (all ``ops`` timed operations); counts
    from ``head`` (the first ``head_ops``), so that they repeat exactly."""
    spans, layers = summary["spans"], summary["layers"]
    empty = {"count": 0, "seconds": 0.0, "self_seconds": 0.0, "items": 0}

    def span(name, source=spans):
        return source.get(name, empty)

    def count(name):
        return span(name, head["spans"])["count"]

    def per_op_ms(seconds):
        return 1e3 * seconds / ops

    def ratio(num, den):
        return num / den if den else 0.0

    read = span("cli.read_error_csv")
    sweeps = span("inequalities.sweep")
    moments = span("distributions.partial_moments")
    draws = span("distributions.sample_chunks")
    fits = span("distributions.fit_empirical")
    return {
        "cli.self_ms": (per_op_ms(layers["cli"]["self_seconds"]), "ms/op"),
        "cli.read_error_csv_ms": (per_op_ms(read["seconds"]), "ms/op"),
        "cli.read_error_csv_rows_per_s": (ratio(read["items"], read["seconds"]), "1/s"),
        "solver.savings_report_ms": (per_op_ms(layers["solver"]["self_seconds"]), "ms/op"),
        "solver.solve_offset_calls": (count("solver.solve_offset") / head_ops, "count/op"),
        "loss_model.d_expected_loss_calls": (
            ratio(count("loss_model.d_expected_loss"), count("solver.solve_offset")), "count/solve"),
        "loss_model.loss_ms": (per_op_ms(span("loss_model.loss")["seconds"]), "ms/op"),
        "inequalities.sweep_ms": (per_op_ms(sweeps["seconds"]), "ms/op"),
        "inequalities.points_per_s": (ratio(sweeps["items"], sweeps["seconds"]), "1/s"),
        "inequalities.ggd_inequality_lhs_calls": (count("inequalities.ggd_inequality_lhs") / head_ops, "count/op"),
        "distributions.partial_moments_calls": (count("distributions.partial_moments") / head_ops, "count/op"),
        "distributions.partial_moments_us": (1e6 * ratio(moments["seconds"], moments["count"]), "us/call"),
        "distributions.sample_draws_per_s": (ratio(draws["items"], draws["seconds"]), "1/s"),
        "distributions.fit_empirical_ms": (per_op_ms(fits["seconds"]), "ms/op"),
        "distributions.fit_empirical_rows_per_s": (ratio(fits["items"], fits["seconds"]), "1/s"),
        "distributions.fallback_pdf_calls": (pdf_calls / head_ops, "count/op"),
        "montecarlo.estimate_loss_stats_ms": (per_op_ms(span("montecarlo.estimate_loss_stats")["self_seconds"]), "ms/op"),
        "specfun.calls": (head["layers"]["specfun"]["entries"] / head_ops, "count/op"),
        "specfun.ms": (per_op_ms(layers["specfun"]["entry_seconds"]), "ms/op"),
    }


def _measure(workload, seed, seconds, traced):
    import_program()
    import workloads

    setup = None
    if not traced:
        setup = statistics.median(_setup_seconds(workload, seed) for _ in range(SETUP_REPEATS))

    os.makedirs(WORK_DIR, exist_ok=True)
    wl = workloads.WORKLOADS[workload](seed, WORK_DIR)
    pdf_counters = [d for d in wl.dists() if isinstance(d, workloads.Triangular)]
    wl.prepare()
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    counts = {"attempted": 0, "failed": 0, "check_failures": 0}

    def operation(i):
        inp = wl.inputs(i)
        stderr = io.StringIO()
        raw = None
        counts["attempted"] += 1
        with contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                raw = wl.run(inp)
            except Exception:  # the program raised: count the operation as failed
                traceback.print_exc()
            elapsed = time.perf_counter() - start
        if raw is None or wl.failed(raw):
            counts["failed"] += 1
            sys.stderr.write(f"operation {i} failed:\n{stderr.getvalue()}")
            return elapsed
        try:
            wl.check(inp, wl.output(inp, raw))
        except Exception as exc:  # a wrong, malformed or missing output
            counts["check_failures"] += 1
            sys.stderr.write(f"operation {i}: wrong output: {type(exc).__name__}: {exc}\n")
        return elapsed

    try:
        operation(0)  # warm-up: lazy imports and caches, checked but not timed
        if tracer is not None:
            tracer.reset()
        # Span count and pdf evaluations before each timed operation, so that
        # counts can be taken over the same first operations in every run.
        marks = []
        latencies = []
        deadline = time.monotonic() + seconds
        i = 1
        while time.monotonic() < deadline:
            if tracer is not None:
                marks.append((len(tracer), sum(d.pdf_calls for d in pdf_counters)))
            latencies.append(operation(i))
            i += 1
    finally:
        wl.cleanup()

    if tracer is None:
        metrics = {
            "setup_s": (setup, "s"),
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "op_p90_ms": (1e3 * statistics.quantiles(latencies, n=10)[8], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        tracer.save(os.path.join(WORK_DIR, f"trace-{workload}.npz"))
        head_ops = min(COUNT_OPS, len(latencies))
        marks.append((len(tracer), sum(d.pdf_calls for d in pdf_counters)))
        head_end, pdf_end = marks[head_ops]
        metrics = _layer_metrics(
            tracer.summary(), tracer.summary(upto=head_end), head_ops, len(latencies), pdf_end - marks[0][1]
        )
        # Not a metric of this mode; against op_p50_ms of an untraced run it
        # gives the tracing overhead.
        print(f"[{workload}] traced op_p50_ms {1e3 * statistics.median(latencies):.6g}")
    return {
        "correct": counts["check_failures"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _print_result(workload, result):
    print(f"[{workload}] attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"[{workload}]   {name:42s} {m['value']:14.6g} {m['unit']}")


def _run_all(args):
    """Each workload in its own process, so set-up and peak memory stay per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            sys.exit(f"error: workload {workload} exited with {done.returncode}")
        *report, last = done.stdout.strip().splitlines()
        print("\n".join(report))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    return combined


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return
    if args.workload == "all":
        result = _run_all(args)
    else:
        result = _measure(args.workload, args.seed, args.seconds, bool(args.trace))
        _print_result(args.workload, result)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
