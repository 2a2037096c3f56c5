"""One benchmark process: set up one workload, run it, print one JSON line.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  The first thing it does is time ``import oqamcpr`` plus building
the workload (resolving and validating its configs) in this fresh
interpreter; with ``--setup-only`` it stops there.  Otherwise it runs one
untimed warm-up iteration, then timed iterations as long as the next one is
expected to end within ``--seconds`` of the warm-up's start, checking every
output, and reports the process's peak RSS.  With ``--trace 1`` iterations
alternate between untraced and traced, so the same run gives the tracing
overhead.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

t_setup = perf_counter()
import workloads  # noqa: E402  (the import of oqamcpr is part of setup_s)


def run_iteration(ops, outdir: Path, tracer=None, op_seconds=None):
    """Run every operation once.

    Returns (seconds spent in the calls, attempted, failure messages).  An
    exception or a failed output check counts the operation as failed; the
    checks run after the timed calls, untraced.  Each call's own time is
    appended to ``op_seconds[op.name]`` when a dict is given.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.install()
    results = []
    start = perf_counter()
    try:
        for op in ops:
            op_start = perf_counter()
            try:
                results.append((op, op.call(outdir), None))
            except Exception as exc:
                results.append((op, None, f"{type(exc).__name__}: {exc}"))
            if op_seconds is not None:
                op_seconds.setdefault(op.name, []).append(perf_counter() - op_start)
        seconds = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures = []
    for op, out, error in results:
        if error is None:
            try:
                problems = op.check(out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            error = "; ".join(problems)
        if error:
            failures.append(f"{op.name}: {error}")
    shutil.rmtree(outdir)
    return seconds, len(ops), failures


def layer_metrics(summary: dict[str, float], wall_s: float) -> dict[str, float]:
    """One traced iteration's span figures plus the per-unit rates."""
    m = dict(summary)

    def ratio(num, den, scale=1.0):
        num, den = m.get(num, 0.0), m.get(den, 0)
        return scale * num / den if den else 0.0

    m["cpr.us_per_block"] = ratio("cpr.simulate_lock.s", "cpr.blocks", 1e6)
    m["ber.ms_per_snr_point"] = ratio("ber.snr_sweep.s", "ber.snr_points", 1e3)
    m["ber.required_snr_db.ms"] = ratio("ber.required_snr_db.s", "ber.required_snr_db.calls", 1e3)
    m["ber.required_snr_db.ser_calls"] = ratio(
        "ber.required_snr_db.ser_calls_total", "ber.required_snr_db.calls"
    )
    m["ber.monte_carlo_ber.msym_per_s"] = ratio("ber.mc_symbols", "ber.monte_carlo_ber.s", 1e-6)
    m["reports.rows_per_s"] = ratio("reports.csv_rows", "reports.write_csv.s")
    m["trace.wall_s"] = wall_s
    return m


def blas_name(numpy) -> str | None:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="directory for report files and spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.out is None and not args.setup_only:
        parser.error("--out is required unless --setup-only is given")

    ops = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = perf_counter() - t_setup
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    import scipy
    import spans

    workdir = args.out / f"work-{args.workload}-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    attempted, failures, laps, op_seconds = 0, [], [], {}

    def iterate(traced: bool) -> float:
        nonlocal attempted
        if traced:
            tracer.iteration += 1
        lap = perf_counter()
        seconds, n, failed = run_iteration(
            ops, workdir, tracer if traced else None, None if traced else op_seconds
        )
        laps.append(perf_counter() - lap)  # calls, checks and clean-up
        attempted += n
        failures.extend(failed)
        return seconds

    start = perf_counter()
    warmup_s = iterate(False)
    op_seconds.clear()
    plain, traced, layers = [], [], []
    while True:
        if tracer and len(traced) < len(plain):
            traced.append(iterate(True))
            layers.append(layer_metrics(tracer.summary(tracer.iteration), traced[-1]))
        else:
            plain.append(iterate(False))
        # Stop before an iteration that would end after --seconds.
        expected_end = perf_counter() - start + statistics.median(laps)
        if plain and (traced or not tracer) and expected_end > args.seconds:
            break

    result = {
        "setup_s": setup_s,
        "warmup_s": warmup_s,
        "wall_samples_s": plain,
        "op_median_s": {name: statistics.median(t) for name, t in op_seconds.items()},
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "oqamcpr_file": workloads.cli.__file__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name(numpy),
    }
    if tracer:
        result["traced_samples_s"] = traced
        names = set().union(*layers)
        metrics = {name: statistics.median(m.get(name, 0.0) for m in layers) for name in names}
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        result["layers"] = metrics
        spans_path = args.out / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
