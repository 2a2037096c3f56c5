"""oqamcpr benchmark: one workload per run, checked outputs, JSON result.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload lock --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics ``wall_s``
(median of the timed iterations), ``setup_s`` (median of fresh
interpreters' ``import oqamcpr`` plus config resolution) and
``peak_rss_mib`` (peak RSS of the process that ran only this workload).
With ``--trace 1`` it holds the per-layer metrics from a traced run.  The
last line of standard output is the JSON result; the lines before it name
each metric with its unit, the failed ratio and the environment.  A record
of the run (samples, warm-up, failures, environment) and, when traced, the
spans are written under ``perfbench/out/``.

Processes run one at a time: the set-up probes, then the workload process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("lock", "ber")
SETUP_SAMPLES = 5  # fresh interpreters per run, the workload process included
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))


def per_layer_units() -> dict[str, str]:
    """The per-layer metrics declared in BENCHMARK.json, with their units."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def git_sha(root: Path) -> str | None:
    """The checkout's commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(root: Path, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "seed": seed,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py to completion and return its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env,
        stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()),
        check=True,
        text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: int, deadline: float):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    common = ["--workload", name, "--seed", str(seed)]
    setup = [
        run_worker([*common, "--setup-only"], env, deadline)["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    result = run_worker(
        [*common, "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)],
        env,
        deadline,
    )
    if Path(result["oqamcpr_file"]).resolve().parents[1] != (root / "src").resolve():
        raise RuntimeError(f"imported oqamcpr from {result['oqamcpr_file']}, not {root / 'src'}")
    setup.append(result["setup_s"])
    result["setup_samples_s"] = setup
    result["environment"] = environment(root, seed)
    result["environment"].update(
        numpy=result.pop("numpy"), scipy=result.pop("scipy"), blas=result.pop("blas")
    )

    if trace:
        # A layer the workload does not reach has no spans and reports 0.
        metrics = {
            name: {"value": result["layers"].get(name, 0.0), "unit": unit}
            for name, unit in per_layer_units().items()
        }
    else:
        values = {
            "wall_s": statistics.median(result["wall_samples_s"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": result["peak_rss_mib"],
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    record = out / f"result-{name}-seed{seed}-trace{trace}.json"
    record.write_text(json.dumps({"workload": name, "metrics": metrics, **result}, indent=1))
    return metrics, result


def describe(name: str, metrics: dict, result: dict, trace: int) -> list[str]:
    """Human-readable lines: every metric with its unit, and the context."""
    lines = []
    n = len(result["wall_samples_s"])
    for key, m in metrics.items():
        extra = ""
        if key == "wall_s":
            extra = f"  (median of {n} iterations; warm-up {result['warmup_s']:.4f} s excluded)"
        elif key == "setup_s":
            extra = f"  (median of {len(result['setup_samples_s'])} fresh interpreters)"
        lines.append(f"{name}  {key} = {m['value']:.6g} {m['unit']}{extra}")
    ratio = result["failed"] / result["attempted"]
    lines.append(
        f"{name}  failed_ratio = {ratio:.6g} ({result['failed']}/{result['attempted']} operations)"
    )
    for failure in result["failures"]:
        lines.append(f"{name}  FAILED {failure}")
    if trace:
        wall = metrics["trace.wall_s"]["value"]
        for key, m in metrics.items():
            if m["unit"] == "s" and m["value"] and key.split(".")[0] != "trace":
                lines.append(f"{name}  share of traced wall_s: {key} = {100 * m['value'] / wall:.1f} %")
    lines.append(f"{name}  env {json.dumps(result['environment'], sort_keys=True)}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "oqamcpr" / "__init__.py").is_file():
        print(f"error: {root} has no src/oqamcpr; run from the root of a checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    start = time.monotonic()
    combined, attempted, failed = {}, 0, 0
    for name in names:
        deadline = start + DEADLINE_S * (len(names) if args.workload == "all" else 1)
        try:
            metrics, result = run_workload(root, name, args.seed, args.seconds, args.trace, deadline)
        except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(describe(name, metrics, result, args.trace)), flush=True)
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        combined.update({prefix + k: v for k, v in metrics.items()})
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
