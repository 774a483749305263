"""voikit benchmark: run one workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload single-param --seed 1 --seconds 24 --trace 0

Workloads: single-param, regression-bootstrap, cli-session (see README.md).
The program under test is the ``voikit`` package in ``src/`` next to this
directory; nothing is installed.  After at least three set-ups, one client
runs the workload's job list in a closed loop, pass after pass, and starts
a pass only if at least half of it fits in ``--seconds``; at least one
pass always runs.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` spends half the time on untraced passes and half on traced
ones and reports the per-layer metrics; ``trace.overhead_s`` is the
traced minus the untraced median pass time.  ``--smoke`` shrinks every
input for a quick functional check.

stdout carries a readable report, then one ``report`` line with the full
record as JSON, then the result line read by tooling:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every oracle check and the determinism digest check pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up repeats at least N_SETUPS times and for at least MIN_SETUP_S, so
# that the median of a set-up of a few milliseconds is still steady.
N_SETUPS = 3
MIN_SETUP_S = 2.0

END_TO_END = (
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("err_max", "1"),
    ("failed_frac", "1"),
)
# The end-to-end metrics on the result line: those that vary only through
# cost.  err_max and failed_frac are fixed by the seed and go in the report.
GATED = ("wall_s", "job_p50_s", "cpu_s", "peak_rss_mb", "setup_s")


@dataclass
class JobError:
    """A job that raised instead of returning an output."""

    message: str


@dataclass
class Pass:
    wall: float
    cpu: float
    latencies: list[float]
    outputs: list
    layers: dict | None = None


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_passes(workload, jobs, budget: float, traced: bool) -> list[Pass]:
    import tracing

    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        tracer = uninstall = None
        if traced:
            tracer = tracing.Tracer()
            if workload.probe is not None:
                workload.probe(tracer)
            uninstall = tracing.install(tracer)
        try:
            cpu0, t0 = _cpu_seconds(), time.perf_counter()
            latencies, outputs = [], []
            for job in jobs:
                j0 = time.perf_counter()
                try:
                    out = job.run(tracer)
                except Exception as exc:  # one failed job must not stop the loop
                    traceback.print_exc()
                    out = JobError(f"{type(exc).__name__}: {exc}")
                latencies.append(time.perf_counter() - j0)
                outputs.append(out)
            wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
        finally:
            if uninstall is not None:
                uninstall()
        layers = tracing.layer_metrics(tracer) if traced else None
        passes.append(Pass(wall, cpu, latencies, outputs, layers))
        # start another pass only if at least half of it fits in the budget,
        # so that the pass count does not swing between two values
        if time.perf_counter() - start + wall / 2 > budget:
            return passes


def _fingerprint(out) -> str:
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], bytes):
        return repr((out[0], hashlib.sha256(out[1]).hexdigest()))
    return repr(out)


def digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(_fingerprint(out).encode())
        h.update(b"\n")
    return h.hexdigest()


def check_pass(jobs, outputs):
    """Oracle checks of one pass: a list per job, or None if it raised."""
    verdicts = []
    for job, out in zip(jobs, outputs):
        if isinstance(out, JobError):
            verdicts.append(None)
            continue
        try:
            verdicts.append(job.check(out))
        except Exception:  # malformed output counts as a failed job
            traceback.print_exc()
            verdicts.append(None)
    return verdicts


def _job_failed(checks) -> bool:
    return checks is None or not all(c.ok for c in checks)


def machine_record() -> dict:
    import numpy as np
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "commit": _commit(),
    }


def _commit() -> dict:
    """The git commit when there is one, and always a hash of src/."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    git = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            git = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git": git, "src_sha256": h.hexdigest()}


def measure(workload, seconds: float, traced: bool, smoke: bool) -> dict:
    import tracing

    setup_times, setup_layers = [], []
    while not setup_times or not smoke and (
        len(setup_times) < N_SETUPS or sum(setup_times) < MIN_SETUP_S
    ):
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer) if traced else None
        try:
            t0 = time.perf_counter()
            ctx = workload.setup()
            setup_times.append(time.perf_counter() - t0)
        finally:
            if uninstall is not None:
                uninstall()
        setup_layers.append(tracing.setup_metrics(tracer))
    jobs = workload.jobs(ctx)

    budget = seconds / 2 if traced else seconds
    untraced = run_passes(workload, jobs, budget, traced=False)
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    traced_passes = run_passes(workload, jobs, budget, traced=True) if traced else []
    passes = untraced + traced_passes

    verdicts = [check_pass(jobs, p.outputs) for p in passes]
    digests = [digest(p.outputs) for p in passes]
    failed = sum(_job_failed(v) for pass_verdicts in verdicts for v in pass_verdicts)
    attempted = len(jobs) * len(passes)
    rel_errors = [
        c.error / abs(c.oracle)
        for checks in verdicts[0] if checks for c in checks if c.relative
    ]
    latencies = [lat for p in untraced for lat in p.latencies]
    e2e = {
        "wall_s": statistics.median(p.wall for p in untraced),
        "job_p50_s": statistics.median(latencies),
        "cpu_s": statistics.median(p.cpu for p in untraced),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times),
        "err_max": max(rel_errors, default=0.0),
        "failed_frac": failed / attempted,
    }
    record = {
        "workload": workload.name,
        "loop": "closed, 1 client, one job at a time",
        "jobs_per_pass": len(jobs),
        "untraced_passes": len(untraced),
        "traced_passes": len(traced_passes),
        "job_latency_samples": len(latencies),
        "pass_wall_s": [p.wall for p in untraced],
        "setup_runs": setup_times,
        "end_to_end": {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END},
        "digest": digests[0],
        "digest_stable": len(set(digests)) == 1,
        "attempted": attempted,
        "failed": failed,
        "jobs": _job_table(jobs, untraced, verdicts[0]),
        "accuracy_vs_cost": _accuracy_table(untraced, verdicts[0]),
    }
    if traced:
        layers = {}
        for name, unit in tracing.PER_LAYER:
            if name.startswith("models."):
                value = statistics.median(s[name] for s in setup_layers)
            elif name == "trace.overhead_s":
                value = (statistics.median(p.wall for p in traced_passes)
                         - statistics.median(p.wall for p in untraced))
            else:
                value = statistics.median(p.layers[name] for p in traced_passes)
            layers[name] = {"value": value, "unit": unit}
        record["per_layer"] = layers
    record["correct"] = failed == 0 and record["digest_stable"]
    return record


def _job_seconds(untraced, j: int) -> float:
    return statistics.median(p.latencies[j] for p in untraced)


def _job_table(jobs, untraced, verdicts) -> list[dict]:
    rows = []
    for j, (job, checks) in enumerate(zip(jobs, verdicts)):
        row = {"job": job.name, "seconds": _job_seconds(untraced, j),
               "ok": not _job_failed(checks)}
        if checks is None:
            out = untraced[0].outputs[j]
            row["error"] = out.message if isinstance(out, JobError) else "unreadable output"
        else:
            row["checks"] = [
                {"method": c.method, "value": c.value, "oracle": c.oracle,
                 "error": c.error, "tol": c.tol, "ok": c.ok}
                for c in checks
            ]
        rows.append(row)
    return rows


def _accuracy_table(untraced, verdicts) -> list[dict]:
    """Per method: largest |error| against the median seconds of its jobs."""
    by_method: dict[str, dict] = {}
    for j, checks in enumerate(verdicts):
        for c in checks or ():
            row = by_method.setdefault(c.method, {"errors": [], "seconds": [],
                                                  "relative": c.relative})
            row["errors"].append(c.error / abs(c.oracle) if c.relative else c.error)
            row["seconds"].append(_job_seconds(untraced, j))
    return [
        {"method": method, "checks": len(row["errors"]),
         "max_error": max(row["errors"]),
         "error_unit": "|err|/oracle" if row["relative"] else "abs",
         "median_job_s": statistics.median(row["seconds"])}
        for method, row in by_method.items()
    ]


def print_report(record: dict, machine: dict) -> None:
    e2e = record["end_to_end"]
    print(f"workload {record['workload']}: {record['loop']}; {record['jobs_per_pass']} jobs "
          f"per pass, {record['untraced_passes']} untraced and "
          f"{record['traced_passes']} traced passes")
    print(f"machine: {json.dumps(machine)}")
    print("end-to-end (untraced passes):")
    for name, metric in e2e.items():
        note = f"  (median of {record['job_latency_samples']} jobs)" if name == "job_p50_s" else ""
        print(f"  {name:<12} {metric['value']:>12.6g} {metric['unit']}{note}")
    print(f"digest {record['digest']} ({'stable' if record['digest_stable'] else 'UNSTABLE'} "
          f"across passes)")
    print("accuracy vs cost:")
    for row in record["accuracy_vs_cost"]:
        print(f"  {row['method']:<10} checks {row['checks']:>2}  max error "
              f"{row['max_error']:.4g} ({row['error_unit']})  median job "
              f"{row['median_job_s']:.4g} s")
    print("jobs:")
    for row in record["jobs"]:
        status = "ok  " if row["ok"] else "FAIL"
        detail = row.get("error") or "; ".join(
            f"{c['method']} {c['value']:.6g} vs {c['oracle']:.6g} (tol {c['tol']:.3g})"
            for c in row["checks"]
        )
        print(f"  {status} {row['seconds']:8.3f} s  {row['job']}: {detail}")
    for name, metric in record.get("per_layer", {}).items():
        print(f"  {name:<36} {metric['value']:>12.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "voikit" / "__init__.py").is_file():
        print(f"perfbench: no voikit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import voikit

    if Path(voikit.__file__).resolve().parent != SRC / "voikit":
        print(f"perfbench: imported voikit from {voikit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, Path(tmp), env)
        record = measure(workload, args.seconds, bool(args.trace), args.smoke)
    machine = machine_record()
    record["machine"] = machine
    record["seed"] = args.seed
    record["smoke"] = args.smoke
    print_report(record, machine)
    print("report " + json.dumps(record))

    if args.trace:
        metrics = record["per_layer"]
    else:
        metrics = {name: record["end_to_end"][name] for name in GATED}
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
