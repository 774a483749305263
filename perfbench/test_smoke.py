"""Smoke test of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench``.  Each
workload runs once untraced and once traced at the same seed; the test
checks that every metric named in BENCHMARK.json is emitted, that every
job ran its oracle check and passed it, that both runs give the same
determinism digest, and that each workload exercises the layers it was
built for and bypasses the others.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, GATED  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# per-layer counters that must be nonzero (exercised) or zero (bypassed)
EXERCISED = {
    "single-param": ["single_param.so_bias.calls", "single_param.order_by_param.calls",
                     "psa.take.calls", "regression.bootstrap.replicates"],
    "regression-bootstrap": ["gam.fit.calls", "gp.search_fit.calls", "gp.fixed_fit.calls",
                             "regression.fit_regression.calls", "nested_mc.outer_draws",
                             "models.brute_force_evppi_s"],
    "cli-session": ["io.read.calls", "io.write.calls", "psa.at_wtp.calls", "gam.fit.calls",
                    "nested_mc.outer_draws", "cli.import_s", "cli.interpreter_s",
                    "models.brute_force_evppi_s"],
}
BYPASSED = {
    "single-param": ["gam.fit.calls", "gp.search_fit.calls", "io.read.calls",
                     "nested_mc.outer_draws", "cli.import_s", "models.brute_force_evppi_s"],
    "regression-bootstrap": ["single_param.order_by_param.calls", "io.read.calls",
                             "cli.import_s"],
    "cli-session": [],
}


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def test_benchmark_json_matches_the_emitted_names():
    assert WORKLOADS == list(EXERCISED)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == [
        (name, unit) for name, unit in END_TO_END if name in GATED
    ]
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(PER_LAYER)


def _smoke(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(next(line for line in lines if line.startswith("report "))[7:])

    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == report["jobs_per_pass"] * (
        report["untraced_passes"] + report["traced_passes"])
    expected = PER_LAYER if trace == "1" else [m for m in END_TO_END if m[0] in GATED]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    assert {k: v["unit"] for k, v in report["end_to_end"].items()} == dict(END_TO_END)
    assert report["digest_stable"]
    for row in report["jobs"]:
        assert row["checks"] and all(check["ok"] for check in row["checks"]), row
    return result, report


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(workload):
    _, untraced = _smoke(workload, "0")
    result, traced = _smoke(workload, "1")
    # same seed, same code: same estimates, with or without the wrappers
    assert traced["digest"] == untraced["digest"]
    metrics = result["metrics"]
    for name in EXERCISED[workload]:
        assert metrics[name]["value"] > 0, name
    for name in BYPASSED[workload]:
        assert metrics[name]["value"] == 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
