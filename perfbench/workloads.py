"""The benchmark's three workloads: their inputs, jobs and oracle checks.

Each workload is a fixed list of estimation jobs that one client runs in a
closed loop, one job at a time.  Inputs come only from the workload seed;
the estimators see only the generated samples and files.  Every job output
is checked against an oracle: the linear-Gaussian closed form, the toy
model's brute-force nested Monte Carlo value (computed in set-up), or, for
cumulative-sum curves, the parameter value at which the expected decision
flips, which the linear-Gaussian model gives in closed form.

Tolerances are fixed here, before any run, at about five standard errors
of the noisiest estimator of each kind, so that a correct program passes
at any seed and a broken one does not:

* SO, SAD, GAM and GP on n rows: 12% of the oracle at n = 10^4, scaled by
  sqrt(10^4 / n) and never below 3%, plus 4 standard errors of a
  brute-force oracle.  (Measured relative standard errors: GAM 2.2% and
  GP 1.4% at 10^4, SO and SAD 0.34% at 10^5, SAD at D = 2 or 3 4.6% at
  1500 rows.)
* nested Monte Carlo: 4 combined standard errors of estimate and oracle.
  Criterion 2's rule is 3 reported standard errors at one fixed seed; at
  arbitrary benchmark seeds a 3-SE gate fails 0.27% of correct runs per
  job, so the benchmark gates at 4.
* cumulative-sum curve: the rank of the curve's minimum lies within
  4 * S^(-1/3) of the rank of the decision flip, as a share of the S rows.
  The minimiser of a noisy drift converges at the cube-root rate; over 40
  seeds per size the largest miss was 2.0 * S^(-1/3).
* simulate: the written CSV equals the in-process sample exactly.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from voikit import models, nested_mc, regression, single_param
from voikit.psa import ParamSubset

LG = models.LinearGaussianSpec()
TOY = models.NonlinearToySpec()
K = models.DEFAULT_WTP
RR = 1  # toy column "risk_reduction"
CHILD = Path(__file__).resolve().parent / "cli_child.py"
CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class Check:
    """One oracle comparison; ``relative`` marks EVPPI values, whose
    |error| / oracle enters err_max."""

    method: str
    value: float
    oracle: float
    tol: float
    relative: bool = True

    @property
    def error(self) -> float:
        return abs(self.value - self.oracle)

    @property
    def ok(self) -> bool:
        return math.isfinite(self.value) and self.error <= self.tol


@dataclass
class Job:
    name: str
    run: Callable  # (tracer or None) -> output
    check: Callable  # output -> list[Check]


@dataclass
class Workload:
    name: str
    in_process: bool
    setup: Callable  # () -> context
    jobs: Callable  # context -> list[Job]
    probe: Callable | None = None  # (tracer) -> None, before each traced pass


def _seed(seed: int, stream: int) -> int:
    return seed * 1000 + stream


def fast_tol(oracle: float, n_rows: int, oracle_se: float = 0.0) -> float:
    rel = max(0.03, 0.12 * math.sqrt(1e4 / n_rows))
    return rel * abs(oracle) + 4.0 * oracle_se


def mc_tol(se: float, oracle_se: float = 0.0) -> float:
    return 4.0 * math.hypot(se, oracle_se)


def lg_flip(spec: models.LinearGaussianSpec) -> float:
    """phi at which E[NB1 - NB0 | phi] = a + b*phi + c*mu_psi changes sign."""
    return -(spec.a + spec.c * spec.mu_psi) / spec.b


def flip_rank(column: np.ndarray, flip: float) -> int:
    return int(np.searchsorted(np.sort(column), flip))


def _curve_check(method: str, argmin: int, target: int, n_rows: int) -> Check:
    return Check(method, argmin / n_rows, target / n_rows, 4.0 * n_rows ** (-1 / 3),
                 relative=False)


def _toy_oracle(subset: ParamSubset, seed: int) -> tuple[float, float]:
    return models.brute_force_evppi(TOY, subset, K, seed=seed)


# --- in-process jobs ------------------------------------------------------


def _value_check(method, n_rows, oracle, oracle_se=0.0, bootstrapped=False):
    def check(out):
        value, se = out
        checks = [Check(method, value, oracle, fast_tol(oracle, n_rows, oracle_se))]
        if bootstrapped and not (se is not None and math.isfinite(se) and se > 0):
            checks.append(Check(f"{method} SE", math.nan, 0.0, 0.0, relative=False))
        return checks

    return check


def so_job(label, sample, p, oracle, seed, boot=None):
    def run(_tracer):
        n_bins, _ = single_param.so_choose_bins(sample, p, seed=seed)
        est = single_param.so_evppi(sample, p, n_bins)
        se = None
        if boot:
            se = regression.bootstrap_se(
                lambda s: single_param.so_evppi(s, p, n_bins), sample, boot
            )
        return est.value, se

    return Job(f"SO {label}", run,
               _value_check("SO", sample.n_sims, oracle, bootstrapped=boot is not None))


def sad_job(label, sample, p, changes, oracle, boot=None):
    def run(_tracer):
        est = single_param.sad_evppi(sample, p, changes)
        se = None
        if boot:
            se = regression.bootstrap_se(
                lambda s: single_param.sad_evppi(s, p, changes), sample, boot
            )
        return est.value, se

    return Job(f"SAD D={changes} {label}", run,
               _value_check("SAD", sample.n_sims, oracle, bootstrapped=boot is not None))


def curve_job(label, sample, p, target):
    def run(_tracer):
        curve = single_param.cumsum_curve(sample, p, 1, 0)
        return int(np.argmin(curve.values))

    return Job(f"curve {label}", run,
               lambda argmin: [_curve_check("curve", argmin, target, sample.n_sims)])


def regression_job(method, label, sample, subset, oracle, seed, boot, oracle_se=0.0):
    def run(_tracer):
        if method == "GAM":
            est = regression.gam_evppi(sample, subset, bootstrap=boot)
        else:
            est = regression.gp_evppi(sample, subset, seed=seed, bootstrap=boot)
        return est.value, est.std_error

    return Job(f"{method} {label}", run,
               _value_check(method, sample.n_sims, oracle, oracle_se, True))


def mc_job(label, model, subset, k, n_outer, n_inner, seed, oracle, oracle_se=0.0):
    def run(_tracer):
        est = nested_mc.nested_mc_evppi(model, subset, k, n_outer, n_inner, seed=seed)
        return est.value, est.std_error

    def check(out):
        value, se = out
        return [Check("MC", value, oracle, mc_tol(se, oracle_se))]

    return Job(f"MC {label}", run, check)


# --- single-param ------------------------------------------------------


def single_param_workload(seed: int, smoke: bool, workdir: Path, env: dict) -> Workload:
    """SO, SAD and the curve on linear-Gaussian samples at S = 3*10^5 and
    10^5, SAD at D = 2, 3 on a small sample (O(S^2) today), and
    cheap-estimator bootstraps at 10^5.  Every oracle is closed-form, so
    set-up is sample generation only."""
    if smoke:
        n_big, n, n_dp, n_boot = 20_000, 5_000, 300, 3
    else:
        n_big, n, n_dp, n_boot = 300_000, 100_000, 1_500, 8
    phi_oracle = models.linear_gaussian_oracle(LG, "phi")

    def setup():
        lg_big = models.generate_psa(LG, n_big, seed=_seed(seed, 1))
        lg = models.generate_psa(LG, n, seed=_seed(seed, 2))
        return {
            "lg_big": lg_big, "lg": lg,
            "lg_dp": models.generate_psa(LG, n_dp, seed=_seed(seed, 3)),
            "lg_big_flip": flip_rank(lg_big.param_column(0), lg_flip(LG)),
            "lg_flip": flip_rank(lg.param_column(0), lg_flip(LG)),
        }

    def jobs(ctx):
        lg_big, lg, lg_dp = ctx["lg_big"], ctx["lg"], ctx["lg_dp"]
        boot = regression.BootstrapConfig(n_replicates=n_boot, seed=_seed(seed, 4))
        s = _seed(seed, 5)
        return [
            so_job(f"lg S={n_big} phi", lg_big, 0, phi_oracle, s),
            sad_job(f"lg S={n_big} phi", lg_big, 0, 1, phi_oracle),
            curve_job(f"lg S={n_big} phi", lg_big, 0, ctx["lg_big_flip"]),
            so_job(f"lg S={n} phi", lg, 0, phi_oracle, s),
            sad_job(f"lg S={n} phi", lg, 0, 1, phi_oracle),
            curve_job(f"lg S={n} phi", lg, 0, ctx["lg_flip"]),
            so_job(f"lg S={n} phi +{n_boot} boot", lg, 0, phi_oracle, s, boot=boot),
            sad_job(f"lg S={n} phi +{n_boot} boot", lg, 0, 1, phi_oracle, boot=boot),
            sad_job(f"lg S={n_dp} phi", lg_dp, 0, 2, phi_oracle),
            sad_job(f"lg S={n_dp} phi", lg_dp, 0, 3, phi_oracle),
        ]

    return Workload("single-param", True, setup, jobs)


# --- regression-bootstrap ------------------------------------------------


def regression_workload(seed: int, smoke: bool, workdir: Path, env: dict) -> Workload:
    """GAM and GP with bootstrap SEs on 1-d and 2-d subsets, and nested MC on
    the same subsets.  The linear-Gaussian sample gives the 1-d and 2-d
    closed forms; the toy sample's 2-d subset needs one brute-force oracle,
    the largest set-up this workload can afford.  GP runs on the 2-d
    linear-Gaussian subset only: a toy GP searches hyperparameters for both
    treatment columns and alone would take longer than the rest of a pass."""
    if smoke:
        n, n_boot, lg_mc, toy_mc = 1_500, 2, (300, 100), (200, 100)
    else:
        n, n_boot, lg_mc, toy_mc = 10_000, 4, (2_000, 2_000), (1_000, 1_000)
    lg_phi, lg_psi, lg_2d = ParamSubset.of(0), ParamSubset.of(1), ParamSubset.of(0, 1)
    toy_2d = ParamSubset.of(0, RR)
    phi_oracle = models.linear_gaussian_oracle(LG, "phi")
    psi_oracle = models.linear_gaussian_oracle(LG, "psi")
    both_oracle = models.linear_gaussian_oracle(LG, "both")

    def setup():
        return {
            "lg": models.generate_psa(LG, n, seed=_seed(seed, 1)),
            "toy": models.generate_psa(TOY, n, seed=_seed(seed, 2), k=K),
            "toy_2d": _toy_oracle(toy_2d, _seed(seed, 3)),
        }

    def jobs(ctx):
        lg, toy = ctx["lg"], ctx["toy"]
        t2, t2_se = ctx["toy_2d"]
        boot = regression.BootstrapConfig(n_replicates=n_boot, seed=_seed(seed, 4))
        s = _seed(seed, 5)
        lg_model, toy_model = models.LinearGaussianModel(LG), models.NonlinearToyModel(TOY)
        tag = f"+{n_boot} boot"
        lg_mc_tag, toy_mc_tag = "x".join(map(str, lg_mc)), "x".join(map(str, toy_mc))
        # Two short jobs, three nested-MC jobs of similar length, three long
        # ones: the median job latency falls inside the MC cluster instead of
        # on one job at the edge of a gap.
        return [
            regression_job("GAM", f"lg phi {tag}", lg, lg_phi, phi_oracle, s, boot),
            regression_job("GAM", f"lg psi {tag}", lg, lg_psi, psi_oracle, s, boot),
            regression_job("GAM", f"lg phi,psi {tag}", lg, lg_2d, both_oracle, s, boot),
            regression_job("GAM", f"toy p_inf,rr {tag}", toy, toy_2d, t2, s, boot, t2_se),
            regression_job("GP", f"lg phi,psi {tag}", lg, lg_2d, both_oracle, s, boot),
            mc_job(f"lg phi {lg_mc_tag}", lg_model, lg_phi, 0.0, *lg_mc, s, phi_oracle),
            mc_job(f"lg phi,psi {lg_mc_tag}", lg_model, lg_2d, 0.0, *lg_mc, s,
                   both_oracle),
            mc_job(f"toy p_inf,rr {toy_mc_tag}", toy_model, toy_2d, K, *toy_mc, s,
                   t2, t2_se),
        ]

    return Workload("regression-bootstrap", True, setup, jobs)


# --- cli-session ---------------------------------------------------------


def _run_cli(argv, workdir: Path, env: dict, tracer):
    """One cold CLI process; returns (exit code, stdout bytes)."""
    if tracer is None:
        cmd = [sys.executable, "-m", "voikit.cli", *argv]
    else:
        dump = workdir / "spans.json"
        cmd = [sys.executable, str(CHILD), str(dump), *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True,
                          timeout=CLI_TIMEOUT_S)
    if tracer is not None:
        tracer.count(f"cli.{argv[0]}_s", time.perf_counter() - t0)
        if dump.exists():
            tracer.merge(json.loads(dump.read_text()))
            dump.unlink()
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    return proc.returncode, proc.stdout


def _cli_job(name, argv, workdir, env, check):
    def checked(out):
        code, stdout = out
        if code != 0:
            return [Check("exit code", float(code), 0.0, 0.0, relative=False)]
        return check(stdout)

    return Job(name, lambda tracer: _run_cli(argv, workdir, env, tracer), checked)


def _file_check(path: Path, sample):
    """Largest difference between a written CSV and the in-process sample."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    blocks = [sample.params]
    blocks += [sample.effects, sample.costs] if sample.effects is not None else [sample.nb]
    expected = np.hstack(blocks)
    if table.shape != expected.shape:
        return math.inf
    return float(np.max(np.abs(table - expected)))


def cli_workload(seed: int, smoke: bool, workdir: Path, env: dict) -> Workload:
    """One analyst's session of cold ``python -m voikit.cli`` processes."""
    if smoke:
        n_toy, n_lg, n_boot, mc = 2_000, 5_000, 2, (100, 50)
    else:
        n_toy, n_lg, n_boot, mc = 20_000, 50_000, 2, (500, 300)
    toy_seed, lg_seed, s = _seed(seed, 1), _seed(seed, 2), _seed(seed, 3)
    threads = len(os.sched_getaffinity(0))
    phi_oracle = models.linear_gaussian_oracle(LG, "phi")

    def probe(tracer):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                       timeout=CLI_TIMEOUT_S)
        tracer.sample("cli.interpreter_s", time.perf_counter() - t0)

    def setup():
        lg = models.generate_psa(LG, n_lg, seed=lg_seed)
        return {
            "lg": lg,
            "toy": models.generate_psa(TOY, n_toy, seed=toy_seed, k=K),
            "toy_oracle": _toy_oracle(ParamSubset.of(RR), _seed(seed, 4)),
            "lg_flip": flip_rank(lg.param_column(0), lg_flip(LG)),
        }

    def jobs(ctx):
        toy_value, toy_se = ctx["toy_oracle"]

        def simulate_check(name, sample):
            return lambda _stdout: [
                Check("simulate", _file_check(workdir / name, sample), 0.0, 0.0,
                      relative=False)
            ]

        def evppi_check(method, n_rows, oracle, oracle_se=0.0):
            def check(stdout):
                value = json.loads(stdout)["value"]
                return [Check(method, value, oracle, fast_tol(oracle, n_rows, oracle_se))]

            return check

        def vistool_check(stdout):
            curve = np.loadtxt(io.BytesIO(stdout), delimiter=",", skiprows=1, ndmin=2)
            argmin = int(np.argmin(curve[:, 1]))
            return [_curve_check("curve", argmin, ctx["lg_flip"], n_lg)]

        def sweep_check(stdout):
            payload = json.loads(stdout)
            at = payload["k_grid"].index(K)
            value = payload["evppi"]["risk_reduction"][at]
            return [Check("GAM", value, toy_value, fast_tol(toy_value, n_toy, toy_se))]

        def compare_check(stdout):
            cells = json.loads(stdout)["rows"][0]["cells"]
            checks = []
            for method, cell in cells.items():
                if "error" in cell:
                    checks.append(Check(method, math.nan, toy_value, 0.0))
                elif method == "MC":
                    tol = mc_tol(cell["std_error"], toy_se)
                    checks.append(Check("MC", cell["value"], toy_value, tol))
                else:
                    tol = fast_tol(toy_value, n_toy, toy_se)
                    checks.append(Check(method, cell["value"], toy_value, tol))
            return checks

        toy_file = ["--file", "toy.csv", "--params", "risk_reduction"]
        lg_file = ["--file", "lg.csv", "--params", "phi"]
        seeded = ["--seed", str(s)]
        return [
            _cli_job(f"simulate toy S={n_toy}",
                     ["simulate", "--model", "toy", "--sims", str(n_toy),
                      "--seed", str(toy_seed), "--out", "toy.csv"],
                     workdir, env, simulate_check("toy.csv", ctx["toy"])),
            _cli_job(f"simulate lg S={n_lg}",
                     ["simulate", "--model", "linear-gaussian", "--sims", str(n_lg),
                      "--seed", str(lg_seed), "--out", "lg.csv"],
                     workdir, env, simulate_check("lg.csv", ctx["lg"])),
            _cli_job("vistool lg phi",
                     ["vistool", "--file", "lg.csv", "--param", "phi"],
                     workdir, env, vistool_check),
            _cli_job("evppi so lg phi", ["evppi", "--method", "so", *lg_file, *seeded],
                     workdir, env, evppi_check("SO", n_lg, phi_oracle)),
            _cli_job("evppi sad lg phi",
                     ["evppi", "--method", "sad", "--changes", "1", *lg_file],
                     workdir, env, evppi_check("SAD", n_lg, phi_oracle)),
            _cli_job("evppi gam toy rr", ["evppi", "--method", "gam", *toy_file],
                     workdir, env, evppi_check("GAM", n_toy, toy_value, toy_se)),
            _cli_job("evppi gp lg phi", ["evppi", "--method", "gp", *lg_file, *seeded],
                     workdir, env, evppi_check("GP", n_lg, phi_oracle)),
            _cli_job("sweep gam toy rr",
                     ["sweep", "--method", "gam", *toy_file,
                      "--k-grid", "10000:30000:5000"],
                     workdir, env, sweep_check),
            _cli_job(f"compare toy rr +{n_boot} boot",
                     ["compare", *toy_file, "--model", "toy", "--changes", "1",
                      "--bootstrap", str(n_boot), "--threads", str(threads),
                      "--mc-outer", str(mc[0]), "--mc-inner", str(mc[1]),
                      "--format", "json", *seeded],
                     workdir, env, compare_check),
        ]

    return Workload("cli-session", False, setup, jobs, probe)


WORKLOADS = {
    "single-param": single_param_workload,
    "regression-bootstrap": regression_workload,
    "cli-session": cli_workload,
}
