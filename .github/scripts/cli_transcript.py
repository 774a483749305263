"""Run a fixed list of CLI commands and print a transcript of their effects.

For each command the transcript gives the exit code and the sha256 (first
16 hex digits) of its stdout, its stderr and every file it wrote or
changed, so two source trees can be compared by diffing their
transcripts.  The commands run in order, in one temporary directory, each
in a fresh ``python -m voikit.cli`` process; the later ones read the
samples the first ones wrote.  Paths are relative to that directory, so
no message names it.

Run from the repository root with ``PYTHONPATH=src``; to compare against
another tree, point ``PYTHONPATH`` at its ``src``.  Exits 1 when a
command's exit code is not the one listed here.
"""

import csv
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

LG = ["--file", "lg.csv"]
TOY = ["--file", "toy.csv"]

# (expected exit code, arguments)
COMMANDS = [
    (0, ["--help"]),
    (0, ["evppi", "--help"]),
    (0, ["simulate", "--model", "linear-gaussian", "--sims", "2000", "--seed", "1",
         "--out", "lg.csv"]),
    (0, ["simulate", "--model", "toy", "--sims", "2000", "--seed", "3", "--out", "toy.csv"]),
    (0, ["vistool", *LG, "--param", "phi"]),
    (0, ["vistool", *TOY, "--param", "risk_reduction", "--out", "curve.csv"]),
    # every estimator, with and without a bootstrap standard error
    (0, ["evppi", *LG, "--method", "so", "--params", "phi"]),
    (0, ["evppi", *LG, "--method", "so", "--params", "phi", "--bootstrap", "5",
         "--threads", "2"]),
    (0, ["evppi", *LG, "--method", "so", "--params", "phi", "--bins", "40"]),
    (0, ["evppi", *LG, "--method", "so", "--params", "phi",
         "--bias-threshold-relative", "0.01", "--seed", "5"]),
    (0, ["evppi", *LG, "--method", "sad", "--params", "phi", "--changes", "1"]),
    (0, ["evppi", *LG, "--method", "sad", "--params", "phi", "--changes", "phi=0",
         "--bootstrap", "5"]),
    (0, ["evppi", *TOY, "--method", "gam", "--params", "risk_reduction,p_infection"]),
    (0, ["evppi", *TOY, "--method", "gam", "--params", "risk_reduction",
         "--interactions", "none", "--bootstrap", "5"]),
    (0, ["evppi", *LG, "--method", "gp", "--params", "phi", "--seed", "3"]),
    (0, ["evppi", *LG, "--method", "gp", "--params", "phi,psi", "--bootstrap", "5"]),
    # the method rules, each refused
    (1, ["evppi", *LG, "--method", "sad", "--params", "phi"]),
    (1, ["evppi", *LG, "--method", "so", "--params", "phi,psi"]),
    (1, ["evppi", *LG, "--method", "sad", "--params", "phi,psi", "--changes", "1"]),
    (1, ["evppi", *LG, "--method", "sad", "--params", "phi", "--changes", "psi=1"]),
    (1, ["evppi", *LG, "--method", "sad", "--params", "nope", "--changes", "psi=1"]),
    (1, ["compare", *LG, "--params", "phi", "--changes", "-1", "--bootstrap", "0"]),
    (1, ["sweep", *TOY, "--method", "sad", "--params", "risk_reduction;p_infection",
         "--changes", "risk_reduction=1", "--k-list", "0,20000"]),
    (1, ["evppi", "--file", "dominated.csv", "--method", "so", "--params", "phi",
         "--bias-threshold-relative", "0.1"]),
    # a constant column whose SD rounds to 2.8e-17, not 0, refused by both
    # regressions
    (1, ["evppi", "--file", "constant.csv", "--method", "gam", "--params", "x"]),
    (1, ["evppi", "--file", "constant.csv", "--method", "gp", "--params", "x"]),
    # compare: table, JSON, the nested-MC column and a failing estimator
    (0, ["compare", *TOY, "--params", "risk_reduction;risk_reduction,p_infection",
         "--bootstrap", "5"]),
    (0, ["compare", *TOY, "--params", "risk_reduction;p_infection", "--changes",
         "risk_reduction=1", "--bootstrap", "0", "--format", "json"]),
    (0, ["compare", *LG, "--params", "phi", "--changes", "1", "--model",
         "linear-gaussian", "--mc-outer", "50", "--mc-inner", "50", "--bootstrap", "0",
         "--decimals", "1"]),
    (0, ["compare", *LG, "--params", "phi", "--bins", "5000", "--bootstrap", "0"]),
    (0, ["compare", "--file", "dominated.csv", "--params", "phi", "--changes", "1",
         "--bias-threshold-relative", "0.1", "--bootstrap", "0", "--format", "json"]),
    # sweeps from a file and from a model
    (0, ["sweep", *TOY, "--method", "so", "--params", "risk_reduction",
         "--k-list", "0,20000,40000"]),
    (0, ["sweep", "--model", "toy", "--sims", "1000", "--method", "sad",
         "--params", "risk_reduction;p_infection", "--changes", "1",
         "--k-grid", "0:40000:20000"]),
    (0, ["sweep", "--model", "toy", "--sims", "1000", "--params", "risk_reduction",
         "--k-list", "10000,30000"]),
    # a zero-EVPI grid point under the relative cap reads 0
    (0, ["sweep", "--file", "dominated_ec.csv", "--method", "so", "--params", "phi",
         "--bias-threshold-relative", "0.1", "--k-list", "0,20000"]),
]


def write_inputs(workdir: Path) -> None:
    """Two arms where arm 1 is best in every row (``dominated.csv``, EVPI 0
    at any k), an effect/cost file whose arm 1 costs more in every row
    (``dominated_ec.csv``, EVPI 0 at k = 0 only), and 19 rows whose
    parameter x is 0.2 in every row (``constant.csv``)."""
    with open(workdir / "dominated.csv", "w", newline="", encoding="utf-8") as f:
        out = csv.writer(f)
        out.writerow(["param:phi", "nb:0", "nb:1"])
        for i in range(200):
            x = (i * 37 % 200) / 10.0
            out.writerow([x, x - 1.0, x])
    with open(workdir / "dominated_ec.csv", "w", newline="", encoding="utf-8") as f:
        out = csv.writer(f)
        out.writerow(["param:phi", "effect:0", "cost:0", "effect:1", "cost:1"])
        for i in range(200):
            x = (i * 37 % 200) / 100.0
            out.writerow([x, 1.0, 100.0, 0.5 + x, 200.0 + x])
    with open(workdir / "constant.csv", "w", newline="", encoding="utf-8") as f:
        out = csv.writer(f)
        out.writerow(["param:x", "param:phi", "nb:0", "nb:1"])
        for i in range(19):
            phi = (i * 7 % 19) / 10.0
            out.writerow([0.2, phi, phi - 1.0, 0.5 * phi])


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def snapshot(workdir: Path) -> dict[str, str]:
    return {p.name: digest(p.read_bytes()) for p in sorted(workdir.iterdir()) if p.is_file()}


def main() -> int:
    mismatches = 0
    # the commands run in another directory, so a relative entry such as
    # PYTHONPATH=src must be resolved here
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        os.path.abspath(entry) for entry in env.get("PYTHONPATH", "").split(os.pathsep) if entry
    )
    env["COLUMNS"] = "80"  # argparse wraps --help to this width
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        write_inputs(workdir)
        for expected, argv in COMMANDS:
            before = snapshot(workdir)
            run = subprocess.run(
                [sys.executable, "-m", "voikit.cli", *argv],
                cwd=workdir, capture_output=True, env=env,
            )
            after = snapshot(workdir)
            written = [f"{name}={h}" for name, h in after.items() if before.get(name) != h]
            flag = "" if run.returncode == expected else f" (expected {expected})"
            mismatches += bool(flag)
            print(" ".join(["voikit", *argv]))
            print(f"  exit={run.returncode}{flag} stdout={digest(run.stdout)} "
                  f"stderr={digest(run.stderr)} files=[{' '.join(written)}]")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
