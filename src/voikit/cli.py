"""Command-line front end: flags and input files in, JSON and tables out.
Each estimate is one call of voikit.regression.estimate, which holds the
methods' rules; the CLI adds comparison tables, sweeps, the cumulative-sum
visual-tool data, and synthetic-sample generation.

Exit codes: 0 success, 1 usage, input-parsing or file-access error, 2
estimation failure.  JSON outputs carry full-precision values; the
human-readable comparison table rounds to 2 decimals (1 on request)
because the estimators only approximate the target to begin with.

A process that imports this module before numpy starts OpenBLAS at one
thread unless the caller set ``OPENBLAS_NUM_THREADS``.  Every fit runs
OpenBLAS at one thread anyway (:mod:`voikit._blas`); a worker pool that
no fit uses slows each cold process's start, and its idle workers spin on
the CPUs.  OpenBLAS reads the variable once, when it loads, so a process
that loaded numpy first keeps its pool, and its environment is left as it
was.
"""

from __future__ import annotations

import os
import sys

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import math
from pathlib import Path

import numpy as np

from .io import read_psa_csv, write_psa_csv, write_provenance
from .models import (
    DEFAULT_WTP,
    LinearGaussianSpec,
    NonlinearToySpec,
    generate_psa,
    model_for,
    spec_from_dict,
    spec_to_dict,
)
from .nested_mc import nested_mc_evppi
from .psa import METHOD_TAGS, EstimationError, ParamSubset, PsaSample, evpi
from .regression import MethodRuleError, check_method, estimate
from .single_param import cumsum_curve


class _UsageError(Exception):
    """Bad flags or bad input files; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit_json(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _warn(notes: list[str]) -> None:
    for note in notes:
        print(f"voikit: warning: {note}", file=sys.stderr)


def _wtp(args) -> float:
    """``--k``, or the default willingness to pay when it was not given."""
    return DEFAULT_WTP if args.k is None else args.k


def _provenance_path(path) -> Path:
    path = Path(path)
    return path.with_suffix(path.suffix + ".provenance.json")


def _sample_k(path: str, sample: PsaSample, args, notes: list[str]) -> float | None:
    """The willingness to pay the sample's net benefit was built at.

    Effect/cost files are priced at ``--k``.  An nb-only file was priced
    when it was made: its k comes from the provenance sidecar, or is
    unknown (None) without one.  An explicit ``--k`` that differs from that
    k cannot apply, which adds a note rather than an error.
    """
    if sample.effects is not None:
        return sample.k
    k = None
    sidecar = _provenance_path(path)
    if sidecar.exists():
        try:
            k = float(json.loads(sidecar.read_text(encoding="utf-8"))["k"])
        except (OSError, ValueError, TypeError, KeyError) as exc:
            notes.append(f"cannot read k from {sidecar}: {exc!r}")
    if args.k is not None and args.k != k:
        built = "an unknown k" if k is None else f"k={k:g}"
        notes.append(
            f"--k {args.k:g} does not apply: {path} holds net benefit only, "
            f"built at {built}"
        )
    return k


def _load_spec(token: str):
    if token == "linear-gaussian":
        return LinearGaussianSpec()
    if token == "toy":
        return NonlinearToySpec()
    path = Path(token)
    if not path.exists():
        raise _UsageError(
            f"unknown model {token!r}: expected 'linear-gaussian', 'toy' or a JSON file"
        )
    try:
        return spec_from_dict(json.loads(path.read_text(encoding="utf-8")))
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise _UsageError(f"cannot parse model spec {token}: {exc}") from exc


def _parse_changes(raw: str | None) -> int | dict[str, int] | None:
    """--changes as :func:`~voikit.regression.estimate` takes it: None, one
    count for every parameter, or name=count pairs, each name once.  Counts
    are at least 0; the names wait for the sample (:func:`_check_pair_names`).
    """
    def count(text: str, malformed: str) -> int:
        try:
            d = int(text)
        except ValueError:
            raise _UsageError(malformed) from None
        if d < 0:
            raise _UsageError(f"--changes counts must be at least 0, got {d}")
        return d

    if raw is None:
        return None
    raw = raw.strip()
    if "=" not in raw:
        return count(raw, f"--changes expects an integer or name=int pairs, got {raw!r}")
    out = {}
    for item in raw.split(","):
        name, _, val = item.partition("=")
        name = name.strip()
        if name in out:
            raise _UsageError(f"--changes gives {name!r} twice")
        out[name] = count(val, f"bad --changes entry {item!r}")
    return out


def _check_pair_names(changes, param_names) -> None:
    """Refuse a --changes pair whose name is not one of the sample's parameters."""
    for name in changes if isinstance(changes, dict) else ():
        if name not in param_names:
            raise _UsageError(
                f"--changes names {name!r}, which is not one of the sample's parameters; "
                f"available: {list(param_names)}"
            )


def _subsets(args) -> list[list[str]]:
    """The parameter subsets of ``--params``: one for ``evppi``, one per
    ``;``-separated chunk for ``compare`` and ``sweep``; none may be empty."""
    chunks = [args.params] if args.command == "evppi" else args.params.split(";")
    subsets = [[n.strip() for n in chunk.split(",") if n.strip()] for chunk in chunks]
    if not all(subsets):
        raise _UsageError("no parameter names given")
    return subsets


def _estimate(sample: PsaSample, names: list[str], method: str, args):
    """The library's estimate with the flags in ``args``."""
    return estimate(
        sample, names, method,
        bins=args.bins,
        bias_threshold=args.bias_threshold,
        bias_threshold_relative=args.bias_threshold_relative,
        changes=args.changes,
        interactions=args.interactions,
        bootstrap=args.bootstrap,
        seed=args.seed,
        threads=args.threads,
    )


def cmd_evppi(args) -> int:
    [names] = args.subsets
    sample = read_psa_csv(args.file, k=_wtp(args))
    _check_pair_names(args.changes, sample.param_names)
    result = _estimate(sample, names, args.method, args)
    notes: list[str] = []
    if result.method == "SAD" and result.diagnostics["changes"] == 0:
        notes.append("parameter declared non-influential: estimate is 0")
    payload = {
        "subset": names,
        "k": _sample_k(args.file, sample, args, notes),
        **result.to_dict(),
    }
    if notes:
        payload["warnings"] = notes
    _emit_json(payload)
    return 0


def _compare_cell(sample, method, names, args, model):
    """One cell of the comparison.  A method that does not apply or fails
    raises.  The MC column is listed only with a model spec (``model``)."""
    if method == "MC":
        gen = model_for(model)
        subset = ParamSubset.from_names(names, gen.param_names)
        est = nested_mc_evppi(
            gen, subset, k=_wtp(args),
            n_outer=args.mc_outer, n_inner=args.mc_inner, seed=args.seed,
        )
        return est.to_dict()
    return _estimate(sample, names, method, args).to_dict()


def _format_cell(cell: dict, decimals: int) -> str:
    if "error" in cell:
        return "-"
    value = round(cell["value"], decimals)
    if cell.get("std_error") is not None:
        return f"{value:.{decimals}f} ({round(cell['std_error'], decimals):.{decimals}f})"
    return f"{value:.{decimals}f}"


def cmd_compare(args) -> int:
    model = _load_spec(args.model) if args.model else None
    sample = read_psa_csv(args.file, k=_wtp(args))
    notes: list[str] = []
    k = _sample_k(args.file, sample, args, notes)
    if model is not None and args.k is not None and args.k != k:
        notes.append(f"the nested-MC column uses --k {args.k:g}")
    for names in args.subsets:
        ParamSubset.from_names(names, sample.param_names)  # fail fast on unknown names
    _check_pair_names(args.changes, sample.param_names)

    methods = [m for m in METHOD_TAGS if model is not None or m != "MC"]
    rows = []
    failures: list[str] = []  # why a cell is "-" in the table
    for names in args.subsets:
        cells = {}
        for m in methods:
            try:
                cells[m] = _compare_cell(sample, m, names, args, model)
            except (ValueError, EstimationError) as exc:
                reason = getattr(exc, "cell", None)  # the method does not apply
                if reason is None:
                    reason = str(exc)
                    failures.append(f"{m} on {','.join(names)}: {exc}")
                cells[m] = {"error": reason}
        rows.append({"subset": names, "cells": cells})

    report = {
        "k": k,
        "n_sims": sample.n_sims,
        "seed": args.seed,
        "bootstrap": args.bootstrap,
        "methods": methods,
        "rows": rows,
    }
    if args.format == "json":
        if notes:
            report["warnings"] = notes
        _emit_json(report)
        return 0
    _warn(notes + failures)

    label_width = max(len(",".join(r["subset"])) for r in rows) + 2
    header = "parameter".ljust(label_width) + "".join(m.rjust(16) for m in methods)
    print(header)
    for row in rows:
        line = ",".join(row["subset"]).ljust(label_width)
        line += "".join(
            _format_cell(row["cells"][m], args.decimals).rjust(16) for m in methods
        )
        print(line)
    return 0


def _k_grid(args) -> np.ndarray:
    if args.k_list is not None:
        try:
            grid = np.array([float(x) for x in args.k_list.split(",")])
        except ValueError:
            raise _UsageError(f"--k-list expects comma-separated numbers, got {args.k_list!r}")
    else:
        try:
            lo, hi, step = (float(x) for x in args.k_grid.split(":"))
        except ValueError:
            raise _UsageError("--k-grid expects min:max:step")
        if step <= 0 or hi < lo:
            raise _UsageError("--k-grid expects min <= max and step > 0")
        # empty when half a step rounds away next to hi, as in 1e16:1e16:1
        grid = np.arange(lo, hi + 0.5 * step, step)
    if grid.size < 1 or np.any(~np.isfinite(grid)) or np.any(np.diff(grid) <= 0):
        raise _UsageError("willingness-to-pay grid must be finite and strictly increasing")
    if np.any(grid < 0):
        raise _UsageError("willingness-to-pay values must be >= 0")
    return grid


def cmd_sweep(args) -> int:
    spec = _load_spec(args.model) if args.model else None
    grid = _k_grid(args)
    if spec is not None:
        sims = 10_000 if args.sims is None else args.sims
        sample = generate_psa(spec, sims, seed=args.seed, k=_wtp(args))
    else:
        sample = read_psa_csv(args.file, k=_wtp(args))
    if sample.effects is None:
        if args.model:
            raise _UsageError(
                f"model {args.model} defines net benefit directly in currency, so "
                "there is no willingness to pay to sweep"
            )
        raise _UsageError(
            "sweep needs the effect/cost decomposition: an nb-only input fixes k, "
            "so net benefit cannot be rebuilt across the grid"
        )
    _check_pair_names(args.changes, sample.param_names)
    for names in args.subsets:
        check_method(args.method, names, args.changes, sample)

    evpi_curve = []
    evppi_curves: dict[str, list[float]] = {",".join(n): [] for n in args.subsets}
    for k in grid:
        at_k = sample.at_wtp(float(k))
        evpi_curve.append(evpi(at_k.nb))
        for names in args.subsets:
            try:
                value = _estimate(at_k, names, args.method, args).value
            except MethodRuleError:
                # past the check above, the one rule left to break is SO's
                # relative cap, undefined where the EVPI is 0.  Every SO bin
                # count gives exactly 0 there: one arm is best in every row,
                # and no bin's best mean exceeds its mean of that arm
                if evpi_curve[-1] != 0:
                    raise
                value = 0.0
            evppi_curves[",".join(names)].append(value)

    payload = {
        "k_grid": grid.tolist(),
        "method": args.method,
        "evpi": evpi_curve,
        "evppi": evppi_curves,
    }
    if args.model:
        mean_e = sample.effects.mean(axis=0)
        mean_c = sample.costs.mean(axis=0)
        delta_e = mean_e[1] - mean_e[0]
        payload["k_star"] = float((mean_c[1] - mean_c[0]) / delta_e) if delta_e != 0 else None
    _emit_json(payload)
    return 0


def cmd_vistool(args) -> int:
    sample = read_psa_csv(args.file, k=_wtp(args))
    notes: list[str] = []
    _sample_k(args.file, sample, args, notes)
    _warn(notes)  # stdout carries only the curve
    p = sample.param_index(args.param)
    t, t_prime = args.treatments
    curve = cumsum_curve(sample, p, t, t_prime)
    points = np.column_stack([curve.phi, curve.values]).ravel().tolist()
    text = "phi,cumsum\n" + "%r,%r\n" * len(curve.phi) % tuple(points)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_simulate(args) -> int:
    spec = _load_spec(args.model)
    sample = generate_psa(spec, args.sims, seed=args.seed, k=float(args.k))
    write_psa_csv(args.out, sample)
    write_provenance(
        _provenance_path(args.out),
        {"spec": spec_to_dict(spec), "n_sims": args.sims, "seed": args.seed, "k": args.k},
    )
    return 0


def _add_k(p):
    p.add_argument("--k", type=float, default=None,
                   help="willingness to pay (default 20000); nb-only files "
                        "keep the k they were built at")


def _add_common(p):
    _add_k(p)
    p.add_argument("--seed", type=int, default=0)
    bins = p.add_mutually_exclusive_group()
    bins.add_argument("--bins", type=int, default=None,
                      help="bin count for the bin-averaging method (default: bias-guided)")
    bins.add_argument("--bias-threshold", type=float, default=None,
                      help="upward-bias cap, in currency units, for automatic bin choice")
    bins.add_argument("--bias-threshold-relative", type=float, default=None,
                      help="bias cap as a fraction of EVPI")
    p.add_argument("--changes", default=None,
                   help="decision changes for the segmentation method: a count, "
                        "or name=count pairs")
    p.add_argument("--interactions", choices=("auto", "none", "pairwise"),
                   default="auto", help="spline interaction structure")


def _add_bootstrap(p, default):
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for bootstrap replicates, the only "
                        "parallelism (fits run OpenBLAS at one thread); results "
                        "are identical at any setting")
    p.add_argument("--bootstrap", type=int, default=default,
                   help="bootstrap replicates for standard errors (0 = skip)")


def build_parser() -> _Parser:
    parser = _Parser(prog="voikit", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evppi", help="estimate EVPPI for one parameter subset")
    p.add_argument("--file", required=True, help="PSA CSV file")
    p.add_argument("--method", required=True, choices=("so", "sad", "gam", "gp"))
    p.add_argument("--params", required=True,
                   help="comma-separated parameter names (single name for so/sad)")
    _add_common(p)
    _add_bootstrap(p, default=0)
    p.set_defaults(func=cmd_evppi)

    p = sub.add_parser("compare", help="run all applicable methods side by side")
    p.add_argument("--file", required=True)
    p.add_argument("--params", required=True,
                   help="semicolon-separated subsets, each a comma-separated name list")
    p.add_argument("--model", default=None,
                   help="model spec (name or JSON path); enables the nested-MC column")
    p.add_argument("--mc-outer", type=int, default=1000)
    p.add_argument("--mc-inner", type=int, default=1000)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--decimals", type=int, choices=(1, 2), default=2)
    _add_common(p)
    _add_bootstrap(p, default=200)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="EVPI/EVPPI across willingness-to-pay values")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--file")
    group.add_argument("--model")
    p.add_argument("--params", required=True)
    p.add_argument("--method", choices=("so", "sad", "gam", "gp"), default="gam")
    grid = p.add_mutually_exclusive_group()
    grid.add_argument("--k-grid", default="0:50000:2500", help="min:max:step")
    grid.add_argument("--k-list", default=None, help="explicit comma-separated grid")
    p.add_argument("--sims", type=int, default=None,
                   help="simulations when generating from a model spec (default 10000)")
    _add_common(p)
    # one estimate per grid point, without standard errors
    p.set_defaults(func=cmd_sweep, bootstrap=0, threads=1)

    p = sub.add_parser("vistool", help="cumulative-sum curve data for one parameter")
    p.add_argument("--file", required=True)
    p.add_argument("--param", required=True)
    p.add_argument("--treatments", type=int, nargs=2, default=(1, 0),
                   metavar=("T", "T_PRIME"))
    _add_k(p)
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")
    p.set_defaults(func=cmd_vistool)

    p = sub.add_parser("simulate", help="generate a synthetic PSA CSV")
    p.add_argument("--model", required=True,
                   help="'linear-gaussian', 'toy', or a model-spec JSON path")
    p.add_argument("--sims", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=float, default=DEFAULT_WTP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    return parser


def _check_flags(args) -> None:
    """Reject a flag that cannot mean what was asked, before any work: a
    count or fraction out of range, a malformed ``--params`` or
    ``--changes``, and the rules of ``--method`` that need no sample.  Those
    two are parsed once, here, into ``args.subsets`` and ``args.changes``."""
    if getattr(args, "file", None) is not None and getattr(args, "sims", None) is not None:
        raise _UsageError("--sims applies only with --model; --file fixes the sample")
    bootstrap = getattr(args, "bootstrap", 0)
    if bootstrap < 0 or bootstrap == 1:
        raise _UsageError(
            f"--bootstrap must be 0 (no standard error) or at least 2, got {bootstrap}"
        )
    # the --mc-* floors are the ones nested_mc_evppi enforces and the --sims
    # floor generate_psa's; a --bins above the sample's row count is caught
    # per sample
    for flag, floor in (("threads", 1), ("mc_outer", 2), ("mc_inner", 1), ("bins", 1),
                        ("seed", 0), ("sims", 2)):
        value = getattr(args, flag, None)
        if value is not None and value < floor:
            name = "--" + flag.replace("_", "-")
            raise _UsageError(f"{name} must be at least {floor}, got {value}")
    for flag in ("bias_threshold", "bias_threshold_relative"):
        value = getattr(args, flag, None)
        if value is not None and not (value > 0 and math.isfinite(value)):
            name = "--" + flag.replace("_", "-")
            raise _UsageError(f"{name} must be positive and finite, got {value}")
    k = getattr(args, "k", None)
    if k is not None and not (k >= 0 and math.isfinite(k)):
        raise _UsageError(f"--k must be finite and >= 0, got {k}")
    if hasattr(args, "params"):  # evppi, compare and sweep
        args.subsets = _subsets(args)
        args.changes = _parse_changes(args.changes)
        for names in args.subsets if hasattr(args, "method") else ():
            check_method(args.method, names, args.changes)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except (_UsageError, OSError, ValueError) as exc:
        # the one error boundary; an OSError from open names its path, as in
        # "[Errno 21] Is a directory: 'out'"
        print(f"voikit: error: {exc}", file=sys.stderr)
        return 1
    except EstimationError as exc:
        print(f"voikit: estimation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
