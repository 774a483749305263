"""Command-line front end: estimator dispatch, comparison tables, sweeps,
the cumulative-sum visual-tool data, and synthetic-sample generation.

Exit codes: 0 success, 1 usage or input-parsing error, 2 estimation
failure.  JSON outputs carry full-precision values; the human-readable
comparison table rounds to 2 decimals (1 on request) because the
estimators only approximate the target to begin with.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
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
from .psa import EstimationError, ParamSubset, PsaSample, evpi
from .regression import BootstrapConfig, gam_evppi, gp_evppi, with_bootstrap
from .single_param import (
    DEFAULT_BIAS_THRESHOLD, cumsum_curve, sad_evppi, so_choose_bins, so_evppi,
)

METHOD_ORDER = ("SO", "SAD", "GP", "GAM", "MC")


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


def _split_params(raw: str) -> list[str]:
    names = [n.strip() for n in raw.split(",") if n.strip()]
    if not names:
        raise _UsageError("no parameter names given")
    return names


def _interactions_flag(choice: str) -> bool | None:
    return {"auto": None, "none": False, "pairwise": True}[choice]


def _parse_changes(raw: str | None, names: list[str], param_names) -> dict[str, int]:
    """--changes accepts a single count or name=count pairs.

    A pair must name one of the sample's parameters (``param_names``), and
    at most once.
    """
    if raw is None:
        return {}
    raw = raw.strip()
    if "=" not in raw:
        try:
            d = int(raw)
        except ValueError:
            raise _UsageError(f"--changes expects an integer or name=int pairs, got {raw!r}")
        return {n: d for n in names}
    out = {}
    for item in raw.split(","):
        name, _, val = item.partition("=")
        name = name.strip()
        if name in out:
            raise _UsageError(f"--changes gives {name!r} twice")
        if name not in param_names:
            raise _UsageError(
                f"--changes names {name!r}, which is not one of the sample's parameters; "
                f"available: {list(param_names)}"
            )
        try:
            out[name] = int(val)
        except ValueError:
            raise _UsageError(f"bad --changes entry {item!r}")
    return out


def _single_param_index(sample: PsaSample, names: list[str], method: str) -> int:
    if len(names) != 1:
        raise _UsageError(
            f"method {method} handles a single parameter only, got {len(names)}"
        )
    return sample.param_index(names[0])


def _estimate_for_method(sample: PsaSample, method: str, names: list[str], args):
    """Run one estimator; returns (estimate, extra-warnings list)."""
    warnings_out: list[str] = []
    bootstrap = (
        BootstrapConfig(n_replicates=args.bootstrap, seed=args.seed)
        if args.bootstrap
        else None
    )
    if method == "so":
        p = _single_param_index(sample, names, "so")
        if args.bins is not None:
            n_bins = args.bins
            chosen_bias = None
        else:
            threshold = args.bias_threshold
            if args.bias_threshold_relative is not None:
                full = evpi(sample.nb)
                if full == 0:
                    raise _UsageError(
                        "--bias-threshold-relative sets the cap as a fraction of "
                        "the EVPI, which is 0 for this sample"
                    )
                threshold = args.bias_threshold_relative * full
            n_bins, chosen_bias = so_choose_bins(
                sample, p, threshold=threshold, seed=args.seed
            )
        estimate = so_evppi(sample, p, n_bins)
        if chosen_bias is not None:
            estimate = replace(estimate, diagnostics={
                **estimate.diagnostics,
                "chosen_bias": chosen_bias,
                "bin_selection": "bias-threshold",
            })
        return with_bootstrap(
            estimate, lambda s: so_evppi(s, p, n_bins), sample, bootstrap, args.threads
        ), warnings_out

    if method == "sad":
        if args.changes is None:
            raise _UsageError(
                "method sad needs --changes: the number of decision changes is a "
                "judgment call read off the visual tool and is never defaulted"
            )
        p = _single_param_index(sample, names, "sad")
        changes = _parse_changes(args.changes, names, sample.param_names).get(names[0])
        if changes is None:
            raise _UsageError(f"--changes does not cover parameter {names[0]!r}")
        if changes == 0:
            warnings_out.append("parameter declared non-influential: estimate is 0")
        estimate = sad_evppi(sample, p, changes)
        return with_bootstrap(
            estimate, lambda s: sad_evppi(s, p, changes), sample, bootstrap, args.threads
        ), warnings_out

    subset = ParamSubset.from_names(names, sample.param_names)
    if method == "gam":
        return gam_evppi(
            sample,
            subset,
            interactions=_interactions_flag(args.interactions),
            bootstrap=bootstrap,
            n_threads=args.threads,
        ), warnings_out
    if method == "gp":
        return gp_evppi(
            sample, subset, seed=args.seed, bootstrap=bootstrap, n_threads=args.threads
        ), warnings_out
    raise _UsageError(f"unknown method {method!r}")


def cmd_evppi(args) -> int:
    sample = read_psa_csv(args.file, k=_wtp(args))
    names = _split_params(args.params)
    _parse_changes(args.changes, names, sample.param_names)  # fail fast
    estimate, notes = _estimate_for_method(sample, args.method, names, args)
    payload = {
        "subset": names,
        "k": _sample_k(args.file, sample, args, notes),
        **estimate.to_dict(),
    }
    if notes:
        payload["warnings"] = notes
    _emit_json(payload)
    return 0


def _compare_cell(sample, method, names, args, model):
    """One cell of the comparison: the estimate, or ``{"error": reason}``
    when the method does not apply.  An estimator that fails raises.  The
    MC column is listed only with a model spec (``model``)."""
    if method == "MC":
        gen = model_for(model)
        subset = ParamSubset.from_names(names, gen.param_names)
        est = nested_mc_evppi(
            gen, subset, k=_wtp(args),
            n_outer=args.mc_outer, n_inner=args.mc_inner, seed=args.seed,
        )
        return est.to_dict()
    if method in ("SO", "SAD") and len(names) != 1:
        return {"error": "single-parameter method"}
    if method == "SAD":
        changes = _parse_changes(args.changes, names, sample.param_names)
        if names[0] not in changes:
            return {"error": "changes not provided"}
    est, _ = _estimate_for_method(sample, method.lower(), names, args)
    return est.to_dict()


def _format_cell(cell: dict, decimals: int) -> str:
    if "error" in cell:
        return "-"
    value = round(cell["value"], decimals)
    if cell.get("std_error") is not None:
        return f"{value:.{decimals}f} ({round(cell['std_error'], decimals):.{decimals}f})"
    return f"{value:.{decimals}f}"


def cmd_compare(args) -> int:
    model = _load_spec(args.model) if args.model else None
    subsets = [_split_params(chunk) for chunk in args.params.split(";")]
    sample = read_psa_csv(args.file, k=_wtp(args))
    notes: list[str] = []
    k = _sample_k(args.file, sample, args, notes)
    if model is not None and args.k is not None and args.k != k:
        notes.append(f"the nested-MC column uses --k {args.k:g}")
    for names in subsets:
        ParamSubset.from_names(names, sample.param_names)  # fail fast on unknown names
    _parse_changes(args.changes, [], sample.param_names)  # fail fast

    methods = list(METHOD_ORDER) if model is not None else [
        m for m in METHOD_ORDER if m != "MC"
    ]
    rows = []
    failures: list[str] = []  # why a cell is "-" in the table
    for names in subsets:
        cells = {}
        for m in methods:
            try:
                cells[m] = _compare_cell(sample, m, names, args, model)
            except (_UsageError, ValueError, EstimationError) as exc:
                cells[m] = {"error": str(exc)}
                failures.append(f"{m} on {','.join(names)}: {exc}")
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
        grid = np.arange(lo, hi + 0.5 * step, step)
    if grid.size < 1 or np.any(~np.isfinite(grid)) or np.any(np.diff(grid) <= 0):
        raise _UsageError("willingness-to-pay grid must be finite and strictly increasing")
    if np.any(grid < 0):
        raise _UsageError("willingness-to-pay values must be >= 0")
    return grid


def cmd_sweep(args) -> int:
    spec = _load_spec(args.model) if args.model else None
    if spec is None and args.sims is not None:
        raise _UsageError("--sims applies only with --model; --file fixes the sample")
    subsets = [_split_params(chunk) for chunk in args.params.split(";")]
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
    _parse_changes(args.changes, [], sample.param_names)  # fail fast

    evpi_curve = []
    evppi_curves: dict[str, list[float]] = {",".join(n): [] for n in subsets}
    for k in grid:
        at_k = sample.at_wtp(float(k))
        evpi_curve.append(evpi(at_k.nb))
        for names in subsets:
            est, _ = _estimate_for_method(at_k, args.method, names, args)
            evppi_curves[",".join(names)].append(est.value)

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
    lines = ["phi,cumsum"]
    lines += [f"{repr(float(x))},{repr(float(c))}" for x, c in zip(curve.phi, curve.values)]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_simulate(args) -> int:
    spec = _load_spec(args.model)
    sample = generate_psa(spec, args.sims, seed=args.seed, k=float(args.k))
    out = Path(args.out)
    try:
        write_psa_csv(out, sample)
        write_provenance(
            _provenance_path(out),
            {
                "spec": spec_to_dict(spec),
                "n_sims": args.sims,
                "seed": args.seed,
                "k": args.k,
            },
        )
    except OSError as exc:
        raise _UsageError(f"cannot write {out}: {exc}") from exc
    return 0


def _add_common(p):
    p.add_argument("--k", type=float, default=None,
                   help="willingness to pay (default 20000); nb-only files "
                        "keep the k they were built at")
    p.add_argument("--seed", type=int, default=0)
    bins = p.add_mutually_exclusive_group()
    bins.add_argument("--bins", type=int, default=None,
                      help="bin count for the bin-averaging method (default: bias-guided)")
    bins.add_argument("--bias-threshold", type=float, default=DEFAULT_BIAS_THRESHOLD,
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
    parser = _Parser(prog="voikit", description=__doc__)
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
    p.add_argument("--k", type=float, default=None,
                   help="willingness to pay (default 20000); nb-only files "
                        "keep the k they were built at")
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


def _check_counts(args) -> None:
    """Reject a count or fraction that cannot mean what was asked, before
    any work."""
    bootstrap = getattr(args, "bootstrap", 0)
    if bootstrap < 0 or bootstrap == 1:
        raise _UsageError(
            f"--bootstrap must be 0 (no standard error) or at least 2, got {bootstrap}"
        )
    # the --mc-* floors are the ones nested_mc_evppi enforces; a --bins
    # above the sample's row count is caught per sample
    for flag, floor in (("threads", 1), ("mc_outer", 2), ("mc_inner", 1), ("bins", 1),
                        ("seed", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < floor:
            name = "--" + flag.replace("_", "-")
            raise _UsageError(f"{name} must be at least {floor}, got {value}")
    for flag in ("bias_threshold", "bias_threshold_relative"):
        value = getattr(args, flag, None)
        if value is not None and not (value > 0 and math.isfinite(value)):
            name = "--" + flag.replace("_", "-")
            raise _UsageError(f"{name} must be positive and finite, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        return args.func(args)
    except (_UsageError, FileNotFoundError, ValueError) as exc:
        print(f"voikit: error: {exc}", file=sys.stderr)
        return 1
    except EstimationError as exc:
        print(f"voikit: estimation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
