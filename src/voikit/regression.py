"""Regression-based EVPPI: plug-in value of fitted conditional means, plus
bootstrap standard errors shared by all sample-based estimators.

The estimate is the full-information formula applied to the per-treatment
fitted values: mean over simulations of the best fitted net benefit minus
the best mean fitted net benefit.  Smoothing is delegated to
:mod:`voikit.gam` and :mod:`voikit.gp`; this module packages their output
and quantifies sampling uncertainty by resampling simulation rows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gam import gam_fit_detail
from .gp import GpHyperparameters, gp_fit_detail
from .psa import EstimationError, EvppiEstimate, ParamSubset, PsaSample, evpi

__all__ = [
    "RegressionFit",
    "BootstrapConfig",
    "fit_regression",
    "regression_evppi",
    "gam_evppi",
    "gp_evppi",
    "bootstrap_estimates",
    "bootstrap_se",
    "with_bootstrap",
]


# Exceptions that mark one bootstrap replicate as failed rather than the
# whole run: estimation failures and numerical breakdowns on a resample.
REPLICATE_FAILURES = (EstimationError, np.linalg.LinAlgError, ValueError)


@dataclass(frozen=True)
class RegressionFit:
    """Per-treatment fitted conditional expectations of net benefit."""

    method: str  # "GAM" or "GP"
    fitted: np.ndarray  # S x T
    residual_var: np.ndarray  # length T
    hyperparameters: tuple[dict, ...]  # one entry per treatment

    def __post_init__(self):
        if self.method not in ("GAM", "GP"):
            raise ValueError(f"method must be GAM or GP, got {self.method!r}")
        fitted = np.asarray(self.fitted, dtype=float)
        if fitted.ndim != 2 or not np.all(np.isfinite(fitted)):
            raise ValueError("fitted values must form a finite S x T matrix")
        rvar = np.asarray(self.residual_var, dtype=float)
        if rvar.shape != (fitted.shape[1],) or np.any(rvar < 0):
            raise ValueError("residual_var must be a nonnegative length-T vector")
        if len(self.hyperparameters) != fitted.shape[1]:
            raise ValueError("one hyperparameter record per treatment required")
        fitted.flags.writeable = False
        rvar.flags.writeable = False
        object.__setattr__(self, "fitted", fitted)
        object.__setattr__(self, "residual_var", rvar)
        object.__setattr__(self, "hyperparameters", tuple(dict(h) for h in self.hyperparameters))


@dataclass(frozen=True)
class BootstrapConfig:
    """Row-resampling settings for standard errors."""

    n_replicates: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.n_replicates < 2:
            raise ValueError(f"need at least 2 bootstrap replicates, got {self.n_replicates}")


def fit_regression(
    sample: PsaSample,
    subset: ParamSubset,
    method: str = "gam",
    seed: int = 0,
    interactions: bool | None = None,
    gp_hyperparameters: tuple[GpHyperparameters, ...] | None = None,
) -> RegressionFit:
    """Fit every treatment column and collect the results.

    GAM fits all columns in one call on one shared spline basis; GP fits
    one column at a time.

    ``gp_hyperparameters`` (one per treatment) pins the GP kernel, which
    skips the marginal-likelihood search; used by the bootstrap so
    replicates re-fit the posterior only.
    """
    method = method.lower()
    if method not in ("gam", "gp"):
        raise ValueError(f"method must be 'gam' or 'gp', got {method!r}")
    if method == "gam":
        fitted, infos = gam_fit_detail(sample, subset, interactions=interactions)
    else:
        fitted = np.empty_like(sample.nb)
        infos = []
        for t in range(sample.n_treatments):
            hp = None if gp_hyperparameters is None else gp_hyperparameters[t]
            col, info = gp_fit_detail(sample, subset, t, seed=seed, hyperparameters=hp)
            fitted[:, t] = col
            infos.append(info)
    return RegressionFit(
        method=method.upper(),
        fitted=fitted,
        residual_var=np.array([i.get("residual_var", 0.0) for i in infos]),
        hyperparameters=tuple(infos),
    )


def regression_evppi(fit: RegressionFit) -> EvppiEstimate:
    """Plug-in EVPPI of a fitted conditional-mean matrix.

    Mean of per-simulation best fitted values minus the best column mean;
    nonnegative by construction.
    """
    value = evpi(fit.fitted)
    return EvppiEstimate.clamped(
        value,
        fit.method,
        nb_scale=float(np.max(np.abs(fit.fitted))),
        diagnostics={
            "residual_var": fit.residual_var.tolist(),
            "hyperparameters": list(fit.hyperparameters),
        },
    )


def bootstrap_estimates(
    estimator: Callable[[PsaSample], float],
    sample: PsaSample,
    config: BootstrapConfig,
    n_threads: int = 1,
) -> tuple[np.ndarray, int]:
    """Estimator values on row-resampled copies of the sample.

    Each replicate's resampling indices come from a generator seeded with
    (seed, replicate index), so results are identical at any thread count.
    A replicate where the estimator fails numerically (one of
    ``REPLICATE_FAILURES``) is skipped; any other exception is a bug and
    propagates.  More than 20% skipped replicates aborts, with the first
    failure as the cause.
    """

    def one(b: int) -> float | Exception:
        rng = np.random.default_rng([config.seed, b])
        rows = rng.integers(0, sample.n_sims, size=sample.n_sims)
        try:
            out = estimator(sample.take(rows))
        except REPLICATE_FAILURES as exc:
            return exc
        return float(out.value) if isinstance(out, EvppiEstimate) else float(out)

    if n_threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            results = list(pool.map(one, range(config.n_replicates)))
    else:
        results = [one(b) for b in range(config.n_replicates)]

    errors = [r for r in results if isinstance(r, Exception)]
    values = np.array([r for r in results if not isinstance(r, Exception)])
    failures = len(errors)
    if failures > 0.2 * config.n_replicates:
        first = errors[0]
        raise EstimationError(
            f"bootstrap aborted: {failures}/{config.n_replicates} replicates failed; "
            f"first failure: {type(first).__name__}: {first}"
        ) from first
    return values, failures


def bootstrap_se(
    estimator: Callable[[PsaSample], float],
    sample: PsaSample,
    config: BootstrapConfig,
    n_threads: int = 1,
) -> float:
    """Sample standard deviation of the estimator over bootstrap replicates."""
    values, _ = bootstrap_estimates(estimator, sample, config, n_threads=n_threads)
    if values.size < 2:
        raise EstimationError("fewer than 2 successful bootstrap replicates")
    return float(np.std(values, ddof=1))


def with_bootstrap(
    estimate: EvppiEstimate,
    estimator: Callable[[PsaSample], float],
    sample: PsaSample,
    config: BootstrapConfig | None,
    n_threads: int = 1,
) -> EvppiEstimate:
    """``estimate`` with a bootstrap standard error; unchanged when
    ``config`` is None.

    The diagnostics gain the replicate values (``bootstrap_replicates``),
    the count of replicates that failed (``bootstrap_failures``) and that
    count by exception class name, in name order
    (``bootstrap_failure_types``).
    """
    if config is None:
        return estimate
    failed: list[str] = []  # list.append is atomic, so worker threads share it

    def recording(s: PsaSample):
        try:
            return estimator(s)
        except REPLICATE_FAILURES as exc:
            failed.append(type(exc).__name__)
            raise

    values, failures = bootstrap_estimates(
        recording, sample, config, n_threads=n_threads
    )
    diag = dict(estimate.diagnostics)
    diag["bootstrap_replicates"] = values.tolist()
    diag["bootstrap_failures"] = failures
    diag["bootstrap_failure_types"] = dict(sorted(Counter(failed).items()))
    return EvppiEstimate(
        value=estimate.value,
        method=estimate.method,
        std_error=float(np.std(values, ddof=1)),
        diagnostics=diag,
    )


def gam_evppi(
    sample: PsaSample,
    subset: ParamSubset,
    interactions: bool | None = None,
    bootstrap: BootstrapConfig | None = None,
    n_threads: int = 1,
) -> EvppiEstimate:
    """Spline-regression EVPPI, optionally with a bootstrap standard error.

    Bootstrap replicates re-run the full fit, smoothing-parameter search
    included.
    """

    def estimator(s: PsaSample) -> EvppiEstimate:
        return regression_evppi(
            fit_regression(s, subset, method="gam", interactions=interactions)
        )

    return with_bootstrap(estimator(sample), estimator, sample, bootstrap, n_threads)


def gp_evppi(
    sample: PsaSample,
    subset: ParamSubset,
    seed: int = 0,
    bootstrap: BootstrapConfig | None = None,
    n_threads: int = 1,
) -> EvppiEstimate:
    """GP-regression EVPPI, optionally with a bootstrap standard error.

    Replicates keep the hyperparameters from the headline fit and re-fit
    the posterior mean only; re-optimising the marginal likelihood a few
    hundred times would dominate the runtime without changing the SE
    materially.
    """
    fit = fit_regression(sample, subset, method="gp", seed=seed)
    estimate = regression_evppi(fit)
    if bootstrap is None:
        return estimate
    fixed = tuple(
        GpHyperparameters(
            length_scales=tuple(info["length_scales"]),
            signal_var=info["signal_var"],
            noise_var=info["noise_var"],
        )
        if "length_scales" in info
        else GpHyperparameters(
            length_scales=(1.0,) * len(subset.indices), signal_var=1.0, noise_var=1.0
        )
        for info in fit.hyperparameters
    )
    return with_bootstrap(
        estimate,
        lambda s: regression_evppi(
            fit_regression(s, subset, method="gp", seed=seed, gp_hyperparameters=fixed)
        ),
        sample,
        bootstrap,
        n_threads,
    )
