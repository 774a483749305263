"""Regression-based EVPPI: plug-in value of fitted conditional means, plus
bootstrap standard errors shared by all sample-based estimators.

The estimate is the full-information formula applied to the fitted
contrasts against the first treatment: mean over simulations of the best
fitted contrast (0 for the first treatment) minus the best mean fitted
contrast.  Smoothing is delegated to :mod:`voikit.gam` and :mod:`voikit.gp`;
this module packages their output and quantifies sampling uncertainty by
resampling simulation rows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ._blas import one_blas_thread
from .gam import gam_fit_detail
from .gp import GpHyperparameters, _record_hyperparameters, gp_fit_detail
from .psa import EstimationError, EvppiEstimate, ParamSubset, PsaSample, evpi

__all__ = [
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
class BootstrapConfig:
    """Row-resampling settings for standard errors."""

    n_replicates: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.n_replicates < 2:
            raise ValueError(f"need at least 2 bootstrap replicates, got {self.n_replicates}")
        if self.seed < 0:
            raise ValueError(f"bootstrap seed must be >= 0, got {self.seed}")


def fit_regression(
    sample: PsaSample,
    subset: ParamSubset,
    method: str = "gam",
    seed: int = 0,
    interactions: bool | None = None,
    gp_hyperparameters: tuple[GpHyperparameters | None, ...] | None = None,
) -> tuple[np.ndarray, list[dict]]:
    """Fitted contrasts against the first treatment column (S x T) and one
    smoother record per column.

    Column t regresses nb_t - nb_0 (Strong, Oakley & Brennan, *MDM* 2014).
    Column 0 is then identically zero: both smoothers fit it by its mean
    (a ``constant_response`` record) without a search, and the plug-in
    value of the result is mean max(0, g_1, ...) - max(0, mean g_1, ...).
    A net-benefit term common to every arm drops out before smoothing, so
    it cannot move the estimate.  The contrast shares the sample's
    parameter matrix.

    GAM fits all columns in one call on one shared spline basis; GP fits
    one column at a time.

    ``gp_hyperparameters`` (one per treatment) pins the GP kernel, which
    skips the marginal-likelihood search; used by the bootstrap so
    replicates re-fit the posterior only.  None in place of a kernel means
    the column needs none: it was constant, and so is every bootstrap
    replicate of it, which is fitted by its mean.
    """
    method = method.lower()
    if method not in ("gam", "gp"):
        raise ValueError(f"method must be 'gam' or 'gp', got {method!r}")
    contrast = sample._with_nb(sample.nb - sample.nb[:, :1])
    if method == "gam":
        return gam_fit_detail(contrast, subset, interactions=interactions)
    fits = [
        gp_fit_detail(
            contrast, subset, t, seed=seed,
            hyperparameters=None if gp_hyperparameters is None else gp_hyperparameters[t],
        )
        for t in range(sample.n_treatments)
    ]
    return np.column_stack([col for col, _ in fits]), [info for _, info in fits]


def regression_evppi(fit: tuple[np.ndarray, list[dict]], method: str) -> EvppiEstimate:
    """Plug-in EVPPI of a ``fit_regression`` result, tagged ``method``.

    Mean of per-simulation best fitted values minus the best column mean;
    nonnegative by construction.  Non-finite fitted values raise
    ``ValueError``.
    """
    fitted, records = fit
    return EvppiEstimate(
        evpi(fitted),
        method,
        diagnostics={
            "residual_var": [r["residual_var"] for r in records],
            "hyperparameters": list(records),
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
    The estimator sees the drawn rows in row-index order (only their counts
    matter), which lets the single-parameter estimators read the sample's
    rank order, repeated by count, instead of sorting the replicate.
    A replicate where the estimator fails numerically (one of
    ``REPLICATE_FAILURES``) is skipped; any other exception is a bug and
    propagates.  More than 20% skipped replicates aborts, with the first
    failure as the cause.
    The whole run, pool included, is one :func:`voikit._blas.one_blas_thread`
    scope: OpenBLAS stays at one thread, so ``n_threads`` is the only
    parallelism.
    """

    def one(b: int) -> float | Exception:
        rng = np.random.default_rng([config.seed, b])
        n = sample.n_sims
        counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
        rows = np.repeat(np.arange(n), counts)  # the draw in row-index order
        try:
            out = estimator(sample.take(rows))
        except REPLICATE_FAILURES as exc:
            return exc
        return float(out.value) if isinstance(out, EvppiEstimate) else float(out)

    with one_blas_thread():
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
    return replace(
        estimate,
        std_error=float(np.std(values, ddof=1)),
        diagnostics={
            **estimate.diagnostics,
            "bootstrap_replicates": values.tolist(),
            "bootstrap_failures": failures,
            "bootstrap_failure_types": dict(sorted(Counter(failed).items())),
        },
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
            fit_regression(s, subset, method="gam", interactions=interactions), "GAM"
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
    fixed = tuple(_record_hyperparameters(info) for info in fit[1])
    return with_bootstrap(
        regression_evppi(fit, "GP"),
        lambda s: regression_evppi(
            fit_regression(s, subset, method="gp", seed=seed, gp_hyperparameters=fixed),
            "GP",
        ),
        sample,
        bootstrap,
        n_threads,
    )
