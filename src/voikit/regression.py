"""Regression-based EVPPI: plug-in value of fitted conditional means, plus
bootstrap standard errors shared by all sample-based estimators, and
:func:`estimate`, the one call that runs any of those estimators with its
method's rules and defaults.

The estimate is the full-information formula applied to the fitted
contrasts against the first treatment: mean over simulations of the best
fitted contrast (0 for the first treatment) minus the best mean fitted
contrast.  Smoothing is delegated to :mod:`voikit.gam` and :mod:`voikit.gp`;
this module packages their output and quantifies sampling uncertainty by
resampling simulation rows.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ._blas import one_blas_thread
from .gam import gam_fit_detail
from .gp import GpHyperparameters, _record_hyperparameters, gp_fit_detail
from .psa import EstimationError, EvppiEstimate, ParamSubset, PsaSample, evpi
from .single_param import DEFAULT_BIAS_THRESHOLD, sad_evppi, so_choose_bins, so_evppi

__all__ = [
    "BootstrapConfig",
    "fit_regression",
    "regression_evppi",
    "gam_evppi",
    "gp_evppi",
    "bootstrap_estimates",
    "bootstrap_se",
    "with_bootstrap",
    "estimate",
    "check_method",
    "MethodRuleError",
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
    A replicate is the count vector of its draw over the sample's rows
    (``sample.take(counts=...)``): the estimator sees the drawn rows in
    row-index order (only their counts matter), and the replicate gathers
    each array from the sample on first read, so an estimator that reads
    none gathers none.  The single-parameter estimators read the sample's
    rank order, repeated by count, instead of sorting the replicate.
    A replicate where the estimator fails numerically (one of
    ``REPLICATE_FAILURES``) is skipped; any other exception is a bug and
    propagates.  More than 20% skipped replicates aborts, with the first
    failure as the cause; since a config has at least 2 replicates, a run
    that does not abort keeps at least 2 values.
    The whole run, pool included, is one :func:`voikit._blas.one_blas_thread`
    scope: OpenBLAS stays at one thread, so ``n_threads`` is the only
    parallelism.
    """

    def one(b: int) -> float | Exception:
        rng = np.random.default_rng([config.seed, b])
        n = sample.n_sims
        counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
        try:
            out = estimator(sample.take(counts=counts))
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


# ``interactions`` choices, as ``--interactions`` spells them, and the
# ``gam_evppi`` argument each stands for
_INTERACTIONS = {"auto": None, "none": False, "pairwise": True}

# the table's reason for SAD without a count for the subset's parameter
_NO_COUNT = "changes not provided"


class MethodRuleError(ValueError):
    """An estimate that breaks a rule of its method.

    ``str(exc)`` is the full reason, in the words of the CLI flag that the
    offending argument mirrors.  ``cell`` is the short reason a comparison
    table gives a method that does not apply to a subset: it takes one
    parameter, or it has no change count for it.  ``cell`` is None for a
    rule that the sample, not the subset, breaks.
    """

    def __init__(self, message: str, cell: str | None = None):
        super().__init__(message)
        self.cell = cell


def check_method(
    method: str, names, changes=None, sample: PsaSample | None = None
) -> ParamSubset | None:
    """Raise :class:`MethodRuleError` unless ``method`` (so, sad, gam or gp)
    can estimate the parameters ``names`` with the change counts
    ``changes``, as :func:`estimate` takes them.

    Without a ``sample`` only the rules that need none are checked, and of
    ``changes`` only whether it is None: sad needs counts, and so and sad
    take one name.  With a sample, the names are also looked up in it
    (:meth:`~voikit.psa.ParamSubset.from_names`), sad's name must have a
    count, and their subset is returned.
    """
    method = method.lower()
    if method == "sad" and changes is None:
        raise MethodRuleError(
            "method sad needs --changes: the number of decision changes is a "
            "judgment call read off the visual tool and is never defaulted",
            _NO_COUNT,
        )
    if method in ("so", "sad") and len(names) != 1:
        raise MethodRuleError(
            f"method {method} handles a single parameter only, got {len(names)}",
            "single-parameter method",
        )
    if sample is None:
        return None
    subset = ParamSubset.from_names(names, sample.param_names)
    if method == "sad" and isinstance(changes, Mapping) and names[0] not in changes:
        raise MethodRuleError(f"--changes does not cover parameter {names[0]!r}", _NO_COUNT)
    return subset


def estimate(
    sample: PsaSample,
    names,
    method: str,
    *,
    bins: int | None = None,
    bias_threshold: float | None = None,
    bias_threshold_relative: float | None = None,
    changes=None,
    interactions: str = "auto",
    bootstrap: int = 0,
    seed: int = 0,
    threads: int = 1,
) -> EvppiEstimate:
    """EVPPI of the parameters ``names`` by ``method``: "so", "sad", "gam"
    or "gp" (any case), as ``voikit evppi`` computes it.

    Each keyword stands for the ``voikit evppi`` flag of the same name:

    * ``bins``: SO's bin count.  Without it SO takes the largest candidate
      count whose estimated upward bias is under a cap
      (:func:`~voikit.single_param.so_choose_bins`), and the diagnostics
      add that bias (``chosen_bias``) and ``bin_selection``.
    * ``bias_threshold``: that cap in currency units (default 0.1).
    * ``bias_threshold_relative``: the cap as a fraction of the sample's
      EVPI.  At most one of these three may be given.
    * ``changes``: SAD's number of decision changes, one count for every
      parameter or a mapping from parameter name to count.
    * ``interactions``: GAM's interaction structure, "auto", "none" or
      "pairwise".
    * ``bootstrap``: replicates for a standard error, 0 for none.
    * ``seed``: seeds SO's bias search, GP's subsample and the bootstrap;
      at least 0.
    * ``threads``: worker threads for the bootstrap replicates; at least 1.

    A method rule that ``names``, ``changes`` or the sample breaks
    (:func:`check_method`; and SO's relative cap on a sample whose EVPI is
    0) raises :class:`MethodRuleError`, with the CLI's message.  An unknown
    or repeated name or an unknown method, a seed or thread count out of
    range (in the CLI's words), or arguments that exclude each other raise
    ``ValueError``; an estimator that fails raises ``EstimationError``.
    """
    method = method.lower()
    if method not in ("so", "sad", "gam", "gp"):
        raise ValueError(f"method must be so, sad, gam or gp, got {method!r}")
    if interactions not in _INTERACTIONS:
        raise ValueError(
            f"interactions must be one of {list(_INTERACTIONS)}, got {interactions!r}"
        )
    if sum(x is not None for x in (bins, bias_threshold, bias_threshold_relative)) > 1:
        raise ValueError("give at most one of bins, bias_threshold and bias_threshold_relative")
    for flag, value, floor in (("threads", threads, 1), ("seed", seed, 0)):
        if value < floor:
            raise ValueError(f"--{flag} must be at least {floor}, got {value}")
    subset = check_method(method, names, changes, sample)
    config = BootstrapConfig(n_replicates=bootstrap, seed=seed) if bootstrap else None

    if method == "gp":
        return gp_evppi(sample, subset, seed=seed, bootstrap=config, n_threads=threads)
    if method == "gam":
        return gam_evppi(
            sample, subset, interactions=_INTERACTIONS[interactions],
            bootstrap=config, n_threads=threads,
        )

    [p] = subset.indices
    if method == "sad":
        d = changes[names[0]] if isinstance(changes, Mapping) else changes
        return with_bootstrap(
            sad_evppi(sample, p, d), lambda s: sad_evppi(s, p, d), sample, config, threads
        )

    chosen_bias = None
    if bins is None:
        if bias_threshold_relative is None:
            cap = DEFAULT_BIAS_THRESHOLD if bias_threshold is None else bias_threshold
        else:
            full = evpi(sample.nb)
            if full == 0:
                raise MethodRuleError(
                    "--bias-threshold-relative sets the cap as a fraction of "
                    "the EVPI, which is 0 for this sample"
                )
            cap = bias_threshold_relative * full
        bins, chosen_bias = so_choose_bins(sample, p, threshold=cap, seed=seed)
    result = so_evppi(sample, p, bins)
    if chosen_bias is not None:
        result = replace(result, diagnostics={
            **result.diagnostics,
            "chosen_bias": chosen_bias,
            "bin_selection": "bias-threshold",
        })
    return with_bootstrap(result, lambda s: so_evppi(s, p, bins), sample, config, threads)
