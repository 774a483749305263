"""Gaussian-process smoothing of net benefit on parameters.

Zero-mean GP on standardized inputs and centered response with a
squared-exponential kernel (one length scale per dimension) and a nugget
absorbing the conditional-expectation residual.  The one noise model is
K = sf2 (C_l + eps I) + sn2 I, C_l the unit squared-exponential kernel and
eps = ``JITTER_FACTOR``: the search differentiates it, the posterior mean
uses it, and the same eps sets the pivot tolerance below.  Hyperparameters
maximise the exact log marginal likelihood on a seeded subsample of at
most ``N_HYPER_ROWS`` rows, which bounds the cubic factorisation cost.
The search has two levels.  The coarse level runs one L-BFGS-B descent on
the first ``N_COARSE_ROWS`` rows of the subsample's seeded permutation,
where one likelihood evaluation costs about an eighth of one on 500 rows.
It starts from median-heuristic length scales, signal variance var(y) and
noise variance var(y)/5.  The polish then runs one L-BFGS-B descent of the
likelihood of the whole subsample from the coarse optimum, so the result
is still a local maximum of the full-subsample likelihood; only the route
to it is cheaper.  A subsample of at most ``N_COARSE_ROWS`` rows is
searched in one level.  A constant column (such as the all-zero contrast
of the reference arm, see :func:`voikit.regression.fit_regression`) is
fitted by its mean with no search.

The posterior mean at all S inputs is a subset-of-regressors fit, so every
row informs it through its cross-covariances with a set of inducing
points.  Those are the subsample rows that a pivoted Cholesky factorisation
of their kernel matrix (LAPACK ``dpstrf``; Harbrecht, Peters & Schneider,
*Appl. Numer. Math.* 62, 2012) takes before every remaining Schur-complement
variance falls to eps times the signal variance.  The rows it leaves,
duplicates among them, lie within that floor of the span of the kept
ones, so a smooth kernel keeps far fewer than 500.  When S is at most the
subsample size the result is the exact posterior mean of sf2 C_l under
the noise model, up to that floor.  The fit then makes two passes over
the rows in blocks of ``psa._CHUNK_ROWS``: one sums the projected
cross-covariances, the other predicts, so memory stays bounded in S.

A fit evaluates the marginal likelihood at most about 160 times, and
usually 30 to 60: each level stops once it has used 80 (``maxfun``),
after the iteration in progress.  The objective reuses preallocated
buffers and in-place LAPACK calls, not fresh kernel matrices.

scipy is imported inside the functions that call it, so importing voikit
(and running a command that fits no GP) does not load it.  A fit imports
it before it opens :func:`voikit._blas.one_blas_thread`, so that numpy's
and scipy's OpenBLAS both run the search and the posterior at one thread.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from .psa import ParamSubset, PsaSample, _row_chunks, _standardized_params

__all__ = ["GpHyperparameters", "gp_fit_detail"]

N_HYPER_ROWS = 500
# the coarse level's rows: nested in the subsample, so no extra random draws
N_COARSE_ROWS = 200
JITTER_FACTOR = 1e-8
# Kernel exponents are clamped here: np.exp leaves its fast path below about
# -708, and e^-700 (about 1e-304) is already nothing next to any other term.
_MIN_EXPONENT = -700.0

# The length-scale floor (standardized-input units) excludes the degenerate
# maximum-likelihood mode that memorises noise at the inducing points; the
# regression route presumes a conditional mean smoother than that anyway.
_LOG_BOUNDS = {
    "length": (math.log(5e-2), math.log(1e3)),
    "signal": (math.log(1e-6), math.log(1e3)),
    "noise": (math.log(1e-9), math.log(1e3)),
}


@dataclass(frozen=True)
class GpHyperparameters:
    """Kernel settings: length scales are in standardized-input units,
    variances in (net-benefit) response units."""

    length_scales: tuple[float, ...]
    signal_var: float
    noise_var: float

    def __post_init__(self):
        ls = tuple(float(v) for v in self.length_scales)
        if any(not (v > 0 and math.isfinite(v)) for v in ls):
            raise ValueError(f"length scales must be positive and finite, got {ls}")
        if not (self.signal_var > 0 and math.isfinite(self.signal_var)):
            raise ValueError(f"signal variance must be > 0, got {self.signal_var}")
        if not (self.noise_var >= 0 and math.isfinite(self.noise_var)):
            raise ValueError(f"noise variance must be >= 0, got {self.noise_var}")
        object.__setattr__(self, "length_scales", ls)


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported at the first hyperparameter
    search."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def _kernel(x1: np.ndarray, x2: np.ndarray, ls, sf2: float) -> np.ndarray:
    """Squared-exponential cross-covariance, shape (n1, n2)."""
    out = np.subtract.outer(x1[:, 0], x2[:, 0])
    np.square(out, out=out)
    out *= -0.5 / ls[0] ** 2
    for i in range(1, x1.shape[1]):
        tmp = np.subtract.outer(x1[:, i], x2[:, i])
        np.square(tmp, out=tmp)
        tmp *= -0.5 / ls[i] ** 2
        out += tmp
    np.maximum(out, _MIN_EXPONENT, out=out)
    np.exp(out, out=out)
    out *= sf2
    return out


class _MarginalLikelihood:
    """Negative log marginal likelihood with gradient, over log-parameters
    (log length scales, log signal variance, log noise variance).

    All (n, n) intermediates live in buffers allocated once, so repeated
    optimizer calls do no large allocations.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.n, self.d = x.shape
        self.y = np.ascontiguousarray(y)
        self.sq = [
            np.asfortranarray((x[:, i : i + 1] - x[:, i : i + 1].T) ** 2)
            for i in range(self.d)
        ]
        n = self.n
        self._ks = np.empty((n, n), order="F")
        self._kf = np.empty((n, n), order="F")
        self._w = np.empty((n, n), order="F")
        self._log2pi_term = 0.5 * n * math.log(2.0 * math.pi)
        self.evaluations = 0

    def median_heuristic(self) -> np.ndarray:
        off = np.tril_indices(self.n, -1)
        ls = np.sqrt(np.array([np.median(sq[off]) for sq in self.sq]))
        ls[~(ls > 0)] = 1.0
        return ls

    def __call__(self, theta: np.ndarray):
        from scipy.linalg import cholesky, solve_triangular
        from scipy.linalg.lapack import dpotri

        self.evaluations += 1
        d, n = self.d, self.n
        ls2 = np.exp(2.0 * theta[:d])
        sf2 = math.exp(theta[d])
        sn2 = math.exp(theta[d + 1])
        ks, kf = self._ks, self._kf

        np.multiply(self.sq[0], -0.5 / ls2[0], out=ks)
        for i in range(1, d):
            np.multiply(self.sq[i], -0.5 / ls2[i], out=self._w)
            ks += self._w
        np.maximum(ks, _MIN_EXPONENT, out=ks)
        np.exp(ks, out=ks)
        ks *= sf2
        np.einsum("ii->i", ks)[...] += JITTER_FACTOR * sf2

        np.copyto(kf, ks)
        np.einsum("ii->i", kf)[...] += sn2
        try:
            chol = cholesky(kf, lower=True, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError:
            return np.inf, np.zeros_like(theta)

        half = solve_triangular(chol, self.y, lower=True, check_finite=False)
        quad = float(half @ half)
        logdet = float(np.log(np.einsum("ii->i", chol)).sum())
        nlml = 0.5 * quad + logdet + self._log2pi_term
        alpha = solve_triangular(chol, half, lower=True, trans="T", check_finite=False)

        # Kinv, in the lower triangle only: dpotri writes no other entry, and
        # the upper triangle keeps the zeros that cholesky left there.
        kf, info = dpotri(chol, lower=1, overwrite_c=1)
        if info != 0:
            return np.inf, np.zeros_like(theta)
        self._kf = kf

        # Rasmussen & Williams (2006), eq. 5.9: d nlml / d theta_j is
        # -1/2 sum((alpha alpha^T - Kinv) * dK_j), dK_j being sn2 I or K_s
        # times a symmetric factor.  With Kinv's strict lower triangle counted
        # twice, w is half that weight matrix, so each term is -sum(w * dK_j).
        w = self._w
        np.multiply.outer(0.5 * alpha, alpha, out=w)
        np.einsum("ii->i", kf)[...] *= 0.5
        w -= kf
        grad = np.empty(d + 2)
        grad[d + 1] = -sn2 * float(np.einsum("ii->", w))
        w *= ks
        w_flat = w.ravel("K")
        for i in range(d):
            grad[i] = -float(np.vdot(w_flat, self.sq[i].ravel("K"))) / ls2[i]
        grad[d] = -float(w_flat.sum())
        return nlml, grad


def _lbfgsb(objective: _MarginalLikelihood, theta0: np.ndarray, bounds: list):
    """One bounded L-BFGS-B descent of ``objective`` from ``theta0`` (clipped
    into the bounds), or None when it raises or ends non-finite."""
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    try:
        res = minimize(
            objective,
            np.clip(theta0, lo, hi),
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": 60, "maxfun": 80},
        )
    except (np.linalg.LinAlgError, ValueError):
        return None
    return res if math.isfinite(float(res.fun)) else None


def _fit_hyperparameters(x: np.ndarray, y: np.ndarray, coarse: np.ndarray):
    """Two-level L-BFGS-B ascent of the log marginal likelihood of (x, y).

    Returns the log-parameters and the search record.  The coarse level
    runs one descent on the rows ``coarse`` of x and y, from
    median-heuristic length scales, signal variance var(y) and noise
    variance var(y)/5.  When that descent raises or ends non-finite, its
    start stands in (``fallback_median_heuristic``).

    When ``coarse`` leaves rows out, the polish then runs one L-BFGS-B
    descent on all rows from the coarse optimum (no polish follows the
    fallback).  A polish that raises or ends non-finite keeps the coarse
    optimum.  Either way ``log_marginal_likelihood`` is that of all rows.

    The record gives the row count and the number of likelihood
    evaluations of each level, coarse first (``search_rows``,
    ``likelihood_evaluations``), and whether the polish converged
    (``polish_converged``: None when none ran).
    """
    d = x.shape[1]
    bounds = (
        [_LOG_BOUNDS["length"]] * d + [_LOG_BOUNDS["signal"], _LOG_BOUNDS["noise"]]
    )
    objective = _MarginalLikelihood(x[coarse], y[coarse])
    var_y = float(y[coarse].var())
    theta0 = np.concatenate([
        np.log(objective.median_heuristic()),
        [math.log(max(var_y, 1e-6)), math.log(max(0.2 * var_y, 1e-6))],
    ])
    res = _lbfgsb(objective, theta0, bounds)
    fallback = res is None
    if fallback:
        warnings.warn(
            "GP hyperparameter search failed; "
            "falling back to median-heuristic length scales"
        )
        theta, nlml = theta0, math.nan
    else:
        theta, nlml = res.x, float(res.fun)

    rows = [int(coarse.size)]
    evaluations = [objective.evaluations]
    converged = None
    if coarse.size < x.shape[0]:
        objective = _MarginalLikelihood(x, y)
        rows.append(int(x.shape[0]))
        evaluations.append(0)
        if not fallback:
            res = _lbfgsb(objective, theta, bounds)
            converged = res is not None and bool(res.success)
            if res is None:
                nlml = math.nan
            else:
                theta, nlml = res.x, float(res.fun)
    if not math.isfinite(nlml):  # the fallback, or a failed polish
        nlml = float(objective(theta)[0])
    evaluations[-1] = objective.evaluations
    return theta, {
        "log_marginal_likelihood": -nlml,
        "fallback_median_heuristic": fallback,
        "search_rows": rows,
        "likelihood_evaluations": evaluations,
        "polish_converged": converged,
    }


def _posterior_mean(
    x_all: np.ndarray,
    y: np.ndarray,
    subsample: np.ndarray,
    ls: np.ndarray,
    sf2: float,
    sn2: float,
) -> tuple[np.ndarray, int]:
    """Subset-of-regressors posterior mean at all rows, and the number of
    subsample rows the pivoted Cholesky kept as inducing points (see the
    module docstring).
    """
    from scipy.linalg import cho_factor, cho_solve, solve_triangular
    from scipy.linalg.blas import dsyrk
    from scipy.linalg.lapack import dpstrf

    n_rows = x_all.shape[0]
    x_sub = x_all[subsample]
    # the kernel matrix is symmetric, so its F-contiguous transpose is
    # factored in place; info > 0 only reports the rank deficiency
    k_uu = _kernel(x_sub, x_sub, ls, sf2)
    c, piv, rank, _ = dpstrf(k_uu.T, tol=JITTER_FACTOR * sf2, lower=1, overwrite_a=1)
    x_ind = x_sub[piv[:rank] - 1]
    l_uu = np.tril(c[:rank, :rank])

    # V = L^{-1} K_ux, one r x chunk block at a time
    vvt = np.empty((rank, rank), order="F")
    vy = np.zeros(rank)
    for i, rows in enumerate(_row_chunks(n_rows)):
        k_xu = _kernel(x_all[rows], x_ind, ls, sf2)
        v = solve_triangular(
            l_uu, k_xu.T, lower=True, overwrite_b=True, check_finite=False
        )
        # lower triangle of sum V V^T; the factorization reads lower only
        vvt = dsyrk(1.0, v, beta=float(i > 0), c=vvt, overwrite_c=1, lower=1)
        vy += v @ y[rows]

    np.einsum("ii->i", vvt)[...] += sn2 + JITTER_FACTOR * sf2
    # the upper triangle was never written and may hold any bits, so the
    # solve must not check the whole factor for finiteness
    z = cho_solve(
        cho_factor(vvt, lower=True, overwrite_a=True, check_finite=False),
        vy,
        check_finite=False,
    )

    # prediction at the sample rows: K_xu L^{-T} z
    weights = solve_triangular(l_uu, z, lower=True, trans="T", check_finite=False)
    out = np.empty(n_rows)
    for rows in _row_chunks(n_rows):
        out[rows] = _kernel(x_all[rows], x_ind, ls, sf2) @ weights
    return out, rank


def gp_fit_detail(
    sample: PsaSample,
    subset: ParamSubset,
    t: int,
    seed: int = 0,
    hyperparameters: GpHyperparameters | None = None,
) -> tuple[np.ndarray, dict]:
    """Posterior-mean fitted column plus fit diagnostics.

    Deterministic given (sample, subset, seed).  Supplying
    ``hyperparameters`` skips the marginal-likelihood search and fits with
    the given kernel.  A searched fit's record also carries the search
    record of :func:`_fit_hyperparameters` (``search_rows``,
    ``likelihood_evaluations``, ``polish_converged``); a fixed-kernel
    record reports no log marginal likelihood and none of those, and a
    constant column's record says ``constant_response`` only.
    """
    x = _standardized_params(sample, subset)
    if not 0 <= t < sample.n_treatments:
        raise ValueError(f"treatment index {t} out of range (T={sample.n_treatments})")

    y_raw = sample.nb[:, t]
    y_mean = float(y_raw.mean())
    y_sd = float(y_raw.std())
    n_rows = sample.n_sims
    if y_sd == 0.0:
        info = {"constant_response": True, "residual_var": 0.0}
        return np.full(n_rows, y_mean), info

    y = (y_raw - y_mean) / y_sd

    perm = np.random.default_rng(seed).permutation(n_rows)
    subsample = np.sort(perm[: min(n_rows, N_HYPER_ROWS)])

    # load scipy's OpenBLAS before the scope opens, so that the scope sets it
    import scipy.linalg

    search = {"log_marginal_likelihood": None, "fallback_median_heuristic": False}
    with one_blas_thread():
        if hyperparameters is None:
            # positions in the sorted subsample of its first N_COARSE_ROWS draws
            coarse = np.searchsorted(subsample, np.sort(perm[:N_COARSE_ROWS]))
            theta, search = _fit_hyperparameters(x[subsample], y[subsample], coarse)
            d = x.shape[1]
            ls = np.exp(theta[:d])
            sf2 = math.exp(theta[d])
            sn2 = math.exp(theta[d + 1])
        else:
            if len(hyperparameters.length_scales) != x.shape[1]:
                raise ValueError(
                    f"{len(hyperparameters.length_scales)} length scales for "
                    f"{x.shape[1]} subset dimensions"
                )
            ls = np.asarray(hyperparameters.length_scales)
            sf2 = hyperparameters.signal_var / y_sd**2
            sn2 = hyperparameters.noise_var / y_sd**2
        fitted, n_inducing = _posterior_mean(x, y, subsample, ls, sf2, sn2)
    fitted = fitted * y_sd + y_mean

    info = {
        "length_scales": [float(v) for v in ls],
        "signal_var": float(sf2 * y_sd**2),
        "noise_var": float(sn2 * y_sd**2),
        "residual_var": float(sn2 * y_sd**2),
        "n_hyper_rows": int(subsample.size),
        "n_inducing": int(n_inducing),
        **search,
    }
    return fitted, info


def _record_hyperparameters(info: dict) -> GpHyperparameters | None:
    """The kernel a ``gp_fit_detail`` record settled on, to refit with, or
    None for a constant column's record: its refit returns the column mean
    and reads no kernel."""
    if info.get("constant_response"):
        return None
    return GpHyperparameters(
        tuple(info["length_scales"]), info["signal_var"], info["noise_var"]
    )
