"""Gaussian-process smoothing of net benefit on parameters.

Zero-mean GP on standardized inputs and centered response with a
squared-exponential kernel (one length scale per dimension) and a nugget
absorbing the conditional-expectation residual.  Hyperparameters maximise
the exact log marginal likelihood on a seeded subsample of at most 500
rows, which bounds the cubic factorisation cost; the posterior mean at all
S inputs then treats that subsample as an inducing set (subset-of-
regressors), so every row still informs the fit through the projected
cross-covariances.  When S is at most the subsample size this reduces to
the exact GP posterior mean.

The marginal-likelihood objective is evaluated a few hundred times per
fit, so it reuses preallocated buffers and in-place LAPACK calls instead
of building fresh kernel matrices each step.

scipy is imported inside the functions that call it, so importing voikit
(and running a command that fits no GP) does not load it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .psa import ParamSubset, PsaSample

__all__ = ["GpHyperparameters", "gp_fit_detail"]

N_HYPER_ROWS = 500
N_RESTARTS = 5
JITTER_FACTOR = 1e-8
_PREDICT_CHUNK = 20_000

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
        self._dk = np.empty((n, n), order="F")
        self._tmp = np.empty((n, n), order="F")
        self._strict_lower = np.tril(np.ones((n, n), dtype=bool), -1)
        self._log2pi_term = 0.5 * n * math.log(2.0 * math.pi)

    def median_heuristic(self) -> np.ndarray:
        off = self._strict_lower
        ls = np.sqrt(np.array([np.median(sq[off]) for sq in self.sq]))
        ls[~(ls > 0)] = 1.0
        return ls

    def _trace_product(self, sym: np.ndarray) -> float:
        """sum(Kinv * sym) with Kinv held lower-triangular in _kf."""
        np.multiply(self._kf, sym, out=self._tmp)
        off = float(np.sum(self._tmp, where=self._strict_lower))
        return 2.0 * off + float(np.einsum("ii->", self._tmp))

    def __call__(self, theta: np.ndarray):
        from scipy.linalg import cholesky, solve_triangular
        from scipy.linalg.lapack import dpotri

        d, n = self.d, self.n
        ls2 = np.exp(2.0 * theta[:d])
        sf2 = math.exp(theta[d])
        sn2 = math.exp(theta[d + 1])
        ks, kf = self._ks, self._kf

        np.multiply(self.sq[0], -0.5 / ls2[0], out=ks)
        for i in range(1, d):
            np.multiply(self.sq[i], -0.5 / ls2[i], out=self._tmp)
            ks += self._tmp
        np.exp(ks, out=ks)
        ks *= sf2

        np.copyto(kf, ks)
        np.einsum("ii->i", kf)[...] += sn2 + JITTER_FACTOR * sf2
        try:
            chol = cholesky(kf, lower=True, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError:
            return np.inf, np.zeros_like(theta)

        half = solve_triangular(chol, self.y, lower=True, check_finite=False)
        quad = float(half @ half)
        logdet = float(np.log(np.einsum("ii->i", chol)).sum())
        nlml = 0.5 * quad + logdet + self._log2pi_term
        alpha = solve_triangular(chol, half, lower=True, trans="T", check_finite=False)

        # Kinv, in the lower triangle only (the upper stays stale).
        kf, info = dpotri(chol, lower=1, overwrite_c=1)
        if info != 0:
            return np.inf, np.zeros_like(theta)
        self._kf = kf

        grad = np.empty(d + 2)
        dk = self._dk
        for i in range(d):
            np.multiply(ks, self.sq[i], out=dk)
            dk *= 1.0 / ls2[i]
            a_quad = float(alpha @ dk @ alpha)
            grad[i] = -0.5 * (a_quad - self._trace_product(dk))
        a_quad = float(alpha @ ks @ alpha)
        grad[d] = -0.5 * (a_quad - self._trace_product(ks))
        trace_kinv = float(np.einsum("ii->", kf))
        grad[d + 1] = -0.5 * sn2 * (float(alpha @ alpha) - trace_kinv)
        return nlml, grad


def _fit_hyperparameters(x: np.ndarray, y: np.ndarray, rng: np.random.Generator):
    """Multi-start L-BFGS-B ascent of the log marginal likelihood."""
    d = x.shape[1]
    objective = _MarginalLikelihood(x, y)
    ls0 = objective.median_heuristic()
    var_y = float(y.var())
    log_sf0 = math.log(max(var_y, 1e-6))
    log_sn0 = math.log(max(0.2 * var_y, 1e-6))

    starts = [np.concatenate([np.log(ls0), [log_sf0, log_sn0]])]
    for _ in range(N_RESTARTS - 1):
        starts.append(
            np.concatenate(
                [
                    np.log(ls0) + rng.normal(0.0, 1.0, size=d),
                    [log_sf0 + rng.normal(0.0, 1.0), log_sn0 + rng.normal(0.0, 1.5)],
                ]
            )
        )
    bounds = (
        [_LOG_BOUNDS["length"]] * d + [_LOG_BOUNDS["signal"], _LOG_BOUNDS["noise"]]
    )
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])

    best = None
    for theta0 in starts:
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
            continue
        if not np.isfinite(res.fun):
            continue
        if best is None or res.fun < best.fun:
            best = res

    if best is None:
        warnings.warn(
            "GP hyperparameter search failed for every restart; "
            "falling back to median-heuristic length scales"
        )
        theta = np.concatenate(
            [np.log(ls0), [log_sf0, math.log(max(0.5 * var_y, 1e-6))]]
        )
        nlml, _ = objective(theta)
        return theta, -nlml, True

    return best.x, -float(best.fun), False


def _posterior_mean(
    x_all: np.ndarray,
    y: np.ndarray,
    inducing: np.ndarray,
    ls: np.ndarray,
    sf2: float,
    sn2: float,
) -> np.ndarray:
    """Subset-of-regressors posterior mean at all rows.

    With the inducing set equal to the full input set this is exactly the
    GP posterior mean.  Cross-covariances are processed in row chunks so
    memory stays bounded for very large samples.
    """
    from scipy.linalg import cho_factor, cho_solve, cholesky, solve_triangular
    from scipy.linalg.blas import dsyrk

    n_rows = x_all.shape[0]
    m = inducing.size
    x_ind = x_all[inducing]
    # symmetric matrices are passed as F-contiguous transposed views so the
    # LAPACK calls run in place instead of copying
    k_uu = _kernel(x_ind, x_ind, ls, sf2)
    np.einsum("ii->i", k_uu)[...] += JITTER_FACTOR * sf2
    l_uu = cholesky(k_uu.T, lower=True, overwrite_a=True, check_finite=False)

    def _v_chunk(start, stop):
        # V = L^{-1} K_ux, solved in place
        k_xu = _kernel(x_all[start:stop], x_ind, ls, sf2)
        return solve_triangular(
            l_uu, k_xu.T, lower=True, overwrite_b=True, check_finite=False
        )

    single = n_rows <= _PREDICT_CHUNK
    vvt = np.empty((m, m), order="F")
    vy = np.zeros(m)
    kept_v = None
    for i, start in enumerate(range(0, n_rows, _PREDICT_CHUNK)):
        stop = min(start + _PREDICT_CHUNK, n_rows)
        v = _v_chunk(start, stop)
        if single:
            kept_v = v
        # lower triangle of sum V V^T; the factorization reads lower only
        vvt = dsyrk(1.0, v, beta=float(i > 0), c=vvt, overwrite_c=1, lower=1)
        vy += v @ y[start:stop]

    np.einsum("ii->i", vvt)[...] += max(sn2, 1e-10 * sf2)
    z = cho_solve(
        cho_factor(vvt, lower=True, overwrite_a=True, check_finite=False), vy
    )

    # prediction at the sample rows: K_xu L^{-T} z = V^T z
    if single:
        return z @ kept_v
    out = np.empty(n_rows)
    for start in range(0, n_rows, _PREDICT_CHUNK):
        stop = min(start + _PREDICT_CHUNK, n_rows)
        out[start:stop] = z @ _v_chunk(start, stop)
    return out


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
    the given kernel.
    """
    subset.validate_against(sample.n_params)
    if not 0 <= t < sample.n_treatments:
        raise ValueError(f"treatment index {t} out of range (T={sample.n_treatments})")

    y_raw = sample.nb[:, t]
    y_mean = float(y_raw.mean())
    y_sd = float(y_raw.std())
    n_rows = sample.n_sims
    if y_sd == 0.0:
        info = {"constant_response": True, "residual_var": 0.0}
        return np.full(n_rows, y_mean), info

    phi = sample.params[:, list(subset.indices)]
    sd = phi.std(axis=0)
    if np.any(sd == 0):
        bad = [sample.param_names[subset.indices[i]] for i in np.where(sd == 0)[0]]
        raise ValueError(f"constant parameter column(s) {bad} carry no information")
    x = (phi - phi.mean(axis=0)) / sd
    y = (y_raw - y_mean) / y_sd

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_rows)
    subsample = np.sort(perm[: min(n_rows, N_HYPER_ROWS)])

    fallback = False
    lml_report = None
    if hyperparameters is None:
        theta, lml_report, fallback = _fit_hyperparameters(
            x[subsample], y[subsample], rng
        )
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

    fitted = _posterior_mean(x, y, subsample, ls, sf2, sn2)
    fitted = fitted * y_sd + y_mean

    info = {
        "length_scales": [float(v) for v in ls],
        "signal_var": float(sf2 * y_sd**2),
        "noise_var": float(sn2 * y_sd**2),
        "residual_var": float(sn2 * y_sd**2),
        "log_marginal_likelihood": lml_report,
        "n_hyper_rows": int(subsample.size),
        "n_inducing": int(subsample.size),
        "fallback_median_heuristic": fallback,
    }
    return fitted, info

