"""Two-level Monte Carlo EVPPI against a generative model.

This is the reference estimator the fast sample-based methods are compared
to: for each outer draw of the parameters of interest, an inner batch of
conditional draws of the remaining parameters estimates the conditional
expected net benefit per treatment, and the estimate is the EVPI formula
applied to those inner means.  The model supplies exact conditional
sampling, so unlike a posterior-simulation inner loop the only error is
Monte Carlo noise, which is reported from the spread of the per-outer
maxima.
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence

import numpy as np

from .psa import EstimationError, EvppiEstimate, ParamSubset, evpi

__all__ = ["GenerativeModel", "nested_mc_evppi"]


class GenerativeModel(Protocol):
    """Capabilities a model must offer to drive the nested estimator."""

    param_names: Sequence[str]
    n_treatments: int

    def sample_joint(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n draws of the full parameter vector, shape (n, P)."""

    def sample_conditional(
        self, indices: Sequence[int], values: Sequence[float], n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """n draws of the full vector with the given components pinned."""

    def net_benefit(self, theta: np.ndarray, k: float) -> np.ndarray:
        """Net benefit per treatment for each parameter row, shape (n, T)."""


def nested_mc_evppi(
    model: GenerativeModel,
    subset: ParamSubset,
    k: float,
    n_outer: int,
    n_inner: int,
    seed: int = 0,
) -> EvppiEstimate:
    """Two-level Monte Carlo estimate of the value of learning ``subset``.

    Fully deterministic given (seed, n_outer, n_inner): the outer draws use
    a generator seeded with (seed, 0) and outer iteration i derives its
    inner randomness from (seed, 1 + i), so outer iterations could run in
    any order (or in parallel) without changing the result.

    The value is ``evpi`` of the n_outer x T matrix of inner means: a mean
    of per-outer-draw terms that are each >= 0, so it is >= 0 exactly.

    The max over noisy inner means biases the estimate upward by
    O(1/n_inner).  Splitting each inner batch into halves of floor(n/2) and
    ceil(n/2) rows estimates that bias with no extra model runs (the
    antithetic difference of Giles & Goda, Stat Comput 29, 2019):
    ``diagnostics["inner_bias"]`` is the mean over outer draws of the mean of
    the two half-batch maxima minus the full-batch maximum, positive when
    the estimate is biased high.  With ``n_inner=1`` the inner mean
    degenerates to a single draw and the estimate is the plug-in
    full-information value; the diagnostics flag it ``biased_high`` instead.

    A model that raises, or returns a net benefit that is not a finite
    (n_inner, T) array, fails with an ``EstimationError`` naming the outer
    draw and its phi.
    """
    if n_outer < 2:
        raise ValueError(f"need at least 2 outer draws, got {n_outer}")
    if n_inner < 1:
        raise ValueError(f"need at least 1 inner draw, got {n_inner}")
    subset.validate_against(len(model.param_names))
    idx = list(subset.indices)

    outer_theta = model.sample_joint(n_outer, np.random.default_rng([seed, 0]))
    inner_means = np.empty((n_outer, model.n_treatments))
    half = n_inner // 2
    half_sums = np.empty((n_outer, 2, model.n_treatments))
    shape = (n_inner, model.n_treatments)

    def failure(i, reason) -> EstimationError:
        return EstimationError(
            f"model evaluation failed at outer draw {i} "
            f"(phi={outer_theta[i, idx].tolist()}): {reason}"
        )

    for i in range(n_outer):
        rng_i = np.random.default_rng([seed, 1 + i])
        try:
            theta = model.sample_conditional(idx, outer_theta[i, idx], n_inner, rng_i)
            nb = np.atleast_2d(model.net_benefit(theta, k))
            if nb.shape != shape:
                raise ValueError(f"net benefit has shape {nb.shape}, expected {shape}")
        except Exception as exc:
            raise failure(i, exc) from exc
        if half:
            # +inf and -inf in one half sum to nan; the check after the
            # loop names the draw, so the reduce need not warn first
            with np.errstate(invalid="ignore"):
                half_sums[i] = np.add.reduceat(nb, (0, half), axis=0)
        else:
            inner_means[i] = nb[0]

    if half:
        # the inner mean is the sum of the two half sums over n_inner
        inner_means = half_sums.sum(axis=1) / n_inner
    # a non-finite entry of a draw's net benefit leaves its inner mean
    # non-finite; one check over all draws costs less than one per draw
    bad = np.flatnonzero(~np.isfinite(inner_means).all(axis=1))
    if bad.size:
        raise failure(int(bad[0]), "net benefit is not finite")
    maxima = inner_means.max(axis=1)
    grand = inner_means.mean(axis=0)
    value = evpi(inner_means)
    se = float(np.std(maxima, ddof=1) / math.sqrt(n_outer))

    diag = {
        "n_outer": int(n_outer),
        "n_inner": int(n_inner),
        "mc_se": se,
        "grand_means": grand.tolist(),
    }
    if half:
        half_means = half_sums / np.array([half, n_inner - half])[:, None]
        half_maxima = half_means.max(axis=2).mean(axis=1)
        diag["inner_bias"] = float(np.mean(half_maxima - maxima))
    else:
        diag["biased_high"] = True
    return EvppiEstimate(value, "MC", std_error=se, diagnostics=diag)
