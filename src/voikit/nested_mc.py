"""Two-level Monte Carlo EVPPI against a generative model.

This is the reference estimator the fast sample-based methods are compared
to: for each outer draw of the parameters of interest, an inner batch of
conditional draws of the remaining parameters estimates the conditional
expected net benefit per treatment; the best of those is averaged over the
outer draws, and the best overall mean is subtracted.  The model supplies
exact conditional sampling, so unlike a posterior-simulation inner loop the
only error is Monte Carlo noise, which is reported from the spread of the
per-outer maxima.
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence

import numpy as np

from .psa import EstimationError, EvppiEstimate, ParamSubset

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

    With ``n_inner=1`` the inner mean degenerates to a single draw and the
    estimate is the plug-in full-information value, biased high; the
    diagnostics flag this.
    """
    if n_outer < 2:
        raise ValueError(f"need at least 2 outer draws, got {n_outer}")
    if n_inner < 1:
        raise ValueError(f"need at least 1 inner draw, got {n_inner}")
    subset.validate_against(len(model.param_names))
    idx = list(subset.indices)

    outer_theta = model.sample_joint(n_outer, np.random.default_rng([seed, 0]))
    inner_means = np.empty((n_outer, model.n_treatments))
    nb_scale = 0.0
    for i in range(n_outer):
        rng_i = np.random.default_rng([seed, 1 + i])
        try:
            theta = model.sample_conditional(idx, outer_theta[i, idx], n_inner, rng_i)
            nb = np.atleast_2d(model.net_benefit(theta, k))
        except Exception as exc:
            raise EstimationError(
                f"model evaluation failed at outer draw {i} "
                f"(phi={outer_theta[i, idx].tolist()}): {exc}"
            ) from exc
        inner_means[i] = nb.mean(axis=0)
        nb_scale = max(nb_scale, float(np.max(np.abs(nb))))

    maxima = inner_means.max(axis=1)
    grand = inner_means.mean(axis=0)
    value = float(maxima.mean() - grand.max())
    se = float(np.std(maxima, ddof=1) / math.sqrt(n_outer))

    diag = {
        "n_outer": int(n_outer),
        "n_inner": int(n_inner),
        "mc_se": se,
        "grand_means": grand.tolist(),
    }
    if n_inner == 1:
        diag["biased_high"] = True
    return EvppiEstimate.clamped(
        value, "MC", nb_scale=nb_scale, std_error=se, diagnostics=diag
    )
