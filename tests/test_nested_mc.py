"""Two-level Monte Carlo estimator against the generative-model contract."""

import math

import numpy as np
import pytest

from voikit import (
    EstimationError,
    LinearGaussianModel,
    ParamSubset,
    evpi,
    generate_psa,
    linear_gaussian_oracle,
    nested_mc_evppi,
)

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class _DegenerateModel:
    """NB is constant and identical across treatments."""

    param_names = ("x",)
    n_treatments = 2

    def sample_joint(self, n, rng):
        return rng.normal(size=(n, 1))

    def sample_conditional(self, indices, values, n, rng):
        theta = rng.normal(size=(n, 1))
        for i, v in zip(indices, values):
            theta[:, i] = v
        return theta

    def net_benefit(self, theta, k):
        return np.full((theta.shape[0], 2), 3.0)


class _EqualArmsModel(_DegenerateModel):
    """NB varies with the parameter but is identical across treatments."""

    def net_benefit(self, theta, k):
        col = theta[:, 0]
        return np.column_stack([col, col])


class _BrokenModel(_DegenerateModel):
    def net_benefit(self, theta, k):
        raise RuntimeError("synthetic model failure")


def test_degenerate_model_is_zero_with_zero_se():
    est = nested_mc_evppi(_DegenerateModel(), ParamSubset.of(0), 0.0, 50, 10, seed=1)
    assert est.value == 0.0
    assert est.std_error == 0.0


def test_equal_arms_give_zero_value():
    est = nested_mc_evppi(_EqualArmsModel(), ParamSubset.of(0), 0.0, 200, 20, seed=2)
    assert est.value == 0.0


def test_linear_gaussian_oracle(lin_spec):
    model = LinearGaussianModel(lin_spec)
    est = nested_mc_evppi(model, ParamSubset.of(0), 0.0, 800, 800, seed=3)
    target = linear_gaussian_oracle(lin_spec, "phi")
    # allow the residual upward bias of a finite inner loop on top of MC noise
    assert abs(est.value - target) <= 3 * est.std_error + 0.004
    assert est.method == "MC"
    assert est.diagnostics["n_outer"] == 800


def test_single_inner_draw_degenerates_to_full_information(lin_spec):
    model = LinearGaussianModel(lin_spec)
    est = nested_mc_evppi(model, ParamSubset.of(0), 0.0, 3_000, 1, seed=4)
    assert est.diagnostics["biased_high"] is True
    target = linear_gaussian_oracle(lin_spec, "both")
    assert abs(est.value - target) <= 3 * est.std_error + 0.01


def test_deterministic_given_seed(lin_spec):
    model = LinearGaussianModel(lin_spec)
    a = nested_mc_evppi(model, ParamSubset.of(0), 0.0, 60, 40, seed=5)
    b = nested_mc_evppi(model, ParamSubset.of(0), 0.0, 60, 40, seed=5)
    assert a.value == b.value and a.std_error == b.std_error


def test_upward_bias_shrinks_with_inner_size(lin_spec):
    model = LinearGaussianModel(lin_spec)
    diffs = []
    for seed in range(10):
        small = nested_mc_evppi(model, ParamSubset.of(0), 0.0, 400, 4, seed=seed)
        big = nested_mc_evppi(model, ParamSubset.of(0), 0.0, 400, 400, seed=seed)
        diffs.append((small.value, big.value, big.std_error))
    mean_small = np.mean([d[0] for d in diffs])
    mean_big = np.mean([d[1] for d in diffs])
    mean_se = np.mean([d[2] for d in diffs])
    assert mean_small >= mean_big - 3 * mean_se


def test_full_subset_matches_plain_mc_evpi(lin_spec):
    model = LinearGaussianModel(lin_spec)
    est = nested_mc_evppi(model, ParamSubset.of(0, 1), 0.0, 4_000, 2, seed=6)
    sample = generate_psa(lin_spec, 200_000, seed=7)
    plain = evpi(sample.nb)
    plain_se = float(np.std(sample.nb.max(axis=1), ddof=1) / math.sqrt(200_000))
    assert abs(est.value - plain) <= 3 * (est.std_error + plain_se)


def test_model_failure_reports_draw_coordinates():
    with pytest.raises(EstimationError, match="outer draw 0"):
        nested_mc_evppi(_BrokenModel(), ParamSubset.of(0), 0.0, 10, 5, seed=0)


def test_size_validation(lin_spec):
    model = LinearGaussianModel(lin_spec)
    with pytest.raises(ValueError, match="outer"):
        nested_mc_evppi(model, ParamSubset.of(0), 0.0, 1, 10)
    with pytest.raises(ValueError, match="inner"):
        nested_mc_evppi(model, ParamSubset.of(0), 0.0, 10, 0)
