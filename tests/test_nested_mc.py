"""Two-level Monte Carlo estimator against the generative-model contract."""

import math
import re

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
    # each term of the value is a best inner mean minus itself: exactly +0.0
    for seed in range(8):
        for n_inner in (1, 20):
            est = nested_mc_evppi(
                _EqualArmsModel(), ParamSubset.of(0), 0.0, 200, n_inner, seed=seed
            )
            assert est.value == 0.0 and math.copysign(1.0, est.value) == 1.0


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
    assert "inner_bias" not in est.diagnostics
    target = linear_gaussian_oracle(lin_spec, "both")
    assert abs(est.value - target) <= 3 * est.std_error + 0.01


def test_inner_bias_falls_as_one_over_inner_size(lin_spec):
    # the half-batch estimate of an O(1/n_inner) bias: 4x smaller at 32 than at 8
    model = LinearGaussianModel(lin_spec)
    mean_bias = {
        n: np.mean([
            nested_mc_evppi(model, ParamSubset.of(0), 0.0, 2_000, n, seed=s)
            .diagnostics["inner_bias"]
            for s in range(5)
        ])
        for n in (8, 32)
    }
    assert mean_bias[32] > 0.0  # the estimate is biased high
    assert 2.5 <= mean_bias[8] / mean_bias[32] <= 6.0


def test_inner_bias_vanishes_with_nothing_left_to_draw(lin_spec):
    model = LinearGaussianModel(lin_spec)
    est = nested_mc_evppi(model, ParamSubset.of(0, 1), 0.0, 200, 7, seed=8)
    assert abs(est.diagnostics["inner_bias"]) <= 1e-12


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


class _NanTailModel(LinearGaussianModel):
    """Net benefit is NaN where phi > 2.5."""

    def net_benefit(self, theta, k=None):
        nb = super().net_benefit(theta, k)
        nb[theta[:, 0] > 2.5] = np.nan
        return nb


class _OneArmModel(LinearGaussianModel):
    """Returns only arm 1's net benefit, shape (n,) instead of (n, 2)."""

    def net_benefit(self, theta, k=None):
        return super().net_benefit(theta, k)[:, 1]


def test_non_finite_net_benefit_names_the_outer_draw(lin_spec):
    model = _NanTailModel(lin_spec)
    phi = model.sample_joint(400, np.random.default_rng([0, 0]))[:, 0]
    i = int(np.argmax(phi > 2.5))
    assert phi[i] > 2.5
    with pytest.raises(EstimationError, match="^" + re.escape(
        f"model evaluation failed at outer draw {i} (phi=[{float(phi[i])!r}]): "
        "net benefit is not finite"
    )):
        nested_mc_evppi(model, ParamSubset.of(0), 0.0, 400, 20, seed=0)


@pytest.mark.parametrize("n_inner", [1, 20])
def test_net_benefit_of_the_wrong_shape_is_rejected(lin_spec, n_inner):
    # (n_inner,) used to broadcast into both arms and give 0.0
    with pytest.raises(EstimationError, match=(
        rf"^model evaluation failed at outer draw 0 .*: net benefit has shape "
        rf"\(1, {n_inner}\), expected \({n_inner}, 2\)$"
    )):
        nested_mc_evppi(_OneArmModel(lin_spec), ParamSubset.of(0), 0.0, 400, n_inner,
                        seed=0)


def test_size_validation(lin_spec):
    model = LinearGaussianModel(lin_spec)
    with pytest.raises(ValueError, match="outer"):
        nested_mc_evppi(model, ParamSubset.of(0), 0.0, 1, 10)
    with pytest.raises(ValueError, match="inner"):
        nested_mc_evppi(model, ParamSubset.of(0), 0.0, 10, 0)
