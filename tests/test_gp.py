"""GP smoothing: posterior-mean algebra, limits, and fit oracles."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from voikit import (
    GpHyperparameters,
    LinearGaussianSpec,
    ParamSubset,
    PsaSample,
    generate_psa,
    gp_fit_detail,
)
from voikit.gp import JITTER_FACTOR, _kernel

from conftest import make_sample


def _sq_diffs(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Per-dimension squared differences, shape (d, n1, n2)."""
    return (x1.T[:, :, None] - x2.T[:, None, :]) ** 2


def _kernel_from_sq(sq: np.ndarray, ls: np.ndarray, sf2: float) -> np.ndarray:
    """Reference squared-exponential kernel from stacked squared differences."""
    return sf2 * np.exp(-0.5 * np.tensordot(1.0 / ls**2, sq, axes=(0, 0)))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_matches_reference(d):
    rng = np.random.default_rng(d)
    x1 = rng.standard_normal((40, d))
    x2 = rng.standard_normal((25, d))
    ls = rng.uniform(0.3, 2.0, size=d)
    got = _kernel(x1, x2, ls, 1.7)
    assert got.shape == (40, 25)
    assert np.allclose(got, _kernel_from_sq(_sq_diffs(x1, x2), ls, 1.7), rtol=1e-12, atol=0)


def test_constant_column_short_circuits():
    nb = np.column_stack([np.full(60, -3.0), np.random.default_rng(0).normal(size=60)])
    sample = make_sample(nb)
    fitted, info = gp_fit_detail(sample, ParamSubset.of(0), 0)
    assert np.all(fitted == -3.0)
    assert info["constant_response"] is True


def test_huge_nugget_shrinks_to_column_mean():
    rng = np.random.default_rng(1)
    phi = rng.standard_normal(400)
    nb1 = 2.0 + 3.0 * phi
    sample = make_sample(np.column_stack([np.zeros(400), nb1]), phi=phi)
    sig = float(nb1.var())
    hp = GpHyperparameters(length_scales=(1.0,), signal_var=sig, noise_var=1e6 * sig)
    fitted = gp_fit_detail(sample, ParamSubset.of(0), 1, hyperparameters=hp)[0]
    max_dev = np.max(np.abs(fitted - nb1.mean()))
    assert max_dev <= 0.01 * np.ptp(nb1)


def test_conditional_mean_rmse_on_linear_gaussian():
    spec = LinearGaussianSpec()
    sample = generate_psa(spec, 10_000, seed=5)
    fitted = gp_fit_detail(sample, ParamSubset.of(0), 1, seed=3)[0]
    true = spec.a + spec.b * sample.params[:, 0]
    rmse = float(np.sqrt(np.mean((fitted - true) ** 2)))
    assert rmse <= 2.0 * spec.c / np.sqrt(sample.n_sims)


def test_small_sample_matches_exact_gp_posterior_mean():
    # with S below the inducing cap the subset-of-regressors route must
    # coincide with the direct (K + noise I)^{-1} posterior mean
    rng = np.random.default_rng(7)
    n = 120
    phi = rng.standard_normal(n)
    y = np.sin(phi) + 0.1 * rng.standard_normal(n)
    sample = make_sample(np.column_stack([np.zeros(n), y]), phi=phi)
    hp = GpHyperparameters(length_scales=(0.8,), signal_var=1.3, noise_var=0.05)
    fitted = gp_fit_detail(sample, ParamSubset.of(0), 1, hyperparameters=hp)[0]

    x = (phi - phi.mean()) / phi.std()
    yc = (y - y.mean()) / y.std()
    sf2 = 1.3 / y.std() ** 2
    sn2 = 0.05 / y.std() ** 2
    k = _kernel_from_sq(_sq_diffs(x[:, None], x[:, None]), np.array([0.8]), sf2)
    k_noise = k + (sn2 + JITTER_FACTOR * sf2) * np.eye(n)
    direct = k @ cho_solve(cho_factor(k_noise, lower=True), yc)
    direct = direct * y.std() + y.mean()
    assert np.allclose(fitted, direct, rtol=1e-6, atol=1e-8)


def test_deterministic_given_seed(lin_sample):
    a = gp_fit_detail(lin_sample, ParamSubset.of(0), 1, seed=4)[0]
    b = gp_fit_detail(lin_sample, ParamSubset.of(0), 1, seed=4)[0]
    assert np.array_equal(a, b)


def test_two_dimensional_subset():
    rng = np.random.default_rng(15)
    params = rng.standard_normal((800, 2))
    truth = params[:, 0] + 0.5 * params[:, 1] ** 2
    y = truth + 0.3 * rng.standard_normal(800)
    sample = PsaSample(
        param_names=("u", "v"),
        params=params,
        nb=np.column_stack([np.zeros(800), y]),
    )
    fitted, info = gp_fit_detail(sample, ParamSubset.of(0, 1), 1, seed=2)
    assert len(info["length_scales"]) == 2
    rmse = float(np.sqrt(np.mean((fitted - truth) ** 2)))
    assert rmse < 0.15


def test_shift_equivariance_with_fixed_kernel():
    sample = generate_psa(LinearGaussianSpec(), 500, seed=9)
    hp = GpHyperparameters(length_scales=(1.5,), signal_var=2.0, noise_var=1.0)
    base = gp_fit_detail(sample, ParamSubset.of(0), 1, hyperparameters=hp)[0]
    shifted = PsaSample(
        param_names=sample.param_names,
        params=sample.params,
        nb=sample.nb + np.array([0.0, -17.0]),
    )
    moved = gp_fit_detail(shifted, ParamSubset.of(0), 1, hyperparameters=hp)[0]
    assert np.allclose(moved, base - 17.0, rtol=1e-9, atol=1e-8)


def test_fallback_on_optimizer_failure(monkeypatch):
    import voikit.gp as gp_mod

    def broken(*args, **kwargs):
        raise ValueError("synthetic optimizer failure")

    monkeypatch.setattr(gp_mod, "minimize", broken)
    sample = generate_psa(LinearGaussianSpec(), 300, seed=2)
    with pytest.warns(UserWarning, match="median-heuristic"):
        fitted, info = gp_fit_detail(sample, ParamSubset.of(0), 1, seed=0)
    assert info["fallback_median_heuristic"] is True
    assert np.all(np.isfinite(fitted))


def test_length_scale_count_checked(lin_sample):
    hp = GpHyperparameters(length_scales=(1.0, 1.0), signal_var=1.0, noise_var=1.0)
    with pytest.raises(ValueError, match="length scales"):
        gp_fit_detail(lin_sample, ParamSubset.of(0), 1, hyperparameters=hp)


def test_bad_treatment_index(lin_sample):
    with pytest.raises(ValueError, match="treatment index"):
        gp_fit_detail(lin_sample, ParamSubset.of(0), 5)


def test_constant_parameter_rejected():
    nb = np.random.default_rng(3).normal(size=(50, 2))
    sample = make_sample(nb, phi=np.zeros(50))
    with pytest.raises(ValueError, match="carry no information"):
        gp_fit_detail(sample, ParamSubset.of(0), 0)


def test_hyperparameter_validation():
    with pytest.raises(ValueError, match="length scales"):
        GpHyperparameters(length_scales=(0.0,), signal_var=1.0, noise_var=1.0)
    with pytest.raises(ValueError, match="signal"):
        GpHyperparameters(length_scales=(1.0,), signal_var=0.0, noise_var=1.0)
    with pytest.raises(ValueError, match="noise"):
        GpHyperparameters(length_scales=(1.0,), signal_var=1.0, noise_var=-1.0)


def test_reported_hyperparameters_in_response_units(lin_sample):
    _, info = gp_fit_detail(lin_sample, ParamSubset.of(0), 1, seed=3)
    # response variance is about b^2 + c^2 = 2; the fitted nugget should
    # absorb roughly the conditional residual variance c^2 = 1
    assert 0.5 < info["noise_var"] < 2.0
    assert info["log_marginal_likelihood"] is not None
    assert info["n_hyper_rows"] == 500
