"""Plug-in regression EVPPI and the shared bootstrap machinery."""

import math

import numpy as np
import pytest

from voikit import (
    BootstrapConfig,
    EstimationError,
    LinearGaussianSpec,
    ParamSubset,
    RegressionFit,
    bootstrap_estimates,
    bootstrap_se,
    evpi,
    fit_regression,
    gam_evppi,
    generate_psa,
    gp_evppi,
    linear_gaussian_oracle,
    regression_evppi,
    so_evppi,
    with_bootstrap,
)

from conftest import make_sample

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _replicate_index(sample, cfg):
    """Maps a bootstrap resample of ``sample`` back to its replicate index."""
    replicate_params = np.stack([
        sample.params[
            np.random.default_rng([cfg.seed, b]).integers(
                0, sample.n_sims, size=sample.n_sims
            )
        ]
        for b in range(cfg.n_replicates)
    ])
    return lambda s: int(
        np.flatnonzero(np.all(s.params == replicate_params, axis=(1, 2)))[0]
    )


def _fit_with(fitted, method="GAM"):
    fitted = np.asarray(fitted, dtype=float)
    return RegressionFit(
        method=method,
        fitted=fitted,
        residual_var=np.zeros(fitted.shape[1]),
        hyperparameters=tuple({} for _ in range(fitted.shape[1])),
    )


class TestRegressionEvppi:
    def test_identical_fitted_columns_give_zero(self):
        col = np.random.default_rng(0).normal(size=30)
        est = regression_evppi(_fit_with(np.column_stack([col, col])))
        assert est.value == 0.0

    def test_interpolating_fit_recovers_full_information_value(self):
        nb = np.random.default_rng(1).normal(size=(100, 3))
        est = regression_evppi(_fit_with(nb))
        assert est.value == evpi(nb)

    def test_linear_gaussian_oracle_both_methods(self, lin_sample, lin_spec):
        target = linear_gaussian_oracle(lin_spec, "phi")
        for method in ("gam", "gp"):
            fit = fit_regression(lin_sample, ParamSubset.of(0), method=method, seed=3)
            est = regression_evppi(fit)
            assert est.value == pytest.approx(target, abs=0.02), method
            assert est.method == method.upper()

    def test_nonnegative_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            fitted = rng.normal(size=(20, 3))
            assert regression_evppi(_fit_with(fitted)).value >= 0.0


class TestRegressionFitValidation:
    def test_method_tag(self):
        with pytest.raises(ValueError, match="GAM or GP"):
            _fit_with(np.zeros((4, 2)), method="OLS")

    def test_non_finite_fitted(self):
        bad = np.zeros((4, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            _fit_with(bad)

    def test_residual_var_shape_and_sign(self):
        with pytest.raises(ValueError, match="residual_var"):
            RegressionFit(
                method="GAM",
                fitted=np.zeros((4, 2)),
                residual_var=np.array([-1.0, 0.0]),
                hyperparameters=({}, {}),
            )

    def test_one_hyperparameter_record_per_treatment(self):
        with pytest.raises(ValueError, match="per treatment"):
            RegressionFit(
                method="GAM",
                fitted=np.zeros((4, 2)),
                residual_var=np.zeros(2),
                hyperparameters=({},),
            )

    def test_unknown_method_in_fit_regression(self, lin_sample):
        with pytest.raises(ValueError, match="'gam' or 'gp'"):
            fit_regression(lin_sample, ParamSubset.of(0), method="forest")


class TestBootstrap:
    def test_config_requires_two_replicates(self):
        with pytest.raises(ValueError, match="at least 2"):
            BootstrapConfig(n_replicates=1)

    def test_constant_estimator_has_zero_se(self, lin_sample):
        se = bootstrap_se(lambda s: 1.25, lin_sample, BootstrapConfig(10, seed=0))
        assert se == 0.0

    def test_identical_rows_force_zero_se(self):
        # every resample of a one-point empirical distribution is identical
        nb = np.tile([[1.0, 2.0]], (20, 1))
        sample = make_sample(nb, phi=np.zeros(20))
        se = bootstrap_se(
            lambda s: float(s.nb.mean()), sample, BootstrapConfig(2, seed=9)
        )
        assert se == 0.0

    def test_deterministic_and_thread_invariant(self, lin_sample):
        def estimator(s):
            return float(s.nb[:, 1].mean())

        cfg = BootstrapConfig(32, seed=7)
        a, _ = bootstrap_estimates(estimator, lin_sample, cfg, n_threads=1)
        b, _ = bootstrap_estimates(estimator, lin_sample, cfg, n_threads=4)
        assert np.array_equal(a, b)

    def test_failed_replicates_skipped_and_counted(self, lin_sample):
        calls = {"n": 0}

        def flaky(s):
            calls["n"] += 1
            if calls["n"] % 10 == 0:
                raise ValueError("synthetic failure")
            return float(s.nb[:, 1].mean())

        values, failures = bootstrap_estimates(
            flaky, lin_sample, BootstrapConfig(20, seed=3)
        )
        assert failures == 2
        assert values.size == 18

        # with_bootstrap also counts the failures by exception class name,
        # in name order, identically at any thread count
        cfg = BootstrapConfig(20, seed=3)
        replicate = _replicate_index(lin_sample, cfg)
        raises = {
            3: np.linalg.LinAlgError, 8: ValueError,
            12: EstimationError, 17: ValueError,
        }

        def typed(s):
            b = replicate(s)
            if b in raises:
                raise raises[b](f"synthetic failure on replicate {b}")
            return so_evppi(s, 0, 20)

        estimate = so_evppi(lin_sample, 0, 20)
        diags = [
            with_bootstrap(estimate, typed, lin_sample, cfg, n_threads).diagnostics
            for n_threads in (1, 4)
        ]
        assert diags[0] == diags[1]
        assert diags[0]["bootstrap_failures"] == 4
        assert len(diags[0]["bootstrap_replicates"]) == 16
        assert diags[0]["bootstrap_failure_types"] == {
            "EstimationError": 1, "LinAlgError": 1, "ValueError": 2,
        }
        for diag in diags:  # dict equality ignores order; the JSON does not
            assert list(diag["bootstrap_failure_types"]) == [
                "EstimationError", "LinAlgError", "ValueError",
            ]

    def test_excessive_failures_abort(self, lin_sample):
        def broken(s):
            raise EstimationError("always down")

        with pytest.raises(EstimationError, match="bootstrap aborted"):
            bootstrap_estimates(broken, lin_sample, BootstrapConfig(10, seed=0))

    def test_programming_errors_propagate(self, lin_sample):
        def buggy(s):
            return s.nb[:, 1].mean() + "oops"

        with pytest.raises(TypeError):
            bootstrap_estimates(buggy, lin_sample, BootstrapConfig(10, seed=0))
        with pytest.raises(TypeError):
            bootstrap_estimates(buggy, lin_sample, BootstrapConfig(10, seed=0), n_threads=3)

    def test_abort_names_and_chains_first_failure(self, lin_sample):
        # replicates 0, 3 and 6 fail: 3 of 10 is over the 20% limit
        def three_in_ten(s):
            b = replicate(s)
            if b % 3 == 0 and b < 9:
                raise ValueError(f"no luck on replicate {b}")
            return float(s.nb[:, 1].mean())

        cfg = BootstrapConfig(10, seed=4)
        replicate = _replicate_index(lin_sample, cfg)
        with pytest.raises(EstimationError) as info:
            bootstrap_estimates(three_in_ten, lin_sample, cfg, n_threads=2)
        message = str(info.value)
        assert "3/10 replicates failed" in message
        assert "ValueError: no luck on replicate 0" in message
        assert isinstance(info.value.__cause__, ValueError)
        assert str(info.value.__cause__) == "no luck on replicate 0"


class TestEstimatorFrontEnds:
    def test_gam_evppi_with_bootstrap_se(self):
        sample = generate_psa(LinearGaussianSpec(), 1_500, seed=21)
        est = gam_evppi(sample, ParamSubset.of(0), bootstrap=BootstrapConfig(40, seed=1))
        assert est.std_error is not None and est.std_error > 0
        assert len(est.diagnostics["bootstrap_replicates"]) == 40
        # the replicate spread should be in the ballpark of the sampling
        # noise of a mean of max(0, N(0,1))-like terms
        assert est.std_error < 0.2

    def test_gp_evppi_with_bootstrap_se(self):
        sample = generate_psa(LinearGaussianSpec(), 1_000, seed=22)
        est = gp_evppi(
            sample, ParamSubset.of(0), seed=3, bootstrap=BootstrapConfig(25, seed=1)
        )
        assert est.std_error is not None and est.std_error > 0

    def test_methods_agree_within_joint_error(self):
        # spline and GP estimates of the same quantity should sit within a
        # couple of joint standard errors of each other
        sample = generate_psa(LinearGaussianSpec(), 2_000, seed=23)
        subset = ParamSubset.of(0)
        gam = gam_evppi(sample, subset, bootstrap=BootstrapConfig(50, seed=2))
        gp = gp_evppi(sample, subset, seed=3, bootstrap=BootstrapConfig(50, seed=2))
        assert abs(gam.value - gp.value) <= 2 * (gam.std_error + gp.std_error)

    def test_null_parameter_has_small_value(self):
        # a parameter column independent of nb should carry almost no value
        spec = LinearGaussianSpec()
        sample = generate_psa(spec, 10_000, seed=24)
        rng = np.random.default_rng(99)
        import voikit

        with_noise = voikit.PsaSample(
            param_names=("phi", "psi", "noise"),
            params=np.column_stack([sample.params, rng.standard_normal(10_000)]),
            nb=sample.nb,
        )
        cap = 0.05 * evpi(sample.nb)
        assert gam_evppi(with_noise, ParamSubset.of(2)).value <= cap
        assert gp_evppi(with_noise, ParamSubset.of(2), seed=3).value <= cap
