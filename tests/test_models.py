"""Synthetic models: closed-form oracle, generators, brute-force oracle."""

import dataclasses
import math

import numpy as np
import pytest

from voikit import (
    LinearGaussianModel,
    LinearGaussianSpec,
    NonlinearToyModel,
    NonlinearToySpec,
    ParamSubset,
    brute_force_evppi,
    evpi,
    generate_psa,
    linear_gaussian_oracle,
    model_for,
    nested_mc_evppi,
    spec_from_dict,
    spec_to_dict,
)

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class TestLinearGaussianOracle:
    def test_uninformative_parameter_is_worth_nothing(self):
        spec = LinearGaussianSpec(a=0.5, b=0.0, c=1.0)
        assert linear_gaussian_oracle(spec, "phi") == 0.0

    def test_standard_case_closed_form(self):
        spec = LinearGaussianSpec(a=0.0, b=1.0, c=1.0)
        assert linear_gaussian_oracle(spec, "phi") == pytest.approx(INV_SQRT_2PI)

    def test_symmetric_spec_gives_equal_partial_values(self):
        spec = LinearGaussianSpec(a=0.0, b=1.0, c=1.0)
        assert linear_gaussian_oracle(spec, "phi") == pytest.approx(
            linear_gaussian_oracle(spec, "psi")
        )
        assert linear_gaussian_oracle(spec, "both") == pytest.approx(
            math.sqrt(2.0) * INV_SQRT_2PI
        )

    def test_cross_check_against_plain_mc(self):
        # general spec, including a nonzero nuisance mean
        spec = LinearGaussianSpec(
            a=0.3, b=1.5, c=2.0, mu_phi=-0.2, sigma_phi=0.7, mu_psi=0.5, sigma_psi=1.3
        )
        rng = np.random.default_rng(123)
        n = 1_000_000
        phi = rng.normal(spec.mu_phi, spec.sigma_phi, n)
        # conditional mean of the incremental arm given phi
        inner = spec.a + spec.b * phi + spec.c * spec.mu_psi
        m = spec.a + spec.b * spec.mu_phi + spec.c * spec.mu_psi
        mc = np.maximum(inner, 0.0).mean() - max(0.0, m)
        assert linear_gaussian_oracle(spec, "phi") == pytest.approx(mc, abs=4e-3)

    def test_full_information_dominates_partial(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            spec = LinearGaussianSpec(
                a=rng.normal(), b=rng.normal(), c=rng.normal(),
                mu_phi=rng.normal(), sigma_phi=rng.uniform(0.2, 2),
                mu_psi=rng.normal(), sigma_psi=rng.uniform(0.2, 2),
            )
            both = linear_gaussian_oracle(spec, "both")
            assert both >= linear_gaussian_oracle(spec, "phi") - 1e-12
            assert both >= linear_gaussian_oracle(spec, "psi") - 1e-12
            assert linear_gaussian_oracle(spec, "phi") >= 0.0
            assert linear_gaussian_oracle(spec, "psi") >= 0.0

    def test_linear_scaling(self):
        spec = LinearGaussianSpec(a=0.4, b=1.2, c=0.8)
        lam = 3.5
        scaled = LinearGaussianSpec(a=lam * 0.4, b=lam * 1.2, c=lam * 0.8)
        for subset in ("phi", "psi", "both"):
            assert linear_gaussian_oracle(scaled, subset) == pytest.approx(
                lam * linear_gaussian_oracle(spec, subset)
            )

    def test_unknown_subset(self):
        with pytest.raises(ValueError, match="subset"):
            linear_gaussian_oracle(LinearGaussianSpec(), "theta")

    def test_bad_spec(self):
        with pytest.raises(ValueError, match="sigma"):
            LinearGaussianSpec(sigma_phi=0.0)

    @pytest.mark.parametrize(
        "field", ["a", "b", "c", "mu_phi", "sigma_phi", "mu_psi", "sigma_psi"]
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_is_rejected_by_name(self, field, bad):
        # NaN slips past a "<= 0" check, and the oracle would return nan
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            LinearGaussianSpec(**{field: bad})


class TestGeneratePsa:
    def test_bitwise_determinism(self):
        a = generate_psa(LinearGaussianSpec(), 500, seed=11)
        b = generate_psa(LinearGaussianSpec(), 500, seed=11)
        assert np.array_equal(a.params, b.params)
        assert np.array_equal(a.nb, b.nb)

    def test_different_seeds_differ(self):
        a = generate_psa(LinearGaussianSpec(), 100, seed=1)
        b = generate_psa(LinearGaussianSpec(), 100, seed=2)
        assert not np.array_equal(a.params, b.params)

    def test_reference_arm_is_exactly_zero(self):
        sample = generate_psa(LinearGaussianSpec(), 100, seed=5)
        assert np.all(sample.nb[:, 0] == 0.0)

    def test_clt_mean_check(self):
        spec = LinearGaussianSpec(mu_phi=2.0, sigma_phi=3.0)
        n = 20_000
        sample = generate_psa(spec, n, seed=8)
        assert abs(sample.params[:, 0].mean() - 2.0) < 4 * 3.0 / math.sqrt(n)

    def test_toy_sample_carries_decomposition(self):
        sample = generate_psa(NonlinearToySpec(), 500, seed=2, k=20_000.0)
        assert sample.effects is not None and sample.costs is not None
        assert np.all(np.isfinite(sample.nb))
        probs = sample.params[:, [0, 1, 2]]
        assert np.all((probs > 0) & (probs < 1))
        assert np.all(sample.params[:, 3:] > 0)

    def test_toy_break_even_near_default_wtp(self):
        # defaults are tuned so the mean incremental net benefit crosses
        # zero at k = 20000
        n = 200_000
        sample = generate_psa(NonlinearToySpec(), n, seed=6, k=20_000.0)
        inb = sample.nb[:, 1] - sample.nb[:, 0]
        se = inb.std(ddof=1) / math.sqrt(n)
        assert abs(inb.mean()) < 4 * se + 1.0

    def test_too_few_sims(self):
        with pytest.raises(ValueError, match="at least 2"):
            generate_psa(LinearGaussianSpec(), 1, seed=0)


class TestConditionalConsistency:
    def test_linear_gaussian_conditional_matches_marginal(self):
        spec = LinearGaussianSpec(mu_psi=1.5, sigma_psi=0.5)
        model = LinearGaussianModel(spec)
        rng = np.random.default_rng(0)
        n = 50_000
        theta = model.sample_conditional([0], [0.7], n, rng)
        assert np.all(theta[:, 0] == 0.7)
        psi = theta[:, 1]
        assert abs(psi.mean() - 1.5) < 4 * 0.5 / math.sqrt(n)
        assert abs(psi.std(ddof=1) - 0.5) < 0.01

    def test_toy_conditional_matches_marginal(self):
        spec = NonlinearToySpec()
        model = NonlinearToyModel(spec)
        rng = np.random.default_rng(1)
        n = 100_000
        theta = model.sample_conditional([1, 5], [0.5, 100.0], n, rng)
        assert np.all(theta[:, 1] == 0.5)
        assert np.all(theta[:, 5] == 100.0)
        joint = model.sample_joint(n, np.random.default_rng(2))
        # infection probability column keeps its Beta marginal
        assert abs(theta[:, 0].mean() - joint[:, 0].mean()) < 0.005
        assert abs(theta[:, 0].std() - joint[:, 0].std()) < 0.005


class TestToySpecValidation:
    @pytest.mark.parametrize(
        "field", ["infection_alpha", "cost_vaccine_mean", "qaly_complication_sigma"]
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_field_is_rejected_by_name(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            NonlinearToySpec(**{field: bad})

    def test_negative_lognormal_sigma_is_rejected_by_name(self):
        # numpy would only object later, at the first draw, as "sigma < 0"
        with pytest.raises(ValueError, match="^cost_treatment_sigma must be >= 0"):
            NonlinearToySpec(cost_treatment_sigma=-0.3)

    def test_zero_sigma_is_a_point_mass(self):
        model = NonlinearToyModel(NonlinearToySpec(cost_vaccine_sigma=0.0))
        draws = model._draw_column("cost_vaccine", 5, np.random.default_rng(0))
        assert draws == pytest.approx(np.full(5, 192.0), rel=1e-14)


# every field distinct, so a column that read the wrong field would show
_DISTINCT_TOY = NonlinearToySpec(
    infection_alpha=4.1, infection_beta=6.2, reduction_alpha=5.3, reduction_beta=4.4,
    complication_alpha=2.5, complication_beta=8.6, cost_treatment_mean=210.0,
    cost_treatment_sigma=0.31, cost_complication_mean=1900.0, cost_complication_sigma=0.27,
    cost_vaccine_mean=180.0, cost_vaccine_sigma=0.15, qaly_infection_mean=0.009,
    qaly_infection_sigma=0.33, qaly_complication_mean=0.06, qaly_complication_sigma=0.22,
)
_DISTINCT_LG = LinearGaussianSpec(mu_phi=0.5, sigma_phi=2.0, mu_psi=-1.0, sigma_psi=0.3)


def _reference_draws(s, n, rng, pinned):
    """A spec's draws written out as plain generator calls, column by
    column; ``pinned`` maps a column to its value, which takes no draw."""

    def lognormal(mean, sigma):
        return rng.lognormal(math.log(mean) - sigma * sigma / 2, sigma, size=n)

    if isinstance(s, LinearGaussianSpec):
        draws = [
            lambda: rng.normal(s.mu_phi, s.sigma_phi, size=n),
            lambda: rng.normal(s.mu_psi, s.sigma_psi, size=n),
        ]
    else:
        draws = [
            lambda: rng.beta(s.infection_alpha, s.infection_beta, size=n),
            lambda: rng.beta(s.reduction_alpha, s.reduction_beta, size=n),
            lambda: rng.beta(s.complication_alpha, s.complication_beta, size=n),
            lambda: lognormal(s.cost_treatment_mean, s.cost_treatment_sigma),
            lambda: lognormal(s.cost_complication_mean, s.cost_complication_sigma),
            lambda: lognormal(s.cost_vaccine_mean, s.cost_vaccine_sigma),
            lambda: lognormal(s.qaly_infection_mean, s.qaly_infection_sigma),
            lambda: lognormal(s.qaly_complication_mean, s.qaly_complication_sigma),
        ]
    return np.column_stack([
        np.full(n, pinned[j]) if j in pinned else draw() for j, draw in enumerate(draws)
    ])


# family -> (value, bound) cases for its first and its second spec field
_FAMILY_DOMAINS = {
    "normal": ([], [(0.0, "> 0"), (-1.0, "> 0")]),
    "beta": ([(0.0, "> 0"), (-1.0, "> 0")], [(0.0, "> 0"), (-1.0, "> 0")]),
    "lognormal": ([(0.0, "> 0"), (-1.0, "> 0")], [(-0.1, ">= 0")]),
}
_OUT_OF_DOMAIN = [
    (spec_type, field, value, bound)
    for spec_type, model_type in (
        (LinearGaussianSpec, LinearGaussianModel),
        (NonlinearToySpec, NonlinearToyModel),
    )
    for family, *pair in model_type._columns.values()
    for field, cases in zip(pair, _FAMILY_DOMAINS[family])
    for value, bound in cases
]


class TestColumnTables:
    @pytest.mark.parametrize("spec, pinned", [
        (_DISTINCT_LG, {}),
        (_DISTINCT_LG, {0: 0.7}),
        (_DISTINCT_LG, {1: -2.0}),
        (_DISTINCT_LG, {0: 0.7, 1: -2.0}),
        (_DISTINCT_TOY, {}),
        (_DISTINCT_TOY, {1: 0.5, 5: 100.0}),
        (_DISTINCT_TOY, {0: 0.3, 7: 0.01}),
        (_DISTINCT_TOY, {j: 0.1 * (j + 1) for j in range(8)}),
    ], ids=["lg", "lg-phi", "lg-psi", "lg-both", "toy", "toy-rr,vac", "toy-first,last",
            "toy-all"])
    def test_draws_equal_plain_generator_calls_in_column_order(self, spec, pinned):
        model = model_for(spec)
        expected = _reference_draws(spec, 64, np.random.default_rng(17), pinned)
        if pinned:
            got = model.sample_conditional(
                list(pinned), list(pinned.values()), 64, np.random.default_rng(17)
            )
        else:
            got = model.sample_joint(64, np.random.default_rng(17))
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("model_type, spec_type, left_out", [
        (LinearGaussianModel, LinearGaussianSpec, {"a", "b", "c"}),
        (NonlinearToyModel, NonlinearToySpec, set()),
    ], ids=["lg", "toy"])
    def test_table_names_each_spec_field_once(self, model_type, spec_type, left_out):
        named = [f for _, *pair in model_type._columns.values() for f in pair]
        assert len(named) == len(set(named))
        spec_fields = {f.name for f in dataclasses.fields(spec_type)}
        assert set(named) <= spec_fields
        assert spec_fields - set(named) == left_out
        assert model_type.param_names == tuple(model_type._columns)

    @pytest.mark.parametrize("spec_type, field, value, bound", _OUT_OF_DOMAIN,
                             ids=[f"{field}={value}" for _, field, value, _ in _OUT_OF_DOMAIN])
    def test_field_outside_its_domain_is_rejected_by_name(self, spec_type, field, value, bound):
        with pytest.raises(ValueError, match=f"^{field} must be {bound}$"):
            spec_type(**{field: value})


class TestExactInnerExpectation:
    """The premise of the toy oracle: E[nb | phi] is nb at the means of the
    unlearned parameters."""

    def test_net_benefit_is_multilinear_in_every_column(self):
        model = NonlinearToyModel(NonlinearToySpec())
        rng = np.random.default_rng(21)
        theta = model.sample_joint(50, rng)
        lo, hi = model.sample_joint(50, rng), model.sample_joint(50, rng)
        for j, name in enumerate(model.param_names):

            def nb_at(w):
                row = theta.copy()
                row[:, j] = (1.0 - w) * lo[:, j] + w * hi[:, j]
                return model.net_benefit(row, 20_000.0)

            a, b = nb_at(0.0), nb_at(1.0)
            scale = max(np.abs(a).max(), np.abs(b).max())
            assert np.abs(nb_at(0.3) - (0.7 * a + 0.3 * b)).max() <= 1e-9 * scale, name

    def test_column_means_match_the_draws(self):
        model = NonlinearToyModel(NonlinearToySpec())
        rng = np.random.default_rng(22)
        n = 1_000_000
        for name in model.param_names:
            draws = model._draw_column(name, n, rng)
            se = draws.std(ddof=1) / math.sqrt(n)
            assert abs(model._column_mean(name) - draws.mean()) <= 5 * se, name

    @pytest.mark.parametrize("subset", [(1,), (0, 1)], ids=["rr", "p_inf,rr"])
    def test_plug_in_matches_conditional_draws(self, subset):
        model = NonlinearToyModel(NonlinearToySpec())
        rng = np.random.default_rng(23)
        means = np.array([model._column_mean(name) for name in model.param_names])
        n = 200_000
        for phi in model.sample_joint(3, rng)[:, subset]:
            plug_in = means.copy()
            plug_in[list(subset)] = phi
            expected = model.net_benefit(plug_in, 20_000.0)[0]
            nb = model.net_benefit(model.sample_conditional(subset, phi, n, rng), 20_000.0)
            se = nb.std(axis=0, ddof=1) / math.sqrt(n)
            assert np.all(np.abs(expected - nb.mean(axis=0)) <= 5 * se)


class TestSpecSerialization:
    @pytest.mark.parametrize(
        "spec",
        [LinearGaussianSpec(a=1.0, b=2.0), NonlinearToySpec(cost_vaccine_mean=150.0)],
    )
    def test_round_trip(self, spec):
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            spec_from_dict({"model": "nope"})

    def test_missing_kind(self):
        with pytest.raises(ValueError, match="'model' key"):
            spec_from_dict({"a": 1})

    def test_model_for_rejects_foreign_types(self):
        with pytest.raises(TypeError):
            model_for(object())


class TestBruteForceOracle:
    def test_budget_floor_enforced(self):
        with pytest.raises(ValueError, match="budget"):
            brute_force_evppi(
                NonlinearToySpec(), ParamSubset.of(0), 20_000.0,
                n_outer=100,
            )

    def test_empty_subset_impossible(self):
        with pytest.raises(ValueError, match="empty"):
            ParamSubset(())

    def test_all_parameters_reduces_to_plain_evpi(self):
        spec = NonlinearToySpec()
        subset = ParamSubset(tuple(range(8)))
        value, se = brute_force_evppi(
            spec, subset, 20_000.0, n_outer=10_000, seed=4
        )
        big = generate_psa(spec, 400_000, seed=5, k=20_000.0)
        plain = evpi(big.nb)
        plain_se = np.std(big.nb.max(axis=1), ddof=1) / math.sqrt(big.n_sims)
        assert abs(value - plain) <= 3 * (se + plain_se)

    def test_independence_shortcut_agrees_with_generic_nested_path(self):
        spec = NonlinearToySpec()
        subset = ParamSubset.of(1)  # vaccine risk reduction
        value, se = brute_force_evppi(
            spec, subset, 20_000.0, n_outer=10_000, seed=10
        )
        generic = nested_mc_evppi(
            NonlinearToyModel(spec), subset, 20_000.0,
            n_outer=3_000, n_inner=800, seed=11,
        )
        assert abs(value - generic.value) <= 3 * (se + generic.std_error)
