"""Core data model: net benefit, EVPI, parameter subsets, and the estimate record."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from voikit import (
    BootstrapConfig,
    EvppiEstimate,
    ParamSubset,
    PsaSample,
    WillingnessToPay,
    build_nb,
    evpi,
    generate_psa,
    incremental_nb,
    linear_gaussian_oracle,
    so_evppi,
    with_bootstrap,
)

from voikit.psa import _row_max

from conftest import make_sample


nb_matrices = arrays(
    np.float64,
    st.tuples(st.integers(2, 12), st.integers(2, 5)),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestBuildNb:
    def test_zero_wtp_recovers_negated_costs(self):
        effects = np.array([[0.5, 0.1], [0.3, 0.9]])
        costs = np.array([[100.0, 50.0], [75.0, 10.0]])
        assert np.array_equal(build_nb(effects, costs, 0.0), -costs)

    def test_equal_effects_and_costs_cancel_at_unit_wtp(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(build_nb(m, m, 1.0), np.zeros_like(m))

    def test_direct_arithmetic(self):
        nb = build_nb(np.array([[0.05]]), np.array([[300.0]]), 20_000.0)
        assert nb == pytest.approx(np.array([[700.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            build_nb(np.zeros((2, 2)), np.zeros((2, 3)), 1.0)

    def test_non_finite_rejected(self):
        bad = np.array([[1.0, np.inf], [0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            build_nb(bad, np.zeros((2, 2)), 1.0)

    def test_accepts_willingness_to_pay_object(self):
        e, c = np.ones((2, 2)), np.zeros((2, 2))
        assert np.array_equal(build_nb(e, c, WillingnessToPay(2.0)), 2 * e)


class TestEvpi:
    def test_identical_columns_give_zero(self):
        col = np.array([3.0, -1.0, 2.5, 7.0])
        assert evpi(np.column_stack([col, col, col])) == 0.0

    def test_two_by_two(self):
        # row maxima mean 1, best column mean 0.5
        assert evpi(np.array([[1.0, 0.0], [0.0, 1.0]])) == pytest.approx(0.5)

    def test_million_draw_oracle(self, lin_spec):
        # closed form: sqrt(2) times the standard normal density at zero
        sample = generate_psa(lin_spec, 1_000_000, seed=42)
        target = linear_gaussian_oracle(lin_spec, "both")
        assert target == pytest.approx(math.sqrt(2.0 / (2.0 * math.pi)))
        assert evpi(sample.nb) == pytest.approx(target, abs=3e-3)

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="2 simulation rows"):
            evpi(np.array([[1.0, 2.0]]))

    @settings(max_examples=200, deadline=None)
    @given(nb=nb_matrices)
    def test_nonnegative_exactly(self, nb):
        assert evpi(nb) >= 0.0

    @settings(max_examples=50, deadline=None)
    @given(nb=nb_matrices, shift=st.floats(-1e5, 1e5, allow_nan=False))
    def test_shift_invariance(self, nb, shift):
        base = evpi(nb)
        scale = max(np.max(np.abs(nb)), abs(shift), 1.0)
        assert evpi(nb + shift) == pytest.approx(base, abs=1e-9 * scale)

    @settings(max_examples=50, deadline=None)
    @given(nb=nb_matrices, factor=st.floats(1e-3, 1e3, allow_nan=False))
    def test_positive_scaling(self, nb, factor):
        # equality up to the library-wide numerical slack: when the value is
        # rounding dust relative to the entries, exact linearity cannot hold
        slack = 1e-9 * max(float(np.max(np.abs(nb))) * factor, 1.0)
        assert evpi(nb * factor) == pytest.approx(
            factor * evpi(nb), rel=1e-9, abs=slack
        )


row_max_inputs = st.integers(2, 5).flatmap(
    lambda n_t: arrays(
        np.float64,
        st.one_of(
            st.tuples(st.integers(1, 12), st.just(n_t)),
            st.tuples(st.integers(1, 4), st.integers(1, 6), st.just(n_t)),
        ),
        elements=st.floats(allow_nan=False, allow_infinity=True),
    )
)


@settings(max_examples=300, deadline=None)
@given(a=row_max_inputs)
def test_row_max_is_the_max_over_the_last_axis(a):
    got = _row_max(a)
    assert got.shape == a.shape[:-1]
    assert np.array_equal(got, a.max(axis=-1))
    # a fresh array: callers overwrite entries of the result
    assert not np.shares_memory(got, a)


class TestIncrementalNb:
    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            incremental_nb(np.ones((2, 2)), 1, 1)

    def test_direct_subtraction(self):
        assert np.array_equal(incremental_nb(np.array([[3.0, 1.0]]), 0, 1), [2.0])

    def test_bad_index(self):
        with pytest.raises(ValueError, match="out of range"):
            incremental_nb(np.ones((2, 2)), 0, 5)

    @settings(max_examples=100, deadline=None)
    @given(nb=nb_matrices)
    def test_antisymmetry(self, nb):
        t_count = nb.shape[1]
        assert np.array_equal(
            incremental_nb(nb, 0, t_count - 1), -incremental_nb(nb, t_count - 1, 0)
        )


class TestWillingnessToPay:
    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            WillingnessToPay(bad)

    def test_zero_allowed(self):
        assert WillingnessToPay(0.0).k == 0.0


class TestParamSubset:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ParamSubset(())

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ParamSubset((1, 1))

    def test_from_names(self):
        sub = ParamSubset.from_names(["b", "a"], ["a", "b", "c"])
        assert sub.indices == (1, 0)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            ParamSubset.from_names(["zzz"], ["a", "b"])

    def test_repeated_name_is_named(self):
        # not only as duplicate indices (0, 1, 0)
        with pytest.raises(ValueError, match="^parameter 'a' is given twice in the subset$"):
            ParamSubset.from_names(["a", "b", "a"], ["a", "b", "c"])

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ParamSubset.of(5).validate_against(3)


class TestPsaSample:
    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            PsaSample(("x",), np.zeros((3, 1)), np.zeros((2, 2)))

    def test_minimum_sizes(self):
        with pytest.raises(ValueError, match="2 simulation rows"):
            PsaSample(("x",), np.zeros((1, 1)), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="2 treatment"):
            PsaSample(("x",), np.zeros((3, 1)), np.zeros((3, 1)))

    def test_nb_must_match_stored_decomposition(self):
        effects = np.ones((2, 2))
        costs = np.zeros((2, 2))
        with pytest.raises(ValueError, match="inconsistent"):
            PsaSample(
                ("x",), np.zeros((2, 1)), nb=np.full((2, 2), 99.0),
                effects=effects, costs=costs, k=2.0,
            )

    def test_effects_require_k(self):
        with pytest.raises(ValueError, match="k must be stored"):
            PsaSample(
                ("x",), np.zeros((2, 1)), nb=np.ones((2, 2)),
                effects=np.ones((2, 2)), costs=np.ones((2, 2)),
            )

    def test_arrays_frozen(self, lin_sample):
        with pytest.raises(ValueError):
            lin_sample.nb[0, 0] = 1.0

    def test_take_resamples_rows(self, lin_sample):
        rows = np.array([5, 5, 2])
        sub = lin_sample.take(rows)
        assert np.array_equal(sub.params, lin_sample.params[rows])
        assert np.array_equal(sub.nb, lin_sample.nb[rows])

    def test_at_wtp_requires_decomposition(self, lin_sample):
        with pytest.raises(ValueError, match="effect and cost"):
            lin_sample.at_wtp(5000.0)

    def test_at_wtp_rebuilds(self):
        rng = np.random.default_rng(0)
        effects = rng.uniform(0, 1, (10, 2))
        costs = rng.uniform(0, 100, (10, 2))
        sample = PsaSample(
            ("x",), rng.normal(size=(10, 1)),
            nb=build_nb(effects, costs, 100.0),
            effects=effects, costs=costs, k=100.0,
        )
        rebuilt = sample.at_wtp(250.0)
        assert np.array_equal(rebuilt.nb, 250.0 * effects - costs)
        assert rebuilt.k == 250.0
        assert rebuilt.param_order(0) is sample.param_order(0)  # same params, one sort

    def test_param_index(self, lin_sample):
        assert lin_sample.param_index("psi") == 1
        with pytest.raises(ValueError, match="unknown parameter") as by_index:
            lin_sample.param_index("nope")
        with pytest.raises(ValueError) as by_names:
            ParamSubset.from_names(["nope"], lin_sample.param_names)
        assert str(by_index.value) == str(by_names.value)

    def test_samples_compare_and_hash_by_identity(self, lin_sample):
        twin = lin_sample.take(np.arange(lin_sample.n_sims))
        assert np.array_equal(twin.params, lin_sample.params)
        assert lin_sample == lin_sample
        assert lin_sample != twin
        assert len({lin_sample, twin, lin_sample}) == 2

    @pytest.mark.parametrize("k", [-5.0, math.nan, math.inf])
    def test_nb_only_sample_refuses_a_bad_k(self, k):
        with pytest.raises(ValueError, match="willingness to pay must be finite and >= 0"):
            PsaSample(("x",), np.zeros((3, 1)), nb=np.zeros((3, 2)), k=k)

    def test_nb_only_sample_stores_k_as_a_float(self):
        sample = PsaSample(("x",), np.zeros((3, 1)), nb=np.zeros((3, 2)), k=3)
        assert type(sample.k) is float and sample.k == 3.0


def _priced_sample():
    """30 rows with effects, costs and a parameter column with ties: every
    field a derived sample has to carry over."""
    rng = np.random.default_rng(0)
    effects = rng.uniform(0, 1, (30, 3))
    costs = rng.uniform(0, 100, (30, 3))
    params = np.column_stack([np.round(rng.normal(size=30)), rng.normal(size=30)])
    return PsaSample(
        ("tied", "free"), params, nb=build_nb(effects, costs, 100.0),
        effects=effects, costs=costs, k=100.0, treatment_names=("a", "b", "c"),
    )


PRICED = _priced_sample()


class TestDerivedSamples:
    """``take``, ``at_wtp`` and ``_with_nb`` build on validated arrays
    without a second check or copy."""

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(st.integers(-30, 29), min_size=2, max_size=70),
        nondecreasing=st.booleans(),
    )
    def test_take_equals_the_public_constructor(self, rows, nondecreasing):
        rows = np.array(rows)
        if nondecreasing:  # a bootstrap replicate: orders derived from PRICED's
            rows = np.sort(rows % PRICED.n_sims)
        sub = PRICED.take(rows)
        ref = PsaSample(
            PRICED.param_names, PRICED.params[rows], PRICED.nb[rows],
            effects=PRICED.effects[rows], costs=PRICED.costs[rows], k=PRICED.k,
            treatment_names=PRICED.treatment_names,
        )
        for name in ("params", "nb", "effects", "costs"):
            got, want = getattr(sub, name), getattr(ref, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert not got.flags.writeable
        assert (sub.param_names, sub.k, sub.treatment_names) == (
            ref.param_names, ref.k, ref.treatment_names
        )
        for p in (0, 1):
            order = sub.param_order(p)
            assert np.array_equal(order, np.argsort(sub.params[:, p], kind="stable"))
            assert not order.flags.writeable

    def test_at_wtp_shares_all_but_nb(self):
        rebuilt = PRICED.at_wtp(250.0)
        assert rebuilt.nb.tobytes() == (250.0 * PRICED.effects - PRICED.costs).tobytes()
        assert not rebuilt.nb.flags.writeable
        assert rebuilt.k == 250.0
        for name in ("params", "effects", "costs", "_orders"):
            assert getattr(rebuilt, name) is getattr(PRICED, name)
        assert rebuilt.param_order(1) is PRICED.param_order(1)

    def test_with_nb_shares_params_and_orders(self):
        nb = PRICED.nb - PRICED.nb[:, :1]
        contrast = PRICED._with_nb(nb)
        assert contrast.nb is nb and not nb.flags.writeable
        assert contrast.params is PRICED.params
        assert contrast._orders is PRICED._orders
        assert contrast.effects is None and contrast.costs is None

    @pytest.mark.filterwarnings("ignore:parameter column is constant")
    def test_row_subset_of_an_accepted_sample_is_accepted(self):
        # the nb/effects/costs tolerance scales with max|nb| = 1e6, so the
        # 1e-4 offset passes; a subset of row 1 alone has max|nb| = 10
        effects = np.array([[0.0, 100.0], [0.0, 0.001], [0.0, 50.0]])
        costs = np.zeros((3, 2))
        nb = 1e4 * effects - costs
        nb[1, 1] += 1e-4
        sample = PsaSample(
            ("x",), np.array([[0.0], [1.0], [2.0]]), nb=nb,
            effects=effects, costs=costs, k=1e4,
        )
        assert sample.take([1, 1]).nb.tobytes() == nb[[1, 1]].tobytes()
        # seed 0 draws row 1 three times (a constant column) in one of the
        # 20 replicates
        estimate = with_bootstrap(
            so_evppi(sample, 0, 1), lambda s: so_evppi(s, 0, 1), sample,
            BootstrapConfig(20, seed=0),
        )
        assert estimate.diagnostics["bootstrap_failures"] == 0

    @pytest.mark.parametrize("rows, message", [
        pytest.param(np.array([0.0, 1.0]), "integer", id="float"),
        pytest.param(np.array([[0, 1], [1, 2]]), "1-D", id="2-D"),
        pytest.param(np.array([3]), "at least 2", id="one row"),
        pytest.param(np.array([0, 30]), "out of range", id="past the end"),
        pytest.param(np.array([-31, 0]), "out of range", id="before the start"),
    ])
    def test_take_rejects_bad_rows(self, rows, message):
        with pytest.raises(ValueError, match=message):
            PRICED.take(rows)


class TestEvppiEstimate:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            EvppiEstimate(value=1.0, method="XX")

    def test_negative_std_error_rejected(self):
        with pytest.raises(ValueError, match="std_error"):
            EvppiEstimate(value=1.0, method="SO", std_error=-0.1)

    def test_negative_or_non_finite_value_rejected(self):
        # every estimator's formula is >= 0 exactly, so any negative is a bug
        for value in (-1e-13, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and >= 0"):
                EvppiEstimate(value=value, method="GAM")

    def test_to_dict_is_json_friendly(self):
        est = EvppiEstimate(
            0.5, "GP", diagnostics={"arr": np.array([1.0, 2.0]), "n": np.int64(3)},
        )
        d = est.to_dict()
        assert d["diagnostics"]["arr"] == [1.0, 2.0]
        assert d["diagnostics"]["n"] == 3


def test_estimators_cannot_exceed_evpi_smoke():
    # spot check of the dominance invariant on a tiny crafted input
    nb = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.5], [0.1, 0.2]])
    sample = make_sample(nb)
    from voikit import sad_evppi, so_evppi

    cap = evpi(nb) + 1e-12
    for m in (1, 2, 4):
        assert so_evppi(sample, 0, m).value <= cap
    for d in (0, 1, 2):
        assert sad_evppi(sample, 0, d).value <= cap
