"""Core data model: net benefit, EVPI, optimum, and the estimate record."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from voikit import (
    EstimationError,
    EvppiEstimate,
    ParamSubset,
    PsaSample,
    WillingnessToPay,
    build_nb,
    current_optimum,
    evpi,
    generate_psa,
    incremental_nb,
    linear_gaussian_oracle,
)

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


class TestCurrentOptimum:
    def test_tie_broken_by_lowest_index(self):
        col = np.array([1.0, 2.0])
        idx, val = current_optimum(np.column_stack([col, col]))
        assert idx == 0 and val == pytest.approx(1.5)

    def test_column_means(self):
        idx, val = current_optimum(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert (idx, val) == (1, pytest.approx(3.0))

    def test_constant_shift_moves_value_not_index(self):
        nb = np.random.default_rng(3).normal(size=(50, 3))
        idx, val = current_optimum(nb)
        idx2, val2 = current_optimum(nb + 123.0)
        assert idx2 == idx
        assert val2 == pytest.approx(val + 123.0)

    def test_positive_affine_keeps_index(self):
        nb = np.random.default_rng(4).normal(size=(40, 4))
        idx, _ = current_optimum(nb)
        idx2, _ = current_optimum(2.5 * nb + 7.0)
        assert idx2 == idx


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

    def test_complement(self):
        assert ParamSubset.of(1).complement(3) == (0, 2)

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
        with pytest.raises(ValueError, match="unknown parameter"):
            lin_sample.param_index("nope")


class TestEvppiEstimate:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            EvppiEstimate(value=1.0, method="XX")

    def test_negative_std_error_rejected(self):
        with pytest.raises(ValueError, match="std_error"):
            EvppiEstimate(value=1.0, method="SO", std_error=-0.1)

    def test_clamp_keeps_raw_value(self):
        est = EvppiEstimate.clamped(-1e-13, "GAM", nb_scale=1.0)
        assert est.value == 0.0
        assert est.diagnostics["raw_value"] == -1e-13

    def test_negative_beyond_tolerance_raises(self):
        with pytest.raises(EstimationError, match="negative"):
            EvppiEstimate.clamped(-1.0, "GAM", nb_scale=1.0)

    def test_to_dict_is_json_friendly(self):
        est = EvppiEstimate.clamped(
            0.5, "GP", nb_scale=1.0,
            diagnostics={"arr": np.array([1.0, 2.0]), "n": np.int64(3)},
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
