"""Invariance relations: estimates that must not move when the sample is
re-expressed in a way that carries the same information.

* The single-parameter estimators (SO, SAD) see the parameter only through
  its ranks and ties, so a strictly increasing transform of the column that
  keeps every distinct value distinct leaves them bitwise unchanged.
* The regression estimators (GAM, GP) standardize the parameters once, so an
  affine map of the learned columns leaves them unchanged to rounding.
* Every estimate is in net-benefit currency units: scaling the net benefit
  by c scales it by c.  For a power of two every sum, difference and
  maximum scales exactly, so SAD (and SO with its bias threshold scaled
  alike) move bitwise by c and pick the same cuts and bins; GAM and GP
  refit, so they agree to rounding.
"""

import functools

import numpy as np
import pytest

from voikit import (
    LinearGaussianSpec,
    NonlinearToySpec,
    ParamSubset,
    PsaSample,
    fit_regression,
    generate_psa,
    regression_evppi,
    sad_evppi,
    so_choose_bins,
    so_evppi,
)

N_ROWS = 3_000


@functools.lru_cache(maxsize=None)
def _sample(model: str) -> PsaSample:
    if model == "toy":
        return generate_psa(NonlinearToySpec(), N_ROWS, seed=31)
    sample = generate_psa(LinearGaussianSpec(a=0.2), N_ROWS, seed=32)
    # a third column with heavy ties: phi on a 0.25 grid
    tied = np.round(4.0 * sample.params[:, :1]) / 4.0
    return PsaSample(
        ("phi", "psi", "phi_grid"), np.column_stack([sample.params, tied]), sample.nb
    )


def _with_column(sample: PsaSample, p: int, column: np.ndarray) -> PsaSample:
    params = sample.params.copy()
    params[:, p] = column
    return PsaSample(sample.param_names, params, sample.nb)


# (model, column, transform, SO bias threshold in currency units)
MONOTONE_CASES = [
    ("toy", "risk_reduction", np.log, 2.0),
    ("toy", "cost_vaccine", np.log, 2.0),
    ("lg", "phi", np.exp, 0.1),
    ("lg", "phi_grid", np.exp, 0.1),
]


@pytest.mark.parametrize(
    "model, name, transform, threshold", MONOTONE_CASES,
    ids=[f"{m}-{n}" for m, n, *_ in MONOTONE_CASES],
)
def test_single_parameter_estimates_ignore_a_monotone_transform(
    model, name, transform, threshold
):
    sample = _sample(model)
    p = sample.param_index(name)
    column = sample.param_column(p)
    moved = transform(column)
    # the relation needs the transform to keep the rank order and every tie
    assert np.unique(moved).size == np.unique(column).size
    assert np.array_equal(np.argsort(moved, kind="stable"), np.argsort(column, kind="stable"))
    other = _with_column(sample, p, moved)

    chosen = so_choose_bins(sample, p, threshold=threshold)
    assert chosen[0] > 1
    assert so_choose_bins(other, p, threshold=threshold) == chosen
    assert so_evppi(other, p, chosen[0]).to_dict() == so_evppi(sample, p, chosen[0]).to_dict()

    for n_changes in (1, 2, 3):
        base = sad_evppi(sample, p, n_changes).to_dict()
        got = sad_evppi(other, p, n_changes).to_dict()
        assert got["value"] == base["value"]
        # the cuts sit at the same rows, reported in the new units
        cut_rows = [np.flatnonzero(column == v)[0] for v in base["diagnostics"].pop("cut_values")]
        assert got["diagnostics"].pop("cut_values") == moved[cut_rows].tolist()
        assert got == base


AFFINE_CASES = [
    ("toy", ("risk_reduction",)),
    ("toy", ("p_infection", "risk_reduction")),
    ("lg", ("phi",)),
]


@pytest.mark.parametrize("method", ["gam", "gp"])
@pytest.mark.parametrize(
    "model, names", AFFINE_CASES, ids=[f"{m}-{','.join(n)}" for m, n in AFFINE_CASES]
)
def test_regression_estimates_ignore_an_affine_map(method, model, names):
    sample = _sample(model)
    subset = ParamSubset.from_names(names, sample.param_names)
    params = sample.params.copy()
    params[:, list(subset.indices)] = 2.5 * params[:, list(subset.indices)] + 7.0
    moved = PsaSample(sample.param_names, params, sample.nb)

    def value(s):
        return regression_evppi(
            fit_regression(s, subset, method=method, seed=3), method.upper()
        ).value

    assert value(moved) == pytest.approx(value(sample), rel=1e-8)


# powers of two: multiplying by one is exact, so exact relations stay exact
SCALES = (4.0, 0.25)


def _scaled(sample: PsaSample, c: float) -> PsaSample:
    return PsaSample(sample.param_names, sample.params, c * sample.nb)


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize(
    "model, name, threshold", [(m, n, th) for m, n, _, th in MONOTONE_CASES],
    ids=[f"{m}-{n}" for m, n, *_ in MONOTONE_CASES],
)
def test_single_parameter_estimates_scale_with_net_benefit(model, name, threshold, c):
    sample = _sample(model)
    p = sample.param_index(name)
    scaled = _scaled(sample, c)

    n_bins, bias = so_choose_bins(sample, p, threshold=threshold)
    assert n_bins > 1
    assert so_choose_bins(scaled, p, threshold=c * threshold) == (n_bins, c * bias)
    base = so_evppi(sample, p, n_bins).to_dict()
    got = so_evppi(scaled, p, n_bins).to_dict()
    assert got.pop("value") == c * base.pop("value")
    assert got == base

    for n_changes in (1, 2, 3):
        base = sad_evppi(sample, p, n_changes).to_dict()
        got = sad_evppi(scaled, p, n_changes).to_dict()
        assert got.pop("value") == c * base.pop("value")
        assert got == base  # the same cuts and segment treatments


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("method", ["gam", "gp"])
@pytest.mark.parametrize(
    "model, names", AFFINE_CASES, ids=[f"{m}-{','.join(n)}" for m, n in AFFINE_CASES]
)
def test_regression_estimates_scale_with_net_benefit(method, model, names, c):
    sample = _sample(model)
    subset = ParamSubset.from_names(names, sample.param_names)

    def value(s):
        return regression_evppi(
            fit_regression(s, subset, method=method, seed=3), method.upper()
        ).value

    assert value(_scaled(sample, c)) == pytest.approx(c * value(sample), rel=1e-8)
