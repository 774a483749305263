"""Penalized-spline smoothing: reproduction properties and fit oracles."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from voikit import LinearGaussianSpec, ParamSubset, PsaSample, gam_fit_detail, generate_psa
from voikit import gam

from conftest import make_sample


def test_constant_column_reproduced_exactly():
    nb = np.column_stack([np.full(80, 7.5), np.random.default_rng(0).normal(size=80)])
    sample = make_sample(nb)
    fitted = gam_fit_detail(sample, ParamSubset.of(0))[0][:, 0]
    assert np.allclose(fitted, 7.5, rtol=0, atol=1e-9)


def test_exactly_linear_response_reproduced():
    # linear functions live in the curvature penalty's null space, so a
    # noiseless linear response is reproduced at any smoothing level
    rng = np.random.default_rng(1)
    phi = rng.standard_normal(400)
    nb1 = 2.0 + 3.0 * phi
    sample = make_sample(np.column_stack([np.zeros(400), nb1]), phi=phi)
    fitted = gam_fit_detail(sample, ParamSubset.of(0))[0][:, 1]
    rel = np.max(np.abs(fitted - nb1)) / np.max(np.abs(nb1))
    assert rel <= 1e-6


def test_conditional_mean_rmse_on_linear_gaussian():
    # oracle: the true conditional mean is a + b*phi; a near-parametric
    # smoother recovers it at root-(edf/S) accuracy
    spec = LinearGaussianSpec()
    sample = generate_psa(spec, 10_000, seed=5)
    fitted = gam_fit_detail(sample, ParamSubset.of(0))[0][:, 1]
    true = spec.a + spec.b * sample.params[:, 0]
    rmse = float(np.sqrt(np.mean((fitted - true) ** 2)))
    assert rmse <= 2.0 * spec.c / np.sqrt(sample.n_sims)


def test_constant_parameter_column_is_rank_deficient():
    nb = np.random.default_rng(2).normal(size=(50, 2))
    sample = make_sample(nb, phi=np.full(50, 3.0))
    with pytest.raises(ValueError, match="rank-deficient"):
        gam_fit_detail(sample, ParamSubset.of(0))


def test_subset_size_capped():
    rng = np.random.default_rng(3)
    sample = PsaSample(
        param_names=tuple("abcdef"),
        params=rng.normal(size=(60, 6)),
        nb=rng.normal(size=(60, 2)),
    )
    with pytest.raises(ValueError, match="unstable beyond 5"):
        gam_fit_detail(sample, ParamSubset(tuple(range(6))))


def test_deterministic(lin_sample):
    a = gam_fit_detail(lin_sample, ParamSubset.of(0))[0][:, 1]
    b = gam_fit_detail(lin_sample, ParamSubset.of(0))[0][:, 1]
    assert np.array_equal(a, b)


def test_shift_equivariance():
    sample = generate_psa(LinearGaussianSpec(), 800, seed=9)
    base = gam_fit_detail(sample, ParamSubset.of(0))[0][:, 1]
    shifted = PsaSample(
        param_names=sample.param_names,
        params=sample.params,
        nb=sample.nb + np.array([0.0, 55.0]),
    )
    moved = gam_fit_detail(shifted, ParamSubset.of(0))[0][:, 1]
    assert np.allclose(moved, base + 55.0, rtol=1e-9, atol=1e-8)


def test_two_parameters_use_tensor_interactions():
    rng = np.random.default_rng(4)
    params = rng.standard_normal((600, 2))
    y = params[:, 0] * params[:, 1] + 0.1 * rng.standard_normal(600)
    sample = PsaSample(
        param_names=("u", "v"),
        params=params,
        nb=np.column_stack([np.zeros(600), y]),
    )
    fitted, infos = gam_fit_detail(sample, ParamSubset.of(0, 1))
    fitted, info = fitted[:, 1], infos[1]
    assert info["interactions"] is True
    # the pure product surface is invisible to an additive fit
    rmse = float(np.sqrt(np.mean((fitted - params[:, 0] * params[:, 1]) ** 2)))
    assert rmse < 0.25

    additive, infos2 = gam_fit_detail(sample, ParamSubset.of(0, 1), interactions=False)
    additive, info2 = additive[:, 1], infos2[1]
    assert info2["interactions"] is False
    rmse_add = float(np.sqrt(np.mean((additive - params[:, 0] * params[:, 1]) ** 2)))
    assert rmse_add > 2 * rmse


def test_four_parameters_default_to_additive():
    rng = np.random.default_rng(5)
    params = rng.standard_normal((300, 4))
    sample = PsaSample(
        param_names=("a", "b", "c", "d"),
        params=params,
        nb=np.column_stack([np.zeros(300), params.sum(axis=1)]),
    )
    _, infos = gam_fit_detail(sample, ParamSubset(tuple(range(4))))
    assert [info["interactions"] for info in infos] == [False, False]


def test_detail_reports_gcv_and_edf(lin_sample):
    _, infos = gam_fit_detail(lin_sample, ParamSubset.of(0))
    info = infos[1]
    assert info["edf"] >= 1.0
    assert info["gcv"] > 0
    assert info["lambda"] > 0
    assert info["residual_var"] >= 0


# -- shared basis and spectral GCV ------------------------------------------


def _cholesky_gcv(lam, xtx, penalty, xty, yty, n_rows):
    """Reference GCV score and edf: one Cholesky solve of the penalized
    normal equations per smoothing level."""
    chol = cho_factor(xtx + lam * penalty, lower=True)
    beta = cho_solve(chol, xty)
    edf = float(np.trace(cho_solve(chol, xtx)))
    rss = max(float(yty - 2.0 * beta @ xty + beta @ (xtx @ beta)), 0.0)
    return n_rows * rss / (n_rows - edf) ** 2, edf


def _normal_equations(sample, subset, t, interactions=None):
    phi = gam._standardized_params(sample, subset)
    if interactions is None:
        interactions = gam._default_interactions(phi.shape[1])
    design, penalty = gam._build_design(phi, interactions)
    yc = sample.nb[:, t] - sample.nb[:, t].mean()
    return design, penalty, design.T @ design, design.T @ yc, float(yc @ yc)


def _noisy_linear_gaussian(n_sims, seed):
    sample = generate_psa(LinearGaussianSpec(), n_sims, seed=seed)
    noise = np.random.default_rng(seed).standard_normal(sample.nb.shape)
    return PsaSample(
        param_names=sample.param_names, params=sample.params, nb=sample.nb + noise
    )


@pytest.mark.parametrize(
    "subset, interactions",
    [((0,), None), ((1,), None), ((0, 1), False)],
)
def test_spectral_gcv_matches_cholesky_reference(subset, interactions):
    sample = _noisy_linear_gaussian(2_000, seed=5)
    _, penalty, xtx, xty, yty = _normal_equations(
        sample, ParamSubset(subset), 1, interactions
    )
    grid, mu, nu, vecs = gam._demmler_reinsch(xtx, penalty)
    c2 = (vecs.T @ xty)[:, None] ** 2
    scores, edfs, _ = gam._gcv_grid(grid, mu, nu, c2, np.array([yty]), sample.n_sims)
    base = np.trace(xtx) / np.trace(penalty)
    for lam, score, edf in zip(grid, scores[:, 0], edfs):
        ref_score, ref_edf = _cholesky_gcv(lam, xtx, penalty, xty, yty, sample.n_sims)
        assert score == pytest.approx(ref_score, rel=1e-9, abs=0)
        # Above lam = base * 1e6 the reference's own rounding error grows
        # like eps * lam / base: the penalty's null space is null only to
        # rounding, and lam multiplies that residue.
        tol = 1e-9 + np.finfo(float).eps * lam / base
        assert edf == pytest.approx(ref_edf, rel=tol, abs=0), lam / base


@pytest.mark.parametrize("levels", [2, 3, 6])
def test_discrete_parameter_fits_despite_singular_gram(levels):
    # a parameter with L levels gives X'X of rank L at most: the cubic
    # basis on it has more columns than that, so only the penalty keeps
    # the normal equations well posed
    rng = np.random.default_rng(levels)
    n = 600
    d = rng.integers(0, levels, n).astype(float)
    x = rng.standard_normal(n)
    nb1 = np.sin(d) + np.cos(x) + 0.3 * rng.standard_normal(n)
    sample = PsaSample(
        param_names=("d", "x"),
        params=np.column_stack([d, x]),
        nb=np.column_stack([np.zeros(n), nb1]),
    )
    design, *_ = _normal_equations(sample, ParamSubset.of(0), 1)
    gram = design.T @ design
    assert np.linalg.matrix_rank(gram) < gram.shape[0]

    fitted, infos = gam_fit_detail(sample, ParamSubset.of(0))
    assert np.all(np.isfinite(fitted))
    assert 1.0 <= infos[1]["edf"] <= levels + 1e-6
    if levels == 2:
        # two points carry no curvature: the fit is the two group means
        for level in (0.0, 1.0):
            rows = d == level
            assert np.allclose(fitted[rows, 1], nb1[rows].mean(), rtol=0, atol=1e-9)

    for interactions in (False, True):
        both, infos = gam_fit_detail(sample, ParamSubset.of(0, 1), interactions=interactions)
        assert np.all(np.isfinite(both))
        assert infos[1]["interactions"] is interactions
        truth = np.sin(d) + np.cos(x)
        assert np.sqrt(np.mean((both[:, 1] - truth) ** 2)) < 0.1


def test_all_columns_fit_like_each_column_alone():
    rng = np.random.default_rng(6)
    n = 1_500
    params = rng.standard_normal((n, 2))
    nb = np.column_stack([
        np.sin(2 * params[:, 0]),
        params[:, 0] * params[:, 1],
        params[:, 1] ** 2,
    ]) + 0.2 * rng.standard_normal((n, 3))
    sample = PsaSample(param_names=("u", "v"), params=params, nb=nb)
    subset = ParamSubset.of(0, 1)
    fitted, infos = gam_fit_detail(sample, subset)
    assert fitted.shape == (n, 3) and len(infos) == 3
    for t in range(3):
        # the column fitted on its own next to a constant column
        alone = PsaSample(
            param_names=sample.param_names,
            params=params,
            nb=np.column_stack([np.zeros(n), nb[:, t]]),
        )
        col, alone_infos = gam_fit_detail(alone, subset)
        assert np.allclose(col[:, 1], fitted[:, t], rtol=0, atol=1e-10)
        assert alone_infos[1]["lambda"] == pytest.approx(infos[t]["lambda"], rel=1e-9)


def test_fitted_values_match_cholesky_solve_at_chosen_lambda():
    sample = _noisy_linear_gaussian(2_000, seed=7)
    subset = ParamSubset.of(0, 1)
    fitted, infos = gam_fit_detail(sample, subset)
    for t in range(sample.n_treatments):
        design, penalty, xtx, xty, _ = _normal_equations(sample, subset, t)
        beta = cho_solve(cho_factor(xtx + infos[t]["lambda"] * penalty), xty)
        ref = design @ beta + sample.nb[:, t].mean()
        assert np.allclose(fitted[:, t], ref, rtol=0, atol=1e-8 * np.max(np.abs(ref)))


def _reference_grid_argmin(sample, subset, t):
    """Index of the lowest Cholesky GCV score on the module's grid, and the
    grid."""
    _, penalty, xtx, xty, yty = _normal_equations(sample, subset, t)
    grid = gam._demmler_reinsch(xtx, penalty)[0]
    scores = [_cholesky_gcv(lam, xtx, penalty, xty, yty, sample.n_sims)[0] for lam in grid]
    return int(np.argmin(scores)), grid


def test_lambda_at_grid_edge_on_pure_noise():
    # nothing to smooth: GCV runs to the largest lambda, a straight line
    rng = np.random.default_rng(2)
    sample = PsaSample(
        param_names=("x",), params=rng.standard_normal((2_000, 1)),
        nb=rng.standard_normal((2_000, 2)),
    )
    _, infos = gam_fit_detail(sample, ParamSubset.of(0))
    for t, info in enumerate(infos):
        best, grid = _reference_grid_argmin(sample, ParamSubset.of(0), t)
        assert best == grid.size - 1
        assert info["lambda_at_grid_edge"] is True
        assert info["edf"] == pytest.approx(2.0, abs=1e-6)


def test_lambda_at_grid_edge_on_linear_gaussian(lin_sample):
    # the conditional mean is linear in phi, so GCV may run to the edge;
    # the flag must say exactly whether the grid minimum sat at either end
    subset = ParamSubset.of(0)
    noisy = _noisy_linear_gaussian(2_000, seed=8)
    for sample in (lin_sample, noisy):
        _, infos = gam_fit_detail(sample, subset)
        for t, info in enumerate(infos):
            if np.ptp(sample.nb[:, t]) == 0:
                continue  # every score is 0: the argmin is a tie
            best, grid = _reference_grid_argmin(sample, subset, t)
            assert info["lambda_at_grid_edge"] is (best in (0, grid.size - 1)), (t, best)


def test_lambda_inside_grid_for_curved_response():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(2_000)
    nb = np.column_stack([np.zeros(2_000), np.sin(2 * x) + 0.3 * rng.standard_normal(2_000)])
    _, infos = gam_fit_detail(make_sample(nb, phi=x), ParamSubset.of(0))
    assert infos[1]["lambda_at_grid_edge"] is False
    assert infos[1]["edf"] > 3.0


@pytest.mark.parametrize("subset", [(0,), (1,), (0, 1)])
def test_lambda_is_the_grid_argmin_of_the_cholesky_reference(subset):
    sample = _noisy_linear_gaussian(2_000, seed=9)
    _, infos = gam_fit_detail(sample, ParamSubset(subset))
    for t, info in enumerate(infos):
        best, grid = _reference_grid_argmin(sample, ParamSubset(subset), t)
        assert info["lambda"] == grid[best], (t, best)
        assert info["lambda_at_grid_edge"] is (best in (0, grid.size - 1))
