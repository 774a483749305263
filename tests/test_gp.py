"""GP smoothing: posterior-mean algebra, limits, and fit oracles."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, cholesky, solve_triangular

from voikit import (
    GpHyperparameters,
    LinearGaussianSpec,
    NonlinearToySpec,
    ParamSubset,
    PsaSample,
    evpi,
    generate_psa,
    gp_fit_detail,
)
from voikit.gp import JITTER_FACTOR, N_COARSE_ROWS, N_HYPER_ROWS, _kernel

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


@pytest.mark.parametrize("d, n", [(1, 60), (2, 120), (8, 200)])
def test_marginal_likelihood_matches_dense_reference(d, n):
    import voikit.gp as gp_mod

    rng = np.random.default_rng(10 * d + n)
    x = rng.standard_normal((n, d))
    y = np.sin(x).sum(axis=1) + 0.3 * rng.standard_normal(n)
    y = (y - y.mean()) / y.std()
    theta = np.concatenate([np.log(rng.uniform(0.5, 3.0, size=d)), [0.3, np.log(0.05)]])
    objective = gp_mod._MarginalLikelihood(x, y)
    value, grad = objective(theta)

    def dense_nlml(th):
        sf2, sn2 = np.exp(th[d]), np.exp(th[d + 1])
        k = _kernel(x, x, np.exp(th[:d]), sf2)
        k += (sn2 + JITTER_FACTOR * sf2) * np.eye(n)
        sign, logdet = np.linalg.slogdet(k)
        assert sign > 0
        return 0.5 * y @ np.linalg.solve(k, y) + 0.5 * logdet + 0.5 * n * np.log(2 * np.pi)

    assert value == pytest.approx(dense_nlml(theta), rel=1e-10)
    # central differences of the objective itself, one log-parameter at a time
    h = 1e-5
    steps = h * np.eye(d + 2)
    numeric = np.array(
        [(objective(theta + e)[0] - objective(theta - e)[0]) / (2 * h) for e in steps]
    )
    assert np.max(np.abs(grad - numeric)) <= 1e-5 * np.max(np.abs(numeric))

    # jitter-dominated: the signal variance scales the jitter too, so its
    # derivative runs through it.  K's condition number reaches 5e9 here,
    # so the dense reference is differenced at steps of 1e-4 and more.
    theta[d + 1] = np.log(1e-12)
    assert np.exp(theta[d + 1]) < JITTER_FACTOR * np.exp(theta[d])
    _, grad = objective(theta)
    for h in (1e-3, 1e-4):
        steps = h * np.eye(d + 2)
        numeric = np.array(
            [(dense_nlml(theta + e) - dense_nlml(theta - e)) / (2 * h) for e in steps]
        )
        assert np.max(np.abs(grad - numeric)) <= 1e-2 * np.max(np.abs(numeric))


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


def _dense_subset_of_regressors(sample, subset, t, hp, seed):
    """Posterior mean with every subsample row as an inducing point and
    jitter on K_uu: V = L^-1 K_ux with L L' = K_uu + jitter, mean V' z with
    (V V' + noise I) z = V y."""
    y_raw = sample.nb[:, t]
    phi = sample.params[:, list(subset.indices)]
    x = (phi - phi.mean(axis=0)) / phi.std(axis=0)
    y = (y_raw - y_raw.mean()) / y_raw.std()
    perm = np.random.default_rng(seed).permutation(sample.n_sims)
    sub = np.sort(perm[:N_HYPER_ROWS])
    ls = np.asarray(hp.length_scales)
    sf2 = hp.signal_var / y_raw.std() ** 2
    sn2 = hp.noise_var / y_raw.std() ** 2
    k_uu = _kernel_from_sq(_sq_diffs(x[sub], x[sub]), ls, sf2)
    chol = cholesky(k_uu + JITTER_FACTOR * sf2 * np.eye(sub.size), lower=True)
    k_ux = _kernel_from_sq(_sq_diffs(x[sub], x), ls, sf2)
    v = solve_triangular(chol, k_ux, lower=True)
    a = v @ v.T + (sn2 + JITTER_FACTOR * sf2) * np.eye(sub.size)
    z = cho_solve(cho_factor(a, lower=True), v @ y)
    return (z @ v) * y_raw.std() + y_raw.mean()


@pytest.mark.parametrize("indices", [(1,), (0, 1), (0, 1, 2)])
def test_pivoted_inducing_set_matches_dense_subset_of_regressors(indices):
    # 1.5 is below the length scales the search settled on for these
    # subsets at S = 5000 to 20000 (1.9 to 1000).  Much shorter ones (the
    # search can run to the 0.05 floor) leave rows far from every inducing
    # point, where the dense posterior itself moves by more than 1e-2 SD
    # when its jitter changes tenfold, so it is no reference there.
    sample = generate_psa(NonlinearToySpec(), 2_000, seed=4)
    subset = ParamSubset(indices)
    fitted = np.empty_like(sample.nb)
    reference = np.empty_like(sample.nb)
    for t in range(sample.n_treatments):
        var = float(sample.nb[:, t].var())
        hp = GpHyperparameters(
            length_scales=(1.5,) * len(indices), signal_var=var, noise_var=0.2 * var
        )
        fitted[:, t], info = gp_fit_detail(
            sample, subset, t, seed=6, hyperparameters=hp
        )
        assert info["n_inducing"] < info["n_hyper_rows"] == N_HYPER_ROWS
        reference[:, t] = _dense_subset_of_regressors(sample, subset, t, hp, seed=6)
        tol = 1e-2 * np.sqrt(var)
        assert np.max(np.abs(fitted[:, t] - reference[:, t])) <= tol
    assert evpi(fitted) == pytest.approx(evpi(reference), rel=1e-4)


def test_duplicated_rows_add_no_inducing_points():
    # with S and 2S below the subsample cap every row is a candidate; a
    # copy of a kept row has no residual variance left to add
    rng = np.random.default_rng(11)
    n = 200
    phi = rng.standard_normal(n)
    sample = make_sample(np.column_stack([np.zeros(n), np.sin(3 * phi)]), phi=phi)
    doubled = sample.take(np.repeat(np.arange(n), 2))
    hp = GpHyperparameters(length_scales=(0.05,), signal_var=0.5, noise_var=0.05)
    _, info = gp_fit_detail(sample, ParamSubset.of(0), 1, hyperparameters=hp)
    _, info2 = gp_fit_detail(doubled, ParamSubset.of(0), 1, hyperparameters=hp)
    assert (info["n_hyper_rows"], info2["n_hyper_rows"]) == (n, 2 * n)
    assert info2["n_inducing"] <= info["n_inducing"]


def test_shorter_length_scale_keeps_more_inducing_points(lin_sample):
    kept = {}
    for ls in (1.0, 0.05):
        hp = GpHyperparameters(length_scales=(ls,), signal_var=2.0, noise_var=1.0)
        _, info = gp_fit_detail(lin_sample, ParamSubset.of(0), 1, hyperparameters=hp)
        assert info["n_hyper_rows"] == N_HYPER_ROWS
        kept[ls] = info["n_inducing"]
    assert 0 < kept[1.0] < kept[0.05] <= N_HYPER_ROWS


@pytest.mark.parametrize("length_scale", [1.0, 0.05])
def test_posterior_memory_bounded_at_large_sample(length_scale):
    sample = generate_psa(LinearGaussianSpec(), 100_000, seed=2)
    hp = GpHyperparameters(length_scales=(length_scale,), signal_var=2.0, noise_var=1.0)
    warm = sample.take(np.arange(1_000))  # scipy imports stay out of the trace
    gp_fit_detail(warm, ParamSubset.of(0), 1, hyperparameters=hp)
    tracemalloc.start()
    try:
        gp_fit_detail(sample, ParamSubset.of(0), 1, hyperparameters=hp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32e6, f"peak {peak / 1e6:.1f} MB"


def _scripted_minimize(coarse_end, polish_end=0.25):
    """A stand-in for ``gp.minimize`` whose coarse descent ends at
    ``coarse_end`` and whose polish (the call on more than ``N_COARSE_ROWS``
    rows) ends at ``polish_end``, each at its start point (raised when it is
    an exception).  The starts of the coarse descents and of the polish are
    kept in two lists."""
    starts, polish_starts = [], []

    def scripted(objective, theta0, **kwargs):
        polish = objective.n > N_COARSE_ROWS
        (polish_starts if polish else starts).append(np.array(theta0))
        end = polish_end if polish else coarse_end
        if isinstance(end, Exception):
            raise end
        return SimpleNamespace(x=np.array(theta0), fun=end, success=True)

    return scripted, starts, polish_starts


@pytest.mark.parametrize(
    "coarse_end", [np.inf, ValueError("synthetic"), np.nan], ids=["inf", "raises", "nan"]
)
def test_search_record_when_the_coarse_descent_fails(monkeypatch, coarse_end):
    import voikit.gp as gp_mod

    scripted, starts, polish_starts = _scripted_minimize(coarse_end)
    monkeypatch.setattr(gp_mod, "minimize", scripted)
    sample = generate_psa(LinearGaussianSpec(), 300, seed=2)
    with pytest.warns(UserWarning, match="median-heuristic"):
        _, info = gp_fit_detail(sample, ParamSubset.of(0), 1, seed=0)
    assert len(starts) == 1
    assert info["fallback_median_heuristic"] is True
    # no polish follows the fallback; its likelihood is evaluated once on
    # all 300 rows
    assert polish_starts == [] and info["polish_converged"] is None
    assert info["search_rows"] == [N_COARSE_ROWS, 300]
    assert info["likelihood_evaluations"] == [0, 1]
    assert np.isfinite(info["log_marginal_likelihood"])
    # the fallback keeps the descent's start, noise variance var(y)/5
    assert info["length_scales"] == [float(np.exp(starts[0][0]))]
    assert info["noise_var"] == pytest.approx(0.2 * info["signal_var"], rel=1e-12)


_SEARCH_KEYS = (
    "search_rows",
    "likelihood_evaluations",
    "polish_converged",
)


def test_only_searched_records_carry_the_search_record(lin_sample):
    _, searched = gp_fit_detail(lin_sample, ParamSubset.of(0), 1, seed=3)
    assert searched["search_rows"] == [N_COARSE_ROWS, N_HYPER_ROWS]
    assert all(n > 0 for n in searched["likelihood_evaluations"])
    hp = GpHyperparameters(length_scales=(1.0,), signal_var=2.0, noise_var=1.0)
    _, fixed = gp_fit_detail(lin_sample, ParamSubset.of(0), 1, hyperparameters=hp)
    _, constant = gp_fit_detail(lin_sample, ParamSubset.of(0), 0, seed=3)
    for info in (fixed, constant):
        assert not any(key in info for key in _SEARCH_KEYS)


# --- the two-level search ---------------------------------------------------


def _standardized(sample, subset, t):
    """The standardized inputs and response a fit of column t searches on."""
    phi = sample.params[:, list(subset.indices)]
    y = sample.nb[:, t]
    return (phi - phi.mean(axis=0)) / phi.std(axis=0), (y - y.mean()) / y.std()


def test_coarse_rows_are_nested_in_the_hyperparameter_rows(monkeypatch):
    import voikit.gp as gp_mod

    seen = []

    class Recording(gp_mod._MarginalLikelihood):
        def __init__(self, x, y):
            seen.append(x.copy())
            super().__init__(x, y)

    monkeypatch.setattr(gp_mod, "_MarginalLikelihood", Recording)
    sample = generate_psa(LinearGaussianSpec(), 3_000, seed=8)
    subset = ParamSubset.of(0, 1)
    _, info = gp_fit_detail(sample, subset, 1, seed=5)
    coarse, full = seen
    assert (len(coarse), len(full)) == (N_COARSE_ROWS, N_HYPER_ROWS)
    assert info["search_rows"] == [N_COARSE_ROWS, N_HYPER_ROWS]
    # every coarse row is a hyperparameter row: the first N_COARSE_ROWS of
    # the seeded permutation whose first N_HYPER_ROWS give the subsample
    full_rows = {tuple(row) for row in full}
    assert all(tuple(row) in full_rows for row in coarse)
    x, _ = _standardized(sample, subset, 1)
    perm = np.random.default_rng(5).permutation(sample.n_sims)
    assert np.allclose(coarse, x[np.sort(perm[:N_COARSE_ROWS])], rtol=0, atol=1e-12)
    assert np.allclose(full, x[np.sort(perm[:N_HYPER_ROWS])], rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [120, N_COARSE_ROWS])
def test_small_sample_is_searched_in_one_level(monkeypatch, n):
    import voikit.gp as gp_mod

    sample = generate_psa(NonlinearToySpec(), n, seed=6)
    subset = ParamSubset.of(1)
    fitted, info = gp_fit_detail(sample, subset, 1, seed=2)
    assert info["search_rows"] == [n]
    assert len(info["likelihood_evaluations"]) == 1
    assert info["polish_converged"] is None
    # the same as a search whose coarse level already has every row
    monkeypatch.setattr(gp_mod, "N_COARSE_ROWS", N_HYPER_ROWS)
    one_level, one_level_info = gp_fit_detail(sample, subset, 1, seed=2)
    assert np.array_equal(fitted, one_level)
    assert info == one_level_info


# restarts of the full-subsample reference search
_REFERENCE_RESTARTS = 5


def _full_subsample_reference(sample, subset, t, seed):
    """Lowest negative log marginal likelihood over ``_REFERENCE_RESTARTS``
    L-BFGS-B descents on the whole subsample: the first from the search's
    own start, the rest from seeded random starts around it, all with the
    search's optimizer settings."""
    import voikit.gp as gp_mod
    from scipy.optimize import minimize

    x, y = _standardized(sample, subset, t)
    rng = np.random.default_rng(seed)
    sub = np.sort(rng.permutation(sample.n_sims)[:N_HYPER_ROWS])
    objective = gp_mod._MarginalLikelihood(x[sub], y[sub])
    d = x.shape[1]
    var_y = float(y[sub].var())
    center = np.concatenate([
        np.log(objective.median_heuristic()),
        [np.log(max(var_y, 1e-6)), np.log(max(0.2 * var_y, 1e-6))],
    ])
    starts = [center] + [
        center + np.concatenate([
            rng.normal(0.0, 1.0, size=d), [rng.normal(0.0, 1.0), rng.normal(0.0, 1.5)]
        ])
        for _ in range(_REFERENCE_RESTARTS - 1)
    ]
    bounds = [gp_mod._LOG_BOUNDS["length"]] * d + [
        gp_mod._LOG_BOUNDS["signal"], gp_mod._LOG_BOUNDS["noise"]
    ]
    lo, hi = np.array(bounds).T
    ends = [
        minimize(
            objective, np.clip(start, lo, hi), jac=True, method="L-BFGS-B",
            bounds=bounds, options={"maxiter": 60, "maxfun": 80},
        ).fun
        for start in starts
    ]
    return min(float(f) for f in ends if np.isfinite(f))


def _recorded_search(sample, subset, seed):
    """The searched fit of the contrast of column 1 against column 0, with
    every optimizer call and its result recorded."""
    import voikit.gp as gp_mod

    sample = sample._with_nb(sample.nb - sample.nb[:, :1])
    real = gp_mod.minimize
    calls = []

    def recording(objective, theta0, **kwargs):
        res = real(objective, theta0, **kwargs)
        calls.append(SimpleNamespace(
            objective=objective, start=np.array(theta0), res=res, bounds=kwargs["bounds"]
        ))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gp_mod, "minimize", recording)
        _, info = gp_fit_detail(sample, subset, 1, seed=seed)
    return SimpleNamespace(sample=sample, subset=subset, info=info, calls=calls)


@pytest.fixture(scope="module", params=[("toy", "risk_reduction"), ("lg", "phi")])
def polished_search(request):
    """One searched contrast fit at S=2000, recorded."""
    spec = NonlinearToySpec() if request.param[0] == "toy" else LinearGaussianSpec()
    sample = generate_psa(spec, 2_000, seed=3)
    subset = ParamSubset.from_names([request.param[1]], sample.param_names)
    return _recorded_search(sample, subset, seed=3)


def test_polish_starts_from_the_coarse_descent(polished_search):
    coarse, polish = polished_search.calls
    assert coarse.objective.n == N_COARSE_ROWS
    assert polish.objective.n == N_HYPER_ROWS
    # the coarse descent starts from median-heuristic length scales, signal
    # variance var(y) and noise variance var(y)/5
    var_y = float(coarse.objective.y.var())
    expected = np.concatenate([
        np.log(coarse.objective.median_heuristic()),
        [np.log(var_y), np.log(0.2 * var_y)],
    ])
    assert np.allclose(coarse.start, expected, rtol=0, atol=1e-12)
    assert np.array_equal(polish.start, coarse.res.x)


def test_polish_ends_at_a_kkt_point_no_worse_than_its_start(polished_search):
    coarse, polish = polished_search.calls
    info = polished_search.info
    start, _ = polish.objective(polish.start)
    end, grad = polish.objective(polish.res.x)
    assert end <= start + 1e-12 * abs(start)
    assert info["log_marginal_likelihood"] == pytest.approx(-end, rel=1e-12)
    assert info["polish_converged"] is bool(polish.res.success)
    # projected gradient: each component the bounds let the descent follow
    lo, hi = np.array(polish.bounds).T
    projected = polish.res.x - np.clip(polish.res.x - grad, lo, hi)
    assert np.max(np.abs(projected)) <= 1e-4 * max(1.0, abs(end))


def test_noise_free_polish_ends_at_a_kkt_point_by_central_differences():
    # linear-Gaussian (phi, psi) determines net benefit exactly, so the
    # search ends with the noise variance below the jitter, where only a
    # gradient that includes the jitter lets the descent stop at an optimum
    sample = generate_psa(LinearGaussianSpec(), 10_000, seed=3001)
    _, polish = _recorded_search(sample, ParamSubset.of(0, 1), seed=3005).calls
    objective, theta = polish.objective, polish.res.x
    assert np.exp(theta[-1]) < JITTER_FACTOR * np.exp(theta[-2])
    end, _ = objective(theta)
    h = 1e-4
    numeric = np.array([
        (objective(theta + e)[0] - objective(theta - e)[0]) / (2 * h)
        for e in h * np.eye(theta.size)
    ])
    lo, hi = np.array(polish.bounds).T
    projected = theta - np.clip(theta - numeric, lo, hi)
    assert np.max(np.abs(projected)) <= 1e-4 * max(1.0, abs(end))


def test_polish_matches_a_full_subsample_search(polished_search):
    reference = _full_subsample_reference(
        polished_search.sample, polished_search.subset, 1, seed=3
    )
    polished = -polished_search.info["log_marginal_likelihood"]
    assert polished <= reference + 1e-6 * abs(reference)


@pytest.mark.parametrize("polish_end", [ValueError("synthetic"), np.inf, np.nan])
def test_failed_polish_keeps_the_coarse_optimum(monkeypatch, polish_end):
    import voikit.gp as gp_mod

    scripted, starts, polish_starts = _scripted_minimize(100.0, polish_end)
    monkeypatch.setattr(gp_mod, "minimize", scripted)
    sample = generate_psa(LinearGaussianSpec(), 300, seed=2)
    _, info = gp_fit_detail(sample, ParamSubset.of(0), 1, seed=0)
    assert len(polish_starts) == 1 and np.array_equal(polish_starts[0], starts[0])
    assert info["length_scales"] == [float(np.exp(starts[0][0]))]
    assert info["fallback_median_heuristic"] is False
    assert info["polish_converged"] is False
    # the likelihood reported is that of all 300 rows (the whole subsample,
    # in sample order) at the coarse optimum, evaluated once
    assert info["likelihood_evaluations"] == [0, 1]
    x, y = _standardized(sample, ParamSubset.of(0), 1)
    expected = -gp_mod._MarginalLikelihood(x, y)(starts[0])[0]
    assert info["log_marginal_likelihood"] == pytest.approx(expected, rel=1e-9)


def test_posterior_mean_ignores_the_unwritten_upper_triangle(monkeypatch):
    # dsyrk writes only the lower triangle of V V^T; whatever the upper one
    # holds (here NaN) must neither raise nor move the fitted values
    import scipy.linalg.blas as blas

    sample = generate_psa(LinearGaussianSpec(), 9_000, seed=4)  # three row chunks
    hp = GpHyperparameters(length_scales=(0.5,), signal_var=2.0, noise_var=1.0)
    base = gp_fit_detail(sample, ParamSubset.of(0), 1, hyperparameters=hp)[0]
    real = blas.dsyrk
    calls = []

    def dsyrk_with_nan_upper(alpha, a, *args, c=None, **kwargs):
        calls.append(c is not None)
        if c is not None:
            c[np.triu_indices(c.shape[0], 1)] = np.nan
        return real(alpha, a, *args, c=c, **kwargs)

    monkeypatch.setattr(blas, "dsyrk", dsyrk_with_nan_upper)
    fitted = gp_fit_detail(sample, ParamSubset.of(0), 1, hyperparameters=hp)[0]
    assert calls == [True, True, True]
    assert np.array_equal(fitted, base)
