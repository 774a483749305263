"""Bin-averaging and segmentation estimators against brute-force oracles."""

import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voikit import (
    BootstrapConfig,
    CumsumCurve,
    EvppiEstimate,
    LinearGaussianSpec,
    NonlinearToySpec,
    PsaSample,
    bootstrap_estimates,
    build_nb,
    cumsum_curve,
    evpi,
    generate_psa,
    linear_gaussian_oracle,
    order_by_param,
    sad_evppi,
    so_bias,
    so_choose_bins,
    so_evppi,
)
from voikit import single_param
from voikit.single_param import BIN_GRID, _bin_bounds, _relative_prefix_sums

from conftest import make_sample

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class TestOrderByParam:
    def test_already_sorted_is_identity(self):
        sample = make_sample(np.zeros((4, 2)) + [[0, 1]], phi=[1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(order_by_param(sample, 0), [0, 1, 2, 3])

    def test_direct_sort(self):
        sample = make_sample(np.zeros((3, 2)) + [[0, 1]], phi=[3.0, 1.0, 2.0])
        assert np.array_equal(order_by_param(sample, 0), [1, 2, 0])

    def test_stable_on_ties(self):
        sample = make_sample(np.zeros((4, 2)) + [[0, 1]], phi=[2.0, 1.0, 2.0, 1.0])
        assert np.array_equal(order_by_param(sample, 0), [1, 3, 0, 2])

    def test_permutation_preserves_pairing(self):
        rng = np.random.default_rng(5)
        phi = rng.normal(size=60)
        nb = np.column_stack([phi * 2, rng.normal(size=60)])
        sample = make_sample(nb, phi=phi)
        perm = order_by_param(sample, 0)
        joined = sorted(zip(phi, nb[:, 0], nb[:, 1]), key=lambda r: r[0])
        assert np.allclose([r[1] for r in joined], nb[perm, 0])
        assert np.allclose([r[2] for r in joined], nb[perm, 1])

    @pytest.mark.parametrize("column", ["tie-free", "rounded", "signed zero", "constant"])
    def test_replicate_order_is_the_stable_argsort(self, column):
        rng = np.random.default_rng(8)
        n = 500
        phi = {
            "tie-free": rng.normal(size=n),
            "rounded": np.round(rng.normal(size=n)),
            "signed zero": rng.choice([-0.0, 0.0, -1.0, 1.0], size=n),
            "constant": np.full(n, 2.5),
        }[column]
        sample = PsaSample(
            ("phi", "other"), np.column_stack([phi, rng.normal(size=n)]),
            nb=rng.normal(size=(n, 2)),
        )
        draws = rng.integers(0, n, size=n)
        rows_list = [
            np.sort(draws),                     # a bootstrap replicate
            np.sort(draws[: n // 3]),           # shorter, still sorted
            np.repeat(np.arange(n), 2),         # every row twice
            draws,                              # draw order
            draws[::-1][: n + 7 - n // 2],      # unsorted, other length
            np.arange(-n, 0),                   # negative indices
        ]
        for rows in rows_list:
            child = sample.take(rows)
            grandchild = child.take(np.sort(rng.integers(0, child.n_sims, size=child.n_sims)))
            for s in (child, grandchild):
                for p in (0, 1):
                    assert np.array_equal(
                        order_by_param(s, p), np.argsort(s.params[:, p], kind="stable")
                    )

    def test_cached_order_is_read_only(self, lin_sample):
        replicate = lin_sample.take(np.sort(np.random.default_rng(0).integers(0, 10_000, 10_000)))
        for s in (lin_sample, replicate):
            order = order_by_param(s, 0)
            assert order is order_by_param(s, 0)
            with pytest.raises(ValueError):
                order[0] = 1

    @pytest.mark.parametrize("n_threads", [1, 2, 4])
    def test_one_argsort_per_sample_and_column(self, monkeypatch, n_threads):
        sample = generate_psa(LinearGaussianSpec(), 4_000, seed=12)
        sorted_columns = []
        argsort = np.argsort

        def counting(a, *args, **kwargs):
            sorted_columns.append(a.size)
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting)
        cfg = BootstrapConfig(8, seed=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # provoke races between replicate threads
        try:
            # the replicates run first, so their threads race for the sample's sort
            for p in (0, 1):
                bootstrap_estimates(lambda s: so_evppi(s, p, 20), sample, cfg, n_threads)
                bootstrap_estimates(lambda s: sad_evppi(s, p, 1), sample, cfg, n_threads)
        finally:
            sys.setswitchinterval(interval)
        for p in (0, 1):
            n_bins, _ = so_choose_bins(sample, p, n_mc=50)
            so_evppi(sample, p, n_bins)
            sad_evppi(sample, p, 2)
            cumsum_curve(sample, p, 1, 0)
        assert sorted_columns == [4_000, 4_000]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_replicates_match_draw_order_resamples(self, seed):
        # tie-free columns: the order within duplicated rows cannot matter,
        # so the replicate values are the old draw-order ones, bit for bit
        sample = generate_psa(LinearGaussianSpec(), 3_000, seed=seed)
        cfg = BootstrapConfig(8, seed=seed)
        draw_order = [
            sample.take(np.random.default_rng([cfg.seed, b]).integers(0, 3_000, size=3_000))
            for b in range(cfg.n_replicates)
        ]
        for p in (0, 1):
            for estimator in (
                lambda s: so_evppi(s, p, 30).value,
                lambda s: sad_evppi(s, p, 1).value,
                lambda s: sad_evppi(s, p, 2).value,
            ):
                values, _ = bootstrap_estimates(estimator, sample, cfg)
                assert values.tolist() == [estimator(s) for s in draw_order]


def _tied_sample(n, n_t, seed):
    """A priced sample whose first column is rounded to one decimal, so it
    is heavy with ties, and whose second is tie-free; the net benefit
    changes slope along both."""
    rng = np.random.default_rng(seed)
    params = np.column_stack([np.round(rng.normal(size=n), 1), rng.normal(size=n)])
    slope = np.arange(n_t) - (n_t - 1) / 2
    effects = rng.uniform(0, 1, (n, n_t)) + 0.3 * np.outer(params[:, 0], slope)
    costs = rng.uniform(0, 50, (n, n_t)) + 20 * np.outer(np.abs(params[:, 1]), slope)
    return PsaSample(("tied", "free"), params, nb=build_nb(effects, costs, 100.0),
                     effects=effects, costs=costs, k=100.0)


def _rebuilt(sample):
    """The same arrays through the public constructor: a sample with no
    source, whose estimates sort and gather its own rows."""
    return PsaSample(sample.param_names, sample.params, sample.nb,
                     effects=sample.effects, costs=sample.costs, k=sample.k)


def _outcomes(sample):
    """Every single-parameter estimate on both columns, in comparable form;
    a rejected estimate counts by its error type and message."""
    calls = [
        lambda p: so_evppi(sample, p, 7),
        lambda p: so_evppi(sample, p, 40),
        lambda p: so_bias(sample, p, 3, n_mc=40, seed=1),
        lambda p: so_bias(sample, p, 25, n_mc=40, seed=2),
        lambda p: sad_evppi(sample, p, 1),
        lambda p: sad_evppi(sample, p, 2),
        lambda p: sad_evppi(sample, p, 3),
    ]
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a constant replicate column
        for p in (0, 1):
            for call in calls:
                try:
                    r = call(p)
                except ValueError as exc:
                    out.append((type(exc).__name__, str(exc)))
                    continue
                out.append((r.value, r.diagnostics) if isinstance(r, EvppiEstimate) else r)
    return out


TIED = _tied_sample(40, 3, seed=4)


class TestReplicatesReadTheParentsOrder:
    """A replicate from ``take`` with nondecreasing rows reads its parent's
    rank order; its estimates are bit for bit those of the same rows in a
    sample built from scratch."""

    @pytest.mark.parametrize("n_t", [2, 3])
    def test_replicate_equals_a_rebuilt_sample(self, n_t):
        sample = _tied_sample(600, n_t, seed=n_t)
        rows = np.sort(np.random.default_rng(n_t).integers(0, 600, size=600))
        replicate = sample.take(rows)
        assert replicate._source is not None
        assert _outcomes(replicate) == _outcomes(_rebuilt(replicate))

    def test_replicate_of_a_replicate(self):
        rng = np.random.default_rng(11)
        replicate = _tied_sample(600, 3, seed=11).take(np.sort(rng.integers(0, 600, size=600)))
        grandchild = replicate.take(np.sort(rng.integers(0, 600, size=450)))
        assert grandchild._source[0] is replicate
        assert _outcomes(grandchild) == _outcomes(_rebuilt(grandchild))

    def test_new_net_benefit_does_not_read_the_source(self):
        replicate = _tied_sample(600, 3, seed=5).take(
            np.sort(np.random.default_rng(5).integers(0, 600, size=600))
        )
        for derived in (
            replicate.at_wtp(2_000.0),
            replicate._with_nb(replicate.nb - replicate.nb[:, :1]),
        ):
            assert derived._source is None
            assert _outcomes(derived) == _outcomes(_rebuilt(derived))
        assert _outcomes(replicate.at_wtp(2_000.0)) != _outcomes(replicate)

    @settings(max_examples=40, deadline=None)
    @given(
        counts=st.lists(
            st.one_of(st.just(0), st.integers(1, 3), st.integers(30, 150)),
            min_size=TIED.n_sims, max_size=TIED.n_sims,
        ).filter(lambda c: sum(c) >= 2)
    )
    def test_any_count_vector(self, counts):
        replicate = TIED.take(np.repeat(np.arange(TIED.n_sims), counts))
        assert _outcomes(replicate) == _outcomes(_rebuilt(replicate))

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_bootstrap_sorts_the_parent_only(self, monkeypatch, n_threads):
        sample = generate_psa(LinearGaussianSpec(), 2_000, seed=7)
        sorted_columns = []
        argsort = np.argsort

        def counting(a, *args, **kwargs):
            sorted_columns.append(a.size)
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting)
        cfg = BootstrapConfig(6, seed=1)
        bootstrap_estimates(lambda s: so_evppi(s, 0, 20), sample, cfg, n_threads)
        bootstrap_estimates(lambda s: so_bias(s, 0, 20, n_mc=20), sample, cfg, n_threads)
        bootstrap_estimates(lambda s: sad_evppi(s, 0, 2), sample, cfg, n_threads)
        assert sorted_columns == [2_000]


class TestBinBounds:
    @pytest.mark.parametrize("n_rows,n_bins", [(10, 3), (100, 7), (9, 9), (57, 10)])
    def test_sizes_contiguous_and_balanced(self, n_rows, n_bins):
        bounds = _bin_bounds(np.arange(n_rows, dtype=float), n_bins)
        sizes = np.diff(bounds)
        assert sizes.sum() == n_rows
        assert sizes.max() - sizes.min() <= 1
        assert bounds[0] == 0 and bounds[-1] == n_rows
        # the remainder goes one-each to the last bins
        assert np.all(np.diff(sizes) >= 0)
        assert sizes.min() == n_rows // n_bins

    @pytest.mark.parametrize("n_bins", [0, -1, 11])
    def test_bad_bin_counts(self, n_bins):
        with pytest.raises(ValueError, match="bin count"):
            _bin_bounds(np.arange(10, dtype=float), n_bins)

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.integers(0, 12), min_size=2, max_size=80),
        tie_free=st.booleans(),
        data=st.data(),
    )
    def test_bounds_keep_ties_whole(self, values, tie_free, data):
        phi = np.arange(len(values)) if tie_free else np.sort(values)
        n_rows = phi.size
        n_bins = data.draw(st.integers(1, n_rows))
        bounds = _bin_bounds(phi, n_bins)
        assert bounds[0] == 0 and bounds[-1] == n_rows
        assert np.all(np.diff(bounds) > 0)
        interior = bounds[1:-1]
        assert np.all(phi[interior - 1] < phi[interior])
        if tie_free:
            sizes = np.full(n_bins, n_rows // n_bins)
            sizes[n_bins - n_rows % n_bins:] += 1
            assert bounds.tolist() == [0, *np.cumsum(sizes).tolist()]

    def test_tied_edge_moves_to_nearer_end_of_its_run(self):
        # ranks 2..6 hold one value; the equal-count edges are 0, 3, 6, 9
        phi = np.array([0, 1, 2, 2, 2, 2, 2, 3, 4])
        # edge 3 is one rank above the run's start (2) and four below its
        # end (7); edge 6 is one below the end
        assert _bin_bounds(phi, 3).tolist() == [0, 2, 7, 9]
        # of the edges 0, 2, 4, 6, 9, edge 4 joins the one at 2: four bins
        # asked, three used
        assert _bin_bounds(phi, 4).tolist() == [0, 2, 7, 9]
        # edge 3 sits two ranks from either end of the run 1..4: it goes down
        phi = np.array([0, 1, 1, 1, 1, 2])
        assert _bin_bounds(phi, 2).tolist() == [0, 1, 6]


class TestSoEvppi:
    def test_identical_columns_for_every_bin_count(self):
        col = np.random.default_rng(0).normal(size=40)
        sample = make_sample(np.column_stack([col, col]))
        for m in (1, 2, 7, 40):
            assert so_evppi(sample, 0, m).value == 0.0

    def test_single_bin_is_exactly_zero(self, lin_sample):
        assert so_evppi(lin_sample, 0, 1).value == 0.0

    def test_linear_gaussian_oracle(self, lin_sample):
        # closed form E[max(0, N(0,1))] = 1/sqrt(2 pi)
        est = so_evppi(lin_sample, 0, 100)
        assert est.value == pytest.approx(INV_SQRT_2PI, abs=0.03)
        assert est.method == "SO"
        assert est.diagnostics["bins"] == 100
        assert len(est.diagnostics["bin_argmax"]) == 100

    def test_invariant_under_increasing_transform(self, lin_sample):
        import voikit

        base = so_evppi(lin_sample, 0, 37).value
        transformed = voikit.PsaSample(
            param_names=lin_sample.param_names,
            params=np.column_stack(
                [np.exp(lin_sample.params[:, 0]), lin_sample.params[:, 1]]
            ),
            nb=lin_sample.nb,
        )
        assert so_evppi(transformed, 0, 37).value == base

    def test_one_row_per_bin_recovers_full_information_value(self):
        sample = generate_psa(LinearGaussianSpec(), 2_000, seed=13)
        target = evpi(sample.nb)
        got = so_evppi(sample, 0, sample.n_sims).value
        assert got == pytest.approx(target, rel=1e-12)

    @pytest.mark.parametrize("m", [0, 10_001])
    def test_bin_count_bounds(self, lin_sample, m):
        with pytest.raises(ValueError, match="bin count"):
            so_evppi(lin_sample, 0, m)

    def test_constant_column_is_zero_at_every_bin_count(self):
        nb = np.random.default_rng(3).normal(size=(50, 3))
        sample = make_sample(nb, phi=np.full(50, -1.5))
        for m in (1, 2, 7, 25, 50):
            with pytest.warns(UserWarning, match="constant"):
                est = so_evppi(sample, 0, m)
            assert est.value == 0.0
            assert est.diagnostics["bins"] == 1
            assert est.diagnostics["bin_size"] == 50

    def test_constant_column_flagged(self):
        nb = np.random.default_rng(1).normal(size=(20, 2))
        sample = make_sample(nb, phi=np.ones(20))
        with pytest.warns(UserWarning, match="constant"):
            est = so_evppi(sample, 0, 4)
        assert est.diagnostics["constant_param"] is True


def _so_bias_tensor_reference(sample, p, n_bins, n_mc, seed):
    """so_bias as it was first written, with the S x T x T cross tensor."""
    sizes = np.full(n_bins, sample.n_sims // n_bins)
    sizes[n_bins - sample.n_sims % n_bins:] += 1
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    nb_ordered = sample.nb[np.argsort(sample.params[:, p], kind="stable")]
    means = np.add.reduceat(nb_ordered, offsets[:-1], axis=0) / sizes[:, None]
    centered = nb_ordered - np.repeat(means, sizes, axis=0)
    cross = centered[:, :, None] * centered[:, None, :]
    cov = np.add.reduceat(cross, offsets[:-1], axis=0)
    cov /= (sizes - 1)[:, None, None]
    eigval, eigvec = np.linalg.eigh(cov / sizes[:, None, None])
    factor = eigvec * np.sqrt(np.clip(eigval, 0.0, None))[:, None, :]
    true_max = means.max(axis=1)
    rng = np.random.default_rng(seed)
    n_bins_eff, n_t = means.shape
    excess_sum = np.zeros(n_bins_eff)
    chunk = max(1, int(2_000_000 // max(n_bins_eff * n_t, 1)))
    done = 0
    while done < n_mc:
        take = min(chunk, n_mc - done)
        draws = rng.standard_normal((take, n_bins_eff, n_t))
        # the same column sum as so_bias: the covariance is under test here
        noise = sum(draws[:, :, t, None] * factor[:, :, t] for t in range(n_t))
        excess_sum += ((means + noise).max(axis=2) - true_max).sum(axis=0)
        done += take
    return max(0.0, float(sizes @ (excess_sum / n_mc) / sample.n_sims))


def _many_treatment_sample(n, n_t, seed):
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(n)
    nb = np.sin(np.outer(phi, np.arange(1, n_t + 1))) + rng.standard_normal((n, n_t))
    nb[:, -1] = nb[:, 0] + 0.1 * nb[:, 1]  # correlated columns
    return PsaSample(param_names=("x",), params=phi[:, None], nb=nb)


class TestSoBias:
    @pytest.mark.parametrize("n_t,n_bins", [(2, 1), (2, 7), (3, 50), (8, 4), (8, 200)])
    def test_matches_cross_tensor_reference(self, n_t, n_bins):
        sample = _many_treatment_sample(2_003, n_t, seed=n_t + n_bins)
        for seed in (0, 9):
            assert so_bias(sample, 0, n_bins, n_mc=400, seed=seed) == (
                _so_bias_tensor_reference(sample, 0, n_bins, n_mc=400, seed=seed)
            )

    def test_zero_within_bin_variance_gives_zero(self):
        nb = np.tile([[1.0, 3.0]], (30, 1))
        sample = make_sample(nb)
        assert so_bias(sample, 0, 3, n_mc=50, seed=0) == 0.0

    def test_one_bin_two_treatments_analytic(self):
        # equal means, unit sample variance, exactly uncorrelated columns:
        # the two noisy means are iid normals with sd 1/sqrt(S), and
        # E[max of two iid normals] exceeds the mean by sd/sqrt(pi)
        rng = np.random.default_rng(2)
        n = 4_000
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        a = a - a.mean()
        b = b - b.mean()
        b -= (a @ b) / (a @ a) * a  # exact sample orthogonality
        a /= a.std(ddof=1)
        b /= b.std(ddof=1)
        sample = make_sample(np.column_stack([a, b]))
        bias = so_bias(sample, 0, 1, n_mc=200_000, seed=11)
        expected = (1.0 / math.sqrt(n)) / math.sqrt(math.pi)
        assert bias == pytest.approx(expected, rel=0.02)

    def test_non_decreasing_in_bin_count_on_average(self):
        bin_counts = (2, 5, 10, 50, 200)
        totals = np.zeros(len(bin_counts))
        for seed in range(20):
            sample = generate_psa(LinearGaussianSpec(), 2_000, seed=seed)
            totals += [
                so_bias(sample, 0, m, n_mc=300, seed=seed) for m in bin_counts
            ]
        means = totals / 20
        assert np.all(np.diff(means) >= 0)

    def test_deterministic_given_seed(self, lin_sample):
        a = so_bias(lin_sample, 0, 20, n_mc=100, seed=5)
        b = so_bias(lin_sample, 0, 20, n_mc=100, seed=5)
        assert a == b

    def test_undersized_bins_rejected(self):
        sample = generate_psa(LinearGaussianSpec(), 30, seed=0)
        with pytest.raises(ValueError, match="within-bin variance"):
            so_bias(sample, 0, 20, n_mc=10)


class TestSoChooseBins:
    def test_identical_columns_select_largest_candidate(self):
        col = np.random.default_rng(3).normal(size=2_000)
        sample = make_sample(np.column_stack([col, col]))
        m, bias = so_choose_bins(sample, 0, threshold=0.1, n_mc=50, seed=0)
        assert m == 200  # grid cap at S/10
        # perfectly correlated columns have no true upward bias; the MC
        # estimate of it is pure replicate noise, far below the threshold
        assert bias <= 0.05

    def test_chosen_bins_decrease_with_noise_scale(self):
        chosen = []
        for c in (0.5, 2.0, 8.0):
            sample = generate_psa(LinearGaussianSpec(c=c), 4_000, seed=17)
            m, _ = so_choose_bins(sample, 0, threshold=0.1, n_mc=300, seed=1)
            chosen.append(m)
        assert chosen[0] >= chosen[1] >= chosen[2]
        assert chosen[0] > chosen[2]

    def test_no_candidate_falls_back_to_single_bin(self):
        sample = _equal_mean_sample(400)
        with pytest.warns(UserWarning, match="falling back"):
            m, bias = so_choose_bins(sample, 0, threshold=1e-9, n_mc=50, seed=0)
        assert m == 1
        assert bias >= 1e-9

    def test_threshold_validated(self, lin_sample):
        with pytest.raises(ValueError, match="threshold"):
            so_choose_bins(lin_sample, 0, threshold=0.0)

    @pytest.mark.parametrize(
        "n, c, threshold, kind",
        [
            (4_000, 2.0, 0.1, "top"),
            (4_000, 8.0, 0.1, "interior"),
            (2_000, 1.0, 3e-3, "interior"),
            (400, None, 1e-9, "fallback"),
            (15, 1.0, 0.5, "single"),
            (15, None, 1e-9, "fallback"),
        ],
    )
    def test_matches_evaluate_all_reference(self, n, c, threshold, kind):
        if c is None:
            sample = _equal_mean_sample(n)
        else:
            sample = generate_psa(LinearGaussianSpec(c=c), n, seed=17)
        expected = _so_choose_bins_reference(sample, 0, threshold, n_mc=100, seed=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = so_choose_bins(sample, 0, threshold=threshold, n_mc=100, seed=1)
        assert got[0] == expected[0]
        assert got[1] == expected[1]  # bit-equal: same seed per candidate
        assert any("falling back" in str(w.message) for w in caught) == (kind == "fallback")
        top = max(m for m in BIN_GRID if m <= max(1, n // 10))
        assert {"top": got[0] == top, "interior": 1 < got[0] < top,
                "fallback": got[0] == 1, "single": got[0] == top == 1}[kind]

    def _count_bias_calls(self, monkeypatch):
        calls = []
        original = single_param.so_bias

        def counted(sample, p, n_bins, **kwargs):
            calls.append(n_bins)
            return original(sample, p, n_bins, **kwargs)

        monkeypatch.setattr(single_param, "so_bias", counted)
        return calls

    def test_stops_at_first_candidate_under_threshold(self, monkeypatch):
        calls = self._count_bias_calls(monkeypatch)
        sample = generate_psa(LinearGaussianSpec(c=2.0), 4_000, seed=17)
        assert so_choose_bins(sample, 0, threshold=0.1, n_mc=100, seed=1)[0] == 200
        assert calls == [200]

    def test_candidates_with_a_one_row_bin_do_not_qualify(self, monkeypatch):
        # a run of 98 ties between two distinct ends: every count above one
        # moves its edges to the ends of the run, leaving a one-row bin
        phi = np.concatenate([[-1.0], np.zeros(98), [1.0]])
        sample = make_sample(np.random.default_rng(7).normal(size=(100, 2)), phi=phi)
        with pytest.raises(ValueError, match="within-bin variance"):
            so_bias(sample, 0, 2, n_mc=20)
        calls = self._count_bias_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m, bias = so_choose_bins(sample, 0, threshold=10.0, n_mc=20, seed=1)
        assert (m, bias) == (1, so_bias(sample, 0, 1, n_mc=20, seed=[1, 1]))
        assert calls == [10, 9, 8, 7, 6, 5, 4, 3, 2, 1]

    def test_fallback_scans_every_candidate(self, monkeypatch):
        calls = self._count_bias_calls(monkeypatch)
        sample = _equal_mean_sample(400)
        with pytest.warns(UserWarning, match="falling back"):
            so_choose_bins(sample, 0, threshold=1e-9, n_mc=20, seed=1)
        assert calls == sorted((m for m in BIN_GRID if m <= 40), reverse=True)


def _equal_mean_sample(n):
    """Equal-mean independent columns: every bin count, including a single
    bin, carries strictly positive upward bias."""
    rng = np.random.default_rng(4)
    nb = rng.standard_normal((n, 2))
    nb -= nb.mean(axis=0)
    return make_sample(nb)


def _so_choose_bins_reference(sample, p, threshold, n_mc, seed):
    """Evaluate-all bin choice: the bias of every candidate, then the
    largest candidate under the threshold, or one bin if none is."""
    max_bins = max(1, sample.n_sims // 10)
    candidates = sorted(
        m for m in BIN_GRID if 1 <= m <= max_bins and sample.n_sims // m >= 2
    ) or [1]
    biases = {m: so_bias(sample, p, m, n_mc=n_mc, seed=[seed, m]) for m in candidates}
    eligible = [m for m in candidates if biases[m] < threshold]
    best = max(eligible) if eligible else 1
    return best, biases[best]


def _rounded_phi_sample():
    """Linear-Gaussian, 3000 rows, phi rounded to 0.1: about 60 distinct values."""
    base = generate_psa(LinearGaussianSpec(a=-0.3), 3_000, seed=14)
    return PsaSample(
        base.param_names,
        np.column_stack([np.round(base.params[:, 0], 1), base.params[:, 1]]),
        nb=base.nb,
    )


class TestParameterTies:
    def test_so_row_order_within_ties_does_not_matter(self):
        # 30 equal-count bins put most edges inside a tie
        sample = _rounded_phi_sample()
        est = so_evppi(sample, 0, 30)
        chosen = so_choose_bins(sample, 0, n_mc=200, seed=4)
        assert est.diagnostics["bins"] < 30
        for seed in range(4):
            shuffled = sample.take(np.random.default_rng(seed).permutation(3_000))
            other = so_evppi(shuffled, 0, 30)
            # the same rows, summed in another order within each tie
            assert other.value == pytest.approx(est.value, rel=1e-12)
            assert other.diagnostics["bins"] == est.diagnostics["bins"]
            assert other.diagnostics["bin_argmax"] == est.diagnostics["bin_argmax"]
            n_bins, bias = so_choose_bins(shuffled, 0, n_mc=200, seed=4)
            assert n_bins == chosen[0]
            assert bias == pytest.approx(chosen[1], rel=1e-9)

    @pytest.mark.parametrize(
        "estimate",
        [
            lambda sample: so_evppi(sample, 0, 4),
            lambda sample: sad_evppi(sample, 0, 0),
            lambda sample: sad_evppi(sample, 0, 1),
        ],
        ids=["so", "sad-d0", "sad-d1"],
    )
    @pytest.mark.parametrize("k", [2, 20, 150])
    def test_tie_fraction_counts_distinct_values(self, estimate, k):
        n = 300
        rng = np.random.default_rng(k)
        phi = rng.permutation(np.arange(n) % k) * 0.5 - 3.0
        sample = make_sample(rng.standard_normal((n, 2)), phi=phi)
        diag = estimate(sample).diagnostics
        assert diag["tie_fraction"] == 1.0 - k / n
        assert diag["tie_warning"] is True
        assert "constant_param" not in diag


def _sad_brute_force_one_cut(sample, p):
    """Independent oracle: recompute the two-piece value for every cut."""
    perm = order_by_param(sample, p)
    nb = sample.nb[perm]
    n = nb.shape[0]
    best = -np.inf
    best_cut = None
    for cut in range(1, n):
        left = nb[:cut].mean(axis=0).max() * cut
        right = nb[cut:].mean(axis=0).max() * (n - cut)
        value = (left + right) / n
        if value > best:
            best, best_cut = value, cut
    return best - nb.mean(axis=0).max(), best_cut


def _sad_brute_force_exhaustive(sample, p, n_cuts):
    """Enumerate every cut combination and recompute from scratch.

    Returns the best value and every cut vector attaining it to rounding:
    a cut between two segments that pick the same treatment can slide
    without changing the total, so the maximiser need not be unique.
    """
    perm = order_by_param(sample, p)
    nb = sample.nb[perm]
    n = nb.shape[0]
    totals = {}
    for cuts in itertools.combinations(range(1, n), n_cuts):
        bounds = (0,) + cuts + (n,)
        total = 0.0
        for a, b in zip(bounds[:-1], bounds[1:]):
            total += nb[a:b].mean(axis=0).max() * (b - a)
        totals[cuts] = total / n
    best = max(totals.values())
    argmaxes = [list(c) for c, v in totals.items() if v >= best - 1e-12 * abs(best)]
    return best - nb.mean(axis=0).max(), argmaxes


def _sad_quadratic_reference(sample, p, n_cuts):
    """The O(D S^2 T) dynamic programme over every previous cut.

    ``g[j]`` is the best total of per-segment maxima when the first j
    ordered rows form d segments; each layer tries every previous cut i,
    taking the leftmost best.  The linear-time search must reproduce its
    value and cut ranks.
    """
    prefix = _relative_prefix_sums(sample.nb[order_by_param(sample, p)])
    n = prefix.shape[0] - 1
    g = prefix.max(axis=1)
    back = np.zeros((n_cuts + 2, n + 1), dtype=int)
    for d in range(2, n_cuts + 2):
        g_new = np.full(n + 1, -np.inf)
        for j in range(d, n + 1):
            i = np.arange(d - 1, j)
            cand = g[i] + (prefix[j] - prefix[i]).max(axis=1)
            k = int(np.argmax(cand))
            g_new[j] = cand[k]
            back[d, j] = i[k]
        g = g_new
    cuts = []
    j = n
    for d in range(n_cuts + 1, 1, -1):
        j = int(back[d, j])
        cuts.append(j)
    return float(g[n]) / n, sorted(cuts)


def _three_treatment_sample(n, seed):
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(n)
    means = np.column_stack([np.sin(3 * phi), np.cos(2 * phi), 0.3 * phi])
    nb = 1000.0 * means + 500.0 * rng.standard_normal((n, 3))
    return PsaSample(param_names=("x",), params=phi[:, None], nb=nb)


class TestSadEvppi:
    def test_zero_changes_give_zero(self, lin_sample):
        est = sad_evppi(lin_sample, 0, 0)
        assert est.value == 0.0
        assert est.diagnostics["cut_ranks"] == []

    def test_single_cut_against_brute_force(self):
        sample = generate_psa(LinearGaussianSpec(), 500, seed=21)
        expected, expected_cut = _sad_brute_force_one_cut(sample, 0)
        est = sad_evppi(sample, 0, 1)
        assert est.value == pytest.approx(expected, rel=1e-10)
        assert est.diagnostics["cut_ranks"] == [expected_cut]

    def test_known_sign_change_is_found(self):
        # arm 1 beats arm 0 for the first 30 ordered rows, loses after
        n = 100
        phi = np.arange(n, dtype=float)
        nb1 = np.where(phi < 30, 1.0, -1.0)
        sample = make_sample(np.column_stack([np.zeros(n), nb1]), phi=phi)
        est = sad_evppi(sample, 0, 1)
        assert est.diagnostics["cut_ranks"] == [30]
        # two-piece value: best of each side, size-weighted
        expected = (30 * 1.0 + 70 * 0.0) / n - max(0.0, nb1.mean())
        assert est.value == pytest.approx(expected)

    def test_linear_gaussian_oracle(self, lin_sample, lin_spec):
        est = sad_evppi(lin_sample, 0, 1)
        assert est.value == pytest.approx(
            linear_gaussian_oracle(lin_spec, "phi"), abs=0.03
        )

    @pytest.mark.parametrize("n_cuts", [2, 3])
    def test_multi_cut_against_exhaustive_enumeration(self, n_cuts):
        sample = generate_psa(LinearGaussianSpec(a=-0.3), 40, seed=31 + n_cuts)
        expected, argmaxes = _sad_brute_force_exhaustive(sample, 0, n_cuts)
        est = sad_evppi(sample, 0, n_cuts)
        assert est.value == pytest.approx(expected, rel=1e-10)
        assert est.diagnostics["cut_ranks"] in argmaxes

    def test_segment_treatments_expose_idle_cut(self):
        sample = generate_psa(LinearGaussianSpec(a=-0.3), 40, seed=33)
        est = sad_evppi(sample, 0, 2)
        assert est.diagnostics["cut_ranks"] == [16, 33]
        assert est.diagnostics["segment_treatments"] == [0, 1, 1]
        # the second cut separates two segments that pick the same
        # treatment: one cut reaches the same value
        one = sad_evppi(sample, 0, 1)
        assert one.diagnostics["cut_ranks"] == [16]
        assert one.diagnostics["segment_treatments"] == [0, 1]
        assert one.value == pytest.approx(est.value, rel=1e-12)
        none = sad_evppi(sample, 0, 0)
        assert none.diagnostics["segment_treatments"] == [
            int(np.argmax(sample.nb.mean(axis=0)))
        ]

    @pytest.mark.parametrize("n_cuts", [1, 2, 3])
    def test_segment_treatments_are_segment_argmaxes(self, n_cuts):
        sample = _three_treatment_sample(500, seed=2)
        est = sad_evppi(sample, 0, n_cuts)
        ordered = sample.nb[np.argsort(sample.params[:, 0], kind="stable")]
        bounds = [0, *est.diagnostics["cut_ranks"], sample.n_sims]
        expected = [
            int(np.argmax(ordered[lo:hi].sum(axis=0))) for lo, hi in zip(bounds, bounds[1:])
        ]
        assert est.diagnostics["segment_treatments"] == expected
        # each cut value is the parameter at its cut rank, inside the column's range
        phi_sorted = np.sort(sample.params[:, 0])
        cut_values = est.diagnostics["cut_values"]
        assert cut_values == [phi_sorted[c] for c in est.diagnostics["cut_ranks"]]
        assert phi_sorted[0] < min(cut_values) and max(cut_values) < phi_sorted[-1]

    @pytest.mark.parametrize("n_cuts", [1, 2, 3])
    @pytest.mark.parametrize(
        "spec,n_rows,seed,p",
        [
            (LinearGaussianSpec(), 1500, 3, 0),
            (LinearGaussianSpec(a=-0.3), 600, 8, 0),
            (NonlinearToySpec(), 800, 5, 1),
        ],
    )
    def test_matches_quadratic_reference_bit_for_bit(self, spec, n_rows, seed, p, n_cuts):
        sample = generate_psa(spec, n_rows, seed=seed)
        expected, expected_cuts = _sad_quadratic_reference(sample, p, n_cuts)
        est = sad_evppi(sample, p, n_cuts)
        assert est.value == expected
        assert est.diagnostics["cut_ranks"] == expected_cuts

    @pytest.mark.parametrize("n_cuts", [1, 2, 3])
    def test_three_treatments_match_quadratic_reference(self, n_cuts):
        # with three or more arms the lower layers add the same terms in a
        # different order, so values agree to rounding rather than bitwise
        sample = _three_treatment_sample(500, seed=2)
        expected, expected_cuts = _sad_quadratic_reference(sample, 0, n_cuts)
        est = sad_evppi(sample, 0, n_cuts)
        assert est.value == pytest.approx(expected, rel=1e-12)
        assert est.diagnostics["cut_ranks"] == expected_cuts

    def test_three_cuts_at_one_hundred_thousand_rows(self):
        sample = generate_psa(LinearGaussianSpec(a=-0.3), 100_000, seed=61)
        cap = evpi(sample.nb) + 1e-12
        values = [0.0]
        for d in (1, 2, 3):
            est = sad_evppi(sample, 0, d)
            cuts = est.diagnostics["cut_ranks"]
            assert len(cuts) == d
            assert 0 < cuts[0] and cuts[-1] < sample.n_sims
            assert all(a < b for a, b in zip(cuts, cuts[1:]))
            assert est.value >= values[-1] - 1e-12
            assert est.value <= cap
            values.append(est.value)

    def test_non_decreasing_in_cut_count(self):
        sample = generate_psa(LinearGaussianSpec(), 300, seed=41)
        values = [sad_evppi(sample, 0, d).value for d in range(4)]
        assert np.all(np.diff(values) >= -1e-12)

    def test_bounded_by_full_information_value(self):
        for seed in range(5):
            sample = generate_psa(LinearGaussianSpec(), 400, seed=seed)
            cap = evpi(sample.nb) + 1e-12
            for d in range(4):
                assert sad_evppi(sample, 0, d).value <= cap

    def test_identical_columns_zero_for_all_cut_counts(self):
        col = np.random.default_rng(4).normal(size=50)
        sample = make_sample(np.column_stack([col, col]))
        for d in range(4):
            assert sad_evppi(sample, 0, d).value == 0.0

    @pytest.mark.parametrize("n_cuts", [1, 2, 3])
    def test_row_order_within_ties_does_not_matter(self, n_cuts):
        # about 60 distinct values over 3000 rows: every cut would fall
        # inside a tie if it were allowed to
        sample = _rounded_phi_sample()
        est = sad_evppi(sample, 0, n_cuts)
        phi_sorted = np.sort(sample.params[:, 0])
        for c in est.diagnostics["cut_ranks"]:
            assert phi_sorted[c - 1] < phi_sorted[c]
        for seed in range(3):
            shuffled = sample.take(np.random.default_rng(seed).permutation(3_000))
            other = sad_evppi(shuffled, 0, n_cuts)
            # the same rows, summed in another order within each tie
            assert other.value == pytest.approx(est.value, rel=1e-12)
            assert other.diagnostics["cut_values"] == est.diagnostics["cut_values"]
            assert other.diagnostics["cut_ranks"] == est.diagnostics["cut_ranks"]

    def test_cuts_need_distinct_values(self):
        nb = np.random.default_rng(15).normal(size=(40, 2))
        constant = make_sample(nb, phi=np.full(40, 2.5))
        with pytest.raises(ValueError, match="1 distinct parameter values"):
            sad_evppi(constant, 0, 1)
        with pytest.warns(UserWarning, match="constant"):
            assert sad_evppi(constant, 0, 0).value == 0.0
        two_levels = make_sample(nb, phi=np.arange(40) % 2)
        est = sad_evppi(two_levels, 0, 1)
        assert est.diagnostics["cut_ranks"] == [20]
        assert est.diagnostics["cut_values"] == [1.0]
        with pytest.raises(ValueError, match="2 distinct parameter values"):
            sad_evppi(two_levels, 0, 2)

    def test_cut_count_validation(self, lin_sample):
        with pytest.raises(ValueError, match="capped at 3"):
            sad_evppi(lin_sample, 0, 4)
        with pytest.raises(ValueError, match=">= 0"):
            sad_evppi(lin_sample, 0, -1)
        tiny = generate_psa(LinearGaussianSpec(), 3, seed=0)
        with pytest.raises(ValueError, match="more decision changes"):
            sad_evppi(tiny, 0, 3)


@st.composite
def _degenerate_samples(draw):
    """Small samples full of ties: a few parameter values, net benefits from
    a few values (signed zeros included), and columns that may repeat."""
    n = draw(st.integers(2, 12))
    n_t = draw(st.integers(2, 4))
    phi = draw(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 2.0, 3.5]),
                        min_size=n, max_size=n))
    values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-3, -2.5e6])
    cols = draw(st.lists(st.lists(values, min_size=n, max_size=n),
                         min_size=n_t, max_size=n_t))
    shape = draw(st.sampled_from(["free", "identical arms", "all arms equal"]))
    if shape == "identical arms":
        cols[-1] = cols[0]
    elif shape == "all arms equal":
        cols = [cols[0]] * n_t
    return make_sample(np.column_stack(cols), phi=phi)


def _positive(value):
    """>= 0 with a positive sign bit: a -0.0 would print as -0.0 in JSON."""
    return value >= 0 and math.copysign(1.0, value) == 1.0


class TestExactlyNonnegative:
    @settings(max_examples=300, deadline=None)
    @given(sample=_degenerate_samples())
    def test_so_and_sad_on_ties_and_equal_arms(self, sample):
        n_distinct = np.unique(sample.params[:, 0]).size  # -0.0 ties 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # constant column
            for m in range(1, sample.n_sims + 1):
                assert _positive(so_evppi(sample, 0, m).value), m
            for d in range(min(4, n_distinct)):
                assert _positive(sad_evppi(sample, 0, d).value), d


class TestCumsumCurve:
    def test_identical_treatments_give_flat_zero(self):
        col = np.random.default_rng(6).normal(size=30)
        sample = make_sample(np.column_stack([col, col]))
        curve = cumsum_curve(sample, 0, 1, 0)
        assert np.all(curve.values == 0.0)

    def test_interior_maximum_at_sign_change(self):
        n = 200
        phi = np.linspace(0, 1, n)
        inc = np.where(phi < 0.5, 1.0, -1.0)
        sample = make_sample(np.column_stack([np.zeros(n), inc]), phi=phi)
        curve = cumsum_curve(sample, 0, 1, 0)
        # independent check: scan the curve for its peak
        assert int(np.argmax(curve.values)) == n // 2
        assert curve.values[0] == 0.0

    def test_endpoint_prefix_identity(self):
        sample = generate_psa(LinearGaussianSpec(), 500, seed=2)
        curve = cumsum_curve(sample, 0, 1, 0)
        inc = (sample.nb[:, 1] - sample.nb[:, 0])[order_by_param(sample, 0)]
        n = sample.n_sims
        assert curve.values[-1] == pytest.approx(
            inc[:-1].mean() * (n - 1) / n, rel=1e-12
        )

    def test_negation_when_treatments_swap(self, lin_sample):
        a = cumsum_curve(lin_sample, 0, 1, 0)
        b = cumsum_curve(lin_sample, 0, 0, 1)
        assert np.array_equal(a.values, -b.values)

    def test_bad_treatment_indices(self, lin_sample):
        with pytest.raises(ValueError, match="out of range"):
            cumsum_curve(lin_sample, 0, 0, 9)
        with pytest.raises(ValueError, match="differ"):
            cumsum_curve(lin_sample, 0, 1, 1)

    def test_curves_compare_and_hash_by_identity(self, lin_sample):
        a = cumsum_curve(lin_sample, 0, 1, 0)
        b = cumsum_curve(lin_sample, 0, 1, 0)
        assert np.array_equal(a.values, b.values)
        assert a == a and a != b
        assert len({a, b}) == 2

    def test_curve_type_validates(self):
        with pytest.raises(ValueError, match="start at zero"):
            CumsumCurve(phi=np.array([1.0, 2.0]), values=np.array([0.5, 1.0]))
