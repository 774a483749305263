"""Single-parameter EVPPI estimators built on rank-ordering one column.

Both estimators sort the simulations by the parameter of interest, split
the ordered net-benefit rows into contiguous segments, and sum each
segment's best net benefit.  Taken relative to the on-average best
treatment that sum is the EVPPI estimate itself; the estimators differ
only in where the segment bounds go:

* bin averaging fixes them: M bins of near-equal row count.  M is chosen
  by holding the estimator's upward bias (estimated by a seeded normal
  perturbation of the bin means) under a threshold.
* segmentation search searches for them: the D cut points that maximise
  the total.  D is the number of times the decision is believed to change
  and must be supplied by the analyst; the cumulative-sum curve below is
  the supporting visual.  The search is exact and costs O(D S T) for S
  rows and T treatments.

No segment bound falls inside a run of tied parameter values, so neither
estimate depends on the order of tied rows.

Past the sort, cached per column and read by a bootstrap replicate from
its parent, repeated by count, an estimate makes elementwise O(S T)
passes: the ordered net benefit is gathered with ``np.take``, the prefix
sums are written into one preallocated array, and every best over
treatments is a running ``np.maximum`` down the T columns
(:func:`~voikit.psa._row_max`), never a per-row reduction, which numpy
runs slowly on a short last axis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .psa import EvppiEstimate, PsaSample, _row_max, incremental_nb

__all__ = [
    "CumsumCurve",
    "order_by_param",
    "so_evppi",
    "so_bias",
    "so_choose_bins",
    "sad_evppi",
    "cumsum_curve",
    "BIN_GRID",
]

# Candidate bin counts for the automatic choice; values above S/10 are
# dropped so bins keep enough rows for stable means.
BIN_GRID = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 20, 30, 50, 75, 100, 150, 200)

DEFAULT_BIAS_THRESHOLD = 0.1
DEFAULT_BIAS_REPLICATES = 500


class _OneRowBin(ValueError):
    """A bin of one row, which has no within-bin variance."""


@dataclass(frozen=True, eq=False)
class CumsumCurve:
    """Plot-ready cumulative incremental net benefit along a parameter.

    ``values[j]`` is the scaled sum of the incremental net benefit over the
    rows ranked strictly below j, so the first point is zero by convention.
    Interior extrema hint at parameter values where the optimal decision
    changes.
    """

    phi: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if phi.shape != values.shape or phi.ndim != 1:
            raise ValueError("phi and values must be 1-D and the same length")
        if values.size and values[0] != 0.0:
            raise ValueError("curve must start at zero")
        if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(values))):
            raise ValueError("curve contains non-finite entries")
        for arr in (phi, values):
            arr.flags.writeable = False
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "values", values)


def order_by_param(sample: PsaSample, p: int) -> np.ndarray:
    """Permutation putting the rows of column p in ascending order.

    The sort is stable, so tied parameter values keep their original row
    order.  The sample computes it once per column and every caller shares
    the read-only array; the estimators here read a bootstrap replicate's
    order off its parent's, each row repeated by its count
    (:meth:`PsaSample.take`).
    """
    return sample.param_order(p)


def _phi_diagnostics(tied: np.ndarray) -> dict:
    """Tie and constancy flags of a parameter column from its tie mask
    (:func:`_ranked`), so distinct values are counted without another
    sort."""
    n_rows = tied.size + 1
    n_unique = n_rows - int(np.count_nonzero(tied))
    tie_fraction = 1.0 - n_unique / n_rows
    diag: dict = {"tie_fraction": float(tie_fraction)}
    if n_unique == 1:
        diag["constant_param"] = True
        warnings.warn("parameter column is constant; ordering is degenerate")
    elif tie_fraction > 0.01:
        diag["tie_warning"] = True
    return diag


def _ranked(sample: PsaSample, p: int):
    """What every single-parameter estimate starts from: column p sorted,
    its tie mask (``tied[j]`` says ranks j and j+1 hold equal values), and
    the net benefit in rank order, a fresh array.  A bootstrap replicate is
    a count vector over its parent (:meth:`PsaSample.take`), whose arrays
    it would gather on first read; this reads none of them, but gathers
    both in rank order straight from the parent's arrays, by the parent's
    cached order with each row repeated by its count."""
    if sample._source is None:
        base, rows = sample, order_by_param(sample, p)
    else:
        base, counts = sample._source
        order = order_by_param(base, p)
        rows = np.repeat(order, counts[order])
    phi_sorted = base.param_column(p)[rows]
    return phi_sorted, phi_sorted[1:] == phi_sorted[:-1], np.take(base.nb, rows, axis=0)


def _bin_bounds(phi_sorted: np.ndarray, n_bins: int) -> np.ndarray:
    """Bounds of the bins that split the S ranked rows of the sorted column
    ``phi_sorted`` into at most ``n_bins`` contiguous bins.

    The equal-count edges give sizes that differ by at most one, the extra
    rows going one each to the last bins.  An edge inside a run of tied
    values then moves to the nearer end of the run (the lower end on equal
    distance), and edges that land on the same rank merge, so no bin splits
    a tie.  A tie-free column keeps the equal-count edges.  The bounds rise
    strictly from 0 to S; bin m holds ranks ``bounds[m]:bounds[m+1]``.
    """
    n_rows = phi_sorted.size
    if not 1 <= n_bins <= n_rows:
        raise ValueError(f"bin count must be in [1, {n_rows}], got {n_bins}")
    base, remainder = divmod(n_rows, n_bins)
    k = np.arange(n_bins + 1)
    edges = k * base + np.maximum(k - (n_bins - remainder), 0)
    # the run of values equal to the one ranked at each inner edge: an edge
    # at the start of its run stays, any other moves to the nearer end
    inner = edges[1:-1]
    lo = np.searchsorted(phi_sorted, phi_sorted[inner], side="left")
    hi = np.searchsorted(phi_sorted, phi_sorted[inner], side="right")
    edges[1:-1] = np.where(inner - lo <= hi - inner, lo, hi)
    return np.unique(edges)


def so_evppi(sample: PsaSample, p: int, n_bins: int) -> EvppiEstimate:
    """Bin-averaging single-parameter EVPPI.

    Rows are ordered by parameter column ``p`` and split into ``n_bins``
    contiguous bins of near-equal row count, none splitting a run of tied
    values (:func:`_bin_bounds`); the estimate is the size-weighted average
    of per-bin best mean net benefit minus the overall best mean.  Only the
    ranks of the parameter matter, so any strictly increasing transform of
    the column leaves the estimate unchanged.  The diagnostics give the
    bins used (``bins``; edges in one tie merge) and the smallest
    (``bin_size``).
    """
    phi_sorted, tied, ordered = _ranked(sample, p)
    bounds = _bin_bounds(phi_sorted, n_bins)
    prefix = _relative_prefix_sums(np.add.reduceat(ordered, bounds[:-1], axis=0))
    maxima, best = _segment_maxima(prefix, np.arange(bounds.size))
    diag = {
        "bins": int(bounds.size - 1),
        "bin_size": int(np.diff(bounds).min()),
        "bin_argmax": best.tolist(),
        **_phi_diagnostics(tied),
    }
    return EvppiEstimate(float(maxima.sum()) / sample.n_sims, "SO", diagnostics=diag)


def so_bias(
    sample: PsaSample,
    p: int,
    n_bins: int,
    n_mc: int = DEFAULT_BIAS_REPLICATES,
    seed=0,
) -> float:
    """Estimated upward bias of :func:`so_evppi` at a given bin count.

    Within each bin the vector of treatment means is perturbed by zero-mean
    normal noise whose covariance is the within-bin sample covariance over
    the bin size, matching the joint sampling noise of the actual bin
    means.  (Correlation across treatments matters: identical columns give
    perfectly correlated means and no upward bias at all.)  The average
    excess of the noisy per-bin maximum over the true per-bin maximum,
    size-weighted across bins, estimates how much the max-of-noisy-means
    inflates the first term.  The bins are those :func:`so_evppi` uses at
    the same count; one of fewer than two rows is an error.  Deterministic
    given the seed; the Monte Carlo average is clamped at zero.
    """
    if n_mc < 1:
        raise ValueError("need at least one bias replicate")
    phi_sorted, _, centered = _ranked(sample, p)  # centred in place below
    bounds = _bin_bounds(phi_sorted, n_bins)
    sizes = np.diff(bounds)
    if sizes.min() < 2:
        raise _OneRowBin(
            f"a bin of {sizes.min()} row cannot estimate within-bin variance; use fewer bins"
        )
    means = np.add.reduceat(centered, bounds[:-1], axis=0) / sizes[:, None]
    n_bins_eff, n_t = means.shape

    # within-bin covariance, one product column per treatment pair: O(S)
    # memory instead of an S x T x T tensor
    centered -= np.repeat(means, sizes, axis=0)
    cov = np.empty((n_bins_eff, n_t, n_t))
    for i, j in zip(*np.triu_indices(n_t)):
        pair = np.add.reduceat(centered[:, i] * centered[:, j], bounds[:-1])
        cov[:, i, j] = cov[:, j, i] = pair
    cov /= (sizes - 1)[:, None, None]

    # noise factor per bin: sqrt of the covariance of the bin MEAN vector
    eigval, eigvec = np.linalg.eigh(cov / sizes[:, None, None])
    factor = eigvec * np.sqrt(np.clip(eigval, 0.0, None))[:, None, :]

    true_max = _row_max(means)
    rng = np.random.default_rng(seed)
    excess_sum = np.zeros(n_bins_eff)
    chunk = max(1, int(2_000_000 // max(n_bins_eff * n_t, 1)))
    done = 0
    while done < n_mc:
        take = min(chunk, n_mc - done)
        draws = rng.standard_normal((take, n_bins_eff, n_t))
        # T column products: bitwise einsum "cmt,mst->cms" at T = 2, and faster
        noise = draws[:, :, 0, None] * factor[:, :, 0]
        for t in range(1, n_t):
            noise += draws[:, :, t, None] * factor[:, :, t]
        noise += means
        noisy_max = _row_max(noise)
        excess_sum += (noisy_max - true_max).sum(axis=0)
        done += take
    per_bin_bias = excess_sum / n_mc
    bias = float(sizes @ per_bin_bias / sample.n_sims)
    return max(0.0, bias)


def so_choose_bins(
    sample: PsaSample,
    p: int,
    threshold: float = DEFAULT_BIAS_THRESHOLD,
    n_mc: int = DEFAULT_BIAS_REPLICATES,
    seed: int = 0,
) -> tuple[int, float]:
    """Largest candidate bin count whose estimated upward bias is below
    ``threshold`` (in net-benefit currency units), with that bias.

    The candidates are the :data:`BIN_GRID` entries up to S/10.  They are
    scanned from the largest down and the scan stops at the first one under
    the threshold, so only candidates at or above the choice have their
    bias estimated.  Each candidate's bias uses a seed derived from
    (seed, candidate), so the result is reproducible and the same as
    estimating every candidate and keeping the largest qualifying one.  A
    candidate whose bins, kept clear of ties, include one of a single row
    does not qualify.  Falls back to a single bin, with a warning and the
    single bin's bias, when no other candidate qualifies.
    """
    if not (threshold > 0 and math.isfinite(threshold)):
        raise ValueError(f"threshold must be positive and finite, got {threshold}")
    max_bins = max(1, sample.n_sims // 10)
    # BIN_GRID ascends from 1, so the scan always ends at the single bin,
    # whose S >= 2 rows always give a within-bin variance
    for m in reversed(BIN_GRID):
        if m > max_bins:
            continue
        try:
            bias = so_bias(sample, p, m, n_mc=n_mc, seed=[seed, m])
        except _OneRowBin:
            continue
        if bias < threshold:
            return m, bias
    warnings.warn(
        f"no candidate bin count has upward bias below {threshold}; "
        "falling back to a single bin (estimate will be 0)"
    )
    return 1, bias


def _relative_prefix_sums(nb_ordered: np.ndarray) -> np.ndarray:
    """Prefix sums of each treatment column minus those of the on-average
    best treatment.

    Subtracting the best column telescopes out of every segmentation, so
    the search objective becomes the EVPPI estimate directly; and since the
    best column's own relative prefix is exactly zero, every per-segment
    maximum is exactly nonnegative (identical columns give exactly 0).
    """
    n_rows, n_t = nb_ordered.shape
    prefix = np.empty((n_rows + 1, n_t))
    prefix[0] = 0.0
    np.cumsum(nb_ordered, axis=0, out=prefix[1:])
    t_star = int(np.argmax(prefix[-1]))
    prefix -= prefix[:, [t_star]]
    return prefix


def _segment_maxima(prefix: np.ndarray, bounds) -> tuple[np.ndarray, np.ndarray]:
    """Best relative sum of each segment ``bounds[m]:bounds[m+1]`` of the
    rows behind ``prefix``, and the treatment attaining it (lowest index on
    ties).  Their total over a segmentation, divided by S, is its EVPPI
    estimate."""
    segments = prefix[bounds[1:]] - prefix[bounds[:-1]]
    return _row_max(segments), segments.argmax(axis=1)


def _best_cuts(
    prefix: np.ndarray, n_cuts: int, tied: np.ndarray
) -> tuple[float, list[int]]:
    """Exact maximiser over all segmentations with ``n_cuts`` cuts, each
    between two distinct parameter values.

    ``g_d[j]`` is the best total of per-segment maxima of summed net
    benefit when the first j ordered rows form d segments.  The maximum
    over the previous cut i and the maximum over treatment t commute, so

        g_d[j] = max_t (P_t[j] + max_{i<j} (g_{d-1}[i] - P_t[i]))

    and each layer is one running maximum: O(D S T) in all, against
    O(S^D) for enumerating every cut vector.  The last layer is needed at
    j=S only; it and every backtracking step use the direct form
    ``max_i g[i] + max_t (P_t[j] - P_t[i])``, with ties going to the
    leftmost cut.

    ``tied[j-1]`` marks rank j as lying inside a run of equal parameter
    values.  No segment may end there, in any layer: a cut there would
    split the tie by row order, which the sample does not define.
    """
    n_rows = prefix.shape[0] - 1
    closed = np.concatenate([[True], tied, [False]])  # rank 0: no rows yet
    g = _row_max(prefix)
    g[closed] = -np.inf
    layers = [g]
    for _ in range(n_cuts - 1):
        run = np.maximum.accumulate(g[:, None] - prefix, axis=0)
        g = np.full(n_rows + 1, -np.inf)
        g[1:] = _row_max(prefix[1:] + run[:-1])
        g[closed] = -np.inf
        layers.append(g)

    best = None
    cuts = []
    j = n_rows
    for g in reversed(layers):
        totals = g[:j] + _row_max(prefix[j] - prefix[:j])
        i = int(np.argmax(totals))
        if best is None:
            best = float(totals[i])
        cuts.append(i)
        j = i
    return best, cuts[::-1]


def sad_evppi(sample: PsaSample, p: int, n_changes: int) -> EvppiEstimate:
    """Segmentation-search single-parameter EVPPI.

    ``n_changes`` is the number of decision changes the analyst attributes
    to the parameter (read off the cumulative-sum curve); the search places
    that many cuts between consecutive distinct parameter values (never
    inside a tie) to maximise the size-weighted sum of per-segment best
    mean net benefit, then subtracts the overall best mean.  Zero changes
    declare the parameter non-influential, which pins the estimate at zero.
    Capped at three cuts; beyond that the estimator's premise (a handful of
    decision changes) is broken anyway.  D cuts need more than D distinct
    parameter values.

    ``segment_treatments`` in the diagnostics names the best treatment of
    each of the D+1 segments (lowest index on ties).  A cut whose two
    neighbouring segments pick the same treatment is idle: it marks no
    decision change, and sliding it anywhere between its neighbouring cuts
    leaves the total unchanged, so its position is one pick among exact
    ties.
    """
    if n_changes < 0:
        raise ValueError(f"number of decision changes must be >= 0, got {n_changes}")
    if n_changes > 3:
        raise ValueError(
            f"segmentation search is capped at 3 decision changes, got {n_changes}"
        )

    phi_sorted, tied, ordered = _ranked(sample, p)
    n_distinct = sample.n_sims - int(np.count_nonzero(tied))
    if n_changes >= n_distinct:
        raise ValueError(
            f"more decision changes than {n_distinct} distinct parameter values allow"
        )
    diag: dict = {"changes": int(n_changes), **_phi_diagnostics(tied)}

    if n_changes == 0:
        diag["cut_ranks"] = []
        diag["cut_values"] = []
        diag["segment_treatments"] = [int(np.argmax(sample.nb.sum(axis=0)))]
        return EvppiEstimate(0.0, "SAD", diagnostics=diag)

    prefix = _relative_prefix_sums(ordered)
    best, cut_ranks = _best_cuts(prefix, n_changes, tied)
    value = best / sample.n_sims

    diag["cut_ranks"] = [int(c) for c in cut_ranks]
    diag["cut_values"] = [float(phi_sorted[c]) for c in cut_ranks]
    _, segment_best = _segment_maxima(prefix, [0, *cut_ranks, sample.n_sims])
    diag["segment_treatments"] = segment_best.tolist()
    return EvppiEstimate(value, "SAD", diagnostics=diag)


def cumsum_curve(sample: PsaSample, p: int, t: int, t_prime: int) -> CumsumCurve:
    """Cumulative incremental net benefit between two treatments, ordered
    by parameter column ``p``.

    The j-th point sums the increments of the rows ranked strictly below j
    and divides by the number of simulations, so the curve starts at zero
    and interior extrema flag candidate decision changes.
    """
    inc = incremental_nb(sample.nb, t, t_prime)
    perm = order_by_param(sample, p)
    ordered = inc[perm]
    values = np.concatenate([[0.0], np.cumsum(ordered)[:-1]]) / sample.n_sims
    return CumsumCurve(phi=sample.param_column(p)[perm], values=values)
