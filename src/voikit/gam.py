"""Penalized regression-spline smoothing of net benefit on parameters.

Every net-benefit column is regressed on the chosen parameter columns with
a cubic B-spline basis (breakpoints at empirical quantiles, 10 per
dimension), additive across dimensions.  For subsets of up to three
parameters, pairwise tensor-product interactions on a reduced basis are
added; larger subsets stay additive.  The roughness penalty is the exact
integrated squared second derivative, whose null space contains all linear
functions.  Each column gets its own smoothing parameter: the level with
the lowest generalized cross-validation (GCV) score on one fixed log grid.

The design and the penalty depend on the parameters only, so one call
builds them once and fits every treatment column on them.  One generalized
eigendecomposition (the Demmler-Reinsch form; Wood, *Generalized Additive
Models*, 2nd ed., 2017, section 5.4) diagonalizes the normal equations at
every smoothing level at once, so each GCV score costs O(p) for p basis
functions instead of a Cholesky factorization, and every column is scored
on the whole grid in one array pass.

The S x p design is never held whole.  Each row's four nonzero cubic
B-splines come from the Cox-de Boor recursion, and the design's column
sums, X'X, X'y and the fitted values are formed over blocks of
``_CHUNK_ROWS`` rows; beyond the S x T response and fitted values, a fit's
memory does not grow with S.

A fit calls numpy only, so it never loads scipy's OpenBLAS, and it runs
numpy's at one thread (:func:`voikit._blas.one_blas_thread`).  Both
choices keep OpenBLAS thread pools out of a fit: a fit that alternated
numpy products with scipy's LAPACK woke the two pools in turn, and a
threaded numpy split the chunked Gram products over idle-spinning
workers; either cost more than the arithmetic at S = 10^4.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from .psa import ParamSubset, PsaSample, _row_chunks, _standardized_params

__all__ = ["gam_fit_detail", "MAX_GAM_DIMENSIONS"]

MAX_GAM_DIMENSIONS = 5

_N_BREAKPOINTS = 10
_N_BREAKPOINTS_TENSOR = 5
_DEGREE = 3
# Tiny ridge on tensor-interaction coefficients: their penalty null space
# (bilinear functions) overlaps the main effects, and without it the
# normal equations can be singular.
_TENSOR_RIDGE = 1e-6

# Smoothing levels: 20 per decade over 16 decades around the trace ratio.
_N_GRID = 321

_GAUSS_NODES = np.array([-1.0, 1.0]) / math.sqrt(3.0)


@dataclass(frozen=True)
class _Basis:
    knots: np.ndarray
    n_funcs: int

    @classmethod
    def from_data(cls, x: np.ndarray, n_breakpoints: int) -> "_Basis":
        # at least two: the columns fitted on are never constant, so min < max
        bp = np.unique(np.quantile(x, np.linspace(0.0, 1.0, n_breakpoints)))
        knots = np.concatenate([[bp[0]] * _DEGREE, bp, [bp[-1]] * _DEGREE])
        return cls(knots=knots, n_funcs=len(knots) - _DEGREE - 1)

    def fill(self, out: np.ndarray, x: np.ndarray, degree: int = _DEGREE) -> None:
        """Write the B-splines of ``degree`` on the knots at every x, clipped
        to the breakpoints, into the zeroed ``out``: one row per function,
        one column per x.

        Only degree + 1 of them can be nonzero at x: those the Cox-de Boor
        recursion builds over x's interval t_k <= x < t_(k+1) (the last
        interval is closed).  Every denominator spans that interval, so
        none is zero.
        """
        t = self.knots
        x = np.clip(x, t[_DEGREE], t[-_DEGREE - 1])
        k = np.clip(np.searchsorted(t, x, side="right") - 1, _DEGREE, self.n_funcs - 1)
        left = [x - t[k - j] for j in range(degree)]
        right = [t[k + 1 + j] - x for j in range(degree)]
        values = [np.ones_like(x)]
        for j in range(1, degree + 1):
            saved = np.zeros_like(x)
            raised = []
            for r in range(j):
                temp = values[r] / (right[r] + left[j - r - 1])
                raised.append(saved + right[r] * temp)
                saved = left[j - r - 1] * temp
            raised.append(saved)
            values = raised
        cols = np.arange(x.size)
        for j, v in enumerate(values):
            out[k - degree + j, cols] = v

    def curvature_penalty(self) -> np.ndarray:
        """Gram matrix of basis second derivatives.

        Differencing the coefficients twice (de Boor's derivative formula)
        writes every basis function's second derivative in the linear
        B-splines on the knots less two at each end, so it is piecewise
        linear, and a two-point Gauss rule per breakpoint interval
        integrates the products exactly.  Linear functions lie in the null
        space.
        """
        t = self.knots
        coef = np.eye(self.n_funcs)
        knots = t
        for k in (_DEGREE, _DEGREE - 1):
            coef = (coef[1:] - coef[:-1]) * k / (knots[k + 1 : -1] - knots[1 : -k - 1])[:, None]
            knots = knots[1:-1]
        bp = t[_DEGREE : len(t) - _DEGREE]
        halves = 0.5 * (bp[1:] - bp[:-1])
        nodes = 0.5 * (bp[:-1] + bp[1:])[:, None] + halves[:, None] * _GAUSS_NODES
        hats = np.zeros((len(t) - 2, nodes.size))
        self.fill(hats, nodes.ravel(), 1)
        second = (hats[2:-2].T @ coef).reshape(len(halves), _GAUSS_NODES.size, -1)
        pen = np.zeros((self.n_funcs, self.n_funcs))
        for half, vals in zip(halves, second):
            pen += half * (vals.T @ vals)
        return pen


def _normalized(pen: np.ndarray) -> np.ndarray:
    scale = np.trace(pen) / pen.shape[0]
    return pen / scale if scale > 0 else pen


def _sum_to_zero(column_means: np.ndarray) -> np.ndarray:
    """Reparameterization Z that makes a smooth block's fitted values sum
    to zero: the block B becomes B Z and its penalty Z' P Z.

    B-spline bases contain the constant function (partition of unity), so a
    raw block is exactly collinear with the intercept AND that direction is
    penalty-free: the normal equations would be singular at every smoothing
    level.  Projecting the coefficients onto the complement of the
    sum-of-fitted-values direction removes the redundancy while keeping
    (centered) linear functions representable and penalty-free.
    """
    return np.linalg.qr(column_means[:, None], mode="complete")[0][:, 1:]


def _block_diagonal(blocks: list[np.ndarray]) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    at = 0
    for b in blocks:
        w = b.shape[0]
        out[at : at + w, at : at + w] = b
        at += w
    return out


@dataclass(frozen=True)
class _RawDesign:
    """The spline design before its constraints, formed for any block of
    rows.

    Its columns are the intercept, every main-effect B-spline and, with
    interactions, every B-spline of the reduced tensor-marginal bases and
    the row-wise products of each pair of marginals.  The fitted design is
    ``raw @ transform`` (:meth:`constraints`): column 0 is the intercept,
    and every smooth block is constrained to zero-sum fitted values, so the
    constant lives only in the intercept.  The constraints depend on the raw
    column means alone, and those are row 0 of the raw Gram matrix, so a
    single pass over the rows gives X'X and X'y.
    """

    mains: tuple[_Basis, ...]
    marginals: tuple[_Basis, ...]
    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def from_data(cls, phi: np.ndarray, interactions: bool) -> "_RawDesign":
        n_dims = phi.shape[1]
        pairs = tuple(itertools.combinations(range(n_dims), 2)) if interactions else ()
        return cls(
            mains=tuple(_Basis.from_data(phi[:, d], _N_BREAKPOINTS) for d in range(n_dims)),
            marginals=tuple(
                _Basis.from_data(phi[:, d], _N_BREAKPOINTS_TENSOR)
                for d in range(n_dims if pairs else 0)
            ),
            pairs=pairs,
        )

    def layout(self):
        """Raw-column slices of the main blocks, the marginals and the
        pair products, and the raw column count."""
        at = 1

        def take(width):
            nonlocal at
            at += width
            return slice(at - width, at)

        mains = [take(b.n_funcs) for b in self.mains]
        marginals = [take(b.n_funcs) for b in self.marginals]
        products = [
            take(self.marginals[i].n_funcs * self.marginals[j].n_funcs) for i, j in self.pairs
        ]
        return mains, marginals, products, at

    def transposed(self, phi: np.ndarray) -> np.ndarray:
        """The raw design at these rows, transposed (columns x rows), so
        every elementwise product runs along the rows."""
        mains, marginals, products, n_cols = self.layout()
        out = np.zeros((n_cols, len(phi)))
        out[0] = 1.0
        for d, (basis, cols) in enumerate(zip(self.mains, mains)):
            basis.fill(out[cols], phi[:, d])
        for d, (basis, cols) in enumerate(zip(self.marginals, marginals)):
            basis.fill(out[cols], phi[:, d])
        for (i, j), cols in zip(self.pairs, products):
            left, right = out[marginals[i]], out[marginals[j]]
            np.multiply(
                left[:, None], right[None], out=out[cols].reshape(len(left), len(right), -1)
            )
        return out

    def constraints(self, means: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``transform`` (raw columns x fitted columns), from the raw column
        means, and the fitted design's block-diagonal penalty.

        A main block B becomes B Z (:func:`_sum_to_zero`).  A tensor block
        is kron(l - mean l, r - mean r) less its mean, which is kron(l, r)
        - kron(l, mean r) - kron(mean l, r) + 2 kron(mean l, mean r)
        - mean kron(l, r) with l, r the pair's marginals.
        """
        mains, marginals, products, n_raw = self.layout()
        zs = [_sum_to_zero(means[cols]) for cols in mains]
        penalties = [np.zeros((1, 1))]
        penalties += [z.T @ _normalized(b.curvature_penalty()) @ z for b, z in zip(self.mains, zs)]
        for i, j in self.pairs:
            pi = _normalized(self.marginals[i].curvature_penalty())
            pj = _normalized(self.marginals[j].curvature_penalty())
            pen = np.kron(pi, np.eye(len(pj))) + np.kron(np.eye(len(pi)), pj)
            penalties.append(pen + _TENSOR_RIDGE * np.eye(pen.shape[0]))

        transform = np.zeros((n_raw, sum(len(p) for p in penalties)))
        transform[0, 0] = 1.0
        at = 1
        for cols, z in zip(mains, zs):
            transform[cols, at : at + z.shape[1]] = z
            at += z.shape[1]
        for (i, j), cols in zip(self.pairs, products):
            mean_l, mean_r = means[marginals[i]], means[marginals[j]]
            fit = slice(at, at + cols.stop - cols.start)
            transform[cols, fit] = np.eye(cols.stop - cols.start)
            transform[marginals[i], fit] = -np.kron(np.eye(mean_l.size), mean_r)
            transform[marginals[j], fit] = -np.kron(mean_l, np.eye(mean_r.size))
            transform[0, fit] = 2.0 * np.kron(mean_l, mean_r) - means[cols]
            at = fit.stop
        return transform, _block_diagonal(penalties)


def _normal_equations(raw: _RawDesign, phi: np.ndarray, yc: np.ndarray):
    """The transform and penalty that define the fitted design X, with X'X
    and X'yc, summed over row chunks of the raw design."""
    n_raw = raw.layout()[-1]
    gram = np.zeros((n_raw, n_raw))
    raw_xty = np.zeros((n_raw, yc.shape[1]))
    for rows in _row_chunks(len(phi)):
        rt = raw.transposed(phi[rows])
        gram += rt @ rt.T
        raw_xty += rt @ yc[rows]
    transform, penalty = raw.constraints(gram[0] / len(phi))
    xtx = transform.T @ gram @ transform
    # symmetric to the last bit, as X'X formed directly is
    return transform, penalty, 0.5 * (xtx + xtx.T), transform.T @ raw_xty


def _demmler_reinsch(xtx: np.ndarray, penalty: np.ndarray):
    """Smoothing grid and the spectral form of ``xtx + lam * penalty``.

    With ``base`` balancing the two traces, the generalized eigenproblem
    ``penalty v = nu (xtx + base * penalty) v`` gives V with
    ``V' (xtx + base * penalty) V = I`` and ``V' penalty V = diag(nu)``.
    Then ``V' xtx V = diag(mu)`` with ``mu = 1 - base * nu``, and

        xtx + lam * penalty = V^-T diag(mu + lam * nu) V^-1

    at every lam.  ``xtx`` alone is singular for discrete parameters, so it
    is never factored on its own; the penalty term is what keeps
    ``xtx + base * penalty`` positive definite.  With its Cholesky factor
    L L', the problem is the symmetric one L^-1 penalty L^-T w = nu w, and
    V = L^-T W.
    """
    base = np.trace(xtx) / max(np.trace(penalty), 1e-300)
    try:
        chol = np.linalg.cholesky(xtx + base * penalty)
    except np.linalg.LinAlgError:
        raise ValueError(
            "penalized design is rank-deficient for every smoothing level"
        ) from None
    reduced = np.linalg.solve(chol, np.linalg.solve(chol, penalty).T)
    vecs = np.linalg.solve(chol.T, np.linalg.eigh(reduced)[1])
    # Both diagonals are taken from V directly rather than as 1 - base * nu:
    # for directions xtx (nearly) annihilates, the subtraction would leave
    # rounding noise where mu should be small.
    mu = np.einsum("ij,ij->j", vecs, xtx @ vecs)
    nu = np.einsum("ij,ij->j", vecs, penalty @ vecs)
    # base * nu lies in [0, 1].  Functions the penalty does not curve
    # (constants, linear terms) have nu = 0, but come out as rounding noise
    # of order 1e-16 that the largest smoothing levels would magnify 1e8
    # times, making the fit depend on the units of phi; every other
    # direction measured sits above 5e-6.
    nu[np.abs(base * nu) <= penalty.shape[0] * np.finfo(float).eps] = 0.0
    grid = base * np.logspace(-8.0, 8.0, _N_GRID)
    return grid, mu, nu, vecs


def _gcv_grid(grid, mu, nu, c2, yty, n_rows):
    """GCV scores (G x T), effective degrees of freedom (G) and residual
    sums of squares (G x T) at every grid level for every column.

    ``c2`` holds the squared spectral coordinates of X'y, one column per
    treatment.  With ``h = 1 / (mu + lam * nu)``: edf = sum mu h and
    rss = y'y - sum c^2 h (2 - mu h).  A level scores inf where
    ``xtx + lam * penalty`` is not positive definite or edf reaches n.
    """
    diag = mu + grid[:, None] * nu
    pos_def = np.all(diag > 0, axis=1)
    h = np.divide(1.0, diag, out=np.zeros_like(diag), where=pos_def[:, None])
    mh = mu * h
    edf = mh.sum(axis=1)
    weights = h * (2.0 - mh)
    # one matrix-vector product per column: a G x p by p x T product could
    # round a column differently depending on how many columns come with it
    fit = np.column_stack([weights @ col for col in c2.T])
    rss = np.maximum(yty - fit, 0.0)
    denom = n_rows - edf
    ok = pos_def & (denom > 0)
    gcv = np.divide(
        n_rows * rss, denom[:, None] ** 2, out=np.full_like(rss, np.inf), where=ok[:, None]
    )
    return gcv, edf, rss


def _default_interactions(n_dims: int) -> bool:
    return 2 <= n_dims <= 3


@one_blas_thread()
def gam_fit_detail(
    sample: PsaSample,
    subset: ParamSubset,
    interactions: bool | None = None,
) -> tuple[np.ndarray, list[dict]]:
    """Fitted conditional means of every net-benefit column (S x T) plus
    one diagnostics record per column.

    The design, the penalty and their eigendecomposition are shared by all
    columns; each column still gets its own GCV smoothing parameter, a
    point of the grid (``lambda_at_grid_edge`` says it is the first or the
    last one).  A constant column is fitted by its mean; like GP's, its
    record says ``constant_response`` with ``residual_var`` 0 and names no
    smoothing level, edf or GCV score.
    ``interactions=None`` applies the default rule (pairwise tensor terms
    for 2-3 parameters, additive otherwise); pass True/False to override.
    """
    if len(subset.indices) > MAX_GAM_DIMENSIONS:
        raise ValueError(
            f"spline regression is unstable beyond {MAX_GAM_DIMENSIONS} parameters; "
            f"got {len(subset.indices)}"
        )
    phi = _standardized_params(sample, subset)
    if interactions is None:
        interactions = _default_interactions(phi.shape[1])
    raw = _RawDesign.from_data(phi, interactions)

    y_mean = sample.nb.mean(axis=0)
    yc = sample.nb - y_mean
    transform, penalty, xtx, xty = _normal_equations(raw, phi, yc)
    grid, mu, nu, vecs = _demmler_reinsch(xtx, penalty)
    coords = vecs.T @ xty  # p x T spectral coordinates of X'y
    c2 = coords**2
    yty = np.einsum("st,st->t", yc, yc)
    n_rows = sample.n_sims

    gcv, edf, rss = _gcv_grid(grid, mu, nu, c2, yty, n_rows)
    best = np.argmin(gcv, axis=0)
    if not np.all(np.isfinite(gcv.min(axis=0))):
        raise ValueError("penalized design is rank-deficient for every smoothing level")
    lam = grid[best]
    shrink = 1.0 / (mu[:, None] + lam * nu[:, None])
    design_info = {
        "n_columns": int(penalty.shape[0]),
        "interactions": bool(interactions),
    }
    # a constant column scores 0 at every level, so its argmin chose nothing
    infos = [
        {"constant_response": True, **design_info, "residual_var": 0.0}
        if yty[t] == 0
        else {
            "lambda": float(grid[b]),
            "gcv": float(gcv[b, t]),
            "edf": float(edf[b]),
            **design_info,
            "residual_var": float(rss[b, t] / max(n_rows - edf[b], 1.0)),
            "lambda_at_grid_edge": bool(b in (0, grid.size - 1)),
        }
        for t, b in enumerate(best)
    ]
    raw_coef = transform @ (vecs @ (shrink * coords))
    fitted = np.empty_like(yc)
    for rows in _row_chunks(n_rows):
        fitted[rows] = raw.transposed(phi[rows]).T @ raw_coef + y_mean
    return fitted, infos
