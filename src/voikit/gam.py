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

scipy is imported inside the functions that call it, so importing voikit
(and running a command that fits no spline) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .psa import ParamSubset, PsaSample, _standardized_params

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


def _quantile_breakpoints(x: np.ndarray, n_breakpoints: int) -> np.ndarray:
    bp = np.unique(np.quantile(x, np.linspace(0.0, 1.0, n_breakpoints)))
    if bp.size < 2:
        raise ValueError(
            "parameter column is constant; the spline design is rank-deficient"
        )
    return bp


@dataclass(frozen=True)
class _Basis:
    knots: np.ndarray
    n_funcs: int

    @classmethod
    def from_data(cls, x: np.ndarray, n_breakpoints: int) -> "_Basis":
        bp = _quantile_breakpoints(x, n_breakpoints)
        knots = np.concatenate([[bp[0]] * _DEGREE, bp, [bp[-1]] * _DEGREE])
        return cls(knots=knots, n_funcs=len(knots) - _DEGREE - 1)

    def design(self, x: np.ndarray) -> np.ndarray:
        from scipy.interpolate import BSpline

        lo, hi = self.knots[_DEGREE], self.knots[-_DEGREE - 1]
        return BSpline.design_matrix(
            np.clip(x, lo, hi), self.knots, _DEGREE
        ).toarray()

    def curvature_penalty(self) -> np.ndarray:
        """Gram matrix of basis second derivatives.

        The second derivative of a cubic B-spline is piecewise linear, so a
        two-point Gauss rule per breakpoint interval integrates the products
        exactly.  Linear functions lie in the null space.
        """
        from scipy.interpolate import BSpline

        bp = self.knots[_DEGREE : len(self.knots) - _DEGREE]
        spl2 = BSpline(self.knots, np.eye(self.n_funcs), _DEGREE).derivative(2)
        pen = np.zeros((self.n_funcs, self.n_funcs))
        for a, b in zip(bp[:-1], bp[1:]):
            if b <= a:
                continue
            half = 0.5 * (b - a)
            mid = 0.5 * (a + b)
            nodes = mid + half * _GAUSS_NODES
            vals = spl2(nodes)
            pen += half * (vals.T @ vals)
        return pen


def _normalized(pen: np.ndarray) -> np.ndarray:
    scale = np.trace(pen) / pen.shape[0]
    return pen / scale if scale > 0 else pen


def _sum_to_zero(block: np.ndarray, penalty: np.ndarray):
    """Reparameterize a smooth block so its fitted values sum to zero.

    B-spline bases contain the constant function (partition of unity), so a
    raw block is exactly collinear with the intercept AND that direction is
    penalty-free: the normal equations would be singular at every smoothing
    level.  Projecting the coefficients onto the complement of the
    sum-of-fitted-values direction removes the redundancy while keeping
    (centered) linear functions representable and penalty-free.
    """
    d = block.sum(axis=0)
    q = np.linalg.qr(d[:, None], mode="complete")[0]
    z = q[:, 1:]
    return block @ z, z.T @ penalty @ z


def _build_design(phi: np.ndarray, interactions: bool):
    """Design matrix and matching block-diagonal penalty.

    Column 0 is the intercept; every smooth block is constrained to
    zero-sum fitted values so the constant lives only in the intercept.
    """
    n_rows, n_dims = phi.shape
    columns = [np.ones((n_rows, 1))]
    penalties = [np.zeros((1, 1))]

    for d in range(n_dims):
        basis = _Basis.from_data(phi[:, d], _N_BREAKPOINTS)
        block, pen = _sum_to_zero(
            basis.design(phi[:, d]), _normalized(basis.curvature_penalty())
        )
        columns.append(block)
        penalties.append(pen)

    if interactions and n_dims >= 2:
        for i in range(n_dims):
            for j in range(i + 1, n_dims):
                bi = _Basis.from_data(phi[:, i], _N_BREAKPOINTS_TENSOR)
                bj = _Basis.from_data(phi[:, j], _N_BREAKPOINTS_TENSOR)
                left = bi.design(phi[:, i])
                right = bj.design(phi[:, j])
                left = left - left.mean(axis=0)
                right = right - right.mean(axis=0)
                block = np.einsum("si,sj->sij", left, right).reshape(n_rows, -1)
                columns.append(block - block.mean(axis=0))
                pi = _normalized(bi.curvature_penalty())
                pj = _normalized(bj.curvature_penalty())
                pen = np.kron(pi, np.eye(bj.n_funcs)) + np.kron(np.eye(bi.n_funcs), pj)
                penalties.append(pen + _TENSOR_RIDGE * np.eye(pen.shape[0]))

    design = np.hstack(columns)
    n_cols = design.shape[1]
    penalty = np.zeros((n_cols, n_cols))
    at = 0
    for block_pen in penalties:
        w = block_pen.shape[0]
        penalty[at : at + w, at : at + w] = block_pen
        at += w
    return design, penalty


def _demmler_reinsch(xtx: np.ndarray, penalty: np.ndarray):
    """Smoothing grid and the spectral form of ``xtx + lam * penalty``.

    With ``base`` balancing the two traces, the generalized eigenproblem
    ``penalty v = nu (xtx + base * penalty) v`` gives V with
    ``V' (xtx + base * penalty) V = I`` and ``V' penalty V = diag(nu)``.
    Then ``V' xtx V = diag(mu)`` with ``mu = 1 - base * nu``, and

        xtx + lam * penalty = V^-T diag(mu + lam * nu) V^-1

    at every lam.  ``xtx`` alone is singular for discrete parameters, so it
    is never factored on its own; the penalty term is what keeps
    ``xtx + base * penalty`` positive definite.
    """
    from scipy.linalg import eigh

    base = np.trace(xtx) / max(np.trace(penalty), 1e-300)
    try:
        _, vecs = eigh(penalty, xtx + base * penalty)
    except np.linalg.LinAlgError:
        raise ValueError(
            "penalized design is rank-deficient for every smoothing level"
        ) from None
    # Both diagonals are taken from V directly rather than as 1 - base * nu:
    # for directions xtx (nearly) annihilates, the subtraction would leave
    # rounding noise where mu should be small.
    mu = np.einsum("ij,ij->j", vecs, xtx @ vecs)
    nu = np.einsum("ij,ij->j", vecs, penalty @ vecs)
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
    design, penalty = _build_design(phi, interactions)

    y_mean = sample.nb.mean(axis=0)
    yc = sample.nb - y_mean
    xtx = design.T @ design
    grid, mu, nu, vecs = _demmler_reinsch(xtx, penalty)
    coords = vecs.T @ (design.T @ yc)  # p x T spectral coordinates of X'y
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
        "n_columns": int(design.shape[1]),
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
    fitted = design @ (vecs @ (shrink * coords)) + y_mean
    return fitted, infos

