"""Core PSA data model: parameter/net-benefit samples, EVPI, and estimate records.

A probabilistic sensitivity analysis run is summarised by S simulated
parameter vectors and the matching S x T matrix of monetary net benefit,
one column per treatment option.  Everything downstream (single-parameter
binning, regression smoothing, nested Monte Carlo) consumes the same
:class:`PsaSample`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "EstimationError",
    "PsaSample",
    "WillingnessToPay",
    "ParamSubset",
    "EvppiEstimate",
    "build_nb",
    "evpi",
    "incremental_nb",
]

# in the column order of the CLI's comparison table
METHOD_TAGS = ("SO", "SAD", "GP", "GAM", "MC")


class EstimationError(RuntimeError):
    """An estimator failed at run time (as opposed to bad user input)."""


def _as_matrix(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class WillingnessToPay:
    """Monetary value of one unit of health effect (e.g. currency per QALY)."""

    k: float

    def __post_init__(self):
        if not math.isfinite(self.k) or self.k < 0:
            raise ValueError(f"willingness to pay must be finite and >= 0, got {self.k}")


def _wtp_value(k) -> float:
    if isinstance(k, WillingnessToPay):
        return k.k
    return WillingnessToPay(float(k)).k


@dataclass(frozen=True)
class ParamSubset:
    """Ordered, duplicate-free column indices of the parameters of interest.

    The subset is the "phi" part of the split theta = (phi, psi); the
    complement stays uncertain.
    """

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(idx) == 0:
            raise ValueError("parameter subset must not be empty")
        if len(set(idx)) != len(idx):
            raise ValueError(f"duplicate indices in parameter subset: {idx}")
        if any(i < 0 for i in idx):
            raise ValueError(f"negative index in parameter subset: {idx}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def of(cls, *indices: int) -> "ParamSubset":
        return cls(tuple(indices))

    @classmethod
    def from_names(cls, names: Sequence[str], param_names: Sequence[str]) -> "ParamSubset":
        """Resolve parameter names against a sample's column names."""
        lookup = {n: i for i, n in enumerate(param_names)}
        missing = [n for n in names if n not in lookup]
        if missing:
            raise ValueError(
                f"unknown parameter name(s) {missing}; available: {list(param_names)}"
            )
        twice = [n for i, n in enumerate(names) if n in names[:i]]
        if twice:
            raise ValueError(f"parameter {twice[0]!r} is given twice in the subset")
        return cls(tuple(lookup[n] for n in names))

    def validate_against(self, n_params: int) -> None:
        bad = [i for i in self.indices if i >= n_params]
        if bad:
            raise ValueError(f"subset indices {bad} out of range for {n_params} parameters")


class _ParamOrders:
    """Stable sort order of each parameter column, computed at first use and
    kept; a lock makes it one sort per column even when threads share the
    sample."""

    def __init__(self, params: np.ndarray):
        self._params = params
        self._orders: dict[int, np.ndarray] = {}
        self._lock = threading.Lock()

    def get(self, p: int) -> np.ndarray:
        with self._lock:
            order = self._orders.get(p)
            if order is None:
                order = np.argsort(self._params[:, p], kind="stable")
                order.flags.writeable = False
                self._orders[p] = order
        return order


@dataclass(frozen=True, eq=False)
class PsaSample:
    """Paired parameter draws and net-benefit draws from one PSA run.

    ``params`` is S x P (model-native units), ``nb`` is S x T (currency).
    When the effect and cost matrices are kept, ``nb`` must equal
    ``k * effects - costs`` for the stored willingness to pay, so the net
    benefit can be rebuilt at any other threshold without re-simulation.
    Inputs are validated and copied once, here; the samples derived from
    this one (:meth:`take`, :meth:`at_wtp`) share or gather its frozen
    arrays without a second check or copy.  No operation mutates an array.
    The stable sort order of each parameter column is computed on first use
    and kept (:meth:`param_order`).  Samples compare and hash by identity.
    """

    param_names: tuple[str, ...]
    params: np.ndarray
    nb: np.ndarray
    effects: np.ndarray | None = None
    costs: np.ndarray | None = None
    k: float | None = None
    treatment_names: tuple[str, ...] | None = None
    _orders: _ParamOrders = field(init=False, repr=False)
    _source: tuple[PsaSample, np.ndarray] | None = field(init=False, repr=False)

    def __post_init__(self):
        params = _as_matrix(self.params, "params")
        nb = _as_matrix(self.nb, "nb")
        if params.shape[0] != nb.shape[0]:
            raise ValueError(
                f"params has {params.shape[0]} rows but nb has {nb.shape[0]}"
            )
        if params.shape[0] < 2:
            raise ValueError("need at least 2 simulation rows")
        if nb.shape[1] < 2:
            raise ValueError("need at least 2 treatment options")
        if len(self.param_names) != params.shape[1]:
            raise ValueError(
                f"{len(self.param_names)} parameter names for {params.shape[1]} columns"
            )
        object.__setattr__(self, "param_names", tuple(str(n) for n in self.param_names))
        object.__setattr__(self, "params", _frozen(params))
        object.__setattr__(self, "nb", _frozen(nb))
        object.__setattr__(self, "_orders", _ParamOrders(self.params))
        object.__setattr__(self, "_source", None)

        if self.k is not None:
            object.__setattr__(self, "k", _wtp_value(self.k))
        if (self.effects is None) != (self.costs is None):
            raise ValueError("effects and costs must be supplied together")
        if self.effects is not None:
            effects = _as_matrix(self.effects, "effects")
            costs = _as_matrix(self.costs, "costs")
            if effects.shape != nb.shape or costs.shape != nb.shape:
                raise ValueError("effects/costs shape must match nb")
            if self.k is None:
                raise ValueError("k must be stored when effects and costs are kept")
            rebuilt = self.k * effects - costs
            scale = max(float(np.max(np.abs(nb))), 1.0)
            if not np.allclose(nb, rebuilt, rtol=1e-9, atol=1e-9 * scale):
                raise ValueError("nb is inconsistent with k*effects - costs")
            object.__setattr__(self, "effects", _frozen(effects))
            object.__setattr__(self, "costs", _frozen(costs))
        if self.treatment_names is not None:
            if len(self.treatment_names) != nb.shape[1]:
                raise ValueError("treatment_names length must match nb columns")
            object.__setattr__(
                self, "treatment_names", tuple(str(n) for n in self.treatment_names)
            )

    @property
    def n_sims(self) -> int:
        return self.params.shape[0]

    @property
    def n_params(self) -> int:
        return self.params.shape[1]

    @property
    def n_treatments(self) -> int:
        return self.nb.shape[1]

    def param_column(self, p: int) -> np.ndarray:
        if not 0 <= p < self.n_params:
            raise ValueError(f"parameter index {p} out of range (P={self.n_params})")
        return self.params[:, p]

    def param_order(self, p: int) -> np.ndarray:
        """Read-only permutation putting column p in ascending order.

        The sort is stable, so tied values keep their row order.  It is
        computed once per column and shared by every caller.
        """
        self.param_column(p)
        return self._orders.get(p)

    def param_index(self, name: str) -> int:
        """Column of the parameter ``name``, by :meth:`ParamSubset.from_names`."""
        return ParamSubset.from_names([name], self.param_names).indices[0]

    def take(self, rows: np.ndarray) -> "PsaSample":
        """Row-subset (or resampled) copy, used by the bootstrap.

        ``rows`` is a 1-D integer array of at least 2 indices in [-S, S).
        When they are nonnegative and nondecreasing (a bootstrap replicate)
        the copy keeps this sample and each row's count as its source: the
        copy's stable order of a column is this sample's with each row
        repeated by its count, which single-parameter estimates read.
        """
        rows, n = np.asarray(rows), self.n_sims
        if rows.ndim != 1 or rows.dtype.kind not in "iu" or rows.size < 2:
            raise ValueError(f"rows must be a 1-D integer array of at least 2 "
                             f"indices, got dtype {rows.dtype}, shape {rows.shape}")
        if rows.min() < -n or rows.max() >= n:
            raise ValueError(f"rows out of range for {n} simulation rows")

        def gather(a):
            return None if a is None else np.take(a, rows, axis=0)

        source = None
        if rows[0] >= 0 and np.all(rows[1:] >= rows[:-1]):
            source = (self, np.bincount(rows, minlength=n))
        return self._derive(gather(self.params), gather(self.nb), gather(self.effects),
                            gather(self.costs), self.k, source)

    def at_wtp(self, k) -> "PsaSample":
        """Rebuild the sample at a different willingness to pay.

        Requires stored effects and costs; raises otherwise.
        """
        if self.effects is None:
            raise ValueError(
                "sample carries only nb; rebuilding at another willingness to pay "
                "needs the effect and cost matrices"
            )
        k = _wtp_value(k)
        return self._derive(self.params, k * self.effects - self.costs, self.effects,
                            self.costs, k)

    def _with_nb(self, nb: np.ndarray) -> "PsaSample":
        """The same parameter draws with net benefit ``nb`` (S x T) and no
        effect or cost matrices; ``nb`` is taken over and frozen."""
        return self._derive(self.params, nb, None, None, self.k)

    def _derive(self, params, nb, effects, costs, k, source=None) -> "PsaSample":
        """A sample built from this one's validated arrays: no check, no copy;
        the arrays are marked read-only, the names carry over, and the
        parameter orders too when ``params`` does.  Only :meth:`take` has a
        ``source``, the sample whose rows it gathers with their counts."""
        orders = self._orders if params is self.params else _ParamOrders(params)
        for a in (params, nb, effects, costs):
            if a is not None:
                a.flags.writeable = False
        out = object.__new__(PsaSample)
        vars(out).update(
            param_names=self.param_names, params=params, nb=nb, effects=effects,
            costs=costs, k=k, treatment_names=self.treatment_names, _orders=orders,
            _source=source,
        )
        return out


# Rows handled at once by the passes that must not hold S rows of working
# memory: the spline design (205 columns for three parameters, 6.7 MB per
# block), the GP cross-covariances (at most 500 columns, 16 MB) and the
# Python floats of a CSV write (about 1 MB for four columns).
_CHUNK_ROWS = 4096


def _row_chunks(n_rows: int):
    """Slices of at most ``_CHUNK_ROWS`` consecutive rows covering ``n_rows``."""
    for start in range(0, n_rows, _CHUNK_ROWS):
        yield slice(start, min(start + _CHUNK_ROWS, n_rows))


def _standardized_params(sample: PsaSample, subset: ParamSubset) -> np.ndarray:
    """The subset's parameter columns, each shifted to mean 0 and scaled to
    SD 1: the inputs both regression smoothers fit on."""
    subset.validate_against(sample.n_params)
    phi = sample.params[:, list(subset.indices)]
    sd = phi.std(axis=0)
    if np.any(sd == 0):
        bad = [sample.param_names[subset.indices[i]] for i in np.where(sd == 0)[0]]
        raise ValueError(
            f"constant parameter column(s) {bad} carry no information; "
            "a regression on them is rank-deficient"
        )
    return (phi - phi.mean(axis=0)) / sd


@dataclass(frozen=True)
class EvppiEstimate:
    """An EVPPI (or EVPI) value with its method tag and diagnostics.

    Every estimator computes its value as a mean of per-draw terms, each the
    best (conditional) net benefit minus that of the treatment best on
    average, so each term and the value are >= 0 exactly; nothing is
    clamped.  A negative or non-finite value is a bug and raises
    ``ValueError``.
    """

    value: float
    method: str
    std_error: float | None = None
    diagnostics: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHOD_TAGS:
            raise ValueError(f"method must be one of {METHOD_TAGS}, got {self.method!r}")
        if not (math.isfinite(self.value) and self.value >= 0):
            raise ValueError(f"estimate must be finite and >= 0, got {self.value}")
        if self.std_error is not None and not (
            math.isfinite(self.std_error) and self.std_error >= 0
        ):
            raise ValueError(f"std_error must be finite and >= 0, got {self.std_error}")
        object.__setattr__(self, "diagnostics", dict(self.diagnostics))

    def to_dict(self) -> dict:
        """JSON-friendly representation (full precision)."""
        return {
            "value": self.value,
            "method": self.method,
            "std_error": self.std_error,
            "diagnostics": _jsonable(self.diagnostics),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


def build_nb(effects, costs, k) -> np.ndarray:
    """Monetary net benefit ``k * effects - costs``, elementwise.

    Both matrices must be S x T with finite entries and matching shapes.
    """
    e = _as_matrix(effects, "effects")
    c = _as_matrix(costs, "costs")
    if e.shape != c.shape:
        raise ValueError(f"effects shape {e.shape} != costs shape {c.shape}")
    return _wtp_value(k) * e - c


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1)``, the best entry over the treatment axis, as a
    running elementwise maximum over the T columns.

    numpy reduces a short last axis row by row, which is many times slower
    on the skinny S x T arrays of net benefit than T - 1 passes of
    ``np.maximum`` down whole columns.  A maximum is exact, so the result
    is bitwise that of ``a.max(axis=-1)``.
    """
    n_t = a.shape[-1]
    if n_t == 1:
        return a[..., 0].copy()
    out = np.maximum(a[..., 0], a[..., 1])
    for t in range(2, n_t):
        np.maximum(out, a[..., t], out=out)
    return out


def evpi(nb) -> float:
    """Expected value of learning every parameter perfectly.

    Computed as the mean over simulations of (row maximum minus the column
    of the treatment that is optimal on average).  Each term is >= 0, so the
    result is >= 0 exactly, not merely within tolerance.
    """
    nb = _as_matrix(nb, "nb")
    if nb.shape[0] < 2:
        raise ValueError("need at least 2 simulation rows")
    t_star = int(np.argmax(nb.mean(axis=0)))
    return float(np.mean(_row_max(nb) - nb[:, t_star]))


def incremental_nb(nb, t: int, t_prime: int) -> np.ndarray:
    """Per-simulation net-benefit difference between two treatment columns."""
    nb = _as_matrix(nb, "nb")
    n_t = nb.shape[1]
    for idx in (t, t_prime):
        if not 0 <= idx < n_t:
            raise ValueError(f"treatment index {idx} out of range (T={n_t})")
    if t == t_prime:
        raise ValueError(f"treatment indices must differ, got t=t'={t}")
    return nb[:, t] - nb[:, t_prime]
