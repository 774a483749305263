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

METHOD_TAGS = ("SO", "SAD", "GAM", "GP", "MC")


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
    """Stable sort order of each parameter column, computed once per column.

    A sample drawn from a parent by nondecreasing rows (a bootstrap
    replicate in row-index order) derives each order from the parent's in
    O(S) instead of sorting: the parent's order with every row repeated by
    its count in the draw.  That is exactly the stable argsort of the drawn
    column, ties included, because the parent breaks ties by row index and
    the copies of a row sit next to one another in row-index order.
    """

    def __init__(self, params: np.ndarray, parent: "_ParamOrders | None" = None,
                 counts: np.ndarray | None = None):
        self._params = params
        self._parent = parent
        self._counts = counts
        self._orders: dict[int, np.ndarray] = {}
        self._lock = threading.Lock()

    def get(self, p: int) -> np.ndarray:
        with self._lock:  # one sort per column, even when threads share the sample
            order = self._orders.get(p)
            if order is None:
                if self._parent is None:
                    order = np.argsort(self._params[:, p], kind="stable")
                else:
                    order = self._derived(p)
                order.flags.writeable = False
                self._orders[p] = order
        return order

    def _derived(self, p: int) -> np.ndarray:
        parent_order = self._parent.get(p)
        counts = self._counts
        # row of each parent row's first copy here, taken in the parent's order
        first = (np.cumsum(counts) - counts)[parent_order]
        repeats = counts[parent_order]
        # the copies of one parent row are consecutive both in this sample and
        # in its order, so position j holds first[g] + (j - start of group g)
        shift = first - (np.cumsum(repeats) - repeats)
        return np.repeat(shift, repeats) + np.arange(self._params.shape[0])


@dataclass(frozen=True)
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
    and kept (:meth:`param_order`).
    """

    param_names: tuple[str, ...]
    params: np.ndarray
    nb: np.ndarray
    effects: np.ndarray | None = None
    costs: np.ndarray | None = None
    k: float | None = None
    treatment_names: tuple[str, ...] | None = None
    _orders: _ParamOrders = field(init=False, repr=False, compare=False)

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

        if (self.effects is None) != (self.costs is None):
            raise ValueError("effects and costs must be supplied together")
        if self.effects is not None:
            effects = _as_matrix(self.effects, "effects")
            costs = _as_matrix(self.costs, "costs")
            if effects.shape != nb.shape or costs.shape != nb.shape:
                raise ValueError("effects/costs shape must match nb")
            if self.k is None:
                raise ValueError("k must be stored when effects and costs are kept")
            k = _wtp_value(self.k)
            rebuilt = k * effects - costs
            scale = max(float(np.max(np.abs(nb))), 1.0)
            if not np.allclose(nb, rebuilt, rtol=1e-9, atol=1e-9 * scale):
                raise ValueError("nb is inconsistent with k*effects - costs")
            object.__setattr__(self, "effects", _frozen(effects))
            object.__setattr__(self, "costs", _frozen(costs))
            object.__setattr__(self, "k", k)
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
        try:
            return self.param_names.index(name)
        except ValueError:
            raise ValueError(
                f"unknown parameter {name!r}; available: {list(self.param_names)}"
            ) from None

    def take(self, rows: np.ndarray) -> "PsaSample":
        """Row-subset (or resampled) copy, used by the bootstrap.

        ``rows`` is a 1-D integer array of at least 2 indices in [-S, S).
        When it is nondecreasing the copy derives its parameter orders from
        this sample's in O(S) instead of sorting again.
        """
        rows, n = np.asarray(rows), self.n_sims
        if rows.ndim != 1 or rows.dtype.kind not in "iu" or rows.size < 2:
            raise ValueError(f"rows must be a 1-D integer array of at least 2 "
                             f"indices, got dtype {rows.dtype}, shape {rows.shape}")
        if rows.min() < -n or rows.max() >= n:
            raise ValueError(f"rows out of range for {n} simulation rows")

        def gather(a):
            return None if a is None else np.take(a, rows, axis=0)

        params = gather(self.params)
        if rows[0] >= 0 and np.all(rows[1:] >= rows[:-1]):
            orders = _ParamOrders(params, self._orders, np.bincount(rows, minlength=n))
        else:
            orders = _ParamOrders(params)
        return self._derive(params, gather(self.nb), gather(self.effects),
                            gather(self.costs), self.k, orders)

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
                            self.costs, k, self._orders)

    def _with_nb(self, nb: np.ndarray) -> "PsaSample":
        """The same parameter draws with net benefit ``nb`` (S x T) and no
        effect or cost matrices; ``nb`` is taken over and frozen."""
        return self._derive(self.params, nb, None, None, self.k, self._orders)

    def _derive(self, params, nb, effects, costs, k, orders: _ParamOrders) -> "PsaSample":
        """A sample built from this one's validated arrays: no check, no copy;
        the arrays are marked read-only and the names carry over."""
        for a in (params, nb, effects, costs):
            if a is not None:
                a.flags.writeable = False
        out = object.__new__(PsaSample)
        vars(out).update(
            param_names=self.param_names, params=params, nb=nb, effects=effects,
            costs=costs, k=k, treatment_names=self.treatment_names, _orders=orders,
        )
        return out


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
