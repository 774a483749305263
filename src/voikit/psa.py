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
    sample.  Samples with the same ``params`` array share one."""

    def __init__(self):
        self._orders: dict[int, np.ndarray] = {}
        self._lock = threading.Lock()

    def get(self, p: int, params: np.ndarray) -> np.ndarray:
        with self._lock:
            order = self._orders.get(p)
            if order is None:
                order = np.argsort(params[:, p], kind="stable")
                order.flags.writeable = False
                self._orders[p] = order
        return order


class _Rows:
    """The rows of ``parent`` that a sample from :meth:`PsaSample.take`
    holds, as each row's count, and the gather of its arrays from them.

    Each array is gathered once, on first read, into the sample's instance
    dictionary, where every later read finds it; an effect or cost matrix
    the parent lacks is stored as None.  The index array of the counts is
    built once, at the first gather.  A lock makes it one gather per array
    even when threads share the sample.  The object holds no reference to
    its sample, so a sample is freed without the cyclic collector.
    """

    def __init__(self, parent: PsaSample, counts: np.ndarray):
        self.parent = parent
        self.counts = counts
        self.n_rows = int(counts.sum())
        self.index = None
        self._lock = threading.Lock()

    def gather(self, sample: PsaSample, name: str) -> np.ndarray | None:
        fields = vars(sample)
        with self._lock:
            if name not in fields:
                out = getattr(self.parent, name)
                if out is not None:
                    if self.index is None:
                        self.index = np.repeat(np.arange(self.counts.size), self.counts)
                    out = np.take(out, self.index, axis=0)
                    out.flags.writeable = False
                fields[name] = out
        return fields[name]


class _GatheredOnRead:
    """A sample array that a sample from :meth:`PsaSample.take` gathers
    from its parent on first read (:class:`_Rows`).

    It only has ``__get__``, so an array in the instance dictionary (every
    array of any other sample, and a gathered one) is found first and this
    runs only for an array not gathered yet.
    """

    def __init__(self, name: str):
        self._name = name

    def __get__(self, sample, owner=None):
        if sample is None:
            return self
        return sample._rows.gather(sample, self._name)


@dataclass(frozen=True, eq=False)
class PsaSample:
    """Paired parameter draws and net-benefit draws from one PSA run.

    ``params`` is S x P (model-native units), ``nb`` is S x T (currency).
    When the effect and cost matrices are kept, ``nb`` must equal
    ``k * effects - costs`` for the stored willingness to pay, so the net
    benefit can be rebuilt at any other threshold without re-simulation.
    Inputs are validated and copied once, here; the samples derived from
    this one (:meth:`take`, :meth:`at_wtp`) share or gather its frozen
    arrays without a second check or copy.  A sample from :meth:`take`, a
    count of each row (a bootstrap replicate), gathers each array on its
    first read.  No operation mutates an array.  The stable sort order of
    each parameter column is computed on first use and kept
    (:meth:`param_order`).  Samples compare and hash by identity.
    """

    param_names: tuple[str, ...]
    params: np.ndarray
    nb: np.ndarray
    effects: np.ndarray | None = None
    costs: np.ndarray | None = None
    k: float | None = None
    treatment_names: tuple[str, ...] | None = None
    _orders: _ParamOrders = field(init=False, repr=False)
    _rows: _Rows | None = field(init=False, repr=False)

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
        object.__setattr__(self, "_orders", _ParamOrders())
        object.__setattr__(self, "_rows", None)

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

    # a sample from take answers these without gathering an array

    @property
    def n_sims(self) -> int:
        return self.params.shape[0] if self._rows is None else self._rows.n_rows

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    @property
    def n_treatments(self) -> int:
        return self.nb.shape[1] if self._rows is None else self._rows.parent.n_treatments

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
        return self._orders.get(p, self.params)

    def param_index(self, name: str) -> int:
        """Column of the parameter ``name``, by :meth:`ParamSubset.from_names`."""
        return ParamSubset.from_names([name], self.param_names).indices[0]

    def take(self, *, counts: np.ndarray) -> "PsaSample":
        """Resampled copy, used by the bootstrap: row i ``counts[i]`` times,
        in row-index order.

        ``counts`` is a 1-D integer array of S nonnegative counts totalling
        at least 2; it is keyword-only, so an array of row indices cannot
        pass for one.  The copy's arrays are gathered from this sample on
        their first read, each once; one never read is never gathered.
        The copy keeps this sample and the counts as the record of its
        rows (:class:`_Rows`): its stable order of a column is this
        sample's with each row repeated by its count, which
        single-parameter estimates read instead of any array of the copy.
        """
        counts = np.asarray(counts)
        if counts.ndim != 1:
            raise ValueError(f"counts must be 1-D, got shape {counts.shape}")
        if counts.dtype.kind not in "iu":
            raise ValueError(f"counts must be integers, got dtype {counts.dtype}")
        n = self.n_sims
        if counts.size != n:
            raise ValueError(f"counts has {counts.size} entries for {n} simulation rows")
        if counts.min() < 0:
            raise ValueError("counts must not be negative")
        rows = _Rows(self, counts.astype(np.intp))  # a copy, read by the gather
        if rows.n_rows < 2:
            raise ValueError(f"counts total {rows.n_rows}; need at least 2 rows")
        return self._derive(self.k, _ParamOrders(), rows)

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
        return self._derive(k, self._orders, params=self.params,
                            nb=k * self.effects - self.costs, effects=self.effects,
                            costs=self.costs)

    def _with_nb(self, nb: np.ndarray) -> "PsaSample":
        """The same parameter draws with net benefit ``nb`` (S x T) and no
        effect or cost matrices; ``nb`` is taken over and frozen."""
        return self._derive(self.k, self._orders, params=self.params, nb=nb,
                            effects=None, costs=None)

    def _derive(self, k, orders, rows=None, **arrays) -> "PsaSample":
        """A sample built from this one's validated ``arrays`` (params, nb,
        effects, costs): no check, no copy; the arrays are marked read-only
        and the names carry over.  A sample from :meth:`take` passes its
        rows instead and gathers every array on first read."""
        for a in arrays.values():
            if a is not None:
                a.flags.writeable = False
        out = object.__new__(PsaSample)
        vars(out).update(
            param_names=self.param_names, k=k, treatment_names=self.treatment_names,
            _orders=orders, _rows=rows, **arrays,
        )
        return out


# the arrays a sample from take gathers on first read; these replace the
# class attributes dataclass set to the defaults of effects and costs (its
# __init__ keeps its own copy of the defaults)
for _name in ("params", "nb", "effects", "costs"):
    setattr(PsaSample, _name, _GatheredOnRead(_name))
del _name


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
    # constancy is tested exactly, since the SD of a constant column is
    # often a rounding residue, not 0; an SD that underflows to 0 (values
    # 1e-170 apart) leaves nothing to scale by either
    flat = (phi.max(axis=0) == phi.min(axis=0)) | (sd == 0)
    if np.any(flat):
        bad = [sample.param_names[subset.indices[i]] for i in np.flatnonzero(flat)]
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
