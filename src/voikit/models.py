"""Built-in synthetic decision models with known structure.

Two families:

* ``LinearGaussianSpec`` - two treatments, reference arm pinned at zero and
  the other equal to ``a + b*phi + c*psi`` with independent normal
  parameters.  Its partial-information values have a closed form, which
  makes it the workhorse oracle for every estimator in the package.
* ``NonlinearToySpec`` - a small two-arm decision tree (infection risk,
  vaccination-style risk reduction, complications, costs and QALY losses)
  with mutually independent parameters, so exact conditional sampling is
  just marginal sampling.  Its net benefit is multilinear in those
  parameters, so the conditional expected net benefit given a subset is
  the net benefit with every other parameter at its mean; that makes its
  oracle, :func:`brute_force_evppi`, a single pass over outer draws.

Both expose the same generative capabilities (joint draws, conditional
draws, net benefit) consumed by the nested Monte Carlo estimator, and both
can emit a :class:`~voikit.psa.PsaSample` for the sample-based estimators.
A spec whose fields cannot describe its distributions (a non-finite value,
a non-positive shape, mean or normal sigma, a negative log-scale sigma)
is rejected when it is built, with the field named.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from .psa import ParamSubset, PsaSample, build_nb

__all__ = [
    "DEFAULT_WTP",
    "LinearGaussianSpec",
    "NonlinearToySpec",
    "LinearGaussianModel",
    "NonlinearToyModel",
    "model_for",
    "spec_from_dict",
    "spec_to_dict",
    "generate_psa",
    "linear_gaussian_oracle",
    "brute_force_evppi",
]

# Matches the analysis threshold the built-in toy model is tuned around.
DEFAULT_WTP = 20000.0

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def _norm_pdf(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def _expected_positive_part(m: float, s: float) -> float:
    """E[max(0, X)] for X ~ N(m, s^2)."""
    if s == 0.0:
        return max(0.0, m)
    z = m / s
    return m * _norm_cdf(z) + s * _norm_pdf(z)


def _require_finite(spec) -> None:
    for f in fields(spec):
        value = getattr(spec, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class LinearGaussianSpec:
    """Two-treatment model with NB0 = 0 and NB1 = a + b*phi + c*psi.

    phi ~ N(mu_phi, sigma_phi^2) and psi ~ N(mu_psi, sigma_psi^2),
    independent.  ``a`` is the baseline incremental net benefit (currency),
    ``b`` and ``c`` scale the two parameters.
    """

    a: float = 0.0
    b: float = 1.0
    c: float = 1.0
    mu_phi: float = 0.0
    sigma_phi: float = 1.0
    mu_psi: float = 0.0
    sigma_psi: float = 1.0

    def __post_init__(self):
        _require_finite(self)
        for name in ("sigma_phi", "sigma_psi"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


def linear_gaussian_oracle(spec: LinearGaussianSpec, subset: str = "phi") -> float:
    """Exact partial-information value for the linear-Gaussian model.

    ``subset`` is ``"phi"``, ``"psi"`` or ``"both"`` (the latter is the
    full-information value).  Uses E[max(0, X)] = m*Phi(m/s) + s*pdf(m/s)
    for X ~ N(m, s^2), with the mean incremental net benefit
    m = a + b*mu_phi + c*mu_psi and the spread s contributed by the learned
    parameters.
    """
    m = spec.a + spec.b * spec.mu_phi + spec.c * spec.mu_psi
    if subset == "phi":
        s = abs(spec.b) * spec.sigma_phi
    elif subset == "psi":
        s = abs(spec.c) * spec.sigma_psi
    elif subset == "both":
        s = math.hypot(spec.b * spec.sigma_phi, spec.c * spec.sigma_psi)
    else:
        raise ValueError(f"subset must be 'phi', 'psi' or 'both', got {subset!r}")
    return _expected_positive_part(m, s) - max(0.0, m)


class LinearGaussianModel:
    """Generative capabilities for :class:`LinearGaussianSpec`."""

    param_names = ("phi", "psi")
    n_treatments = 2

    def __init__(self, spec: LinearGaussianSpec):
        self.spec = spec

    def sample_joint(self, n: int, rng: np.random.Generator) -> np.ndarray:
        s = self.spec
        phi = rng.normal(s.mu_phi, s.sigma_phi, size=n)
        psi = rng.normal(s.mu_psi, s.sigma_psi, size=n)
        return np.column_stack([phi, psi])

    def sample_conditional(
        self,
        indices: Sequence[int],
        values: Sequence[float],
        n: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Draw full parameter vectors with the given components pinned.

        phi and psi are independent, so the conditional of the free
        component is its marginal.
        """
        s = self.spec
        theta = np.empty((n, 2))
        fixed = set(int(i) for i in indices)
        for i, v in zip(indices, values):
            theta[:, int(i)] = v
        if 0 not in fixed:
            theta[:, 0] = rng.normal(s.mu_phi, s.sigma_phi, size=n)
        if 1 not in fixed:
            theta[:, 1] = rng.normal(s.mu_psi, s.sigma_psi, size=n)
        return theta

    def net_benefit(self, theta: np.ndarray, k: float | None = None) -> np.ndarray:
        # Net benefit is specified directly in currency; k plays no role.
        theta = np.atleast_2d(theta)
        s = self.spec
        nb1 = s.a + s.b * theta[:, 0] + s.c * theta[:, 1]
        return np.column_stack([np.zeros_like(nb1), nb1])


@dataclass(frozen=True)
class NonlinearToySpec:
    """Two-arm decision tree with 8 independent parameters.

    Arm 0 leaves infection risk untreated; arm 1 buys a risk reduction at
    a vaccination cost.  Infections incur treatment cost and a QALY loss;
    with some probability a complication adds further cost and QALY loss.
    Probabilities are Beta, monetary and QALY magnitudes lognormal
    (parametrised by their mean and the log-scale sigma).

    The defaults put the break-even willingness to pay at 20000 per QALY:
    mean incremental cost 72 = 192 - 0.4*0.5*(200 + 0.2*2000) against mean
    incremental effect 0.0036 = 0.4*0.5*(0.008 + 0.2*0.05) QALYs.
    """

    infection_alpha: float = 4.0
    infection_beta: float = 6.0
    reduction_alpha: float = 5.0
    reduction_beta: float = 5.0
    complication_alpha: float = 2.0
    complication_beta: float = 8.0
    cost_treatment_mean: float = 200.0
    cost_treatment_sigma: float = 0.3
    cost_complication_mean: float = 2000.0
    cost_complication_sigma: float = 0.3
    cost_vaccine_mean: float = 192.0
    cost_vaccine_sigma: float = 0.15
    qaly_infection_mean: float = 0.008
    qaly_infection_sigma: float = 0.3
    qaly_complication_mean: float = 0.05
    qaly_complication_sigma: float = 0.3

    def __post_init__(self):
        _require_finite(self)
        for name in (
            "infection_alpha", "infection_beta",
            "reduction_alpha", "reduction_beta",
            "complication_alpha", "complication_beta",
            "cost_treatment_mean", "cost_complication_mean", "cost_vaccine_mean",
            "qaly_infection_mean", "qaly_complication_mean",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        for name in (
            "cost_treatment_sigma", "cost_complication_sigma", "cost_vaccine_sigma",
            "qaly_infection_sigma", "qaly_complication_sigma",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


class NonlinearToyModel:
    """Generative capabilities for :class:`NonlinearToySpec`."""

    param_names = (
        "p_infection",
        "risk_reduction",
        "p_complication",
        "cost_treatment",
        "cost_complication",
        "cost_vaccine",
        "qaly_loss_infection",
        "qaly_loss_complication",
    )
    n_treatments = 2

    def __init__(self, spec: NonlinearToySpec):
        self.spec = spec

    def _marginal(self, name: str) -> tuple[str, float, float]:
        """A column's family and its two spec fields: ``("beta", alpha,
        beta)`` or ``("lognormal", mean, log-scale sigma)``."""
        s = self.spec
        return {
            "p_infection": ("beta", s.infection_alpha, s.infection_beta),
            "risk_reduction": ("beta", s.reduction_alpha, s.reduction_beta),
            "p_complication": ("beta", s.complication_alpha, s.complication_beta),
            "cost_treatment": ("lognormal", s.cost_treatment_mean, s.cost_treatment_sigma),
            "cost_complication": (
                "lognormal", s.cost_complication_mean, s.cost_complication_sigma
            ),
            "cost_vaccine": ("lognormal", s.cost_vaccine_mean, s.cost_vaccine_sigma),
            "qaly_loss_infection": (
                "lognormal", s.qaly_infection_mean, s.qaly_infection_sigma
            ),
            "qaly_loss_complication": (
                "lognormal", s.qaly_complication_mean, s.qaly_complication_sigma
            ),
        }[name]

    def _draw_column(self, name: str, n: int, rng: np.random.Generator) -> np.ndarray:
        family, a, b = self._marginal(name)
        if family == "beta":
            return rng.beta(a, b, size=n)
        mu = math.log(a) - 0.5 * b * b
        return rng.lognormal(mu, b, size=n)

    def _column_mean(self, name: str) -> float:
        """Exact mean of the marginal :meth:`_draw_column` samples."""
        family, a, b = self._marginal(name)
        if family == "beta":
            return a / (a + b)
        # the log-scale location is log(mean) - sigma^2/2, so the mean is the
        # spec's own
        return a

    def sample_joint(self, n: int, rng: np.random.Generator) -> np.ndarray:
        theta = np.empty((n, len(self.param_names)))
        for j, name in enumerate(self.param_names):
            theta[:, j] = self._draw_column(name, n, rng)
        return theta

    def sample_conditional(
        self,
        indices: Sequence[int],
        values: Sequence[float],
        n: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        # All parameters are mutually independent: conditionals are
        # marginals, drawn in canonical column order for reproducibility.
        theta = np.empty((n, len(self.param_names)))
        fixed = {int(i): v for i, v in zip(indices, values)}
        for j, name in enumerate(self.param_names):
            if j in fixed:
                theta[:, j] = fixed[j]
            else:
                theta[:, j] = self._draw_column(name, n, rng)
        return theta

    def effects_costs(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-arm QALY effect (negated loss) and monetary cost."""
        theta = np.atleast_2d(theta)
        p_inf, reduction, p_comp = theta[:, 0], theta[:, 1], theta[:, 2]
        c_treat, c_comp, c_vac = theta[:, 3], theta[:, 4], theta[:, 5]
        q_inf, q_comp = theta[:, 6], theta[:, 7]

        cost_per_case = c_treat + p_comp * c_comp
        qaly_loss_per_case = q_inf + p_comp * q_comp

        p0 = p_inf
        p1 = p_inf * (1.0 - reduction)
        costs = np.column_stack([p0 * cost_per_case, c_vac + p1 * cost_per_case])
        effects = np.column_stack([-p0 * qaly_loss_per_case, -p1 * qaly_loss_per_case])
        return effects, costs

    def net_benefit(self, theta: np.ndarray, k: float) -> np.ndarray:
        effects, costs = self.effects_costs(theta)
        return build_nb(effects, costs, k)


def model_for(spec):
    """Wrap a spec in its generative model."""
    if isinstance(spec, LinearGaussianSpec):
        return LinearGaussianModel(spec)
    if isinstance(spec, NonlinearToySpec):
        return NonlinearToyModel(spec)
    raise TypeError(f"unknown model spec type {type(spec).__name__}")


_MODEL_KINDS = {
    "linear_gaussian": LinearGaussianSpec,
    "toy": NonlinearToySpec,
}


def spec_to_dict(spec) -> dict:
    """JSON-friendly representation, inverse of :func:`spec_from_dict`."""
    for kind, cls in _MODEL_KINDS.items():
        if isinstance(spec, cls):
            return {"model": kind, **asdict(spec)}
    raise TypeError(f"unknown model spec type {type(spec).__name__}")


def spec_from_dict(payload: dict):
    data = dict(payload)
    try:
        kind = data.pop("model")
    except KeyError:
        raise ValueError("model spec JSON needs a 'model' key") from None
    try:
        cls = _MODEL_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown model kind {kind!r}; expected one of {sorted(_MODEL_KINDS)}"
        ) from None
    return cls(**data)


def generate_psa(spec, n_sims: int, seed: int, k: float = DEFAULT_WTP) -> PsaSample:
    """Simulate a PSA sample from a built-in model, reproducibly.

    The same (spec, n_sims, seed) always yields bitwise-identical output.
    For the toy model the effect and cost matrices are retained so the
    sample can be rebuilt at any willingness to pay; the linear-Gaussian
    model defines net benefit directly in currency.
    """
    if n_sims < 2:
        raise ValueError("need at least 2 simulations")
    model = model_for(spec)
    rng = np.random.default_rng(seed)
    theta = model.sample_joint(n_sims, rng)
    if isinstance(model, NonlinearToyModel):
        effects, costs = model.effects_costs(theta)
        return PsaSample(
            param_names=model.param_names,
            params=theta,
            nb=build_nb(effects, costs, k),
            effects=effects,
            costs=costs,
            k=float(k),
            treatment_names=("0", "1"),
        )
    return PsaSample(
        param_names=model.param_names,
        params=theta,
        nb=model.net_benefit(theta, k),
        treatment_names=("0", "1"),
    )


def brute_force_evppi(
    spec: NonlinearToySpec,
    subset: ParamSubset,
    k: float,
    n_outer: int = 10_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Outer-sample oracle for the toy model, with an exact inner expectation.

    The toy's net benefit is multilinear in mutually independent
    parameters, so E[nb_t | phi] is nb_t with every unlearned parameter set
    to its mean: only the outer draws of ``subset`` are random, and the
    estimate carries none of the upward bias a max over noisy inner means
    would add.  Returns (value, outer-level Monte Carlo standard error).
    Test-suite oracle; deliberately separate from the generic nested
    estimator so the two can cross-check.
    """
    if not isinstance(spec, NonlinearToySpec):
        raise TypeError("brute_force_evppi is defined for NonlinearToySpec only")
    if n_outer < 10_000:
        raise ValueError("oracle budget too small: need n_outer >= 10000")
    model = NonlinearToyModel(spec)
    subset.validate_against(len(model.param_names))
    idx = list(subset.indices)

    rng = np.random.default_rng(seed)
    outer = model.sample_joint(n_outer, rng)[:, idx]

    means = [model._column_mean(name) for name in model.param_names]
    theta = np.tile(means, (n_outer, 1))
    theta[:, idx] = outer
    nb = model.net_benefit(theta, k)
    maxima = nb.max(axis=1)

    value = float(maxima.mean() - nb.mean(axis=0).max())
    se = float(np.std(maxima, ddof=1) / math.sqrt(n_outer))
    return value, se
