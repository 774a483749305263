"""Value-of-information estimation from probabilistic sensitivity analysis
samples.

Five routes to the expected value of partially perfect information: two
single-parameter estimators (bin averaging with bias-controlled bin choice,
and segmentation search), two nonparametric-regression estimators (penalized
splines and Gaussian processes), and a nested Monte Carlo reference driven
by a generative model.  Built-in synthetic models with closed-form or
brute-force oracles make every estimator checkable.
"""

from .psa import (
    EstimationError,
    EvppiEstimate,
    ParamSubset,
    PsaSample,
    WillingnessToPay,
    build_nb,
    evpi,
    incremental_nb,
)
from .io import PsaFormatError, read_psa_csv, write_psa_csv
from .single_param import (
    BinPartition,
    CumsumCurve,
    cumsum_curve,
    order_by_param,
    sad_evppi,
    so_bias,
    so_choose_bins,
    so_evppi,
)
from .gam import gam_fit_detail
from .gp import GpHyperparameters, gp_fit_detail
from .regression import (
    BootstrapConfig,
    RegressionFit,
    bootstrap_estimates,
    bootstrap_se,
    fit_regression,
    gam_evppi,
    gp_evppi,
    regression_evppi,
    with_bootstrap,
)
from .nested_mc import GenerativeModel, nested_mc_evppi
from .models import (
    DEFAULT_WTP,
    LinearGaussianModel,
    LinearGaussianSpec,
    NonlinearToyModel,
    NonlinearToySpec,
    brute_force_evppi,
    generate_psa,
    linear_gaussian_oracle,
    model_for,
    spec_from_dict,
    spec_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "EstimationError",
    "EvppiEstimate",
    "ParamSubset",
    "PsaSample",
    "WillingnessToPay",
    "build_nb",
    "evpi",
    "incremental_nb",
    "PsaFormatError",
    "read_psa_csv",
    "write_psa_csv",
    "BinPartition",
    "CumsumCurve",
    "cumsum_curve",
    "order_by_param",
    "sad_evppi",
    "so_bias",
    "so_choose_bins",
    "so_evppi",
    "gam_fit_detail",
    "GpHyperparameters",
    "gp_fit_detail",
    "BootstrapConfig",
    "RegressionFit",
    "bootstrap_estimates",
    "bootstrap_se",
    "fit_regression",
    "gam_evppi",
    "gp_evppi",
    "regression_evppi",
    "with_bootstrap",
    "GenerativeModel",
    "nested_mc_evppi",
    "DEFAULT_WTP",
    "LinearGaussianModel",
    "LinearGaussianSpec",
    "NonlinearToyModel",
    "NonlinearToySpec",
    "brute_force_evppi",
    "generate_psa",
    "linear_gaussian_oracle",
    "model_for",
    "spec_from_dict",
    "spec_to_dict",
]
