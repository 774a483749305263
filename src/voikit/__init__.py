"""Value-of-information estimation from probabilistic sensitivity analysis
samples.

Five routes to the expected value of partially perfect information: two
single-parameter estimators (bin averaging with bias-controlled bin choice,
and segmentation search), two nonparametric-regression estimators (penalized
splines and Gaussian processes), and a nested Monte Carlo reference driven
by a generative model.  Built-in synthetic models with closed-form or
brute-force oracles make every estimator checkable.
"""

from . import psa, io, single_param, gam, gp, regression, nested_mc, models

__version__ = "0.1.0"

# the public API is each module's __all__, declared there and only there
__all__ = []
for _module in (psa, io, single_param, gam, gp, regression, nested_mc, models):
    __all__ += _module.__all__
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
del _module
