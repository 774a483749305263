"""Value-of-information estimation from probabilistic sensitivity analysis
samples.

Five routes to the expected value of partially perfect information: two
single-parameter estimators (bin averaging with bias-controlled bin choice,
and segmentation search), two nonparametric-regression estimators (penalized
splines and Gaussian processes), and a nested Monte Carlo reference driven
by a generative model.  Built-in synthetic models with closed-form or
brute-force oracles make every estimator checkable.

The package loads lazily: ``import voikit`` imports neither numpy nor any
of its modules, and the first lookup of a name the package does not yet
hold loads the whole API.  The reason is the CLI.  A CLI process starts
OpenBLAS at one thread, as every fit runs it, unless the caller set
``OPENBLAS_NUM_THREADS`` (see :mod:`voikit.cli`); OpenBLAS reads that
setting once, when numpy loads it.  ``python -m voikit.cli`` imports this
package before the CLI module runs, so the package must not load numpy.
"""

import importlib

__version__ = "0.1.0"

# the API's modules in the order they load: a process's heap layout, to
# which its timings are sensitive, follows this order
_MODULES = ("psa", "io", "single_param", "gam", "gp", "regression", "nested_mc", "models")


def __getattr__(name):
    """Load the API at the first lookup of a name the package lacks."""
    api = globals()
    # the public API is each module's __all__, declared there and only there
    names = []
    for module_name in _MODULES:
        module = importlib.import_module(f"{__name__}.{module_name}")
        names += module.__all__
        api.update((n, getattr(module, n)) for n in module.__all__)
    api["__all__"] = names
    # two threads may both get here; each builds the same API
    api.pop("__getattr__", None)
    try:
        return api[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
