import numpy as np
import pytest

from voikit import LinearGaussianSpec, PsaSample, generate_psa


@pytest.fixture(scope="session")
def lin_spec():
    return LinearGaussianSpec()


@pytest.fixture(scope="session")
def lin_sample(lin_spec):
    """Reference linear-Gaussian sample, S=10^4, shared across tests."""
    return generate_psa(lin_spec, 10_000, seed=1)


def make_sample(nb, phi=None, seed=0):
    """Small helper: wrap an nb matrix (and optional parameter column) in a
    PsaSample with a generated parameter matrix."""
    nb = np.asarray(nb, dtype=float)
    n = nb.shape[0]
    if phi is None:
        phi = np.random.default_rng(seed).standard_normal(n)
    return PsaSample(param_names=("x",), params=np.asarray(phi, float)[:, None], nb=nb)


def rows_sample(sample, rows):
    """The rows ``rows`` of ``sample`` (in any order, repeated or negative)
    as a new sample through the public constructor: the reference for a
    sample from ``take``, and the way to build a permuted sample."""
    priced = sample.effects is not None
    return PsaSample(
        sample.param_names, sample.params[rows], sample.nb[rows],
        effects=sample.effects[rows] if priced else None,
        costs=sample.costs[rows] if priced else None,
        k=sample.k, treatment_names=sample.treatment_names,
    )
