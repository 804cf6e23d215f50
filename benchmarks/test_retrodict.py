"""Timings of ``cli.execute`` on ``retrodict`` documents, with pytest-benchmark.

Run from the repository root (not part of the tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks

Each case validates one document once and then times only its execution:
dimension d in {4, 16, 32} with k = 2d events and outcomes, for an unbiased
source (k/d orthonormal bases at uniform priors) and a biased one (random
pure states at Dirichlet priors), both against a random rank-1 POM.
"""

import numpy as np
import pytest

from qretrodict import cli
from test_render import _pairs, _retrodict_doc


def _biased_doc(d, k, seed=0):
    doc = _retrodict_doc(d, k, seed)
    rng = np.random.default_rng(seed + 1)
    priors = rng.dirichlet(np.ones(k))
    for event, prior in zip(doc["parameters"]["events"], priors):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        event["prior"] = float(prior)
        event["state"] = _pairs(np.outer(v, v.conj()))
    return doc


@pytest.mark.parametrize("source", ["unbiased", "biased"])
@pytest.mark.parametrize("d", [4, 16, 32])
def test_execute_retrodict(benchmark, d, source):
    make = _retrodict_doc if source == "unbiased" else _biased_doc
    scenario = cli.validate_document(make(d, 2 * d))
    result = benchmark(cli.execute, scenario)
    assert result.diagnostics["source"] == source
