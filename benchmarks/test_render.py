"""Timings of ``cli.render_json`` at fixed sizes, with pytest-benchmark.

Run from the repository root (not part of the tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks

Each case executes one scenario once and then times only the rendering of
its result document: ``detector`` at truncation N in {8, 16, 32, 64}, and
``retrodict`` at dimension d in {4, 16} with k = 2d events and outcomes.
"""

import numpy as np
import pytest

from qretrodict import cli


def _pairs(mat):
    return [[[z.real, z.imag] for z in row] for row in mat.tolist()]


def _retrodict_doc(d, k, seed=0):
    """An unbiased source (k/d orthonormal bases) and a random rank-1 POM."""
    rng = np.random.default_rng(seed)
    bases = [np.eye(d)]
    for _ in range(k // d - 1):
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        bases.append(np.linalg.qr(z)[0])
    states = [np.outer(b[:, i], b[:, i].conj()) for b in bases for i in range(d)]
    v = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    vals, vecs = np.linalg.eigh(v @ v.conj().T)
    w = (vecs / np.sqrt(vals)) @ vecs.conj().T @ v
    return {"kind": "retrodict", "parameters": {
        "events": [{"label": f"e{a}", "prior": 1 / k, "state": _pairs(s)}
                   for a, s in enumerate(states)],
        "pom": [{"label": f"o{b}", "element": _pairs(np.outer(w[:, b], w[:, b].conj()))}
                for b in range(k)]}}


def _result(doc):
    return cli.execute(cli.validate_document(doc))


@pytest.mark.parametrize("truncation", [8, 16, 32, 64])
def test_render_detector(benchmark, truncation):
    result = _result({"kind": "detector", "parameters": {
        "truncation": truncation, "counts": 3, "efficiency": 0.8}})
    benchmark(cli.render_json, result)


@pytest.mark.parametrize("d", [4, 16])
def test_render_retrodict(benchmark, d):
    result = _result(_retrodict_doc(d, 2 * d))
    assert result.diagnostics["source"] == "unbiased"
    benchmark(cli.render_json, result)
