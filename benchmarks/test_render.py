"""Timings of ``cli.render_json`` at fixed sizes, with pytest-benchmark.

Run from the repository root (not part of the tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks

Each case executes one scenario once and then times only the rendering of
its result document: ``detector``, ``synthesis`` and ``scissors`` at
truncation N in {8, 16, 32, 64, 256, 2000}, ``retrodict`` at
dimension d in {4, 16} with k = 2d events and outcomes (and once more at
d = 16 with an integer ``0`` for the imaginary part of each diagonal
entry, so its matrices are echoed from their lists), and ``bb84`` with
``include_records`` at 10^4 and 10^5 slots.  One more case renders only
the N + 1 column labels of a detector's weights at N = 40.
"""

import numpy as np
import pytest

from qretrodict import cli

#: Parameters of each optics kind, besides its truncation.
_OPTICS = {
    "detector": {"counts": 3, "efficiency": 0.8},
    "synthesis": {"reference": [[0.6, 0.0], [0.0, 0.48], [0.64, 0.0]],
                  "counts_b": 2, "counts_c": 1, "theta": 0.7},
    "scissors": {"reference": [[0.8, 0.0], [0.0, -0.6]], "theta": 0.9},
}


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


@pytest.mark.parametrize("truncation", [8, 16, 32, 64, 256, 2000])
@pytest.mark.parametrize("kind", sorted(_OPTICS))
def test_render_optics(benchmark, kind, truncation):
    result = _result({"kind": kind, "parameters": dict(
        _OPTICS[kind], truncation=truncation)})
    benchmark(cli.render_json, result)


@pytest.mark.parametrize("d", [4, 16])
def test_render_retrodict(benchmark, d):
    result = _result(_retrodict_doc(d, 2 * d))
    assert result.diagnostics["source"] == "unbiased"
    benchmark(cli.render_json, result)


def test_render_retrodict_integer_echo(benchmark):
    # Each diagonal entry's imaginary part is the JSON integer 0, so every
    # matrix is echoed from its list, not from its parsed array.
    doc = _retrodict_doc(16, 32)
    params = doc["parameters"]
    matrices = [e["state"] for e in params["events"]] + [p["element"] for p in params["pom"]]
    for matrix in matrices:
        for i, row in enumerate(matrix):
            row[i][1] = 0
    result = _result(doc)
    assert all(type(e["state"]) is list for e in result.scenario["parameters"]["events"])
    benchmark(cli.render_json, result)


@pytest.mark.parametrize("slots", [10 ** 4, 10 ** 5])
def test_render_bb84_records(benchmark, slots):
    result = _result({"kind": "bb84", "parameters": {
        "slots": slots, "seed": 5, "attack": "intercept_resend",
        "include_records": True}})
    assert len(result.records) == slots
    benchmark(cli.render_json, result)


def test_render_detector_labels(benchmark):
    result = _result({"kind": "detector", "parameters": dict(
        _OPTICS["detector"], truncation=40)})
    labels = result.arrays["photon_number_weights"]["cols"]
    assert len(labels) == 41
    benchmark(cli._dumps, labels)
