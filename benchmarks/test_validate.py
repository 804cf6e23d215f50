"""Timings of ``cli.validate_document`` at fixed sizes, with pytest-benchmark.

Run from the repository root (not part of the tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks

Each case times validation of one schema-valid document: ``retrodict`` at
dimension d in {4, 16, 32} with k = 2d events and outcomes, and one
``bb84`` simulation document.  A valid document takes the in-module schema
walk and entry check; jsonschema is never called.
"""

import pytest

from qretrodict import cli
from test_render import _retrodict_doc


@pytest.mark.parametrize("d", [4, 16, 32])
def test_validate_retrodict(benchmark, d):
    doc = _retrodict_doc(d, 2 * d)
    assert benchmark(cli.validate_document, doc).kind == "retrodict"


def test_validate_bb84(benchmark):
    doc = {"schema_version": 1, "kind": "bb84", "description": "records",
           "parameters": {"slots": 10000, "seed": 7,
                          "attack": "intercept_resend", "include_records": True}}
    assert benchmark(cli.validate_document, doc).kind == "bb84"
