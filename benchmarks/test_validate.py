"""Timings of ``cli.validate_document`` at fixed sizes, with pytest-benchmark.

Run from the repository root (not part of the tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks

Valid documents: ``retrodict`` at dimension d in {4, 16, 32} with k = 2d
events and outcomes, and one ``bb84`` simulation document.  Each takes one
walk of the schema, with a plain loop over each matrix's entries.

Rejected documents: ``retrodict`` at d = 16, k = 32 with one bad entry in
the last POM element, where the walk runs past every matrix before it
finds the error and then goes entry by entry through that element, with
the bad entry last or first in it, and a ``bayes`` document with an
unknown top-level key.  A rejection's one walk goes on past its first
error to pick and word the message; jsonschema is never imported.
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


def _rejection(doc):
    try:
        cli.validate_document(doc)
    except cli.ValidationError as error:
        return str(error)
    raise AssertionError("document was accepted")


def test_reject_retrodict_bad_last_entry(benchmark):
    doc = _retrodict_doc(16, 32)
    doc["parameters"]["pom"][-1]["element"][-1][-1] = [0.0, True]
    assert benchmark(_rejection, doc).startswith(
        "scenario does not match the schema at $.parameters.pom[31].element[15][15][1]:")


def test_reject_retrodict_bad_first_entry_of_last_element(benchmark):
    doc = _retrodict_doc(16, 32)
    doc["parameters"]["pom"][-1]["element"][0][0] = [0.0, True]
    assert benchmark(_rejection, doc).startswith(
        "scenario does not match the schema at $.parameters.pom[31].element[0][0][1]:")


def test_reject_unknown_top_level_key(benchmark):
    doc = {"kind": "bayes", "surprise": 1, "parameters": {
        "events": ["bus", "train"], "priors": [0.5, 0.5],
        "outcomes": ["late", "on_time"],
        "conditional": [[0.3, 0.7], [0.1, 0.9]], "observed": "late"}}
    assert benchmark(_rejection, doc) == (
        "scenario does not match the schema at $: Additional properties are "
        "not allowed ('surprise' was unexpected)")
