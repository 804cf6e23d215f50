"""Timings of the whole CLI pipeline on ``retrodict`` documents, with pytest-benchmark.

Run from the repository root (not part of the tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks

Each case writes one document to a file and then times ``load_scenario``
(read, parse and validate), ``execute`` and ``render_json`` together, as
one ``qretrodict run`` does after its imports: dimension d = 16 with
k = 32 events and outcomes, for an unbiased source (two orthonormal bases
at uniform priors) and a biased one (random pure states at Dirichlet
priors), both against a random rank-1 POM.
"""

import json

import pytest

from qretrodict import cli
from test_render import _retrodict_doc
from test_retrodict import _biased_doc


def _pipeline(path):
    return cli.render_json(cli.execute(cli.load_scenario(path)))


@pytest.mark.parametrize("source", ["unbiased", "biased"])
def test_load_execute_render_retrodict(benchmark, tmp_path, source):
    make = _retrodict_doc if source == "unbiased" else _biased_doc
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(make(16, 32)), encoding="utf-8")
    text = benchmark(_pipeline, str(path))
    assert json.loads(text)["diagnostics"]["source"] == source
