"""Timings of ``cli.render_json(cli.execute(...))`` on optics scenarios, with pytest-benchmark.

Run from the repository root (not part of the tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks

Each case validates one document once and then times its execution and
rendering together: ``synthesis`` (counts 2 and 1), ``scissors`` and
``detector`` (3 counts) at truncation N in {8, 16, 32, 64, 256, 2000};
2000 is the schema's cap.  Their operators are mostly zeros: a synthesis
state lives on the first n + m + 1 number states and a detector state is
diagonal.  At N = 2000 each output is 264 MB of JSON, and rendering it
takes most of the time.
"""

import pytest

from qretrodict import cli

_PARAMETERS = {
    "synthesis": {"reference": [[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.5, 0.0]],
                  "counts_b": 2, "counts_c": 1, "theta": 0.6},
    "scissors": {"reference": [[0.6, 0.0], [0.0, 0.8]], "theta": 0.7853981633974483},
    "detector": {"counts": 3, "efficiency": 0.8},
}


def _run(scenario):
    return cli.render_json(cli.execute(scenario))


@pytest.mark.parametrize("truncation", [8, 16, 32, 64, 256, 2000])
@pytest.mark.parametrize("kind", ["synthesis", "scissors", "detector"])
def test_execute_and_render_optics(benchmark, kind, truncation):
    scenario = cli.validate_document({"kind": kind, "parameters": dict(
        _PARAMETERS[kind], truncation=truncation)})
    text = benchmark(_run, scenario)
    assert text.endswith("\n")
