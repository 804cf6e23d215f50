"""Timings of the BB84 simulation layers, with pytest-benchmark.

Run from the repository root (not part of the tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks/test_bb84.py

``simulate_slots`` alone, and ``execute`` plus ``render_json`` of a
``bb84`` document, each at 10^4 and 10^6 slots, with and without
``include_records``.  A render of 10^6 records takes seconds, so the
10^6 cases run a fixed three rounds.
"""

import pytest

from qretrodict import bb84, cli


def _rounds(benchmark, slots, fn, *args):
    if slots >= 10 ** 6:
        return benchmark.pedantic(fn, args=args, rounds=3, iterations=1)
    return benchmark(fn, *args)


@pytest.mark.parametrize("attack", ["none", "intercept_resend"])
@pytest.mark.parametrize("slots", [10 ** 4, 10 ** 6])
def test_simulate_slots(benchmark, slots, attack):
    records, summary = _rounds(benchmark, slots, bb84.simulate_slots, slots, 5, attack)
    assert len(records) == summary.slots == slots


def _execute_render(scenario):
    return cli.render_json(cli.execute(scenario))


@pytest.mark.parametrize("records", [False, True], ids=["tally", "records"])
@pytest.mark.parametrize("slots", [10 ** 4, 10 ** 6])
def test_execute_render(benchmark, slots, records):
    scenario = cli.validate_document({"kind": "bb84", "parameters": {
        "slots": slots, "seed": 5, "attack": "intercept_resend",
        "include_records": records}})
    text = _rounds(benchmark, slots, _execute_render, scenario)
    assert text.count('"alice_choice"') == (slots if records else 0)
