"""Self-tests of the benchmark: generators, the tail rule, checks, spans.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json

import pytest

import checks
import report
import workloads
from tracing import Tracer
from worker import _pipeline


def _texts(workload, seed, cycle=0):
    return [case.text for case in workloads.cycle_cases(workload, seed, cycle)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed_and_differs_across_seeds(workload):
    first = workloads.cycle_cases(workload, 7, 0)
    assert [c.text for c in first] == _texts(workload, 7)
    assert [c.name for c in first] == [c.name for c in workloads.cycle_cases(workload, 8, 0)]
    assert _texts(workload, 7) != _texts(workload, 8)
    assert _texts(workload, 7, cycle=0) != _texts(workload, 7, cycle=1)


def test_retrodict_mix_centres_the_median_and_alternates_sources():
    cycles = [workloads.cycle_cases("retrodict-batch", 3, cycle) for cycle in (0, 1)]
    sizes = [c.expect["size"] for c in cycles[0]]
    # Op cost grows with d * k; as many ops are cheaper than d=4, k=8 as dearer.
    assert sum(d * k < 32 for d, k in sizes) == sum(d * k > 32 for d, k in sizes)
    sources = {}
    for case in cycles[0] + cycles[1]:
        sources.setdefault(case.expect["size"], []).append(case.expect["source"])
    for size, seen in sources.items():
        assert seen.count("unbiased") == seen.count("biased"), size
        assert all(a != b for a, b in zip(seen, seen[1:])), size


def test_tail_is_the_value_with_ten_samples_beyond_it():
    samples = list(range(100, 0, -1))
    value, percentile, beyond = report.tail(samples)
    assert (value, percentile, beyond) == (90, 90.0, 10)
    assert sum(x > value for x in samples) == 10
    assert report.tail(list(range(11)))[:2] == (0, 100.0 / 11)
    assert report.tail([3, 1, 2]) == (3, 100.0, 0)


def _run(case, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(case.text)
    import qretrodict.cli as cli
    return _pipeline(cli, path)[0]


def _case(workload, name):
    return next(c for c in workloads.cycle_cases(workload, 5, 0) if c.name == name)


def _corrupt(out: bytes, edit) -> bytes:
    doc = json.loads(out)
    edit(doc["outputs"])
    return json.dumps(doc).encode()


def _swap_rows(outputs):
    values = outputs["tables"]["retrodictive"]["values"]
    values[0], values[1] = values[1], values[0]


def _nudge_detector(outputs):
    outputs["operators"]["retro_state"]["matrix"][2][2][0] *= 1 + 1e-6


def _swap_scissors(outputs):
    matrix = outputs["operators"]["output_state"]["matrix"]
    matrix[0][0], matrix[1][1] = matrix[1][1], matrix[0][0]


def _leak_synthesis(outputs):
    matrix = outputs["operators"]["retro_state"]["matrix"]
    matrix[-1][-1][0] = 1e-6


def _flip_record(outputs):
    record = outputs["records"][0]
    record["bob_outcome"] = {"L": "R", "R": "L", "V": "H", "H": "V"}[record["bob_outcome"]]


def _move_count(outputs):
    counts = outputs["arrays"]["outcome_counts"]["values"]
    counts[0][0] += 1
    counts[1][1] -= 1


@pytest.mark.parametrize("workload, name, edit", [
    ("retrodict-batch", "unbiased-d4-k8", _swap_rows),
    ("retrodict-batch", "biased-d4-k4", _swap_rows),
    ("optics-sweep", "detector-N8", _nudge_detector),
    ("optics-sweep", "scissors-N8", _swap_scissors),
    ("optics-sweep", "synthesis-N8", _leak_synthesis),
    ("bb84-slots", "records-10000-intercept_resend", _flip_record),
    ("bb84-slots", "records-10000-none", _move_count),
])
def test_check_accepts_the_output_and_rejects_a_corrupted_one(workload, name, edit, tmp_path):
    case = _case(workload, name)
    out = _run(case, tmp_path)
    assert checks.check(case, out, 0) == []
    assert checks.check(case, json.dumps(json.loads(out)).encode(), 0) == []
    assert checks.check(case, _corrupt(out, edit), 0) != []


def test_honest_channel_check_rejects_a_same_basis_error(tmp_path):
    case = _case("bb84-slots", "records-10000-none")
    out = _run(case, tmp_path)

    def add_error(outputs):
        outputs["scalars"]["same_basis_errors"] = 1
        outputs["scalars"]["same_basis_error_rate"] = 1 / outputs["scalars"]["same_basis_slots"]

    assert checks.check(case, _corrupt(out, add_error), 0) != []


def test_cold_checks_compare_digests_and_exit_codes(tmp_path):
    cases = {c.name: c for c in workloads.cycle_cases("cli-cold", 5, 0)}
    bundled = cases["bus-train"]
    out = _run(bundled, tmp_path)
    assert checks.check(bundled, out, 0) == []
    flipped = bytes([out[0] ^ 1]) + out[1:]
    assert checks.check(bundled, flipped, 0) != []
    assert checks.check(bundled, out, 3) != []
    schema = cases["malformed-schema"]
    assert checks.check(schema, b"", 3) == []
    assert checks.check(schema, b"", 2) != []


def test_self_time_subtracts_child_spans():
    spans = [
        ["outer", 0, 100, -1, 0, None],
        ["inner", 10, 40, 0, 0, None],
        ["inner", 50, 60, 0, 0, 7],
        ["leaf", 12, 20, 1, 0, None],
    ]
    totals = report.layer_totals(spans)
    assert totals["outer"]["self_ns"] == 60
    assert totals["inner"]["calls"] == 2
    assert totals["inner"]["self_ns"] == 32
    assert totals["inner"]["value"] == 7


def test_tracer_records_nested_spans_and_restores_the_functions(tmp_path):
    import qretrodict.cli as cli
    from qretrodict import retrodict
    original = retrodict.born_probability
    tracer = Tracer(op=0)
    tracer.install()
    tracer.install()
    try:
        assert retrodict.born_probability is not original
        out = _run(_case("retrodict-batch", "biased-d4-k4"), tmp_path)
    finally:
        tracer.uninstall()
    assert retrodict.born_probability is original
    assert out == _run(_case("retrodict-batch", "biased-d4-k4"), tmp_path)
    names = [span[0] for span in tracer.spans]
    assert {"cli.load_scenario", "cli.validate_document", "cli.execute",
            "cli.render_json", "retrodict.retro_conditional_biased"} <= set(names)
    validate = names.index("cli.validate_document")
    assert tracer.spans[tracer.spans[validate][3]][0] == "cli.load_scenario"


def test_end_to_end_reports_the_measured_latencies():
    latencies = [5.0, 1.0] + [2.0] * 10 + [3.0] * 9
    ops = [{"name": f"type-{i % 3}", "latency_s": ms / 1e3, "problems": [], "slots": 0,
            "cycle": 0} for i, ms in enumerate(latencies)]
    ops[1]["problems"] = ["wrong"]
    result = {"ops": ops, "peak_rss_kb": 2048, "cycles_planned": 1}
    metrics, details = report.end_to_end(result, [0.5, 0.7, 0.6])
    values = {name: m["value"] for name, m in metrics.items()}
    assert values["latency_p50_ms"] == 2.0
    assert values["latency_tail_ms"] == 2.0
    assert values["throughput_ops_per_s"] == pytest.approx(1e3 * 20 / sum(latencies))
    assert values["setup_s"] == 0.6
    assert values["peak_rss_mb"] == 2.0
    assert details["failed_ratio"] == 1 / 21
