"""Turn a worker's op records and spans into the benchmark's metrics.

End-to-end metrics come from an untraced run; per-layer metrics from a
traced run's span file.  A layer's self time is its span's duration
minus the durations of its child spans.  Stage figures (``cli.*_ms``)
are medians over measured ops so they compare with ``latency_p50_ms``;
kernel figures are totals divided by the number of measured ops, and
their totals include the traced set-up warm-up (one small op per
scenario kind), so a layer a workload never calls reads near zero
rather than zero.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

STAGES = {
    "cli.load_validate_ms": "cli.load_scenario",
    "cli.execute_ms": "cli.execute",
    "cli.render_ms": "cli.render_json",
}

#: Per-layer figures: metric name -> (span name, what, unit), per measured op.
KERNEL_FIGURES = {
    "optics.beam_splitter_unitary.calls": ("optics.beam_splitter_unitary", "calls", "count/op"),
    "optics.beam_splitter_unitary.self_ms": ("optics.beam_splitter_unitary", "self_ms", "ms/op"),
    "optics.compose_measurement_pom.calls": ("optics.compose_measurement_pom", "calls", "count/op"),
    "optics.compose_measurement_pom.self_ms": ("optics.compose_measurement_pom", "self_ms", "ms/op"),
    "optics.projection_synthesis_retro.self_ms": ("optics.projection_synthesis_retro", "self_ms", "ms/op"),
    "optics.scissors_output.self_ms": ("optics.scissors_output", "self_ms", "ms/op"),
    "optics.inefficient_detector_retro.self_ms": ("optics.inefficient_detector_retro", "self_ms", "ms/op"),
    "optics.unitary_bytes_computed": ("optics.beam_splitter_unitary", "value", "B/op"),
    "retrodict.born_probability.calls": ("retrodict.born_probability", "calls", "count/op"),
    "retrodict.born_probability.self_ms": ("retrodict.born_probability", "self_ms", "ms/op"),
    "retrodict.retro_conditional_unbiased.calls": ("retrodict.retro_conditional_unbiased", "calls", "count/op"),
    "retrodict.retro_conditional_unbiased.self_ms": ("retrodict.retro_conditional_unbiased", "self_ms", "ms/op"),
    "retrodict.retro_conditional_biased.calls": ("retrodict.retro_conditional_biased", "calls", "count/op"),
    "retrodict.retro_conditional_biased.self_ms": ("retrodict.retro_conditional_biased", "self_ms", "ms/op"),
    "retrodict.retro_state.calls": ("retrodict.retro_state", "calls", "count/op"),
    "hilbert.is_psd.calls": ("hilbert.is_psd", "calls", "count/op"),
    "hilbert.is_psd.self_ms": ("hilbert.is_psd", "self_ms", "ms/op"),
    "bayes.retrodict_conditional.calls": ("bayes.retrodict_conditional", "calls", "count/op"),
    "bb84.simulate_slots.self_ms": ("bb84.simulate_slots", "self_ms", "ms/op"),
    "bb84.records_built": ("bb84.simulate_slots", "value", "count/op"),
}

PER_LAYER_UNITS = {
    "cli.import_ms": "ms",
    "cli.process_other_ms": "ms",
    **{name: "ms" for name in STAGES},
    "cli.pipeline_ms": "ms",
    "cli.document_bytes": "B/op",
    "cli.output_bytes": "B/op",
    **{name: unit for name, (_, _, unit) in KERNEL_FIGURES.items()},
    "bb84.records_emitted": "count/op",
    "bb84.records_useful_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.untraced_p50_ms": "ms",
}


def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With n samples that is
    the nearest-rank value of rank n - 10 (1-based), the percentile
    100 (n - 10) / n.  With ten or fewer samples no percentile
    qualifies, and the maximum is returned with zero beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(result: dict, setup_samples: list) -> tuple:
    """End-to-end metrics and details from an untraced run.

    Latency figures are the measured op latencies.  Throughput is the
    completed ops over the time spent in ops; the client's own input
    generation and output checks between ops are not counted.
    """
    ops = result["ops"]
    completed = sum(not op["problems"] for op in ops)
    latencies = [op["latency_s"] * 1e3 for op in ops]
    value, percentile, beyond = tail(latencies)
    values = {
        "setup_s": statistics.median(setup_samples),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": value,
        "throughput_ops_per_s": 1e3 * completed / sum(latencies),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    details = {
        "samples": len(ops),
        "tail_percentile": percentile,
        "tail_samples_beyond": beyond,
        "failed_ratio": (len(ops) - completed) / len(ops),
        "slots_per_s": 1e3 * sum(op["slots"] for op in ops) / sum(latencies),
        "cycles": ops[-1]["cycle"] + 1,
        "cycles_planned": result["cycles_planned"],
        "setup_samples_s": setup_samples,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}, details


def layer_totals(spans: list) -> dict:
    """Per span name: calls, self nanoseconds and summed value."""
    child_ns = defaultdict(int)
    for name, start, end, parent, op, value in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = defaultdict(lambda: {"calls": 0, "self_ns": 0, "value": 0})
    for index, (name, start, end, parent, op, value) in enumerate(spans):
        entry = totals[name]
        entry["calls"] += 1
        entry["self_ns"] += end - start - child_ns[index]
        entry["value"] += value or 0
    return totals


def per_op_spans(spans: list) -> dict:
    """Inclusive nanoseconds per (op id, span name)."""
    per_op = defaultdict(int)
    for name, start, end, parent, op, value in spans:
        per_op[(op, name)] += end - start
    return per_op


def per_layer(result: dict, spans: list) -> dict:
    """Per-layer metrics from a traced run's op records and span file."""
    ops = result["ops"]
    n_ops = len(ops)
    totals = layer_totals(spans)
    per_op = per_op_spans(spans)
    values = {}
    imports = [ns / 1e6 for (op, name), ns in per_op.items() if name == "cli.import"]
    values["cli.import_ms"] = statistics.median(imports)

    def stage_ms(op, span):
        return per_op.get((op["op"], span), 0) / 1e6

    for metric, span in STAGES.items():
        samples = [stage_ms(op, span) for op in ops if (op["op"], span) in per_op]
        values[metric] = statistics.median(samples) if samples else 0.0
    values["cli.pipeline_ms"] = statistics.median(
        sum(stage_ms(op, s) for s in STAGES.values()) for op in ops)
    values["cli.process_other_ms"] = statistics.median(
        op["traced_s"] * 1e3 - sum(stage_ms(op, s) for s in ("cli.import", *STAGES.values()))
        for op in ops)
    values["cli.document_bytes"] = sum(op["doc_bytes"] for op in ops) / n_ops
    values["cli.output_bytes"] = sum(op["out_bytes"] for op in ops) / n_ops
    for metric, (span, what, _) in KERNEL_FIGURES.items():
        entry = totals.get(span, {"calls": 0, "self_ns": 0, "value": 0})
        raw = entry["self_ns"] / 1e6 if what == "self_ms" else entry[what]
        values[metric] = raw / n_ops
    emitted = result["warmup_records"] + sum(op["records"] for op in ops)
    built = totals.get("bb84.simulate_slots", {"value": 0})["value"]
    values["bb84.records_emitted"] = emitted / n_ops
    values["bb84.records_useful_ratio"] = emitted / built if built else 0.0
    values["trace.overhead_ratio"] = (sum(op["traced_s"] for op in ops)
                                      / sum(op["latency_s"] for op in ops))
    values["trace.untraced_p50_ms"] = statistics.median(op["latency_s"] * 1e3 for op in ops)
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def load_spans(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
