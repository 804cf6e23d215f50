"""Tests for the scenario-driven command line front end."""

import contextlib
import copy
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qretrodict import cli
from qretrodict.cli import (
    EXIT_COMPUTATION,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    execute,
    list_examples,
    load_scenario,
    main,
    render_csv,
    render_json,
    validate_document,
)
from support import random_pom, random_unbiased_ensemble


#: SHA-256 of ``render_json`` for every bundled scenario, recorded before
#: the optics moved to per-photon-number blocks (the same values the
#: benchmark's perfbench/golden.json pins).  Refactors keep them byte-identical.
GOLDEN_DIGESTS = {
    "bb84-intercept-resend": "ea35f37ca4cb8de36ae3f82c9279f9decca07d92e057b2304fe595726ba19f3e",
    "bb84-monte-carlo": "9d88e5a19900cb9840816955244630a23aec04172b318b5f8bf807e54422f5e0",
    "bb84-retrodict": "b6befbb9503f1fbd29cac272c3ec5bd916d6b25a4903edcb9a59a5dd711a8deb",
    "bb84-tables": "0103c1bd5b4b02678e4ff8228e50bf4ebb96f2454f8762affbbf4c8ec21bf562",
    "biased-qubit": "63f41067c1a2df63132b526702594d2637bac4a4ea51779a735a3876c590787b",
    "bus-train": "f5bbee223fcb24954db7590cda7a7879ddce14b6447e38cf1e72fb76ad9f9880",
    "detector-perfect": "92bb3eab65ad8afb77cfd3c3733b7b1ca67dd10fe8c8562fa35924ee3c9d6ece",
    "detector-single-count": "8815e5b982aa580efa496193cadbf858f601977a6a686a8eed9a7e5b7d1eb16d",
    "horse-race": "3a85eee42947f0b03723dd31e5ea3b1863120def393ce8442afdea1840c57ad1",
    "scissors-eq41": "825a529f4c6b230ba403ae69534af81d38e556ea1fe99b9910e0b740885b147d",
    "synthesis-single-photon": "e6339b74485e5896704bbfb61a71571ea70a91e43d64281aad284342ac0eb1ed",
    "vacuum-synthesis": "424fed9687f558bf2c746777da503ef2489744451bb2a15354a61cffd01a7cb5",
}


#: A JSON integer no double can hold.
HUGE = 10 ** 400


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def bus_train_doc(**overrides):
    doc = {
        "kind": "bayes",
        "parameters": {
            "events": ["bus", "train"],
            "priors": [0.5, 0.5],
            "outcomes": ["late", "on_time"],
            "conditional": [[0.3, 0.7], [0.1, 0.9]],
            "observed": "late",
        },
    }
    doc.update(overrides)
    return doc


def run_to_document(path):
    return execute(load_scenario(path)).to_json_obj()


class TestBundledScenarios:
    def test_catalog_contains_the_contractual_names(self):
        names = {info.name for info in list_examples()}
        assert "bus-train" in names
        assert "bb84-tables" in names
        assert "scissors-eq41" in names
        assert len(names) >= 8

    def test_every_bundled_scenario_runs_cleanly(self, capsys):
        for info in list_examples():
            code = main(["run", info.path])
            captured = capsys.readouterr()
            assert code == EXIT_OK, f"{info.name}: {captured.err}"
            document = json.loads(captured.out)
            assert document["schema_version"] == 1
            assert document["scenario"]["kind"] == info.kind

    def test_examples_subcommand_lists_every_entry(self, capsys):
        assert main(["examples"]) == EXIT_OK
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
        assert len(lines) == len(list_examples())
        assert any(line.startswith("bus-train [bayes]") for line in lines)

    def test_outputs_match_recorded_digests(self):
        digests = {
            info.name: hashlib.sha256(
                render_json(execute(load_scenario(info.path))).encode("utf-8")
            ).hexdigest()
            for info in list_examples()
        }
        assert digests == GOLDEN_DIGESTS

    def test_repeated_runs_are_byte_identical(self):
        info = next(i for i in list_examples() if i.name == "bb84-monte-carlo")
        first = render_json(execute(load_scenario(info.path)))
        second = render_json(execute(load_scenario(info.path)))
        assert first == second


class TestScenarioValidation:
    def test_accepts_minimal_bb84_document(self):
        scenario = validate_document({"kind": "bb84"})
        assert scenario.kind == "bb84"
        assert scenario.parameters == {}

    def test_rejects_unknown_kind(self):
        with pytest.raises(cli.ValidationError):
            validate_document({"kind": "telepathy", "parameters": {}})

    def test_rejects_unknown_top_level_field(self):
        with pytest.raises(cli.ValidationError):
            validate_document(bus_train_doc(surprise=1))

    def test_rejects_unknown_parameter(self):
        doc = bus_train_doc()
        doc["parameters"]["surprise"] = 1
        with pytest.raises(cli.ValidationError):
            validate_document(doc)

    def test_rejects_missing_parameters_for_bayes(self):
        with pytest.raises(cli.ValidationError):
            validate_document({"kind": "bayes"})

    def test_rejects_wrong_schema_version(self):
        with pytest.raises(cli.ValidationError):
            validate_document(bus_train_doc(schema_version=2))

    def test_error_message_points_into_the_document(self):
        doc = bus_train_doc()
        doc["parameters"]["priors"] = "half and half"
        with pytest.raises(cli.ValidationError, match="priors"):
            validate_document(doc)


def bundled_schema():
    ref = resources.files("qretrodict").joinpath("schema", cli.SCHEMA_RESOURCE)
    return json.loads(ref.read_text(encoding="utf-8"))


def malformed_documents():
    """Documents breaking the schema in one place or in several at once."""
    wrong_priors = bus_train_doc()
    wrong_priors["parameters"]["priors"] = "half and half"
    several = bus_train_doc(schema_version=2, surprise=1)
    several["parameters"]["priors"] = [0.5, "half"]
    several["parameters"]["observed"] = 3
    del several["parameters"]["outcomes"]
    return [
        {},
        [],
        "bayes",
        {"kind": "bayes"},
        {"kind": "telepathy", "parameters": {}},
        bus_train_doc(surprise=1),
        wrong_priors,
        several,
        {"kind": "detector", "parameters": {"counts": -1, "efficiency": "x",
                                            "truncation": 0}},
        {"kind": "synthesis", "parameters": {"reference": [[1.0]],
                                             "counts_b": 1.5, "theta": None,
                                             "truncation": 100000}},
        {"kind": "scissors", "parameters": {"reference": [], "theta": 0.5}},
        {"kind": "retrodict", "parameters": {"events": [{"label": 1}],
                                             "pom": [{"element": [[[1, 0, 0]]]}]}},
        {"kind": "bb84", "parameters": {"slots": 0, "seed": -5,
                                        "attack": "mitm", "extra": True}},
        {"kind": "bb84", "description": 7, "parameters": []},
    ]


class TestSchema:
    def test_bundled_schema_is_a_valid_draft_2020_12_schema(self):
        jsonschema.Draft202012Validator.check_schema(bundled_schema())

    @pytest.mark.parametrize("doc", malformed_documents())
    def test_reports_the_same_error_as_jsonschema_validate(self, doc):
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(doc, bundled_schema())
        with pytest.raises(cli.ValidationError) as got:
            validate_document(doc)
        assert str(got.value) == (
            f"scenario does not match the schema at "
            f"{expected.value.json_path}: {expected.value.message}")

    def test_importing_the_cli_does_not_load_scipy(self):
        probe = ("import sys, qretrodict.cli; "
                 "print(sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.')))")
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", probe], check=True, env=env,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


def _refs(node, pointer=()):
    """Every ``$ref`` in a schema with the JSON-pointer parts leading to it."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "$ref":
                yield pointer, value
            else:
                yield from _refs(value, pointer + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _refs(value, pointer + (i,))


def retrodict_doc(d, k):
    """A schema-valid retrodict document with k events and k POM elements."""
    def matrix():
        return [[[1.0 / d, 0.0] if i == j else [0, 0] for j in range(d)]
                for i in range(d)]

    return {"kind": "retrodict", "parameters": {
        "events": [{"label": f"a{i}", "prior": 1 / k, "state": matrix()}
                   for i in range(k)],
        "pom": [{"label": f"b{j}", "element": matrix()} for j in range(k)]}}


class TestFastValidation:
    def test_entry_check_covers_every_matrix_and_vector_reference(self):
        schema = bundled_schema()
        defs = schema["$defs"]
        # The entry check implements exactly these definitions.
        assert defs["complex"] == {
            "type": "array", "prefixItems": [{"type": "number"}] * 2,
            "minItems": 2, "items": False}
        assert defs["vector"] == {"type": "array", "minItems": 1,
                                  "items": {"$ref": "#/$defs/complex"}}
        assert defs["matrix"] == {"type": "array", "minItems": 1, "items": {
            "type": "array", "minItems": 1,
            "items": {"$ref": "#/$defs/complex"}}}
        refs = list(_refs(schema))
        covered = set()
        for kind, sites in cli._ENTRY_SITES.items():
            # A kind's parameters are reached only from its own branch.
            branch = next(i for i, rule in enumerate(schema["allOf"])
                          if rule["if"]["properties"]["kind"] == {"const": kind})
            assert [p for p, ref in refs if ref == f"#/$defs/{kind}Parameters"] \
                == [("allOf", branch, "then", "properties", "parameters")]
            for path, name in sites.items():
                pointer = ("$defs", f"{kind}Parameters")
                for step in path:
                    pointer += ("items",) if step == "*" else ("properties", step)
                covered.add((pointer, f"#/$defs/{name}"))
        found = {(p, ref) for p, ref in refs
                 if ref in ("#/$defs/matrix", "#/$defs/vector")}
        assert found == covered

    def test_valid_document_never_builds_the_full_validator(self, monkeypatch):
        calls = []
        full = cli._validator

        def spy():
            calls.append(1)
            return full()

        monkeypatch.setattr(cli, "_validator", spy)
        doc = retrodict_doc(16, 16)
        assert validate_document(doc).kind == "retrodict"
        assert calls == []
        doc["parameters"]["pom"][3]["element"][5][7] = [0, True]
        with pytest.raises(cli.ValidationError, match=r"pom\[3\]"):
            validate_document(doc)
        assert calls == [1]

    def test_full_schema_decides_what_the_entry_check_declines(self):
        class Row(list):
            pass

        doc = retrodict_doc(2, 2)
        doc["parameters"]["events"][0]["state"][0] = Row([[0.5, 0.0], [0, 0]])
        assert not cli._entries_ok(doc)
        assert validate_document(doc).kind == "retrodict"


class TestExitCodes:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "absent.json")])
        assert code == EXIT_PARSE
        report = json.loads(capsys.readouterr().err)
        assert report["error"]["category"] == "parse"
        assert report["error"]["exit_code"] == EXIT_PARSE

    def test_unparsable_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["run", str(path)]) == EXIT_PARSE
        assert json.loads(capsys.readouterr().err)["error"]["category"] == "parse"

    def test_schema_violation_exits_3(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"kind": "bayes"})
        assert main(["run", str(path)]) == EXIT_VALIDATION
        report = json.loads(capsys.readouterr().err)
        assert report["error"]["category"] == "validation"

    def test_malformed_probability_row_exits_3_and_names_the_row(
            self, tmp_path, capsys):
        doc = bus_train_doc()
        doc["parameters"]["conditional"] = [[0.3, 0.6], [0.1, 0.9]]
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path)]) == EXIT_VALIDATION
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert "bus" in message

    def test_zero_probability_outcome_exits_4(self, tmp_path, capsys):
        doc = bus_train_doc()
        doc["parameters"]["conditional"] = [[1.0, 0.0], [1.0, 0.0]]
        doc["parameters"]["observed"] = "on_time"
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path)]) == EXIT_COMPUTATION
        report = json.loads(capsys.readouterr().err)
        assert report["error"]["category"] == "computation"

    def test_out_of_memory_exits_4(self, tmp_path, capsys, monkeypatch):
        def exhaust_memory(params, result):
            raise MemoryError("Unable to allocate 149. GiB for an array")

        monkeypatch.setitem(cli._RUNNERS, "bayes", exhaust_memory)
        path = write_scenario(tmp_path, bus_train_doc())
        assert main(["run", path]) == EXIT_COMPUTATION
        captured = capsys.readouterr()
        assert captured.out == ""
        report = json.loads(captured.err)
        assert report["error"]["category"] == "computation"
        assert report["error"]["exit_code"] == EXIT_COMPUTATION

    def test_ragged_bayes_conditional_exits_3(self, tmp_path, capsys):
        doc = bus_train_doc()
        doc["parameters"]["conditional"] = [[0.5, 0.5], [1.0]]
        path = write_scenario(tmp_path, doc)
        assert main(["run", path]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["category"] == "validation"
        assert "conditional" in error["message"]

    def test_negative_bb84_seed_exits_3(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"kind": "bb84",
                                         "parameters": {"slots": 10, "seed": -5}})
        assert main(["run", path]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed" in json.loads(captured.err)["error"]["message"]

    @pytest.mark.parametrize("kind, params", [
        ("detector", {"counts": 1, "efficiency": 0.5}),
        ("synthesis", {"reference": [[1.0, 0.0]], "counts_b": 0, "counts_c": 0,
                       "theta": 0.5}),
        ("scissors", {"reference": [[1.0, 0.0]], "theta": 0.5}),
    ])
    def test_oversized_truncation_exits_3_before_allocating(
            self, tmp_path, capsys, kind, params):
        path = write_scenario(tmp_path, {
            "kind": kind, "parameters": dict(params, truncation=100000)})
        tracemalloc.start()
        try:
            code = main(["run", path])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "truncation" in json.loads(captured.err)["error"]["message"]
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("params", [
        {"slots": 10 ** 8},
        {"slots": 2 * 10 ** 6, "include_records": True},
    ])
    def test_oversized_bb84_slots_exit_3_before_allocating(
            self, tmp_path, capsys, params):
        path = write_scenario(tmp_path, {"kind": "bb84", "parameters": params})
        tracemalloc.start()
        try:
            code = main(["run", path])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "slots" in json.loads(captured.err)["error"]["message"]
        assert peak < 4 * 2 ** 20

    def test_largest_bb84_slot_counts_pass_the_schema(self):
        validate_document({"kind": "bb84", "parameters": {"slots": 10 ** 7}})
        validate_document({"kind": "bb84", "parameters": {
            "slots": 10 ** 6, "include_records": True}})
        validate_document({"kind": "bb84", "parameters": {
            "slots": 10 ** 7, "include_records": False}})

    @pytest.mark.parametrize("kind, params", [
        ("retrodict", {"events": [{"label": "a", "prior": 1.0,
                                   "state": [[[HUGE, 0]]]}],
                       "pom": [{"label": "b", "element": [[[1, 0]]]}]}),
        ("retrodict", {"events": [{"label": "a", "prior": HUGE,
                                   "state": [[[1, 0]]]}],
                       "pom": [{"label": "b", "element": [[[1, 0]]]}]}),
        ("bayes", {"events": ["a"], "priors": [HUGE], "outcomes": ["x"],
                   "conditional": [[1.0]]}),
        ("detector", {"counts": 0, "efficiency": HUGE, "truncation": 3}),
        ("scissors", {"reference": [[1, 0]], "theta": -HUGE, "truncation": 3}),
        ("synthesis", {"reference": [[0, HUGE]], "counts_b": 0, "counts_c": 0,
                       "theta": 0.5, "truncation": 3}),
    ], ids=["retrodict-entry", "retrodict-prior", "bayes-priors",
            "detector-efficiency", "scissors-theta", "synthesis-reference"])
    def test_number_beyond_double_range_exits_3(self, tmp_path, capsys,
                                                kind, params):
        path = write_scenario(tmp_path, {"kind": kind, "parameters": params})
        assert main(["run", path]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["category"] == "validation"
        assert "double-precision range" in error["message"]

    def test_csv_without_tables_exits_3(self, capsys):
        info = next(i for i in list_examples() if i.kind == "detector")
        assert main(["run", info.path, "--format", "csv"]) == EXIT_VALIDATION
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert "json" in message


class TestOutputs:
    def test_bayes_posterior_matches_hand_calculation(self, tmp_path):
        path = write_scenario(tmp_path, bus_train_doc())
        document = run_to_document(path)
        posterior = document["outputs"]["tables"]["posterior"]
        assert posterior["rows"] == ["late"]
        assert posterior["cols"] == ["bus", "train"]
        assert posterior["values"][0][0] == pytest.approx(0.75, abs=1e-12)
        marginal = document["outputs"]["tables"]["outcome_marginal"]
        assert marginal["values"][0][0] == pytest.approx(0.15 / 0.75, abs=1e-12)

    def test_bayes_without_observed_emits_all_posterior_rows(self, tmp_path):
        doc = bus_train_doc()
        del doc["parameters"]["observed"]
        path = write_scenario(tmp_path, doc)
        document = run_to_document(path)
        posterior = document["outputs"]["tables"]["posterior"]
        assert posterior["rows"] == ["late", "on_time"]

    def test_bayes_skips_zero_probability_outcomes(self, tmp_path):
        doc = bus_train_doc()
        doc["parameters"]["conditional"] = [[1.0, 0.0], [1.0, 0.0]]
        del doc["parameters"]["observed"]
        path = write_scenario(tmp_path, doc)
        document = run_to_document(path)
        assert document["outputs"]["tables"]["posterior"]["rows"] == ["late"]
        assert document["diagnostics"]["zero_probability_outcomes"] == ["on_time"]

    def test_retrodict_scenario_reports_source_and_tables(self):
        info = next(i for i in list_examples() if i.name == "bb84-retrodict")
        document = run_to_document(info.path)
        assert document["diagnostics"]["source"] == "unbiased"
        predictive = document["outputs"]["tables"]["predictive"]
        row = predictive["values"][predictive["rows"].index("L")]
        assert row == pytest.approx([0.5, 0.0, 0.25, 0.25], abs=1e-12)
        retro = document["outputs"]["tables"]["retrodictive"]
        row = retro["values"][retro["rows"].index("V")]
        assert row == pytest.approx([0.25, 0.25, 0.5, 0.0], abs=1e-12)

    def test_biased_scenario_routes_through_the_biased_pathway(self):
        info = next(i for i in list_examples() if i.name == "biased-qubit")
        document = run_to_document(info.path)
        assert document["diagnostics"]["source"] == "biased"
        assert document["diagnostics"]["mixture_deviation"] > 0.1
        retro = document["outputs"]["tables"]["retrodictive"]
        assert retro["values"][0][0] == pytest.approx(1.0, abs=1e-12)

    def test_detector_scenario_reports_trace_and_weights(self):
        info = next(i for i in list_examples()
                    if i.name == "detector-single-count")
        document = run_to_document(info.path)
        scalars = document["outputs"]["scalars"]
        deficit = document["diagnostics"]["truncation_tail_deficit"]
        assert scalars["trace"] + deficit == pytest.approx(1.0, abs=1e-15)
        weights = document["outputs"]["arrays"]["photon_number_weights"]
        # One registered count with efficiency 1/2: weight of |k> is
        # (1/2)^(k+1) * k, so |1> and |2> tie at 1/4.
        assert weights["values"][0][1] == pytest.approx(0.25, abs=1e-12)
        assert weights["values"][0][2] == pytest.approx(0.25, abs=1e-12)
        operator = document["outputs"]["operators"]["retro_state"]
        assert operator["matrix"][1][1] == pytest.approx([0.25, 0.0], abs=1e-12)

    def test_scissors_scenario_reports_pure_balanced_state(self):
        info = next(i for i in list_examples() if i.name == "scissors-eq41")
        document = run_to_document(info.path)
        scalars = document["outputs"]["scalars"]
        assert scalars["purity"] == pytest.approx(1.0, abs=1e-10)
        assert scalars["vacuum_weight"] == pytest.approx(0.5, abs=1e-12)
        assert scalars["one_photon_weight"] == pytest.approx(0.5, abs=1e-12)

    def test_bb84_simulation_outputs_are_reproducible(self, tmp_path):
        doc = {"kind": "bb84",
               "parameters": {"slots": 300, "seed": 5, "attack": "none",
                              "include_records": True}}
        path = write_scenario(tmp_path, doc)
        document = run_to_document(path)
        records = document["outputs"]["records"]
        assert len(records) == 300
        assert set(records[0]) == {"alice_choice", "bob_basis", "bob_outcome"}
        counts = document["outputs"]["arrays"]["outcome_counts"]["values"]
        assert sum(sum(row) for row in counts) == 300
        assert document["outputs"]["scalars"]["flagged"] == 0

    def test_bb84_without_slots_emits_tables_only(self, tmp_path):
        path = write_scenario(tmp_path, {"kind": "bb84"})
        document = run_to_document(path)
        assert set(document["outputs"]["tables"]) == {"predictive",
                                                      "retrodictive"}
        assert document["outputs"]["arrays"] == {}
        assert "records" not in document["outputs"]

    def test_operator_entries_round_trip_as_real_imag_pairs(self):
        info = next(i for i in list_examples()
                    if i.name == "synthesis-single-photon")
        document = run_to_document(info.path)
        matrix = document["outputs"]["operators"]["retro_state"]["matrix"]
        re, im = matrix[0][1]
        assert complex(re, im) == pytest.approx(-0.5j, abs=1e-10)


class TestRendering:
    def test_json_rendering_is_sorted_and_newline_terminated(self, tmp_path):
        path = write_scenario(tmp_path, bus_train_doc())
        rendered = render_json(execute(load_scenario(path)))
        assert rendered.endswith("\n")
        assert rendered == json.dumps(json.loads(rendered), indent=2,
                                      sort_keys=True) + "\n"

    def test_csv_rendering_has_long_format_rows(self, tmp_path):
        path = write_scenario(tmp_path, bus_train_doc())
        rendered = render_csv(execute(load_scenario(path)))
        lines = rendered.splitlines()
        assert lines[0] == "table,row,col,value"
        cells = [line.split(",") for line in lines[1:]]
        assert ["posterior", "late", "bus", repr(0.15 / 0.2)] in cells
        # every table row is covered: 2 x marginal + 2 x posterior
        assert len(cells) == 4

    def test_csv_values_parse_back_to_the_json_floats(self, tmp_path):
        path = write_scenario(tmp_path, bus_train_doc())
        result = execute(load_scenario(path))
        document = result.to_json_obj()
        for line in render_csv(result).splitlines()[1:]:
            name, row, col, value = line.split(",")
            table = document["outputs"]["tables"][name]
            i = table["rows"].index(row)
            j = table["cols"].index(col)
            assert float(value) == table["values"][i][j]

    def test_out_flag_writes_the_document_to_disk(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, bus_train_doc())
        target = tmp_path / "result.json"
        assert main(["run", scenario, "--out", str(target)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        document = json.loads(target.read_text(encoding="utf-8"))
        assert document["scenario"]["kind"] == "bayes"

    def test_emitted_tables_are_row_stochastic(self):
        for info in list_examples():
            document = run_to_document(info.path)
            for name, table in document["outputs"]["tables"].items():
                for label, row in zip(table["rows"], table["values"]):
                    assert math.fsum(row) == pytest.approx(1.0, abs=1e-9), (
                        f"{info.name}: table {name} row {label}")


def dumps_oracle(value):
    """The renderer ``render_json`` replaces, kept here as its oracle."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def write_result(tmp_path, doc):
    return execute(load_scenario(write_scenario(tmp_path, doc)))


def detector_result(tmp_path, truncation):
    return write_result(tmp_path, {"kind": "detector", "parameters": {
        "truncation": truncation, "counts": 3, "efficiency": 0.8}})


def _pairs(mat):
    return [[[z.real, z.imag] for z in row] for row in mat.tolist()]


class TestFastRendering:
    def test_detector_at_truncation_40_matches_json_dumps(self, tmp_path):
        result = detector_result(tmp_path, 40)
        assert render_json(result) == dumps_oracle(result.to_json_obj())

    def test_retrodict_at_d16_k32_matches_json_dumps(self, tmp_path):
        rng = np.random.default_rng(5)
        ens = random_unbiased_ensemble(rng, 16, 32)
        pom = random_pom(rng, 16, 32)
        result = write_result(tmp_path, {"kind": "retrodict", "parameters": {
            "events": [{"label": label, "prior": prior, "state": _pairs(op.mat)}
                       for label, prior, op in ens.events],
            "pom": [{"label": label, "element": _pairs(op.mat)}
                    for label, op in pom.elements]}})
        assert result.diagnostics["source"] == "unbiased"
        assert render_json(result) == dumps_oracle(result.to_json_obj())

    def test_peak_memory_stays_below_json_dumps(self, tmp_path):
        result = detector_result(tmp_path, 200)

        def peak(render):
            tracemalloc.start()
            try:
                render()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        ours = peak(lambda: render_json(result))
        oracle = peak(lambda: dumps_oracle(result.to_json_obj()))
        assert ours <= oracle


# JSON values for the renderer's oracle test: odd scalars, strings with
# the encoder's separator in them, ragged and mixed lists, and rectangular
# number arrays of depth 1-4 nested at several indent depths.
_plain_number = st.integers(-10 ** 20, 10 ** 20) | st.floats()
_odd_scalar = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.none(),
    st.sampled_from([-0.0, 5e-324, 2.225e-308, math.nan, math.inf, -math.inf,
                     10 ** 300, -(10 ** 40)]))
_odd_text = st.text(max_size=4) | st.sampled_from(
    ["a, b", ", ", "1, 2", "ü, é", "\u2603", "[1, 2]", '"', "%s", "\n"])


@st.composite
def _number_array(draw):
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))

    def fill(dims):
        if not dims:
            return draw(_plain_number)
        return [fill(dims[1:]) for _ in range(dims[0])]

    return fill(shape)


_ragged = st.lists(st.lists(_plain_number, min_size=1, max_size=3),
                   min_size=2, max_size=3)
_mixed = st.lists(_plain_number | st.booleans() | st.none(), min_size=1,
                  max_size=4)
_render_values = st.recursive(
    st.one_of(_odd_scalar, _odd_text, _number_array(), _ragged, _mixed),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_odd_text, inner, max_size=4),
    max_leaves=12)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(value=_render_values)
def test_renderer_matches_json_dumps(value):
    assert cli._dumps(value) == dumps_oracle(value)


@pytest.mark.parametrize("value", [
    ("a", (1, 2.0)), [(1, 2), [3, 4]], ((1, 2), (3, 4)), [[1, 2]] * 3,
], ids=["tuples", "tuple-row", "tuple-array", "shared-rows"])
def test_renderer_matches_json_dumps_beyond_parsed_json(value):
    assert cli._dumps(value) == dumps_oracle(value)


# Small bounded scenario documents for the property test below.  Most are
# consistent in shape, with normalised probabilities and amplitudes, so
# they reach execute; zero weights, out-of-range counts, unknown labels,
# oversized truncations and arbitrary JSON parameters cover the failures.
_reals = st.floats(-1.5, 1.5, allow_nan=False)
_count = st.sampled_from([0, 1, 2, 3, -1])
_truncation = st.sampled_from([1, 2, 3, 4, 5, 6, 0, 100000])
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | _reals | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


def _distribution(size):
    """Probability vectors from small integer weights, zeros included."""
    return st.lists(st.integers(0, 3), min_size=size, max_size=size).filter(
        any).map(lambda w: [x / sum(w) for x in w])


def _diagonal(entries):
    return [[[x, 0.0] if i == j else [0.0, 0.0] for j in range(len(entries))]
            for i, x in enumerate(entries)]


@st.composite
def _reference(draw):
    parts = st.integers(-2, 2)
    amps = draw(st.lists(st.tuples(parts, parts), min_size=1, max_size=4)
                .filter(lambda a: any(re or im for re, im in a)))
    norm = math.sqrt(sum(re * re + im * im for re, im in amps))
    return [[re / norm, im / norm] for re, im in amps]


@st.composite
def _bayes(draw):
    n_events, n_outcomes = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    outcomes = [f"o{j}" for j in range(n_outcomes)]
    params = {"events": [f"e{i}" for i in range(n_events)],
              "priors": draw(_distribution(n_events)),
              "outcomes": outcomes,
              "conditional": [draw(_distribution(n_outcomes))
                              for _ in range(n_events)]}
    if draw(st.booleans()):
        params["observed"] = draw(st.sampled_from(outcomes + ["unknown"]))
    return params


@st.composite
def _retrodict(draw):
    # Diagonal states and a diagonal POM: at each basis index the element
    # weights form a distribution, so the elements sum to the identity.
    d, n_events, n_elements = (draw(st.integers(1, 3)) for _ in range(3))
    priors = draw(_distribution(n_events))
    splits = [draw(_distribution(n_elements)) for _ in range(d)]
    return {
        "events": [{"label": f"e{i}", "prior": priors[i],
                    "state": _diagonal(draw(_distribution(d)))}
                   for i in range(n_events)],
        "pom": [{"label": f"b{j}",
                 "element": _diagonal([row[j] for row in splits])}
                for j in range(n_elements)],
    }


_parameters = {
    "bayes": _bayes(),
    "retrodict": _retrodict(),
    "detector": st.fixed_dictionaries(
        {"counts": _count,
         "efficiency": st.floats(0.0, 1.0, exclude_min=True) | _reals,
         "truncation": _truncation}),
    "synthesis": st.fixed_dictionaries(
        {"reference": _reference(), "counts_b": _count, "counts_c": _count,
         "theta": _reals, "truncation": _truncation}),
    "scissors": st.fixed_dictionaries(
        {"reference": _reference(), "theta": _reals,
         "truncation": _truncation}),
    "bb84": st.fixed_dictionaries(
        {"slots": st.integers(0, 40), "seed": st.integers(-10, 10)},
        optional={"attack": st.sampled_from(["none", "intercept_resend", "x"]),
                  "include_records": st.booleans()}),
}
# Consistent parameters are drawn two times in three, arbitrary JSON once.
_documents = st.sampled_from(sorted(_parameters)).flatmap(
    lambda kind: st.fixed_dictionaries(
        {"kind": st.just(kind),
         "parameters": st.one_of(_parameters[kind], _parameters[kind], _json)}))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=_documents, output_format=st.sampled_from(["json", "csv"]))
def test_fuzzed_documents_map_to_documented_exit_codes(fuzz_dir, doc,
                                                       output_format):
    path = write_scenario(fuzz_dir, doc)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(path, output_format=output_format)
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_COMPUTATION)
    if code != EXIT_OK:
        assert out.getvalue() == ""
        assert json.loads(err.getvalue())["error"]["exit_code"] == code


# Documents for the fast-path property test: a schema-valid retrodict,
# synthesis or scissors document, then variants of it with matrix or
# vector parts, or a neighbouring scalar, replaced by an odd value.
_number = st.one_of(st.integers(-2, 2), st.floats(-2, 2),
                    st.sampled_from([math.nan, math.inf, -math.inf, HUGE, -HUGE]))
_pair = st.lists(_number, min_size=2, max_size=2)
_odd = st.one_of(
    st.sampled_from([True, False, None, "1", [], [1], [0, 0, 0], [[0, 0]],
                     [True, 0], [0, None], {}]),
    _number,
    st.lists(st.one_of(_number, st.booleans(), st.none(), st.text(max_size=1),
                       _pair, st.just([])), max_size=3))


def _paths_below(node, path, depth=0):
    """(depth, path) of ``node`` and of everything nested in it."""
    yield depth, path
    if isinstance(node, list):
        for i, item in enumerate(node):
            yield from _paths_below(item, path + (i,), depth + 1)


def _replaced(doc, replacements):
    doc = copy.deepcopy(doc)
    # Deepest first, so no replacement removes the place of a later one.
    for path, value in sorted(replacements, key=lambda r: len(r[0]), reverse=True):
        node = doc["parameters"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return doc


@st.composite
def _entry_documents(draw):
    kind = draw(st.sampled_from(["retrodict", "synthesis", "scissors"]))
    d = draw(st.integers(1, 3))
    if kind == "retrodict":
        def matrix():
            return draw(st.lists(st.lists(_pair, min_size=d, max_size=d),
                                 min_size=d, max_size=d))

        params = {"events": [{"label": f"a{i}", "prior": draw(_number),
                              "state": matrix()} for i in range(2)],
                  "pom": [{"label": "b", "element": matrix()}]}
        sites = [("events", i, "state") for i in range(2)] + [("pom", 0, "element")]
        scalars = [("events", 0, "prior"), ("pom", 0, "label")]
    else:
        params = {"reference": draw(st.lists(_pair, min_size=d, max_size=d)),
                  "theta": draw(_number), "truncation": 3}
        if kind == "synthesis":
            params.update(counts_b=0, counts_c=1)
        sites, scalars = [("reference",)], [("theta",), ("truncation",)]
    doc = {"kind": kind, "parameters": params}
    # Places grouped by nesting depth below a site: the whole matrix, a
    # row, an entry, a component.
    groups = {"scalar": scalars}
    for site in sites:
        node = params
        for key in site:
            node = node[key]
        for depth, path in _paths_below(node, site):
            groups.setdefault(depth, []).append(path)
    places = [path for group in groups.values() for path in group]
    # One replacement at each depth on its own, so that a fast-path slip
    # is not hidden behind another error, then a few at once.
    variants = [_replaced(doc, [(draw(st.sampled_from(group)), draw(_odd))])
                for group in groups.values()]
    variants.append(_replaced(doc, [(draw(st.sampled_from(places)), draw(_odd))
                                    for _ in range(draw(st.integers(2, 3)))]))
    return [doc] + variants


@functools.cache
def _reference_validator():
    return jsonschema.Draft202012Validator(bundled_schema())


def _schema_message(doc):
    """What ``jsonschema.validate`` reports, without its meta-schema check.

    That check costs tens of milliseconds a call; the schema's validity is
    tested once by ``test_bundled_schema_is_a_valid_draft_2020_12_schema``.
    """
    error = jsonschema.exceptions.best_match(_reference_validator().iter_errors(doc))
    if error is None:
        return None
    return (f"scenario does not match the schema at {error.json_path}: "
            f"{error.message}")


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(docs=_entry_documents())
def test_fast_validation_agrees_with_jsonschema(docs):
    for doc in docs:
        try:
            validate_document(doc)
            got = None
        except cli.ValidationError as error:
            got = str(error)
        assert got == _schema_message(doc)
