"""Tests for the scenario-driven command line front end."""

import ast
import contextlib
import copy
import functools
import hashlib
import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
import threading
import timeit
import tracemalloc
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qretrodict import cli, optics
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
from qretrodict.hilbert import Operator
from support import dense_purity, random_pom, random_unbiased_ensemble, to_json_obj


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


def _diagonal(entries):
    return [[[x, 0.0] if i == j else [0.0, 0.0] for j in range(len(entries))]
            for i, x in enumerate(entries)]


#: A double whose sum with itself overflows.
_BIG = 1.7e308


def _near_max_source(state_a=_diagonal([1.0, 0.0]), element_x=_diagonal([1.0, 0.0])):
    return {"kind": "retrodict", "parameters": {
        "events": [{"label": "a", "prior": 0.5, "state": state_a},
                   {"label": "b", "prior": 0.5, "state": _diagonal([0.0, 1.0])}],
        "pom": [{"label": "x", "element": element_x},
                {"label": "y", "element": _diagonal([0.0, 1.0])}]}}


#: Documents whose numbers overflow while they are checked or run: an
#: asymmetric state, a state of infinite trace, a POM element of infinite
#: eigenvalues, priors of infinite sum, and a coupling angle whose phases
#: leave the double range from the 2-photon block on.
_NEAR_MAX = {
    "asymmetric-state": _near_max_source(
        state_a=[[[_BIG, 0], [_BIG, 0]], [[-_BIG, 0], [0, 0]]]),
    "state-trace": _near_max_source(state_a=_diagonal([_BIG, _BIG])),
    "element": _near_max_source(
        element_x=[[[_BIG, 0], [_BIG, _BIG]], [[_BIG, -_BIG], [-_BIG, 0]]]),
    "priors": {"kind": "bayes", "parameters": {
        "events": ["a", "b"], "priors": [_BIG, _BIG], "outcomes": ["o"],
        "conditional": [[1], [1]]}},
    "theta": {"kind": "synthesis", "parameters": {
        "reference": [[0.6, 0], [0.8, 0]], "counts_b": 2, "counts_c": 1, "theta": _BIG,
        "truncation": 4}},
}


def run_to_document(path):
    return to_json_obj(execute(load_scenario(path)))


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

    @pytest.mark.parametrize("doc", [bus_train_doc(), bus_train_doc(schema_version=2, surprise=1)],
                             ids=["valid", "rejected"])
    def test_one_walk_decides_and_words_the_verdict(self, monkeypatch, doc):
        walk, roots = cli._errors, []

        def counting_walk(value, schema, *args):
            if schema is cli._schema():
                roots.append(value)
            return walk(value, schema, *args)

        monkeypatch.setattr(cli, "_errors", counting_walk)
        with contextlib.suppress(cli.ValidationError):
            validate_document(doc)
        assert roots == [doc]


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
        # Two errors at the root: ``best_match`` prefers the one from the
        # ``then`` branch, which has no ``type``, over the earlier one
        # from the root, whose ``type`` the document matches.
        {"kind": "bayes", "surprise": 1},
    ]


def _scenario_bytes():
    """Byte-level intake documents, by name."""
    text = json.dumps(bus_train_doc(), indent=2).encode()
    lines = text.split(b"\n")
    mixed = b"".join(line + (b"\r\n", b"\r", b"\n")[i % 3]
                     for i, line in enumerate(lines[:-1])) + lines[-1]
    return {
        "crlf": text.replace(b"\n", b"\r\n"),
        "lone-cr": text.replace(b"\n", b"\r"),
        "mixed": mixed,
        "cr-then-crlf": text.replace(b"\n", b"\r\r\n"),
        "cr-at-end": text + b"\r",
        "bom": b"\xef\xbb\xbf" + text,
        "invalid-utf8-past-8k": text[:-1] + b" " * 9000 + b', "x": "\xff"}',
        "truncated-multibyte": text + b"\xe2\x82",
        "parse-error-after-crlf": b'{\r\n  "kind": "bayes",\r\n\r\n  "parameters": ,\r\n}',
        "parse-error-after-cr": b'{\r  "kind": "bayes",\r\r  "parameters": ,\r}',
        "cr-in-string": b'{"kind": "bayes",\r\n "parameters": {"events": ["a\rb"]}}',
        "schema-error-after-cr": text.replace(b"\n", b"\r").replace(b'"late"', b'"early"'),
    }


def _outcome(load):
    try:
        return "document", load().document
    except Exception as error:  # any fault: its type and text are compared
        return type(error), str(error)


class TestScenarioBytes:
    @pytest.mark.parametrize("name", sorted(_scenario_bytes()))
    def test_load_reads_the_file_as_read_text_does(self, tmp_path, name):
        path = tmp_path / "scenario.json"
        path.write_bytes(_scenario_bytes()[name])
        got = _outcome(lambda: load_scenario(path))
        want = _outcome(lambda: validate_document(json.loads(
            Path(path).read_text(encoding="utf-8"))))
        assert got == want

    def test_the_empty_path_fails_as_read_text_does(self):
        got = _outcome(lambda: load_scenario(""))
        want = _outcome(lambda: Path("").read_text(encoding="utf-8"))
        assert got == want == (IsADirectoryError, "[Errno 21] Is a directory: '.'")


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

    @pytest.mark.parametrize("doc, quoted", [
        ({"kind": "x" * 5000}, repr("x" * 5000)),
        ([{}] * 2000, repr([{}] * 2000)),
        (bus_train_doc(**{f"extra{i:03}": 0 for i in range(500)}),
         ", ".join(repr(f"extra{i:03}") for i in range(500))),
        ({"kind": "detector", "parameters": {"counts": -10 ** 4200, "efficiency": 0.5,
                                             "truncation": 4}}, repr(-10 ** 4200)),
        ({"kind": "detector", "parameters": {"counts": 0, "efficiency": 0.5,
                                             "truncation": 10 ** 4200}}, repr(10 ** 4200)),
        ({"kind": "retrodict", "parameters": {
            "events": [{"label": "a", "prior": 1, "state": [[[1, 0, *[0] * 3000]]]}],
            "pom": [{"label": "b", "element": [[[1, 0]]]}]}}, repr([0] * 3000)),
    ], ids=["enum", "type", "additional-properties", "minimum", "maximum", "items-false"])
    def test_quotes_at_most_the_cap_of_each_long_value(self, doc, quoted):
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(doc, bundled_schema())
        with pytest.raises(cli.ValidationError) as got:
            validate_document(doc)
        cap = cli.SCHEMA_QUOTE_CAP
        assert len(quoted) > cap and quoted in expected.value.message
        cut = f"{quoted[:cap]}... ({len(quoted) - cap} more characters)"
        assert str(got.value) == (
            f"scenario does not match the schema at "
            f"{expected.value.json_path}: {expected.value.message.replace(quoted, cut)}")

    def test_importing_the_cli_does_not_load_scipy(self):
        probe = ("import sys, qretrodict.cli; "
                 "print(sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.')))")
        assert run_python(["-c", probe]).stdout.strip() == "[]"

    def test_importing_the_cli_loads_every_traced_module(self):
        # The benchmark's tracer looks each of these up in sys.modules
        # right after importing the CLI, so none may load lazily.
        tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        traced = runpy.run_path(str(tracing))["TRACED_MODULES"]
        probe = "import sys, qretrodict.cli; print(*sorted(sys.modules))"
        loaded = set(run_python(["-c", probe]).stdout.split())
        assert len(traced) == 6
        assert {f"qretrodict.{name}" for name in traced} <= loaded


def run_into_pipe(args, read, unbuffered, fd=1):
    """Exit code and the other stream's text of ``qretrodict`` ``args`` whose
    standard output (``fd`` 1) or standard error (``fd`` 2) is a pipe that
    its reader closes after ``read`` bytes, or before the child starts if
    ``read`` is 0, or is closed at start if ``read`` is None, as ``>&-``
    closes it; ``unbuffered`` is PYTHONUNBUFFERED's value, None to unset it."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    reader, writer = os.pipe()
    if not read:
        os.close(reader)
    streams = {fd: writer, 3 - fd: subprocess.PIPE}
    close = None if read is not None else functools.partial(os.close, fd)
    with subprocess.Popen([sys.executable, "-m", "qretrodict.cli", *args],
                          stdout=streams[1], stderr=streams[2], env=env,
                          preexec_fn=close) as proc:
        os.close(writer)
        if read:
            assert os.read(reader, read) == b'{\n  "diagn'
            os.close(reader)
        other = (proc.stderr or proc.stdout).read().decode()
    return proc.returncode, other


def run_python(args, check=True):
    """Run a fresh interpreter on ``args`` with this package on its path."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], check=check, env=env,
                          capture_output=True, text=True)


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


#: The keywords ``cli._errors`` walks, and those it may ignore.
WALKED_KEYWORDS = {"type", "properties", "required", "additionalProperties",
                   "$ref", "items", "prefixItems", "minItems", "const", "enum",
                   "minimum", "maximum", "allOf", "if", "then"}
ANNOTATIONS = {"$schema", "$id", "title", "$defs"}


def _subschemas(schema):
    """``schema`` and every schema nested in it, found by keyword."""
    yield schema
    if isinstance(schema, bool):
        return
    for key, value in schema.items():
        if key in ("properties", "$defs"):
            subs = value.values()
        elif key in ("allOf", "prefixItems"):
            subs = value
        elif key in ("items", "additionalProperties", "if", "then"):
            subs = [value]
        else:
            subs = []
        for sub in subs:
            yield from _subschemas(sub)


def _cases(schema, *values):
    return [(schema, value) for value in values]


#: One keyword at a time, at the edges where JSON Schema differs from
#: plain Python: bools are no numbers, 1.0 is an integer, a keyword
#: ignores values of other types.
WALK_CASES = [
    *_cases({"type": "integer"}, 1, 1.0, -0.0, 1.5, True, False, HUGE,
            math.nan, math.inf, "1"),
    *_cases({"type": "number"}, 1, 0.5, True, math.nan, -math.inf, HUGE, None),
    *_cases({"type": "boolean"}, True, 0, None),
    *_cases({"type": "string"}, "", 1, ["a"]),
    *_cases({"type": "array"}, [], (), {}),
    *_cases({"type": "object"}, {}, [], "{}"),
    *_cases({"const": 1}, 1, 1.0, True, "1", [1], math.nan),
    *_cases({"const": True}, True, 1, 1.0, "true"),
    *_cases({"enum": ["a", "b"]}, "a", "c", ["a"], None),
    *_cases({"minimum": 1}, 1, 0.5, False, math.nan, -math.inf, -HUGE, "0"),
    *_cases({"maximum": 0}, 0, 1e-300, True, math.nan, math.inf, HUGE, [1]),
    *_cases({"minItems": 2}, [1], [1, 2], "a", {"a": 1}),
    *_cases({"prefixItems": [{"type": "number"}], "items": False},
            [], [1], [True], [1, 2], "ab"),
    *_cases({"prefixItems": [{"minimum": 0}], "items": {"type": "string"}},
            [1], [-1, "a"], [1, 2], ["a", "b"]),
    *_cases({"required": ["a"]}, {}, {"a": None}, ["a"], "a"),
    *_cases({"properties": {"a": {"type": "string"}},
             "additionalProperties": False},
            {}, {"a": "x"}, {"a": 1}, {"b": "x"}, [1]),
    *_cases({"if": {"required": ["a"]}, "then": {"required": ["b"]}},
            {}, {"a": 1}, {"a": 1, "b": 2}, {"b": 2}),
    *_cases({"allOf": [{"minimum": 0}, {"maximum": 1}]}, 0.5, 2, -1, "x"),
    *_cases({"$ref": "#/$defs/complex"}, [0, 1], [0, True], [0], [0, 1, 2]),
    *_cases({"$ref": "#/$defs/matrix"}, [[[1, 0]]], [], [[]], [["x"]]),
]


@pytest.mark.parametrize("schema, value", WALK_CASES,
                         ids=lambda v: repr(v)[:32])
def test_schema_walk_keyword_by_keyword(schema, value):
    # ``$ref`` resolves into the shipped schema's definitions.
    defs = {"$defs": bundled_schema()["$defs"]}
    reference = jsonschema.Draft202012Validator(
        dict(schema, **defs) if isinstance(schema, dict) else schema)
    assert _walked_errors(value, schema) == _reference_errors(reference, value)


def _schema_depth(node):
    """Schema nodes on the longest chain of nested subschemas, ``$ref`` followed."""
    if isinstance(node, bool):
        return 1
    defs = bundled_schema()["$defs"]
    children = [sub for key, sub in node.items()
                if key in ("items", "additionalProperties", "if", "then")]
    children += [sub for key in ("allOf", "prefixItems") for sub in node.get(key, ())]
    children += list(node.get("properties", {}).values())
    if "$ref" in node:
        children.append(defs[node["$ref"].removeprefix("#/$defs/")])
    return 1 + max(map(_schema_depth, children), default=0)


def test_schema_walk_depth_is_bounded_by_the_schema(monkeypatch):
    # The walker recurses along the schema, never along the value, so a
    # value nested far deeper than the schema describes costs no deeper
    # recursion than a valid document.
    walk, live, deepest = cli._errors, [0], [0]

    def counted(*args):
        live[0] += 1
        deepest[0] = max(deepest[0], live[0])
        try:
            yield from walk(*args)
        finally:
            live[0] -= 1

    monkeypatch.setattr(cli, "_errors", counted)
    nested = []
    for _ in range(500):
        nested = [nested, 1.5]
    deep_entry = retrodict_doc(2, 2)
    deep_entry["parameters"]["pom"][1]["element"][0][1] = nested
    deep_parameters = {"kind": "bayes", "parameters": {"events": [nested]}}
    bound = _schema_depth(bundled_schema())
    for doc, valid in ((retrodict_doc(2, 2), True),
                       ({"kind": "bb84", "description": nested}, False),
                       (deep_entry, False), (deep_parameters, False), (nested, False)):
        errors = list(cli._errors(doc, bundled_schema()))
        assert (errors == []) is valid
        assert live[0] == 0
    assert 3 < deepest[0] <= bound < 20


class TestFastValidation:
    def test_entry_check_covers_every_matrix_and_vector_reference(self):
        schema = bundled_schema()
        defs = schema["$defs"]
        # The fast loops implement exactly these definitions.
        assert defs["complex"] == {
            "type": "array", "prefixItems": [{"type": "number"}] * 2,
            "minItems": 2, "items": False}
        assert defs["vector"] == {"type": "array", "minItems": 1,
                                  "items": {"$ref": "#/$defs/complex"}}
        assert defs["matrix"] == {"type": "array", "minItems": 1, "items": {
            "type": "array", "minItems": 1,
            "items": {"$ref": "#/$defs/complex"}}}
        # They sit at the reference itself, so every place the schema puts
        # a matrix or a vector takes them; ``complex`` is reached only
        # through those two.
        assert set(cli._FAST_REFS) == {"#/$defs/matrix", "#/$defs/vector"}
        assert [p for p, ref in _refs(schema) if ref == "#/$defs/complex"] == [
            ("$defs", "vector", "items"), ("$defs", "matrix", "items", "items")]

    def test_schema_walk_knows_every_keyword_of_the_shipped_schema(self):
        for node in _subschemas(bundled_schema()):
            if isinstance(node, bool):
                continue
            assert set(node) <= WALKED_KEYWORDS | ANNOTATIONS, node
            assert node.get("type", "object") in cli._TYPES
            # cli._equal compares scalars only.
            for value in node.get("enum", []) + [node.get("const", 0)]:
                assert isinstance(value, (str, int, float, bool))
            assert re.fullmatch(r"#/\$defs/\w+", node.get("$ref", "#/$defs/x"))
            # Paths hold only the names of declared properties, which
            # cli._json_path writes unquoted, as jsonschema does.
            assert node.get("additionalProperties", False) is False
            for name in node.get("properties", {}):
                assert re.fullmatch("[a-zA-Z][a-zA-Z0-9_]*", name)

    def test_schema_uses_only_the_forms_the_walker_reads(self):
        # cli._errors reads a boolean schema only where it is
        # ``additionalProperties`` or ``items`` false, and takes every
        # ``if``'s ``then`` without a default.
        booleans, ifs = set(), []

        def visit(node, key=None):
            if isinstance(node, bool):
                booleans.add((key, node))
            elif isinstance(node, dict):
                if "if" in node:
                    ifs.append(node)
                for child_key, child in node.items():
                    visit(child, child_key)
            elif isinstance(node, list):
                for child in node:
                    visit(child, key)

        visit(bundled_schema())
        # A ``const`` of true is a value to compare with, not a schema.
        assert booleans == {("additionalProperties", False), ("items", False),
                            ("const", True)}
        assert ifs and all("then" in node for node in ifs)

    def test_no_run_imports_jsonschema(self, tmp_path):
        def imported(args):
            run = run_python(["-X", "importtime", "-m", "qretrodict.cli",
                              "run", *args], check=False)
            modules = {line.rsplit("|", 1)[1].strip().split(".")[0]
                       for line in run.stderr.splitlines()
                       if line.startswith("import time:")}
            return run.returncode, "jsonschema" in modules

        paths = {info.name: info.path for info in list_examples()}
        for name in ("bus-train", "biased-qubit", "synthesis-single-photon",
                     "bb84-monte-carlo"):
            assert imported([paths[name], "--out", str(tmp_path / "out.json")]) \
                == (EXIT_OK, False)
        bad_entry = retrodict_doc(2, 2)
        bad_entry["parameters"]["pom"][1]["element"][1][1] = [0, True]
        for doc in (bus_train_doc(surprise=1), bad_entry):
            assert imported([write_scenario(tmp_path, doc)]) \
                == (EXIT_VALIDATION, False)

    def test_runs_without_jsonschema_installed(self, tmp_path):
        rejected = retrodict_doc(4, 4)
        rejected["parameters"]["pom"][3]["element"][2][1] = [0, True]
        paths = [write_scenario(tmp_path, bus_train_doc(), "valid.json"),
                 write_scenario(tmp_path, rejected, "rejected.json")]
        probe = ("import sys; sys.modules['jsonschema'] = None; "
                 "from qretrodict import cli; "
                 "sys.exit(cli.main(['run', sys.argv[1]]))")
        valid = run_python(["-c", probe, paths[0]], check=False)
        assert valid.returncode == EXIT_OK
        assert valid.stdout == render_json(execute(load_scenario(paths[0])))
        run = run_python(["-c", probe, paths[1]], check=False)
        assert run.returncode == EXIT_VALIDATION
        assert json.loads(run.stderr)["error"]["message"] == _schema_message(rejected)

    def test_full_schema_decides_what_the_entry_check_declines(self):
        class Row(list):
            pass

        doc = retrodict_doc(2, 2)
        doc["parameters"]["events"][0]["state"][0] = Row([[0.5, 0.0], [0, 0]])
        assert cli._number_array(doc["parameters"]["events"][0]["state"]) is None
        assert validate_document(doc).kind == "retrodict"

    def test_values_only_the_entry_walk_accepts_run_like_their_plain_twins(self):
        # Validation parses them too, so execute never meets an unparsed matrix.
        class Row(list):
            pass

        with_ints, floats_only = retrodict_doc(2, 2), retrodict_doc(2, 2)
        for event in floats_only["parameters"]["events"]:
            event["state"] = [[[float(x) for x in pair] for pair in row]
                              for row in event["state"]]
        for doc in (with_ints, floats_only):
            doc["parameters"]["events"][1]["state"][0] = Row(
                doc["parameters"]["events"][1]["state"][0])
        synthesis = {"kind": "synthesis", "parameters": {
            "reference": [[np.float64(0.6), 0.0], [0.0, -0.8]],
            "counts_b": 1, "counts_c": 0, "theta": 0.6, "truncation": 8}}
        assert cli._number_array([synthesis["parameters"]["reference"]]) is None
        for doc in (with_ints, floats_only, synthesis):
            twin = json.loads(json.dumps(doc))
            assert render_json(execute(validate_document(doc))) \
                == render_json(execute(validate_document(twin)))


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

    def test_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"kind": "bayes", "description": "\xff"}')
        assert main(["run", str(path)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert (error["category"], error["exit_code"]) == ("parse", EXIT_PARSE)
        assert "utf-8" in error["message"]

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

    @pytest.mark.parametrize("field, value, message", [
        ("priors", [math.nan, 0.5], "priors must be finite"),
        ("conditional", [[math.nan, 0.7], [0.1, 0.9]],
         "conditional probabilities must be finite"),
    ])
    def test_nan_bayes_input_exits_3_and_names_the_field(
            self, tmp_path, capsys, field, value, message):
        # ``NaN`` is no JSON literal, but Python's parser accepts it, and it
        # passes every comparison-based check.
        doc = bus_train_doc()
        doc["parameters"][field] = value
        assert main(["run", write_scenario(tmp_path, doc)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in json.loads(captured.err)["error"]["message"]

    @pytest.mark.parametrize("kind", ["retrodict", "scissors"])
    def test_nan_prior_or_amplitude_exits_3_and_names_the_field(
            self, tmp_path, capsys, kind):
        if kind == "retrodict":
            doc = retrodict_doc(2, 2)
            doc["parameters"]["events"][1]["prior"] = math.nan
            message = "prior of event 'a1' is not finite"
        else:
            doc = {"kind": "scissors", "parameters": {
                "reference": [[math.nan, 0.0]], "theta": 0.5, "truncation": 2}}
            message = "reference amplitudes must be finite"
        assert main(["run", write_scenario(tmp_path, doc)]) == EXIT_VALIDATION
        assert message in json.loads(capsys.readouterr().err)["error"]["message"]

    def test_unwritable_output_path_exits_1(self, tmp_path, capsys):
        out = tmp_path / "absent-dir" / "x.json"
        path = write_scenario(tmp_path, bus_train_doc())
        assert main(["run", path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert (error["category"], error["exit_code"]) == ("io", 1)
        assert str(out) in error["message"]
        assert not out.exists() and not out.parent.exists()

    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("doc, read", [
        ({"kind": "detector", "parameters": {
            "counts": 3, "efficiency": 0.8, "truncation": 600}}, 10),
        (bus_train_doc(), 0),
        (None, 0),
    ], ids=["reader-gone-after-10-bytes", "reader-gone-before-the-start",
            "examples-reader-gone-before-the-start"])
    def test_closed_standard_output_exits_1_without_a_traceback(self, tmp_path, doc, read,
                                                                unbuffered):
        # The 23.9 MB detector document fails in its write, the small one
        # and the ``examples`` list in their flush, with their text still
        # buffered (or in their first write, unbuffered).
        args = ["examples"] if doc is None else ["run", write_scenario(tmp_path, doc)]
        code, err = run_into_pipe(args, read, unbuffered)
        assert code == 1
        assert "Traceback" not in err
        error = json.loads(err)["error"]
        assert (error["category"], error["exit_code"]) == ("io", 1)
        assert error["message"] == "cannot write to standard output: [Errno 32] Broken pipe"

    @pytest.mark.parametrize("command", ["run", "examples"])
    def test_standard_output_closed_at_start_exits_1_without_a_traceback(self, command):
        bus_train = next(info.path for info in list_examples() if info.name == "bus-train")
        args = ["run", bus_train] if command == "run" else ["examples"]
        code, err = run_into_pipe(args, None, None)
        assert code == 1
        assert "Traceback" not in err
        error = json.loads(err)["error"]
        assert (error["category"], error["exit_code"]) == ("io", 1)
        assert error["message"] == "cannot write to standard output: [Errno 9] Bad file descriptor"

    @pytest.mark.parametrize("read", [0, None], ids=["reader-gone-before-the-start",
                                                     "closed-at-start"])
    @pytest.mark.parametrize("text, code", [
        ("{not json", EXIT_PARSE),
        (json.dumps({"kind": "bayes"}), EXIT_VALIDATION),
        (json.dumps(bus_train_doc(parameters=dict(
            bus_train_doc()["parameters"], conditional=[[1.0, 0.0], [1.0, 0.0]],
            observed="on_time"))), EXIT_COMPUTATION),
    ], ids=["unparsable", "schema-invalid", "zero-probability"])
    def test_unwritable_standard_error_keeps_the_exit_code(self, tmp_path, text, code, read):
        path = tmp_path / "scenario.json"
        path.write_text(text, encoding="utf-8")
        assert run_into_pipe(["run", str(path)], read, None, fd=2) == (code, "")

    def test_standard_output_is_utf8_whatever_its_text_encoding(self, tmp_path):
        doc = bus_train_doc()
        doc["parameters"]["events"] = ["café", "train"]
        path, out = write_scenario(tmp_path, doc), tmp_path / "out.csv"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
                   PYTHONIOENCODING="ascii")
        args = [sys.executable, "-m", "qretrodict.cli", "run", path, "--format", "csv"]
        printed = subprocess.run(args, env=env, capture_output=True)
        assert (printed.returncode, printed.stderr) == (EXIT_OK, b"")
        assert subprocess.run([*args, "--out", str(out)], env=env).returncode == EXIT_OK
        assert printed.stdout == out.read_bytes()

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_csv_label_without_utf8_text_exits_3_before_writing(self, tmp_path, capsys,
                                                               to_file):
        # A lone surrogate is valid JSON; the JSON output escapes it, and
        # the CSV text holds it as it stands.
        doc = bus_train_doc()
        doc["parameters"]["events"] = ["\ud800", "train"]
        path, out = write_scenario(tmp_path, doc), tmp_path / "out.csv"
        assert main(["run", path]) == EXIT_OK
        capsys.readouterr()
        args = ["run", path, "--format", "csv"] + (["--out", str(out)] if to_file else [])
        assert main(args) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert (error["category"], error["exit_code"]) == ("validation", EXIT_VALIDATION)
        assert "surrogates not allowed" in error["message"]
        assert not out.exists()

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
        assert report["error"]["message"] == ("not enough memory for this scenario: "
                                              "Unable to allocate 149. GiB for an array")

    def test_out_of_memory_while_loading_exits_4(self, capsys, monkeypatch):
        # list_examples parses JSON too, so the path is taken first.
        path = next(info.path for info in list_examples() if info.name == "bus-train")

        def exhaust_memory(*args, **kwargs):
            raise MemoryError

        with monkeypatch.context() as patch:
            patch.setattr(json, "loads", exhaust_memory)
            code = main(["run", path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_COMPUTATION, "")
        error = json.loads(captured.err)["error"]
        assert (error["category"], error["exit_code"]) == ("computation", EXIT_COMPUTATION)
        # An allocation's MemoryError carries no text, and no colon is left
        # dangling for it.
        assert error["message"] == "not enough memory for this scenario"

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

    @pytest.mark.parametrize("kind, params, where", [
        ("retrodict", {"events": [{"label": "a", "prior": 1.0,
                                   "state": [[[HUGE, 0]]]}],
                       "pom": [{"label": "b", "element": [[[1, 0]]]}]},
         "state of event 'a'"),
        ("retrodict", {"events": [{"label": "a", "prior": HUGE,
                                   "state": [[[1, 0]]]}],
                       "pom": [{"label": "b", "element": [[[1, 0]]]}]},
         "prior of event 'a'"),
        # Reported before the ragged row of the same matrix.
        ("retrodict", {"events": [{"label": "a", "prior": 1.0,
                                   "state": [[[1, 0], [0, 0]], [[HUGE, 0]]]}],
                       "pom": [{"label": "b", "element": [[[1, 0]]]}]},
         "state of event 'a'"),
        ("retrodict", {"events": [{"label": "a", "prior": 1.0,
                                   "state": [[[1, 0]]]}],
                       "pom": [{"label": "b", "element": [[[0, -HUGE]]]}]},
         "POM element 'b'"),
        ("bayes", {"events": ["a"], "priors": [HUGE], "outcomes": ["x"],
                   "conditional": [[1.0]]}, "priors"),
        ("detector", {"counts": 0, "efficiency": HUGE, "truncation": 3}, "efficiency"),
        ("scissors", {"reference": [[1, 0]], "theta": -HUGE, "truncation": 3}, "theta"),
        ("synthesis", {"reference": [[0, HUGE]], "counts_b": 0, "counts_c": 0,
                       "theta": 0.5, "truncation": 3}, "reference"),
        # The reference is read before theta.
        ("synthesis", {"reference": [[HUGE, 0]], "counts_b": 0, "counts_c": 0,
                       "theta": HUGE, "truncation": 3}, "reference"),
    ], ids=["retrodict-entry", "retrodict-prior", "retrodict-entry-ragged",
            "retrodict-element", "bayes-priors", "detector-efficiency",
            "scissors-theta", "synthesis-reference", "synthesis-reference-then-theta"])
    def test_number_beyond_double_range_exits_3(self, tmp_path, capsys,
                                                kind, params, where):
        path = write_scenario(tmp_path, {"kind": kind, "parameters": params})
        assert main(["run", path]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["category"] == "validation"
        assert error["message"] == f"{where} holds a number outside the double-precision range"

    @pytest.mark.parametrize("counts, truncation", [(171, 171), (170, 600),
                                                   (400, 450)])
    def test_large_detector_counts_exit_0_with_finite_weights(
            self, tmp_path, capsys, counts, truncation):
        # n! or b^n is beyond the double range at these counts; the weights
        # eta^(n+1) C(k, n) (1-eta)^(k-n) are not.
        doc = {"kind": "detector", "parameters": {
            "truncation": truncation, "counts": counts, "efficiency": 0.7}}
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", write_scenario(tmp_path, doc), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (EXIT_OK, "")
        document = json.loads(out.read_text(encoding="utf-8"),
                              parse_constant=_reject_constant)
        weights = document["outputs"]["arrays"]["photon_number_weights"]["values"][0]
        assert min(weights) == 0.0 and max(weights) <= 1.0
        assert not any(weights[:counts])
        trace = document["outputs"]["scalars"]["trace"]
        assert trace == pytest.approx(math.fsum(weights), rel=1e-12)
        assert document["diagnostics"]["truncation_tail_deficit"] == max(0.0, 1.0 - trace)

    @pytest.mark.parametrize("doc, category, message", [
        (_NEAR_MAX["asymmetric-state"], "validation",
         "state of event 'a' is not positive semidefinite"),
        (_NEAR_MAX["state-trace"], "validation", "state of event 'a' has trace inf, expected 1"),
        (_NEAR_MAX["element"], "validation", "POM element 'x' is not positive semidefinite"),
        (_NEAR_MAX["priors"], "validation", "priors must sum to 1, got inf"),
        (_NEAR_MAX["theta"], "computation",
         "theta = 1.7e+308 overflows the phases of the 3-photon block"),
    ], ids=list(_NEAR_MAX))
    def test_overflow_near_the_double_limit_leaves_only_the_error_document(
            self, tmp_path, doc, category, message):
        # A fresh process: Python prints a warning's location once per
        # process, so an earlier run in this one could hide it.
        run = run_python(["-m", "qretrodict.cli", "run", write_scenario(tmp_path, doc)],
                         check=False)
        code = cli._EXIT_CODES[category]
        assert (run.returncode, run.stdout) == (code, "")
        assert run.stderr == cli._dumps({"error": {
            "category": category, "exit_code": code, "message": message}})

    @pytest.mark.parametrize("counts, code", [((2, 1), EXIT_COMPUTATION), ((1, 0), EXIT_OK)])
    def test_a_coupling_angle_whose_phases_overflow_exits_4(self, tmp_path, capsys,
                                                            counts, code):
        # Counts (1, 0) take only the 1-photon block, whose phases are +-theta.
        doc = copy.deepcopy(_NEAR_MAX["theta"])
        doc["parameters"].update(counts_b=counts[0], counts_c=counts[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", write_scenario(tmp_path, doc)]) == code
        err = capsys.readouterr().err
        if code == EXIT_OK:
            assert err == ""
        else:
            assert "3-photon block" in json.loads(err)["error"]["message"]

    def test_csv_without_tables_exits_3(self, capsys):
        info = next(i for i in list_examples() if i.kind == "detector")
        assert main(["run", info.path, "--format", "csv"]) == EXIT_VALIDATION
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert "json" in message

    @pytest.mark.parametrize("nested", ["description", "state"])
    def test_deeply_nested_document_exits_2(self, tmp_path, capsys, nested):
        # json's parser recurses once per level of nesting, and 100000
        # levels exceed its limit on every supported interpreter, where it
        # raises RecursionError.
        path = tmp_path / "deep.json"
        make = _nested_description if nested == "description" else _nested_state
        path.write_text(make(100000), encoding="utf-8")
        assert main(["run", str(path)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert (error["category"], error["exit_code"]) == ("parse", EXIT_PARSE)
        assert "recursion" in error["message"]
        run = run_python(["-m", "qretrodict.cli", "run", str(path)], check=False)
        assert (run.returncode, run.stdout) == (EXIT_PARSE, "")
        assert json.loads(run.stderr)["error"]["category"] == "parse"

    def test_nesting_near_the_recursion_limit_exits_2_or_3(self, tmp_path):
        # Either the parser gives up (2) or the walker rejects the parsed
        # document (3), at whatever depth the interpreter's limits allow.
        paths = []
        for depth in range(900, 1001, 4):
            for shape, text in (("description", _nested_description(depth)),
                                ("state", _nested_state(depth))):
                path = tmp_path / f"{shape}-{depth}.json"
                path.write_text(text, encoding="utf-8")
                paths.append(str(path))
        probe = ("import sys; from qretrodict import cli; "
                 "print(sorted({cli.run(path) for path in sys.argv[1:]}))")
        run = run_python(["-c", probe, *paths], check=False)
        assert run.returncode == 0, run.stderr
        assert set(json.loads(run.stdout)) <= {EXIT_PARSE, EXIT_VALIDATION}
        assert "Traceback" not in run.stderr
        codes = set()
        with contextlib.redirect_stderr(io.StringIO()):
            codes.update(cli.run(path) for path in paths)
        assert codes <= {EXIT_PARSE, EXIT_VALIDATION}

    @pytest.mark.parametrize("place, digits, code", [
        ("seed", 4300, EXIT_OK), ("seed", 4301, EXIT_PARSE),
        ("prior", 4300, EXIT_VALIDATION), ("prior", 4301, EXIT_PARSE)])
    def test_an_integer_longer_than_the_digit_limit_exits_2(self, tmp_path, capsys,
                                                            monkeypatch, place, digits, code):
        # Python converts at most 4300 digits to an int by default, and json
        # refuses a longer literal with a plain ValueError.  json.dumps
        # refuses to write one too, so the document is written as text.
        number = "9" * digits
        text = ('{"kind": "bb84", "parameters": {"slots": 100, "seed": %s}}' % number
                if place == "seed" else json.dumps(bus_train_doc()).replace("0.5", number, 1))
        path = tmp_path / "digits.json"
        path.write_text(text, encoding="utf-8")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            if code == EXIT_PARSE:
                with pytest.raises(ValueError) as python:
                    json.loads(text)
            assert main(["run", str(path)]) == code
        finally:
            sys.set_int_max_str_digits(limit)
        captured = capsys.readouterr()
        monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "4300")
        run = run_python(["-m", "qretrodict.cli", "run", str(path)], check=False)
        assert (run.returncode, run.stdout, run.stderr) == (code, captured.out, captured.err)
        if code == EXIT_OK:
            assert captured.err == ""
            assert json.loads(captured.out)["diagnostics"]["seed"] == int(number)
            return
        assert captured.out == ""
        if code == EXIT_PARSE:
            message = f"cannot read scenario {str(path)!r}: {python.value}"
        else:
            message = "priors holds a number outside the double-precision range"
        category = "parse" if code == EXIT_PARSE else "validation"
        assert captured.err == cli._dumps({"error": {
            "category": category, "exit_code": code, "message": message}})


def retrodict_of_shape(k, m, d=1):
    """A valid retrodict document with k events and m POM elements on
    dimension d: states I/d of prior 1/k, and elements I/m."""
    def matrix(value):
        return [[[value, 0] if i == j else [0, 0] for j in range(d)] for i in range(d)]

    return {"kind": "retrodict", "parameters": {
        "events": [{"label": f"e{i}", "prior": 1 / k, "state": matrix(1 / d)}
                   for i in range(k)],
        "pom": [{"label": f"b{j}", "element": matrix(1 / m)} for j in range(m)]}}


def traced_peak(call):
    """What ``call()`` returns and the tracemalloc peak while it runs."""
    tracemalloc.start()
    try:
        value = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak


def feed_fifo(path, data):
    """A started thread that writes ``data`` to the FIFO ``path`` and closes it."""
    def write():
        with contextlib.suppress(BrokenPipeError), open(path, "wb") as fifo:
            fifo.write(data)

    os.mkfifo(path)
    thread = threading.Thread(target=write, daemon=True)
    thread.start()
    return thread


def padded_bus_train(size):
    """The bundled bus-train scenario padded with spaces to ``size`` bytes."""
    text = Path(next(info.path for info in list_examples()
                     if info.name == "bus-train")).read_bytes()
    return text + b" " * (size - len(text))


class TestCaps:
    """The byte cap of a scenario file and the shape bounds of a retrodict
    run refuse a document with exit 3 before anything of its size is
    allocated."""

    @staticmethod
    def refusal(capsys) -> str:
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert (error["category"], error["exit_code"]) == ("validation", EXIT_VALIDATION)
        return error["message"]

    def test_a_file_one_byte_past_the_cap_exits_3_unread(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        with open(path, "wb") as file:
            file.truncate(cli.SCENARIO_BYTE_CAP + 1)
        code, peak = traced_peak(lambda: main(["run", str(path)]))
        assert code == EXIT_VALIDATION
        assert self.refusal(capsys) == (
            f"scenario file is longer than the cap of {cli.SCENARIO_BYTE_CAP} bytes")
        assert peak < 4 * 2 ** 20

    def test_a_file_at_the_cap_runs_as_its_unpadded_text(self, tmp_path, capsys):
        path = tmp_path / "padded.json"
        path.write_bytes(padded_bus_train(cli.SCENARIO_BYTE_CAP))
        assert path.stat().st_size == cli.SCENARIO_BYTE_CAP
        assert main(["run", str(path)]) == EXIT_OK
        padded = capsys.readouterr()
        assert main(["run", next(info.path for info in list_examples()
                                 if info.name == "bus-train")]) == EXIT_OK
        assert padded == capsys.readouterr()

    def test_a_pipe_is_read_in_chunks_as_a_file_is(self, tmp_path, capsys):
        data = padded_bus_train(3 * cli._READ_CHUNK + 1)
        regular = tmp_path / "regular.json"
        regular.write_bytes(data)
        assert main(["run", str(regular)]) == EXIT_OK
        expected = capsys.readouterr()
        fifo = tmp_path / "fifo.json"
        writer = feed_fifo(fifo, data)
        assert main(["run", str(fifo)]) == EXIT_OK
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert capsys.readouterr() == expected

    def test_a_pipe_past_the_cap_exits_3_unparsed(self, tmp_path, capsys):
        fifo = tmp_path / "fifo.json"
        writer = feed_fifo(fifo, b" " * (cli.SCENARIO_BYTE_CAP + 1))
        code, peak = traced_peak(lambda: main(["run", str(fifo)]))
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert code == EXIT_VALIDATION
        assert str(cli.SCENARIO_BYTE_CAP) in self.refusal(capsys)
        # The chunks read so far, and no more: nothing is joined or parsed.
        assert peak < cli.SCENARIO_BYTE_CAP + 4 * 2 ** 20

    @pytest.mark.parametrize("doc", [{"kind": "x" * 10 ** 6}, [{}] * 10 ** 5],
                             ids=["1-MB-kind", "400-KB-list"])
    def test_a_schema_rejection_of_a_long_value_writes_a_short_error(self, tmp_path,
                                                                    capsys, doc):
        path = write_scenario(tmp_path, doc)
        assert Path(path).stat().st_size >= 4 * 10 ** 5
        assert main(["run", path]) == EXIT_VALIDATION
        # The message quotes SCHEMA_QUOTE_CAP characters of the value, and
        # the error document around it stays under 8 KiB.
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.encode("utf-8")) < 8192
        error = json.loads(captured.err)["error"]
        assert (error["category"], error["exit_code"]) == ("validation", EXIT_VALIDATION)
        assert "more characters)" in error["message"]

    @pytest.mark.parametrize("k, m", [(1001, 1000), (1000, 1001)])
    def test_one_cell_past_the_bound_exits_3_before_allocating(self, tmp_path, capsys, k, m):
        path = write_scenario(tmp_path, retrodict_of_shape(k, m))
        code, peak = traced_peak(lambda: main(["run", path]))
        assert code == EXIT_VALIDATION
        message = self.refusal(capsys)
        assert f"k = {k} " in message and f"m = {m} " in message
        assert str(cli.RETRODICT_CELL_CAP) in message
        assert peak < 4 * 2 ** 20

    def test_one_dimension_past_the_overlap_bound_exits_3_before_allocating(
            self, tmp_path, capsys):
        # At the cell bound, d = 16 is the largest dimension inside the
        # overlap bound.  Parsing the document takes far more than 4 MB, so
        # the peak is taken over execute.
        doc = retrodict_of_shape(1000, 1000, 17)
        assert main(["run", write_scenario(tmp_path, doc)]) == EXIT_VALIDATION
        message = self.refusal(capsys)
        assert "k = 1000 " in message and "m = 1000 " in message and "d = 17 " in message
        assert str(cli.RETRODICT_OVERLAP_CAP) in message
        # The bound is checked before any matrix scan is read.
        scenario = cli.Scenario(kind="retrodict", parameters=doc["parameters"],
                                document=doc, arrays={})
        tracemalloc.start()
        try:
            with pytest.raises(cli.ValidationError, match=re.escape(message)):
                execute(scenario)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("k, m, d", [(1000, 1000, 16), (1, 1000000, 16),
                                         (250, 4000, 16), (16, 16, 1000)])
    def test_shapes_at_the_bounds_pass_the_check(self, k, m, d):
        cli._check_retrodict_shape({"events": [{"state": [None] * d}] * k,
                                    "pom": [{}] * m})


def test_only_the_writer_takes_a_standard_stream():
    # Every standard stream the package names is handed to ``cli._put``,
    # and nothing is printed.
    for path in Path(cli.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        names = [getattr(call.func, "id", None) for call in calls]
        handed = {id(call.args[0]) for call, name in zip(calls, names) if name == "_put"}
        streams = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                   and node.attr in ("stdin", "stdout", "stderr")]
        assert all(id(node) in handed for node in streams), path.name
        assert "print" not in names, path.name


def test_failed_writes_leave_no_descriptor_open():
    # A failed write sends the stream to the null device, and the descriptor
    # opened for that is closed again: the lowest free number stays put.
    def lowest_free():
        fd = os.open(os.devnull, os.O_RDONLY)
        os.close(fd)
        return fd

    before = lowest_free()
    for _ in range(20):
        read, write = os.pipe()
        os.close(read)
        with open(write, "w", encoding="utf-8") as stream:
            with pytest.raises(BrokenPipeError):
                cli._put(stream, b"{}\n", "{}\n")
    assert lowest_free() == before


def test_a_scenario_is_built_with_its_document_and_scans():
    # A Scenario is what validation returns: kind, parameters, the document
    # it echoes and the scans of its matrices, none of them left out.
    parameters = {"reference": [[1.0, 0.0]], "theta": 0.5, "truncation": 2}
    with pytest.raises(TypeError):
        cli.Scenario(kind="scissors", parameters=parameters)
    doc = {"kind": "scissors", "parameters": parameters}
    scenario = validate_document(doc)
    assert (scenario.kind, scenario.parameters, scenario.document) == ("scissors", parameters,
                                                                        doc)
    assert list(scenario.arrays) == [("parameters", "reference")]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _nested_description(depth):
    """A bb84 document whose description is an array nested ``depth`` deep."""
    return '{"kind": "bb84", "description": ' + "[" * depth + "]" * depth + "}"


def _nested_state(depth):
    """A retrodict document whose one state is an array nested ``depth`` deep."""
    return ('{"kind": "retrodict", "parameters": {"events": [{"label": "a", '
            '"prior": 1, "state": ' + "[" * depth + "]" * depth + '}], '
            '"pom": [{"label": "b", "element": [[[1, 0]]]}]}}')


def run_edge_of_tolerance_source(tmp_path, capsys, pom_vectors):
    """Run an unbiased d = 4 source whose two states each have an eigenvalue
    of -8e-10 against the rank-1 POM of ``pom_vectors``; returns the output."""
    delta = 8e-10

    def matrix(mat):
        return [[[float(x), 0.0] for x in row] for row in mat]

    states = [np.diag([0.5 + delta, 0.5, -delta, 0.0]),
              np.diag([-delta, 0.0, 0.5 + delta, 0.5])]
    path = write_scenario(tmp_path, {"kind": "retrodict", "parameters": {
        "events": [{"label": f"e{i}", "prior": 0.5, "state": matrix(s)}
                   for i, s in enumerate(states)],
        "pom": [{"label": f"o{j}", "element": matrix(np.outer(v, v))}
                for j, v in enumerate(pom_vectors)]}})
    code = main(["run", path])
    captured = capsys.readouterr()
    assert code == EXIT_OK, captured.err
    document = json.loads(captured.out)
    assert document["diagnostics"]["source"] == "unbiased"
    return document


def test_an_outcome_of_weight_just_above_trace_tol_has_a_posterior(tmp_path, capsys):
    # The weight of "tiny" is emitted as 1.0000000000000002e-12; the sum of
    # its overlaps, which the posterior divides by, is exactly 1e-12.
    path = write_scenario(tmp_path, {"kind": "retrodict", "parameters": {
        "events": [{"label": "a", "prior": 0.14398180055736376,
                    "state": _diagonal([0.6493617754508143, 0.3506382245491857])},
                   {"label": "b", "prior": 0.8560181994426362,
                    "state": _diagonal([0.31646540577483634, 0.6835345942251636])}],
        "pom": [{"label": "tiny", "element": _diagonal([2.7442640290106694e-12, 0])},
                {"label": "rest", "element": _diagonal([0.9999999999972558, 1])}]}})
    assert main(["run", path]) == EXIT_OK, capsys.readouterr().err


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the biased elements' trace sum adds the prior and trace errors, each within "
    "TOL, and is held to TOL itself: CHANGES.md's FOUND, ROADMAP item 10"))
def test_priors_and_traces_each_within_tol_make_a_valid_biased_source(tmp_path, capsys):
    # Each prior and each trace passes its own check; their products sum
    # to 1.0000000017000001.
    state = _diagonal([0.50000000045, 0.50000000045])
    path = write_scenario(tmp_path, {"kind": "retrodict", "parameters": {
        "events": [{"label": label, "prior": 0.5000000004, "state": state}
                   for label in ("a", "b")],
        "pom": [{"label": "x", "element": _diagonal([1, 0])},
                {"label": "y", "element": _diagonal([0, 1])}]}})
    assert main(["run", path]) == EXIT_OK, capsys.readouterr().err


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

    @staticmethod
    def _subnormal_column_doc(priors, entry):
        """Both events give the outcome ``x`` the conditional ``entry``, a
        number below the normal double range, so the posterior is the prior."""
        return {"kind": "bayes", "parameters": {
            "events": ["a", "b"], "priors": priors, "outcomes": ["x", "y"],
            "conditional": [[entry, 1.0], [entry, 1.0]], "observed": "x"}}

    @pytest.mark.parametrize("priors, entry", [([0.3, 0.7], 1e-320), ([0.5, 0.5], 5e-324)])
    def test_bayes_posterior_of_a_subnormal_column_is_exact(self, tmp_path, capsys,
                                                            priors, entry):
        path = write_scenario(tmp_path, self._subnormal_column_doc(priors, entry))
        assert main(["run", path]) == EXIT_OK
        document = json.loads(capsys.readouterr().out)
        assert document["outputs"]["tables"]["posterior"]["values"] == [priors]

    def test_bayes_lists_no_subnormal_column_as_impossible(self, tmp_path):
        doc = self._subnormal_column_doc([0.5, 0.5], 5e-324)
        del doc["parameters"]["observed"]
        document = run_to_document(write_scenario(tmp_path, doc))
        posterior = document["outputs"]["tables"]["posterior"]
        assert posterior["rows"] == ["x", "y"]
        assert posterior["values"] == [[0.5, 0.5], [0.5, 0.5]]
        assert "zero_probability_outcomes" not in document["diagnostics"]
        # The marginal is the posterior's lifted normaliser scaled back: exact.
        assert document["outputs"]["tables"]["outcome_marginal"]["values"] == [[5e-324, 1.0]]

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

    def test_nearly_unbiased_source_runs_on_the_biased_pathway(self, tmp_path,
                                                               capsys):
        # The mixture is 6e-10 from I/d, inside the 1e-9 tolerance, but the
        # preparation POM misses the identity by d times that: such a source
        # is biased, not an unbiased one whose preparation POM is rejected.
        d, eps = 16, 6e-10

        def diagonal(values):
            return [[[values[i] if i == j else 0.0, 0.0] for j in range(d)]
                    for i in range(d)]

        events = [{"label": f"e{i}", "prior": 1 / d,
                   "state": diagonal(np.eye(d)[i].tolist())} for i in range(d)]
        events[0]["state"] = diagonal([1 - 16 * eps, 16 * eps] + [0.0] * (d - 2))
        path = write_scenario(tmp_path, {"kind": "retrodict", "parameters": {
            "events": events,
            "pom": [{"label": f"b{j}", "element": diagonal(np.eye(d)[j].tolist())}
                    for j in range(d)]}})
        code = main(["run", path])
        captured = capsys.readouterr()
        assert code == EXIT_OK, captured.err
        diagnostics = json.loads(captured.out)["diagnostics"]
        assert diagnostics["source"] == "biased"
        assert diagnostics["mixture_deviation"] == pytest.approx(eps, rel=1e-6)

    def test_unbiased_source_with_slightly_negative_states_runs(self, tmp_path,
                                                                capsys):
        # Each state has an eigenvalue of -8e-10, inside the ensemble's 1e-9
        # tolerance; its preparation POM element d * prior * state has
        # -1.6e-9.  The source is unbiased, so that POM is not checked again.
        hadamard = np.array([[1, 1, 1, 1], [1, -1, 1, -1],
                             [1, 1, -1, -1], [1, -1, -1, 1]]) / 2
        document = run_edge_of_tolerance_source(tmp_path, capsys, hadamard)
        values = document["outputs"]["tables"]["retrodictive"]["values"]
        assert np.allclose(values, 0.5, rtol=0, atol=1e-15)

    def test_unbiased_source_at_the_edge_of_its_tolerance_runs(self, tmp_path,
                                                               capsys):
        # Against the computational basis the posterior of e0 given o0 is
        # <0|2 rho_0|0> = 1 + 1.6e-9: outside [0, 1] by more than 1e-9 but
        # within d = 4 times it, so it is clamped to 1 instead of exiting 4.
        document = run_edge_of_tolerance_source(tmp_path, capsys, np.eye(4))
        table = document["outputs"]["tables"]["retrodictive"]
        assert table["rows"] == ["o0", "o1", "o2", "o3"]
        assert table["values"] == [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]

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

    @pytest.mark.parametrize("name, field", [
        ("bb84-monte-carlo", "slots"), ("bb84-monte-carlo", "seed"),
        ("detector-single-count", "counts"),
        ("detector-single-count", "truncation"),
        ("synthesis-single-photon", "counts_b"),
        ("synthesis-single-photon", "counts_c")])
    def test_integral_float_runs_like_the_integer(self, tmp_path, capsys,
                                                  name, field):
        # Draft 2020-12 counts 1.0 as an integer, so the schema accepts it.
        path = {info.name: info.path for info in list_examples()}[name]
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        outputs = []
        for value in (doc["parameters"][field], float(doc["parameters"][field])):
            doc["parameters"][field] = value
            code = main(["run", write_scenario(tmp_path, doc)])
            captured = capsys.readouterr()
            assert code == EXIT_OK, captured.err
            outputs.append(json.loads(captured.out)["outputs"])
        assert outputs[0] == outputs[1]

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
        document = to_json_obj(result)
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

    def test_nan_table_row_is_never_emitted(self):
        result = cli.ResultDocument(scenario={}, tables={"t": cli._array(
            ["r"], ["a", "b"], [[math.nan, 1.0]])})
        for render in (render_json, render_csv):
            with pytest.raises(cli.NumericIntegrityError, match="'r' sums to nan"):
                render(result)

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
        assert render_json(result) == dumps_oracle(to_json_obj(result))

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
        assert render_json(result) == dumps_oracle(to_json_obj(result))

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
        oracle = peak(lambda: dumps_oracle(to_json_obj(result)))
        assert ours <= oracle


def bb84_records_result(slots, seed=5, attack="intercept_resend"):
    return execute(validate_document({"kind": "bb84", "parameters": {
        "slots": slots, "seed": seed, "attack": attack, "include_records": True}}))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(slots=st.integers(1, 400), seed=st.integers(0, 2 ** 32),
       attack=st.sampled_from(["none", "intercept_resend"]))
@example(slots=1, seed=0, attack="none")
@example(slots=1, seed=0, attack="intercept_resend")
def test_bb84_records_render_like_json_dumps(slots, seed, attack):
    result = bb84_records_result(slots, seed, attack)
    assert render_json(result) == dumps_oracle(to_json_obj(result))


#: Bound on the tracemalloc peak of rendering 10^5 BB84 records, whose
#: text is 10.0 MiB: measured 12.6 MiB with each distinct record rendered
#: once, against 68.9 MiB when every slot's record was walked.
_RECORDS_RENDER_PEAK = 16 * 2 ** 20


def test_a_list_of_records_is_declined_before_it_is_copied():
    records = [{"alice_choice": "L", "bob_basis": "linear", "bob_outcome": "V"}] * 10 ** 6
    tracemalloc.start()
    try:
        assert cli._number_array(records) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 10
    # Declined at its first item: a scan of the 10^6 item types takes
    # about 15 ms, the decline a microsecond.
    assert min(timeit.repeat(lambda: cli._number_array(records), number=1,
                             repeat=3)) < 1e-3


def test_rendering_records_stays_within_its_memory_bound():
    result = bb84_records_result(10 ** 5)
    tracemalloc.start()
    try:
        render_json(result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _RECORDS_RENDER_PEAK


_OPTICS_DOCS = {
    "detector": {"counts": 1, "efficiency": 0.7},
    "synthesis": {"reference": [[0.6, 0.0], [0.0, -0.8]],
                  "counts_b": 1, "counts_c": 0, "theta": 0.6},
    "scissors": {"reference": [[0.8, 0.0], [0.0, -0.6]], "theta": 0.9},
}


def _json_native(value):
    """Whether ``value`` is built of JSON's own Python types only."""
    if isinstance(value, dict):
        return all(type(key) is str and _json_native(item)
                   for key, item in value.items())
    if type(value) is list:
        return all(map(_json_native, value))
    return value is None or type(value) in (str, float, int, bool)


@pytest.mark.parametrize("kind", ["synthesis", "scissors"])
def test_purity_agrees_with_the_dense_product(kind):
    # The support block adds the same nonzero terms as the full product, in
    # an order BLAS may choose differently: a few ulp at most.
    rng = np.random.default_rng(1701)
    for _ in range(60):
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        amps = amps[:int(rng.integers(2, 5))]
        amps /= np.linalg.norm(amps)
        params = {"reference": [[z.real, z.imag] for z in amps.tolist()],
                  "theta": float(rng.uniform(0.2, 1.35)),
                  "truncation": int(rng.integers(4, 65))}
        if kind == "synthesis":
            n = int(rng.integers(0, 5))
            params.update(counts_b=n, counts_c=int(rng.integers(0, 5 - n)))
        result = execute(validate_document({"kind": kind, "parameters": params}))
        (matrix,) = (op["matrix"] for op in result.operators.values())
        op = Operator(matrix.view(np.complex128)[..., 0])
        assert abs(result.scalars["purity"] - dense_purity(op)) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("kind", sorted(_OPTICS_DOCS))
def test_execute_at_the_truncation_cap_stays_within_its_memory_bound(kind):
    # Each output is one (N+1)^2 complex matrix, 61 MiB at N = 2000, which
    # the Operator takes over without a copy: 65 MiB measured for every kind.
    # A second copy of the output (126 MiB), or dense (N+1)^3 products and
    # (N+1)^2 temporaries (248-309 MiB), would break the bound.
    scenario = validate_document({"kind": kind, "parameters": dict(
        _OPTICS_DOCS[kind], truncation=2000)})
    tracemalloc.start()
    try:
        execute(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 75 * 2 ** 20


#: SHA-256 of ``render_json`` of each ``_OPTICS_DOCS`` kind at N = 2000,
#: recorded with the renderer that formatted every entry of an array.
_CAP_DIGESTS = {
    "detector": "eb66e0cb2582f6c6ec52863472713d781cce4b4385f4012c79e97d6b1288ab63",
    "scissors": "4981159a645d7e64d4b1cdbccc7fc46234d69ac3ba1d2a19aeebe0aa63a0d344",
    "synthesis": "ed490aa2e24dc46e26bd4e5f499682b3df91e9c4b6ab3148bdd008ab424f849d",
}


@pytest.mark.parametrize("kind", sorted(_OPTICS_DOCS))
def test_documents_at_the_truncation_cap_render_their_recorded_bytes(kind):
    result = execute(validate_document({"kind": kind, "parameters": dict(
        _OPTICS_DOCS[kind], truncation=2000)}))
    digest = hashlib.sha256(render_json(result).encode()).hexdigest()
    assert digest == _CAP_DIGESTS[kind]


def test_a_synthesis_document_at_the_truncation_cap_keeps_no_block():
    # Counts (100, 0) at N = 2000 select a 101-wide photon-number block,
    # wider than any block whose eigendecomposition is kept.
    cache = optics._cached_block_basis
    cache.cache_clear()
    execute(validate_document({"kind": "synthesis", "parameters": dict(
        _OPTICS_DOCS["synthesis"], counts_b=100, theta=0.1, truncation=2000)}))
    assert cache.cache_info().currsize == 0


@pytest.mark.parametrize("truncation", [1, 8, 40, 256])
@pytest.mark.parametrize("kind", sorted(_OPTICS_DOCS))
def test_operators_render_like_json_dumps_of_plain_values(tmp_path, kind, truncation):
    result = write_result(tmp_path, {"kind": kind, "parameters": dict(
        _OPTICS_DOCS[kind], truncation=truncation)})
    document = to_json_obj(result)
    assert _json_native(document)
    assert render_json(result) == dumps_oracle(document)


@pytest.mark.parametrize("truncation", [40, 256])
def test_a_detector_that_counted_every_photon_renders_like_json_dumps(tmp_path, truncation):
    # The only entry of its state that is not 0.0 is the last one of the last row.
    result = write_result(tmp_path, {"kind": "detector", "parameters": {
        "counts": truncation, "efficiency": 0.7, "truncation": truncation}})
    (operator,) = result.operators.values()
    assert np.flatnonzero(operator["matrix"]).tolist() == [(truncation + 1) ** 2 * 2 - 2]
    document = to_json_obj(result)
    assert render_json(result) == dumps_oracle(document)


#: Matrices for a qubit state |0><0| that the echo must keep as written:
#: all floats, floats and JSON integers, and signed zeros with subnormals.
_ECHOED_STATES = {
    "floats": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    "ints": [[[1, 0], [0.0, 0]], [[0, 0.0], [0, 0]]],
    "signed-zero-and-subnormal": [[[1.0, -0.0], [5e-324, -0.0]],
                                  [[5e-324, 0.0], [-0.0, -0.0]]],
}


@pytest.mark.parametrize("name", sorted(_ECHOED_STATES))
def test_retrodict_echo_renders_like_json_dumps_of_plain_values(tmp_path, name):
    state = _ECHOED_STATES[name]
    doc = {"kind": "retrodict", "parameters": {
        "events": [{"label": "0", "prior": 0.5, "state": state},
                   {"label": "1", "prior": 0.5,
                    "state": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}],
        "pom": [{"label": "z0", "element": state},
                {"label": "z1", "element": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}]}}
    result = write_result(tmp_path, doc)
    # A matrix holding an integer keeps the list route; one of floats only
    # is echoed from its array.
    echoed = result.scenario["parameters"]
    assert isinstance(echoed["events"][0]["state"], list) is (name == "ints")
    assert isinstance(echoed["events"][1]["state"], np.ndarray)
    assert isinstance(echoed["pom"][1]["element"], list)
    document = to_json_obj(result)
    assert _json_native(document)
    assert render_json(result) == dumps_oracle(document)
    assert dumps_oracle(document["scenario"]) == dumps_oracle(doc)


_float_leaves = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-05, math.nan, math.inf, -math.inf])


@st.composite
def _nested_float_array(draw):
    """A float64 array of depth 1-4 (all-equal or not), wrapped in 0-3 lists
    and dicts; returns the value with the array and with its ``tolist()``."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    if draw(st.booleans()):
        array = np.full(shape, draw(_float_leaves))
    else:
        array = np.array(draw(st.lists(_float_leaves, min_size=math.prod(shape),
                                       max_size=math.prod(shape)))).reshape(shape)
    value, plain = array, array.tolist()
    for wrap in draw(st.lists(st.sampled_from(["list", "dict"]), max_size=3)):
        if wrap == "list":
            value, plain = [value, "x"], [plain, "x"]
        else:
            value, plain = {"a": 1, "m": value}, {"a": 1, "m": plain}
    return value, plain


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pair=_nested_float_array())
@example(pair=(np.array([0.0, -0.0, 0.0]), [0.0, -0.0, 0.0]))
@example(pair=(np.array([[[math.nan, math.inf], [-math.inf, 5e-324]]]),
               [[[math.nan, math.inf], [-math.inf, 5e-324]]]))
@example(pair=(np.full((1, 1, 1, 1), 1e16), [[[[1e16]]]]))
@example(pair=(np.array([-math.nan, math.nan, -0.0, 0.0, -math.inf, math.inf,
                         -5e-324, 0.1] * 8).reshape(4, 8, 2),
               np.array([-math.nan, math.nan, -0.0, 0.0, -math.inf, math.inf,
                         -5e-324, 0.1] * 8).reshape(4, 8, 2).tolist()))
@example(pair=(np.array([[1e-05, -0.0], [1e-05, 0.0]]), [[1e-05, -0.0], [1e-05, 0.0]]))
def test_array_renderer_matches_json_dumps_of_its_list(pair):
    value, plain = pair
    assert cli._dumps(value) == dumps_oracle(plain)


_specials = st.sampled_from(
    [-0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e16, 1e-05]) \
    | st.floats()


@st.composite
def _sparse_float_array(draw):
    """A float64 array of depth 1-4, often ``(R, C, 2)``, of +0.0 but for a
    few drawn specials at row starts, row ends, in the first and the last
    row or anywhere, and a random fill of a density on either side of the
    renderer's route cutoff.  Wrapped in a dict half the time; returns the
    value with the array and with its ``tolist()``."""
    if draw(st.booleans()):
        shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)), 2)
    else:
        shape = tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=4)))
    array = np.zeros(shape)
    rows = array.reshape(shape[0], -1)
    for _ in range(draw(st.integers(0, 6))):
        row = draw(st.integers(0, rows.shape[0] - 1))
        column = draw(st.integers(0, rows.shape[1] - 1))
        place = draw(st.sampled_from(["start", "end", "first", "last", "any"]))
        row = {"first": 0, "last": rows.shape[0] - 1}.get(place, row)
        column = {"start": 0, "end": rows.shape[1] - 1}.get(place, column)
        rows[row, column] = draw(_specials)
    density = draw(st.sampled_from([0.0, 0.02, 0.1, 0.3, 0.4, 0.7]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    fill = rng.random(array.size) < density
    pool = np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-05, 0.5, -0.5])
    array.reshape(-1)[fill] = np.where(rng.random(fill.sum()) < 0.5,
                                       rng.standard_normal(fill.sum()),
                                       rng.choice(pool, fill.sum()))
    if draw(st.booleans()):
        return {"a": 1, "m": array}, {"a": 1, "m": array.tolist()}
    return array, array.tolist()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pair=_sparse_float_array())
@example(pair=(np.zeros((9, 9, 2)), np.zeros((9, 9, 2)).tolist()))
@example(pair=(np.diag([-0.0] * 8).reshape(8, 4, 2), np.diag([-0.0] * 8).reshape(8, 4, 2).tolist()))
@example(pair=(np.diag([math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e16, 1e-05]),
               np.diag([math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e16,
                        1e-05]).tolist()))
def test_sparse_array_renderer_matches_json_dumps_of_its_list(pair):
    value, plain = pair
    assert cli._dumps(value) == dumps_oracle(plain)


def test_arrays_of_few_non_zero_entries_take_the_sparse_route(monkeypatch):
    # One entry in three that is not +0.0 takes the splice; one entry more,
    # the row templates.  Both must render the same bytes as json.dumps.
    routes = []
    splice = cli._emit_sparse
    monkeypatch.setattr(cli, "_emit_sparse", lambda *args: routes.append(args) or splice(*args))
    cutoff = 72 // cli._SPARSE_RATIO
    for count, sparse in ((cutoff, True), (cutoff + 1, False)):
        array = np.zeros((9, 4, 2))  # 72 entries
        array.reshape(-1)[-count:] = -0.0
        array.reshape(-1)[-1] = 1.5
        routes.clear()
        assert cli._dumps(array) == dumps_oracle(array.tolist())
        assert bool(routes) is sparse


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
_text_list = st.lists(_odd_text, min_size=1, max_size=5)
_render_values = st.recursive(
    st.one_of(_odd_scalar, _odd_text, _number_array(), _ragged, _mixed, _text_list),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_odd_text, inner, max_size=4),
    max_leaves=12)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(value=_render_values)
def test_renderer_matches_json_dumps(value):
    assert cli._dumps(value) == dumps_oracle(value)


#: One object at several places in a document, as parsed JSON never shares
#: one: the renderer reuses an item's text only within one list.
_SHARED = {"b": [1, "x", None], "a": {"c": 0.5, "d": []}}
_WORD = "repeated, word"


@pytest.mark.parametrize("value", [
    ("a", (1, 2.0)), [(1, 2), [3, 4]], ((1, 2), (3, 4)), [[1, 2]] * 3,
    [_SHARED] * 3, [_SHARED, [_SHARED]], {"a": _SHARED, "b": [_SHARED, _SHARED]},
    [["a", None]] * 2, [_WORD, "x", _WORD] * 2,
], ids=["tuples", "tuple-row", "tuple-array", "shared-rows", "shared-dict",
        "shared-dict-two-depths", "shared-dict-in-dict", "shared-mixed-rows",
        "repeated-strings"])
def test_renderer_matches_json_dumps_beyond_parsed_json(value):
    assert cli._dumps(value) == dumps_oracle(value)


@pytest.mark.parametrize("value", [
    [""], ["", ""], ['"', '\\"', "a, b"], ["ü", "\u2603", "\U0001f600", "\x00\n"],
    ["only"], ("a", "b"), {"cols": [str(k) for k in range(41)]}, [["a", "b"], ["c"]],
], ids=["empty-string", "empty-strings", "quotes", "non-ascii", "one", "tuple", "labels", "nested"])
def test_string_lists_render_like_json_dumps(value):
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


# Schema-valid documents whose numbers reach the edges of the double
# range, for the execution fuzz below: finite extremes beside ordinary
# values, so that some documents pass validation and overflow while they run.
_limits = st.sampled_from([1.7e308, -1.7e308, 8.99e307, -8.99e307, 5e-324, -5e-324,
                           -2.2250738585072014e-308, 0.0, -0.0])
_near_limit = st.one_of(_limits, st.sampled_from([0.5, 1.0]), st.floats(-2, 2))
_complex_near_limit = st.lists(_near_limit, min_size=2, max_size=2)


def _near_limit_matrix(d):
    """A d x d matrix of such entries, hermitian half the time."""
    def hermitian(m):
        return [[[m[i][i][0], 0.0] if i == j else m[i][j] if i > j
                 else [m[j][i][0], -m[j][i][1]] for j in range(d)] for i in range(d)]
    square = st.lists(st.lists(_complex_near_limit, min_size=d, max_size=d),
                      min_size=d, max_size=d)
    return square | square.map(hermitian)


@st.composite
def _bayes_near_limit(draw):
    params = draw(_bayes())
    for row in [params["priors"], *params["conditional"]]:
        if draw(st.booleans()):
            row[:] = draw(st.lists(_near_limit, min_size=len(row), max_size=len(row)))
    return params


@st.composite
def _retrodict_near_limit(draw):
    # At most one prior, state or element is replaced, so that the rest
    # stays valid and the replaced numbers meet the checks.
    params = draw(_retrodict())
    d = len(params["events"][0]["state"])
    slots = [(e, key) for e in params["events"] for key in ("prior", "state")]
    slots += [(p, "element") for p in params["pom"]]
    slot = draw(st.sampled_from([None] + slots))
    if slot is not None:
        item, key = slot
        item[key] = draw(_near_limit if key == "prior" else _near_limit_matrix(d))
    return params


_reference_near_limit = _reference() | st.lists(_complex_near_limit, min_size=1, max_size=4)
_theta_near_limit = _limits | st.floats(allow_nan=False, allow_infinity=False)
_near_limit_truncation = st.integers(1, 6) | st.just(64)
_near_limit_parameters = {
    "bayes": _bayes_near_limit(),
    "retrodict": _retrodict_near_limit(),
    "detector": st.fixed_dictionaries(
        {"counts": st.integers(0, 3), "efficiency": _near_limit,
         "truncation": _near_limit_truncation}),
    "synthesis": st.fixed_dictionaries(
        {"reference": _reference_near_limit, "counts_b": st.integers(0, 3),
         "counts_c": st.integers(0, 3), "theta": _theta_near_limit,
         "truncation": _near_limit_truncation}),
    "scissors": st.fixed_dictionaries(
        {"reference": _reference_near_limit, "theta": _theta_near_limit,
         "truncation": _near_limit_truncation}),
}
_near_limit_documents = st.sampled_from(sorted(_near_limit_parameters)).flatmap(
    lambda kind: st.fixed_dictionaries(
        {"kind": st.just(kind), "parameters": _near_limit_parameters[kind]}))


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=_near_limit_documents)
def test_documents_near_the_double_limit_exit_0_3_or_4_without_warnings(fuzz_dir, doc):
    path = write_scenario(fuzz_dir, doc)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.run(path)
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_COMPUTATION), err.getvalue()
    if code == EXIT_OK:
        assert err.getvalue() == ""
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == ""
        assert json.loads(err.getvalue())["error"]["exit_code"] == code


# Schema-valid bb84 documents over the seed's whole range: small ints,
# ints of up to 4300 digits (Python's default limit for converting a
# decimal string), and integral floats up to the largest double.
_bb84_seeds = st.one_of(
    st.integers(0, 2 ** 64),
    st.integers(1, 4300).flatmap(lambda n: st.integers(10 ** (n - 1), 10 ** n - 1)),
    st.floats(0, 1.7976931348623157e308).map(math.floor).map(float),
    st.just(1.7976931348623157e308))
_bb84_documents = st.fixed_dictionaries({"kind": st.just("bb84"), "parameters": (
    st.fixed_dictionaries({"slots": st.integers(1, 10 ** 4), "seed": _bb84_seeds,
                           "attack": st.sampled_from(["none", "intercept_resend"]),
                           "include_records": st.booleans()}))})


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=_bb84_documents)
@example(doc={"kind": "bb84", "parameters": {"slots": 10 ** 4, "seed": 10 ** 4300 - 1,
                                             "attack": "intercept_resend",
                                             "include_records": True}})
def test_bb84_documents_over_the_whole_seed_range_exit_0(fuzz_dir, doc):
    params = doc["parameters"]
    path = write_scenario(fuzz_dir, doc)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.run(path)
    assert (code, err.getvalue()) == (EXIT_OK, "")
    result = json.loads(out.getvalue(), parse_constant=_reject_constant)
    assert result["diagnostics"]["seed"] == int(params["seed"])
    outputs = result["outputs"]
    assert sum(map(sum, outputs["arrays"]["outcome_counts"]["values"])) == params["slots"]
    if params["attack"] == "none":
        assert outputs["scalars"]["flagged"] == 0


# Documents over the integers' range and at the schema's minimum sizes:
# truncations from 1 to 256, above 64 one draw in eight, with every count
# from 0 to the truncation; one amplitude, 1 x 1 matrices, one event and
# one element; and, one retrodict draw in four, list lengths at the
# table-cell bound or one past it.  Truncations from 257 to the schema's
# 2000 are left to the documents at the truncation cap, whose runs take
# about a second and several hundred MB each.
def _rarely(common, rare, odds=8):
    """``rare`` one draw in ``odds``, ``common`` otherwise."""
    return st.sampled_from([common] * (odds - 1) + [rare]).flatmap(lambda strategy: strategy)


_wide_truncation = _rarely(st.integers(1, 64), st.integers(65, 256))
_one_amplitude = st.sampled_from([[[1, 0]], [[-1, 0]], [[0, 1]], [[0.6, -0.8]]])
_minimal_retrodict = {"events": [{"label": "e", "prior": 1, "state": [[[1, 0]]]}],
                      "pom": [{"label": "b", "element": [[[1, 0]]]}]}
_bound_shapes = st.sampled_from([(1001, 1000), (1000, 1000), (1000, 1001)])


@st.composite
def _optics_over_the_range(draw, kind):
    truncation = draw(_wide_truncation)
    count = st.integers(0, truncation)
    if kind == "detector":
        return {"counts": draw(count), "truncation": truncation,
                "efficiency": draw(st.floats(0.0, 1.0, exclude_min=True))}
    params = {"reference": draw(_one_amplitude | _reference()), "theta": draw(_reals),
              "truncation": truncation}
    if kind == "synthesis":
        params.update(counts_b=draw(count), counts_c=draw(count))
    return params


_range_parameters = {
    "retrodict": _rarely(_retrodict() | st.just(_minimal_retrodict), _bound_shapes.map(
        lambda km: retrodict_of_shape(*km)["parameters"]), odds=4),
    **{kind: _optics_over_the_range(kind) for kind in ("detector", "synthesis", "scissors")},
}


@pytest.mark.parametrize("kind", sorted(_range_parameters))
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_documents_over_the_integer_range_exit_0_3_or_4_without_warnings(fuzz_dir, kind,
                                                                         data):
    params = data.draw(_range_parameters[kind], label="parameters")
    path = write_scenario(fuzz_dir, {"kind": kind, "parameters": params})
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.run(path)
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_COMPUTATION), err.getvalue()
    past = kind == "retrodict" and (
        len(params["events"]) * len(params["pom"]) > cli.RETRODICT_CELL_CAP)
    if code == EXIT_OK:
        assert not past
        assert err.getvalue() == ""
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == ""
        error = json.loads(err.getvalue())["error"]
        assert error["exit_code"] == code
        assert past == (str(cli.RETRODICT_CELL_CAP) in error["message"])


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


def _walked_errors(value, schema):
    return [(cli._json_path(path), message)
            for path, _, _, message in cli._errors(value, schema)]


def _reference_errors(validator, value):
    return [(error.json_path, error.message) for error in validator.iter_errors(value)]


def _assert_agrees_with_jsonschema(doc):
    """The schema walk finds jsonschema's errors, in its order and words,
    and ``validate_document`` accepts, or rejects with the message, as
    ``jsonschema.validate`` does."""
    assert (_walked_errors(doc, cli._schema())
            == _reference_errors(_reference_validator(), doc))
    try:
        validate_document(doc)
        got = None
    except cli.ValidationError as error:
        got = str(error)
    assert got == _schema_message(doc)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(docs=_entry_documents())
def test_fast_validation_agrees_with_jsonschema(docs):
    for doc in docs:
        _assert_agrees_with_jsonschema(doc)


# Scalars at the edges of the schema's keywords: bools and integral floats
# against ``integer``, ``const: 1`` against ``true`` and ``1.0``, NaN,
# infinities and integers beyond double range against ``minimum`` and
# ``maximum``, and values either side of the caps on ``truncation`` and
# ``slots``.
_edge = st.sampled_from([
    1.0, 0.0, True, 2000.0, 1e6, math.nan, math.inf, -math.inf, HUGE, -HUGE,
    False, 1, 0, -1, -1.0, 0.5, 2000, 2001, 10 ** 6, 10 ** 6 + 1, 10 ** 7,
    10 ** 7 + 1, 1e7 + 1, None, "1", "none", [], {}])
_bundled_documents = st.sampled_from(list_examples()).map(
    lambda info: json.loads(Path(info.path).read_text(encoding="utf-8")))


def _scalar_paths(node, path=()):
    """Paths to the scalars of a document, not into arrays nested in arrays."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = [(i, item) for i, item in enumerate(node)
                 if not isinstance(item, list)]
    else:
        yield path
        return
    for key, item in items:
        yield from _scalar_paths(item, path + (key,))


@st.composite
def _edge_documents(draw):
    """A document of any kind with one or two scalars other than its kind
    swapped for edge values, ``schema_version`` or an unknown key set,
    records asked for at the slot caps, or its parameters dropped.  Most
    start from a bundled scenario, so that the edit alone decides whether
    they are valid."""
    doc = copy.deepcopy(draw(st.one_of(_bundled_documents, _bundled_documents,
                                       _bundled_documents, _documents)))
    edit = draw(st.sampled_from(["swap"] * 4 + ["top", "unknown", "records",
                                                 "drop"]))
    params = doc.get("parameters")
    if edit == "drop":
        doc.pop("parameters", None)
    elif edit == "top":
        doc[draw(st.sampled_from(["schema_version", "unknown"]))] = draw(_edge)
    elif edit == "unknown" and isinstance(params, dict):
        params["unknown"] = draw(_edge)
    elif edit == "records" and doc["kind"] == "bb84" and isinstance(params, dict):
        params.update(include_records=True, slots=draw(st.sampled_from(
            [10 ** 6, 1e6, 10 ** 6 + 1, 1e6 + 1, 10 ** 7])))
    else:
        paths = [path for path in _scalar_paths(doc)
                 if path != ("kind",)] or [("parameters",)]
        for path in draw(st.lists(st.sampled_from(paths), min_size=1,
                                  max_size=2, unique=True)):
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = draw(_edge)
    return doc


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=_edge_documents())
def test_schema_walk_agrees_with_jsonschema_on_scalar_edges(doc):
    _assert_agrees_with_jsonschema(doc)
