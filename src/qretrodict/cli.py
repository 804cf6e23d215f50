"""Scenario-driven command line front end.

A scenario is a single JSON document naming a computation kind (bayes,
retrodict, detector, synthesis, scissors or bb84) and its parameters;
the result document echoes the scenario and carries named probability
tables, labelled real arrays, complex operators, scalars and
diagnostics.  Output is deterministic: the same scenario file always
produces byte-identical JSON.

Exit codes: 0 success, 2 unreadable/unparsable scenario, 3 validation
failure (schema or domain invariants; the schema caps ``truncation`` at
2000 photons and BB84 ``slots`` at 10^7, or 10^6 with records, so
oversized documents exit 3 before any allocation; an integer beyond the
double-precision range where a real number is expected also exits 3),
4 computation failure (for example conditioning on a zero-probability
outcome, or a scenario too large for the available memory).

Validation is one pass over the matrix and vector entries: a shallow
copy of the shipped schema checks everything but those entries, and a
plain loop checks the entries.  Any rejection re-runs the full schema,
which alone writes the error message.

JSON output is byte for byte ``json.dumps(doc, indent=2, sort_keys=True)``
and a newline, but each rectangular number array is encoded one row at a
time by the C encoder and poured into a template of its indented layout.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

import jsonschema
import numpy as np

from . import bayes, bb84, optics, retrodict
from .errors import (
    ComputationError,
    NumericIntegrityError,
    ValidationError,
)
from .hilbert import Operator

SCHEMA_VERSION = 1
SCHEMA_RESOURCE = "scenario-v1.schema.json"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_COMPUTATION = 4

#: Every emitted probability-table row must sum to 1 within this tolerance.
TABLE_ROW_SUM_TOL = 1e-9

KINDS = ("bayes", "retrodict", "detector", "synthesis", "scissors", "bb84")


#: Where the schema puts ``$defs/matrix`` and ``$defs/vector``: per kind,
#: a path into its parameters (``"*"`` for every item of an array) and
#: the definition found there.  The shallow validator checks these only
#: down to their outer array; :func:`_entries_ok` checks the rest.
_ENTRY_SITES = {
    "retrodict": {("events", "*", "state"): "matrix",
                  ("pom", "*", "element"): "matrix"},
    "synthesis": {("reference",): "vector"},
    "scissors": {("reference",): "vector"},
}

#: Python types of a JSON number, as a parsed document holds them.
_NUMBER_TYPES = frozenset((int, float))


@functools.cache
def _schema() -> dict:
    ref = resources.files("qretrodict").joinpath("schema", SCHEMA_RESOURCE)
    return json.loads(ref.read_text(encoding="utf-8"))


def _compile(schema: dict):
    return jsonschema.validators.validator_for(schema)(schema)


@functools.cache
def _validator():
    """The shipped schema's validator, built once per process.

    Only a rejected document needs it.  The schema itself is checked
    against its meta-schema by the test suite, not on every run.
    """
    return _compile(_schema())


@functools.cache
def _shallow_validator():
    """The shipped schema with matrices and vectors cut to their outer array."""
    schema = _schema()
    defs = dict(schema["$defs"])
    for name in _ENTRY_CHECKS:
        defs[name] = {k: v for k, v in defs[name].items() if k != "items"}
    return _compile(dict(schema, **{"$defs": defs}))


def _at(node, path):
    """Every value at ``path`` below ``node``; ``"*"`` walks array items."""
    if not path:
        yield node
    elif path[0] == "*":
        for item in node:
            yield from _at(item, path[1:])
    elif path[0] in node:
        yield from _at(node[path[0]], path[1:])


def _complex_entries_ok(entries) -> bool:
    """Whether every entry matches ``$defs/complex``: two numbers, no bool."""
    for z in entries:
        if (type(z) is not list or len(z) != 2
                or type(z[0]) not in _NUMBER_TYPES
                or type(z[1]) not in _NUMBER_TYPES):
            return False
    return True


def _matrix_ok(rows) -> bool:
    return all(type(row) is list and row and _complex_entries_ok(row)
               for row in rows)


_ENTRY_CHECKS = {"matrix": _matrix_ok, "vector": _complex_entries_ok}


def _entries_ok(doc) -> bool:
    """The part of the schema the shallow validator leaves out.

    Only called on documents the shallow validator accepts, so the kind
    is known and its parameters exist.  Stricter than jsonschema on
    Python objects no JSON text parses to (a list subclass, a complex
    number): those take the full schema's route.
    """
    sites = _ENTRY_SITES.get(doc["kind"], {})
    return all(_ENTRY_CHECKS[name](value)
               for path, name in sites.items()
               for value in _at(doc["parameters"], path))


@dataclass(frozen=True, eq=False)
class Scenario:
    """A validated scenario document."""

    kind: str
    parameters: dict
    description: str = ""
    document: dict = field(default_factory=dict)


@dataclass(eq=False)
class ResultDocument:
    """Computed outputs of one scenario run.

    ``tables`` holds row-stochastic probability tables (asserted on
    emission), ``arrays`` labelled real matrices without that guarantee,
    ``operators`` complex matrices, ``scalars`` named numbers.
    """

    scenario: dict
    tables: dict = field(default_factory=dict)
    arrays: dict = field(default_factory=dict)
    operators: dict = field(default_factory=dict)
    scalars: dict = field(default_factory=dict)
    records: Optional[list] = None
    diagnostics: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        self._assert_table_rows()
        outputs = {
            "tables": self.tables,
            "arrays": self.arrays,
            "operators": self.operators,
            "scalars": self.scalars,
        }
        if self.records is not None:
            outputs["records"] = self.records
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "outputs": outputs,
            "diagnostics": self.diagnostics,
        }

    def _assert_table_rows(self):
        for name, table in self.tables.items():
            for row_label, row in zip(table["rows"], table["values"]):
                total = sum(row)
                if abs(total - 1.0) > TABLE_ROW_SUM_TOL:
                    raise NumericIntegrityError(
                        f"table {name!r} row {row_label!r} sums to {total!r}, "
                        f"expected 1"
                    )


def _out_of_range(where: str) -> ValidationError:
    return ValidationError(
        f"{where} holds a number outside the double-precision range")


def _real(value, where: str) -> float:
    """A JSON number as a float.

    JSON integers are unbounded, so one that passes the schema as a
    ``number`` can still be too large for a double.
    """
    try:
        return float(value)
    except OverflowError:
        raise _out_of_range(where) from None


def _parse_vector(entries, where: str) -> tuple:
    try:
        return tuple(complex(float(re), float(im)) for re, im in entries)
    except OverflowError:
        raise _out_of_range(where) from None


def _parse_matrix(rows, where: str) -> np.ndarray:
    rows = [_parse_vector(row, where) for row in rows]
    try:
        return np.array(rows, dtype=complex)
    except ValueError as exc:
        raise ValidationError(f"malformed matrix: {exc}") from None


def _serialize_operator(op: Operator) -> dict:
    return {
        "dims": [int(d) for d in op.dims.dims],
        "matrix": [[[z.real, z.imag] for z in row] for row in op.mat.tolist()],
    }


def _table(rows, cols, values) -> dict:
    return {
        "rows": [str(r) for r in rows],
        "cols": [str(c) for c in cols],
        "values": [[float(x) for x in row] for row in values],
    }


def _array(rows, cols, values, integral=False) -> dict:
    cast = int if integral else float
    return {
        "rows": [str(r) for r in rows],
        "cols": [str(c) for c in cols],
        "values": [[cast(x) for x in row] for row in values],
    }


def _run_bayes(params: dict, result: ResultDocument):
    labels = tuple(params["events"])
    outcomes = tuple(params["outcomes"])
    space = bayes.EventSpace(labels, [_real(p, "priors")
                                      for p in params["priors"]])
    cond = bayes.ConditionalTable(labels, outcomes, [
        [_real(p, "conditional") for p in row] for row in params["conditional"]])
    joint = bayes.joint(space, cond)
    marginal = bayes.predict_marginal(space, cond)
    result.arrays["joint"] = _array(labels, outcomes, joint)
    result.tables["outcome_marginal"] = _table(["marginal"], outcomes, [marginal])
    observed = params.get("observed")
    if observed is not None:
        posterior = bayes.retrodict_conditional(space, cond, observed)
        result.tables["posterior"] = _table([observed], labels, [posterior])
    else:
        active, skipped, rows = [], [], []
        for j, outcome in enumerate(outcomes):
            if marginal[j] <= 0.0:
                skipped.append(outcome)
                continue
            active.append(outcome)
            rows.append(bayes.retrodict_conditional(space, cond, outcome))
        if active:
            result.tables["posterior"] = _table(active, labels, rows)
        if skipped:
            result.diagnostics["zero_probability_outcomes"] = skipped


def _run_retrodict(params: dict, result: ResultDocument):
    ens = retrodict.PreparationEnsemble(tuple(
        (e["label"], _real(e["prior"], f"prior of event {e['label']!r}"),
         Operator(_parse_matrix(e["state"], f"state of event {e['label']!r}")))
        for e in params["events"]))
    pom = retrodict.Pom(tuple(
        (p["label"],
         Operator(_parse_matrix(p["element"], f"POM element {p['label']!r}")))
        for p in params["pom"]))
    pred_rows = [[retrodict.born_probability(ens.state(a), op)
                  for _, op in pom.elements] for a in ens.labels]
    result.tables["predictive"] = _table(ens.labels, pom.labels, pred_rows)

    unbiased = retrodict.is_unbiased(ens)
    d = ens.dims.total_dim
    mixture_dev = float(np.max(np.abs(ens.mixture().mat - np.eye(d) / d)))
    result.diagnostics["source"] = "unbiased" if unbiased else "biased"
    result.diagnostics["mixture_deviation"] = mixture_dev

    if unbiased:
        prep = retrodict.preparation_pom(ens)
        weights = {label: np.trace(op.mat).real for label, op in pom.elements}

        def posterior_row(op):
            return retrodict.retro_conditional_unbiased(prep, op)

        outcome_dist = [retrodict.outcome_prior(op) for _, op in pom.elements]
    else:
        lam = retrodict.BiasedElements.from_ensemble(ens)
        outcome_dist = [sum(prior * retrodict.born_probability(state, op)
                            for _, prior, state in ens.events)
                        for _, op in pom.elements]
        weights = dict(zip(pom.labels, outcome_dist))

        def posterior_row(op):
            return retrodict.retro_conditional_biased(lam, op)

    result.tables["outcome_distribution"] = _table(
        ["prior"], pom.labels, [outcome_dist])
    active, skipped, rows = [], [], []
    for label, op in pom.elements:
        if weights[label] <= retrodict.TRACE_TOL:
            skipped.append(label)
            continue
        active.append(label)
        rows.append(posterior_row(op))
    if active:
        result.tables["retrodictive"] = _table(active, ens.labels, rows)
    if skipped:
        result.diagnostics["zero_probability_outcomes"] = skipped


def _run_detector(params: dict, result: ResultDocument):
    space = optics.FockSpace(params["truncation"])
    op = optics.inefficient_detector_retro(
        params["counts"], _real(params["efficiency"], "efficiency"), space)
    diagonal = np.diag(op.mat).real
    trace = float(diagonal.sum())
    result.operators["retro_state"] = _serialize_operator(op)
    result.arrays["photon_number_weights"] = _array(
        ["weight"], [str(k) for k in range(space.dim)], [diagonal])
    result.scalars["trace"] = trace
    result.diagnostics["truncation_tail_deficit"] = max(0.0, 1.0 - trace)


def _run_synthesis(params: dict, result: ResultDocument):
    ref = optics.ReferenceState(_parse_vector(params["reference"], "reference"))
    space = optics.FockSpace(params["truncation"])
    bs = optics.BeamSplitter(_real(params["theta"], "theta"))
    op = optics.projection_synthesis_retro(ref, params["counts_b"],
                                           params["counts_c"], bs, space)
    result.operators["retro_state"] = _serialize_operator(op)
    result.scalars["purity"] = float(np.trace(op.mat @ op.mat).real)
    result.diagnostics["support_photon_limit"] = (
        int(params["counts_b"]) + int(params["counts_c"]))


def _run_scissors(params: dict, result: ResultDocument):
    ref = optics.ReferenceState(_parse_vector(params["reference"], "reference"))
    space = optics.FockSpace(params["truncation"])
    bs = optics.BeamSplitter(_real(params["theta"], "theta"))
    op = optics.scissors_output(ref, bs, space)
    result.operators["output_state"] = _serialize_operator(op)
    result.scalars["purity"] = float(np.trace(op.mat @ op.mat).real)
    result.scalars["vacuum_weight"] = float(op.mat[0, 0].real)
    result.scalars["one_photon_weight"] = float(op.mat[1, 1].real)


def _run_bb84(params: dict, result: ResultDocument):
    pred = bb84.predictive_table()
    retro = bb84.retrodictive_table()
    result.tables["predictive"] = _table(pred.row_labels, pred.col_labels,
                                         pred.probs)
    result.tables["retrodictive"] = _table(retro.row_labels, retro.col_labels,
                                           retro.probs)
    slots = params.get("slots")
    if slots is None:
        return
    seed = params.get("seed", 0)
    attack = params.get("attack", "none")
    records, summary = bb84.simulate_slots(slots, seed, attack)
    result.arrays["outcome_counts"] = _array(bb84.LABELS, bb84.LABELS,
                                             summary.outcome_counts,
                                             integral=True)
    result.arrays["empirical_frequencies"] = _array(
        bb84.LABELS, bb84.LABELS, summary.conditional_frequencies())
    result.scalars["flagged"] = summary.flagged
    result.scalars["same_basis_slots"] = summary.same_basis_slots
    result.scalars["same_basis_errors"] = summary.same_basis_errors
    result.scalars["same_basis_error_rate"] = summary.same_basis_error_rate
    result.diagnostics["slots"] = int(slots)
    result.diagnostics["seed"] = int(seed)
    result.diagnostics["attack"] = attack
    if params.get("include_records", False):
        result.records = [
            {"alice_choice": r.alice_choice, "bob_basis": r.bob_basis,
             "bob_outcome": r.bob_outcome} for r in records
        ]


_RUNNERS = {
    "bayes": _run_bayes,
    "retrodict": _run_retrodict,
    "detector": _run_detector,
    "synthesis": _run_synthesis,
    "scissors": _run_scissors,
    "bb84": _run_bb84,
}


def validate_document(doc) -> Scenario:
    """Check a parsed scenario document against the shipped schema.

    A valid document costs one pass over its matrix entries: the shallow
    validator, then the entry check.  If either rejects it, the full
    schema decides and writes the message, exactly as
    ``jsonschema.validate`` would.
    """
    if not (_shallow_validator().is_valid(doc) and _entries_ok(doc)):
        error = jsonschema.exceptions.best_match(_validator().iter_errors(doc))
        if error is not None:
            raise ValidationError(
                f"scenario does not match the schema at {error.json_path}: "
                f"{error.message}"
            )
    return Scenario(kind=doc["kind"], parameters=doc.get("parameters", {}),
                    description=doc.get("description", ""), document=doc)


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file.

    Raises OSError or json.JSONDecodeError for unreadable input and
    ValidationError for schema violations.
    """
    text = Path(path).read_text(encoding="utf-8")
    return validate_document(json.loads(text))


def execute(scenario: Scenario) -> ResultDocument:
    """Run a validated scenario and collect its outputs."""
    result = ResultDocument(scenario=scenario.document)
    _RUNNERS[scenario.kind](scenario.parameters, result)
    return result


#: Without an indent, ``encode`` runs the C encoder.  No rendered value
#: holds itself, so its circular-reference bookkeeping is skipped.
_ENCODER = json.JSONEncoder(check_circular=False)


def _numeric_array(value):
    """Shape and flat leaves of a rectangular nested list of numbers, else None."""
    shape, flat = [], [value]
    while True:
        lengths = set(map(len, flat))
        if len(lengths) > 1 or 0 in lengths:
            return None
        shape += lengths
        flat = list(itertools.chain.from_iterable(flat))
        kinds = set(map(type, flat))
        if kinds <= _NUMBER_TYPES:
            return shape, flat
        if kinds != {list}:
            return None


def _template(shape, nl: str) -> str:
    """``%s`` slots laid out as an indented array of ``shape`` starting at ``nl``."""
    if not shape:
        return "%s"
    inner = nl + "  "
    slots = [_template(shape[1:], inner)] * shape[0]
    return "[" + inner + ("," + inner).join(slots) + nl + "]"


def _emit(value, nl: str, out: list):
    """Append the text of ``value`` to ``out``; ``nl`` starts its lines.

    Dict keys are strings, as in every document the CLI writes.
    """
    inner = nl + "  "
    if isinstance(value, dict) and value:
        out.append("{")
        for key, item in sorted(value.items()):
            out += (inner, _ENCODER.encode(key), ": ")
            _emit(item, inner, out)
            out.append(",")
        out[-1] = nl + "}"
    elif isinstance(value, (list, tuple)) and value:
        array = _numeric_array(value)
        out.append("[")
        if array is None:
            for item in value:
                out.append(inner)
                _emit(item, inner, out)
                out.append(",")
        else:
            # One outermost row at a time, so only one row's number texts
            # exist at once.  No number's text holds the separator ", ".
            shape, flat = array
            row, size = _template(shape[1:], inner), len(flat) // shape[0]
            for start in range(0, len(flat), size):
                numbers = _ENCODER.encode(flat[start:start + size])[1:-1]
                out += (inner, row % tuple(numbers.split(", ")), ",")
        out[-1] = nl + "]"
    else:
        out.append(_ENCODER.encode(value))


def _dumps(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` and a newline, byte for byte."""
    out = []
    _emit(value, "\n", out)
    out.append("\n")
    return "".join(out)


def render_json(result: ResultDocument) -> str:
    return _dumps(result.to_json_obj())


def render_csv(result: ResultDocument) -> str:
    result._assert_table_rows()
    if not result.tables:
        raise ValidationError(
            "CSV output covers probability tables only, and this scenario "
            "produced none; use --format json"
        )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["table", "row", "col", "value"])
    for name, table in result.tables.items():
        for row_label, row in zip(table["rows"], table["values"]):
            for col_label, value in zip(table["cols"], row):
                writer.writerow([name, row_label, col_label, repr(value)])
    return buf.getvalue()


def _report_error(category: str, code: int, message: str) -> int:
    report = {"error": {"category": category, "exit_code": code,
                        "message": message}}
    sys.stderr.write(_dumps(report))
    return code


def run(scenario_path, output_format: str = "json", out_path=None) -> int:
    """Execute a scenario file and write the result document.

    Returns the process exit code instead of raising.
    """
    try:
        scenario = load_scenario(scenario_path)
    except (OSError, json.JSONDecodeError) as exc:
        return _report_error("parse", EXIT_PARSE,
                             f"cannot read scenario {scenario_path!r}: {exc}")
    except ValidationError as exc:
        return _report_error("validation", EXIT_VALIDATION, str(exc))
    try:
        result = execute(scenario)
        rendered = render_json(result) if output_format == "json" \
            else render_csv(result)
    except ValidationError as exc:
        return _report_error("validation", EXIT_VALIDATION, str(exc))
    except ComputationError as exc:
        return _report_error("computation", EXIT_COMPUTATION, str(exc))
    except MemoryError as exc:
        return _report_error("computation", EXIT_COMPUTATION,
                             f"not enough memory for this scenario: {exc}")
    if out_path is None:
        sys.stdout.write(rendered)
    else:
        try:
            Path(out_path).write_text(rendered, encoding="utf-8")
        except OSError as exc:
            return _report_error("io", 1, f"cannot write {out_path!r}: {exc}")
    return EXIT_OK


@dataclass(frozen=True)
class ExampleInfo:
    """One bundled scenario file."""

    name: str
    kind: str
    description: str
    path: str


def list_examples() -> tuple:
    """Catalog of the scenario files shipped with the package."""
    base = resources.files("qretrodict").joinpath("scenarios")
    entries = []
    for item in sorted(base.iterdir(), key=lambda p: p.name):
        if not item.name.endswith(".json"):
            continue
        doc = json.loads(item.read_text(encoding="utf-8"))
        entries.append(ExampleInfo(
            name=item.name[:-len(".json")],
            kind=doc.get("kind", "?"),
            description=doc.get("description", ""),
            path=str(item),
        ))
    return tuple(entries)


def _examples_command() -> int:
    for info in list_examples():
        print(f"{info.name} [{info.kind}]: {info.description}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qretrodict",
        description="Quantum retrodiction calculator driven by JSON scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute a scenario file")
    run_parser.add_argument("scenario", help="path to a scenario JSON file")
    run_parser.add_argument("--out", default=None,
                            help="write the result here instead of stdout")
    run_parser.add_argument("--format", choices=("json", "csv"), default="json",
                            help="output format (csv covers probability tables only)")
    sub.add_parser("examples", help="list the bundled scenario files")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.scenario, output_format=args.format, out_path=args.out)
    return _examples_command()


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
