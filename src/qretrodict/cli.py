"""Scenario-driven command line front end.

A scenario is a single JSON document naming a computation kind (bayes,
retrodict, detector, synthesis, scissors or bb84) and its parameters;
the result document echoes the scenario and carries named probability
tables, labelled real arrays, complex operators, scalars and
diagnostics.  Output is deterministic: the same scenario file always
produces byte-identical JSON.

Exit codes: 0 success, 2 unreadable/unparsable scenario, 3 validation
failure (schema or domain invariants; the schema caps ``truncation`` at
2000 photons, so a truncation of 10^5 exits 3 before any allocation),
4 computation failure (for example conditioning on a zero-probability
outcome, or a scenario too large for the available memory).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
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


@functools.cache
def _validator():
    """The shipped schema's validator, built once per process.

    The schema itself is checked against its meta-schema by the test
    suite, not on every run.
    """
    ref = resources.files("qretrodict").joinpath("schema", SCHEMA_RESOURCE)
    schema = json.loads(ref.read_text(encoding="utf-8"))
    return jsonschema.validators.validator_for(schema)(schema)


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


def _parse_complex(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def _parse_vector(entries) -> tuple:
    return tuple(_parse_complex(pair) for pair in entries)


def _parse_matrix(rows) -> np.ndarray:
    try:
        return np.array([[_parse_complex(entry) for entry in row] for row in rows],
                        dtype=complex)
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
    space = bayes.EventSpace(labels, params["priors"])
    cond = bayes.ConditionalTable(labels, outcomes, params["conditional"])
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
        (e["label"], e["prior"], Operator(_parse_matrix(e["state"])))
        for e in params["events"]))
    pom = retrodict.Pom(tuple(
        (p["label"], Operator(_parse_matrix(p["element"])))
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

        def posterior(op, a):
            return retrodict.retro_conditional_unbiased(prep, op, a)

        outcome_dist = [retrodict.outcome_prior(op) for _, op in pom.elements]
    else:
        lam = retrodict.BiasedElements.from_ensemble(ens)
        outcome_dist = [sum(prior * retrodict.born_probability(state, op)
                            for _, prior, state in ens.events)
                        for _, op in pom.elements]
        weights = dict(zip(pom.labels, outcome_dist))

        def posterior(op, a):
            return retrodict.retro_conditional_biased(lam, op, a)

    result.tables["outcome_distribution"] = _table(
        ["prior"], pom.labels, [outcome_dist])
    active, skipped, rows = [], [], []
    for label, op in pom.elements:
        if weights[label] <= retrodict.TRACE_TOL:
            skipped.append(label)
            continue
        active.append(label)
        rows.append([posterior(op, a) for a in ens.labels])
    if active:
        result.tables["retrodictive"] = _table(active, ens.labels, rows)
    if skipped:
        result.diagnostics["zero_probability_outcomes"] = skipped


def _run_detector(params: dict, result: ResultDocument):
    space = optics.FockSpace(params["truncation"])
    op = optics.inefficient_detector_retro(params["counts"],
                                           params["efficiency"], space)
    diagonal = np.diag(op.mat).real
    trace = float(diagonal.sum())
    result.operators["retro_state"] = _serialize_operator(op)
    result.arrays["photon_number_weights"] = _array(
        ["weight"], [str(k) for k in range(space.dim)], [diagonal])
    result.scalars["trace"] = trace
    result.diagnostics["truncation_tail_deficit"] = max(0.0, 1.0 - trace)


def _run_synthesis(params: dict, result: ResultDocument):
    ref = optics.ReferenceState(_parse_vector(params["reference"]))
    space = optics.FockSpace(params["truncation"])
    bs = optics.BeamSplitter(params["theta"])
    op = optics.projection_synthesis_retro(ref, params["counts_b"],
                                           params["counts_c"], bs, space)
    result.operators["retro_state"] = _serialize_operator(op)
    result.scalars["purity"] = float(np.trace(op.mat @ op.mat).real)
    result.diagnostics["support_photon_limit"] = (
        int(params["counts_b"]) + int(params["counts_c"]))


def _run_scissors(params: dict, result: ResultDocument):
    ref = optics.ReferenceState(_parse_vector(params["reference"]))
    space = optics.FockSpace(params["truncation"])
    bs = optics.BeamSplitter(params["theta"])
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
    """Check a parsed scenario document against the shipped schema."""
    error = jsonschema.exceptions.best_match(_validator().iter_errors(doc))
    if error is not None:
        raise ValidationError(
            f"scenario does not match the schema at {error.json_path}: {error.message}"
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


def render_json(result: ResultDocument) -> str:
    return json.dumps(result.to_json_obj(), indent=2, sort_keys=True) + "\n"


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
    print(json.dumps(report, indent=2, sort_keys=True), file=sys.stderr)
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
