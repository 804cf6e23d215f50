"""Scenario-driven command line front end.

A scenario is a single JSON document naming a computation kind (bayes,
retrodict, detector, synthesis, scissors or bb84) and its parameters;
the result document echoes the scenario and carries named probability
tables, labelled real arrays, complex operators, scalars and
diagnostics.  Output is deterministic: the same scenario file always
produces byte-identical JSON, byte for byte ``json.dumps(doc, indent=2,
sort_keys=True)`` and a newline.  Every byte written, to standard output
or to an ``--out`` file, is UTF-8.

Exit codes, one per error category; the category's JSON error document
goes to standard error where it can be written, and the code is the same
either way:

- 0 success;
- 1 ``io``: an ``--out`` path or a standard output that cannot be written
  (a reader that has gone before the end, or one closed at start,
  included), for ``run`` and ``examples`` alike;
- 2 ``parse``: an unreadable or unparsable scenario (text that is not
  UTF-8, nesting too deep for the parser and an integer of more digits
  than ``sys.get_int_max_str_digits()`` included);
- 3 ``validation``: schema or domain invariants, an integer beyond the
  double-precision range where a real number is expected, or a result
  with no UTF-8 text (a CSV label holding a lone surrogate).  The schema
  caps ``truncation`` at 2000 photons and BB84 ``slots`` at 10^7, or 10^6
  with records, so oversized documents exit 3 before any allocation, as do
  a file past ``SCENARIO_BYTE_CAP`` and a ``retrodict`` run past its shape
  bounds.  A schema rejection quotes at most ``SCHEMA_QUOTE_CAP``
  characters of each value it names;
- 4 ``computation``: for example conditioning on an outcome of zero
  probability, or a scenario too large for the available memory, while
  it is read or run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import functools
import io
import itertools
import json
import os
import stat
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from . import bayes, bb84, optics, retrodict
from .errors import (
    TOL,
    TRACE_TOL,
    BiasedSourceError,
    ComputationError,
    NumericIntegrityError,
    ValidationError,
    ZeroProbabilityError,
)
from .hilbert import Operator, _check_square_finite

SCHEMA_VERSION = 1
SCHEMA_RESOURCE = "scenario-v1.schema.json"

EXIT_OK = 0
#: The exit code of each error category: the one place the two meet.
_EXIT_CODES = {"io": 1, "parse": 2, "validation": 3, "computation": 4}
_, EXIT_PARSE, EXIT_VALIDATION, EXIT_COMPUTATION = _EXIT_CODES.values()

#: The longest scenario file read, in bytes; parsing takes 6 to 24 times that.
SCENARIO_BYTE_CAP = 16 * 2 ** 20
_READ_CHUNK = 2 ** 16  # bytes per read of a scenario that is not a regular file
#: The most cells of a ``retrodict`` table, k events by m POM elements, and
#: the most overlap terms k*m*d^2 on dimension d: the cell bound at d = 16.
RETRODICT_CELL_CAP = 10 ** 6
RETRODICT_OVERLAP_CAP = 16 ** 2 * RETRODICT_CELL_CAP
#: The most characters of a document value's repr that a schema rejection quotes.
SCHEMA_QUOTE_CAP = 4096

#: Python types of a JSON number, as a parsed document holds them.
_NUMBER_TYPES = frozenset((int, float))


@functools.cache
def _schema() -> dict:
    ref = resources.files("qretrodict").joinpath("schema", SCHEMA_RESOURCE)
    return json.loads(ref.read_text(encoding="utf-8"))


def _is_number(value) -> bool:
    return type(value) is not bool and isinstance(value, (int, float))


#: Draft 2020-12 ``type`` tests: a bool is no number, and an integral
#: float such as ``1.0`` is an ``integer``.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}


def _equal(value, expected) -> bool:
    """``const`` and ``enum`` equality against a scalar: ``true`` is not ``1``."""
    return isinstance(value, bool) is isinstance(expected, bool) and value == expected


def _number_array(value):
    """The shape, the numbers in C order and their types, if ``value`` is a
    non-empty list of plain lists nested into a rectangular array of
    numbers, else None.  One flat pass per level, without a loop in Python;
    a list whose first item is neither a list nor a number is declined at once."""
    if type(value) is not list or not value:
        return None
    shape, flat = [len(value)], value
    while type(flat[0]) is list:
        if set(map(type, flat)) != {list}:
            return None
        widths = set(map(len, flat))
        if len(widths) > 1 or 0 in widths:
            return None
        shape += widths
        flat = list(itertools.chain.from_iterable(flat))
    if type(flat[0]) not in _NUMBER_TYPES:
        return None
    kinds = set(map(type, flat))
    return (tuple(shape), flat, kinds) if kinds <= _NUMBER_TYPES else None


def _pair_array(rows, array, where: str) -> tuple:
    """The matrix ``rows`` as a ``(rows, cols, 2)`` float64 array of
    ``[re, im]`` pairs, and the value that echoes it: the array, or
    ``rows`` if it holds an integer, since ``1`` must not render as ``1.0``.

    ``array`` is what :func:`_number_array` gave for ``rows`` during
    validation, or None, and then the numbers are gathered from ``rows``,
    whose lists and numbers may be subclasses and whose rows may be
    ragged.  A matrix no such array can hold raises a ValidationError: an
    integer beyond the double range, found first, names the matrix
    ``where``; ragged rows are a malformed matrix.
    """
    if array is None:
        flat = list(itertools.chain.from_iterable(itertools.chain.from_iterable(rows)))
        widths = set(map(len, rows))
        shape = (len(rows), widths.pop(), 2) if len(widths) == 1 else None
        array = shape, flat, set(map(type, flat))
    shape, flat, kinds = array
    try:
        values = np.array(flat, dtype=np.float64)
    except OverflowError:
        raise _out_of_range(where) from None
    if shape is None:
        # numpy's words for ``np.array(rows, dtype=np.float64)``.
        raise ValidationError(
            "malformed matrix: setting an array element with a sequence. The "
            "requested array has an inhomogeneous shape after 1 dimensions. The "
            f"detected shape was ({len(rows)},) + inhomogeneous part.")
    values = values.reshape(shape)
    return values, rows if any(issubclass(kind, int) for kind in kinds) else values


#: The rows of the value at each of these references, a vector being a
#: matrix's one row.  Rows that :func:`_number_array` gives the shape
#: ``(rows, cols, 2)`` are valid as they stand; any other value (a bad
#: entry, ragged rows, or a list subclass) is walked entry by entry.
_FAST_REFS = {"#/$defs/vector": lambda entries: [entries],
              "#/$defs/matrix": lambda rows: rows}


def _quote(text: str) -> str:
    """``text`` cut to ``SCHEMA_QUOTE_CAP`` characters, the cut marked."""
    if len(text) <= SCHEMA_QUOTE_CAP:
        return text
    return f"{text[:SCHEMA_QUOTE_CAP]}... ({len(text) - SCHEMA_QUOTE_CAP} more characters)"


def _errors(value, schema, path=(), arrays=None):
    """Every way ``value`` breaks ``schema``, as ``(path, node, value, message)``.

    Walks as jsonschema 4.26's Draft 2020-12 ``iter_errors`` does, for
    exactly the keywords and forms the shipped schema uses: each node's
    keywords in the order it lists them, with jsonschema's message text.
    ``path`` leads from the document to ``value``, and ``node`` is the
    schema node holding the failed keyword.  Each subschema is an object
    (``items`` may be ``false``), ``additionalProperties`` is ``false``,
    each ``if`` has a ``then`` and each ``$ref`` is ``#/$defs/<name>``.
    Each keyword ignores values of other types, as the draft says, so NaN
    passes ``minimum``.  Stricter than jsonschema only on Python objects
    no JSON text parses to: a complex number is no ``number`` here.

    With a dict ``arrays``, the walk leaves in it, by path, every matrix
    and vector of ``value`` as :func:`_number_array` scanned it, or None
    where the entries were walked one by one.  It parses none of them.
    """
    for keyword, rule in schema.items():
        if keyword == "$ref":
            rows = _FAST_REFS[rule](value) if rule in _FAST_REFS else None
            array = None if rows is None else _number_array(rows)
            if array is None or array[0][2:] != (2,):
                array = None
                name = rule.removeprefix("#/$defs/")
                yield from _errors(value, _schema()["$defs"][name], path, arrays)
            if rows is not None and arrays is not None:
                arrays[path] = array
        elif keyword == "type":
            if not _TYPES[rule](value):
                yield path, schema, value, f"{_quote(repr(value))} is not of type {rule!r}"
        elif keyword == "const":
            if not _equal(value, rule):
                yield path, schema, value, f"{rule!r} was expected"
        elif keyword == "enum":
            if not any(_equal(value, e) for e in rule):
                yield path, schema, value, f"{_quote(repr(value))} is not one of {rule!r}"
        elif keyword == "allOf":
            for sub in rule:
                yield from _errors(value, sub, path, arrays)
        elif keyword == "if":
            if next(_errors(value, rule, path), None) is None:
                yield from _errors(value, schema["then"], path, arrays)
        elif isinstance(value, dict):
            if keyword == "required":
                for key in rule:
                    if key not in value:
                        yield path, schema, value, f"{key!r} is a required property"
            elif keyword == "properties":
                for key, sub in rule.items():
                    if key in value:
                        yield from _errors(value[key], sub, path + (key,), arrays)
            elif keyword == "additionalProperties":
                extra = [k for k in value if k not in schema.get("properties", ())]
                if extra:
                    names = _quote(", ".join(map(repr, sorted(extra))))
                    verb = "was" if len(extra) == 1 else "were"
                    yield (path, schema, value, "Additional properties are not "
                           f"allowed ({names} {verb} unexpected)")
        elif isinstance(value, list):
            prefix = len(schema.get("prefixItems", ()))
            if keyword == "minItems" and len(value) < rule:
                tail = "should be non-empty" if rule == 1 else "is too short"
                yield path, schema, value, f"{_quote(repr(value))} {tail}"
            elif keyword == "prefixItems":
                for i, (item, sub) in enumerate(zip(value, rule)):
                    yield from _errors(item, sub, path + (i,), arrays)
            elif keyword == "items" and len(value) > prefix:
                if rule is False:
                    extra = len(value) - prefix
                    rest = value[prefix:] if extra != 1 else value[prefix]
                    noun = "items" if prefix != 1 else "item"
                    yield (path, schema, value, f"Expected at most {prefix} "
                           f"{noun} but found {extra} extra: {_quote(repr(rest))}")
                else:
                    for i in range(prefix, len(value)):
                        yield from _errors(value[i], rule, path + (i,), arrays)
        elif _is_number(value):
            if keyword == "minimum" and value < rule:
                yield (path, schema, value,
                       f"{_quote(repr(value))} is less than the minimum of {rule!r}")
            elif keyword == "maximum" and value > rule:
                yield (path, schema, value,
                       f"{_quote(repr(value))} is greater than the maximum of {rule!r}")


def _relevance(error) -> tuple:
    """jsonschema's ``best_match`` key without ``anyOf``/``oneOf``: errors
    nearer the root first, then the later sibling, then one whose node's
    ``type`` the value does not match."""
    path, node, value, _ = error
    matches = "type" in node and _TYPES[node["type"]](value)
    return -len(path), path, not matches


def _json_path(path) -> str:
    """``path`` written as jsonschema's ``ValidationError.json_path``.

    Every key in a path is a property the schema names, and each is a
    plain identifier, which ``json_path`` writes unquoted.
    """
    return "$" + "".join(f"[{key}]" if isinstance(key, int) else "." + key
                         for key in path)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A validated scenario document.

    ``arrays`` holds, by path, each matrix and vector of the document as
    :func:`_number_array` scanned it during validation, or None; the run
    hands it to :func:`_pair_array` where it reads that matrix.
    """

    kind: str
    parameters: dict
    document: dict
    arrays: dict


@dataclass(eq=False)
class ResultDocument:
    """Computed outputs of one scenario run.

    ``tables`` holds row-stochastic probability tables (asserted on
    emission), ``arrays`` labelled real matrices without that guarantee,
    ``operators`` complex matrices, ``scalars`` named numbers.  An
    operator's ``matrix``, and each matrix of floats a ``retrodict``
    ``scenario`` echoes, is a float64 array of ``[re, im]`` pairs, which
    the renderer writes as nested lists.
    """

    scenario: dict
    tables: dict = field(default_factory=dict)
    arrays: dict = field(default_factory=dict)
    operators: dict = field(default_factory=dict)
    scalars: dict = field(default_factory=dict)
    records: Optional[list] = None
    diagnostics: dict = field(default_factory=dict)

    def _document(self) -> dict:
        """The result document as :func:`_emit` takes it, operator arrays kept."""
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
                if not abs(total - 1.0) <= TOL:
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


def _reference(scenario: Scenario) -> optics.ReferenceState:
    values, _ = _pair_array([scenario.parameters["reference"]],
                            scenario.arrays["parameters", "reference"], "reference")
    return optics.ReferenceState(values[0].view(np.complex128)[:, 0])


def _read_stack(scenario: Scenario, group: str, key: str, stack) -> tuple:
    """The ``OperatorStack`` of class ``stack`` holding the matrices
    ``parameters[group][i][key]``, and the items of ``group`` with each
    matrix replaced by its echo.

    Each item is read in document order, as an ``Operator`` would be
    built from it: its prior's range, then its matrix's range, shape and
    finiteness, each named as ``stack`` names it; the first fault raises.
    The stack checks none of the matrices again.
    """
    items, priors, matrices = [], [], []
    for i, item in enumerate(scenario.parameters[group]):
        if "prior" in item:
            priors.append(_real(item["prior"], stack._prior_name(item["label"])))
        values, echo = _pair_array(item[key], scenario.arrays["parameters", group, i, key],
                                   stack._name(item["label"]))
        matrices.append(values.view(np.complex128)[..., 0])
        _check_square_finite(matrices[-1])
        items.append(dict(item, **{key: echo}))
    labels = [item["label"] for item in items]
    fields = {name: priors for name in stack._fields}  # an ensemble's priors
    return stack._from_matrices(labels, matrices, fields), items


def _serialize_operator(op: Operator) -> dict:
    """``dims``, and the matrix as a ``(rows, cols, 2)`` array of real and
    imaginary parts: a view of the complex128 entries' own float64 pairs."""
    return {
        "dims": [int(d) for d in op.dims.dims],
        "matrix": op.mat.view(np.float64).reshape(op.mat.shape + (2,)),
    }


def _array(rows, cols, values) -> dict:
    return {
        "rows": [str(r) for r in rows],
        "cols": [str(c) for c in cols],
        "values": np.asarray(values).tolist(),
    }


def _run_bayes(scenario: Scenario, result: ResultDocument):
    params = scenario.parameters
    labels = tuple(params["events"])
    outcomes = tuple(params["outcomes"])
    space = bayes.EventSpace(labels, [_real(p, "priors")
                                      for p in params["priors"]])
    cond = bayes.ConditionalTable(labels, outcomes, [
        [_real(p, "conditional") for p in row] for row in params["conditional"]])
    joint = bayes.joint(space, cond)
    marginal = bayes.predict_marginal(space, cond)
    result.arrays["joint"] = _array(labels, outcomes, joint)
    result.tables["outcome_marginal"] = _array(["marginal"], outcomes, [marginal])
    observed = params.get("observed")
    # An outcome is impossible exactly where its posterior is undefined.
    rows, skipped = {}, []
    for outcome in outcomes if observed is None else (observed,):
        try:
            rows[outcome] = bayes.retrodict_conditional(space, cond, outcome)
        except ZeroProbabilityError:
            if observed is not None:
                raise
            skipped.append(outcome)
    if rows:
        result.tables["posterior"] = _array(rows, labels, list(rows.values()))
    if skipped:
        result.diagnostics["zero_probability_outcomes"] = skipped


def _check_retrodict_shape(params: dict):
    """Refuse a ``retrodict`` run whose tables would pass the cell or the
    overlap bound, from its list lengths and its first state's rows."""
    k, m, d = len(params["events"]), len(params["pom"]), len(params["events"][0]["state"])
    shape = f"retrodict tables of k = {k} events by m = {m} POM elements"
    if k * m > RETRODICT_CELL_CAP:
        raise ValidationError(f"{shape} would hold k*m = {k * m} cells, more than "
                              f"the bound of {RETRODICT_CELL_CAP}")
    if k * m * d * d > RETRODICT_OVERLAP_CAP:
        raise ValidationError(f"{shape} on dimension d = {d} would take k*m*d^2 = "
                              f"{k * m * d * d} overlap terms, more than the bound of "
                              f"{RETRODICT_OVERLAP_CAP}")


def _run_retrodict(scenario: Scenario, result: ResultDocument):
    _check_retrodict_shape(scenario.parameters)
    ens, events = _read_stack(scenario, "events", "state", retrodict.PreparationEnsemble)
    pom, elements = _read_stack(scenario, "pom", "element", retrodict.Pom)
    # Each matrix of floats is echoed from its array.
    result.scenario = dict(scenario.document, parameters=dict(
        scenario.parameters, events=events, pom=elements))
    predictive = pom.table(ens)
    result.tables["predictive"] = _array(ens.labels, pom.labels, predictive)

    d = ens.dims.total_dim
    result.diagnostics["mixture_deviation"] = float(
        np.max(np.abs(ens.mixture().mat - np.eye(d) / d)))
    try:
        source = retrodict.preparation_pom(ens)
    except BiasedSourceError:
        result.diagnostics["source"] = "biased"
        source = retrodict.BiasedElements.from_ensemble(ens)
        # Each outcome's weight: the builtin sum, in event order, of the prior-weighted rows.
        outcome_dist = weights = sum(ens.priors[:, None] * predictive)
        conditional = retrodict.retro_conditional_biased
    else:
        result.diagnostics["source"] = "unbiased"
        weights = retrodict._traces(pom.stack)
        outcome_dist = weights / d
        conditional = retrodict.retro_conditional_unbiased

    result.tables["outcome_distribution"] = _array(
        ["prior"], pom.labels, [outcome_dist])
    active = ~(weights <= TRACE_TOL)
    if active.any():
        result.tables["retrodictive"] = _array(
            itertools.compress(pom.labels, active), ens.labels,
            conditional(source, pom.stack[active]))
    if not active.all():
        result.diagnostics["zero_probability_outcomes"] = list(
            itertools.compress(pom.labels, ~active))


def _run_detector(scenario: Scenario, result: ResultDocument):
    params = scenario.parameters
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


def _purity(op: Operator, support: int) -> float:
    """Tr(rho^2) of a state whose entries vanish outside its leading
    ``support`` x ``support`` block, from that block alone."""
    block = op.mat[:support, :support]
    return float(retrodict._traces((block @ block)[None])[0])


def _run_synthesis(scenario: Scenario, result: ResultDocument):
    params = scenario.parameters
    ref = _reference(scenario)
    space = optics.FockSpace(params["truncation"])
    bs = optics.BeamSplitter(_real(params["theta"], "theta"))
    op = optics.projection_synthesis_retro(ref, params["counts_b"],
                                           params["counts_c"], bs, space)
    support = int(params["counts_b"]) + int(params["counts_c"])
    result.operators["retro_state"] = _serialize_operator(op)
    result.scalars["purity"] = _purity(op, support + 1)
    result.diagnostics["support_photon_limit"] = support


def _run_scissors(scenario: Scenario, result: ResultDocument):
    params = scenario.parameters
    ref = _reference(scenario)
    space = optics.FockSpace(params["truncation"])
    bs = optics.BeamSplitter(_real(params["theta"], "theta"))
    op = optics.scissors_output(ref, bs, space)
    result.operators["output_state"] = _serialize_operator(op)
    result.scalars["purity"] = _purity(op, 2)
    result.scalars["vacuum_weight"] = float(op.mat[0, 0].real)
    result.scalars["one_photon_weight"] = float(op.mat[1, 1].real)


def _run_bb84(scenario: Scenario, result: ResultDocument):
    params = scenario.parameters
    pred = bb84.predictive_table()
    retro = bb84.retrodictive_table()
    result.tables["predictive"] = _array(pred.row_labels, pred.col_labels,
                                         pred.probs)
    result.tables["retrodictive"] = _array(retro.row_labels, retro.col_labels,
                                           retro.probs)
    slots = params.get("slots")
    if slots is None:
        return
    seed = params.get("seed", 0)
    attack = params.get("attack", "none")
    # A JSON integer may be written 1.0; SeedSequence takes only an int.
    records, summary = bb84.simulate_slots(slots, int(seed), attack)
    result.arrays["outcome_counts"] = _array(bb84.LABELS, bb84.LABELS,
                                             summary.outcome_counts)
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
        # Each record's own field dict: one per distinct record, shared by
        # its slots, and never mutated.
        result.records = list(map(vars, records))


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

    One walk of :func:`_errors` decides.  A valid document ends it with no
    error.  A rejected one's walk goes on past its first error, one error
    at a time, and the one jsonschema's ``best_match`` would pick words the
    message, in jsonschema 4.26's text.
    """
    arrays = {}
    errors = _errors(doc, _schema(), (), arrays)
    first = next(errors, None)
    if first is not None:
        path, _, _, message = max(itertools.chain((first,), errors), key=_relevance)
        raise ValidationError(
            f"scenario does not match the schema at {_json_path(path)}: {message}")
    return Scenario(kind=doc["kind"], parameters=doc.get("parameters", {}),
                    document=doc, arrays=arrays)


def _read_capped(file) -> bytes:
    """Every byte of ``file``, an unbuffered binary file, or a
    ValidationError once they pass ``SCENARIO_BYTE_CAP``: a regular file is
    sized before it is read, and anything else read in ``_READ_CHUNK``s."""
    info = os.fstat(file.fileno())
    if stat.S_ISREG(info.st_mode):
        if info.st_size <= SCENARIO_BYTE_CAP:
            return file.read()
    else:
        chunks, size = [], 0
        while size <= SCENARIO_BYTE_CAP:
            chunk = file.read(_READ_CHUNK)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)
            size += len(chunk)
    raise ValidationError(f"scenario file is longer than the cap of {SCENARIO_BYTE_CAP} bytes")


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file.

    Raises OSError, UnicodeDecodeError (a file that is not UTF-8) or
    json.JSONDecodeError for unreadable input, a plain ValueError for an
    integer of more digits than ``sys.get_int_max_str_digits()``,
    RecursionError for arrays or objects nested too deeply to read, and
    ValidationError for a file longer than ``SCENARIO_BYTE_CAP`` bytes,
    found before it is parsed, and for schema violations.
    """
    # Read as bytes, unbuffered, and decoded at once, with the newline
    # translation of a text-mode read: the text, and any fault's wording,
    # are those of ``Path(path).read_text(encoding="utf-8")``.
    with open(Path(path), "rb", buffering=0) as file:
        text = _read_capped(file).decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return validate_document(json.loads(text))


def execute(scenario: Scenario) -> ResultDocument:
    """Run a validated scenario and collect its outputs."""
    result = ResultDocument(scenario=scenario.document)
    _RUNNERS[scenario.kind](scenario, result)
    return result


#: Without an indent, ``encode`` runs the C encoder.  No rendered value
#: holds itself, so its circular-reference bookkeeping is skipped.
_ENCODER = json.JSONEncoder(check_circular=False)
#: What ``_ENCODER.encode`` writes for a ``str``, without its dispatch.
_encode_str = json.encoder.encode_basestring_ascii


@functools.lru_cache(maxsize=64)
def _template(shape: tuple, nl: str) -> str:
    """``%s`` slots laid out as an indented array of ``shape`` starting at ``nl``.

    Only rows' templates are made, so one never outgrows a row's text.
    """
    if not shape:
        return "%s"
    inner = nl + "  "
    slots = [_template(shape[1:], inner)] * shape[0]
    return "[" + inner + ("," + inner).join(slots) + nl + "]"


def _texts(numbers: list) -> list:
    """The JSON text of each of the Python ``numbers``: one C encode, split
    at the separator, which no number's text holds."""
    return _ENCODER.encode(numbers)[1:-1].split(", ")


def _float_texts(flat: np.ndarray) -> list:
    """The JSON text of each entry of a flat float64 array.

    Each distinct magnitude is encoded once, and a negative entry is "-"
    and its magnitude's text, so two entries of a Hermitian matrix that
    mirror each other share one encoding.  NaN of either sign is ``NaN``.
    Below 64 entries the numpy calls cost more than the encodings they
    save, and each entry is encoded.
    """
    if flat.size < 64:
        return _texts(flat.tolist())
    magnitudes, index = np.unique(np.abs(flat), return_inverse=True)
    texts = _texts(magnitudes.tolist())
    index[np.signbit(flat) & ~np.isnan(flat)] += len(texts)
    return np.array(texts + ["-" + text for text in texts], dtype=object)[index].tolist()


def _fill_rows(texts: list, shape, inner: str, out: list):
    """Append ``texts``, the entries of an array of ``shape`` in C order, to
    ``out`` one outermost row at a time, each poured into its template and
    started by ``inner`` and ended by ``,``."""
    row, size = _template(tuple(shape[1:]), inner), len(texts) // shape[0]
    for start in range(0, len(texts), size):
        out += (inner, row % tuple(texts[start:start + size]), ",")


#: An array of 64 entries or more, of which fewer than one in this many
#: has bits that are not all zero, is rendered by :func:`_emit_sparse`.
#: At (9, 9, 2) to (41, 41, 2), entries at random places, the two routes
#: took the same time at a density of 0.3-0.4 on a 2-vCPU Xeon host.
_SPARSE_RATIO = 3


@functools.lru_cache(maxsize=64)
def _zero_row(shape: tuple, nl: str) -> tuple:
    """The text of an all-``0.0`` row of ``shape`` laid out as :func:`_template`
    lays it out, and the offset of each entry's ``0.0`` in it, in C order."""
    gaps = _template(shape, nl).split("%s")
    offsets = itertools.accumulate((3 + len(gap) for gap in gaps[1:-1]),
                                   initial=len(gaps[0]))
    return "0.0".join(gaps), tuple(offsets)


def _emit_sparse(flat: np.ndarray, shape: tuple, inner: str, out: list):
    """Append the rows of the float64 array ``flat`` of ``shape`` to ``out``,
    each started by ``inner`` and ended by ``,``: the text of an all-``0.0``
    row, with the text of each entry that is not ``0.0`` spliced in at its
    offset.  A row without such an entry is the cached text itself."""
    # An entry's text is not "0.0" exactly where its bits are not all zero:
    # -0.0 and NaN of either sign included.
    entries = flat.view(np.int64).nonzero()[0]
    zero, offsets = _zero_row(shape[1:], inner)
    size, blank = len(offsets), (inner, zero, ",")
    row, start = 0, None  # the next row to write, and the written end of an open one
    for entry, text in zip(entries.tolist(), _float_texts(flat[entries])):
        at, slot = divmod(entry, size)
        if at >= row:
            if start is not None:
                out += (zero[start:], ",")
            out += blank * (at - row)
            out.append(inner)
            row, start = at + 1, 0
        offset = offsets[slot]
        out += (zero[start:offset], text)
        start = offset + 3
    if start is not None:
        out += (zero[start:], ",")
    out += blank * (shape[0] - row)


def _emit(value, nl: str, out: list):
    """Append the text of ``value`` to ``out``; ``nl`` starts its lines.

    Dict keys are strings, as in every document the CLI writes.
    """
    inner = nl + "  "
    if isinstance(value, dict) and value:
        out.append("{")
        for key, item in sorted(value.items()):
            out += (inner, _encode_str(key), ": ")
            _emit(item, inner, out)
            out.append(",")
        out[-1] = nl + "}"
    elif isinstance(value, np.ndarray):
        # A non-empty float64 array of [re, im] pairs, laid out one
        # outermost row at a time from the shape.
        out.append("[")
        flat = value.reshape(-1)
        if flat.size < 64 or np.count_nonzero(flat.view(np.int64)) * _SPARSE_RATIO > flat.size:
            _fill_rows(_float_texts(flat), value.shape, inner, out)
        else:
            _emit_sparse(flat, value.shape, inner, out)
        out[-1] = nl + "]"
    elif isinstance(value, (list, tuple)) and value:
        array = _number_array(value)
        out.append("[")
        if array is None:
            # A string is encoded where it stands.  Any other item is
            # rendered once, and its text reused wherever the same object
            # recurs in this list, as BB84's shared record dicts do.
            texts = {}
            for item in value:
                if isinstance(item, str):
                    text = _encode_str(item)
                elif id(item) in texts:
                    text = texts[id(item)]
                else:
                    piece = []
                    _emit(item, inner, piece)
                    text = texts[id(item)] = "".join(piece)
                out += (inner, text, ",")
        else:
            shape, flat, _ = array
            _fill_rows(_texts(flat), shape, inner, out)
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
    return _dumps(result._document())


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


def _put(stream, data: bytes, text: str):
    """Write ``data``, the UTF-8 bytes of ``text``, to the standard stream
    ``stream`` through its binary layer, again from where a short write
    stopped, as an unbuffered one's raw file may stop; a stream without
    that layer takes the text.  Raises OSError if the stream cannot be
    written: one Python could not open (None), or a closed pipe.  After a
    failed write, what is still buffered goes to the null device at exit.
    """
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    try:
        if hasattr(stream, "buffer"):
            stream.flush()
            view, binary = memoryview(data), stream.buffer
            while view:
                view = view[binary.write(view):]
            binary.flush()
        else:
            stream.write(text)
            stream.flush()
    except OSError:
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), stream.fileno())
        raise


def _report_error(category: str, message: str) -> int:
    """Write the error document of ``category`` to standard error, where it
    can be written, and return the category's exit code either way."""
    code = _EXIT_CODES[category]
    text = _dumps({"error": {"category": category, "exit_code": code, "message": message}})
    with contextlib.suppress(OSError):
        _put(sys.stderr, text.encode("utf-8"), text)  # ASCII, as _dumps escapes
    return code


def run(scenario_path, output_format: str = "json", out_path=None) -> int:
    """Execute a scenario file and write the result document.

    Returns the process exit code instead of raising.  numpy's overflow
    warnings are off, as each overflow ends in a check.
    """
    try:
        with np.errstate(all="ignore"):
            result = execute(load_scenario(scenario_path))
            rendered = (render_json if output_format == "json" else render_csv)(result)
    except ValidationError as exc:
        return _report_error("validation", str(exc))
    except (OSError, ValueError, RecursionError) as exc:
        # The ValueErrors of reading a scenario: UnicodeDecodeError,
        # json.JSONDecodeError, and json's plain ValueError for an integer
        # of more digits than ``sys.get_int_max_str_digits()``.
        return _report_error("parse", f"cannot read scenario {scenario_path!r}: {exc}")
    except ComputationError as exc:
        return _report_error("computation", str(exc))
    except MemoryError as exc:
        # An allocation's MemoryError carries no text.
        detail = f": {exc}" if str(exc) else ""
        return _report_error("computation", f"not enough memory for this scenario{detail}")
    return _write(rendered, out_path)


def _write(text: str, out_path=None) -> int:
    """Write ``text`` as UTF-8 to ``out_path``, or else to standard output,
    and return the exit code: 3, with a ``validation`` error document, if
    the text has no UTF-8 encoding, found before anything is opened; 1,
    with an ``io`` error document, if it cannot be written.
    """
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate in a CSV label
        return _report_error("validation", f"the result has no UTF-8 encoding: {exc}")
    try:
        if out_path is not None:
            Path(out_path).write_bytes(data)
        else:
            _put(sys.stdout, data, text)
    except OSError as exc:  # a closed pipe included
        where = "to standard output" if out_path is None else repr(out_path)
        return _report_error("io", f"cannot write {where}: {exc}")
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
    return _write("".join(f"{info.name} [{info.kind}]: {info.description}\n"
                          for info in list_examples()))


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
