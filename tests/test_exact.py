"""Emitted numbers measured against the exact references of ``exact.py``."""

import json
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from exact import bayes_reference, bb84_predictive, bb84_retrodictive, ulps
from qretrodict import bb84
from qretrodict.cli import execute, list_examples, load_scenario, render_json, validate_document

#: Ulps from the exact value allowed to each emitted ``bayes`` number, at
#: up to six events and six outcomes.  A joint entry is one rounded
#: product.  Over 65000 draws (60000 of integer, float and wide-exponent
#: weights, 5000 of this module's strategy) the largest errors were 0.5,
#: 1.80 and 3.18 ulps.
BAYES_BUDGET = {"joint": Fraction(1, 2), "outcome_marginal": 2, "posterior": 4}


def _outputs(doc) -> dict:
    """The ``outputs`` of ``doc``'s result document, as its JSON text reads."""
    return json.loads(render_json(execute(validate_document(doc))))["outputs"]


def _normal(column) -> bool:
    """Whether every exact joint entry of a column is zero or a normal double.

    A product below the normal range keeps fewer bits than a double, and a
    posterior divides by the column's sum, so such a column's posterior is
    held to no ulp budget.
    """
    return all(x == 0 or x >= sys.float_info.min for x in column)


@st.composite
def _distribution(draw, size):
    """A probability vector: float weights, zeros and subnormals included,
    each divided by their sum."""
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size).filter(any))
    return [w / sum(weights) for w in weights]


@st.composite
def _bayes(draw):
    n_events, n_outcomes = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    priors = draw(_distribution(n_events))
    return {"events": [f"e{i}" for i in range(n_events)], "priors": priors,
            "outcomes": [f"o{j}" for j in range(n_outcomes)],
            "conditional": [draw(_distribution(n_outcomes)) for _ in range(n_events)]}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_bayes())
def test_bayes_outputs_are_within_their_ulp_budgets(params):
    outputs = _outputs({"kind": "bayes", "parameters": params})
    joint, marginal, posterior = bayes_reference(params["priors"], params["conditional"])
    columns = list(zip(*joint))
    emitted = [("joint", outputs["arrays"]["joint"]["values"], joint),
               ("outcome_marginal", outputs["tables"]["outcome_marginal"]["values"],
                [marginal])]
    table = outputs["tables"].get("posterior", {"rows": [], "values": []})
    for label, row in zip(table["rows"], table["values"]):
        j = params["outcomes"].index(label)
        assert posterior[j] is not None
        if _normal(columns[j]):
            emitted.append(("posterior", [row], [posterior[j]]))
    for name, rows, exact in emitted:
        for row, exact_row in zip(rows, exact, strict=True):
            for value, reference in zip(row, exact_row, strict=True):
                assert ulps(value, reference) <= BAYES_BUDGET[name], (name, value, reference)
    # An outcome left out as impossible has probability zero, or a column
    # of products below the normal range.
    for label in outputs.get("diagnostics", {}).get("zero_probability_outcomes", []):
        j = params["outcomes"].index(label)
        assert marginal[j] == 0 or not _normal(columns[j])


def test_exact_bb84_tables_are_quarters_and_halves():
    for table in (bb84_predictive(bb84.LABELS), bb84_retrodictive(bb84.LABELS)):
        assert {x for row in table for x in row} == {0, Fraction(1, 4), Fraction(1, 2)}
        assert all(sum(row) == 1 for row in table)


def test_bb84_tables_are_within_2_2e_16_of_their_exact_values():
    # 1/sqrt(2) is rounded, so every entry with a circular state is off but
    # the zeros between L and R: 1/2 is emitted as 0.4999999999999998 and
    # 1/4 as 0.24999999999999994.  The bundled digests pin these bits.
    path = next(info.path for info in list_examples() if info.name == "bb84-tables")
    tables = json.loads(render_json(execute(load_scenario(path))))["outputs"]["tables"]
    for name, exact in (("predictive", bb84_predictive(bb84.LABELS)),
                        ("retrodictive", bb84_retrodictive(bb84.LABELS))):
        assert (tables[name]["rows"], tables[name]["cols"]) == ([*bb84.LABELS],) * 2
        pairs = [(Fraction(value), reference)
                 for row, exact_row in zip(tables[name]["values"], exact, strict=True)
                 for value, reference in zip(row, exact_row, strict=True)]
        assert max(abs(value - reference) for value, reference in pairs) == Fraction(2 ** -52)
        assert sum(value != reference for value, reference in pairs) == 10
        assert {float(v) for v, r in pairs if v != r} == {0.4999999999999998,
                                                          0.24999999999999994}
