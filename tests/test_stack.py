"""The labelled-operator stack and its row kernel against the one-by-one oracles.

Every labelled set (a POM, a preparation POM, biased-source elements, an
ensemble's states) is one ``retrodict.OperatorStack``, checked with one
batched eigenvalue call and read through one einsum per row.  These tests
hold it to the element-by-element code kept in ``support``: the same
accept/reject decision, exception type and message near every threshold,
and the same bits for every predictive, unbiased and biased row.
"""

import contextlib
import io
import json
import math
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qretrodict import cli, hilbert, retrodict
from qretrodict.errors import (
    BiasedSourceError,
    ComputationError,
    DimensionMismatch,
    QRetrodictError,
    ValidationError,
)
from qretrodict.hilbert import Operator
from qretrodict.retrodict import (
    BiasedElements,
    Pom,
    PreparationEnsemble,
    PreparationPom,
    is_unbiased,
    preparation_pom,
    retro_conditional_biased,
    retro_conditional_unbiased,
    retro_state,
)
from support import (
    biased_posterior_one_by_one,
    born_one,
    is_psd,
    oracle_elements,
    oracle_ensemble,
    oracle_retrodict,
    random_biased_ensemble,
    random_pom,
    random_unbiased_ensemble,
)


def outcome(build):
    """What ``build()`` returns, or the type and message of what it raises."""
    try:
        return build()
    except QRetrodictError as exc:
        return type(exc), str(exc)


# Each fault moves one quantity by eps around its 1e-9 threshold:
#   negative:    the smallest eigenvalue of element i to -eps;
#   excess:      entry (0, 0) of element i by eps, which moves its trace,
#                the completeness deviation and the trace sum by eps;
#   skew:        entry (0, d-1) of element i alone, so it is eps away from
#                hermitian (an imaginary diagonal entry when d = 1);
#   duplicate:   element i+1 takes the label of element i;
#   dims:        element i on dims (d, 1), same matrix, other mode structure;
#   resized:     element i replaced by a (d+1)-dimensional one;
#   prior_neg:   prior i to -eps, the next prior raised to keep the sum;
#   prior_sum:   prior i by eps.
FAULTS = ("negative", "excess", "skew", "duplicate", "dims", "resized",
          "prior_neg", "prior_sum")
EPSILONS = (0.0, 1e-10, 5e-10, 9.9e-10, 1e-9, 1.0000001e-9, 1.01e-9, 2e-9,
            1e-7, 0.3)


@st.composite
def faulty_sets(draw):
    d = draw(st.integers(1, 4))
    n_bases = draw(st.integers(1, 2))
    k = d * n_bases
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    projectors = []
    for _ in range(n_bases):
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q = np.linalg.qr(z)[0]
        projectors += [np.outer(q[:, i], q[:, i].conj()) for i in range(d)]
    faults = draw(st.lists(st.tuples(st.sampled_from(FAULTS),
                                     st.integers(0, k - 1),
                                     st.sampled_from(EPSILONS),
                                     st.sampled_from((1.0, -1.0))),
                           max_size=3))
    return d, projectors, faults


def build(d, projectors, faults, scale):
    """Labels, priors and Operators of the projectors times ``scale``, with the faults."""
    k = len(projectors)
    mats = [p * scale for p in projectors]
    labels = [f"e{i}" for i in range(k)]
    dims = [(d,)] * k
    priors = [1.0 / k] * k
    for fault, i, eps, sign in faults:
        j = (i + 1) % k
        if fault == "negative":
            w, v = np.linalg.eigh(mats[i])
            mats[i] = mats[i] - (w[0] + eps) * np.outer(v[:, 0], v[:, 0].conj())
        elif fault == "excess":
            mats[i] = mats[i].copy()
            mats[i][0, 0] += sign * eps
        elif fault == "skew":
            mats[i] = mats[i].copy()
            mats[i][0, d - 1] += eps if d > 1 else 1j * eps
        elif fault == "duplicate":
            labels[j] = labels[i]
        elif fault == "dims":
            dims[i] = (d, 1)
        elif fault == "resized":
            mats[i], dims[i] = np.eye(d + 1, dtype=complex) / (d + 1), (d + 1,)
        elif fault == "prior_neg":
            priors[j] += priors[i] + eps
            priors[i] = -eps
        elif fault == "prior_sum":
            priors[i] += sign * eps
    ops = [Operator(m, dm) for m, dm in zip(mats, dims)]
    return labels, priors, ops


def same_as_oracle(got, expected):
    """Both rejected alike, or both accepted with the same labels and matrices."""
    if isinstance(expected, tuple) and isinstance(expected[0], type):
        assert got == expected
        return
    assert not (isinstance(got, tuple) and isinstance(got[0], type)), got
    labels = tuple(e[0] for e in expected)
    mats = np.stack([e[-1].mat for e in expected])
    assert got.labels == labels
    assert np.array_equal(got.stack, mats)
    assert [op.mat.tolist() for _, op in got.elements] == mats.tolist()


@settings(derandomize=True, max_examples=400, deadline=None)
@given(faulty_sets())
def test_stack_decides_like_the_element_by_element_checks(case):
    d, projectors, faults = case
    n_bases = len(projectors) // d
    # POM elements sum to the identity; biased elements have traces
    # summing to 1; ensemble states have unit trace.
    for cls, kind, scale in ((Pom, "POM", 1 / n_bases),
                             (PreparationPom, "preparation POM", 1 / n_bases)):
        labels, _, ops = build(d, projectors, faults, scale)
        pairs = tuple(zip(labels, ops))
        same_as_oracle(outcome(lambda: cls(pairs)),
                       outcome(lambda: oracle_elements(
                           pairs, kind, require_completeness=True)))
    labels, _, ops = build(d, projectors, faults, 1 / len(projectors))
    pairs = tuple(zip(labels, ops))
    same_as_oracle(outcome(lambda: BiasedElements(pairs)),
                   outcome(lambda: oracle_elements(
                       pairs, "biased-source", require_completeness=False,
                       trace_sum=True)))
    labels, priors, ops = build(d, projectors, faults, 1.0)
    events = tuple(zip(labels, priors, ops))
    got = outcome(lambda: PreparationEnsemble(events))
    expected = outcome(lambda: oracle_ensemble(events))
    same_as_oracle(got, expected)
    if not isinstance(got, tuple):
        assert got.events == expected
        assert got.priors.tolist() == [p for _, p, _ in expected]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(faulty_sets())
def test_bare_matrices_decide_like_the_element_by_element_checks(case):
    # A bare matrix lives on one mode of its side, so a "dims" fault, the
    # same matrix on dims (d, 1), has no bare form.
    d, projectors, faults = case
    faults = [fault for fault in faults if fault[0] != "dims"]
    for cls, kind, scale, complete in ((Pom, "POM", d / len(projectors), True),
                                       (BiasedElements, "biased-source",
                                        1 / len(projectors), False)):
        labels, _, ops = build(d, projectors, faults, scale)
        same_as_oracle(outcome(lambda: cls.from_matrices(labels, [op.mat for op in ops])),
                       outcome(lambda: oracle_elements(
                           tuple(zip(labels, ops)), kind, require_completeness=complete,
                           trace_sum=not complete)))
    labels, priors, ops = build(d, projectors, faults, 1.0)
    got = outcome(lambda: PreparationEnsemble.from_matrices(
        labels, [op.mat for op in ops], priors=priors))
    expected = outcome(lambda: oracle_ensemble(tuple(zip(labels, priors, ops))))
    same_as_oracle(got, expected)
    if not isinstance(got, tuple):
        assert got.priors.tolist() == [p for _, p, _ in expected]


def test_bare_matrices_are_copied_and_shaped():
    mats = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
    priors = np.array([0.5, 0.5])
    view = mats[:]
    ens = PreparationEnsemble.from_matrices(["a", "b"], view, priors=priors)
    pom = Pom.from_matrices(["a", "b"], view.real)
    # The caller's arrays stay writable, and writing to them changes no
    # checked stack.
    assert view.flags.writeable and priors.flags.writeable
    view[0, 0, 0] = priors[0] = 7.0
    assert ens.stack[0, 0, 0] == pom.stack[0, 0, 0] == 1.0
    assert ens.priors.tolist() == [0.5, 0.5]
    assert pom.stack.dtype == complex
    with pytest.raises(ValidationError, match=r"must be square, got shape \(2, 3\)"):
        Pom.from_matrices(["a"], [np.zeros((2, 3))])
    with pytest.raises(ValidationError, match=r"must be square, got shape \(2,\)"):
        Pom.from_matrices(["a"], [np.ones(2)])
    with pytest.raises(ValidationError, match="one matrix and one of each of"):
        Pom.from_matrices(["a", "b"], [np.eye(2)])
    with pytest.raises(ValidationError, match=r"\['priors'\] per label"):
        PreparationEnsemble.from_matrices(["a", "b"], mats, priors=[1.0])


@pytest.mark.parametrize("cls, scale, fields", [
    (PreparationEnsemble, 1.0, {}),
    (Pom, 1.0, {"priors": [0.5, 0.5]}),
    (BiasedElements, 0.5, {"weights": [0.5, 0.5]}),
    (PreparationEnsemble, 1.0, {"priors": [0.5, 0.5], "weights": [0.5, 0.5]}),
])
def test_bare_matrices_take_exactly_their_stack_s_fields(cls, scale, fields):
    # An ensemble takes its priors and nothing else; the other stacks take
    # no field.  The fields are refused before any matrix is checked.
    mats = [np.diag([scale, 0.0]), np.diag([0.0, scale])]
    for matrices in (mats, [np.zeros((2, 3))] * 2):
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\.from_matrices takes the "
                                            rf"fields \[.*\], got {re.escape(str(sorted(fields)))}$"):
            cls.from_matrices(["a", "b"], matrices, **fields)


def test_a_stack_of_outcomes_gives_rows_and_takes_no_event():
    rng = np.random.default_rng(11)
    pom = random_pom(rng, 3, 4)
    prep = preparation_pom(random_unbiased_ensemble(rng, 3, 4))
    lam = BiasedElements.from_ensemble(random_biased_ensemble(rng, 3, 4))
    for posterior, source in ((retro_conditional_unbiased, prep),
                              (retro_conditional_biased, lam)):
        rows = posterior(source, pom.stack)
        assert rows.tolist() == [posterior(source, op).tolist() for _, op in pom.elements]
        with pytest.raises(ValidationError, match="an event selects"):
            posterior(source, pom.stack, source.labels[0])
        with pytest.raises(DimensionMismatch):
            posterior(source, pom.stack[:, :2, :2])


@pytest.mark.parametrize("dims, message", [
    # Same side length, other modes: the dims, not the shape, must match.
    ((2, 2), r"element dims \(2, 2\) do not match source dims \(4,\)"),
    ((3,), r"element dims \(3,\) do not match source dims \(4,\)"),
], ids=["modes", "size"])
def test_an_outcome_element_on_other_dims_is_a_dimension_mismatch(dims, message):
    rng = np.random.default_rng(12)
    prep = preparation_pom(random_unbiased_ensemble(rng, 4, 3))
    lam = BiasedElements.from_ensemble(random_biased_ensemble(rng, 4, 3))
    element = Operator(np.eye(math.prod(dims)) / 2, dims)
    for posterior, source in ((retro_conditional_unbiased, prep),
                              (retro_conditional_biased, lam)):
        for event in (None, source.labels[0]):
            with pytest.raises(DimensionMismatch, match=message):
                posterior(source, element, event)


def qubit(*diag):
    return Operator(np.diag(diag).astype(complex))


@pytest.mark.parametrize("build_it, message", [
    # A negative second element is reported before the dims of the third.
    (lambda: Pom((("a", qubit(1.5, 0.5)), ("b", qubit(-0.5, 0.5)),
                  ("c", Operator(np.eye(3))))),
     "POM element 'b' is not positive semidefinite"),
    # A dims mismatch stops the checks before a later negative element.
    (lambda: Pom((("a", qubit(1, 0)), ("b", Operator(np.eye(3))),
                  ("c", qubit(-1, 1)))),
     "POM element 'b' lives on dims (3,), expected (2,)"),
    # Duplicate labels come before any element check.
    (lambda: BiasedElements((("a", qubit(-1, 0)), ("a", qubit(1, 0)))),
     "biased-source labels must be unique, got ['a', 'a']"),
    # A negative prior comes before the dims of the same event.
    (lambda: PreparationEnsemble((("a", 1.5, qubit(1, 0)),
                                  ("b", -0.5, Operator(np.eye(3) / 3)))),
     "prior of event 'b' is negative: -0.5"),
    # Positivity of an event comes before its trace.
    (lambda: PreparationEnsemble((("a", 1.0, qubit(2, -1e-3)),)),
     "state of event 'a' is not positive semidefinite"),
    (lambda: PreparationEnsemble((("a", 0.5, qubit(1, 0)),
                                  ("b", 0.5, qubit(0.5, 0.6)))),
     "state of event 'b' has trace 1.1, expected 1"),
])
def test_several_faults_report_the_first_in_element_order(build_it, message):
    with pytest.raises(QRetrodictError) as info:
        build_it()
    assert str(info.value) == message


def test_each_stack_makes_one_eigenvalue_call(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, *args, **kw: calls.append(a.shape) or eigvalsh(a, *args, **kw))
    rng = np.random.default_rng(3)
    ens = random_unbiased_ensemble(rng, 5, 9)
    pom = random_pom(rng, 5, 7)
    calls.clear()
    Pom(pom.elements)
    PreparationEnsemble(ens.events)
    # Stacks derived from the checked ensemble are not checked again.
    preparation_pom(ens)
    BiasedElements.from_ensemble(ens)
    assert calls == [(7, 5, 5), (9, 5, 5)]


@pytest.mark.parametrize("name", ["labels", "stack", "dims", "events", "_index"])
def test_checked_stacks_cannot_be_reassigned(name):
    ens = random_unbiased_ensemble(np.random.default_rng(6), 2, 3)
    for stack in (ens, preparation_pom(ens), BiasedElements.from_ensemble(ens),
                  random_pom(np.random.default_rng(7), 2, 2)):
        with pytest.raises(FrozenInstanceError):
            setattr(stack, name, ())
        with pytest.raises(FrozenInstanceError):
            delattr(stack, name)
    assert ens.labels == ("a0", "a1", "a2")


def test_stack_is_read_only_and_looked_up_by_index():
    ens = random_biased_ensemble(np.random.default_rng(4), 3, 6)
    with pytest.raises(ValueError):
        ens.stack[0, 0, 0] = 1.0
    for position, (label, prior, state) in enumerate(ens.events):
        assert ens.prior(label) == prior
        assert ens.state(label) is state
        assert np.array_equal(ens.element(label).mat, ens.stack[position])
    with pytest.raises(ValidationError, match="unknown event label 'x'"):
        ens.state("x")
    with pytest.raises(ValidationError, match=r"unknown event label \['a0'\]"):
        ens.prior(["a0"])


def test_psd_mask_is_is_psd_for_each_matrix():
    rng = np.random.default_rng(5)
    mats = [np.diag([1.0, -t]) for t in (0.0, 9.9e-10, 1e-9, 1.01e-9, 1e-3)]
    mats += [np.array([[1.0, t], [0.0, 1.0]]) for t in (5e-10, 1e-9, 2e-9)]
    mats += [random_pom(rng, 2, 2).elements[0][1].mat]
    mask = hilbert.psd_mask(np.array(mats, dtype=complex))
    assert mask.tolist() == [is_psd(Operator(m)) for m in mats]
    assert mask.tolist() == [True, True, True, False, False, True, True, False, True]


def test_psd_mask_reads_each_lower_triangle_as_given():
    # Both are hermitian within TOL.  The lower triangle of the first is
    # diagonal, with eigenvalues -9e-10; that of the second gives -1.9e-9.
    # Their common symmetrised matrix has -1.4e-9.
    upper = np.array([[-9e-10, 1e-9], [0.0, -9e-10]], dtype=complex)
    assert hilbert.psd_mask(np.array([upper, upper.T])).tolist() == [True, False]


SIZES = [(1, 1), (2, 3), (3, 2), (5, 7), (8, 16), (16, 32), (40, 40), (40, 13), (7, 40)]


@pytest.mark.parametrize("d, k", SIZES)
def test_rows_have_the_bits_of_the_one_pair_formulas(d, k):
    rng = np.random.default_rng(d * 100 + k)
    pom = random_pom(rng, d, k)
    unbiased = random_unbiased_ensemble(rng, d, k)
    prep = preparation_pom(unbiased)
    biased = random_biased_ensemble(rng, d, k)
    lam = BiasedElements.from_ensemble(biased)
    for _, _, state in unbiased.events + biased.events:
        assert pom.probabilities(state).tolist() == [
            born_one(state, op) for _, op in pom.elements]
    for _, element in pom.elements:
        retro = retro_state(element)
        assert retro_conditional_unbiased(prep, element).tolist() == [
            born_one(retro, xi) for _, xi in prep.elements]
        assert retro_conditional_biased(lam, element).tolist() == \
            biased_posterior_one_by_one(lam.elements, element).tolist()


def _pairs(mat):
    return [[[z.real, z.imag] for z in row] for row in mat.tolist()]


@pytest.mark.parametrize("source", ["unbiased", "biased"])
@pytest.mark.parametrize("d, k", [(3, 5), (16, 32)])
def test_cli_tables_have_the_bits_of_the_one_pair_formulas(source, d, k):
    rng = np.random.default_rng(d + k)
    make = random_unbiased_ensemble if source == "unbiased" else random_biased_ensemble
    ens = make(rng, d, k)
    pom = random_pom(rng, d, k)
    doc = {"kind": "retrodict", "parameters": {
        "events": [{"label": a, "prior": p, "state": _pairs(s.mat)}
                   for a, p, s in ens.events],
        "pom": [{"label": b, "element": _pairs(e.mat)} for b, e in pom.elements]}}
    result = cli.execute(cli.validate_document(doc))
    assert result.diagnostics["source"] == source
    predictive = [[born_one(s, e) for _, e in pom.elements] for _, _, s in ens.events]
    assert result.tables["predictive"]["values"] == predictive
    if source == "unbiased":
        prep = preparation_pom(ens)
        rows = [[born_one(retro_state(e), xi) for _, xi in prep.elements]
                for _, e in pom.elements]
    else:
        lam = BiasedElements.from_ensemble(ens)
        rows = [biased_posterior_one_by_one(lam.elements, e).tolist()
                for _, e in pom.elements]
    assert result.tables["retrodictive"]["values"] == rows


def test_unbiased_means_the_preparation_pom_is_complete():
    # The mixture is within 1e-9 of I/d, but the preparation POM misses
    # the identity by d times that: the source is biased.
    d, eps = 16, 6e-10
    states = [np.diag(np.eye(d)[i]).astype(complex) for i in range(d)]
    states[0] = np.diag([1 - 16 * eps, 16 * eps] + [0.0] * (d - 2)).astype(complex)
    ens = PreparationEnsemble(tuple((f"e{i}", 1 / d, Operator(s))
                                    for i, s in enumerate(states)))
    assert np.max(np.abs(ens.mixture().mat - np.eye(d) / d)) <= 1e-9
    assert not is_unbiased(ens)
    with pytest.raises(BiasedSourceError):
        preparation_pom(ens)
    BiasedElements.from_ensemble(ens)


# Faults a retrodict document can carry beyond FAULTS' operator ones, each
# against a check the CLI makes before the stacks are built:
#   ragged, nonsquare: a matrix's last row short by one entry, or dropped;
#   huge, nan:         entry (0, 0) an integer beyond the double range, NaN;
#   huge_prior, nan_prior: the same for prior i;
#   zero:              element i's weight moved onto element i+1, so its
#                      outcome has zero probability and is skipped.
DOCUMENT_FAULTS = ("ragged", "nonsquare", "huge", "nan", "huge_prior", "nan_prior",
                   "zero")
HUGE = 10 ** 400


def _json_pairs(mat):
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _integral(value):
    """Entries that are integral floats as JSON integers."""
    if isinstance(value, list):
        return [_integral(item) for item in value]
    return int(value) if isinstance(value, float) and value.is_integer() else value


@st.composite
def retrodict_documents(draw):
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def projectors():
        # The vectors of up to 8 // d orthonormal bases; the standard basis
        # first, when drawn, so that entries are 0 and 1.
        n_bases = draw(st.integers(1, max(1, 8 // d)))
        bases = [np.eye(d)] if draw(st.booleans()) else []
        while len(bases) < n_bases:
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            bases.append(np.linalg.qr(z)[0])
        return [np.outer(q[:, i], q[:, i].conj()) for q in bases for i in range(d)]

    groups = {"events": projectors(), "pom": projectors()}
    groups["pom"] = [p * (d / len(groups["pom"])) for p in groups["pom"]]
    k = len(groups["events"])
    priors = (rng.dirichlet(np.ones(k)).tolist() if draw(st.booleans())
              else [1.0 / k] * k)
    labels = {"events": [f"e{i}" for i in range(k)],
              "pom": [f"b{i}" for i in range(len(groups["pom"]))]}
    faults = draw(st.lists(st.tuples(st.sampled_from(FAULTS + DOCUMENT_FAULTS),
                                     st.sampled_from(("events", "pom")),
                                     st.integers(0, 7), st.sampled_from(EPSILONS),
                                     st.sampled_from((1.0, -1.0))), max_size=3))
    entries = {}
    for fault, group, i, eps, sign in faults:
        mats, names = groups[group], labels[group]
        i %= len(mats)
        j = (i + 1) % len(mats)
        if group == "events" and fault in ("prior_neg", "prior_sum", "huge_prior",
                                           "nan_prior"):
            if fault == "prior_neg":
                priors[j] += priors[i] + eps
                priors[i] = -eps
            elif fault == "prior_sum":
                priors[i] += sign * eps
            else:
                priors[i] = HUGE if fault == "huge_prior" else math.nan
        elif fault == "negative":
            w, v = np.linalg.eigh(mats[i])
            mats[i] = mats[i] - (w[0] + eps) * np.outer(v[:, 0], v[:, 0].conj())
        elif fault == "excess":
            mats[i] = mats[i].copy()
            mats[i][0, 0] += sign * eps
        elif fault == "skew":
            mats[i] = mats[i].copy()
            mats[i][0, d - 1] += eps if d > 1 else 1j * eps
        elif fault == "duplicate":
            names[j] = names[i]
        elif fault == "resized":
            mats[i] = np.eye(d + 1) / (d + 1)
        elif fault == "zero":
            mats[i], mats[j] = mats[i] * 0.0, mats[j] + mats[i]
        elif fault in ("ragged", "nonsquare", "huge", "nan"):
            entries[group, i] = fault
    matrices = {group: [_json_pairs(m) for m in mats] for group, mats in groups.items()}
    for (group, i), fault in entries.items():
        rows = matrices[group][i]
        if fault == "ragged" and len(rows) > 1:
            rows[-1] = rows[-1][:-1]
        elif fault == "nonsquare" and len(rows) > 1:
            del rows[-1]
        elif fault in ("huge", "nan"):
            rows[0][0][0] = HUGE if fault == "huge" else math.nan
    if draw(st.booleans()):
        matrices = _integral(matrices)
    return {"kind": "retrodict", "parameters": {
        "events": [{"label": a, "prior": p, "state": m}
                   for a, p, m in zip(labels["events"], priors, matrices["events"])],
        "pom": [{"label": b, "element": m}
                for b, m in zip(labels["pom"], matrices["pom"])]}}


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(retrodict_documents())
def test_cli_route_agrees_with_the_element_by_element_oracle(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("doc") / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(str(path))
    try:
        tables, diagnostics = oracle_retrodict(doc["parameters"])
    except QRetrodictError as exc:
        expected = cli.EXIT_COMPUTATION if isinstance(exc, ComputationError) \
            else cli.EXIT_VALIDATION
        assert (code, out.getvalue()) == (expected, "")
        assert json.loads(err.getvalue())["error"]["message"] == str(exc)
        return
    assert (code, err.getvalue()) == (cli.EXIT_OK, "")
    result = json.loads(out.getvalue())
    # The text of every number, so -0.0 and 0.0 differ.
    assert json.dumps(result["outputs"]["tables"], sort_keys=True) == \
        json.dumps(tables, sort_keys=True)
    assert json.dumps(result["diagnostics"], sort_keys=True) == \
        json.dumps(diagnostics, sort_keys=True)
    assert json.dumps(result["scenario"], sort_keys=True) == \
        json.dumps(json.loads(json.dumps(doc)), sort_keys=True)


def _qubit_document():
    def up():
        return [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]

    def down():
        return [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]

    return {"kind": "retrodict", "parameters": {
        "events": [{"label": "a", "prior": 0.5, "state": up()},
                   {"label": "b", "prior": 0.5, "state": down()}],
        "pom": [{"label": "x", "element": up()}, {"label": "y", "element": down()}]}}


def _rows(item):
    return item["state"] if "state" in item else item["element"]


def _nan(item):
    _rows(item)[0][0] = [math.nan, 0.0]


def _huge(item):
    _rows(item)[1][1] = [HUGE, 0]


def _huge_prior(item):
    item["prior"] = HUGE


def _ragged(item):
    rows = _rows(item)
    rows[1] = rows[1][:1]


def _nonsquare(item):
    del _rows(item)[1]


def _resized(item):
    _rows(item)[:] = [[[1 / 3, 0.0] if i == j else [0.0, 0.0] for j in range(3)]
                      for i in range(3)]


def _both(*faults):
    def apply(item):
        for fault in faults:
            fault(item)
    return apply


#: Two faults in one document, and the message of the one that comes first:
#: each item's faults in order (prior range, entry range, shape, ragged,
#: square, finite), the items in document order, the events before the POM.
FIRST_FAULTS = [
    ({("events", 0): _nan, ("events", 1): _nonsquare}, "operator entries must be finite"),
    ({("events", 0): _nonsquare, ("events", 1): _nan}, "operator matrix must be square"),
    ({("events", 0): _nan, ("events", 1): _resized}, "operator entries must be finite"),
    ({("events", 0): _resized, ("events", 1): _nan}, "operator entries must be finite"),
    ({("events", 0): _ragged, ("events", 1): _huge}, "malformed matrix"),
    ({("events", 1): _ragged, ("events", 0): _nan}, "operator entries must be finite"),
    ({("events", 1): _huge, ("pom", 0): _nan}, "state of event 'b' holds a number"),
    ({("pom", 0): _nan, ("pom", 1): _resized}, "operator entries must be finite"),
    ({("pom", 0): _resized, ("events", 1): _nan}, "operator entries must be finite"),
    ({("pom", 1): _nonsquare, ("pom", 0): _huge}, "POM element 'x' holds a number"),
    ({("events", 0): _ragged, ("events", 1): _huge_prior}, "malformed matrix"),
    ({("events", 0): _both(_huge_prior, _nan)}, "prior of event 'a' holds a number"),
]


@pytest.mark.parametrize("faults, message", FIRST_FAULTS)
def test_cli_reports_the_first_of_two_faults_like_the_oracle(tmp_path, faults, message):
    doc = _qubit_document()
    for (group, i), fault in faults.items():
        fault(doc["parameters"][group][i])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.run(str(path)) == cli.EXIT_VALIDATION
    with pytest.raises(ValidationError) as expected:
        oracle_retrodict(doc["parameters"])
    reported = json.loads(err.getvalue())["error"]["message"]
    assert reported == str(expected.value)
    assert reported.startswith(message)


@pytest.mark.parametrize("priors, source", [((0.5, 0.5), "unbiased"),
                                            ((0.7, 0.3), "biased")])
def test_a_zero_trace_element_is_listed_without_a_retrodictive_row(tmp_path, priors,
                                                                   source):
    doc = _qubit_document()
    for event, prior in zip(doc["parameters"]["events"], priors):
        event["prior"] = prior
    one = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    doc["parameters"]["pom"] = [{"label": "x", "element": one},
                                {"label": "never", "element": zero}]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(str(path)) == cli.EXIT_OK
    result = json.loads(out.getvalue())
    assert result["diagnostics"]["source"] == source
    assert result["diagnostics"]["zero_probability_outcomes"] == ["never"]
    assert result["outputs"]["tables"]["retrodictive"]["rows"] == ["x"]
    tables, diagnostics = oracle_retrodict(doc["parameters"])
    assert json.dumps(result["outputs"]["tables"], sort_keys=True) == \
        json.dumps(tables, sort_keys=True)
    assert json.dumps(result["diagnostics"], sort_keys=True) == \
        json.dumps(diagnostics, sort_keys=True)


def test_the_cli_checks_each_matrix_once(monkeypatch):
    # Both readers of a matrix name the one check; the CLI runs it as it
    # reads each item, and the stack it builds runs none again.
    checked = []

    def check(mat):
        checked.append(mat)
        hilbert._check_square_finite(mat)

    monkeypatch.setattr(cli, "_check_square_finite", check)
    monkeypatch.setattr(retrodict, "_check_square_finite", check)
    doc = _qubit_document()
    cli.execute(cli.validate_document(doc))
    params = doc["parameters"]
    assert len(checked) == len(params["events"]) + len(params["pom"])
    Pom.from_matrices(["x"], [np.eye(2)])
    assert len(checked) == len(params["events"]) + len(params["pom"]) + 1
