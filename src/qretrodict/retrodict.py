"""Retrodictive state assignment for finite-dimensional measurements.

A measurement is described by a probability operator measure (POM): a set
of labelled positive operators that sum to the identity.  The central
operation here assigns to each measurement outcome the *retrodictive*
state — the POM element normalized to unit trace — from which the
probability that any given preparation event occurred can be read off.

Sources come in two flavours.  An *unbiased* source emits, averaged over
its priors, the maximally mixed state; it admits a preparation POM whose
elements play the same role for preparation events that measurement POM
elements play for outcomes.  A *biased* source does not, and its
posterior probabilities are computed from prior-weighted state operators
directly.

The measurement POM, the preparation POM, the prior-weighted states and
an ensemble's states are all one :class:`OperatorStack`, and every
probability is an overlap ``tr(op @ stack[b])`` taken a row at a time.
"""

from __future__ import annotations

import functools
from dataclasses import FrozenInstanceError
from typing import Hashable, Iterable, Optional, Tuple

import numpy as np

from .errors import (
    TOL,
    TRACE_TOL,
    BiasedSourceError,
    DimensionMismatch,
    NumericIntegrityError,
    ValidationError,
    ZeroProbabilityError,
)
from .hilbert import ModeDims, Operator, _check_square_finite, psd_mask


def _overlaps(ops: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """``tr(ops[a] @ stack[b])`` for every a and b, one einsum per row a.

    Each entry has the bits of ``einsum('ij,ji->', ops[a], stack[b])``; a
    batched ``'aij,bji->ab'`` over all rows does not, already at d=2.
    """
    raw = np.empty((len(ops), len(stack)), dtype=complex)
    for a, op in enumerate(ops):
        raw[a] = np.einsum("ij,bji->b", op, stack)
    return raw


def _born_rows(states: np.ndarray, stack: np.ndarray, tol: float) -> np.ndarray:
    """:func:`born_probability` of each of ``states`` for each element, a
    row per state.  The range is checked once for the table, and its
    first fault in row order raises."""
    raw = _overlaps(states, stack)
    p = raw.real
    complex_part = np.abs(raw.imag) > tol
    bad = complex_part | (p < -tol) | (p > 1.0 + tol)
    if bad.any():
        first = np.unravel_index(np.argmax(bad), bad.shape)
        if complex_part[first]:
            raise NumericIntegrityError(
                f"outcome probability has imaginary part {float(raw[first].imag):.3e}"
            )
        raise NumericIntegrityError(f"outcome probability {float(p[first])!r} outside [0, 1]")
    # As min(max(p, 0.0), 1.0) per entry: -0.0 and NaN pass through unchanged.
    return np.where(p < 0.0, 0.0, np.where(p > 1.0, 1.0, p))


def _check_dims(states: ModeDims, dims: ModeDims):
    if states.dims != dims.dims:
        raise DimensionMismatch(
            f"state dims {states.dims} do not match element dims {dims.dims}"
        )


def _traces(stack: np.ndarray) -> np.ndarray:
    """The real part of each matrix's trace, with the bits of its own ``np.trace``."""
    return np.trace(stack, axis1=1, axis2=2).real


def _completeness_deviation(stack: np.ndarray) -> float:
    total = np.sum(stack, axis=0)
    return float(np.max(np.abs(total - np.eye(total.shape[0]))))


class OperatorStack:
    """Labelled positive operators on one space: ``labels``, a dict from
    label to index, and ``stack``, one read-only ``(k, d, d)`` array.

    Each element is a square, finite matrix, as an ``Operator`` checks it.
    Construction checks that the labels are unique, then element by
    element that each lives on the first one's dims and is positive
    semidefinite within ``errors.TOL``, then the whole set; the first
    fault found raises.  Each element check is one batched test of the
    whole stack (one :func:`psd_mask` call for positivity), and the first
    fault in element order is read off their table.
    ``OperatorStack(pairs)`` takes ``(label, Operator)`` pairs and
    :meth:`from_matrices` bare matrices; both copy them into the stack.
    A stack derived from a checked one (a preparation POM, biased-source
    elements) skips the element checks.  Its attributes cannot be
    reassigned.
    """

    #: What the set and one of its members are called in error messages.
    kind = "operator stack"
    noun = "element"
    #: How far outside ``[0, 1]`` an overlap with an element may fall.
    _row_tol = TOL
    #: The per-element fields :meth:`from_matrices` takes, all of them required.
    _fields = ()

    def __init__(self, elements: Iterable[Tuple[Hashable, Operator]]):
        pairs = tuple((label, op) for label, op in elements)
        self._check([label for label, _ in pairs], [op.mat for _, op in pairs],
                    [op.dims.dims for _, op in pairs])

    @classmethod
    def from_matrices(cls, labels: Iterable[Hashable], matrices: Iterable[np.ndarray],
                      **fields) -> "OperatorStack":
        """The elements ``matrices``, each a square complex matrix on one mode
        of its side length, under ``labels``.

        Each matrix is checked as an ``Operator`` checks its own, in element
        order, then copied into the stack; ``fields`` are copied and set
        before the stack's checks run.  An ensemble takes exactly
        ``priors``, and the other stacks take none: any other set of
        fields raises ``TypeError`` before any check runs.
        """
        return cls._from_matrices(labels, matrices, fields, _check_square_finite)

    @classmethod
    def _from_matrices(cls, labels, matrices, fields: dict,
                       check=lambda mat: None) -> "OperatorStack":
        """:meth:`from_matrices`, with ``check`` as the check of each matrix:
        none for matrices their reader has already checked."""
        if set(fields) != set(cls._fields):
            raise TypeError(f"{cls.__name__}.from_matrices takes the fields "
                            f"{list(cls._fields)}, got {sorted(fields)}")
        labels, matrices = list(labels), list(matrices)
        fields = {name: np.array(value, dtype=float) for name, value in fields.items()}
        if any(len(values) != len(labels) for values in (matrices, *fields.values())):
            raise ValidationError(f"{cls.kind} needs one matrix and one of each of "
                                  f"{sorted(fields)} per label")
        for mat in matrices:
            check(mat)
        self = cls.__new__(cls)._set(**fields)
        self._check(labels, matrices, [np.shape(mat)[:1] for mat in matrices])
        return self

    def _check(self, labels: list, mats: list, dims: list):
        """Check and set the elements ``mats[i]`` on mode dims ``dims[i]``."""
        if not labels:
            raise ValidationError(f"{self.kind} requires at least one {self.noun}")
        # The stack ends at the first element on other dims, which then
        # fails its dims check.
        n = next((i for i, d in enumerate(dims) if d != dims[0]), len(dims))
        stack = np.array(mats[:n], dtype=complex)
        index = {label: i for i, label in enumerate(labels)}
        if len(index) != len(labels):
            raise ValidationError(f"{self.kind} labels must be unique, got {labels!r}")
        expected = dims[0]
        # One column per element check, in the order an element takes them;
        # each mask marks the elements failing that check.
        checks = self._columns(labels, stack, [
            (np.arange(len(labels)) == n, lambda i: DimensionMismatch(
                f"{self._name(labels[i])} lives on dims {dims[i]}, expected {expected}")),
            (~psd_mask(stack), lambda i: ValidationError(
                f"{self._name(labels[i])} is not positive semidefinite")),
        ])
        # The first fault is the least (element, check) pair of each check's
        # first failing element.  No element after the first on other dims
        # is reached.
        reached = min(len(labels), n + 1)
        firsts = [(int(np.argmax(mask[:reached])), column)
                  for column, (mask, _) in enumerate(checks) if mask[:reached].any()]
        if firsts:
            i, column = min(firsts)
            raise checks[column][1](i)
        self._set(labels=tuple(labels), _index=index, dims=ModeDims(expected), stack=stack)
        self._check_set()

    @classmethod
    def _derived(cls, source: "OperatorStack", stack: np.ndarray) -> "OperatorStack":
        """``stack``, computed from a checked ``source`` element by element,
        under ``source``'s labels; no element check runs again."""
        return cls.__new__(cls)._set(labels=source.labels, _index=source._index,
                                     dims=source.dims, stack=stack)

    def _set(self, **fields) -> "OperatorStack":
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @classmethod
    def _name(cls, label: Hashable) -> str:
        return f"{cls.kind} {cls.noun} {label!r}"

    # Subclass checks: the element checks' ``(mask, fault)`` columns, where
    # ``fault(i)`` is the error of element i, given the base's dims and
    # positivity columns as ``base``; and a check of the whole set once
    # every element has passed.
    def _columns(self, labels: list, stack: np.ndarray, base: list) -> list: return base
    def _check_set(self): pass

    def __len__(self):
        return len(self.labels)

    @property
    def elements(self) -> Tuple[Tuple[Hashable, Operator], ...]:
        return tuple((label, Operator(mat, self.dims))
                     for label, mat in zip(self.labels, self.stack))

    def _position(self, label: Hashable, noun: Optional[str] = None) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):
            raise ValidationError(
                f"unknown {noun or self.noun} label {label!r}") from None

    def element(self, label: Hashable) -> Operator:
        return Operator(self.stack[self._position(label)], self.dims)

    def probabilities(self, state: Operator) -> np.ndarray:
        """Born probability of every element for ``state``, bit for bit
        :func:`born_probability` of each (within this stack's range
        tolerance), from one row of overlaps."""
        _check_dims(state.dims, self.dims)
        return _born_rows(state.mat[None], self.stack, self._row_tol)[0]

    def table(self, states: "OperatorStack") -> np.ndarray:
        """:meth:`probabilities` for each state of ``states``, a row each and
        bit for bit; the range is checked once for the whole table."""
        _check_dims(states.dims, self.dims)
        return _born_rows(states.stack, self.stack, self._row_tol)


class Pom(OperatorStack):
    """Probability operator measure: labelled positive elements summing to identity.

    Elements of zero trace are allowed (they simply never fire), but
    asking for the retrodictive state of such an element is an error.
    """

    kind = "POM"

    def _check_set(self):
        deviation = _completeness_deviation(self.stack)
        if deviation > TOL:
            raise ValidationError(f"{self.kind} elements must sum to the identity; "
                                  f"max deviation {deviation:.3e}")


class PreparationPom(Pom):
    """Preparation-side analogue of a measurement POM.

    One positive element per preparation event, summing to the identity;
    produced from an unbiased ensemble by :func:`preparation_pom`.
    """

    kind = "preparation POM"

    @property
    def _row_tol(self) -> float:
        # Element a is d * prior_a * state_a, and each state passed its
        # positivity check within TOL, so its overlaps may stray up to
        # d * prior_a <= d times that far outside [0, 1].
        return self.dims.total_dim * TOL


class BiasedElements(OperatorStack):
    """Prior-weighted state operators for a source that need not be unbiased.

    Element *i* is the prior probability of event *i* times its density
    operator, so the element traces are the priors and must sum to 1.
    The element sum is *not* required to be proportional to the identity.
    """

    kind = "biased-source"

    def _check_set(self):
        total = sum(_traces(self.stack).tolist())
        if abs(total - 1.0) > TOL:
            raise ValidationError(f"biased-source element traces must sum to 1 (they "
                                  f"are the priors), got {total!r}")

    @classmethod
    def from_ensemble(cls, ens: "PreparationEnsemble") -> "BiasedElements":
        """Weight each ensemble state by its prior.

        A nonnegative multiple of a checked state needs no second positivity
        test; only the trace sum is checked.
        """
        lam = cls._derived(ens, ens.stack * ens.priors[:, None, None])
        lam._check_set()
        return lam


class PreparationEnsemble(OperatorStack):
    """Labelled preparation events with priors and density operators.

    The states form the stack; each event's prior is checked just before
    its state and its unit trace just after.

    Parameters
    ----------
    events : sequence of (label, prior, Operator)
        Priors are nonnegative and sum to 1; every operator is positive
        semidefinite with unit trace, all on the same mode dims.
    """

    kind = "ensemble"
    noun = "event"
    _fields = ("priors",)

    def __init__(self, events: Iterable[Tuple[Hashable, float, Operator]]):
        events = tuple((label, float(prior), op) for label, prior, op in events)
        self._set(events=events, priors=np.array([prior for _, prior, _ in events]))
        super().__init__((label, op) for label, _, op in events)

    @functools.cached_property
    def events(self) -> Tuple[Tuple[Hashable, float, Operator], ...]:
        """``(label, prior, Operator)`` of each event; an ensemble built
        :meth:`from_matrices` makes them when first asked."""
        return tuple((label, prior, Operator(mat, self.dims)) for label, prior, mat
                     in zip(self.labels, self.priors.tolist(), self.stack))

    @classmethod
    def _name(cls, label: Hashable) -> str:
        return f"state of event {label!r}"

    @classmethod
    def _prior_name(cls, label: Hashable) -> str:
        """What the prior of the event ``label`` is called in error messages."""
        return f"prior of event {label!r}"

    def _columns(self, labels: list, stack: np.ndarray, base: list) -> list:
        priors, traces = self.priors, _traces(stack)
        return [
            (~np.isfinite(priors), lambda i: ValidationError(
                f"{self._prior_name(labels[i])} is not finite: {float(priors[i])}")),
            (priors < 0, lambda i: ValidationError(
                f"{self._prior_name(labels[i])} is negative: {float(priors[i])}")),
            *base,
            (np.abs(traces - 1.0) > TOL, lambda i: ValidationError(
                f"{self._name(labels[i])} has trace {float(traces[i])!r}, expected 1")),
        ]

    def _check_set(self):
        total = sum(self.priors.tolist())
        if abs(total - 1.0) > TOL:
            raise ValidationError(f"priors must sum to 1, got {total!r}")

    def state(self, label: Hashable) -> Operator:
        return self.events[self._position(label)][2]

    def prior(self, label: Hashable) -> float:
        return self.events[self._position(label)][1]

    def mixture(self) -> Operator:
        """Prior-weighted average state emitted by the source."""
        return Operator(np.sum(self.priors[:, None, None] * self.stack, axis=0), self.dims)


def born_probability(state: Operator, element: Operator) -> float:
    """Probability of the outcome ``element`` given the density operator ``state``.

    The trace of the product must be real and inside ``[-TOL, 1 + TOL]``
    (``errors.TOL``); the return value is clamped onto ``[0, 1]``.
    ``state`` is assumed to be a valid density operator and ``element`` a
    positive operator — the range check is the guard against violations.

    Raises
    ------
    DimensionMismatch
        If the operands live on different mode dims.
    NumericIntegrityError
        If the trace has a non-negligible imaginary part or falls outside
        the tolerated probability range.
    """
    _check_dims(state.dims, element.dims)
    return float(_born_rows(state.mat[None], element.mat[None], TOL)[0, 0])


def _preparation_stack(ens: PreparationEnsemble) -> Tuple[np.ndarray, float]:
    """The elements ``d * prior * state`` and their deviation from the identity."""
    d = ens.dims.total_dim
    stack = ens.stack * (d * ens.priors)[:, None, None]
    return stack, _completeness_deviation(stack)


def is_unbiased(ens: PreparationEnsemble) -> bool:
    """Whether the source's average output is the maximally mixed state.

    Decided as the preparation POM's completeness: the elements
    ``d * prior * state`` sum to the identity within ``errors.TOL``.  It
    holds exactly when :func:`preparation_pom` succeeds.
    """
    return _preparation_stack(ens)[1] <= TOL


def preparation_pom(ens: PreparationEnsemble) -> PreparationPom:
    """Preparation POM of an unbiased ensemble.

    Each element is the event's density operator scaled by its prior and
    the space dimension; unbiasedness makes the elements sum to identity.
    The states were checked with the ensemble, so the elements are not
    checked again.

    Raises
    ------
    BiasedSourceError
        If the ensemble is not unbiased within ``errors.TOL``.  Biased sources
        have no preparation POM; use :meth:`BiasedElements.from_ensemble`
        with :func:`retro_conditional_biased` instead.
    """
    stack, deviation = _preparation_stack(ens)
    if deviation > TOL:
        raise BiasedSourceError(
            "ensemble is not unbiased, so it has no preparation POM; build "
            "BiasedElements.from_ensemble(ens) and use retro_conditional_biased"
        )
    return PreparationPom._derived(ens, stack)


def retro_state(element: Operator) -> Operator:
    """Retrodictive density operator of a measurement outcome.

    This is the POM element normalized to unit trace: conditioned on the
    outcome having fired, it encodes everything the measurement reveals
    about the earlier preparation.  It is :func:`_retro_states` of one element.

    Raises
    ------
    ZeroProbabilityError
        If the element's trace is at or below ``errors.TRACE_TOL``: an
        outcome that cannot fire has no retrodictive state.
    """
    return Operator._adopt(_retro_states(element.mat[None])[0], element.dims)


def _retro_states(elements: np.ndarray, use=lambda states: states, traces=None):
    """What ``use`` makes of the retrodictive states of ``elements``, a
    ``(n, d, d)`` stack: each element scaled by one over its trace, its
    :func:`_traces` entry unless ``traces`` are given.  The states stop
    before the first element whose trace is at or below
    ``errors.TRACE_TOL``, whose fault is raised once ``use`` has run."""
    traces = _traces(elements) if traces is None else traces
    zero = traces <= TRACE_TOL
    n = int(np.argmax(zero)) if zero.any() else len(elements)
    used = use(elements[:n] * (1.0 / traces[:n]).astype(complex)[:, None, None])
    if n < len(elements):
        raise ZeroProbabilityError(f"element trace {float(traces[n])!r} is not positive; the "
                                   f"outcome has zero probability and no retrodictive state")
    return used


def outcome_prior(element: Operator) -> float:
    """A priori probability of the outcome when nothing about the source is known.

    Equals the element trace divided by the space dimension — the outcome
    probability for the maximally mixed input.
    """
    return float(_traces(element.mat[None])[0]) / element.dims.total_dim


def retro_conditional_unbiased(prep: PreparationPom, element: Operator | np.ndarray,
                               event: Optional[Hashable] = None) -> float | np.ndarray:
    """Posterior probability of a preparation event given a measurement outcome.

    Valid for unbiased sources only: the posterior is the overlap of the
    outcome's retrodictive state with the event's preparation POM element.

    With ``event`` omitted (None), returns the whole posterior row: an
    array over ``prep.labels``, the retrodictive state computed once.  A
    single event's posterior is that row's entry, bit for bit.  Given a
    complex ``(n, d, d)`` stack of outcome elements instead of one
    element, and no event, returns their rows, each bit for bit the row
    of its element alone.
    """
    return _posterior(_unbiased_rows, prep, element, event)


def retro_conditional_biased(lam: BiasedElements, element: Operator | np.ndarray,
                             event: Optional[Hashable] = None) -> float | np.ndarray:
    """Posterior probability of a preparation event for a possibly biased source.

    The posterior is the overlap of the event's prior-weighted state with
    the outcome element, normalized across all events.  Reduces to the
    unbiased form whenever the weighted states do sum to a multiple of
    the identity.

    With ``event`` omitted (None), returns the whole posterior row: an
    array over ``lam.labels``, each overlap computed once.  A single
    event's posterior is that row's entry, bit for bit.  Given a complex
    ``(n, d, d)`` stack of outcome elements instead of one element, and
    no event, returns their rows, each bit for bit the row of its element
    alone.

    Raises
    ------
    ValidationError
        If ``event`` is not one of ``lam.labels``.
    ZeroProbabilityError
        If every event has exactly zero overlap with the outcome.
    """
    return _posterior(_biased_rows, lam, element, event)


def _posterior(rows, source: OperatorStack, element: Operator | np.ndarray,
               event: Optional[Hashable]) -> float | np.ndarray:
    """``event``'s posterior, or the row or rows, that ``rows(source, stack)``
    gives for ``element``: an ``Operator`` on ``source``'s dims or a stack."""
    position = None if event is None else source._position(event, "event")
    if isinstance(element, np.ndarray):
        if event is not None:
            raise ValidationError("an event selects from one element's row; "
                                  "pass that element as an Operator")
        if element.shape[1:] != source.stack.shape[1:]:
            raise DimensionMismatch(f"elements of shape {element.shape[1:]} do not "
                                    f"match source dims {source.dims.dims}")
        return rows(source, element)
    if element.dims.dims != source.dims.dims:
        raise DimensionMismatch(f"element dims {element.dims.dims} do not match "
                                f"source dims {source.dims.dims}")
    row = rows(source, element.mat[None])[0]
    return row if position is None else float(row[position])


def _unbiased_rows(prep: PreparationPom, elements: np.ndarray) -> np.ndarray:
    # The rows before the first zero-trace element are range-checked before
    # that element's fault is raised.
    return _retro_states(elements, lambda rho: _born_rows(rho, prep.stack, prep._row_tol))


def _biased_rows(lam: BiasedElements, elements: np.ndarray) -> np.ndarray:
    # A row per element, in C order, so that each row sums as a contiguous row.
    raw = np.ascontiguousarray(_overlaps(lam.stack, elements).T)
    bad = (np.abs(raw.imag) > TOL) | (raw.real < -TOL)
    overlaps = np.where(raw.real < 0.0, 0.0, raw.real)
    denominators = overlaps.sum(axis=1)
    faulty = bad.any(axis=1) | (denominators <= 0.0)
    if faulty.any():
        row = int(np.argmax(faulty))
        if bad[row].any():
            first = int(np.argmax(bad[row]))
            raise NumericIntegrityError(
                f"overlap of event {lam.labels[first]!r} with the outcome is not "
                f"a nonnegative real: {complex(raw[row, first])!r}")
        raise ZeroProbabilityError(
            "outcome has zero probability under every event; posterior undefined")
    return overlaps / denominators[:, None]


def predictive_conditional_subset(state: Operator, pom: Pom,
                                  subset: Iterable[Hashable],
                                  outcome: Hashable) -> float:
    """Outcome probability when only a subset of outcomes is of interest.

    Conditions the ordinary outcome distribution of ``state`` on the
    result landing in ``subset``; with the full outcome set this is just
    the plain outcome probability.

    Raises
    ------
    ValidationError
        If ``outcome`` is not a member of ``subset``.
    ZeroProbabilityError
        If the whole subset has (numerically) zero probability.
    """
    members = tuple(dict.fromkeys(subset))
    if outcome not in members:
        raise ValidationError(f"outcome {outcome!r} is not in the subset {members!r}")
    probs = {label: born_probability(state, pom.element(label)) for label in members}
    total = sum(probs.values())
    if total <= TRACE_TOL:
        raise ZeroProbabilityError(
            "the subset of interest has zero probability; conditioning undefined"
        )
    return probs[outcome] / total
