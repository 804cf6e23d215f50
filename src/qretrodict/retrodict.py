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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Sequence, Tuple

import numpy as np

from . import hilbert
from .errors import (
    BiasedSourceError,
    DimensionMismatch,
    NumericIntegrityError,
    ValidationError,
    ZeroProbabilityError,
)
from .hilbert import DEFAULT_TOL, ModeDims, Operator

#: Tolerance for completeness / normalization checks at construction time.
COMPLETENESS_TOL = 1e-9

#: Default floor below which an outcome's weight counts as zero probability.
TRACE_TOL = 1e-12

LabeledOps = Tuple[Tuple[Hashable, Operator], ...]


def _real_trace(op: Operator) -> float:
    return float(np.trace(op.mat).real)


def _validate_labeled_elements(elements, kind: str, *,
                               require_completeness: bool) -> Tuple[LabeledOps, ModeDims]:
    elements = tuple((label, op) for label, op in elements)
    if not elements:
        raise ValidationError(f"{kind} requires at least one element")
    labels = [label for label, _ in elements]
    if len(set(labels)) != len(labels):
        raise ValidationError(f"{kind} labels must be unique, got {labels!r}")
    dims = elements[0][1].dims
    for label, op in elements:
        if op.dims.dims != dims.dims:
            raise DimensionMismatch(
                f"{kind} element {label!r} lives on dims {op.dims.dims}, "
                f"expected {dims.dims}"
            )
        if not hilbert.is_psd(op, COMPLETENESS_TOL):
            raise ValidationError(f"{kind} element {label!r} is not positive semidefinite")
    if require_completeness:
        total = np.sum([op.mat for _, op in elements], axis=0)
        deviation = float(np.max(np.abs(total - np.eye(dims.total_dim))))
        if deviation > COMPLETENESS_TOL:
            raise ValidationError(
                f"{kind} elements must sum to the identity; "
                f"max deviation {deviation:.3e}"
            )
    return elements, dims


class _LabeledElementsMixin:
    """Shared label-based access for POM-like element collections."""

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def labels(self) -> Tuple[Hashable, ...]:
        return tuple(label for label, _ in self.elements)

    def element(self, label: Hashable) -> Operator:
        for candidate, op in self.elements:
            if candidate == label:
                return op
        raise ValidationError(f"unknown element label {label!r}")


@dataclass(frozen=True)
class Pom(_LabeledElementsMixin):
    """Probability operator measure: labelled positive elements summing to identity.

    Elements of zero trace are allowed (they simply never fire), but
    asking for the retrodictive state of such an element is an error.
    """

    elements: LabeledOps

    def __post_init__(self):
        elements, dims = _validate_labeled_elements(
            self.elements, "POM", require_completeness=True)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_dims", dims)

    @property
    def dims(self) -> ModeDims:
        return self._dims


@dataclass(frozen=True)
class PreparationPom(_LabeledElementsMixin):
    """Preparation-side analogue of a measurement POM.

    One positive element per preparation event, summing to the identity;
    produced from an unbiased ensemble by :func:`preparation_pom`.
    """

    elements: LabeledOps

    def __post_init__(self):
        elements, dims = _validate_labeled_elements(
            self.elements, "preparation POM", require_completeness=True)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_dims", dims)

    @property
    def dims(self) -> ModeDims:
        return self._dims


@dataclass(frozen=True)
class BiasedElements(_LabeledElementsMixin):
    """Prior-weighted state operators for a source that need not be unbiased.

    Element *i* is the prior probability of event *i* times its density
    operator, so the element traces are the priors and must sum to 1.
    The element sum is *not* required to be proportional to the identity.
    """

    elements: LabeledOps

    def __post_init__(self):
        elements, dims = _validate_labeled_elements(
            self.elements, "biased-source", require_completeness=False)
        total = sum(_real_trace(op) for _, op in elements)
        if abs(total - 1.0) > COMPLETENESS_TOL:
            raise ValidationError(
                f"biased-source element traces must sum to 1 (they are the "
                f"priors), got {total!r}"
            )
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_dims", dims)

    @property
    def dims(self) -> ModeDims:
        return self._dims

    @classmethod
    def from_ensemble(cls, ens: "PreparationEnsemble") -> "BiasedElements":
        """Weight each ensemble state by its prior."""
        return cls(tuple((label, hilbert.scale(state, prior))
                         for label, prior, state in ens.events))


@dataclass(frozen=True)
class PreparationEnsemble:
    """Labelled preparation events with priors and density operators.

    Parameters
    ----------
    events : sequence of (label, prior, Operator)
        Priors are nonnegative and sum to 1; every operator is positive
        semidefinite with unit trace, all on the same mode dims.
    """

    events: Tuple[Tuple[Hashable, float, Operator], ...]

    def __post_init__(self):
        events = tuple((label, float(prior), op) for label, prior, op in self.events)
        if not events:
            raise ValidationError("ensemble requires at least one event")
        labels = [label for label, _, _ in events]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"ensemble labels must be unique, got {labels!r}")
        dims = events[0][2].dims
        for label, prior, op in events:
            if prior < 0:
                raise ValidationError(f"prior of event {label!r} is negative: {prior}")
            if op.dims.dims != dims.dims:
                raise DimensionMismatch(
                    f"state of event {label!r} lives on dims {op.dims.dims}, "
                    f"expected {dims.dims}"
                )
            if not hilbert.is_psd(op, COMPLETENESS_TOL):
                raise ValidationError(f"state of event {label!r} is not positive semidefinite")
            if abs(_real_trace(op) - 1.0) > COMPLETENESS_TOL:
                raise ValidationError(
                    f"state of event {label!r} has trace {_real_trace(op)!r}, expected 1"
                )
        total = sum(prior for _, prior, _ in events)
        if abs(total - 1.0) > COMPLETENESS_TOL:
            raise ValidationError(f"priors must sum to 1, got {total!r}")
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "_dims", dims)

    @property
    def dims(self) -> ModeDims:
        return self._dims

    @property
    def labels(self) -> Tuple[Hashable, ...]:
        return tuple(label for label, _, _ in self.events)

    @property
    def priors(self) -> np.ndarray:
        return np.array([prior for _, prior, _ in self.events])

    def state(self, label: Hashable) -> Operator:
        for candidate, _, op in self.events:
            if candidate == label:
                return op
        raise ValidationError(f"unknown event label {label!r}")

    def prior(self, label: Hashable) -> float:
        for candidate, prior, _ in self.events:
            if candidate == label:
                return prior
        raise ValidationError(f"unknown event label {label!r}")

    def mixture(self) -> Operator:
        """Prior-weighted average state emitted by the source."""
        mat = np.sum([prior * op.mat for _, prior, op in self.events], axis=0)
        return Operator(mat, self._dims)


def born_probability(state: Operator, element: Operator,
                     tol: float = DEFAULT_TOL) -> float:
    """Probability of the outcome ``element`` given the density operator ``state``.

    The trace of the product must be real and inside ``[-tol, 1 + tol]``;
    the return value is clamped onto ``[0, 1]``.  ``state`` is assumed to
    be a valid density operator and ``element`` a positive operator — the
    range check is the guard against violations.

    Raises
    ------
    DimensionMismatch
        If the operands live on different mode dims.
    NumericIntegrityError
        If the trace has a non-negligible imaginary part or falls outside
        the tolerated probability range.
    """
    if state.dims.dims != element.dims.dims:
        raise DimensionMismatch(
            f"state dims {state.dims.dims} do not match element dims {element.dims.dims}"
        )
    raw = complex(np.einsum("ij,ji->", state.mat, element.mat))
    if abs(raw.imag) > tol:
        raise NumericIntegrityError(
            f"outcome probability has imaginary part {raw.imag:.3e}"
        )
    p = raw.real
    if p < -tol or p > 1.0 + tol:
        raise NumericIntegrityError(f"outcome probability {p!r} outside [0, 1]")
    return min(max(p, 0.0), 1.0)


def is_unbiased(ens: PreparationEnsemble, tol: float = DEFAULT_TOL) -> bool:
    """Whether the source's average output is the maximally mixed state."""
    d = ens.dims.total_dim
    deviation = np.max(np.abs(ens.mixture().mat - np.eye(d) / d))
    return bool(deviation <= tol)


def preparation_pom(ens: PreparationEnsemble,
                    tol: float = DEFAULT_TOL) -> PreparationPom:
    """Preparation POM of an unbiased ensemble.

    Each element is the event's density operator scaled by its prior and
    the space dimension; unbiasedness makes the elements sum to identity.

    Raises
    ------
    BiasedSourceError
        If the ensemble is not unbiased within ``tol``.  Biased sources
        have no preparation POM; use :meth:`BiasedElements.from_ensemble`
        with :func:`retro_conditional_biased` instead.
    """
    if not is_unbiased(ens, tol):
        raise BiasedSourceError(
            "ensemble is not unbiased, so it has no preparation POM; build "
            "BiasedElements.from_ensemble(ens) and use retro_conditional_biased"
        )
    d = ens.dims.total_dim
    return PreparationPom(tuple((label, hilbert.scale(state, d * prior))
                                for label, prior, state in ens.events))


def retro_state(element: Operator, trace_tol: float = TRACE_TOL) -> Operator:
    """Retrodictive density operator of a measurement outcome.

    This is the POM element normalized to unit trace: conditioned on the
    outcome having fired, it encodes everything the measurement reveals
    about the earlier preparation.

    Raises
    ------
    ZeroProbabilityError
        If the element's trace is at or below ``trace_tol``: an outcome
        that cannot fire has no retrodictive state.
    """
    tr = _real_trace(element)
    if tr <= trace_tol:
        raise ZeroProbabilityError(
            f"element trace {tr!r} is not positive; the outcome has zero "
            f"probability and no retrodictive state"
        )
    return hilbert.scale(element, 1.0 / tr)


def outcome_prior(element: Operator) -> float:
    """A priori probability of the outcome when nothing about the source is known.

    Equals the element trace divided by the space dimension — the outcome
    probability for the maximally mixed input.
    """
    return _real_trace(element) / element.dims.total_dim


def retro_conditional_unbiased(prep: PreparationPom, element: Operator,
                               event: Hashable,
                               trace_tol: float = TRACE_TOL) -> float:
    """Posterior probability of a preparation event given a measurement outcome.

    Valid for unbiased sources only: the posterior is the overlap of the
    outcome's retrodictive state with the event's preparation POM element.
    """
    xi = prep.element(event)
    return born_probability(retro_state(element, trace_tol), xi)


def retro_conditional_biased(lam: BiasedElements, element: Operator,
                             event: Optional[Hashable] = None,
                             trace_tol: float = TRACE_TOL) -> float | np.ndarray:
    """Posterior probability of a preparation event for a possibly biased source.

    The posterior is the overlap of the event's prior-weighted state with
    the outcome element, normalized across all events.  Reduces to the
    unbiased form whenever the weighted states do sum to a multiple of
    the identity.

    With ``event`` omitted (None), returns the whole posterior row: an
    array over ``lam.labels``, each overlap computed once.  A single
    event's posterior is that row's entry, bit for bit.

    Raises
    ------
    ValidationError
        If ``event`` is not one of ``lam.labels``.
    ZeroProbabilityError
        If every event has (numerically) zero overlap with the outcome.
    """
    if event is None:
        return _biased_posterior_row(lam, element, trace_tol)
    labels = lam.labels
    if event not in labels:
        raise ValidationError(f"unknown event label {event!r}")
    return float(_biased_posterior_row(lam, element, trace_tol)[labels.index(event)])


def _biased_posterior_row(lam: BiasedElements, element: Operator,
                          trace_tol: float) -> np.ndarray:
    overlaps = np.empty(len(lam))
    for k, (label, op) in enumerate(lam.elements):
        if op.dims.dims != element.dims.dims:
            raise DimensionMismatch(
                f"element dims {element.dims.dims} do not match source dims {op.dims.dims}"
            )
        raw = complex(np.einsum("ij,ji->", op.mat, element.mat))
        if abs(raw.imag) > DEFAULT_TOL or raw.real < -DEFAULT_TOL:
            raise NumericIntegrityError(
                f"overlap of event {label!r} with the outcome is not a "
                f"nonnegative real: {raw!r}"
            )
        overlaps[k] = max(raw.real, 0.0)
    denominator = float(overlaps.sum())
    if denominator <= trace_tol:
        raise ZeroProbabilityError(
            f"outcome has zero probability under every event; posterior undefined"
        )
    return overlaps / denominator


def predictive_conditional_subset(state: Operator, pom: Pom,
                                  subset: Iterable[Hashable],
                                  outcome: Hashable,
                                  trace_tol: float = TRACE_TOL) -> float:
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
    if total <= trace_tol:
        raise ZeroProbabilityError(
            "the subset of interest has zero probability; conditioning undefined"
        )
    return probs[outcome] / total
