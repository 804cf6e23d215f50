"""Classical Bayes engine over finite event sets.

Works entirely with labelled discrete distributions: a prior over
"preparation" events and a table of conditional probabilities for
"outcome" events given each preparation.  Forward inference gives the
outcome marginal; inverse (retrodictive) inference gives the posterior
over preparations once an outcome is known.

This module is deliberately independent of the operator machinery: the
quantum layers are checked against it, so nothing here may import them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence, Tuple

import numpy as np

from .errors import TOL, ValidationError, ZeroProbabilityError


def _as_labels(labels: Sequence[Hashable], what: str) -> Tuple[Hashable, ...]:
    out = tuple(labels)
    if not out:
        raise ValidationError(f"{what} must contain at least one label")
    if len(set(out)) != len(out):
        raise ValidationError(f"{what} must be unique, got {out!r}")
    return out


@dataclass(frozen=True)
class EventSpace:
    """A finite set of mutually exclusive events with prior probabilities.

    Parameters
    ----------
    labels : sequence of hashable
        Distinct event identifiers, in a fixed order.
    priors : sequence of float
        One probability per label; nonnegative, summing to 1 within
        ``errors.TOL``.  Never renormalized silently.
    """

    labels: Tuple[Hashable, ...]
    priors: np.ndarray

    def __post_init__(self):
        labels = _as_labels(self.labels, "event labels")
        priors = np.array(self.priors, dtype=float)
        if priors.ndim != 1 or priors.size != len(labels):
            raise ValidationError(
                f"expected {len(labels)} priors, got array of shape {priors.shape}"
            )
        if not np.all(np.isfinite(priors)):
            raise ValidationError(f"priors must be finite, got {priors}")
        if np.any(priors < 0):
            raise ValidationError(f"priors must be nonnegative, got {priors}")
        total = float(priors.sum())
        if abs(total - 1.0) > TOL:
            raise ValidationError(f"priors must sum to 1, got {total!r}")
        priors.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "priors", priors)


@dataclass(frozen=True)
class ConditionalTable:
    """Row-stochastic table of P(outcome | condition).

    Rows are indexed by conditioning-event label, columns by outcome
    label.  Every row must be nonnegative and sum to 1 within
    ``errors.TOL``; malformed rows are rejected, never rescaled.
    """

    row_labels: Tuple[Hashable, ...]
    col_labels: Tuple[Hashable, ...]
    probs: np.ndarray

    def __post_init__(self):
        rows = _as_labels(self.row_labels, "row labels")
        cols = _as_labels(self.col_labels, "column labels")
        try:
            probs = np.array(self.probs, dtype=float)
        except ValueError as exc:
            raise ValidationError(f"malformed conditional table: {exc}") from None
        if probs.shape != (len(rows), len(cols)):
            raise ValidationError(
                f"expected table of shape {(len(rows), len(cols))}, got {probs.shape}"
            )
        if not np.all(np.isfinite(probs)):
            raise ValidationError("conditional probabilities must be finite")
        if np.any(probs < 0):
            raise ValidationError("conditional probabilities must be nonnegative")
        sums = probs.sum(axis=1)
        bad = np.abs(sums - 1.0) > TOL
        if np.any(bad):
            offender = rows[int(np.argmax(bad))]
            raise ValidationError(
                f"row {offender!r} sums to {float(sums[bad][0])!r}, expected 1"
            )
        probs.flags.writeable = False
        object.__setattr__(self, "row_labels", rows)
        object.__setattr__(self, "col_labels", cols)
        object.__setattr__(self, "probs", probs)

    def row_index(self, label: Hashable) -> int:
        try:
            return self.row_labels.index(label)
        except ValueError:
            raise ValidationError(f"unknown conditioning label {label!r}") from None

    def col_index(self, label: Hashable) -> int:
        try:
            return self.col_labels.index(label)
        except ValueError:
            raise ValidationError(f"unknown outcome label {label!r}") from None

    def row(self, label: Hashable) -> np.ndarray:
        return self.probs[self.row_index(label)]

    def prob(self, outcome: Hashable, given: Hashable) -> float:
        return float(self.probs[self.row_index(given), self.col_index(outcome)])


def _check_alignment(space: EventSpace, cond: ConditionalTable):
    if space.labels != cond.row_labels:
        raise ValidationError(
            f"conditional rows {cond.row_labels!r} do not match "
            f"event labels {space.labels!r}"
        )


def joint(space: EventSpace, cond: ConditionalTable) -> np.ndarray:
    """Joint probability matrix P(condition, outcome).

    Entry [i, j] is prior[i] times P(outcome_j | condition_i); the whole
    matrix sums to 1.
    """
    _check_alignment(space, cond)
    return space.priors[:, None] * cond.probs


def _lifted(space: EventSpace, cond: ConditionalTable, cols) -> Tuple[np.ndarray, np.ndarray]:
    """Each product p_a * c_ab of the outcome columns ``cols`` as the product
    of the mantissas times 2**(ep + ec), a C-contiguous row per outcome
    (so a row adds up in the order of its own ``sum()``), each row lifted by
    the one power of two that brings its largest to at least 1/4, and the
    exponents that undo the lifts.  Only products negligible beside their
    row's largest stay subnormal.
    """
    mp, ep = np.frexp(space.priors)
    mc, ec = np.frexp(cond.probs.T[cols], order="C")
    m, e = mp * mc, ep + ec
    lift = np.maximum(0, -e.max(axis=1, where=m > 0, initial=e.min()))
    return np.ldexp(m, e + lift[:, None]), -lift


def predict_marginal(space: EventSpace, cond: ConditionalTable) -> np.ndarray:
    """Forward inference: the outcome distribution before anything is observed.

    Entry b is the sum :func:`retrodict_conditional` divides by for outcome
    b, scaled back by one rounding: products below the normal range are
    added lifted, not first rounded to the subnormal grid.
    """
    _check_alignment(space, cond)
    products, undo = _lifted(space, cond, slice(None))
    return np.ldexp(products.sum(axis=1), undo)


def retrodict_conditional(space: EventSpace, cond: ConditionalTable,
                          outcome: Hashable) -> np.ndarray:
    """Posterior over conditioning events given an observed outcome.

    Raises
    ------
    ZeroProbabilityError
        If the observed outcome has zero marginal probability, in which
        case the posterior is undefined.
    """
    _check_alignment(space, cond)
    # The division cancels the lift.
    (column,), _ = _lifted(space, cond, [cond.col_index(outcome)])
    total = float(column.sum())
    if total <= 0.0:
        raise ZeroProbabilityError(
            f"outcome {outcome!r} has zero probability; posterior is undefined"
        )
    return column / total
