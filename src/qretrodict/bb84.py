"""Four-state polarization key distribution, worked forwards and backwards.

Alice prepares one of four single-photon polarization states — left/right
circular or vertical/horizontal linear — with equal probability, and Bob
measures in a randomly chosen basis.  The predictive table gives Bob's
outcome probabilities for each preparation; the retrodictive table gives
Alice's preparation probabilities for each outcome.  Because the source
is unbiased the two tables are each other's Bayes transpose.

A slot whose preparation and outcome are orthogonal cannot occur over an
undisturbed channel, so observing one flags an eavesdropper (or channel
error).  The Monte-Carlo helper simulates honest transmission and the
minimal intercept-resend attack, in which an eavesdropper measures in a
random basis and forwards her outcome.  It draws every slot as numpy
indices; Bob's basis is always his outcome's, so a slot is fixed by the
code ``alice * 4 + outcome``, the tally is one count of the codes, and
each slot's record is one of 16 shared ``SlotRecord``s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .bayes import ConditionalTable
from .errors import TOL, ValidationError

#: Canonical label order used by every table in this module.
LABELS = ("L", "R", "V", "H")

#: Measurement bases and the labels they resolve.
BASES = {"circular": ("L", "R"), "linear": ("V", "H")}

_SQRT_HALF = 1.0 / np.sqrt(2.0)

#: Amplitudes in the (V, H) basis.
_AMPLITUDES = {
    "L": (_SQRT_HALF, 1j * _SQRT_HALF),
    "R": (_SQRT_HALF, -1j * _SQRT_HALF),
    "V": (1.0 + 0j, 0j),
    "H": (0j, 1.0 + 0j),
}


def basis_of(label: str) -> str:
    """The measurement basis a polarization label belongs to."""
    for basis, members in BASES.items():
        if label in members:
            return basis
    raise ValidationError(f"unknown polarization label {label!r}")


@dataclass(frozen=True)
class PolarizationState:
    """One of the four signal polarizations, as amplitudes in the (V, H) basis."""

    label: str
    amplitudes: Tuple[complex, complex]

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValidationError(
                f"label must be one of {LABELS}, got {self.label!r}"
            )
        amps = tuple(complex(a) for a in self.amplitudes)
        if len(amps) != 2:
            raise ValidationError("polarization amplitudes must have two components")
        norm_sq = abs(amps[0]) ** 2 + abs(amps[1]) ** 2
        if abs(norm_sq - 1.0) > TOL:
            raise ValidationError(f"amplitudes must be normalized, |a|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def canonical(cls, label: str) -> "PolarizationState":
        if label not in _AMPLITUDES:
            raise ValidationError(f"unknown polarization label {label!r}")
        return cls(label, _AMPLITUDES[label])

    @property
    def basis(self) -> str:
        return basis_of(self.label)

    def overlap_probability(self, other: "PolarizationState") -> float:
        """Squared inner product of the two polarization amplitudes."""
        inner = (np.conj(self.amplitudes[0]) * other.amplitudes[0]
                 + np.conj(self.amplitudes[1]) * other.amplitudes[1])
        return float(abs(inner) ** 2)


#: ``overlap_probability`` of the canonical states ``LABELS[i]`` and ``LABELS[j]``,
#: and whether they are orthogonal: the pairs whose slot flags an eavesdropper.
_OVERLAPS = np.array([[PolarizationState.canonical(a).overlap_probability(
    PolarizationState.canonical(b)) for b in LABELS] for a in LABELS])
_ORTHOGONAL = _OVERLAPS < TOL


@dataclass(frozen=True)
class SlotRecord:
    """One transmission slot: Alice's choice, Bob's basis and Bob's outcome."""

    alice_choice: str
    bob_basis: str
    bob_outcome: str

    def __post_init__(self):
        if self.alice_choice not in LABELS:
            raise ValidationError(f"unknown preparation label {self.alice_choice!r}")
        if self.bob_basis not in BASES:
            raise ValidationError(
                f"basis must be one of {tuple(BASES)}, got {self.bob_basis!r}"
            )
        if self.bob_outcome not in BASES[self.bob_basis]:
            raise ValidationError(
                f"outcome {self.bob_outcome!r} does not belong to the "
                f"{self.bob_basis} basis"
            )


def predictive_table() -> ConditionalTable:
    """Bob's outcome distribution for each of Alice's preparations.

    Rows are Alice's choices, columns Bob's outcomes; every entry is half
    the squared overlap of the two states (half for Bob's basis choice).
    """
    return ConditionalTable(LABELS, LABELS, 0.5 * _OVERLAPS)


def retrodictive_table() -> ConditionalTable:
    """Alice's preparation distribution for each of Bob's outcomes.

    Rows are Bob's outcomes, columns Alice's choices.  The priors are
    uniform and every outcome column of the predictive table sums to 1,
    so Bayes' rule reduces to transposing that table.
    """
    return ConditionalTable(LABELS, LABELS, predictive_table().probs.T)


def eavesdrop_flag(slot: SlotRecord) -> bool:
    """Whether a slot's preparation/outcome pair is impossible over an honest channel.

    True iff the preparation and the outcome state are orthogonal: such a
    correlation has zero probability without interference, so seeing one
    reveals an eavesdropper or a channel error.
    """
    alice, bob = LABELS.index(slot.alice_choice), LABELS.index(slot.bob_outcome)
    return bool(_ORTHOGONAL[alice, bob])


@dataclass(frozen=True)
class SimulationSummary:
    """Tallies from a slot simulation, each read off one count table.

    ``outcome_counts[i, j]`` counts slots where Alice chose ``LABELS[i]``
    and Bob registered ``LABELS[j]``.  Same-basis slots are those where
    Bob happened to measure in Alice's basis; over an honest channel the
    outcome then always matches the preparation.  Within a basis the two
    states are orthogonal, so the same-basis errors are exactly the
    ``flagged`` slots, and both stay zero.

    Two summaries are equal when their attacks and count tables are.
    """

    attack: str
    outcome_counts: np.ndarray

    def __post_init__(self):
        counts = np.array(self.outcome_counts, dtype=int)
        counts.flags.writeable = False
        object.__setattr__(self, "outcome_counts", counts)

    def __eq__(self, other):
        if not isinstance(other, SimulationSummary):
            return NotImplemented
        return (self.attack == other.attack
                and np.array_equal(self.outcome_counts, other.outcome_counts))

    def __hash__(self):
        return hash((self.attack, self.outcome_counts.tobytes()))

    @property
    def slots(self) -> int:
        return int(self.outcome_counts.sum())

    @property
    def flagged(self) -> int:
        return int(self.outcome_counts[_ORTHOGONAL].sum())

    same_basis_errors = flagged

    @property
    def same_basis_slots(self) -> int:
        return int(self.outcome_counts[_SAME_BASIS].sum())

    @property
    def same_basis_error_rate(self) -> float:
        if self.same_basis_slots == 0:
            return 0.0
        return self.same_basis_errors / self.same_basis_slots

    def conditional_frequencies(self) -> np.ndarray:
        """Empirical outcome frequencies per preparation; all-zero rows stay zero."""
        counts = self.outcome_counts.astype(float)
        totals = counts.sum(axis=1, keepdims=True)
        return np.divide(counts, totals, out=np.zeros_like(counts),
                         where=totals > 0)


# Index layout for the vectorized simulation: states by their index in
# LABELS, bases by their index in BASES.
_BASIS_NAMES = tuple(BASES)
_BASIS_MEMBERS = np.array([[LABELS.index(label) for label in members]
                           for members in BASES.values()])
_BASIS_OF_STATE = np.array([_BASIS_NAMES.index(basis_of(label)) for label in LABELS])

#: Whether a state and an outcome, by index, belong to the same basis.
_SAME_BASIS = _BASIS_OF_STATE[:, None] == _BASIS_OF_STATE[None, :]

#: The record of each slot code ``alice * 4 + outcome``: Bob's basis is
#: always that of his outcome, so the code fixes the slot.  Each record is
#: built and checked once, and every slot of its code shares it.
_RECORDS = np.empty(16, dtype=object)
_RECORDS[:] = [SlotRecord(LABELS[a], _BASIS_NAMES[_BASIS_OF_STATE[o]], LABELS[o])
               for a in range(4) for o in range(4)]

# P(first basis member | input state, measurement basis).
_P_FIRST = _OVERLAPS[_BASIS_MEMBERS[:, 0]].T


def _measure(rng, state_idx: np.ndarray, basis_idx: np.ndarray) -> np.ndarray:
    """Vectorized projective measurement in the chosen bases."""
    p_first = _P_FIRST[state_idx, basis_idx]
    takes_first = rng.random(state_idx.size) < p_first
    return _BASIS_MEMBERS[basis_idx, np.where(takes_first, 0, 1)]


def simulate_slots(count: int, rng_seed: int,
                   attack: str = "none") -> Tuple[List[SlotRecord], SimulationSummary]:
    """Monte-Carlo run of ``count`` transmission slots.

    Alice's choices and Bob's basis picks are uniform.  With
    ``attack="intercept_resend"`` an eavesdropper first measures each
    photon in a random basis and forwards her outcome state, which
    scrambles a quarter of the same-basis slots.

    Returns the per-slot records, each one of 16 shared ``SlotRecord``s,
    and a :class:`SimulationSummary`.
    """
    count = int(count)
    if count < 1:
        raise ValidationError(f"slot count must be at least 1, got {count}")
    if attack not in ("none", "intercept_resend"):
        raise ValidationError(
            f"attack must be 'none' or 'intercept_resend', got {attack!r}"
        )
    rng = np.random.default_rng(rng_seed)
    alice_idx = rng.integers(0, 4, size=count)
    bob_basis_idx = rng.integers(0, 2, size=count)
    transmitted_idx = alice_idx
    if attack == "intercept_resend":
        eve_basis_idx = rng.integers(0, 2, size=count)
        transmitted_idx = _measure(rng, alice_idx, eve_basis_idx)
    outcome_idx = _measure(rng, transmitted_idx, bob_basis_idx)

    code = alice_idx * 4 + outcome_idx
    summary = SimulationSummary(attack, np.bincount(code, minlength=16).reshape(4, 4))
    return _RECORDS[code].tolist(), summary
