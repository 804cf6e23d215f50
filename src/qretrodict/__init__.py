"""Finite-dimensional quantum retrodiction toolkit.

Given a measurement outcome, retrodiction asks which state best
describes the system *before* the measurement.  This package builds
that backward inference from probability-operator measures: each
outcome element, normalized to unit trace, is the retrodictive state,
and conditioning it on a preparation event reproduces classical Bayes
posteriors exactly.

The modules layer as follows: :mod:`~qretrodict.hilbert` supplies
finite-dimensional operators with mode structure, :mod:`~qretrodict.bayes`
the classical probability mirror, :mod:`~qretrodict.retrodict` the
predictive/retrodictive formalism for unbiased and biased sources,
:mod:`~qretrodict.optics` truncated Fock-space devices (inefficient
photon counters, projection synthesis, the quantum-scissors device),
:mod:`~qretrodict.bb84` the four-state polarization key-distribution
example, and :mod:`~qretrodict.cli` a scenario-driven command line.
"""

from .bayes import (
    ConditionalTable,
    EventSpace,
    joint,
    predict_marginal,
    retrodict_conditional,
)
from .bb84 import (
    PolarizationState,
    SimulationSummary,
    SlotRecord,
    eavesdrop_flag,
    predictive_table,
    retrodictive_table,
    simulate_slots,
)
from .errors import (
    BiasedSourceError,
    ComputationError,
    DimensionMismatch,
    NumericIntegrityError,
    QRetrodictError,
    ValidationError,
    ZeroProbabilityError,
)
from .hilbert import ModeDims, Operator
from .optics import (
    BeamSplitter,
    FockSpace,
    ReferenceState,
    inefficient_detector_retro,
    projection_synthesis_retro,
    scissors_output,
)
from .retrodict import (
    BiasedElements,
    Pom,
    PreparationEnsemble,
    PreparationPom,
    born_probability,
    is_unbiased,
    outcome_prior,
    predictive_conditional_subset,
    preparation_pom,
    retro_conditional_biased,
    retro_conditional_unbiased,
    retro_state,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "QRetrodictError",
    "ValidationError",
    "DimensionMismatch",
    "BiasedSourceError",
    "ComputationError",
    "ZeroProbabilityError",
    "NumericIntegrityError",
    # operators
    "ModeDims",
    "Operator",
    # classical probability
    "EventSpace",
    "ConditionalTable",
    "joint",
    "predict_marginal",
    "retrodict_conditional",
    # retrodiction
    "Pom",
    "PreparationPom",
    "BiasedElements",
    "PreparationEnsemble",
    "born_probability",
    "is_unbiased",
    "preparation_pom",
    "retro_state",
    "outcome_prior",
    "retro_conditional_unbiased",
    "retro_conditional_biased",
    "predictive_conditional_subset",
    # optics
    "FockSpace",
    "BeamSplitter",
    "ReferenceState",
    "inefficient_detector_retro",
    "projection_synthesis_retro",
    "scissors_output",
    # polarization key distribution
    "PolarizationState",
    "SlotRecord",
    "SimulationSummary",
    "predictive_table",
    "retrodictive_table",
    "eavesdrop_flag",
    "simulate_slots",
]
