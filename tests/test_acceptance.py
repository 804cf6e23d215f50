"""Acceptance suite: one end-to-end check per contractual behavior.

Each test function covers one headline capability of the package with
pinned tolerances, so ``pytest -v`` prints a single pass/fail line per
behavior.  The expected values come from hand calculation or from
independent closed forms computed inside this file, never from the code
under test.
"""

import math

import numpy as np
import pytest

from qretrodict import bayes, bb84, optics, retrodict
from qretrodict.hilbert import Operator
from support import (
    beam_splitter_unitary,
    compose_measurement_pom,
    identity,
    is_psd,
    number_projector,
    pure_state_fidelity,
    random_biased_ensemble,
    random_pom,
    random_psd,
    random_unbiased_ensemble,
    total_photon_blocks,
)

#: Conditional probabilities linking the four polarization choices to the
#: four detection outcomes, identical in the predictive and retrodictive
#: directions.  Rows and columns are ordered L, R, V, H.
POLARIZATION_TABLE = np.array([
    [1 / 2, 0, 1 / 4, 1 / 4],
    [0, 1 / 2, 1 / 4, 1 / 4],
    [1 / 4, 1 / 4, 1 / 2, 0],
    [1 / 4, 1 / 4, 0, 1 / 2],
])


def test_polarization_tables_reproduce_the_exact_overlap_pattern():
    """Predictive and retrodictive four-state tables are exact to 1e-12."""
    pred = bb84.predictive_table()
    retro = bb84.retrodictive_table()
    np.testing.assert_allclose(pred.row("L"), [1 / 2, 0, 1 / 4, 1 / 4],
                               atol=1e-12)
    np.testing.assert_allclose(retro.row("V"), [1 / 4, 1 / 4, 1 / 2, 0],
                               atol=1e-12)
    np.testing.assert_allclose(pred.probs, POLARIZATION_TABLE, atol=1e-12)
    np.testing.assert_allclose(retro.probs, POLARIZATION_TABLE, atol=1e-12)


def test_quantum_retrodiction_matches_classical_bayes_on_random_ensembles():
    """200 random preparation/measurement instances agree with the
    classical posterior built from the joint outcome probabilities, for
    unbiased and biased sources alike, within 1e-10."""
    rng = np.random.default_rng(20240817)
    for case in range(200):
        biased = case % 2 == 1
        d = int(rng.integers(2, 6))
        n_events = int(rng.integers(2, 7))
        n_outcomes = int(rng.integers(2, 7))
        if biased:
            ens = random_biased_ensemble(rng, d, n_events)
        else:
            ens = random_unbiased_ensemble(rng, d, n_events)
        pom = random_pom(rng, d, n_outcomes)

        # Classical oracle: posterior from priors and forward conditionals.
        space = bayes.EventSpace(ens.labels, ens.priors)
        forward = [[retrodict.born_probability(ens.state(a), op)
                    for _, op in pom.elements] for a in ens.labels]
        cond = bayes.ConditionalTable(ens.labels, pom.labels, forward)

        if biased:
            lam = retrodict.BiasedElements.from_ensemble(ens)

            def posterior(op, a):
                return retrodict.retro_conditional_biased(lam, op, a)
        else:
            prep = retrodict.preparation_pom(ens)

            def posterior(op, a):
                return retrodict.retro_conditional_unbiased(prep, op, a)

        for label, op in pom.elements:
            expected = bayes.retrodict_conditional(space, cond, label)
            got = [posterior(op, a) for a in ens.labels]
            np.testing.assert_allclose(got, expected, atol=1e-10,
                                       err_msg=f"case {case}, outcome {label}")


def test_photon_counter_retrodiction_matches_the_binomial_closed_form():
    """Counting n photons behind a beam splitter of transmittance eta
    retrodicts the binomial diagonal eta^(n+1) C(k, n) (1-eta)^(k-n),
    elementwise within 1e-9 after matching normalization; the raw trace
    sits within max(1e-8, truncation tail) of 1."""
    space = optics.FockSpace(40)
    vacuum = number_projector(space, 0)
    ident = identity([space.dim])
    for n in (0, 1, 2):
        for eta in (0.3, 0.5, 0.9):
            diag = np.zeros(space.dim)
            for k in range(n, space.dim):
                diag[k] = eta ** (n + 1) * math.comb(k, n) * (1 - eta) ** (k - n)
            tail = 1.0 - math.fsum(diag)

            literal = optics.inefficient_detector_retro(n, eta, space)
            np.testing.assert_allclose(np.diag(literal.mat).real, diag,
                                       atol=1e-12)
            trace = float(np.trace(literal.mat).real)
            assert abs(trace - 1.0) <= max(1e-8, tail) + 1e-12, (
                f"n={n}, eta={eta}: trace deficit {1 - trace} exceeds "
                f"the truncation tail {tail}")

            splitter = optics.BeamSplitter(math.acos(math.sqrt(eta)))
            pipeline = retrodict.retro_state(compose_measurement_pom(
                vacuum, number_projector(space, n), ident,
                splitter, space))
            np.testing.assert_allclose(pipeline.mat, np.diag(diag / sum(diag)),
                                       atol=1e-9,
                                       err_msg=f"n={n}, eta={eta}")


def test_scissors_device_truncates_the_reference_to_its_closed_form():
    """The full numeric scissors pipeline reproduces the truncated
    superposition c0 cos(theta)|0> + c1 sin(theta)|1> with fidelity at
    least 1 - 1e-10, including the balanced symmetric case."""
    space = optics.FockSpace(6)
    rng = np.random.default_rng(424242)
    for _ in range(50):
        amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        amps /= np.linalg.norm(amps)
        theta = float(rng.uniform(0.1, 1.4))
        got = optics.scissors_output(optics.ReferenceState(tuple(amps)),
                                     optics.BeamSplitter(theta), space)
        expected = np.zeros(space.dim, dtype=complex)
        expected[0] = amps[0] * math.cos(theta)
        expected[1] = amps[1] * math.sin(theta)
        expected /= np.linalg.norm(expected)
        closed = Operator(np.outer(expected, expected.conj()))
        assert pure_state_fidelity(got, closed) >= 1 - 1e-10

    balanced = optics.scissors_output(
        optics.ReferenceState((1 / math.sqrt(2), 1 / math.sqrt(2))),
        optics.BeamSplitter(math.pi / 4), space)
    target = np.zeros(space.dim, dtype=complex)
    target[0] = target[1] = 1 / math.sqrt(2)
    closed = Operator(np.outer(target, target.conj()))
    assert pure_state_fidelity(balanced, closed) >= 1 - 1e-10


def test_structural_invariants_hold_across_randomized_instances():
    """Completeness of measurement and preparation elements (1e-9),
    beam-splitter block unitarity (1e-10), and unit-trace positive
    retrodictive states (1e-12 / 1e-9) across random instances."""
    rng = np.random.default_rng(777)

    for _ in range(30):
        d = int(rng.integers(2, 7))
        pom = random_pom(rng, d, int(rng.integers(2, 8)))
        total = sum(op.mat for _, op in pom.elements)
        assert np.max(np.abs(total - np.eye(d))) <= 1e-9
        for _, op in pom.elements:
            assert is_psd(op, tol=1e-9)

    for _ in range(30):
        d = int(rng.integers(2, 7))
        ens = random_unbiased_ensemble(rng, d, int(rng.integers(2, 7)))
        prep = retrodict.preparation_pom(ens)
        total = sum(op.mat for _, op in prep.elements)
        assert np.max(np.abs(total - np.eye(d))) <= 1e-9

    for theta, truncation in ((0.3, 6), (math.pi / 4, 8), (1.2, 10)):
        space = optics.FockSpace(truncation)
        u = beam_splitter_unitary(optics.BeamSplitter(theta), space).mat
        for total_photons, idx in enumerate(total_photon_blocks(space)):
            if total_photons > space.truncation:
                continue
            block = u[np.ix_(idx, idx)]
            gram = block.conj().T @ block
            assert np.max(np.abs(gram - np.eye(len(idx)))) <= 1e-10

    for _ in range(30):
        d = int(rng.integers(2, 7))
        state = retrodict.retro_state(Operator(random_psd(rng, d)))
        assert np.trace(state.mat).real == pytest.approx(1.0, abs=1e-12)
        assert is_psd(state, tol=1e-9)


def test_monte_carlo_frequencies_match_the_tables_and_flag_interception():
    """10^5 simulated slots at a fixed seed reproduce the conditional
    table within 0.01 with zero eavesdrop flags on an honest channel,
    and intercept-resend drives the same-basis error rate to 0.25 within
    0.01."""
    records, summary = bb84.simulate_slots(100000, rng_seed=11, attack="none")
    frequencies = summary.conditional_frequencies()
    assert np.max(np.abs(frequencies - POLARIZATION_TABLE)) <= 0.01
    assert summary.flagged == 0
    assert sum(bb84.eavesdrop_flag(r) for r in records) == 0

    _, attacked = bb84.simulate_slots(100000, rng_seed=11,
                                      attack="intercept_resend")
    assert attacked.same_basis_error_rate == pytest.approx(0.25, abs=0.01)
    assert attacked.flagged > 0
