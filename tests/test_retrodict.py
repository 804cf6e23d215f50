"""Tests for POMs, preparation POMs and retrodictive conditionals."""

import numpy as np
import pytest

from qretrodict import bayes, hilbert, retrodict
from qretrodict.errors import (
    BiasedSourceError,
    DimensionMismatch,
    NumericIntegrityError,
    ValidationError,
    ZeroProbabilityError,
)
from qretrodict.hilbert import Operator
from qretrodict.retrodict import (
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
from support import (
    random_biased_ensemble,
    random_density,
    random_pom,
    random_unbiased_ensemble,
)


def ket(vec):
    v = np.asarray(vec, dtype=complex)
    return Operator(np.outer(v, v.conj()))


# Circular and linear polarization amplitudes in the (V, H) basis.
L = np.array([1, 1j]) / np.sqrt(2)
R = np.array([1, -1j]) / np.sqrt(2)
V = np.array([1, 0], dtype=complex)
H = np.array([0, 1], dtype=complex)


def polarization_ensemble():
    return PreparationEnsemble(tuple(
        (name, 0.25, ket(vec))
        for name, vec in (("L", L), ("R", R), ("V", V), ("H", H))))


class TestPomValidation:
    def test_accepts_projective_measurement(self):
        pom = Pom((("0", ket([1, 0])), ("1", ket([0, 1]))))
        assert pom.labels == ("0", "1")
        assert pom.dims.dims == (2,)

    def test_accepts_zero_trace_element(self):
        zero = Operator(np.zeros((2, 2)))
        pom = Pom((("0", ket([1, 0])), ("1", ket([0, 1])), ("never", zero)))
        assert len(pom) == 3

    def test_rejects_incomplete_elements(self):
        with pytest.raises(ValidationError):
            Pom((("0", ket([1, 0])),))

    def test_rejects_negative_element(self):
        # Elements sum to identity but one has a negative eigenvalue.
        with pytest.raises(ValidationError):
            Pom((("a", Operator(np.diag([1.5, 0.5]).astype(complex))),
                 ("b", Operator(np.diag([-0.5, 0.5]).astype(complex)))))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError):
            Pom((("x", ket([1, 0])), ("x", ket([0, 1]))))

    def test_rejects_mixed_dims(self):
        with pytest.raises(DimensionMismatch):
            Pom((("a", ket([1, 0])), ("b", Operator(np.eye(3)))))

    def test_unknown_label_lookup(self):
        pom = Pom((("0", ket([1, 0])), ("1", ket([0, 1]))))
        with pytest.raises(ValidationError):
            pom.element("2")


class TestEnsembleValidation:
    def test_rejects_non_unit_trace_state(self):
        with pytest.raises(ValidationError):
            PreparationEnsemble((("a", 1.0, Operator(2 * np.eye(2) / 2 * 1.1)),))

    def test_rejects_priors_not_summing_to_one(self):
        mixed = Operator(np.eye(2) / 2)
        with pytest.raises(ValidationError):
            PreparationEnsemble((("a", 0.6, mixed), ("b", 0.6, mixed)))

    def test_rejects_negative_prior(self):
        mixed = Operator(np.eye(2) / 2)
        with pytest.raises(ValidationError):
            PreparationEnsemble((("a", 1.5, mixed), ("b", -0.5, mixed)))

    def test_biased_elements_traces_are_priors(self):
        ens = random_biased_ensemble(np.random.default_rng(5), 3, 4)
        lam = BiasedElements.from_ensemble(ens)
        traces = [np.trace(op.mat).real for _, op in lam.elements]
        np.testing.assert_allclose(traces, ens.priors, atol=1e-12)

    def test_biased_elements_reject_wrong_total_trace(self):
        with pytest.raises(ValidationError):
            BiasedElements((("a", Operator(np.eye(2))),))


class TestBornProbability:
    def test_identity_element_is_certain(self):
        rng = np.random.default_rng(13)
        rho = random_density(rng, 4)
        assert born_probability(rho, hilbert.identity([4])) == pytest.approx(1.0)

    def test_circular_state_against_linear_element(self):
        # A left-circular input meets the half-weight vertical element 1/4
        # of the time.
        assert born_probability(ket(L), 0.5 * ket(V)) == pytest.approx(0.25, abs=1e-15)

    def test_probabilities_over_pom_sum_to_one(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            rho = random_density(rng, d)
            pom = random_pom(rng, d, int(rng.integers(2, 7)))
            total = sum(born_probability(rho, op) for _, op in pom.elements)
            np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            born_probability(ket([1, 0]), Operator(np.eye(3)))

    def test_out_of_range_probability_is_an_integrity_error(self):
        rho = Operator(np.eye(2) / 2)
        with pytest.raises(NumericIntegrityError):
            born_probability(rho, Operator(3 * np.eye(2)))
        with pytest.raises(NumericIntegrityError):
            born_probability(rho, Operator(-0.001 * np.eye(2)))

    def test_tolerated_overshoot_is_clamped(self):
        rho = ket([1, 0])
        p = born_probability(rho, Operator((1 + 1e-12) * np.eye(2)))
        assert p == 1.0


class TestUnbiasedness:
    def test_four_polarization_source_is_unbiased(self):
        assert is_unbiased(polarization_ensemble())

    def test_single_pure_state_is_biased(self):
        ens = PreparationEnsemble((("a", 1.0, ket([1, 0])),))
        assert not is_unbiased(ens)

    def test_skewed_basis_mixture_is_biased(self):
        ens = PreparationEnsemble((("0", 0.9, ket([1, 0])),
                                   ("1", 0.1, ket([0, 1]))))
        assert not is_unbiased(ens)

    def test_generated_unbiased_instances(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            ens = random_unbiased_ensemble(rng, int(rng.integers(2, 6)),
                                           int(rng.integers(2, 7)))
            assert is_unbiased(ens)


class TestPreparationPom:
    def test_orthonormal_basis_gives_projectors(self):
        ens = PreparationEnsemble((("0", 0.5, ket([1, 0])),
                                   ("1", 0.5, ket([0, 1]))))
        prep = preparation_pom(ens)
        np.testing.assert_allclose(prep.element("0").mat, ket([1, 0]).mat, atol=1e-12)
        np.testing.assert_allclose(prep.element("1").mat, ket([0, 1]).mat, atol=1e-12)

    def test_three_level_uniform_basis(self):
        kets = [np.eye(3)[i] for i in range(3)]
        ens = PreparationEnsemble(tuple(
            (str(i), 1 / 3, ket(kets[i])) for i in range(3)))
        prep = preparation_pom(ens)
        for i in range(3):
            np.testing.assert_allclose(prep.element(str(i)).mat, ket(kets[i]).mat,
                                       atol=1e-12)

    def test_polarization_elements_are_half_projectors(self):
        prep = preparation_pom(polarization_ensemble())
        np.testing.assert_allclose(prep.element("L").mat, 0.5 * ket(L).mat, atol=1e-12)
        total = np.sum([op.mat for _, op in prep.elements], axis=0)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-9)

    def test_biased_source_is_rejected_with_guidance(self):
        ens = PreparationEnsemble((("0", 0.9, ket([1, 0])),
                                   ("1", 0.1, ket([0, 1]))))
        with pytest.raises(BiasedSourceError, match="biased"):
            preparation_pom(ens)

    def test_completeness_for_random_unbiased_sources(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            prep = preparation_pom(random_unbiased_ensemble(rng, d, int(rng.integers(2, 7))))
            total = np.sum([op.mat for _, op in prep.elements], axis=0)
            assert np.max(np.abs(total - np.eye(d))) <= 1e-9


class TestRetroState:
    def test_projector_is_its_own_retro_state(self):
        got = retro_state(ket(V))
        np.testing.assert_allclose(got.mat, ket(V).mat, atol=1e-12)

    def test_scaling_is_divided_out(self):
        got = retro_state(Operator(0.3 * np.eye(2)))
        np.testing.assert_allclose(got.mat, np.eye(2) / 2, atol=1e-15)

    def test_zero_trace_element_has_no_retro_state(self):
        with pytest.raises(ZeroProbabilityError):
            retro_state(Operator(np.zeros((2, 2))))

    def test_outputs_are_unit_trace_psd(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            pom = random_pom(rng, d, int(rng.integers(2, 6)))
            for _, op in pom.elements:
                rho = retro_state(op)
                np.testing.assert_allclose(np.trace(rho.mat), 1.0, atol=1e-12)
                assert hilbert.is_psd(rho, 1e-9)


class TestOutcomePrior:
    def test_identity_fires_always(self):
        assert outcome_prior(hilbert.identity([2])) == pytest.approx(1.0)

    def test_half_projector_on_qubit(self):
        assert outcome_prior(0.5 * ket(V)) == pytest.approx(0.25, abs=1e-15)

    def test_priors_over_pom_sum_to_one(self):
        rng = np.random.default_rng(37)
        pom = random_pom(rng, 4, 5)
        total = sum(outcome_prior(op) for _, op in pom.elements)
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_matches_born_rule_for_maximally_mixed_state(self):
        rng = np.random.default_rng(41)
        d = 3
        mixed = Operator(np.eye(d) / d)
        pom = random_pom(rng, d, 4)
        for _, op in pom.elements:
            np.testing.assert_allclose(outcome_prior(op),
                                       born_probability(mixed, op), atol=1e-12)


class TestRetroConditionalUnbiased:
    def test_polarization_posteriors_after_vertical_detection(self):
        prep = preparation_pom(polarization_ensemble())
        element = 0.5 * ket(V)
        assert retro_conditional_unbiased(prep, element, "L") == pytest.approx(0.25, abs=1e-12)
        assert retro_conditional_unbiased(prep, element, "H") == pytest.approx(0.0, abs=1e-12)

    def test_matches_classical_bayes(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            ens = random_unbiased_ensemble(rng, d, int(rng.integers(2, 7)))
            pom = random_pom(rng, d, int(rng.integers(2, 7)))
            prep = preparation_pom(ens)
            rows = np.array([[born_probability(ens.state(a), op)
                              for _, op in pom.elements] for a in ens.labels])
            space = bayes.EventSpace(ens.labels, ens.priors)
            table = bayes.ConditionalTable(ens.labels, pom.labels, rows)
            for b_label, op in pom.elements:
                classical = bayes.retrodict_conditional(space, table, b_label)
                quantum = [retro_conditional_unbiased(prep, op, a)
                           for a in ens.labels]
                np.testing.assert_allclose(quantum, classical, atol=1e-10)

    def test_posterior_sums_to_one(self):
        rng = np.random.default_rng(47)
        ens = random_unbiased_ensemble(rng, 3, 5)
        pom = random_pom(rng, 3, 4)
        prep = preparation_pom(ens)
        for _, op in pom.elements:
            total = sum(retro_conditional_unbiased(prep, op, a) for a in ens.labels)
            np.testing.assert_allclose(total, 1.0, atol=1e-10)

    def test_posterior_row_is_bit_identical_to_per_cell_calls(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            d = int(rng.integers(1, 7))
            ens = random_unbiased_ensemble(rng, d, int(rng.integers(1, 9)))
            prep = preparation_pom(ens)
            for _, op in random_pom(rng, d, int(rng.integers(1, 6))).elements:
                row = retro_conditional_unbiased(prep, op)
                assert row.tolist() == [retro_conditional_unbiased(prep, op, a)
                                        for a in ens.labels]
                assert row.tolist() == [born_probability(retro_state(op), xi)
                                        for _, xi in prep.elements]

    def test_unknown_event_label(self):
        prep = preparation_pom(polarization_ensemble())
        with pytest.raises(ValidationError):
            retro_conditional_unbiased(prep, 0.5 * ket(V), "X")


class TestRetroConditionalBiased:
    def skewed_source(self):
        ens = PreparationEnsemble((("0", 0.9, ket([1, 0])),
                                   ("1", 0.1, ket([0, 1]))))
        return BiasedElements.from_ensemble(ens)

    def test_orthogonal_support_pins_the_posterior(self):
        lam = self.skewed_source()
        assert retro_conditional_biased(lam, ket([1, 0]), "0") == pytest.approx(1.0)
        assert retro_conditional_biased(lam, ket([1, 0]), "1") == pytest.approx(0.0)

    def test_uninformative_measurement_returns_priors(self):
        lam = self.skewed_source()
        element = Operator(np.eye(2) / 2)
        assert retro_conditional_biased(lam, element, "0") == pytest.approx(0.9, abs=1e-12)
        assert retro_conditional_biased(lam, element, "1") == pytest.approx(0.1, abs=1e-12)

    def test_reduces_to_unbiased_form(self):
        rng = np.random.default_rng(53)
        ens = random_unbiased_ensemble(rng, 3, 4)
        lam = BiasedElements.from_ensemble(ens)
        prep = preparation_pom(ens)
        pom = random_pom(rng, 3, 5)
        for _, op in pom.elements:
            for a in ens.labels:
                np.testing.assert_allclose(
                    retro_conditional_biased(lam, op, a),
                    retro_conditional_unbiased(prep, op, a), atol=1e-10)

    def test_matches_classical_bayes(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            ens = random_biased_ensemble(rng, d, int(rng.integers(2, 6)))
            lam = BiasedElements.from_ensemble(ens)
            pom = random_pom(rng, d, int(rng.integers(2, 6)))
            rows = np.array([[born_probability(ens.state(a), op)
                              for _, op in pom.elements] for a in ens.labels])
            space = bayes.EventSpace(ens.labels, ens.priors)
            table = bayes.ConditionalTable(ens.labels, pom.labels, rows)
            for b_label, op in pom.elements:
                classical = bayes.retrodict_conditional(space, table, b_label)
                quantum = [retro_conditional_biased(lam, op, a) for a in ens.labels]
                np.testing.assert_allclose(quantum, classical, atol=1e-10)

    def test_impossible_outcome_is_an_error(self):
        ens = PreparationEnsemble((("0", 1.0, ket([1, 0])),))
        lam = BiasedElements.from_ensemble(ens)
        with pytest.raises(ZeroProbabilityError):
            retro_conditional_biased(lam, ket([0, 1]), "0")

    def test_unknown_event_label(self):
        lam = self.skewed_source()
        with pytest.raises(ValidationError):
            retro_conditional_biased(lam, ket([1, 0]), "2")

    @staticmethod
    def per_cell_posterior(lam, element, event):
        """The per-cell formula: all overlaps recomputed for one event."""
        overlaps = np.empty(len(lam))
        for k, (_, op) in enumerate(lam.elements):
            raw = complex(np.einsum("ij,ji->", op.mat, element.mat))
            overlaps[k] = max(raw.real, 0.0)
        return float(overlaps[lam.labels.index(event)] / float(overlaps.sum()))

    def test_posterior_row_is_bit_identical_to_per_cell_calls(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            d = int(rng.integers(1, 7))
            ens = random_biased_ensemble(rng, d, int(rng.integers(1, 9)))
            lam = BiasedElements.from_ensemble(ens)
            for _, op in random_pom(rng, d, int(rng.integers(1, 6))).elements:
                row = retro_conditional_biased(lam, op)
                assert row.tolist() == [retro_conditional_biased(lam, op, a)
                                        for a in ens.labels]
                assert row.tolist() == [self.per_cell_posterior(lam, op, a)
                                        for a in ens.labels]


class TestPredictiveConditionalSubset:
    def three_element_pom(self):
        return Pom((("0", 0.5 * ket([1, 0])),
                    ("1", 0.5 * ket([0, 1])),
                    ("flat", Operator(np.eye(2) / 2))))

    def test_full_subset_reduces_to_born_rule(self):
        rng = np.random.default_rng(61)
        rho = random_density(rng, 2)
        pom = self.three_element_pom()
        for label, op in pom.elements:
            got = predictive_conditional_subset(rho, pom, pom.labels, label)
            np.testing.assert_allclose(got, born_probability(rho, op), atol=1e-12)

    def test_singleton_subset_is_certain(self):
        pom = self.three_element_pom()
        rho = Operator(np.eye(2) / 2)
        assert predictive_conditional_subset(rho, pom, ("0",), "0") == pytest.approx(1.0)

    def test_restriction_to_sharp_outcomes(self):
        # Maximally mixed input restricted to the two sharp outcomes: even odds.
        pom = self.three_element_pom()
        rho = Operator(np.eye(2) / 2)
        for label in ("0", "1"):
            got = predictive_conditional_subset(rho, pom, ("0", "1"), label)
            assert got == pytest.approx(0.5, abs=1e-12)

    def test_outcome_must_be_in_subset(self):
        pom = self.three_element_pom()
        rho = Operator(np.eye(2) / 2)
        with pytest.raises(ValidationError):
            predictive_conditional_subset(rho, pom, ("0", "1"), "flat")

    def test_zero_probability_subset(self):
        pom = Pom((("0", ket([1, 0])), ("1", ket([0, 1]))))
        with pytest.raises(ZeroProbabilityError):
            predictive_conditional_subset(ket([1, 0]), pom, ("1",), "1")


class TestDuality:
    def test_joint_probability_factorizations_agree(self):
        # Posterior times outcome prior equals forward probability times
        # preparation prior, for every (event, outcome) pair.
        rng = np.random.default_rng(67)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            ens = random_unbiased_ensemble(rng, d, int(rng.integers(2, 6)))
            pom = random_pom(rng, d, int(rng.integers(2, 6)))
            prep = preparation_pom(ens)
            for b_label, op in pom.elements:
                for a_label, prior, state in ens.events:
                    retro_route = (retro_conditional_unbiased(prep, op, a_label)
                                   * outcome_prior(op))
                    pred_route = born_probability(state, op) * prior
                    np.testing.assert_allclose(retro_route, pred_route, atol=1e-10)
