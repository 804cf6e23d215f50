"""Tests for the four-state polarization key-distribution example."""

import tracemalloc

import numpy as np
import pytest

from qretrodict import bayes, bb84, retrodict
from qretrodict.bb84 import (
    LABELS,
    PolarizationState,
    SimulationSummary,
    SlotRecord,
    eavesdrop_flag,
    predictive_table,
    retrodictive_table,
    simulate_slots,
)
from qretrodict.errors import TOL, ValidationError
from qretrodict.hilbert import Operator
from support import simulate_slots_per_slot

EXPECTED_TABLE = np.array([
    [1 / 2, 0, 1 / 4, 1 / 4],
    [0, 1 / 2, 1 / 4, 1 / 4],
    [1 / 4, 1 / 4, 1 / 2, 0],
    [1 / 4, 1 / 4, 0, 1 / 2],
])


def canonical_amplitudes(label):
    return np.array(PolarizationState.canonical(label).amplitudes)


class TestPolarizationStates:
    def test_circular_states_are_balanced_superpositions(self):
        # V and H recombine into the circular states and back.
        l_amp = canonical_amplitudes("L")
        r_amp = canonical_amplitudes("R")
        v_amp = canonical_amplitudes("V")
        h_amp = canonical_amplitudes("H")
        np.testing.assert_allclose((v_amp + 1j * h_amp) / np.sqrt(2), l_amp,
                                   atol=1e-15)
        np.testing.assert_allclose((v_amp - 1j * h_amp) / np.sqrt(2), r_amp,
                                   atol=1e-15)
        np.testing.assert_allclose((l_amp + r_amp) / np.sqrt(2), v_amp, atol=1e-15)
        np.testing.assert_allclose(1j * (r_amp - l_amp) / np.sqrt(2), h_amp,
                                   atol=1e-15)

    def test_all_states_are_normalized(self):
        for label in LABELS:
            amps = canonical_amplitudes(label)
            assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-15)

    def test_basis_membership(self):
        assert PolarizationState.canonical("L").basis == "circular"
        assert PolarizationState.canonical("H").basis == "linear"

    def test_rejects_unknown_label(self):
        with pytest.raises(ValidationError):
            PolarizationState.canonical("X")
        with pytest.raises(ValidationError):
            PolarizationState("D", (1.0, 0.0))

    def test_basis_of_an_unknown_label_is_an_error(self):
        with pytest.raises(ValidationError) as info:
            bb84.basis_of("D")
        assert str(info.value) == "unknown polarization label 'D'"

    def test_rejects_amplitudes_of_other_length(self):
        with pytest.raises(ValidationError) as info:
            PolarizationState("V", (1.0,))
        assert str(info.value) == "polarization amplitudes must have two components"

    def test_rejects_unnormalized_amplitudes(self):
        with pytest.raises(ValidationError):
            PolarizationState("V", (1.0, 1.0))

    def test_overlap_probabilities(self):
        l_state = PolarizationState.canonical("L")
        assert l_state.overlap_probability(l_state) == pytest.approx(1.0)
        assert l_state.overlap_probability(
            PolarizationState.canonical("R")) == pytest.approx(0.0, abs=1e-15)
        assert l_state.overlap_probability(
            PolarizationState.canonical("V")) == pytest.approx(0.5)


class TestSlotRecord:
    def test_valid_record(self):
        SlotRecord("L", "circular", "R")
        SlotRecord("V", "linear", "H")

    def test_outcome_must_belong_to_basis(self):
        with pytest.raises(ValidationError):
            SlotRecord("L", "circular", "V")

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValidationError):
            SlotRecord("X", "circular", "L")
        with pytest.raises(ValidationError):
            SlotRecord("L", "diagonal", "L")


class TestPredictiveTable:
    def test_matches_expected_entries(self):
        table = predictive_table()
        assert table.row_labels == LABELS
        assert table.col_labels == LABELS
        np.testing.assert_allclose(table.probs, EXPECTED_TABLE, atol=1e-12)

    def test_rows_sum_to_one(self):
        np.testing.assert_allclose(predictive_table().probs.sum(axis=1),
                                   np.ones(4), atol=1e-12)

    def test_diagonal_entries_are_half(self):
        np.testing.assert_allclose(np.diag(predictive_table().probs),
                                   np.full(4, 0.5), atol=1e-12)


class TestRetrodictiveTable:
    def test_vertical_outcome_row(self):
        table = retrodictive_table()
        np.testing.assert_allclose(table.row("V"), [0.25, 0.25, 0.5, 0.0],
                                   atol=1e-12)

    def test_is_bayes_transpose_of_predictive(self):
        # With uniform priors on both sides, retrodiction is the classical
        # posterior of the predictive channel.
        space = bayes.EventSpace(LABELS, np.full(4, 0.25))
        pred = predictive_table()
        retro = retrodictive_table()
        for outcome in LABELS:
            posterior = bayes.retrodict_conditional(space, pred, outcome)
            np.testing.assert_allclose(retro.row(outcome), posterior, atol=1e-12)

    def test_is_the_exact_transpose_and_the_bayes_posterior(self):
        pred = predictive_table()
        retro = retrodictive_table()
        assert retro.probs.tolist() == pred.probs.T.tolist()
        # The entries as half the squared overlap of outcome and choice.
        states = [PolarizationState.canonical(label) for label in LABELS]
        assert retro.probs.tolist() == [[0.5 * b.overlap_probability(a) for a in states]
                                        for b in states]
        space = bayes.EventSpace(LABELS, np.full(4, 0.25))
        for outcome in LABELS:
            posterior = bayes.retrodict_conditional(space, pred, outcome)
            np.testing.assert_allclose(retro.row(outcome), posterior,
                                       rtol=0, atol=1e-15)

    def test_marginals_are_uniform(self):
        space = bayes.EventSpace(LABELS, np.full(4, 0.25))
        np.testing.assert_allclose(bayes.predict_marginal(space, predictive_table()),
                                   np.full(4, 0.25), atol=1e-12)
        np.testing.assert_allclose(bayes.predict_marginal(space, retrodictive_table()),
                                   np.full(4, 0.25), atol=1e-12)

    def test_matches_operator_pipeline(self):
        # Independent route through preparation POMs and retrodictive states.
        def projector(label):
            amps = canonical_amplitudes(label)
            return Operator(np.outer(amps, amps.conj()))

        ens = retrodict.PreparationEnsemble(tuple(
            (label, 0.25, projector(label)) for label in LABELS))
        assert retrodict.is_unbiased(ens)
        prep = retrodict.preparation_pom(ens)
        table = retrodictive_table()
        for outcome in LABELS:
            element = 0.5 * projector(outcome)
            for choice in LABELS:
                got = retrodict.retro_conditional_unbiased(prep, element, choice)
                assert got == pytest.approx(table.prob(choice, outcome), abs=1e-12)


class TestOverlapTable:
    def test_tables_and_flag_are_the_overlap_probabilities_bit_for_bit(self):
        pred = predictive_table().probs
        for i, a in enumerate(LABELS):
            for j, b in enumerate(LABELS):
                overlap = PolarizationState.canonical(a).overlap_probability(
                    PolarizationState.canonical(b))
                assert float(pred[i, j]).hex() == (0.5 * overlap).hex()
                assert eavesdrop_flag(SlotRecord(a, bb84.basis_of(b), b)) \
                    is (overlap < TOL)
                if a == bb84.BASES[bb84.basis_of(a)][0]:
                    # The chance that measuring b in a's basis gives a.
                    basis = bb84._BASIS_NAMES.index(bb84.basis_of(a))
                    assert float(bb84._P_FIRST[j, basis]).hex() == overlap.hex()


class TestEavesdropFlag:
    def test_orthogonal_same_basis_pair_is_flagged(self):
        assert eavesdrop_flag(SlotRecord("L", "circular", "R"))
        assert eavesdrop_flag(SlotRecord("V", "linear", "H"))

    def test_consistent_pairs_are_not_flagged(self):
        assert not eavesdrop_flag(SlotRecord("L", "circular", "L"))
        assert not eavesdrop_flag(SlotRecord("L", "linear", "V"))
        assert not eavesdrop_flag(SlotRecord("H", "circular", "R"))

    def test_orthogonal_pairs_are_exactly_the_same_basis_mismatches(self):
        # The identity that makes ``flagged`` and ``same_basis_errors`` one count.
        for i, a in enumerate(LABELS):
            for j, b in enumerate(LABELS):
                mismatch = bb84.basis_of(a) == bb84.basis_of(b) and a != b
                assert bool(bb84._ORTHOGONAL[i, j]) is mismatch, (a, b)
                assert eavesdrop_flag(SlotRecord(a, bb84.basis_of(b), b)) is mismatch


class TestSimulateSlots:
    def test_rejects_non_positive_count(self):
        with pytest.raises(ValidationError):
            simulate_slots(0, rng_seed=1)

    def test_rejects_unknown_attack(self):
        with pytest.raises(ValidationError):
            simulate_slots(10, rng_seed=1, attack="beam_split")

    def test_deterministic_under_fixed_seed(self):
        records_a, summary_a = simulate_slots(200, rng_seed=42)
        records_b, summary_b = simulate_slots(200, rng_seed=42)
        assert records_a == records_b
        np.testing.assert_array_equal(summary_a.outcome_counts,
                                      summary_b.outcome_counts)

    def test_summary_matches_records(self):
        records, summary = simulate_slots(500, rng_seed=7)
        assert summary.slots == len(records) == 500
        counts = np.zeros((4, 4), dtype=int)
        same_basis = errors = 0
        for rec in records:
            counts[LABELS.index(rec.alice_choice), LABELS.index(rec.bob_outcome)] += 1
            if bb84.basis_of(rec.alice_choice) == rec.bob_basis:
                same_basis += 1
                if rec.bob_outcome != rec.alice_choice:
                    errors += 1
        np.testing.assert_array_equal(summary.outcome_counts, counts)
        assert summary.same_basis_slots == same_basis
        assert summary.same_basis_errors == errors

    def test_tallies_are_read_off_the_count_table(self):
        # Rows and columns L, R, V, H: the orthogonal pairs L-R, R-L, V-H
        # and H-V hold 1, 4, 11 and 14, and the diagonal 0, 5, 10 and 15.
        summary = SimulationSummary("none", np.arange(16).reshape(4, 4))
        tallies = (summary.slots, summary.flagged, summary.same_basis_slots,
                   summary.same_basis_errors)
        assert tallies == (120, 30, 60, 30)
        assert {type(tally) for tally in tallies} == {int}
        assert summary.same_basis_error_rate == 0.5

    def test_summaries_compare_and_hash_by_attack_and_count_table(self):
        _, summary = simulate_slots(10, rng_seed=1)
        _, same = simulate_slots(10, rng_seed=1)
        _, other_seed = simulate_slots(10, rng_seed=2)
        other_attack = SimulationSummary("intercept_resend", summary.outcome_counts)
        assert summary == same and hash(summary) == hash(same)
        assert summary != other_attack and summary != other_seed
        assert len({summary, same, other_attack}) == 2
        # Against anything else, equality is left to the other object.
        assert summary.__eq__(summary.outcome_counts) is NotImplemented
        assert summary != "none"

    def test_honest_channel_frequencies_and_flags(self):
        records, summary = simulate_slots(20000, rng_seed=11)
        freqs = summary.conditional_frequencies()
        np.testing.assert_allclose(freqs, EXPECTED_TABLE, atol=0.02)
        assert summary.flagged == 0
        assert not any(eavesdrop_flag(rec) for rec in records)

    def test_intercept_resend_error_rate(self):
        _, summary = simulate_slots(20000, rng_seed=11, attack="intercept_resend")
        assert summary.same_basis_error_rate == pytest.approx(0.25, abs=0.02)
        assert summary.flagged > 0

    def test_conditional_frequency_rows_are_distributions(self):
        _, summary = simulate_slots(1000, rng_seed=3)
        freqs = summary.conditional_frequencies()
        row_sums = freqs.sum(axis=1)
        active = summary.outcome_counts.sum(axis=1) > 0
        np.testing.assert_allclose(row_sums[active], 1.0, atol=1e-12)

    @pytest.mark.parametrize("attack", ["none", "intercept_resend"])
    @pytest.mark.parametrize("count", [1, 2, 17, 4096])
    def test_records_and_tally_match_the_per_slot_construction(self, count, attack):
        for seed in (0, 1, 7, 2 ** 31 - 1):
            records, summary = simulate_slots(count, rng_seed=seed, attack=attack)
            expected, tallies = simulate_slots_per_slot(count, seed, attack)
            assert records == expected
            np.testing.assert_array_equal(summary.outcome_counts,
                                          tallies.pop("outcome_counts"))
            # Python ints and strs, as the result document writes them.
            got = {name: getattr(summary, name) for name in tallies}
            assert got == tallies
            assert {name: type(value) for name, value in got.items()} == {
                name: type(value) for name, value in tallies.items()}

    @pytest.mark.parametrize("attack", ["none", "intercept_resend"])
    def test_a_million_slots_stay_within_their_memory_bound(self, attack):
        # Measured peaks: 45.8 MiB without and 61.0 MiB with the attack, the
        # draws and one reference per slot.  One SlotRecord per slot took
        # 125-140 MiB.
        tracemalloc.start()
        try:
            records, _ = simulate_slots(10 ** 6, rng_seed=3, attack=attack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 10 ** 6
        assert peak < 70 * 2 ** 20
