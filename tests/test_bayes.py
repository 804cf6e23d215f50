"""Tests for the classical finite-event Bayes engine."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qretrodict import bayes
from qretrodict.bayes import ConditionalTable, EventSpace
from qretrodict.errors import ValidationError, ZeroProbabilityError


def commute_space():
    return EventSpace(("bus", "train"), [0.5, 0.5])


def commute_table():
    return ConditionalTable(("bus", "train"), ("late", "on-time"),
                            [[0.3, 0.7], [0.1, 0.9]])


def random_instance(rng, n_events, n_outcomes):
    priors = rng.dirichlet(np.ones(n_events))
    rows = rng.dirichlet(np.ones(n_outcomes), size=n_events)
    labels = tuple(f"a{i}" for i in range(n_events))
    outcomes = tuple(f"b{j}" for j in range(n_outcomes))
    return (EventSpace(labels, priors),
            ConditionalTable(labels, outcomes, rows))


class TestValidation:
    def test_priors_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            EventSpace(("a", "b"), [0.5, 0.6])

    def test_priors_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            EventSpace(("a", "b"), [1.2, -0.2])

    def test_labels_must_be_unique_and_nonempty(self):
        with pytest.raises(ValidationError):
            EventSpace(("a", "a"), [0.5, 0.5])
        with pytest.raises(ValidationError):
            EventSpace((), [])

    def test_priors_must_match_the_labels(self):
        with pytest.raises(ValidationError) as info:
            EventSpace(("a", "b"), [1.0])
        assert str(info.value) == "expected 2 priors, got array of shape (1,)"

    def test_table_shape_must_match_the_labels(self):
        with pytest.raises(ValidationError) as info:
            ConditionalTable(("a",), ("x", "y"), [[1.0]])
        assert str(info.value) == "expected table of shape (1, 2), got (1, 1)"

    def test_unknown_conditioning_label(self):
        table = ConditionalTable(("a",), ("x",), [[1.0]])
        with pytest.raises(ValidationError) as info:
            table.row("z")
        assert str(info.value) == "unknown conditioning label 'z'"

    def test_rows_must_sum_to_one_without_renormalization(self):
        with pytest.raises(ValidationError):
            ConditionalTable(("a",), ("x", "y"), [[0.3, 0.6]])

    def test_rows_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            ConditionalTable(("a",), ("x", "y"), [[1.5, -0.5]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_priors_and_rows_must_be_finite(self, bad):
        # NaN passes every comparison-based check (NaN < 0 and
        # |NaN - 1| > tol are both false), so it is rejected by name.
        with pytest.raises(ValidationError, match="priors must be finite"):
            EventSpace(("a", "b"), [bad, 0.5])
        with pytest.raises(ValidationError,
                           match="conditional probabilities must be finite"):
            ConditionalTable(("a",), ("x", "y"), [[bad, 0.5]])

    def test_tiny_float_noise_is_accepted(self):
        space = EventSpace(("a", "b", "c"), [0.1, 0.2, 0.7 + 1e-12])
        np.testing.assert_allclose(space.priors.sum(), 1.0, atol=1e-11)

    def test_label_mismatch_between_space_and_table(self):
        space = EventSpace(("a", "b"), [0.4, 0.6])
        table = ConditionalTable(("b", "a"), ("x",), [[1.0], [1.0]])
        with pytest.raises(ValidationError):
            bayes.joint(space, table)

    def test_unknown_outcome_label(self):
        with pytest.raises(ValidationError):
            bayes.retrodict_conditional(commute_space(), commute_table(), "early")


class TestCommuteExample:
    """Even-odds commute: bus is late 30% of the time, train 10%."""

    def test_joint_probability_of_bus_and_late(self):
        j = bayes.joint(commute_space(), commute_table())
        assert j[0, 0] == pytest.approx(0.15, abs=1e-15)
        assert j.sum() == pytest.approx(1.0, abs=1e-12)

    def test_predicted_lateness(self):
        marginal = bayes.predict_marginal(commute_space(), commute_table())
        assert marginal[0] == pytest.approx(0.2, abs=1e-15)

    def test_retrodicted_bus_given_late(self):
        posterior = bayes.retrodict_conditional(commute_space(), commute_table(),
                                                "late")
        np.testing.assert_allclose(posterior, [0.75, 0.25], atol=1e-12)


class TestHorseRace:
    def test_uniform_prior_deterministic_winner(self):
        n = 10
        horses = tuple(f"h{i}" for i in range(n))
        space = EventSpace(horses, np.full(n, 1 / n))
        # Whichever horse is picked wins with certainty: permutation table.
        table = ConditionalTable(horses, horses, np.eye(n))
        j = bayes.joint(space, table)
        np.testing.assert_allclose(j, np.eye(n) / n, atol=1e-15)
        np.testing.assert_allclose(bayes.predict_marginal(space, table),
                                   np.full(n, 1 / n), atol=1e-15)


class TestDegenerateCases:
    def test_certain_prior_reduces_joint_to_one_row(self):
        space = EventSpace(("a", "b"), [1.0, 0.0])
        table = ConditionalTable(("a", "b"), ("x", "y"),
                                 [[0.25, 0.75], [0.5, 0.5]])
        j = bayes.joint(space, table)
        np.testing.assert_allclose(j[0], [0.25, 0.75], atol=1e-15)
        np.testing.assert_allclose(j[1], [0.0, 0.0], atol=1e-15)

    def test_deterministic_table_permutes_prior(self):
        space = EventSpace(("a", "b", "c"), [0.2, 0.3, 0.5])
        perm = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        table = ConditionalTable(("a", "b", "c"), ("x", "y", "z"), perm)
        np.testing.assert_allclose(bayes.predict_marginal(space, table),
                                   [0.5, 0.2, 0.3], atol=1e-15)

    def test_uniform_prior_symmetric_table_gives_uniform_posterior(self):
        space = EventSpace(("a", "b"), [0.5, 0.5])
        table = ConditionalTable(("a", "b"), ("x", "y"),
                                 [[0.8, 0.2], [0.8, 0.2]])
        for outcome in ("x", "y"):
            posterior = bayes.retrodict_conditional(space, table, outcome)
            np.testing.assert_allclose(posterior, [0.5, 0.5], atol=1e-12)

    def test_zero_probability_outcome_is_an_error(self):
        space = EventSpace(("a", "b"), [0.5, 0.5])
        table = ConditionalTable(("a", "b"), ("x", "y"),
                                 [[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ZeroProbabilityError):
            bayes.retrodict_conditional(space, table, "y")

    def test_normal_range_columns_keep_the_bits_of_the_plain_quotient(self):
        # Where every product is zero or a normal double, the lift by a power
        # of two changes no bit of prior * conditional / sum.
        rng = np.random.default_rng(29)
        checked = 0
        for _ in range(3000):
            n = int(rng.integers(1, 7))
            weights = rng.random(n) * 2.0 ** -rng.integers(0, 60, n)
            priors = weights / weights.sum()
            # Entries of 1 beside ones near the least normal double, whose
            # products a lift by less than one would round.
            column = np.where(rng.random(n) < 0.2, 1.0,
                              rng.random(n) * 2.0 ** -rng.integers(0, 1023, n))
            products = priors * column
            if abs(priors.sum() - 1.0) > 1e-9 or not np.all(products >= np.finfo(float).tiny):
                continue
            space = EventSpace([f"e{i}" for i in range(n)], priors)
            table = ConditionalTable(space.labels, ("x", "y"),
                                     np.stack([column, 1.0 - column], axis=1))
            got = bayes.retrodict_conditional(space, table, "x")
            assert got.tobytes() == (products / float(products.sum())).tobytes()
            checked += 1
        assert checked > 2000


@st.composite
def bayes_instances(draw):
    """Priors and a conditional table of up to 12 events and 12 outcomes
    (numpy adds eight or more terms in another order than fewer): float
    weights, zeros and subnormals included, each row divided by its sum,
    with now and then all but the last column below the least normal
    double."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))

    def distribution(size):
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size).filter(any))
        return [w / sum(weights) for w in weights]

    priors = distribution(n)
    if m > 1 and draw(st.booleans()):
        tiny = st.floats(0.0, sys.float_info.min)
        rows = [[draw(tiny) for _ in range(m - 1)] for _ in range(n)]
        rows = [row + [1.0 - sum(row)] for row in rows]
    else:
        rows = [distribution(m) for _ in range(n)]
    labels = tuple(f"a{i}" for i in range(n))
    return (EventSpace(labels, priors),
            ConditionalTable(labels, tuple(f"b{j}" for j in range(m)), rows))


def lifted_column(priors, column):
    """Each p * c as the product of the mantissas times 2**(ep + ec), all
    lifted by the one power of two that brings the largest to at least 1/4,
    and that lift; element by element, with ``math``."""
    parts = [(mp * mc, ep + ec) for (mp, ep), (mc, ec)
             in zip(map(math.frexp, priors), map(math.frexp, column))]
    lift = max(0, -max((e for m, e in parts if m > 0), default=0))
    return np.array([math.ldexp(m, e + lift) for m, e in parts]), lift


class TestFourStateKeyDistribution:
    """Classical layer of the four-polarization key-distribution tables."""

    PREP = ("L", "R", "V", "H")
    MEAS = ("bL", "bR", "bV", "bH")
    ROWS = np.array([
        [1 / 2, 0, 1 / 4, 1 / 4],
        [0, 1 / 2, 1 / 4, 1 / 4],
        [1 / 4, 1 / 4, 1 / 2, 0],
        [1 / 4, 1 / 4, 0, 1 / 2],
    ])

    def test_uniform_marginal(self):
        space = EventSpace(self.PREP, np.full(4, 0.25))
        table = ConditionalTable(self.PREP, self.MEAS, self.ROWS)
        np.testing.assert_allclose(bayes.predict_marginal(space, table),
                                   np.full(4, 0.25), atol=1e-15)

    def test_posterior_after_vertical_detection(self):
        space = EventSpace(self.PREP, np.full(4, 0.25))
        table = ConditionalTable(self.PREP, self.MEAS, self.ROWS)
        posterior = bayes.retrodict_conditional(space, table, "bV")
        np.testing.assert_allclose(posterior, [0.25, 0.25, 0.5, 0.0], atol=1e-15)


class TestProperties:
    def test_joint_columns_normalize_to_posterior(self):
        # The two factorizations of the joint must agree.
        rng = np.random.default_rng(101)
        for _ in range(50):
            space, table = random_instance(rng, int(rng.integers(2, 7)),
                                           int(rng.integers(2, 7)))
            j = bayes.joint(space, table)
            for col, outcome in enumerate(table.col_labels):
                total = j[:, col].sum()
                if total == 0.0:
                    continue
                posterior = bayes.retrodict_conditional(space, table, outcome)
                np.testing.assert_allclose(posterior, j[:, col] / total,
                                           atol=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(bayes_instances())
    def test_marginal_is_the_posterior_normaliser_scaled_back(self, instance):
        space, table = instance
        marginal = bayes.predict_marginal(space, table)
        for j, outcome in enumerate(table.col_labels):
            lifted, lift = lifted_column(space.priors.tolist(), table.probs[:, j].tolist())
            total = float(lifted.sum())
            assert marginal[j].tobytes() == np.ldexp(total, -lift).tobytes()
            if total > 0.0:
                posterior = bayes.retrodict_conditional(space, table, outcome)
                assert posterior.tobytes() == (lifted / total).tobytes()

    def test_marginal_always_sums_to_one(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            space, table = random_instance(rng, int(rng.integers(2, 7)),
                                           int(rng.integers(2, 7)))
            total = bayes.predict_marginal(space, table).sum()
            np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_uniform_prior_posterior_is_prior_free(self):
        # With a flat prior the posterior depends only on the table column.
        rng = np.random.default_rng(107)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 6))
            labels = tuple(f"a{i}" for i in range(n))
            outcomes = tuple(f"b{j}" for j in range(m))
            rows = rng.dirichlet(np.ones(m), size=n)
            space = EventSpace(labels, np.full(n, 1 / n))
            table = ConditionalTable(labels, outcomes, rows)
            for col, outcome in enumerate(outcomes):
                posterior = bayes.retrodict_conditional(space, table, outcome)
                np.testing.assert_allclose(posterior,
                                           rows[:, col] / rows[:, col].sum(),
                                           atol=1e-12)
