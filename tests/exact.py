"""Exact references for outputs whose math is rational.

Every value here is a ``Fraction`` computed from the double inputs as
they stand, so it is the exact answer to the question the program was
asked, and an emitted double can be measured against it in ulps.  Only
``fractions`` is used: no float takes part in a reference.

- ``bayes``: the joint table, the outcome marginal and each posterior row.
- ``retrodict``: the Born table, and the outcome distribution and
  posterior rows of an unbiased and of a biased source, from matrices
  whose complex entries are ``(re, im)`` pairs of ``Fraction``s.
- BB84: the predictive and retrodictive tables of the four canonical
  polarization states, whose entries are 0, 1/4 and 1/2.
- ``detector``: the photon-number weights of an inefficient counter.
"""

import math
from fractions import Fraction


def bayes_reference(priors, conditional):
    """Exact joint, outcome marginal and posterior rows of a ``bayes``
    scenario: ``joint[i][j]`` is P(event i, outcome j), ``marginal[j]``
    P(outcome j) and ``posterior[j]`` the row P(event | outcome j), or None
    where outcome j has probability zero."""
    priors = [Fraction(p) for p in priors]
    joint = [[p * Fraction(c) for c in row] for p, row in zip(priors, conditional)]
    columns = list(zip(*joint))
    marginal = [sum(column) for column in columns]
    posterior = [[x / total for x in column] if total else None
                 for column, total in zip(columns, marginal)]
    return joint, marginal, posterior


def _matrix(pairs):
    """A matrix of ``[re, im]`` doubles as rows of ``(re, im)`` Fractions."""
    return [[(Fraction(re), Fraction(im)) for re, im in row] for row in pairs]


def _clamp(x: Fraction) -> Fraction:
    return min(max(x, Fraction(0)), Fraction(1))


def _trace_product(a, b) -> Fraction:
    """The real part of Tr(a b)."""
    n = range(len(a))
    return sum(a[i][j][0] * b[j][i][0] - a[i][j][1] * b[j][i][1] for i in n for j in n)


def retrodict_reference(priors, states, elements):
    """Exact tables of a ``retrodict`` scenario from its priors and the
    ``[re, im]`` matrices of its states and POM elements.

    ``born[a][b]`` is Tr(rho_a Pi_b).  The unbiased source's outcome
    distribution is Tr(Pi_b) / d and its posterior row for outcome b is
    d p_a Tr(Pi_b rho_a) / Tr(Pi_b); the biased source's distribution is
    sum_c p_c Tr(rho_c Pi_b) and its row p_a Tr(rho_a Pi_b) over that sum.
    A row is None where its outcome's weight is 0.  Returns ``born`` and
    ``(distribution, rows)`` of each source, unbiased first.

    The program clamps a Born probability and an unbiased posterior onto
    [0, 1], and a biased source's overlaps p_a Tr(rho_a Pi_b) at 0, and so
    does this reference: inputs that are a POM and states only within the
    validation tolerance can put an exact trace that far outside, and the
    clamped value is the documented answer.  The biased distribution sums
    the clamped Born table, as the program does.
    """
    priors = [Fraction(p) for p in priors]
    states, elements = [_matrix(s) for s in states], [_matrix(e) for e in elements]
    d = len(states[0])
    # columns[b][a] is Tr(rho_a Pi_b).
    columns = [[_trace_product(rho, pi) for rho in states] for pi in elements]
    traces = [sum(pi[i][i][0] for i in range(d)) for pi in elements]
    born = [[_clamp(x) for x in row] for row in zip(*columns)]
    unbiased = [[_clamp(d * p * x / t) for p, x in zip(priors, column)] if t else None
                for t, column in zip(traces, columns)]
    joint = [[max(p * x, Fraction(0)) for p, x in zip(priors, column)] for column in columns]
    biased = [[x / sum(row) for x in row] if sum(row) else None for row in joint]
    weights = [sum(p * x for p, x in zip(priors, column)) for column in zip(*born)]
    return born, ([t / d for t in traces], unbiased), (weights, biased)


def detector_weights(n, eta, truncation):
    """Exact photon-number weights of a ``detector`` scenario that counted
    ``n`` photons at the double efficiency ``eta``: entry k, for k up to
    ``truncation``, is eta^(n+1) C(k, n) (1-eta)^(k-n), and 0 below n."""
    eta = Fraction(eta)
    return [eta ** (n + 1) * math.comb(k, n) * (1 - eta) ** (k - n) if k >= n else Fraction(0)
            for k in range(truncation + 1)]


#: Each canonical BB84 state in the (V, H) basis, up to a positive factor,
#: as ``(re, im)`` integer pairs: L and R are (1, +-i) over sqrt(2).
BB84_STATES = {"L": ((1, 0), (0, 1)), "R": ((1, 0), (0, -1)),
               "V": ((1, 0), (0, 0)), "H": ((0, 0), (1, 0))}


def _overlap(a, b) -> Fraction:
    """|<a|b>|^2 of two states given as integer ``(re, im)`` amplitudes."""
    re = sum(ar * br + ai * bi for (ar, ai), (br, bi) in zip(a, b))
    im = sum(ar * bi - ai * br for (ar, ai), (br, bi) in zip(a, b))
    norm = math.prod(sum(x * x + y * y for x, y in v) for v in (a, b))
    return Fraction(re * re + im * im, norm)


def bb84_predictive(labels):
    """P(Bob's outcome | Alice's state), rows and columns in ``labels``
    order: half the squared overlap, half for Bob's choice of basis."""
    return [[Fraction(1, 2) * _overlap(BB84_STATES[a], BB84_STATES[b]) for b in labels]
            for a in labels]


def bb84_retrodictive(labels):
    """P(Alice's state | Bob's outcome), rows Bob's outcomes: Bayes' rule
    on :func:`bb84_predictive` with Alice's four states equally likely."""
    predictive = bb84_predictive(labels)
    _, _, posterior = bayes_reference([Fraction(1, 4)] * len(labels), predictive)
    return posterior


def ulps(value: float, exact: Fraction) -> Fraction:
    """|value - exact| in units of the last place of ``exact`` rounded to a
    double; any error at all is beyond every budget where ``exact`` is 0."""
    return abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact)))
