"""Exact references for outputs whose math is rational.

Every value here is a ``Fraction`` computed from the double inputs as
they stand, so it is the exact answer to the question the program was
asked, and an emitted double can be measured against it in ulps.  Only
``fractions`` is used: no float takes part in a reference.

- ``bayes``: the joint table, the outcome marginal and each posterior row.
- BB84: the predictive and retrodictive tables of the four canonical
  polarization states, whose entries are 0, 1/4 and 1/2.
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
