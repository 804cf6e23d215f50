"""Shared helpers for building random test instances."""

import numpy as np
import scipy.linalg

from qretrodict.errors import ConvergenceError
from qretrodict.hilbert import Operator
from qretrodict.retrodict import Pom, PreparationEnsemble


def matrix_exp(op: Operator) -> Operator:
    """Matrix exponential, the tests' scipy oracle.

    Uses scaling-and-squaring (scipy); for anti-hermitian input the result
    is unitary to well below the default predicate tolerance.  A non-finite
    result (overflow for extreme norms) raises :class:`ConvergenceError`.
    """
    out = scipy.linalg.expm(op.mat)
    if not np.all(np.isfinite(out)):
        raise ConvergenceError("matrix exponential did not converge to a finite result")
    return Operator(out, op.dims)


def random_psd(rng, d):
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return x @ x.conj().T


def random_density(rng, d):
    a = random_psd(rng, d)
    return Operator(a / np.trace(a).real)


def random_pom(rng, d, n_elements, labels=None):
    """Random POM via symmetric normalization of random positive operators.

    With raw positives A_i and S their sum, the elements
    S^(-1/2) A_i S^(-1/2) are positive and sum to the identity.
    """
    raws = [random_psd(rng, d) for _ in range(n_elements)]
    s = np.sum(raws, axis=0)
    w, v = np.linalg.eigh(s)
    s_inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    if labels is None:
        labels = tuple(f"b{j}" for j in range(n_elements))
    return Pom(tuple((label, Operator(s_inv_sqrt @ a @ s_inv_sqrt))
                     for label, a in zip(labels, raws)))


def random_unbiased_ensemble(rng, d, n_events):
    """Random unbiased ensemble: priors and states carved out of a random POM.

    Splitting a POM's elements by their traces gives priors tr/d and unit
    trace states whose weighted sum is exactly the maximally mixed state.
    """
    pom = random_pom(rng, d, n_events, labels=tuple(f"a{i}" for i in range(n_events)))
    events = []
    for label, op in pom.elements:
        tr = np.trace(op.mat).real
        events.append((label, tr / d, Operator(op.mat / tr)))
    return PreparationEnsemble(tuple(events))


def random_biased_ensemble(rng, d, n_events):
    """Random ensemble with Dirichlet priors; almost surely biased."""
    priors = rng.dirichlet(np.ones(n_events))
    return PreparationEnsemble(tuple(
        (f"a{i}", priors[i], random_density(rng, d)) for i in range(n_events)))
