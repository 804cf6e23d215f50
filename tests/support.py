"""Shared helpers for the tests: random instances, the dense oracles, the
Hilbert-space and Fock-space toolkit those oracles are built from, and the
oracles of the CLI's output and of the BB84 tally."""

import functools
import math

import numpy as np
import scipy.linalg

from qretrodict import bb84, optics
from qretrodict.errors import (
    TOL,
    ComputationError,
    DimensionMismatch,
    NumericIntegrityError,
    ValidationError,
    ZeroProbabilityError,
)
from qretrodict.hilbert import ModeDims, Operator
from qretrodict.retrodict import Pom, PreparationEnsemble


# --- Multi-mode operators.  In ``tensor(a, b)`` the left operand owns the
# slower-varying index: |i>|k> sits at row ``i * dim_b + k``, as in
# ``numpy.kron``.

def identity(dims) -> Operator:
    """Unit operator on the space of per-mode dimensions ``dims``."""
    d = ModeDims(tuple(dims))
    return Operator(np.eye(d.total_dim, dtype=complex), d)


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product; result dims are the concatenated operand dims."""
    return Operator(np.kron(a.mat, b.mat), ModeDims(a.dims.dims + b.dims.dims))


def partial_trace(op: Operator, mode_index: int) -> Operator:
    """Trace out one mode.

    The result lives on the remaining modes (a 1x1 scalar space when the
    last mode is traced out) and has the same total trace as the input.
    """
    dims = op.dims.dims
    n = len(dims)
    if not 0 <= mode_index < n:
        raise DimensionMismatch(
            f"mode index {mode_index} out of range for {n}-mode operator"
        )
    reduced = np.trace(op.mat.reshape(dims + dims), axis1=mode_index,
                       axis2=mode_index + n)
    remaining = ModeDims(dims[:mode_index] + dims[mode_index + 1:] or (1,))
    d = remaining.total_dim
    return Operator(reduced.reshape(d, d), remaining)


def adjoint(op: Operator) -> Operator:
    """Conjugate transpose."""
    return Operator(op.mat.conj().T, op.dims)


def is_hermitian(op: Operator, tol: float = TOL) -> bool:
    return bool(np.max(np.abs(op.mat - op.mat.conj().T)) <= tol)


def is_psd(op: Operator, tol: float = TOL) -> bool:
    """Positivity of one operator: hermitian within tol, and the smallest
    eigenvalue of that one matrix at least -tol."""
    if not is_hermitian(op, tol):
        return False
    herm = (op.mat + op.mat.conj().T) / 2.0
    return float(np.linalg.eigvalsh(herm)[0]) >= -tol


def is_unitary(op: Operator, tol: float = TOL) -> bool:
    gram = op.mat.conj().T @ op.mat
    return bool(np.max(np.abs(gram - np.eye(op.total_dim))) <= tol)


# --- Single-mode Fock-space operators, truncated at ``space.truncation``.

def annihilation(space) -> Operator:
    """Lowering operator: takes |k> to sqrt(k) |k-1>."""
    mat = np.diag(np.sqrt(np.arange(1, space.dim, dtype=float)), k=1)
    return Operator(mat.astype(complex))


def creation(space) -> Operator:
    """Raising operator, the adjoint of :func:`annihilation`."""
    return Operator(annihilation(space).mat.conj().T)


def number_projector(space, n: int) -> Operator:
    """Projector onto the ``n``-photon number state."""
    if not 0 <= n <= space.truncation:
        raise ValidationError(
            f"photon number {n} outside the truncation 0..{space.truncation}"
        )
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    mat[n, n] = 1.0
    return Operator(mat)


def reference_projector(ref, space) -> Operator:
    """The projector |ref><ref| of a reference field on ``space``."""
    v = ref.ket(space)
    return Operator(np.outer(v, v.conj()))


def total_photon_blocks(space):
    """Two-mode basis indices grouped by total photon number.

    Index ``n_b * dim + n_c`` addresses |n_b, n_c>; the beam-splitter
    unitary is block-diagonal over these groups.
    """
    dim, cap = space.dim, space.truncation
    blocks = []
    for total in range(2 * cap + 1):
        nb = np.arange(max(0, total - cap), min(total, cap) + 1)
        blocks.append((nb * dim + (total - nb)).tolist())
    return blocks


def photon_block(bs, space, total: int):
    """Mode-b counts ``nb`` and the beam-splitter block for ``total`` photons,
    with a fresh ``eigh`` of the block's generator on every call.

    Row and column ``i`` of the block address |nb[i], total - nb[i]>.  The
    generator b'c + c'b is tridiagonal within the block, with entries
    sqrt(nb+1) sqrt(total-nb), and complex.  Bit-for-bit oracle of
    ``optics._photon_block``, which keeps the eigendecomposition of narrow
    blocks.
    """
    nb = np.arange(max(0, total - space.truncation), min(total, space.truncation) + 1)
    hop = np.sqrt(nb[:-1] + 1.0) * np.sqrt(float(total) - nb[:-1])
    generator = np.zeros((nb.size, nb.size), dtype=complex)
    generator[np.arange(1, nb.size), np.arange(nb.size - 1)] = hop
    generator[np.arange(nb.size - 1), np.arange(1, nb.size)] = hop
    w, v = np.linalg.eigh(generator)
    return nb, (v * np.exp(1j * bs.theta * w)) @ v.conj().T


def beam_splitter_unitary(bs, space) -> Operator:
    """Two-mode unitary exp[i theta (b'c + c'b)] assembled per photon-number block.

    The generator conserves total photon number, so each block is
    exponentiated exactly: blocks whose total fits in the truncation are
    free of truncation error.  Each block is ``optics._photon_block``'s;
    the dense (dim^2, dim^2) matrix, 16 dim^4 bytes, is the tests' two-mode
    oracle of the per-block route.
    """
    dim = space.dim
    u = np.zeros((dim * dim, dim * dim), dtype=complex)
    for total in range(2 * space.truncation + 1):
        nb, block = optics._photon_block(bs, space, total)
        idx = nb * dim + (total - nb)
        u[np.ix_(idx, idx)] = block
    return Operator(u, ModeDims((dim, dim)))


def _require_single_mode(op: Operator, space, name: str):
    if op.dims.dims != (space.dim,):
        raise DimensionMismatch(
            f"{name} must be a single-mode operator of dimension {space.dim}, "
            f"got dims {op.dims.dims}"
        )


def compose_measurement_pom(rho_c: Operator, pi_b: Operator, pi_c: Operator,
                            bs, space) -> Operator:
    """Effective mode-b POM element of a joint measurement behind a beam splitter.

    With a reference field ``rho_c`` fed into mode c and outcome elements
    ``pi_b``, ``pi_c`` registered on the output modes, the element
    returned reproduces the joint outcome probability for every mode-b
    input via the ordinary trace rule on mode b alone.
    """
    for op, name in ((rho_c, "reference state"), (pi_b, "mode-b element"),
                     (pi_c, "mode-c element")):
        _require_single_mode(op, space, name)
    dim = space.dim
    u = beam_splitter_unitary(bs, space).mat.reshape(dim, dim, dim, dim)
    # Contract U+ (pi_b x pi_c) U rho_c without forming two-mode matrices.
    w = np.einsum("nN,NmjK->nmjK", pi_b.mat, u, optimize=True)
    w = np.einsum("mM,nMjK->nmjK", pi_c.mat, w, optimize=True)
    w = np.einsum("nmjk,kK->nmjK", w, rho_c.mat, optimize=True)
    out = np.einsum("nmik,nmjk->ij", u.conj(), w, optimize=True)
    return Operator((out + out.conj().T) / 2.0)


def normal_ordered_damping(eta: float, space) -> Operator:
    """Normal-ordered exponential of the damped number operator.

    Diagonal with entries (1 - eta)^k; full transmission (eta = 1) leaves
    only the vacuum projector.
    """
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"damping parameter must lie in [0, 1], got {eta}")
    return Operator(np.diag((1.0 - eta) ** np.arange(space.dim)).astype(complex))


def pure_state_fidelity(a: Operator, b: Operator) -> float:
    """Overlap fidelity Tr(ab) of two (near-)pure density operators."""
    if a.dims.dims != b.dims.dims:
        raise DimensionMismatch(
            f"fidelity requires matching dims, got {a.dims.dims} and {b.dims.dims}"
        )
    return float(np.einsum("ij,ji->", a.mat, b.mat).real)


class ConvergenceError(ComputationError):
    """The matrix exponential oracle failed to produce a finite result."""


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


def dense_detector_matrix(n, eta, space) -> np.ndarray:
    """The inefficient counter's retrodictive state as the ladder-operator
    product (eta^(n+1)/n!) b'^n D b^n, with b^n the left-to-right product
    of dense b matrices and two dense (N+1)^3 matrix products after it, the
    oracle for the diagonal route.  The matrix is returned as computed,
    non-finite entries included."""
    lower_n = _dense_lowering_power(n, space.dim)
    damping = normal_ordered_damping(eta, space).mat
    with np.errstate(over="ignore", invalid="ignore"):
        return (eta ** (n + 1) / math.factorial(n)) * (
            lower_n.conj().T @ damping @ lower_n)


@functools.lru_cache(maxsize=2)
def _dense_lowering_power(n, dim) -> np.ndarray:
    """b^n as ((b b) b) ... b over dense dim x dim matrices, the identity at
    n = 0.  Read-only; b^(n-1) is kept from the count before, so a sweep
    over the counts of one truncation takes one product per count."""
    if n == 0:
        power = np.eye(dim, dtype=complex)
    else:
        b = annihilation(optics.FockSpace(dim - 1)).mat
        power = _dense_lowering_power(n - 1, dim) @ b
    power.flags.writeable = False
    return power


def dense_purity(op: Operator) -> float:
    """Tr(rho^2) through the full (N+1)^3 matrix product."""
    return float(np.trace(op.mat @ op.mat).real)


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


# --- Oracles: the labelled-operator checks and overlaps one element at a time.
# They are the element-by-element code that retrodict.OperatorStack and its
# row kernel replaced, kept here to check the stack bit for bit.

def oracle_elements(elements, kind, *, require_completeness, trace_sum=False):
    """Checked (label, Operator) pairs of a POM (``kind`` "POM" or "preparation
    POM", with completeness) or of biased-source elements (with ``trace_sum``)."""
    elements = tuple((label, op) for label, op in elements)
    if not elements:
        raise ValidationError(f"{kind} requires at least one element")
    labels = [label for label, _ in elements]
    if len(set(labels)) != len(labels):
        raise ValidationError(f"{kind} labels must be unique, got {labels!r}")
    dims = elements[0][1].dims
    for label, op in elements:
        if op.dims.dims != dims.dims:
            raise DimensionMismatch(
                f"{kind} element {label!r} lives on dims {op.dims.dims}, "
                f"expected {dims.dims}"
            )
        if not is_psd(op):
            raise ValidationError(f"{kind} element {label!r} is not positive semidefinite")
    if require_completeness:
        total = np.sum([op.mat for _, op in elements], axis=0)
        deviation = float(np.max(np.abs(total - np.eye(dims.total_dim))))
        if deviation > TOL:
            raise ValidationError(
                f"{kind} elements must sum to the identity; "
                f"max deviation {deviation:.3e}"
            )
    if trace_sum:
        total = sum(float(np.trace(op.mat).real) for _, op in elements)
        if abs(total - 1.0) > TOL:
            raise ValidationError(
                f"biased-source element traces must sum to 1 (they are the "
                f"priors), got {total!r}"
            )
    return elements


def oracle_ensemble(events):
    """Checked (label, prior, Operator) events of a preparation ensemble."""
    events = tuple((label, float(prior), op) for label, prior, op in events)
    if not events:
        raise ValidationError("ensemble requires at least one event")
    labels = [label for label, _, _ in events]
    if len(set(labels)) != len(labels):
        raise ValidationError(f"ensemble labels must be unique, got {labels!r}")
    dims = events[0][2].dims
    for label, prior, op in events:
        if not np.isfinite(prior):
            raise ValidationError(f"prior of event {label!r} is not finite: {prior}")
        if prior < 0:
            raise ValidationError(f"prior of event {label!r} is negative: {prior}")
        if op.dims.dims != dims.dims:
            raise DimensionMismatch(
                f"state of event {label!r} lives on dims {op.dims.dims}, "
                f"expected {dims.dims}"
            )
        if not is_psd(op):
            raise ValidationError(f"state of event {label!r} is not positive semidefinite")
        trace = float(np.trace(op.mat).real)
        if abs(trace - 1.0) > TOL:
            raise ValidationError(
                f"state of event {label!r} has trace {trace!r}, expected 1"
            )
    total = sum(prior for _, prior, _ in events)
    if abs(total - 1.0) > TOL:
        raise ValidationError(f"priors must sum to 1, got {total!r}")
    return events


def born_one(state, element, tol=1e-9):
    """Born probability of one (state, element) pair: one einsum, checked and clamped."""
    if state.dims.dims != element.dims.dims:
        raise DimensionMismatch(
            f"state dims {state.dims.dims} do not match element dims {element.dims.dims}"
        )
    raw = complex(np.einsum("ij,ji->", state.mat, element.mat))
    if abs(raw.imag) > tol:
        raise NumericIntegrityError(f"outcome probability has imaginary part {raw.imag:.3e}")
    p = raw.real
    if p < -tol or p > 1.0 + tol:
        raise NumericIntegrityError(f"outcome probability {p!r} outside [0, 1]")
    return min(max(p, 0.0), 1.0)


def biased_posterior_one_by_one(weighted_states, element, tol=1e-9):
    """Biased posterior row: one einsum per prior-weighted state, then normalized."""
    overlaps = np.empty(len(weighted_states))
    for k, (label, op) in enumerate(weighted_states):
        raw = complex(np.einsum("ij,ji->", op.mat, element.mat))
        if abs(raw.imag) > tol or raw.real < -tol:
            raise NumericIntegrityError(
                f"overlap of event {label!r} with the outcome is not a "
                f"nonnegative real: {raw!r}"
            )
        overlaps[k] = max(raw.real, 0.0)
    denominator = float(overlaps.sum())
    if denominator <= 0.0:
        raise ZeroProbabilityError(
            "outcome has zero probability under every event; posterior undefined")
    return overlaps / denominator


def oracle_matrix(rows, where):
    """An Operator parsed entry by entry, ``complex(float(re), float(im))``
    per pair, as the CLI parsed matrices before they became float64 arrays."""
    try:
        parsed = [tuple(complex(float(re), float(im)) for re, im in row) for row in rows]
    except OverflowError:
        raise ValidationError(
            f"{where} holds a number outside the double-precision range") from None
    try:
        mat = np.array(parsed, dtype=complex)
    except ValueError as exc:
        raise ValidationError(f"malformed matrix: {exc}") from None
    return Operator(mat)


def _table(rows, cols, values):
    return {"rows": [str(r) for r in rows], "cols": [str(c) for c in cols],
            "values": [[float(x) for x in row] for row in values]}


def oracle_retrodict(params):
    """Tables and diagnostics of a ``retrodict`` run, one element at a time.

    This is the route the CLI's operator stacks replaced: every matrix an
    Operator, every check and overlap per element, and each emitted row's
    sum checked as the renderer does.
    """
    events = []
    for event in params["events"]:
        label = event["label"]
        try:
            prior = float(event["prior"])
        except OverflowError:
            raise ValidationError(f"prior of event {label!r} holds a number outside "
                                  f"the double-precision range") from None
        events.append((label, prior, oracle_matrix(event["state"],
                                                   f"state of event {label!r}")))
    events = oracle_ensemble(events)
    elements = oracle_elements(
        [(p["label"], oracle_matrix(p["element"], f"POM element {p['label']!r}"))
         for p in params["pom"]], "POM", require_completeness=True)
    labels = [label for label, _, _ in events]
    outcomes = [label for label, _ in elements]
    predictive = [[born_one(state, op) for _, op in elements] for _, _, state in events]
    tables = {"predictive": _table(labels, outcomes, predictive)}
    d = events[0][2].dims.total_dim
    mixture = np.sum([prior * op.mat for _, prior, op in events], axis=0)
    diagnostics = {"mixture_deviation": float(np.max(np.abs(mixture - np.eye(d) / d)))}
    prep = [(label, Operator(op.mat * (d * prior))) for label, prior, op in events]
    total = np.sum([op.mat for _, op in prep], axis=0)
    unbiased = float(np.max(np.abs(total - np.eye(d)))) <= 1e-9
    diagnostics["source"] = "unbiased" if unbiased else "biased"
    if unbiased:
        weights = [float(np.trace(op.mat).real) for _, op in elements]
        distribution = [w / d for w in weights]

        def posterior(op, weight):
            retro = Operator(op.mat * complex(1.0 / weight))
            return [born_one(retro, xi, d * 1e-9) for _, xi in prep]
    else:
        weighted = [(label, Operator(op.mat * prior)) for label, prior, op in events]
        total = sum(float(np.trace(op.mat).real) for _, op in weighted)
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"biased-source element traces must sum to 1 (they "
                                  f"are the priors), got {total!r}")
        distribution = weights = [
            sum(prior * row[b] for (_, prior, _), row in zip(events, predictive))
            for b in range(len(elements))]

        def posterior(op, weight):
            return biased_posterior_one_by_one(weighted, op).tolist()
    tables["outcome_distribution"] = _table(["prior"], outcomes, [distribution])
    active = [(label, op, w) for (label, op), w in zip(elements, weights)
              if not w <= 1e-12]
    if active:
        tables["retrodictive"] = _table([label for label, _, _ in active], labels,
                                        [posterior(op, w) for _, op, w in active])
    skipped = [label for (label, _), w in zip(elements, weights) if w <= 1e-12]
    if skipped:
        diagnostics["zero_probability_outcomes"] = skipped
    for name, table in tables.items():
        for label, row in zip(table["rows"], table["values"]):
            if not abs(sum(row) - 1.0) <= 1e-9:
                raise NumericIntegrityError(
                    f"table {name!r} row {label!r} sums to {sum(row)!r}, expected 1")
    return tables, diagnostics


# --- Oracles of the CLI's output and of the BB84 tally.

def plain(value):
    """``value`` with each numpy array in it as nested lists."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [plain(item) for item in value]
    return value


def to_json_obj(result):
    """A CLI ``ResultDocument`` as plain JSON values (lists, dicts, str and
    numbers): the input of the ``json.dumps`` oracle of the renderer."""
    return plain(result._document())


def simulate_slots_per_slot(count, rng_seed, attack="none"):
    """``bb84.simulate_slots`` as it was built before the slot codes: the
    same draws, one ``SlotRecord`` per slot from its three indices, and the
    tallies, by ``SimulationSummary`` attribute name, from ``np.add.at``
    and per-slot masks."""
    rng = np.random.default_rng(rng_seed)
    alice_idx = rng.integers(0, 4, size=count)
    bob_basis_idx = rng.integers(0, 2, size=count)
    transmitted_idx = alice_idx
    if attack == "intercept_resend":
        eve_basis_idx = rng.integers(0, 2, size=count)
        transmitted_idx = bb84._measure(rng, alice_idx, eve_basis_idx)
    outcome_idx = bb84._measure(rng, transmitted_idx, bob_basis_idx)
    outcome_counts = np.zeros((4, 4), dtype=int)
    np.add.at(outcome_counts, (alice_idx, outcome_idx), 1)
    same_basis = bb84._BASIS_OF_STATE[alice_idx] == bob_basis_idx
    errors = same_basis & (alice_idx != outcome_idx)
    records = [bb84.SlotRecord(bb84.LABELS[a], bb84._BASIS_NAMES[b], bb84.LABELS[o])
               for a, b, o in zip(alice_idx, bob_basis_idx, outcome_idx)]
    return records, {
        "slots": count, "attack": attack, "outcome_counts": outcome_counts,
        "flagged": int(errors.sum()), "same_basis_slots": int(same_basis.sum()),
        "same_basis_errors": int(errors.sum())}
