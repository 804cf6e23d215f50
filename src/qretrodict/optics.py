"""Truncated Fock-space optics: beam splitters, photodetection, state synthesis.

Single modes are truncated at a maximum photon number N (dimension N+1).
The beam-splitter coupling conserves total photon number, so its unitary
is assembled exactly block-by-block and results whose physics lives
entirely in the low-photon sectors carry no truncation error at all;
projection synthesis and the scissors device touch only the block their
photon counts select.  The detector operators are truncated with a
geometric tail that shrinks as N grows.

Included here: ladder operators, the two-mode beam-splitter unitary, the
reduction of a joint photon-count measurement behind a beam splitter to
an effective single-mode POM element, the closed-form retrodictive state
of an inefficient photon counter, projection synthesis of retrodictive
states, and the quantum-scissors device that projects a truncated copy
of a reference field out of an entangled single-photon resource.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import retrodict
from .errors import DimensionMismatch, ValidationError, ZeroProbabilityError
from .hilbert import ModeDims, Operator

NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True)
class FockSpace:
    """Single-mode Fock space truncated at ``truncation`` photons."""

    truncation: int

    def __post_init__(self):
        n = int(self.truncation)
        if n < 1:
            raise ValidationError(f"truncation must be at least 1, got {self.truncation}")
        object.__setattr__(self, "truncation", n)

    @property
    def dim(self) -> int:
        return self.truncation + 1


@dataclass(frozen=True)
class BeamSplitter:
    """Beam-splitter coupling of angle ``theta``; transmittance cos²(theta)."""

    theta: float

    def __post_init__(self):
        theta = float(self.theta)
        if not math.isfinite(theta):
            raise ValidationError(f"coupling angle must be finite, got {self.theta}")
        object.__setattr__(self, "theta", theta)

    @property
    def eta(self) -> float:
        """Transmittance of the coupled detector arm."""
        return math.cos(self.theta) ** 2


@dataclass(frozen=True)
class ReferenceState:
    """Pure reference field given by its number-state amplitudes ``(c_0, c_1, ...)``."""

    amplitudes: tuple

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise ValidationError("reference state needs a nonempty amplitude vector")
        if not np.all(np.isfinite(amps)):
            raise ValidationError("reference amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORMALIZATION_TOL:
            raise ValidationError(
                f"reference amplitudes must be normalized, |c|^2 = {norm_sq!r}"
            )
        object.__setattr__(self, "amplitudes", tuple(amps))

    def ket(self, space: FockSpace) -> np.ndarray:
        """Amplitudes zero-padded to the space dimension."""
        amps = np.asarray(self.amplitudes)
        if amps.size > space.dim:
            raise DimensionMismatch(
                f"reference state has {amps.size} amplitudes but the space "
                f"holds at most {space.truncation} photons"
            )
        out = np.zeros(space.dim, dtype=complex)
        out[:amps.size] = amps
        return out

    def projector(self, space: FockSpace) -> Operator:
        v = self.ket(space)
        return Operator(np.outer(v, v.conj()))


def annihilation(space: FockSpace) -> Operator:
    """Lowering operator: takes |k> to sqrt(k) |k-1>."""
    mat = np.diag(np.sqrt(np.arange(1, space.dim, dtype=float)), k=1)
    return Operator(mat.astype(complex))


def creation(space: FockSpace) -> Operator:
    """Raising operator, the adjoint of :func:`annihilation`."""
    return Operator(annihilation(space).mat.conj().T)


def number_projector(space: FockSpace, n: int) -> Operator:
    """Projector onto the ``n``-photon number state."""
    if not 0 <= n <= space.truncation:
        raise ValidationError(
            f"photon number {n} outside the truncation 0..{space.truncation}"
        )
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    mat[n, n] = 1.0
    return Operator(mat)


def _block_counts(space: FockSpace, total: int) -> np.ndarray:
    """Mode-b photon numbers of the two-mode states with ``total`` photons."""
    return np.arange(max(0, total - space.truncation),
                     min(total, space.truncation) + 1)


def total_photon_blocks(space: FockSpace):
    """Two-mode basis indices grouped by total photon number.

    Index ``n_b * dim + n_c`` addresses |n_b, n_c>; the beam-splitter
    unitary is block-diagonal over these groups.
    """
    dim = space.dim
    blocks = []
    for total in range(2 * space.truncation + 1):
        nb = _block_counts(space, total)
        blocks.append((nb * dim + (total - nb)).tolist())
    return blocks


def _photon_block(bs: BeamSplitter, space: FockSpace, total: int):
    """Mode-b counts ``nb`` and the beam-splitter block for ``total`` photons.

    Row and column ``i`` of the block address |nb[i], total - nb[i]>.  The
    generator b'c + c'b is tridiagonal within the block, with entries
    sqrt(nb+1) sqrt(total-nb); it is kept complex so that ``eigh`` takes
    the same Hermitian route for every block and the blocks match a
    dense two-mode construction entry for entry.
    """
    nb = _block_counts(space, total)
    hop = np.sqrt(nb[:-1] + 1.0) * np.sqrt(float(total) - nb[:-1])
    generator = np.zeros((nb.size, nb.size), dtype=complex)
    generator[np.arange(1, nb.size), np.arange(nb.size - 1)] = hop
    generator[np.arange(nb.size - 1), np.arange(1, nb.size)] = hop
    w, v = np.linalg.eigh(generator)
    return nb, (v * np.exp(1j * bs.theta * w)) @ v.conj().T


def beam_splitter_unitary(bs: BeamSplitter, space: FockSpace) -> Operator:
    """Two-mode unitary exp[i theta (b'c + c'b)] assembled per photon-number block.

    The generator conserves total photon number, so each block is
    exponentiated exactly: blocks whose total fits in the truncation are
    free of truncation error.
    """
    dim = space.dim
    u = np.zeros((dim * dim, dim * dim), dtype=complex)
    for total in range(2 * space.truncation + 1):
        nb, block = _photon_block(bs, space, total)
        idx = nb * dim + (total - nb)
        u[np.ix_(idx, idx)] = block
    return Operator(u, ModeDims((dim, dim)))


def _require_single_mode(op: Operator, space: FockSpace, name: str):
    if op.dims.dims != (space.dim,):
        raise DimensionMismatch(
            f"{name} must be a single-mode operator of dimension {space.dim}, "
            f"got dims {op.dims.dims}"
        )


def compose_measurement_pom(rho_c: Operator, pi_b: Operator, pi_c: Operator,
                            bs: BeamSplitter, space: FockSpace) -> Operator:
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


def normal_ordered_damping(eta: float, space: FockSpace) -> Operator:
    """Normal-ordered exponential of the damped number operator.

    Diagonal with entries (1 - eta)^k; full transmission (eta = 1) leaves
    only the vacuum projector.
    """
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"damping parameter must lie in [0, 1], got {eta}")
    return Operator(np.diag((1.0 - eta) ** np.arange(space.dim)).astype(complex))


def inefficient_detector_retro(n: int, eta: float, space: FockSpace) -> Operator:
    """Retrodictive state of an efficiency-``eta`` counter that registered ``n`` photons.

    Built from the ladder-operator form (eta^(n+1)/n!) b'^n D b^n with D
    the normal-ordered damping operator; the diagonal entries come out as
    eta^(n+1) C(k, n) (1-eta)^(k-n) for k >= n.  The trace approaches 1
    from below as the truncation grows; the deficit is the geometric tail
    beyond N photons.
    """
    n = int(n)
    eta = float(eta)
    if not 0 <= n <= space.truncation:
        raise ValidationError(
            f"count {n} outside the truncation 0..{space.truncation}"
        )
    if not 0.0 < eta <= 1.0:
        raise ValidationError(
            f"detector efficiency must lie in (0, 1], got {eta}; at zero "
            f"efficiency the outcome carries no retrodictive state"
        )
    b = annihilation(space).mat
    lower_n = np.linalg.matrix_power(b, n)
    damping = normal_ordered_damping(eta, space).mat
    mat = (eta ** (n + 1) / math.factorial(n)) * (
        lower_n.conj().T @ damping @ lower_n
    )
    return Operator(mat)


def projection_synthesis_retro(ref: ReferenceState, n: int, m: int,
                               bs: BeamSplitter, space: FockSpace,
                               trace_tol: float = retrodict.TRACE_TOL) -> Operator:
    """Retrodictive state synthesized by counting (n, m) photons behind a beam splitter.

    Feeding the reference field into the auxiliary port and registering
    ``n`` and ``m`` photons on the two outputs projects out a mode-b
    retrodictive state supported on at most n+m photons; the reference
    amplitudes select its superposition weights.

    Raises
    ------
    ZeroProbabilityError
        If the (n, m) outcome has zero probability for this reference
        field and coupling.
    """
    n = int(n)
    m = int(m)
    if n < 0 or m < 0 or n + m > space.truncation:
        raise ValidationError(
            f"counts ({n}, {m}) must be nonnegative with n+m <= {space.truncation}"
        )
    # Counting (n, m) selects the block with n+m photons: only inputs
    # |i, total-i> reach |n, m>, so with u the block's row n the element is
    # conj(u_i) u_j rho[total-j, total-i] on the block's support and zero
    # elsewhere.
    total = n + m
    ket = ref.ket(space)
    _, block = _photon_block(bs, space, total)
    u = block[n]
    rev = ket[total::-1]
    rho = np.outer(rev, rev.conj()).T
    out = np.zeros((space.dim, space.dim), dtype=complex)
    out[:total + 1, :total + 1] = u.conj()[:, None] * (u[None, :] * rho)
    element = Operator((out + out.conj().T) / 2.0)
    try:
        return retrodict.retro_state(element, trace_tol)
    except ZeroProbabilityError:
        raise ZeroProbabilityError(
            f"outcome (n={n}, m={m}) has zero probability for this reference "
            f"field; no retrodictive state exists"
        ) from None


def scissors_output(ref: ReferenceState, bs: BeamSplitter, space: FockSpace,
                    trace_tol: float = retrodict.TRACE_TOL) -> Operator:
    """Mode-d state prepared by the quantum-scissors device.

    The single-photon entangled resource (a photon split 50:50 between
    modes d and b) is projected onto the retrodictive state that the
    (1, 0) counting outcome synthesizes from the reference field.  The
    result truncates the reference to its vacuum and one-photon parts,
    reweighted by the beam-splitter angle.
    """
    retro = projection_synthesis_retro(ref, 1, 0, bs, space, trace_tol)
    # The resource U|1,0> is column 1 of the one-photon block: psi[a] is
    # the amplitude of |n_d = a, n_b = 1-a>.  Projecting mode b onto the
    # retrodictive state leaves psi[a] retro[1-b, 1-a] psi[b]* on n_d <= 1.
    # The four products are taken one by one, as a matrix product over the
    # dense two-mode amplitudes takes them; numpy's vectorized complex
    # multiply may fuse them and change the last bits of the output.
    _, block = _photon_block(BeamSplitter(math.pi / 4.0), space, 1)
    psi = block[:, 1]
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for a in range(2):
        for b in range(2):
            out[a, b] = psi[a] * retro.mat[1 - b, 1 - a] * np.conj(psi[b])
    tr = float(np.trace(out).real)
    if tr <= trace_tol:
        raise ZeroProbabilityError(
            "the scissors projection has zero probability for this reference "
            "field and coupling"
        )
    return Operator((out + out.conj().T) / (2.0 * tr))


def pure_state_fidelity(a: Operator, b: Operator) -> float:
    """Overlap fidelity Tr(ab) of two (near-)pure density operators."""
    if a.dims.dims != b.dims.dims:
        raise DimensionMismatch(
            f"fidelity requires matching dims, got {a.dims.dims} and {b.dims.dims}"
        )
    return float(np.einsum("ij,ji->", a.mat, b.mat).real)
