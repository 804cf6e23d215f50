"""Truncated Fock-space optics: beam splitters, photodetection, state synthesis.

Single modes are truncated at a maximum photon number N (dimension N+1).
The beam-splitter coupling conserves total photon number, so each of its
photon-number blocks is exponentiated exactly and results whose physics
lives entirely in the low-photon sectors carry no truncation error at all;
projection synthesis and the scissors device touch only the block their
photon counts select and compute their state on its n+m+1 number states.
A block's generator depends only on its photon total, and the coupling
angle enters only through the phases of its eigenvalues, so the
eigendecomposition of each narrow block is computed once and kept, and
the scissors' one-photon resource is built once; both give the bits of
a fresh computation.  The inefficient counter's state is diagonal and
is built from its diagonal, with the band of b^n multiplied left to
right.  So only the zero-padded (N+1) x (N+1) output grows with the
truncation: no kernel the scenarios run multiplies (N+1) x (N+1)
matrices.  The detector operators are truncated with a geometric tail
that shrinks as N grows.

Included here: the closed-form retrodictive state of an inefficient
photon counter, projection synthesis of retrodictive states, and the
quantum-scissors device that projects a truncated copy of a reference
field out of an entangled single-photon resource.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (TOL, ComputationError, DimensionMismatch, ValidationError,
                     ZeroProbabilityError)
from .hilbert import Operator
from .retrodict import _retro_states


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
        if abs(norm_sq - 1.0) > TOL:
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


#: Photon-number blocks at most this wide keep their eigendecomposition,
#: and at most this many are kept.  Their arrays (v and v^H at 16 bytes an
#: entry, nb and w at 8) hold at most 32 x (2 x 16 x 64^2 + 2 x 8 x 64)
#: = 4,227,072 bytes.
_CACHED_WIDTH = 64
_CACHED_BLOCKS = 32


def _block_basis(lo: int, hi: int, total: int):
    """Mode-b counts ``nb = lo..hi`` of the block with ``total`` photons, and
    the eigenvalues ``w``, eigenvectors ``v`` and ``v^H`` of its generator,
    all read-only.

    The generator b'c + c'b is tridiagonal within the block, with entries
    sqrt(nb+1) sqrt(total-nb); it is kept complex so that ``eigh`` takes
    the same Hermitian route for every block and the blocks match a
    dense two-mode construction entry for entry.  None of this depends on
    the coupling angle.
    """
    nb = np.arange(lo, hi + 1)
    hop = np.sqrt(nb[:-1] + 1.0) * np.sqrt(float(total) - nb[:-1])
    generator = np.zeros((nb.size, nb.size), dtype=complex)
    generator[np.arange(1, nb.size), np.arange(nb.size - 1)] = hop
    generator[np.arange(nb.size - 1), np.arange(1, nb.size)] = hop
    w, v = np.linalg.eigh(generator)
    basis = nb, w, v, v.conj().T
    for array in basis:
        array.flags.writeable = False
    return basis


_cached_block_basis = functools.lru_cache(maxsize=_CACHED_BLOCKS)(_block_basis)


def _photon_block(bs: BeamSplitter, space: FockSpace, total: int):
    """Mode-b counts ``nb`` and the beam-splitter block for ``total`` photons.

    Row and column ``i`` of the block address |nb[i], total - nb[i]>.  The
    block is exp(i theta w) on the generator's eigenbasis, and the basis
    of a block at most ``_CACHED_WIDTH`` wide is computed once per
    ``(lo, hi, total)``: the block's bits are those of a fresh ``eigh``.
    """
    lo, hi = max(0, total - space.truncation), min(total, space.truncation)
    basis = _cached_block_basis if hi - lo < _CACHED_WIDTH else _block_basis
    nb, w, v, vh = basis(lo, hi, total)
    # The spectrum is symmetric about 0, so w[-1] has the largest magnitude.
    if not math.isfinite(bs.theta * float(w[-1])):
        raise ComputationError(f"theta = {bs.theta!r} overflows the phases of the "
                               f"{total}-photon block")
    return nb, (v * np.exp(1j * bs.theta * w)) @ vh


def _lowering_power_band(n: int, dim: int) -> np.ndarray:
    """Entries (j, j+n) of b^n, the left-to-right product b b ... b:
    sqrt(j+1) sqrt(j+2) ... sqrt(j+n), multiplied in that order."""
    root = np.sqrt(np.arange(1, dim, dtype=float))
    band = np.ones(dim)
    for i in range(n):
        band = band[:-1] * root[i:]
    return band


def _ladder_detector_diagonal(n: int, eta: float, dim: int):
    """Entries k >= n of the diagonal of (eta^(n+1)/n!) b'^n D b^n, or None
    where n! or that product overflows.

    b'^n D b^n is diagonal: entry k is (conj(v) d) v, for v the band of b^n
    and d the damping entry k - n.
    """
    try:
        scale = eta ** (n + 1) / math.factorial(n)
    except OverflowError:
        return None
    v = _lowering_power_band(n, dim)
    damping = ((1.0 - eta) ** np.arange(dim))[:dim - n]
    with np.errstate(over="ignore", invalid="ignore"):
        entries = scale * ((v * damping) * v)
    return entries if np.isfinite(entries).all() else None


def _log_detector_diagonal(n: int, eta: float, dim: int) -> np.ndarray:
    """eta^(n+1) C(k, n) (1-eta)^(k-n) for each k >= n, evaluated in log space.

    Every entry is at most 1, so nothing here overflows; at eta = 1 the
    (k-n) log(1-eta) term is 0 for k = n and -inf beyond.
    """
    log_binomial = np.array([math.lgamma(k + 1) - math.lgamma(k - n + 1)
                             for k in range(n, dim)])
    log_tail = math.log1p(-eta) if eta < 1.0 else -math.inf
    exponent = (n + 1) * math.log(eta) - math.lgamma(n + 1) + log_binomial
    exponent[1:] += np.arange(1, dim - n) * log_tail
    return np.exp(exponent)


def inefficient_detector_retro(n: int, eta: float, space: FockSpace) -> Operator:
    """Retrodictive state of an efficiency-``eta`` counter that registered ``n`` photons.

    The state is diagonal in the number basis, with entries
    eta^(n+1) C(k, n) (1-eta)^(k-n) for k >= n, and is built from its
    diagonal alone.  Wherever the ladder-operator form
    (eta^(n+1)/n!) b'^n D b^n, with D the normal-ordered damping operator
    and b^n the left-to-right product b b ... b, is finite in floating
    point, the entries are that product; where it overflows (large
    counts), they are evaluated in log space.  The trace approaches 1
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
    entries = _ladder_detector_diagonal(n, eta, space.dim)
    if entries is None:
        entries = _log_detector_diagonal(n, eta, space.dim)
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    np.fill_diagonal(mat[n:, n:], entries)
    return Operator._adopt(mat)


def _on_support(block: np.ndarray, space: FockSpace) -> Operator:
    """The operator equal to ``block`` on the leading number states and zero
    elsewhere."""
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    mat[:block.shape[0], :block.shape[1]] = block
    return Operator._adopt(mat)


def _synthesis_block(ref: ReferenceState, n: int, m: int, bs: BeamSplitter,
                     space: FockSpace) -> np.ndarray:
    """The leading (n+m+1) x (n+m+1) block of :func:`projection_synthesis_retro`,
    whose state is zero outside it."""
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
    element = u.conj()[:, None] * (u[None, :] * rho)
    element = (element + element.conj().T) / 2.0
    # The trace adds all N+1 diagonal entries, zeros included: the order in
    # which numpy adds them, and so the normalization's last bit, depends on
    # their number.
    diagonal = np.zeros(space.dim, dtype=complex)
    diagonal[:total + 1] = np.diagonal(element)
    try:
        return _retro_states(element[None], traces=diagonal.sum().real[None])[0]
    except ZeroProbabilityError:
        raise ZeroProbabilityError(
            f"outcome (n={n}, m={m}) has zero probability for this reference "
            f"field; no retrodictive state exists"
        ) from None


def projection_synthesis_retro(ref: ReferenceState, n: int, m: int,
                               bs: BeamSplitter, space: FockSpace) -> Operator:
    """Retrodictive state synthesized by counting (n, m) photons behind a beam splitter.

    Feeding the reference field into the auxiliary port and registering
    ``n`` and ``m`` photons on the two outputs projects out a mode-b
    retrodictive state supported on at most n+m photons; the reference
    amplitudes select its superposition weights.  Only that support is
    computed.

    Raises
    ------
    ZeroProbabilityError
        If the (n, m) outcome has zero probability for this reference
        field and coupling.
    """
    return _on_support(_synthesis_block(ref, n, m, bs, space), space)


@functools.cache
def _scissors_resource() -> np.ndarray:
    """U|1,0> of a 50:50 beam splitter: column 1 of the one-photon block,
    which is the same block [0, 1] at every truncation.  Read-only."""
    _, block = _photon_block(BeamSplitter(math.pi / 4.0), FockSpace(1), 1)
    psi = block[:, 1].copy()
    psi.flags.writeable = False
    return psi


def scissors_output(ref: ReferenceState, bs: BeamSplitter, space: FockSpace) -> Operator:
    """Mode-d state prepared by the quantum-scissors device.

    The single-photon entangled resource (a photon split 50:50 between
    modes d and b) is projected onto the retrodictive state that the
    (1, 0) counting outcome synthesizes from the reference field.  The
    result truncates the reference to its vacuum and one-photon parts,
    reweighted by the beam-splitter angle.
    """
    retro = _synthesis_block(ref, 1, 0, bs, space)
    # The resource U|1,0> is column 1 of the one-photon block: psi[a] is
    # the amplitude of |n_d = a, n_b = 1-a>.  Projecting mode b onto the
    # retrodictive state leaves psi[a] retro[1-b, 1-a] psi[b]* on n_d <= 1.
    # The four products are taken one by one, as a matrix product over the
    # dense two-mode amplitudes takes them; numpy's vectorized complex
    # multiply may fuse them and change the last bits of the output.
    psi = _scissors_resource()
    out = np.zeros((2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            out[a, b] = psi[a] * retro[1 - b, 1 - a] * np.conj(psi[b])
    tr = float(np.trace(out).real)
    return _on_support((out + out.conj().T) / (2.0 * tr), space)
