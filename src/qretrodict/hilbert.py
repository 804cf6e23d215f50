"""Complex operator algebra over finite-dimensional, multi-mode Hilbert spaces.

Every state, measurement element and unitary in this package is carried by
:class:`Operator`: a square complex matrix tagged with the list of per-mode
dimensions it acts on.  All values are immutable after construction and all
operations are pure functions, so everything here is safe for unrestricted
concurrent reads.

The Kronecker index convention is fixed once: in ``tensor(a, b)`` the left
operand owns the slower-varying index, i.e. basis state ``|i>|k>`` sits at
row ``i * dim_b + k``, matching ``numpy.kron``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import TOL, DimensionMismatch, ValidationError

DimsLike = Union["ModeDims", Sequence[int]]


@dataclass(frozen=True)
class ModeDims:
    """Ordered per-mode dimensions of a multi-mode space."""

    dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims:
            raise ValidationError("ModeDims requires at least one mode")
        if any(d < 1 for d in dims):
            raise ValidationError(f"mode dimensions must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def n_modes(self) -> int:
        return len(self.dims)

    def drop(self, mode_index: int) -> "ModeDims":
        """Dims with one mode removed; the empty product collapses to a scalar space."""
        remaining = self.dims[:mode_index] + self.dims[mode_index + 1:]
        return ModeDims(remaining if remaining else (1,))


def _as_mode_dims(dims: DimsLike) -> ModeDims:
    return dims if isinstance(dims, ModeDims) else ModeDims(tuple(dims))


@dataclass(frozen=True, eq=False)
class Operator:
    """Square complex matrix tagged with its mode structure.

    Parameters
    ----------
    mat : array_like
        Square complex matrix; all entries must be finite.
    dims : ModeDims or sequence of int, optional
        Per-mode dimensions whose product equals the matrix side length.
        Defaults to a single mode of the full size.
    """

    mat: np.ndarray
    dims: ModeDims = field(default=None)

    def __post_init__(self):
        self._seal(np.array(self.mat, dtype=complex), self.dims)

    @classmethod
    def _adopt(cls, mat: np.ndarray, dims: DimsLike = None) -> "Operator":
        """The operator of ``mat``, a complex128 matrix that its caller made
        and hands over: checked and made read-only as by the constructor,
        but not copied."""
        op = object.__new__(cls)
        op._seal(np.asarray(mat, dtype=complex), dims)
        return op

    def _seal(self, mat: np.ndarray, dims):
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError(f"operator matrix must be square, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValidationError("operator entries must be finite (no NaN/Inf)")
        dims = _as_mode_dims(dims) if dims is not None else ModeDims((mat.shape[0],))
        if dims.total_dim != mat.shape[0]:
            raise DimensionMismatch(
                f"mode dims {dims.dims} give total dimension {dims.total_dim}, "
                f"but the matrix side length is {mat.shape[0]}"
            )
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", dims)

    @property
    def total_dim(self) -> int:
        return self.dims.total_dim

    # Small conveniences; the module-level functions are the primary API.
    def __add__(self, other: "Operator") -> "Operator":
        return add(self, other)

    def __sub__(self, other: "Operator") -> "Operator":
        return add(self, scale(other, -1.0))

    def __matmul__(self, other: "Operator") -> "Operator":
        return matmul(self, other)

    def __mul__(self, c: complex) -> "Operator":
        return scale(self, c)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Operator(dims={self.dims.dims}, mat=\n{self.mat})"


def identity(dims: DimsLike) -> Operator:
    """Unit operator on the space described by ``dims``."""
    d = _as_mode_dims(dims)
    return Operator(np.eye(d.total_dim, dtype=complex), d)


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product; result dims are the concatenated operand dims."""
    return Operator(np.kron(a.mat, b.mat), ModeDims(a.dims.dims + b.dims.dims))


def partial_trace(op: Operator, mode_index: int) -> Operator:
    """Trace out one mode.

    The result lives on the remaining modes (a 1x1 scalar space when the
    last mode is traced out) and has the same total trace as the input.
    """
    n = op.dims.n_modes
    if not 0 <= mode_index < n:
        raise DimensionMismatch(
            f"mode index {mode_index} out of range for {n}-mode operator"
        )
    shape = op.dims.dims + op.dims.dims
    reduced = np.trace(
        op.mat.reshape(shape), axis1=mode_index, axis2=mode_index + n
    )
    new_dims = op.dims.drop(mode_index)
    d = new_dims.total_dim
    return Operator(reduced.reshape(d, d), new_dims)


def _check_same_dims(a: Operator, b: Operator, what: str):
    if a.dims.dims != b.dims.dims:
        raise DimensionMismatch(
            f"{what} requires matching mode dims, got {a.dims.dims} and {b.dims.dims}"
        )


def adjoint(op: Operator) -> Operator:
    """Conjugate transpose."""
    return Operator(op.mat.conj().T, op.dims)


def trace(op: Operator) -> complex:
    return complex(np.trace(op.mat))


def matmul(a: Operator, b: Operator) -> Operator:
    _check_same_dims(a, b, "matmul")
    return Operator(a.mat @ b.mat, a.dims)


def scale(op: Operator, c: complex) -> Operator:
    return Operator(op.mat * complex(c), op.dims)


def add(a: Operator, b: Operator) -> Operator:
    _check_same_dims(a, b, "add")
    return Operator(a.mat + b.mat, a.dims)


def is_hermitian(op: Operator, tol: float = TOL) -> bool:
    return bool(np.max(np.abs(op.mat - op.mat.conj().T)) <= tol)


def psd_mask(mats: np.ndarray, tol: float = TOL) -> np.ndarray:
    """:func:`is_psd` of each matrix ``mats[..., :, :]``, with one batched
    hermiticity test and one batched ``eigvalsh`` call for all of them."""
    adj = np.swapaxes(mats, -1, -2).conj()
    hermitian = np.max(np.abs(mats - adj), axis=(-2, -1)) <= tol
    smallest = np.linalg.eigvalsh((mats + adj) / 2.0)[..., 0]
    return hermitian & (smallest >= -tol)


def is_psd(op: Operator, tol: float = TOL) -> bool:
    """Positive semidefinite within ``tol``: hermitian, smallest eigenvalue >= -tol."""
    return bool(psd_mask(op.mat, tol))


def is_unitary(op: Operator, tol: float = TOL) -> bool:
    gram = op.mat.conj().T @ op.mat
    return bool(np.max(np.abs(gram - np.eye(op.total_dim))) <= tol)
