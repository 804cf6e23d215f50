"""Complex operators on finite-dimensional, multi-mode Hilbert spaces.

Every state, measurement element and unitary in this package is carried by
:class:`Operator`: a square complex matrix tagged with the list of per-mode
dimensions it acts on.  Its ``+``, ``-``, ``@`` and ``*`` are the whole
algebra; each returns a new operator and refuses operands on other mode
dims.  All values are immutable after construction, so everything here is
safe for unrestricted concurrent reads.  :func:`psd_mask` is the
positivity check of a whole stack of matrices, in one batched call.
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


def _as_mode_dims(dims: DimsLike) -> ModeDims:
    return dims if isinstance(dims, ModeDims) else ModeDims(tuple(dims))


def _check_square_finite(mat):
    """Raise ValidationError unless ``mat`` is square, then unless it is finite."""
    shape = np.shape(mat)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValidationError(f"operator matrix must be square, got shape {shape}")
    if not np.isfinite(mat).all():
        raise ValidationError("operator entries must be finite (no NaN/Inf)")


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
        _check_square_finite(mat)
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

    def _same_dims(self, other: "Operator", what: str) -> ModeDims:
        if self.dims.dims != other.dims.dims:
            raise DimensionMismatch(f"{what} requires matching mode dims, got "
                                    f"{self.dims.dims} and {other.dims.dims}")
        return self.dims

    def __add__(self, other: "Operator") -> "Operator":
        dims = self._same_dims(other, "add")
        return Operator(self.mat + other.mat, dims)

    def __sub__(self, other: "Operator") -> "Operator":
        dims = self._same_dims(other, "subtract")
        return Operator(self.mat - other.mat, dims)

    def __matmul__(self, other: "Operator") -> "Operator":
        dims = self._same_dims(other, "matmul")
        return Operator(self.mat @ other.mat, dims)

    def __mul__(self, c: complex) -> "Operator":
        return Operator(self.mat * complex(c), self.dims)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Operator(dims={self.dims.dims}, mat=\n{self.mat})"


def psd_mask(mats: np.ndarray) -> np.ndarray:
    """Positivity of each matrix ``mats[..., :, :]`` within ``errors.TOL``:
    hermitian, and smallest eigenvalue at least -TOL, with one batched
    hermiticity test and one batched ``eigvalsh`` call for all of them.
    ``eigvalsh`` reads the lower triangle as given; the hermiticity test
    holds the upper one to it within TOL."""
    adj = np.swapaxes(mats, -1, -2).conj()
    hermitian = np.max(np.abs(mats - adj), axis=(-2, -1)) <= TOL
    return hermitian & (np.linalg.eigvalsh(mats)[..., 0] >= -TOL)
