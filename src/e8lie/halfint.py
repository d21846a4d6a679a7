"""Exact dense matrix arithmetic over the half-integers.

Every entry lives in (1/2)*Z and is stored as a doubled integer (stored
value = 2 * true entry), so products, commutators and trace pairings are
carried out in machine-integer arithmetic with zero rounding error.  A
result that would leave the half-integer lattice (for example
diag(1/2, 1/2) squared, whose entries are 1/4) raises InexactDivision
instead of silently losing precision.

Values are immutable after construction and every operation is a pure
function, so matrices can be shared freely across threads.
"""

from __future__ import annotations

import numpy as np

# int64 accumulators: refuse any product whose worst-case accumulated
# magnitude could reach 2**62 instead of risking silent wraparound.
_ACC_LIMIT = 1 << 62


class HalfIntError(Exception):
    """Base class for exact-arithmetic failures."""


class DimensionMismatch(HalfIntError):
    pass


class InexactDivision(HalfIntError):
    """A result entry fell outside (1/2)*Z."""


class AccumulatorOverflow(HalfIntError):
    """A product could exceed the checked 64-bit accumulator range."""


def _as_int64_exact(arr) -> np.ndarray:
    """arr as an int64 array (arr itself if it already is one); raises
    unless every entry is an integer that int64 holds exactly."""
    a = np.asarray(arr)
    kind = a.dtype.kind
    if kind in "bi":
        return a.astype(np.int64, copy=False)
    if kind == "u":
        if a.size and a.max() > np.iinfo(np.int64).max:
            raise AccumulatorOverflow("doubled entries do not fit in int64")
        return a.astype(np.int64)
    if kind == "f":
        r = np.rint(a)
        if not np.array_equal(r, a):
            raise InexactDivision("non-integer doubled entries")
        if a.size and not (-(2.0**63) <= r.min() and r.max() < 2.0**63):
            raise AccumulatorOverflow("doubled entries do not fit in int64")
        return r.astype(np.int64)
    # object arrays (Python ints of any size) and anything else: round trip
    try:
        b = a.astype(np.int64, casting="unsafe")
    except OverflowError:
        raise AccumulatorOverflow("doubled entries do not fit in int64") from None
    if not np.array_equal(a.astype(object), b.astype(object)):
        raise AccumulatorOverflow("doubled entries do not fit in int64")
    return b


class HalfIntMatrix:
    """Dense matrix with entries in (1/2)*Z, stored as doubled integers."""

    __slots__ = ("_d",)

    def __init__(self, doubled):
        d = _as_int64_exact(doubled)
        if d.ndim != 2:
            raise DimensionMismatch("expected a 2-d array of doubled entries")
        d = d.copy()
        d.setflags(write=False)
        self._d = d

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_true_ints(cls, values) -> "HalfIntMatrix":
        v = _as_int64_exact(values)
        return cls(2 * v)

    @classmethod
    def identity(cls, n: int) -> "HalfIntMatrix":
        return cls(2 * np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "HalfIntMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64))

    # -- basic queries ---------------------------------------------------------

    @property
    def rows(self) -> int:
        return self._d.shape[0]

    @property
    def cols(self) -> int:
        return self._d.shape[1]

    @property
    def doubled(self) -> np.ndarray:
        """Read-only view of the doubled-integer storage."""
        return self._d

    def to_float(self) -> np.ndarray:
        return self._d.astype(np.float64) / 2.0

    def max_abs_doubled(self) -> int:
        return int(np.abs(self._d).max()) if self._d.size else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, HalfIntMatrix):
            return NotImplemented
        return self._d.shape == other._d.shape and np.array_equal(self._d, other._d)

    def __hash__(self):
        raise TypeError("HalfIntMatrix is not hashable")

    def __repr__(self):
        return f"HalfIntMatrix({self.rows}x{self.cols}, doubled max |{self.max_abs_doubled()}|)"

    # -- exact operations ------------------------------------------------------

    def transpose(self) -> "HalfIntMatrix":
        return HalfIntMatrix(self._d.T)

    @property
    def T(self) -> "HalfIntMatrix":
        return self.transpose()

    def __neg__(self) -> "HalfIntMatrix":
        return HalfIntMatrix(-self._d)

    def __add__(self, other: "HalfIntMatrix") -> "HalfIntMatrix":
        self._check_same_shape(other)
        self._guard_add(other)
        return HalfIntMatrix(self._d + other._d)

    def __sub__(self, other: "HalfIntMatrix") -> "HalfIntMatrix":
        self._check_same_shape(other)
        self._guard_add(other)
        return HalfIntMatrix(self._d - other._d)

    def __matmul__(self, other: "HalfIntMatrix") -> "HalfIntMatrix":
        return mat_mul(self, other)

    def scale_by_int(self, k: int) -> "HalfIntMatrix":
        if abs(int(k)) * max(self.max_abs_doubled(), 1) >= _ACC_LIMIT:
            raise AccumulatorOverflow("scalar multiple exceeds accumulator range")
        return HalfIntMatrix(self._d * np.int64(k))

    def scale_half(self) -> "HalfIntMatrix":
        """Exact multiplication by 1/2; fails if any entry leaves (1/2)*Z."""
        if (self._d & 1).any():
            raise InexactDivision("division by 2 leaves the half-integer lattice")
        return HalfIntMatrix(self._d >> 1)

    def _check_same_shape(self, other):
        if self._d.shape != other._d.shape:
            raise DimensionMismatch(
                f"shape mismatch: {self._d.shape} vs {other._d.shape}"
            )

    def _guard_add(self, other):
        if self.max_abs_doubled() + other.max_abs_doubled() >= _ACC_LIMIT:
            raise AccumulatorOverflow("sum exceeds accumulator range")


def mat_mul(a: HalfIntMatrix, b: HalfIntMatrix) -> HalfIntMatrix:
    """Exact product.

    doubled(a) @ doubled(b) is 4x the true product, so the accumulated
    integer is divided by 2 to restore the doubled convention; the division
    must be exact, otherwise the true product has entries outside (1/2)*Z.
    """
    if a.cols != b.rows:
        raise DimensionMismatch(f"inner dimensions differ: {a.cols} vs {b.rows}")
    bound = a.cols * max(a.max_abs_doubled(), 1) * max(b.max_abs_doubled(), 1)
    if bound >= _ACC_LIMIT:
        raise AccumulatorOverflow(
            f"worst-case accumulator {bound} exceeds checked range"
        )
    prod = a.doubled @ b.doubled
    if (prod & 1).any():
        raise InexactDivision("product has entries outside (1/2)*Z")
    return HalfIntMatrix(prod >> 1)


def commutator(a: HalfIntMatrix, b: HalfIntMatrix) -> HalfIntMatrix:
    """Exact a@b - b@a for square matrices of equal size.

    Exactness is checked on the difference, not the two products: the
    commutator of half-integer matrices can be half-integer even when the
    individual products are not (entries in (1/4)*Z that cancel).
    """
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise DimensionMismatch("commutator requires square matrices of equal size")
    bound = 2 * a.cols * max(a.max_abs_doubled(), 1) * max(b.max_abs_doubled(), 1)
    if bound >= _ACC_LIMIT:
        raise AccumulatorOverflow(
            f"worst-case accumulator {bound} exceeds checked range"
        )
    diff = a.doubled @ b.doubled - b.doubled @ a.doubled
    if (diff & 1).any():
        raise InexactDivision("commutator has entries outside (1/2)*Z")
    return HalfIntMatrix(diff >> 1)


def trace_pairing(a: HalfIntMatrix, b: HalfIntMatrix) -> int:
    """Exact trace(a @ b), returned as a doubled integer."""
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise DimensionMismatch("trace pairing requires square matrices of equal size")
    bound = a.rows * a.cols * max(a.max_abs_doubled(), 1) * max(b.max_abs_doubled(), 1)
    if bound >= _ACC_LIMIT:
        raise AccumulatorOverflow("trace accumulator exceeds checked range")
    # trace(dA @ dB) = sum_ij dA[i,j] * dB[j,i]; 4x the true trace.
    t = int(np.einsum("ij,ji->", a.doubled, b.doubled, dtype=np.int64))
    if t & 1:
        raise InexactDivision("trace pairing outside (1/2)*Z")
    return t >> 1
