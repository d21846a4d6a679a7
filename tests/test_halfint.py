import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e8lie.halfint import (
    AccumulatorOverflow,
    DimensionMismatch,
    HalfIntMatrix,
    InexactDivision,
    commutator,
    mat_mul,
    trace_pairing,
)


def rand_int_matrix(rng, n, lo=-5, hi=5):
    return HalfIntMatrix.from_true_ints(rng.integers(lo, hi + 1, size=(n, n)))


def test_identity_times_a_is_a():
    rng = np.random.default_rng(0)
    a = rand_int_matrix(rng, 7)
    assert mat_mul(HalfIntMatrix.identity(7), a) == a
    assert mat_mul(a, HalfIntMatrix.identity(7)) == a


def test_half_diag_square_rejected():
    # diag(1/2, 1/2)^2 = diag(1/4, 1/4) is not representable
    h = HalfIntMatrix(np.eye(2, dtype=np.int64))  # doubled = I, true = 1/2 I
    with pytest.raises(InexactDivision):
        mat_mul(h, h)


def test_dimension_mismatch():
    a = HalfIntMatrix.zeros(2, 3)
    b = HalfIntMatrix.zeros(2, 3)
    with pytest.raises(DimensionMismatch):
        mat_mul(a, b)
    with pytest.raises(DimensionMismatch):
        commutator(a, a)


def test_commutator_trivial_cases():
    rng = np.random.default_rng(1)
    a = rand_int_matrix(rng, 6)
    zero = HalfIntMatrix.zeros(6, 6)
    assert commutator(a, a) == zero
    assert commutator(HalfIntMatrix.identity(6), a) == zero


def test_trace_pairing_identity():
    eye = HalfIntMatrix.identity(9)
    assert trace_pairing(eye, eye) == 18  # doubled value of 9


def test_trace_pairing_symmetric():
    rng = np.random.default_rng(2)
    a, b = rand_int_matrix(rng, 5), rand_int_matrix(rng, 5)
    assert trace_pairing(a, b) == trace_pairing(b, a)


def test_overflow_guard():
    big = HalfIntMatrix(np.full((4, 4), 2**33, dtype=np.int64))
    with pytest.raises(AccumulatorOverflow):
        mat_mul(big, big)


def test_scale_half_exactness():
    m = HalfIntMatrix.from_true_ints([[2, 4], [6, 8]])
    assert m.scale_half() == HalfIntMatrix.from_true_ints([[1, 2], [3, 4]])
    odd = HalfIntMatrix([[1, 0], [0, 1]])  # true entries 1/2
    with pytest.raises(InexactDivision):
        odd.scale_half()


def test_noninteger_doubled_rejected():
    with pytest.raises(InexactDivision):
        HalfIntMatrix(np.array([[0.5, 1.0], [1.0, 0.5]]))


@pytest.mark.parametrize(
    "doubled",
    [
        np.array([[-3, 127]], dtype=np.int8),
        np.array([[-3, 2**31 - 1]], dtype=np.int32),
        np.array([[True, False]]),
        np.array([[0, 2**63 - 1]], dtype=np.uint64),
        np.array([[-3.0, 2.0**62]]),
        np.array([[-(2**63), 2**63 - 1]], dtype=object),
        [[-(2**63), 2**63 - 1]],
    ],
)
def test_exact_entries_accepted(doubled):
    m = HalfIntMatrix(doubled)
    assert m.doubled.dtype == np.int64
    assert m.doubled.tolist() == np.asarray(doubled).astype(object).tolist()


@pytest.mark.parametrize(
    "doubled, error",
    [
        (np.array([[2**63]], dtype=np.uint64), AccumulatorOverflow),
        (np.array([[2**64 - 1]], dtype=np.uint64), AccumulatorOverflow),
        (np.array([[2**70]], dtype=object), AccumulatorOverflow),
        ([[-(2**63) - 1]], AccumulatorOverflow),
        (np.array([[2.0**63]]), AccumulatorOverflow),
        (np.array([[-np.inf]]), AccumulatorOverflow),
        (np.array([[np.nan]]), InexactDivision),
    ],
)
def test_entries_outside_int64_rejected(doubled, error):
    with pytest.raises(error):
        HalfIntMatrix(doubled)


def test_immutability():
    m = HalfIntMatrix.identity(3)
    with pytest.raises(ValueError):
        m.doubled[0, 0] = 5


small_mats = st.integers(min_value=-6, max_value=6)


@st.composite
def int_matrix_triples(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    def mat():
        return HalfIntMatrix.from_true_ints(
            np.array(
                draw(
                    st.lists(
                        st.lists(small_mats, min_size=n, max_size=n),
                        min_size=n,
                        max_size=n,
                    )
                ),
                dtype=np.int64,
            )
        )
    return mat(), mat(), mat()


@settings(max_examples=60, deadline=None)
@given(int_matrix_triples())
def test_associativity_exact(triple):
    a, b, c = triple
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


@settings(max_examples=60, deadline=None)
@given(int_matrix_triples())
def test_commutator_antisymmetry(triple):
    a, b, _ = triple
    assert commutator(a, b) == -commutator(b, a)
