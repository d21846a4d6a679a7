import time
from types import SimpleNamespace

from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse as sp

from e8lie import algebra as alg
from e8lie.algebra import (
    DIM,
    AdjointRep,
    StructureTensor,
    adjoint_rank,
    centralizer_dimension,
    find_cartan,
    killing_form,
    no_ninth_commuting_spinor,
    spinor_flat,
    vector_flat,
    verify_defining_relations,
    verify_jacobi,
)
from e8lie.halfint import HalfIntMatrix, commutator, trace_pairing

# frozen regression constants, computed once from the constructed generators
KILLING_DIAGONAL_TRUE = -60
TRACE_PAIRING_ADJ12_DOUBLED = -120
GREEDY_CARTAN_ALPHAS = (1, 10, 19, 28, 37, 46, 55, 64)
DISPLAY_SPINOR_FACTOR = -4


def _ad_matrix(rep, flat):
    """ad(basis_flat) as a dense doubled half-integer matrix."""
    return HalfIntMatrix(np.asarray(rep.mats[flat].todense(), dtype=np.int64))


# ---------------------------------------------------------------------------
# basis indexing

def test_flat_index_bijection():
    seen = set()
    for i in range(1, 17):
        for j in range(i + 1, 17):
            f = vector_flat(i, j)
            assert alg.flat_label(f) == f"J({i},{j})"
            seen.add(f)
    for a in range(1, 129):
        f = spinor_flat(a)
        assert alg.flat_label(f) == f"Q({a})"
        seen.add(f)
    assert seen == set(range(248))
    with pytest.raises(ValueError):
        spinor_flat(129)


# ---------------------------------------------------------------------------
# structure tensor

def test_bracket_j12_j23(tensor):
    cs, vs = tensor.bracket_basis(vector_flat(1, 2), vector_flat(2, 3))
    assert cs.tolist() == [vector_flat(1, 3)]
    assert vs.tolist() == [2]  # doubled coefficient of +1


def test_bracket_disjoint_vectors_empty(tensor):
    cs, vs = tensor.bracket_basis(vector_flat(1, 2), vector_flat(3, 4))
    assert len(cs) == 0


def test_bracket_q1_q2_frozen(tensor):
    cs, vs = tensor.bracket_basis(spinor_flat(1), spinor_flat(2))
    got = {alg.flat_label(c): int(v) for c, v in zip(cs, vs)}
    assert got == {"J(9,16)": 1, "J(10,12)": -1, "J(11,15)": -1, "J(13,14)": -1}


def test_spinor_bracket_matches_delta_entries(tensor, spinors):
    # coeff of J_ij in [Q_a, Q_b] equals -(Delta_ij)_{a,b}, read off the
    # constructed matrices; includes the (1,2) entry of Delta_12 (here zero)
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = sorted(rng.choice(128, size=2, replace=False) + 1)
        cs, vs = tensor.bracket_basis(spinor_flat(int(a)), spinor_flat(int(b)))
        got = dict(zip(cs.tolist(), vs.tolist()))
        for k, pair in enumerate(alg.VECTOR_PAIRS):
            expected = -int(spinors.delta[pair].doubled[a - 1, b - 1])
            assert got.get(k, 0) == expected
    assert int(spinors.delta[(1, 2)].doubled[0, 1]) == 0


def test_mixed_bracket_matches_delta_column(tensor, spinors):
    # coeff of Q_b in [J_ij, Q_a] is (Delta_ij)_{b,a}
    d = spinors.delta[(2, 5)].doubled
    a = 17
    cs, vs = tensor.bracket_basis(vector_flat(2, 5), spinor_flat(a))
    assert len(cs) == 1
    b = int(cs[0]) - 120
    assert int(vs[0]) == int(d[b, a - 1])


def test_bracket_table_is_sorted_upper_and_nonzero(tensor):
    a, b, c, v = tensor.a, tensor.b, tensor.c, tensor.v
    assert len(a) == len(b) == len(c) == len(v) == 24720
    assert all(x.dtype == np.int64 and not x.flags.writeable for x in (a, b, c, v))
    assert (a < b).all()
    assert (v != 0).all()
    # strictly increasing (a, b, c): sorted, and no triple is stored twice
    assert (np.diff((a * 248 + b) * 248 + c) > 0).all()
    assert len(np.unique(a * 248 + b)) == 22032


# ---------------------------------------------------------------------------
# abstract bracket

@dataclass(frozen=True)
class AlgebraElement:
    """Coefficient vector over the 248-element basis, stored doubled."""

    coeffs: np.ndarray  # int64, doubled

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.int64)
        if c.shape != (DIM,):
            raise ValueError("algebra element must have 248 coefficients")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def basis(cls, flat: int) -> "AlgebraElement":
        c = np.zeros(DIM, dtype=np.int64)
        c[flat] = 2
        return cls(c)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return np.array_equal(self.coeffs, other.coeffs)

    def __neg__(self):
        return AlgebraElement(-self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs.any()


def abstract_bracket(x: AlgebraElement, y: AlgebraElement, t: StructureTensor) -> AlgebraElement:
    """Exact bilinear bracket of coefficient vectors.

    Raises if the result leaves the half-integer lattice (doubled integer
    accumulation must be divisible by 4), mirroring the doubled-storage
    closure rule of the matrix kernel, and raises OverflowError where the
    int64 accumulation might not be exact.
    """
    xc, yc = x.coeffs, y.coeffs
    terms = int(np.bincount(t.c).max())  # most entries with one target
    if 2 * int(np.abs(xc).max()) * int(np.abs(yc).max()) * int(np.abs(t.v).max()) * terms >= 2**63:
        raise OverflowError("bracket coefficients too large for exact int64 accumulation")
    acc = np.zeros(DIM, dtype=np.int64)
    np.add.at(acc, t.c, (xc[t.a] * yc[t.b] - xc[t.b] * yc[t.a]) * t.v)
    if (acc & 3).any():
        raise ValueError("bracket result has coefficients outside (1/2)*Z")
    return AlgebraElement(acc >> 2)


def test_abstract_bracket_self_is_zero(tensor):
    rng = np.random.default_rng(6)
    x = AlgebraElement(2 * rng.integers(-3, 4, size=248))
    assert abstract_bracket(x, x, tensor).is_zero()


def test_abstract_bracket_basis_case(tensor):
    x = AlgebraElement.basis(vector_flat(1, 2))
    y = AlgebraElement.basis(vector_flat(2, 3))
    assert abstract_bracket(x, y, tensor) == AlgebraElement.basis(vector_flat(1, 3))


def test_abstract_bracket_antisymmetry(tensor):
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = AlgebraElement(2 * rng.integers(-3, 4, size=248))
        y = AlgebraElement(2 * rng.integers(-3, 4, size=248))
        assert abstract_bracket(x, y, tensor) == -abstract_bracket(y, x, tensor)


def test_abstract_bracket_inexact_rejected(tensor):
    # (1/2)Q_1 with (1/2)Q_2 produces 1/8-coefficients, outside (1/2)Z
    c1 = np.zeros(248, dtype=np.int64)
    c1[spinor_flat(1)] = 1
    c2 = np.zeros(248, dtype=np.int64)
    c2[spinor_flat(2)] = 1
    with pytest.raises(ValueError):
        abstract_bracket(AlgebraElement(c1), AlgebraElement(c2), tensor)


def test_abstract_bracket_matches_pair_loop(tensor):
    # reference: a plain loop over every unordered basis pair
    rng = np.random.default_rng(11)
    x, y = (2 * rng.integers(-3, 4, size=248) for _ in range(2))
    acc = np.zeros(248, dtype=np.int64)
    for a in range(248):
        for b in range(a + 1, 248):
            cs, vs = tensor.bracket_basis(a, b)
            acc[cs] += (int(x[a]) * int(y[b]) - int(x[b]) * int(y[a])) * vs
    got = abstract_bracket(AlgebraElement(x), AlgebraElement(y), tensor)
    assert got == AlgebraElement(acc >> 2)


def test_abstract_bracket_refuses_int64_overflow(tensor):
    x = AlgebraElement(np.full(248, 2**40, dtype=np.int64))
    y = AlgebraElement(np.arange(248, dtype=np.int64) * 2**32)
    with pytest.raises(OverflowError):
        abstract_bracket(x, y, tensor)


# ---------------------------------------------------------------------------
# adjoint representation

def test_adjoint_spinor_block_is_delta(rep, spinors):
    m = np.asarray(rep.mats[vector_flat(1, 2)].todense(), dtype=np.int64)
    assert np.array_equal(m[120:, 120:], spinors.delta[(1, 2)].doubled)
    assert not m[:120, 120:].any() and not m[120:, :120].any()


def test_adjoint_vector_block_constants(rep):
    # spot check [J_12, J_23] = J_13 and [J_12, J_13] = -J_23 in the block
    m = np.asarray(rep.mats[vector_flat(1, 2)].todense(), dtype=np.int64)
    col = m[:120, vector_flat(2, 3)]
    expect = np.zeros(120, dtype=np.int64)
    expect[vector_flat(1, 3)] = 2
    assert np.array_equal(col, expect)
    col = m[:120, vector_flat(1, 3)]
    expect = np.zeros(120, dtype=np.int64)
    expect[vector_flat(2, 3)] = -2
    assert np.array_equal(col, expect)


def test_adjoint_homomorphism_sampled(rep, tensor):
    rng = np.random.default_rng(8)
    for _ in range(1000):
        a, b = int(rng.integers(248)), int(rng.integers(248))
        lhs = rep.mats[a] @ rep.mats[b] - rep.mats[b] @ rep.mats[a]
        cs, vs = tensor.bracket_basis(a, b)
        rhs = sp.csr_matrix((248, 248), dtype=np.int64)
        for c, v in zip(cs, vs):
            rhs = rhs + rep.mats[c] * int(v)
        assert (lhs - rhs).nnz == 0


def test_adjoint_matches_dense_oracle(rep, spinors):
    # every ad matrix rebuilt by plain loops over the bracket rules of the
    # README, with the dense Delta_ij; doubled storage throughout
    delta = [spinors.delta[pair].doubled for pair in alg.VECTOR_PAIRS]
    for a, (i, j) in enumerate(alg.VECTOR_PAIRS):
        want = np.zeros((248, 248), dtype=np.int64)
        # [J_ij, J_kl] = d_jk J_il - d_jl J_ik - d_ik J_jl + d_il J_jk, J_qp = -J_pq
        for b, (k, l) in enumerate(alg.VECTOR_PAIRS):
            for hit, p, q, sign in ((j == k, i, l, 1), (j == l, i, k, -1),
                                    (i == k, j, l, -1), (i == l, j, k, 1)):
                if hit and p < q:
                    want[vector_flat(p, q), b] += 2 * sign
                elif hit and p > q:
                    want[vector_flat(q, p), b] -= 2 * sign
        # [J_ij, Q_a] = sum_b (Delta_ij)_{b,a} Q_b
        want[120:, 120:] = delta[a]
        got = rep.mats[a]
        assert got.dtype == np.int64 and np.array_equal(got.toarray(), want)
    for alpha in range(128):
        want = np.zeros((248, 248), dtype=np.int64)
        for k in range(120):
            # [Q_a, J_k] = -[J_k, Q_a] and [Q_a, Q_b] = -sum_k (Delta_k)_{a,b} J_k
            want[120:, k] = -delta[k][:, alpha]
            want[k, 120:] = -delta[k][alpha, :]
        got = rep.mats[120 + alpha]
        assert got.dtype == np.int64 and np.array_equal(got.toarray(), want)


def test_adjoint_matrices_are_antisymmetric(rep):
    for a in range(0, 248, 13):
        m = rep.mats[a]
        assert (m + m.T).nnz == 0


# ---------------------------------------------------------------------------
# display-normalization blocks

def build_display_blocks(t):
    """The 248 block matrices in the display normalization (doubled CSR).

    The vector blocks are block-diagonal (so(16) constants and Delta_ij);
    the spinor blocks are block-off-diagonal with entries +4 Delta on the
    (vector-row, spinor-column) side and -4 Delta on the other, read
    row-first as displayed.  display_block_relation measures the exact
    factor against the canonical adjoint.
    """
    # vector blocks: identical content to the canonical ad(J_ij)
    out = AdjointRep.build(t).mats[:alg.NV]
    # spinor blocks with the explicit factor 4 and minus sign: in the block
    # of Q_alpha, entry (vector-row k, spinor-col beta) is
    # 4 * (Delta_k)_{alpha, beta} and (spinor-row beta, vector-col k) its negative
    k = np.arange(alg.NV)
    return out + [
        sp.csr_matrix((np.r_[4 * s, -4 * s], (np.r_[k, b], np.r_[b, k])), shape=(DIM, DIM))
        for b, s in zip(alg.NV + t.pi.T, t.sg.T)
    ]


def display_block_relation(rep, blocks):
    """Compare display blocks with the canonical adjoint.

    Returns (vector_blocks_equal, spinor_factor) where spinor_factor is the
    exact uniform integer with blocks[Q] == factor * ad(Q); raises if no
    uniform factor exists.
    """
    vec_equal = all((blocks[a] - rep.mats[a]).nnz == 0 for a in range(alg.NV))
    factor = None
    for a in range(alg.NV, DIM):
        ad = rep.mats[a]
        bl = blocks[a]
        if factor is None:
            ad_coo = ad.tocoo()
            if ad_coo.nnz == 0:
                continue
            i, j = ad_coo.row[0], ad_coo.col[0]
            num = bl[i, j]
            den = ad_coo.data[0]
            if num % den:
                raise ValueError("display blocks are not an integer multiple of ad")
            factor = int(num // den)
        if (bl - ad * factor).nnz != 0:
            raise ValueError(f"display block {alg.flat_label(a)} violates the uniform factor")
    return vec_equal, factor


def test_display_blocks_relation(rep, tensor):
    blocks = build_display_blocks(tensor)
    vec_equal, factor = display_block_relation(rep, blocks)
    assert vec_equal
    assert factor == DISPLAY_SPINOR_FACTOR


def test_display_blocks_traceless(tensor):
    blocks = build_display_blocks(tensor)
    assert all(int(b.diagonal().sum()) == 0 for b in blocks)


def test_dense_adjoint_matches_sparse(rep):
    # the table-filled dense ad against the CSR list, for every basis element
    for f in range(248):
        d = rep.dense(f)
        assert d.dtype == np.int64
        assert np.array_equal(d, rep.mats[f].toarray()), alg.flat_label(f)


def test_display_blocks_fail_spinor_closure(rep, tensor):
    # fed as a representation, the display normalization closes on the
    # vector and mixed strata but breaks the spinor-spinor one
    fake = AdjointRep(build_display_blocks(tensor))
    vv, vs, ss = verify_defining_relations(fake, tensor)
    assert vv.passed and vs.passed
    assert not ss.passed and ss.failures > 0


# ---------------------------------------------------------------------------
# verification suites

def test_defining_relations_pass(rep, tensor):
    for r in verify_defining_relations(rep, tensor):
        assert r.passed, r.to_dict()


def _corrupted_mats(rep):
    """Copies of the adjoint matrices with entry (5, 200) of ad(J(1,2))
    raised by 1, +1/2 in true units."""
    mats = [m.copy() for m in rep.mats]
    bad = mats[vector_flat(1, 2)].tolil()
    bad[5, 200] += 1
    mats[vector_flat(1, 2)] = bad.tocsr()
    return mats


def test_fault_injection_corrupted_entry(rep, tensor):
    broken = AdjointRep(_corrupted_mats(rep))
    reports = verify_defining_relations(broken, tensor)
    assert any(not r.passed for r in reports)
    first_bad = next(r for r in reports if not r.passed)
    assert "J(1,2)" in first_bad.first_counterexample


def _with_coeffs(t, v):
    """The tensor t with its stored coefficients replaced by v."""
    return StructureTensor(t.a, t.b, t.c, v, t.pi, t.sg)


def _certify_reports(r, t):
    """The report dicts of the engine calls the certify benchmark makes, in
    its order: each relation stratum alone, then verify_jacobi."""
    out = [x for s in alg.ALL_RELATION_STRATA for x in verify_defining_relations(r, t, strata=(s,))]
    out += verify_jacobi(r, t, samples=100, seed=0, full_spinor=True)
    return [x.to_dict() for x in out]


def _flipped(t, *pairs):
    """t with the first stored coefficient of each [basis_a, basis_b] negated."""
    v = t.v.copy()
    for a, b in pairs:
        v[np.flatnonzero((t.a == a) & (t.b == b))[0]] *= -1
    return _with_coeffs(t, v)


def test_relations_fault_injection_flipped_vector_spinor_coeff(rep, tensor):
    # one stored coefficient of [J(2,5), Q(17)] flips sign: only that pair of
    # the vector-spinor stratum fails, and it is named
    v = tensor.v.copy()
    v[(tensor.a == vector_flat(2, 5)) & (tensor.b == spinor_flat(17))] *= -1
    vv, vs, ss = verify_defining_relations(rep, _with_coeffs(tensor, v))
    assert vv.passed and ss.passed
    assert vs.failures == 1
    assert vs.first_counterexample == "[J(2,5), Q(17)]"


def _full_width_pair_failures(mats, structure, rows) -> np.ndarray:
    """The pair engine without windows or folding, as the oracle of the
    windowed one: each row a checks every b, with kron(I, M_a) @ X - X @ M_a
    stacking the commutators (X the vertical stack of the M_b) and
    T_a^T @ V, V the rows vec(M_c), stacking the right-hand sides."""
    n, d = len(mats), mats[0].shape[0]
    x = sp.vstack(mats, format="csr")
    v = x.reshape(n, d * d).tocsr()
    eye = sp.identity(n, dtype=np.int64, format="csr")
    mask = np.zeros((len(rows), n), dtype=bool)
    for i, a in enumerate(rows):
        m = mats[a]
        rhs = (structure[a * n:(a + 1) * n].T @ v).reshape(x.shape)
        diff = (sp.kron(eye, m, format="csr") @ x - x @ m - rhs).tocoo()
        mask[i, diff.row[diff.data != 0] // d] = True
    return mask


@pytest.mark.parametrize("a, b", [
    (vector_flat(1, 2), spinor_flat(1)),      # vector-spinor, first b of the window
    (vector_flat(1, 2), spinor_flat(128)),    # vector-spinor, last b of the window
    (vector_flat(1, 15), vector_flat(15, 16)),  # vector-vector, last b of the window
    (spinor_flat(1), spinor_flat(2)),         # spinor-spinor, first b > a
    (spinor_flat(2), spinor_flat(128)),       # spinor-spinor, last b
    (vector_flat(15, 16), spinor_flat(1)),    # Jacobi JQ*, first b of the last vector row
], ids=alg.flat_label)
def test_windowed_engine_matches_full_width_oracle(rep, tensor, monkeypatch, a, b):
    # one stored coefficient of [basis_a, basis_b] flips sign, at a window
    # edge of the calls the certify benchmark makes: every report equals
    # the one built through the full-width engine
    t = _flipped(tensor, (a, b))
    got = _certify_reports(rep, t)
    cache = {}

    def oracle(mats, structure, rows, lo, hi):
        # every call reads rep.mats and the table of t, so each row is
        # computed once at full width
        new = [r for r in rows if r not in cache]
        if new:
            cache.update(zip(new, _full_width_pair_failures(mats, structure, new)))
        return np.array([cache[r] for r in rows])

    monkeypatch.setattr(alg, "_pair_failures", oracle)
    # a fresh rep starts with an empty pair table, so the oracle runs
    assert got == _certify_reports(AdjointRep(rep.mats), t)
    assert sorted(cache) == list(range(247))  # every row with some b > a
    assert not all(d["passed"] for d in got)


def test_pair_table_serves_warm_calls_in_either_order(rep, tensor):
    # one fault in each relation stratum; every call on a rep whose pair
    # table is warm reports what a call on a fresh rep does
    ss = spinor_flat(5), int(tensor.b[np.argmax(tensor.a == spinor_flat(5))])
    t = _flipped(tensor, (vector_flat(2, 5), vector_flat(5, 9)), (vector_flat(3, 4), spinor_flat(7)), ss)

    def relations(r):
        return [x.to_dict() for x in verify_defining_relations(r, t)]

    def jacobi(r):
        return [x.to_dict() for x in verify_jacobi(r, t, samples=100, seed=0, full_spinor=True)]

    cold = {f: f(AdjointRep(rep.mats)) for f in (relations, jacobi)}
    assert not any(d["passed"] for d in cold[relations])
    assert not all(d["passed"] for d in cold[jacobi])
    for order in ((relations, jacobi), (jacobi, relations)):
        r = AdjointRep(rep.mats)
        for f in order + order:  # cold, then warm
            assert f(r) == cold[f], f.__name__


def test_pair_table_is_kept_per_table_and_rep(rep, tensor):
    # after a clean run on the session rep and tensor, an edited tensor and
    # a new rep with one corrupted entry name the first bad pair as fresh
    # objects do
    assert all(x.passed for x in verify_defining_relations(rep, tensor))
    assert all(x.passed for x in verify_jacobi(rep, tensor, samples=100, seed=0))
    t = _flipped(tensor, (vector_flat(2, 5), spinor_flat(17)))
    edited = _certify_reports(rep, t)
    assert edited == _certify_reports(AdjointRep(rep.mats), t)
    assert edited[1]["first_counterexample"] == "[J(2,5), Q(17)]"
    assert edited[4]["first_counterexample"] == "pair (J(2,5), Q(17))"

    mats = _corrupted_mats(rep)
    broken = _certify_reports(AdjointRep(mats), tensor)
    assert broken == _certify_reports(AdjointRep(mats), _with_coeffs(tensor, tensor.v))
    assert broken[0]["first_counterexample"] == "[J(1,2), J(1,3)]"
    assert broken[3]["first_counterexample"] == "pair (J(1,2), J(1,3))"


def test_certify_calls_compute_each_pair_once(rep, tensor, monkeypatch):
    # over the certify call sequence the engine computes every pair b > a
    # that some stratum reads exactly once, and no pair b <= a
    count = np.zeros((DIM, DIM), dtype=np.int64)
    engine = alg._pair_failures

    def counted(mats, structure, rows, lo, hi):
        for a, b0, b1 in zip(rows, lo, hi):
            count[a, b0:b1] += 1
        return engine(mats, structure, rows, lo, hi)

    monkeypatch.setattr(alg, "_pair_failures", counted)
    assert all(d["passed"] for d in _certify_reports(AdjointRep(rep.mats), tensor))
    assert count.max() == 1
    assert not np.tril(count).any()
    assert count.sum() == 120 * 119 // 2 + 120 * 128 + 128 * 127 // 2


def test_pair_suites_rejects_a_structure_that_is_not_antisymmetric(rep, tensor):
    # J(1,2) has no J(1,2) term in [J(1,2), J(1,3)], nor in [J(1,3), J(1,2)]:
    # one entry there has no mirror, and b < a could not be read off b > a
    structure = alg._ad_stack(tensor) + sp.csr_matrix(([2], ([0], [1])), shape=(DIM * DIM, DIM))
    with pytest.raises(ValueError, match="antisymmetric"):
        alg._pair_suites(rep.mats, structure, [("vector-vector", alg._RELATION_STRATA["vector-vector"])],
                         str, np.zeros((2, DIM, DIM), dtype=bool))


def test_warm_jacobi_reports_positive_elapsed(rep, tensor):
    # the pair strata served from the pair table report the wall time of
    # their call, which the benchmark divides by
    verify_defining_relations(rep, tensor)
    for r in verify_jacobi(rep, tensor, samples=100, seed=0, full_spinor=True):
        assert r.elapsed_s > 0, r.name


def test_jacobi_passes(rep, tensor):
    for r in verify_jacobi(rep, tensor, samples=2000, seed=0):
        assert r.passed, r.to_dict()


def test_uniformly_doubled_spinor_coeffs_fail_relations(rep, tensor):
    # doubling the whole spinor-spinor stratum is the normalization freedom
    # of the construction (still a Lie algebra), so Jacobi cannot see it;
    # the defining relations against the canonical adjoint do
    v = tensor.v.copy()
    v[tensor.a >= 120] *= 2
    t = _with_coeffs(tensor, v)
    vv, vs_, ss = verify_defining_relations(rep, t)
    assert vv.passed and vs_.passed
    assert not ss.passed
    rep2 = AdjointRep.build(t)
    for r in verify_jacobi(rep2, t, samples=500, seed=0):
        assert r.passed  # consistent rescaled algebra


def test_jacobi_fault_injection_nonuniform_spinor_coeffs(tensor):
    # a non-uniform corruption (double only the first coefficient of each
    # stored spinor-spinor bracket) genuinely breaks the Jacobi identity
    first = np.r_[True, np.diff(tensor.a * 248 + tensor.b) != 0]
    v = tensor.v.copy()
    v[first & (tensor.a >= 120)] *= 2
    t = _with_coeffs(tensor, v)
    reports = verify_jacobi(AdjointRep.build(t), t, samples=500, seed=0)
    sampled = next(r for r in reports if r.name == "jacobi-QQQ-sampled")
    assert not sampled.passed
    assert sampled.first_counterexample is not None
    # the report equals a direct evaluation of the same seeded triples
    triples = np.random.default_rng(0).integers(0, 128, size=(500, 3))
    bad = [tr for tr in triples if _qqq_cyclic_sum(t, *(int(v) for v in tr)).any()]
    assert sampled.failures == len(bad)
    assert sampled.first_counterexample == "triple (Q(%d), Q(%d), Q(%d))" % tuple(bad[0] + 1)


def _qqq_cyclic_sum(t, x, y, z):
    """4x the true [[Q_x, Q_y], Q_z] + cyclic, from the stored brackets."""
    acc = np.zeros(248, dtype=np.int64)
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        ks, vs = t.bracket_basis(120 + a, 120 + b)
        for k, v in zip(ks, vs):
            ds, ws = t.bracket_basis(int(k), 120 + c)
            acc[ds] += v * ws
    return acc


def test_jacobi_pairs_fault_injection_corrupted_entry(rep, tensor):
    reports = verify_jacobi(AdjointRep(_corrupted_mats(rep)), tensor, samples=10, seed=0)
    jj = next(r for r in reports if r.name == "jacobi-JJ*-pairs")
    assert not jj.passed
    assert jj.first_counterexample == "pair (J(1,2), J(1,3))"


def test_rep_takes_matrices_or_a_table_not_both(rep, tensor):
    # the scan path trusts a rep with rep.t is t to be ad(t); only build(t)
    # may tie a rep to a table
    with pytest.raises(ValueError, match="not both"):
        AdjointRep(rep.mats, tensor)


def _faulted(t, fault):
    """t with one fault: a flipped coefficient in one relation stratum, or
    the spinor-spinor coefficients doubled, all of them (still a Lie
    algebra) or only the first of each bracket (not one)."""
    if fault == "vector-vector":
        return _flipped(t, (vector_flat(2, 5), vector_flat(5, 9)))
    if fault == "vector-spinor":
        return _flipped(t, (vector_flat(3, 4), spinor_flat(7)))
    if fault == "spinor-spinor":
        return _flipped(t, (spinor_flat(5), int(t.b[np.argmax(t.a == spinor_flat(5))])))
    first = np.r_[True, np.diff(t.a * DIM + t.b) != 0] | (fault == "uniform-doubling")
    return _with_coeffs(t, np.where(first & (t.a >= 120), 2 * t.v, t.v))


@pytest.mark.parametrize("fault", ["vector-vector", "vector-spinor", "spinor-spinor",
                                   "nonuniform-doubling", "uniform-doubling"])
def test_scan_path_matches_engine_path(tensor, fault):
    # a rep built from the table reads every pair stratum off the table's
    # Jacobi scan; the same matrices without the table run the engine: the
    # reports and the pair grids are equal
    t = _faulted(tensor, fault)
    own = AdjointRep.build(t)
    engine = AdjointRep(AdjointRep.build(t).mats)
    got = _certify_reports(own, t)
    assert got == _certify_reports(engine, t)
    done, fail = engine.pair_table(t)
    assert done[np.triu_indices(DIM, 1)].all()
    assert np.array_equal(fail | fail.T, t.jacobi_failures[0])
    assert not own.pair_table(t).any()  # the engine never ran on the own rep
    assert all(d["passed"] for d in got) == (fault == "uniform-doubling")


def test_certify_calls_on_a_built_rep_scan_once(tensor, monkeypatch):
    # the certify call sequence on AdjointRep.build(t) runs the table's scan
    # once and the pair engine never; a copy of the session table starts
    # without a cached scan
    t = _with_coeffs(tensor, tensor.v)
    calls = {"engine": 0, "scan": 0}
    engine, scan = alg._pair_failures, alg._jacobi_scan

    def counted_engine(*args):
        calls["engine"] += 1
        return engine(*args)

    def counted_scan(*args):
        calls["scan"] += 1
        return scan(*args)

    monkeypatch.setattr(alg, "_pair_failures", counted_engine)
    monkeypatch.setattr(alg, "_jacobi_scan", counted_scan)
    for _ in range(2):
        assert all(d["passed"] for d in _certify_reports(AdjointRep.build(t), t))
    assert calls == {"engine": 0, "scan": 1}


def _qqq_scan_oracle(t):
    """The per-alpha QQQ scan, from the structure of the table: fail[al, be, g]
    (al < be) marks a nonzero cyclic sum of [[Q_al, Q_be], Q_g].  For each al
    the terms of every (be > al, g, d) go into one sparse matrix with row
    be*128 + g and column d, which sums them exactly."""
    nv, ns = alg.NV, alg.NS
    jq = (t.a < nv) & (t.b >= nv)
    tb = t.c[jq].reshape(nv, ns) - nv  # [J_k, Q_a] target spinor
    tv = t.v[jq].reshape(nv, ns)  # and its doubled coefficient
    qq = t.a >= nv
    p, q, k, v = t.a[qq] - nv, t.b[qq] - nv, t.c[qq], t.v[qq]
    gk = np.zeros((ns, nv), dtype=np.int64)  # partner of a in [Q_a, .] for J_k
    fk = np.zeros((ns, nv), dtype=np.int64)  # and the stored doubled coefficient
    gk[p, k], fk[p, k] = q, v
    gk[q, k], fk[q, k] = p, -v
    fail = np.zeros((ns, ns, ns), dtype=bool)
    ar = np.arange(ns)
    for al in range(ns):
        be = np.arange(al + 1, ns)
        own = p == al
        terms = (
            # [[Q_al, Q_be], Q_g]_d = sum_k v_k [J_k, Q_g]_d over the stored (al, be, k, v)
            (q[own, None] * ns + ar, tb[k[own]], v[own, None] * tv[k[own]]),
            # [[Q_be, Q_g], Q_al]: nonzero at g = gk[be, k]
            (be[:, None] * ns + gk[be], np.broadcast_to(tb[:, al], (len(be), nv)),
             fk[be] * tv[:, al]),
            # [[Q_g, Q_al], Q_be]: nonzero at g = gk[al, k], coeff -fk[al, k]
            (be[:, None] * ns + gk[al], tb[:, be].T, -fk[al] * tv[:, be].T),
        )
        rows, cols, vals = (np.concatenate([x.ravel() for x in xs]) for xs in zip(*terms))
        tot = sp.csr_matrix((vals, (rows, cols)), shape=(ns * ns, ns))
        tot.sum_duplicates()
        tot.eliminate_zeros()
        fail[al] = np.diff(tot.indptr).reshape(ns, ns) > 0
    return fail


@pytest.mark.parametrize("fault", [None, "nonuniform-doubling", "spinor-spinor"])
def test_spinor_cube_matches_per_alpha_oracle(tensor, fault):
    t = tensor if fault is None else _faulted(tensor, fault)
    cube = t.jacobi_failures[1]
    assert np.array_equal(cube, _qqq_scan_oracle(t))
    assert cube.any() == (fault is not None)


def test_scan_time_counts_in_the_call_that_runs_it(rep, tensor, monkeypatch):
    # every report of the call that runs the scan includes its time, whichever
    # suite runs first and whichever path the pair strata take
    scan = alg._jacobi_scan

    def slow_scan(t):
        time.sleep(0.05)
        return scan(t)

    monkeypatch.setattr(alg, "_jacobi_scan", slow_scan)
    calls = (
        lambda r, t: verify_defining_relations(r, t, strata=("vector-vector",)),
        lambda r, t: verify_jacobi(r, t, samples=100, seed=0, full_spinor=True),
    )
    for first, make in ((0, AdjointRep.build), (1, AdjointRep.build), (1, lambda t: AdjointRep(rep.mats))):
        t = _with_coeffs(tensor, tensor.v)
        for r in calls[first](make(t), t):
            assert r.elapsed_s >= 0.05, r.name


def _so16_fault(tensor, fault):
    """(pi, sg) of the doubled Delta with one fault injected, and the first
    pair that fault breaks."""
    pi, sg = tensor.pi.copy(), tensor.sg.copy()
    k = vector_flat(3, 7)
    if fault == "sign-flip":
        sg[k, 5] *= -1  # one sign of Delta(3,7)
    elif fault == "perm-swap":
        pi[k, [5, 6]] = pi[k, [6, 5]]
    elif fault == "zero-sign":
        sg[k, 5] = 0
    elif fault == "sign-2":
        sg[k, 5] = 2
    elif fault == "duplicated-column":
        pi[k, 6] = pi[k, 5]
    elif fault == "last-pair-flip":
        sg[vector_flat(15, 16), 5] *= -1  # one sign of the last pair
        return pi, sg, "[Delta(1,2), Delta(15,16)]"
    elif fault == "copied-generator":
        # Delta(1,3) := Delta(1,2), which commutes with Delta(1,2) where the
        # rule asks for Delta(2,3): a row fails only in the right-hand side
        pi[vector_flat(1, 3)], sg[vector_flat(1, 3)] = pi[0], sg[0]
        return pi, sg, "[Delta(1,2), Delta(1,3)]"
    else:
        # Delta(3,4) keeps row 0 alone, moved to column 1, and Delta(1,2)
        # loses row 1: Delta(3,4) Delta(1,2) vanishes while Delta(1,2)
        # Delta(3,4) keeps one entry, in a column where the other product
        # and the right-hand side have none
        b = vector_flat(3, 4)
        sg[b, 1:] = 0
        pi[b, 0] = 1
        sg[0, 1] = 0
        return pi, sg, "[Delta(1,2), Delta(1,3)]"
    return pi, sg, "[Delta(1,2), Delta(3,7)]"


def _sparse_so16_report(pi, sg):
    """The family check through the sparse pair engine, as CSR generators."""
    target, coeff = alg._so16_structure()
    a, b = np.nonzero(coeff)
    structure = sp.csr_matrix((coeff[a, b], (a * 120 + target[a, b], b)), shape=(120 * 120, 120))
    mats = [sp.csr_matrix((sg[k], (np.arange(128), pi[k])), shape=(128, 128)) for k in range(120)]
    (report,) = alg._pair_suites(
        mats, structure, [("so16-spinor-rep", alg._RELATION_STRATA["vector-vector"])],
        lambda a, b: "[Delta(%d,%d), Delta(%d,%d)]" % (*alg.VECTOR_PAIRS[a], *alg.VECTOR_PAIRS[b]),
        np.zeros((2, 120, 120), dtype=bool),
    )
    return report


@pytest.mark.parametrize("fault", ["sign-flip", "perm-swap", "zero-sign", "sign-2",
                                   "duplicated-column", "last-pair-flip", "copied-generator", "lone-product"])
def test_so16_fault_injection_names_first_bad_pair(tensor, fault):
    pi, sg, expected = _so16_fault(tensor, fault)
    report = alg.verify_so16_on_spinors(
        StructureTensor(tensor.a, tensor.b, tensor.c, tensor.v, pi, sg)
    )
    assert not report.passed
    # dense oracle on the doubled generators, in flat-index pair order
    dense = np.zeros((120, 128, 128), dtype=np.int64)
    for c in range(120):
        dense[c, np.arange(128), pi[c]] = sg[c]
    first = None
    for a, b in ((a, b) for a in range(120) for b in range(120)):
        cs, vs = tensor.bracket_basis(a, b)
        rhs = np.einsum("c,cij->ij", vs, dense[cs])
        if not np.array_equal(dense[a] @ dense[b] - dense[b] @ dense[a], rhs):
            first = "[Delta(%d,%d), Delta(%d,%d)]" % (*alg.VECTOR_PAIRS[a], *alg.VECTOR_PAIRS[b])
            break
    assert report.first_counterexample == first == expected
    assert report.to_dict() == _sparse_so16_report(pi, sg).to_dict()


# ---------------------------------------------------------------------------
# killing form

def test_killing_form_frozen(rep):
    k = killing_form(rep)
    d = k.doubled
    assert np.array_equal(
        d, 2 * KILLING_DIAGONAL_TRUE * np.eye(248, dtype=np.int64)
    )


def test_trace_pairing_adjoint_frozen(rep):
    m = _ad_matrix(rep, vector_flat(1, 2))
    v = trace_pairing(m, m)
    assert v == TRACE_PAIRING_ADJ12_DOUBLED
    assert v < 0


def test_killing_ad_invariance(rep, tensor):
    # trace((Z X - X Z) Y) + trace(X (Z Y - Y Z)) = 0 on generator triples.
    # Generators are doubled so the mixed commutators (whose raw entries sit
    # in (1/4)Z) stay inside the half-integer lattice; the identity is
    # bilinear, so the zero is unaffected.
    rng = np.random.default_rng(9)
    for _ in range(12):
        z, x, y = (
            _ad_matrix(rep, int(i)).scale_by_int(2) for i in rng.integers(0, 248, 3)
        )
        assert trace_pairing(commutator(z, x), y) + trace_pairing(x, commutator(z, y)) == 0


# ---------------------------------------------------------------------------
# cartan search and ranks

def test_cartan_greedy_result(rep, tensor, cartan):
    assert len(cartan.alphas) == 8
    assert cartan.alphas == GREEDY_CARTAN_ALPHAS


def test_cartan_pairwise_brackets_zero(tensor, cartan):
    for i, a in enumerate(cartan.alphas):
        for b in cartan.alphas[i + 1:]:
            cs, vs = tensor.bracket_basis(spinor_flat(a), spinor_flat(b))
            assert len(cs) == 0


def test_cartan_scan_criterion(spinors, cartan):
    # for every chosen pair, (Delta_ij)_{a,b} = 0 for all 120 (i,j)
    for i, a in enumerate(cartan.alphas):
        for b in cartan.alphas[i + 1:]:
            for d in spinors.delta.values():
                assert d.doubled[a - 1, b - 1] == 0


def test_no_ninth_commuting_spinor(tensor, cartan):
    assert no_ninth_commuting_spinor(tensor, cartan)


def test_centralizer_dimension(rep, cartan):
    assert centralizer_dimension(rep, cartan) == 8


def test_adjoint_rank(rep):
    assert adjoint_rank(rep) == 248
    mats = list(rep.mats)
    mats[200] = mats[7]
    assert adjoint_rank(AdjointRep(mats)) == 247


def test_backtracking_finds_a_set(rep, tensor):
    got = find_cartan(rep, tensor).alphas
    assert got is not None and len(got) == 8
    # Q_1 commutes only with Q_2..Q_7 (one involution row per partner of
    # Q_1 from Q_8 on): the greedy pass stalls at seven and the search
    # backtracks to Q_2..Q_9
    partners = np.arange(7, 128)
    pi = np.tile(np.arange(128), (len(partners), 1))
    pi[np.arange(len(partners)), 0] = partners
    pi[np.arange(len(partners)), partners] = 0
    assert find_cartan(rep, SimpleNamespace(pi=pi)).alphas == tuple(range(2, 10))


def test_modp_rank_basics():
    assert alg.modp_rank(np.eye(5, dtype=np.int64)) == 5
    assert alg.modp_rank(np.zeros((3, 4), dtype=np.int64)) == 0
    m = np.array([[1, 2], [2, 4]], dtype=np.int64)
    assert alg.modp_rank(m) == 1
