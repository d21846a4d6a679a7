from functools import reduce

import numpy as np
import pytest

from e8lie import clifford, halfint
from e8lie.algebra import (
    VECTOR_PAIRS,
    StructureTensor,
    modp_rank,
    verify_chirality_consistency,
    verify_clifford_pairs,
    verify_so16_on_spinors,
)
from e8lie.clifford import (
    GammaConstructionError,
    GammaSystem,
    _cl8_gammas,
    _octonion_left_mults,
    build_gamma_system,
    perm_decode,
    perm_dense,
    perm_transpose,
    quarter_commutators,
    spinor_generators,
)
from e8lie.halfint import HalfIntMatrix, InexactDivision, commutator, mat_mul
from e8lie.pipeline import build_pipeline


def _gamma_from_dense(blocks):
    """A GammaSystem from sixteen dense blocks.  A block that does not decode
    to a signed permutation becomes an all-zero row, which is no permutation
    and fails the signed-permutation stratum."""
    perm = np.zeros((16, 128), dtype=np.int64)
    sign = np.zeros((16, 128), dtype=np.int64)
    for i, s in enumerate(blocks):
        try:
            perm[i], sign[i] = perm_decode(s.scale_half().doubled)
        except (ValueError, InexactDivision):
            pass
    return GammaSystem(perm, sign)


def test_octonion_left_mults_are_clifford():
    ls = _octonion_left_mults()
    assert len(ls) == 7
    eye = np.eye(8, dtype=np.int64)
    for i, a in enumerate(ls):
        assert np.array_equal(a.T, -a)
        assert np.array_equal(a @ a, -eye)
        for b in ls[i + 1:]:
            assert np.array_equal(a @ b + b @ a, np.zeros((8, 8), dtype=np.int64))


def test_sigma_orthogonality(gammas):
    eye = HalfIntMatrix.identity(128)
    for s in gammas.sigma:
        assert mat_mul(s, s.T) == eye


def test_sigma_anticommutation_example(gammas):
    s1, s2 = gammas.sigma[0], gammas.sigma[1]
    assert (s1 @ s2.T) + (s2 @ s1.T) == HalfIntMatrix.zeros(128, 128)


def test_clifford_suites(gammas):
    for r in verify_clifford_pairs(gammas):
        assert r.passed, r.to_dict()


def test_sigma_columns_single_nonzero(gammas):
    for s in gammas.sigma:
        d = np.abs(s.doubled)
        assert (d.sum(axis=0) == 2).all()
        assert (d.sum(axis=1) == 2).all()
        assert np.isin(s.doubled, (-2, 0, 2)).all()


def test_delta_antisymmetric_half_entries(spinors):
    d12 = spinors.delta[(1, 2)]
    assert d12.T == -d12
    assert np.isin(d12.doubled, (-1, 0, 1)).all()
    assert len(spinors.delta) == 120


def test_delta_commutator_examples(spinors):
    zero = HalfIntMatrix.zeros(128, 128)
    assert commutator(spinors.delta[(1, 2)], spinors.delta[(3, 4)]) == zero
    assert commutator(spinors.delta[(1, 2)], spinors.delta[(2, 3)]) == spinors.delta[(1, 3)]


def test_delta_so16_exhaustive(tensor):
    r = verify_so16_on_spinors(tensor)
    assert r.passed and r.checked == 14400


def _eq1_rhs(spinors, i, j, k, l):
    acc = HalfIntMatrix.zeros(128, 128)

    def dmat(p, q):
        if p == q:
            return None
        return spinors.delta[(p, q)] if p < q else -spinors.delta[(q, p)]

    if j == k and dmat(i, l) is not None:
        acc = acc + dmat(i, l)
    if j == l and dmat(i, k) is not None:
        acc = acc - dmat(i, k)
    if i == k and dmat(j, l) is not None:
        acc = acc - dmat(j, l)
    if i == l and dmat(j, k) is not None:
        acc = acc + dmat(j, k)
    return acc


def test_so16_fast_path_matches_dense(spinors):
    # the exhaustive suite runs on the signed-permutation encoding; spot
    # check random pairs against dense exact commutators
    rng = np.random.default_rng(3)
    pairs = sorted(spinors.delta)
    for _ in range(25):
        i, j = pairs[rng.integers(120)]
        k, l = pairs[rng.integers(120)]
        lhs = commutator(spinors.delta[(i, j)], spinors.delta[(k, l)])
        assert lhs == _eq1_rhs(spinors, i, j, k, l)


def test_chirality_consistency(gammas):
    r = verify_chirality_consistency(gammas)
    assert r.passed and r.checked == 14400


def test_delta_linear_independence(spinors):
    flat = np.stack([spinors.delta[p].doubled.ravel() for p in sorted(spinors.delta)])
    assert modp_rank(flat) == 120


def test_signed_permutation_arrays_roundtrip(spinors):
    d = spinors.delta[(3, 7)]
    pi, sg = perm_decode(d.doubled)
    rebuilt = np.zeros((128, 128), dtype=np.int64)
    rebuilt[np.arange(128), pi] = sg
    assert np.array_equal(rebuilt, d.doubled)


def test_delta_stored_once_as_the_tensor_arrays(spinors, tensor):
    # the dense delta decodes back to the stored arrays, which the tensor
    # reads without a copy
    assert spinors.perm.shape == spinors.sign.shape == (120, 128)
    for k, pair in enumerate(VECTOR_PAIRS):
        pi, sg = perm_decode(spinors.delta[pair].doubled)
        assert np.array_equal(pi, spinors.perm[k]) and np.array_equal(sg, spinors.sign[k])
    assert tensor.pi is spinors.perm and tensor.sg is spinors.sign


@pytest.mark.parametrize("fault", ["row-flip", "column-flip"])
def test_spinor_generators_reject_cancelling_terms(gammas, fault):
    # a sign flip of a row or a column of Sigma_3 makes both terms of some
    # Delta_ij cancel on a row: no tensor is built from it
    sigma = list(gammas.sigma)
    bad = sigma[2].doubled.copy()
    if fault == "row-flip":
        bad[0] = -bad[0]
    else:
        bad[:, 0] = -bad[:, 0]
    sigma[2] = HalfIntMatrix(bad)
    with pytest.raises(ValueError):
        StructureTensor.build(spinor_generators(_gamma_from_dense(sigma)))


def test_fault_injection_names_pair(gammas):
    # corrupting one block must fail the pair checks with a named counterexample
    sigma = list(gammas.sigma)
    bad = sigma[2].doubled.copy()
    bad[0, :] = -bad[0, :]
    sigma[2] = HalfIntMatrix(bad)
    reports = verify_clifford_pairs(_gamma_from_dense(sigma))
    anti = reports[0]
    assert not anti.passed
    assert "Sigma_3" in anti.first_counterexample


def test_construction_self_check_catches_bad_permutation():
    good = np.eye(4, dtype=np.int64)
    assert np.array_equal(perm_dense(perm_decode(good)), good)
    good[0, 0] = 2
    with pytest.raises(ValueError):
        perm_decode(good)


# ---------------------------------------------------------------------------
# the permutation-array construction against the dense kernel

def _dense_sigma(alphas):
    """The dense construction: Kronecker products split by the chirality element."""
    omega8 = reduce(np.matmul, alphas)
    eye16 = np.eye(16, dtype=np.int64)
    gammas = [np.kron(a, eye16) for a in alphas] + [np.kron(omega8, b) for b in alphas]
    diag = np.diagonal(np.kron(omega8, omega8))
    pos, neg = np.flatnonzero(diag == 1), np.flatnonzero(diag == -1)
    return [HalfIntMatrix.from_true_ints(g[np.ix_(pos, neg)]) for g in gammas]


def test_permutation_arrays_match_dense_oracle(gammas, spinors):
    sigma = gammas.sigma
    assert list(sigma) == _dense_sigma(_cl8_gammas())
    assert list(spinors.delta) == list(VECTOR_PAIRS)
    dprime = perm_dense(quarter_commutators(perm_transpose((gammas.perm, gammas.sign))))
    for k, (i, j) in enumerate(VECTOR_PAIRS):
        si, sj = sigma[i - 1], sigma[j - 1]
        assert spinors.delta[(i, j)] == ((si @ sj.T) - (sj @ si.T)).scale_half().scale_half()
        assert HalfIntMatrix(dprime[k]) == ((si.T @ sj) - (sj.T @ si)).scale_half().scale_half()


def _broken_cl8():
    """Cl(8) gammas with two columns of the third block swapped and the
    eighth re-solved so that their product stays diag(I, -I): the chirality
    split survives, the anticommutation does not."""
    g = _cl8_gammas()
    b = g[2][:8, 8:][:, [1, 0, 2, 3, 4, 5, 6, 7]]
    g[2][:8, 8:], g[2][8:, :8] = b, b.T
    upper = reduce(np.matmul, [g[k][:8, 8:] if k % 2 == 0 else g[k][8:, :8] for k in range(7)])
    lower = reduce(np.matmul, [g[k][8:, :8] if k % 2 == 0 else g[k][:8, 8:] for k in range(7)])
    g[7] = np.zeros((16, 16), dtype=np.int64)
    g[7][8:, :8] = upper.T
    g[7][:8, 8:] = -lower.T
    return g


def test_self_check_names_first_bad_pair(monkeypatch):
    family = _broken_cl8()
    monkeypatch.setattr(clifford, "_cl8_gammas", lambda: family)
    sigma = _dense_sigma(family)
    expected = None
    for i in range(16):
        for j in range(i, 16):
            want = HalfIntMatrix.identity(128).scale_by_int(2 if i == j else 0)
            si, sj = sigma[i], sigma[j]
            if (si @ sj.T) + (sj @ si.T) != want:
                expected = f"Sigma_{i + 1} Sigma_{j + 1}^T anticommutation failed"
            elif (si.T @ sj) + (sj.T @ si) != want:
                expected = f"Sigma_{i + 1}^T Sigma_{j + 1} anticommutation failed"
            if expected:
                break
        if expected:
            break
    with pytest.raises(GammaConstructionError) as err:
        build_gamma_system()
    assert str(err.value) == expected == "Sigma_1 Sigma_3^T anticommutation failed"
    assert list(build_gamma_system(self_check=False).sigma) == sigma


def _dense_clifford_reports(blocks):
    """The three Clifford strata by dense float products (exact here)."""
    s = np.stack([m.to_float() for m in blocks])
    out = []
    for name, x, label in (
        ("clifford-anticommutation", s, "Sigma_{i} Sigma_{j}^T + Sigma_{j} Sigma_{i}^T"),
        ("clifford-anticommutation-transposed", s.transpose(0, 2, 1),
         "Sigma_{i}^T Sigma_{j} + Sigma_{j}^T Sigma_{i}"),
    ):
        fails = [(i, j) for i in range(16) for j in range(i, 16)
                 if not np.array_equal(x[i] @ x[j].T + x[j] @ x[i].T, 2.0 * (i == j) * np.eye(128))]
        first = label.format(i=fails[0][0] + 1, j=fails[0][1] + 1) if fails else None
        out.append({"name": name, "checked": 136, "failures": len(fails),
                    "passed": not fails, "first_counterexample": first})
    bad = [i for i, m in enumerate(s, start=1)
           if not (np.isin(m, (-1, 0, 1)).all() and (np.abs(m).sum(axis=0) == 1).all()
                   and (np.abs(m).sum(axis=1) == 1).all())]
    out.append({"name": "clifford-signed-permutation", "checked": 16, "failures": len(bad),
                "passed": not bad, "first_counterexample": f"Sigma_{bad[0]}" if bad else None})
    return out


@pytest.mark.parametrize("fault", ["row-swap", "column-flip", "entry-2", "entry-half"])
def test_clifford_fault_injection_matches_dense(gammas, fault):
    sigma = list(gammas.sigma)
    bad = sigma[2].doubled.copy()
    zero = np.flatnonzero(bad[0] == 0)[0]
    if fault == "row-swap":
        bad[[0, 1]] = bad[[1, 0]]
    elif fault == "column-flip":
        bad[:, 0] = -bad[:, 0]
    elif fault == "entry-2":
        bad[0, zero] = 4  # true entry 2: not a signed permutation
    else:
        bad[0, zero] = 1  # true entry 1/2
    sigma[2] = HalfIntMatrix(bad)
    reports = [r.to_dict() for r in verify_clifford_pairs(_gamma_from_dense(sigma))]
    assert reports == _dense_clifford_reports(sigma)
    assert not reports[0]["passed"]
    assert reports[0]["first_counterexample"] == "Sigma_1 Sigma_3^T + Sigma_3 Sigma_1^T"


@pytest.mark.parametrize("fault", ["repeated-column", "sign-0", "sign-2"])
def test_clifford_array_fault_injection_matches_dense(gammas, fault):
    # faults the arrays can hold but no signed permutation has
    perm, sign = gammas.perm.copy(), gammas.sign.copy()
    if fault == "repeated-column":
        perm[2, 0] = perm[2, 1]
    else:
        sign[2, 0] = int(fault[-1])
    broken = GammaSystem(perm, sign)
    reports = [r.to_dict() for r in verify_clifford_pairs(broken)]
    assert reports == _dense_clifford_reports(broken.sigma)
    assert reports[2]["first_counterexample"] == "Sigma_3"
    assert reports[0]["first_counterexample"] == "Sigma_1 Sigma_3^T + Sigma_3 Sigma_1^T"


def test_build_and_clifford_suites_do_no_dense_products(monkeypatch, gammas):
    def refuse(*args):
        raise AssertionError("dense product")

    monkeypatch.setattr(halfint, "mat_mul", refuse)
    monkeypatch.setattr(halfint, "commutator", refuse)
    build_pipeline()
    assert all(r.passed for r in verify_clifford_pairs(gammas))
    assert verify_chirality_consistency(gammas).passed


@pytest.mark.parametrize("fault, error", [("row-flip", ValueError), ("row-swap", halfint.InexactDivision)])
def test_chirality_consistency_raises_when_terms_do_not_cancel(gammas, fault, error):
    # a row sign flip of Sigma_3 makes both terms of some Delta' cancel on a
    # row; a row swap leaves their nonzeros apart (entries of 1/4)
    sigma = list(gammas.sigma)
    bad = sigma[2].doubled.copy()
    if fault == "row-flip":
        bad[0] = -bad[0]
    else:
        bad[[0, 1]] = bad[[1, 0]]
    sigma[2] = HalfIntMatrix(bad)
    with pytest.raises(error):
        verify_chirality_consistency(_gamma_from_dense(sigma))


def test_build_forms_no_dense_sigma():
    # the blocks are held as permutation arrays; dense Sigma is formed only
    # when read
    pipe = build_pipeline()
    assert "sigma" not in pipe.gammas.__dict__
    assert len(pipe.gammas.sigma) == 16 and "sigma" in pipe.gammas.__dict__
