import numpy as np
import pytest

from e8lie import roots as rt
from e8lie.roots import (
    CONVENTIONAL_HIGHEST_DOUBLED,
    CONVENTIONAL_SIMPLES_DOUBLED,
    cartan_matrix_of,
    choose_positive_and_simple,
    permutation_equivalent,
    weyl_reflection_closure,
)
from e8lie.chart import sample_region

# frozen from the first extraction run
EXPECTED_SCALE = "1"
E8_MARKS = (2, 3, 4, 6, 5, 4, 3, 2)


def decompose_in_simples(root_dbl, simples) -> tuple[int, ...]:
    """Exact integer coefficients of a root over the simple roots."""
    smat = np.array(simples, dtype=np.float64).T
    n = np.linalg.solve(smat, np.array(root_dbl, dtype=np.float64))
    coeff = tuple(int(round(x)) for x in n)
    recon = sum(m * np.array(s, dtype=np.int64) for m, s in zip(coeff, simples))
    if not np.array_equal(recon, np.array(root_dbl, dtype=np.int64)):
        raise rt.RootExtractionError("root is not an integer combination of simples")
    return coeff


def root_string_rule(roots: list[tuple[int, ...]]) -> bool:
    """r + r' is a root iff (r, r') = -1, for all pairs with r' != +-r."""
    arr = np.array(roots, dtype=np.int64)
    rset = {tuple(r) for r in roots}
    pair = (arr @ arr.T) // 4
    n = len(roots)
    for i in range(n):
        sums = arr + arr[i][None, :]
        for j in range(n):
            rj = tuple(arr[j])
            if rj == tuple(arr[i]) or rj == tuple(-arr[i]):
                continue
            is_root = tuple(sums[j]) in rset
            if is_root != (pair[i, j] == -1):
                return False
    return True


def _rows(arr) -> list[tuple[int, ...]]:
    return [tuple(r) for r in arr.tolist()]


def test_root_arrays(root_system):
    rs = root_system
    for arr, shape in ((rs.roots, (240, 8)), (rs.positives, (120, 8)), (rs.simples, (8, 8)),
                       (rs.highest, (8,)), (rs.plane_roots, (120, 8)), (rs.axis_sign, (8,))):
        assert arr.dtype == np.int64 and arr.shape == shape


def test_root_count_and_negation(root_system):
    assert len(root_system.roots) == 240
    coords = set(_rows(root_system.roots))
    assert len(coords) == 240
    for c in coords:
        assert tuple(-x for x in c) in coords


def test_snap_scale_and_residual(root_system):
    assert str(root_system.scale) == EXPECTED_SCALE
    assert root_system.snap_residual < 1e-9


def test_type_split(root_system):
    integer_type = (root_system.roots % 2 == 0).all(axis=1)
    ints, halfs = _rows(root_system.roots[integer_type]), _rows(root_system.roots[~integer_type])
    assert len(ints) == 112 and len(halfs) == 128
    for r in ints:
        nz = [c for c in r if c]
        assert len(nz) == 2 and all(abs(c) == 2 for c in nz)
    for r in halfs:
        assert all(abs(c) == 1 for c in r)


def test_contains_conventional_root_literally(root_system):
    coords = set(_rows(root_system.roots))
    assert (2, 2, 0, 0, 0, 0, 0, 0) in coords  # (1,1,0,...,0) doubled
    assert root_system.literal_raw_match


def test_scale_stable_across_t_vectors(rep, cartan):
    scales = []
    for retry in range(3):
        _, _, rates = rt._planes(rep, cartan, retry)
        s, _, resid = rt._snap(rates, 1e-9)
        scales.append(s)
        assert resid < 1e-9
    assert len(set(scales)) == 1


def test_eigen_rates_match_rayleigh_loop(rep, cartan):
    # reference: one np.vdot Rayleigh quotient per eigenvector v = (q_2p +
    # i q_2p+1) / sqrt2 and dense generator
    mats = [rep.dense(f) / 2.0 for f in cartan.flats]
    q, _, rates = rt._planes(rep, cartan, 0)
    vecs = (q[:, 0:240:2] + 1j * q[:, 1:240:2]) / np.sqrt(2.0)
    want = [[np.imag(np.vdot(v, m @ v)) for m in mats] for v in vecs.T]
    assert np.abs(rates - np.array(want)).max() < 1e-12


def test_compute_roots_contract(rep, cartan, root_system):
    # the raw-gauge snapped roots and their scale, and the delivered gauge
    # as parity signs on the raw axes, then the axes reversed
    _, _, rates = rt._planes(rep, cartan, 0)
    scale, planes, _ = rt._snap(rates, 1e-9)
    roots = np.r_[planes, -planes]
    assert roots.dtype == np.int64
    assert len(set(_rows(roots))) == 240
    assert str(scale) == EXPECTED_SCALE
    raw = root_system.roots[:, ::-1] * root_system.axis_sign[::-1]
    assert set(_rows(raw)) == set(_rows(roots))


def test_positives_and_simples(root_system):
    assert len(root_system.positives) == 120
    assert len(root_system.simples) == 8
    simples = _rows(root_system.simples)
    for p in root_system.positives:
        coeffs = decompose_in_simples(p, simples)
        assert all(c >= 0 for c in coeffs)


def test_positivity_functional_no_ties(root_system):
    for r in root_system.roots:
        assert int(np.asarray(r) @ rt._POS_WEIGHTS) != 0


def test_delivered_rows_are_conventional(root_system):
    assert root_system.conventional_labeling
    assert tuple(_rows(root_system.simples)) == CONVENTIONAL_SIMPLES_DOUBLED
    assert tuple(root_system.highest.tolist()) == CONVENTIONAL_HIGHEST_DOUBLED


def test_cartan_matrix(root_system):
    c = root_system.cartan_matrix
    assert (np.diagonal(c) == 2).all()
    assert permutation_equivalent(c)
    assert np.array_equal(cartan_matrix_of(CONVENTIONAL_SIMPLES_DOUBLED), rt.E8_CARTAN)


def _chain_cartan(n):
    return 2 * np.eye(n, dtype=np.int64) - np.eye(n, k=1, dtype=np.int64) - np.eye(n, k=-1, dtype=np.int64)


def test_permutation_equivalent_separates_dynkin_graphs():
    perm = np.random.default_rng(4).permutation(8)
    assert permutation_equivalent(rt.E8_CARTAN[np.ix_(perm, perm)])
    d8 = _chain_cartan(8)
    d8[5, 7] = d8[7, 5] = -1  # the fork of D8: same degrees as E8, other graph
    d8[6, 7] = d8[7, 6] = 0
    assert not permutation_equivalent(d8)
    assert not permutation_equivalent(_chain_cartan(8))  # A8
    assert permutation_equivalent(d8[np.ix_(perm, perm)], d8)


def test_all_roots_norm_two(root_system):
    arr = root_system.roots
    norms4 = (arr * arr).sum(axis=1)  # 4x the true squared length
    assert (norms4 == 8).all()


def test_marks_and_coxeter(root_system):
    assert sorted(root_system.marks) == sorted(E8_MARKS)
    assert root_system.marks == E8_MARKS  # ordered, under the recorded labeling
    assert sum(root_system.marks) + 1 == 30
    # highest root has two nonzero coordinates of value 1
    nz = [c for c in root_system.highest.tolist() if c]
    assert nz == [2, 2]


def test_highest_is_sum_of_marked_simples(root_system):
    acc = np.zeros(8, dtype=np.int64)
    for m, s in zip(root_system.marks, root_system.simples):
        acc += m * s
    assert tuple(acc) == tuple(root_system.highest.tolist())


def test_weyl_closure_and_strings(root_system):
    coords = _rows(root_system.roots)
    assert weyl_reflection_closure(coords)
    assert not weyl_reflection_closure(coords[1:])  # the reflection of -r in itself is r
    assert root_string_rule(coords)


def test_planes_and_fixed(root_system):
    assert len(root_system.plane_roots) == 120
    assert root_system.q.shape == (248, 248)
    assert root_system.rates.shape == (120, 8)
    assert len(root_system.axis_flats) == 8
    plane_roots = {tuple(r) for r in root_system.plane_roots.tolist()}
    # one representative per +- pair
    for r in plane_roots:
        assert tuple(-x for x in r) not in plane_roots


def test_planes_are_the_positive_roots(root_system, region):
    assert set(_rows(root_system.plane_roots)) == set(_rows(root_system.positives))
    assert np.array_equal(root_system.rates, float(root_system.scale) * root_system.plane_roots / 2.0)
    # so every plane angle <alpha, y> of an in-region y lies in (0, pi)
    ys = sample_region(2718, region, 1000)
    assert (np.sin(ys @ root_system.rates.T) > 0).all()


def test_decomposition_check_rejects_a_turned_rate(rep, cartan, monkeypatch):
    rt.build_root_system(rep, cartan)
    certify = rt._certify

    def turned(q, cq, axis_sign, rates):
        rates = rates.copy()
        rates[5] *= -1.0  # one plane's rate reversed, its basis columns kept
        certify(q, cq, axis_sign, rates)

    monkeypatch.setattr(rt, "_certify", turned)
    with pytest.raises(rt.RootExtractionError, match=r"block validation failed for axis \d"):
        rt.build_root_system(rep, cartan)


def test_build_rejects_a_negated_plane_column(rep, cartan, monkeypatch):
    planes = rt._planes

    def negated(*args):
        q, cq, rates = planes(*args)
        q[:, 10] *= -1.0  # plane 5's first column and its image, rates kept
        cq[:, :, 10] *= -1.0
        return q, cq, rates

    monkeypatch.setattr(rt, "_planes", negated)
    with pytest.raises(rt.RootExtractionError, match=r"block validation failed for axis \d"):
        rt.build_root_system(rep, cartan)


def test_root_validation():
    # a zero row ties the positivity functional
    table = np.array(CONVENTIONAL_SIMPLES_DOUBLED + ((0,) * 8,), dtype=np.int64)
    with pytest.raises(rt.RootExtractionError, match="tie"):
        choose_positive_and_simple(table)
    # rates 2 and 8 snap exactly at every scale, but one of them always to
    # a component outside {0, +-1/2, +-1}
    rates = np.zeros((240, 8))
    rates[0, 0], rates[1, 1] = 2.0, 8.0
    with pytest.raises(rt.RootExtractionError, match="no admissible snapping scale"):
        rt._snap(rates, 1e-9)


def test_cartan_matrix_of_rejects_noninteger():
    bad = [(1, 0, 0, 0, 0, 0, 0, 0)] + [list(r) for r in CONVENTIONAL_SIMPLES_DOUBLED[1:]]
    with pytest.raises(rt.RootExtractionError):
        cartan_matrix_of([tuple(r) for r in bad])


def test_choose_positive_and_simple_on_reference_set():
    # rebuild the standard root set directly and re-derive positives/simples
    roots = []
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (2, -2):
                for sj in (2, -2):
                    v = [0] * 8
                    v[i], v[j] = si, sj
                    roots.append(tuple(v))
    for bits in range(256):
        v = [1 if (bits >> k) & 1 else -1 for k in range(8)]
        if sum(1 for x in v if x < 0) % 2 == 0:
            roots.append(tuple(v))
    assert len(roots) == 240
    positives, simples = choose_positive_and_simple(roots)
    assert len(positives) == 120 and len(simples) == 8
    # the set-lookup reference: input order kept, simples no difference of positives
    want_pos = [r for r in roots if int(np.asarray(r) @ rt._POS_WEIGHTS) > 0]
    pos_set = set(want_pos)
    want_simple = [r for r in want_pos if not any(tuple(np.subtract(r, p)) in pos_set for p in want_pos)]
    assert [tuple(r) for r in positives.tolist()] == want_pos
    assert [tuple(r) for r in simples.tolist()] == want_simple


def test_sorted_search_membership_matches_isin():
    # keys below, inside and above the table, with repeats on both sides
    rng = np.random.default_rng(0)
    table = rng.integers(-50, 50, 40) * 9 ** 7
    keys = rng.integers(-60, 60, (30, 7)) * 9 ** 7
    assert np.array_equal(rt._isin(keys, table), np.isin(keys, table))
    assert np.array_equal(rt._isin(keys, table[:, None]), np.isin(keys, table))
