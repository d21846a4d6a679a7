import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from e8lie import chart as ch
from e8lie.chart import (
    EulerPoint,
    in_region_roots,
    in_region_roots_batch,
    in_region_solved,
    in_region_solved_batch,
    region_equivalence_report,
    region_vertices,
    sample_region,
)

INTERIOR_WITNESS = [0.05, 0.06, 0.07, 0.08, 0.09, 0.10, 0.11, 0.5]
ORDER_VIOLATION = [0.2, 0.1, 0.3, 0.4, 0.5, 0.6, 0.7, 2.0]


def expm_antisymmetric(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthogonal exponential of a real antisymmetric matrix (oracle path)."""
    a = np.asarray(a, dtype=np.float64)
    if np.abs(a + a.T).max() >= 1e-12:
        raise ValueError("input is not antisymmetric")
    r = scipy.linalg.expm(a)
    err = np.abs(r.T @ r - np.eye(a.shape[0])).max()
    if err >= tol:
        raise RuntimeError(f"exponential lost orthogonality: {err:.2e}")
    return r


def region_centroid(region):
    """Exact mean of the uniform law on the simplex: the vertex average."""
    return region_vertices(region).mean(axis=0)


# ---------------------------------------------------------------------------
# region predicates

def test_zero_in_region(region):
    y = np.zeros(8)
    assert in_region_roots(y, region)
    assert in_region_solved(y)


def test_interior_witness(region):
    assert in_region_roots(INTERIOR_WITNESS, region)
    assert in_region_solved(INTERIOR_WITNESS)


def test_order_violation_rejected(region):
    assert not in_region_roots(ORDER_VIOLATION, region)
    assert not in_region_solved(ORDER_VIOLATION)


def test_upper_boundary_excluded(region):
    y = np.zeros(8)
    y[0] = np.pi / 6
    assert not in_region_solved(y)
    # root-form boundary: push a point onto <highest, y> = pi
    y2 = np.zeros(8)
    y2[6] = y2[7] = np.pi / 2
    assert not in_region_roots(y2, region)


def test_far_outside_both_false(region):
    y = np.full(8, 10.0)
    assert not in_region_roots(y, region)
    assert not in_region_solved(y)


def test_batch_predicates_match_scalar(region):
    rng = np.random.default_rng(0)
    ys = rng.uniform(-0.2, 1.2, size=(200, 8))
    br = in_region_roots_batch(ys, region)
    bs = in_region_solved_batch(ys)
    for i in range(len(ys)):
        assert br[i] == in_region_roots(ys[i], region)
        assert bs[i] == in_region_solved(ys[i])


def test_equivalence_report(region):
    rep = region_equivalence_report(20000, 1, region)
    assert rep["samples"] == 20000
    assert rep["agreements"] + len(rep["disagreement_witnesses"]) >= 20000 - 100
    rep2 = region_equivalence_report(20000, 1, region)
    assert rep == rep2  # deterministic given the seed


def one_shot_report(n: int, seed: int, region: ch.TorusRegion) -> dict:
    """The equivalence report from one draw of all n points (oracle path)."""
    rng = np.random.default_rng(seed)
    hi = np.array([np.pi / 6] + [np.pi] * 7)
    pad = 0.1 * hi
    ys = rng.uniform(-pad, hi + pad, size=(n, 8))
    a = in_region_roots_batch(ys, region)
    b = in_region_solved_batch(ys)
    agree = a == b
    dis_idx = np.flatnonzero(~agree)
    witnesses = [ys[i].tolist() for i in dis_idx[:100]]
    cond = sample_region(rng, region, min(n, 100_000))
    cond_chain = in_region_solved_batch(cond)
    return {
        "samples": int(n),
        "seed": int(seed),
        "agreements": int(agree.sum()),
        "agreement_fraction": float(agree.sum() / n),
        "both_true": int(np.logical_and(a, b).sum()),
        "roots_only": int(np.logical_and(a, ~b).sum()),
        "chain_only": int(np.logical_and(~a, b).sum()),
        "region_conditioned_samples": int(cond.shape[0]),
        "region_conditioned_chain_fraction": float(cond_chain.mean()),
        "disagreement_witnesses": witnesses,
    }


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", [1, ch.BLOCK - 1, ch.BLOCK, ch.BLOCK + 1, 3 * ch.BLOCK + 5])
def test_blocked_report_matches_one_shot(region, n, seed):
    assert region_equivalence_report(n, seed, region) == one_shot_report(n, seed, region)


def test_report_witness_cap_across_blocks(region, monkeypatch):
    # the cube [0, pi)^8 as the root form: a quarter of the box lies in
    # it and almost none in the chain region, so witnesses fill many blocks
    cube = ch.TorusRegion(simple_rows=np.eye(8), highest_row=np.zeros(8), marks=region.marks)
    monkeypatch.setattr(ch, "BLOCK", 7)
    rep = region_equivalence_report(1000, 0, cube)
    assert rep == one_shot_report(1000, 0, cube)
    assert len(rep["disagreement_witnesses"]) == 100
    assert rep["samples"] - rep["agreements"] > 2 * 100


@pytest.mark.parametrize("n", [0, -1])
def test_report_needs_a_sample(region, n):
    with pytest.raises(ValueError):
        region_equivalence_report(n, 0, region)


def _traced_peak_mb(f) -> float:
    """Peak of the memory traced during f(), above what was traced before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        f()
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


def test_report_and_sampler_memory(region):
    # the one-shot report held 141 MB at 1e6 points, the sampler 28 MB at 1e5
    assert _traced_peak_mb(lambda: region_equivalence_report(1_000_000, 0, region)) <= 48.0
    assert _traced_peak_mb(lambda: sample_region(1, region, 100_000)) <= 20.0


# ---------------------------------------------------------------------------
# sampling

def test_sampler_deterministic(region):
    a = sample_region(42, region, 10)
    b = sample_region(42, region, 10)
    assert np.array_equal(a, b)


# leading 16 hex digits of the sha256 of the output bytes, seeds 0, 1, 2
SAMPLE_DIGESTS = {
    1: ["0db9e64d2a372319", "ff48ee63f2f529c6", "55acc64dacb2622c"],
    10: ["2e9a58847288323b", "b0fca1ca4c636a71", "8e4bcf9667790ddd"],
    65_537: ["e26c8ed8ee1be3f6", "3843a1096bce587a", "8057eb3953b3c647"],
}


@pytest.mark.parametrize("n", sorted(SAMPLE_DIGESTS))
def test_sampler_output_pinned(region, n):
    digests = [hashlib.sha256(sample_region(seed, region, n).tobytes()).hexdigest()[:16] for seed in range(3)]
    assert digests == SAMPLE_DIGESTS[n]


def test_samples_inside_region(region):
    ys = sample_region(0, region, 5000)
    assert in_region_roots_batch(ys, region).all()
    # the chain region is a strict subset of the root-form region (it adds
    # 0 <= y1); a uniform draw from the latter lands in it only partly
    frac = in_region_solved_batch(ys).mean()
    assert 0.4 < frac < 0.7


def test_sample_mean_matches_centroid(region):
    # the exact mean of the uniform law on a simplex is the vertex centroid
    n = 100_000
    ys = sample_region(7, region, n)
    cent = region_centroid(region)
    se = ys.std(axis=0) / np.sqrt(n)
    assert (np.abs(ys.mean(axis=0) - cent) < 3 * se + 1e-12).all()


def test_region_convexity(region):
    rng = np.random.default_rng(3)
    ys = sample_region(3, region, 200)
    for _ in range(200):
        i, j = rng.integers(0, len(ys), 2)
        lam = rng.uniform()
        mix = lam * ys[i] + (1 - lam) * ys[j]
        assert in_region_roots(mix, region)


def test_vertices_on_facets(region):
    verts = region_vertices(region)
    rows = region.simple_rows
    high = region.highest_row
    for i in range(8):
        v = verts[i + 1]
        vals = rows @ v
        assert abs(high @ v - np.pi) < 1e-12
        for j in range(8):
            want = np.pi / region.marks[i] if j == i else 0.0
            assert abs(vals[j] - want) < 1e-12


# ---------------------------------------------------------------------------
# torus decomposition and exponentials

def test_decomposition_shapes(root_system):
    q = root_system.q
    assert q.shape == (248, 248)
    assert root_system.rates.shape == (120, 8)
    err = np.abs(q.T @ q - np.eye(248)).max()
    assert err < 1e-12


def test_torus_identity(engine):
    t0 = engine.torus_element(np.zeros(8))
    assert np.abs(t0 - np.eye(248)).max() < 1e-12


def test_torus_orthogonal(engine):
    rng = np.random.default_rng(5)
    for _ in range(5):
        t = engine.torus_element(rng.uniform(-2, 2, 8))
        assert np.abs(t @ t.T - np.eye(248)).max() < 1e-10


def test_torus_against_expm_oracle(engine, cartan_matrices):
    rng = np.random.default_rng(11)
    for _ in range(10):
        y = rng.uniform(-1, 1, 8)
        t = engine.torus_element(y)
        r = expm_antisymmetric(sum(y[a] * cartan_matrices[a] for a in range(8)))
        assert np.abs(t - r).max() < 1e-9


def test_torus_homomorphism(engine):
    rng = np.random.default_rng(13)
    for _ in range(5):
        y1 = rng.uniform(-1, 1, 8)
        y2 = rng.uniform(-1, 1, 8)
        lhs = engine.torus_element(y1) @ engine.torus_element(y2)
        rhs = engine.torus_element(y1 + y2)
        assert np.abs(lhs - rhs).max() < 1e-9


def test_torus_fixes_cartan_and_moves_planes(engine, region, root_system):
    y = sample_region(21, region)
    t = engine.torus_element(y)
    for flat in root_system.axis_flats:
        v = np.zeros(248)
        v[flat] = 1.0
        assert np.abs(t @ v - v).max() < 1e-12
    # a generic in-region y rotates at least one plane away from identity
    assert np.abs(t - np.eye(248)).max() > 1e-3


def _expm_taylor(a, terms):
    """Plain series exponential; reference for small matrices."""
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    return out


def test_expm_basics():
    assert np.allclose(expm_antisymmetric(np.zeros((4, 4))), np.eye(4))
    th = 0.731
    m = np.array([[0.0, th], [-th, 0.0]])
    r = expm_antisymmetric(m)
    want = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
    assert np.abs(r - want).max() < 1e-14
    rng = np.random.default_rng(17)
    a = rng.normal(size=(8, 8))
    a = a - a.T
    assert np.abs(expm_antisymmetric(a) @ expm_antisymmetric(-a) - np.eye(8)).max() < 1e-12
    assert np.abs(expm_antisymmetric(a) - _expm_taylor(a, 60)).max() < 1e-12
    with pytest.raises(ValueError):
        expm_antisymmetric(np.eye(3))


# ---------------------------------------------------------------------------
# subgroup factor and chart

def test_subgroup_identity(engine):
    s = engine.subgroup_element(np.zeros(120))
    assert np.array_equal(s, np.eye(248))


def test_subgroup_orthogonal(engine):
    rng = np.random.default_rng(19)
    s = engine.subgroup_element(rng.uniform(-0.5, 0.5, 120))
    assert np.abs(s.T @ s - np.eye(248)).max() < 1e-9


def test_subgroup_single_factor_matches_expm(engine, rep):
    # one-parameter factors agree with the dense exponential of the generator
    x = np.zeros(120)
    x[17] = 0.613
    s = engine.subgroup_element(x)
    gen = np.asarray(rep.mats[17].todense(), dtype=np.float64) / 2.0
    assert np.abs(s - expm_antisymmetric(gen * 0.613)).max() < 1e-12


def test_subgroup_conjugates_cartan_to_abelian(engine, cartan_matrices):
    rng = np.random.default_rng(23)
    g = engine.subgroup_element(rng.uniform(-0.5, 0.5, 120))
    conj = [g @ c @ g.T for c in cartan_matrices]
    flat = np.stack([c.ravel() for c in conj])
    svals = np.linalg.svd(flat, compute_uv=False)
    assert (svals > svals[0] * 1e-8).sum() == 8
    for i in range(8):
        for j in range(i + 1, 8):
            assert np.abs(conj[i] @ conj[j] - conj[j] @ conj[i]).max() < 1e-9


def test_chart_identity(engine):
    g = engine.chart(EulerPoint.zero())
    assert np.abs(g - np.eye(248)).max() < 1e-12


def test_chart_orthogonal_killing_preserving(engine, region):
    p = ch.random_euler_point(2, region)
    g = engine.chart(p)
    assert np.abs(g.T @ g - np.eye(248)).max() < 1e-8
    assert abs(np.linalg.det(g) - 1.0) < 1e-8
    k = -60.0 * np.eye(248)
    assert np.abs(g.T @ k @ g - k).max() < 1e-8 * 60


def test_euler_point_round_trip():
    with pytest.raises(ValueError):
        EulerPoint(np.zeros(3), np.zeros(8), np.zeros(120))


def test_chart_rank_at_origin_is_deficient(engine):
    rank, svals, _ = engine.chart_rank(EulerPoint.zero())
    # coordinate singularity at the identity is permitted; record the value
    print(f"chart rank at the identity: {rank}")
    assert rank < 248


def test_chart_rank_stable_between_nearby_points(engine, region):
    p = ch.random_euler_point(3, region, 0.6)
    r1, _, _ = engine.chart_rank(p)
    q = EulerPoint(p.x + 0.01, p.y + 0.01, p.z + 0.01)
    r2, _, _ = engine.chart_rank(q)
    assert r1 == r2 == 248


def test_chart_rank_singular_values_match_scipy(engine, region):
    # second path for the float rank, at the acceptance rank point
    # (RANK_POINT_SEED 3, spread 0.6): scipy's svdvals of the same Jacobian
    p = ch.random_euler_point(3, region, 0.6)
    _, svals, _ = engine.chart_rank(p)
    np.testing.assert_allclose(svals, scipy.linalg.svdvals(engine.chart_jacobian(p)), rtol=1e-12, atol=0)


def _shifted(p, j, d):
    """p with coordinate j of (x, y, z) moved by d."""
    c = np.concatenate([p.x, p.y, p.z])
    c[j] += d
    return EulerPoint(c[:120], c[120:128], c[128:])


def _ad(rep, v):
    """ad(v) as a dense float matrix, v in true coordinates of the basis."""
    out = np.zeros((248, 248))
    for i in np.flatnonzero(v):
        out += v[i] * rep.mats[i].toarray()
    return out / 2.0


def test_chart_jacobian_matches_finite_differences(engine, region, rep):
    # the independent reference: central differences of chart(), two calls
    # per column, against g ad(column / sqrt(60))
    p = ch.random_euler_point(3, region, 0.6)
    g = engine.chart(p)
    jac = engine.chart_jacobian(p)
    assert jac.shape == (248, 248)
    h = 1e-5
    for j in (0, 57, 120, 127, 128, 247):  # x0, x57, y0, y7, z0, z119
        fd = (engine.chart(_shifted(p, j, h)) - engine.chart(_shifted(p, j, -h))) / (2 * h)
        assert np.abs(fd - g @ _ad(rep, jac[:, j] / np.sqrt(60.0))).max() < 1e-8


def test_chart_jacobian_kak_density(engine, region, root_system):
    # KAK: at fixed x and z the y-dependence of det J is prod_p sin theta_p(y)
    p = ch.random_euler_point(3, region, 0.6)
    rest = []
    for y in sample_region(37, region, 5):
        _, logdet = np.linalg.slogdet(engine.chart_jacobian(EulerPoint(p.x, y, p.z)) / np.sqrt(60.0))
        rest.append(logdet - np.log(np.abs(np.sin(root_system.rates @ y))).sum())
    print("log|det J/sqrt(60)| - sum log|sin theta|:", " ".join(f"{v:.12f}" for v in rest))
    assert np.ptp(rest) < 1e-9
