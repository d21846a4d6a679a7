"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

from e8lie import algebra as alg
from e8lie import chart as ch
from e8lie import roots as rt
from e8lie.halfint import HalfIntMatrix

from test_chart import expm_antisymmetric

# archived regression values, computed once from the first complete run
ARCHIVED_KILLING_TRUE = -60
ARCHIVED_BOX_AGREEMENTS_SEED0 = 1_000_000
ARCHIVED_CONDITIONED_CHAIN_FRACTION_SEED0 = 0.57119
RANK_POINT_SEED = 3
RANK_POINT_SPREAD = 0.6


def _ok(n, msg):
    print(f"criterion {n} PASS: {msg}")


def test_criterion_01_clifford_contract(gammas):
    t0 = time.monotonic()
    reports = alg.verify_clifford_pairs(gammas)
    anti = reports[0]
    assert anti.name == "clifford-anticommutation"
    assert anti.checked == 136 and anti.passed
    for r in reports[1:]:
        assert r.passed
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _ok(1, f"all 136 pairs exact, both families, in {elapsed:.1f}s")


def test_criterion_02_so16_relations(tensor):
    t0 = time.monotonic()
    r = alg.verify_so16_on_spinors(tensor)
    elapsed = time.monotonic() - t0
    assert r.checked == 14400 and r.passed
    assert elapsed < 120.0
    _ok(2, f"Eq-so16 with Delta exact on 14400 ordered pairs in {elapsed:.1f}s")


def test_criterion_03_mixed_and_spinor_relations(rep, tensor):
    vv, vs, ss = alg.verify_defining_relations(rep, tensor)
    assert vv.checked == 14400 and vv.passed
    assert vs.checked == 15360 and vs.passed
    assert ss.checked == 8128 and ss.passed
    _ok(3, "defining relations exact: 14400 + 15360 + 8128 pairs")


def test_criterion_04_jacobi(rep, tensor):
    t0 = time.monotonic()
    reports = alg.verify_jacobi(rep, tensor, samples=100_000, seed=0, full_spinor=True)
    by_name = {r.name: r for r in reports}
    jj = by_name["jacobi-JJ*-pairs"]
    jq = by_name["jacobi-JQ*-pairs"]
    assert jj.passed and jj.checked == 7140
    assert jq.passed and jq.checked == 15360
    sampled = by_name["jacobi-QQQ-sampled"]
    assert sampled.passed and sampled.checked >= 100_000
    full = by_name["jacobi-QQQ-full"]
    assert full.passed and full.checked == 8128
    elapsed = time.monotonic() - t0
    assert elapsed < 3600.0
    _ok(4, f"Jacobi exhaustive JJ*/JQ* pair strata, 1e5 sampled QQQ, full QQQ in {elapsed:.0f}s")


def test_criterion_05_adjoint_integrity(rep):
    assert alg.adjoint_rank(rep) == 248
    k = alg.killing_form(rep)
    expect = 2 * ARCHIVED_KILLING_TRUE * np.eye(248, dtype=np.int64)
    assert np.array_equal(k.doubled, expect)
    assert ARCHIVED_KILLING_TRUE < 0
    _ok(5, f"248 independent generators; Killing = {ARCHIVED_KILLING_TRUE} * I exactly")


def test_criterion_06_cartan(rep, tensor, cartan):
    assert len(cartan.alphas) == 8
    for i, a in enumerate(cartan.alphas):
        for b in cartan.alphas[i + 1 :]:
            cs, _ = tensor.bracket_basis(alg.spinor_flat(a), alg.spinor_flat(b))
            assert len(cs) == 0
    assert alg.no_ninth_commuting_spinor(tensor, cartan)
    assert alg.centralizer_dimension(rep, cartan) == 8
    _ok(6, f"Cartan spinor indices {cartan.alphas}; centralizer dimension exactly 8")


def test_criterion_07_roots(root_system):
    rs = root_system
    coords = [tuple(r) for r in rs.roots.tolist()]
    assert len(set(coords)) == 240
    assert rs.snap_residual < 1e-9
    ints = rs.roots[(rs.roots % 2 == 0).all(axis=1)]
    assert len(ints) == 112 and len(rs.roots) - len(ints) == 128
    cset = set(coords)
    for c in cset:
        assert tuple(-x for x in c) in cset
    assert rt.weyl_reflection_closure(coords)
    assert rt.permutation_equivalent(rs.cartan_matrix)
    assert sorted(rs.marks) == sorted((2, 3, 4, 6, 5, 4, 3, 2))
    _ok(7, f"240 roots (112+128), Weyl-closed, E8 Cartan matrix, marks {rs.marks}")


def test_criterion_07b_kernel_multiplicity(rep, cartan):
    q, _, rates = rt._planes(rep, cartan, 0)  # 8-dim kernel enforced inside
    _, planes, _ = rt._snap(rates, 1e-9)
    assert q.shape == (248, 248) and planes.shape == (120, 8)
    assert len({tuple(r) for r in np.r_[planes, -planes].tolist()}) == 240
    _ok(7, "joint kernel multiplicity exactly 8 (240 nonzero eigenvectors)")


def test_criterion_08_torus_exponential(engine, cartan_matrices):
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        y = rng.uniform(-1.5, 1.5, 8)
        t = engine.torus_element(y)
        r = expm_antisymmetric(sum(y[a] * cartan_matrices[a] for a in range(8)))
        worst = max(worst, float(np.abs(t - r).max()))
    assert worst < 1e-9
    worst_h = 0.0
    for _ in range(20):
        y1 = rng.uniform(-1, 1, 8)
        y2 = rng.uniform(-1, 1, 8)
        d = engine.torus_element(y1) @ engine.torus_element(y2) - engine.torus_element(y1 + y2)
        worst_h = max(worst_h, float(np.abs(d).max()))
    assert worst_h < 1e-9
    _ok(8, f"torus vs dense exponential max {worst:.1e}; homomorphism max {worst_h:.1e}")


def test_criterion_09_region(region):
    # hand-checked witnesses agree between the two systems
    witnesses = [
        (np.zeros(8), True),
        (np.array([0.05, 0.06, 0.07, 0.08, 0.09, 0.10, 0.11, 0.5]), True),
        (np.array([0.2, 0.1, 0.3, 0.4, 0.5, 0.6, 0.7, 2.0]), False),
    ]
    for y, expected in witnesses:
        a = ch.in_region_roots(y, region)
        b = ch.in_region_solved(y)
        assert a == b == expected
    # boundary exclusion
    yb = np.zeros(8)
    yb[0] = np.pi / 6
    assert not ch.in_region_solved(yb)
    # archived million-sample report, stable across seeds within 3 sigma
    rep0 = ch.region_equivalence_report(1_000_000, 0, region)
    assert rep0["agreements"] == ARCHIVED_BOX_AGREEMENTS_SEED0
    assert abs(
        rep0["region_conditioned_chain_fraction"] - ARCHIVED_CONDITIONED_CHAIN_FRACTION_SEED0
    ) < 1e-12
    p = ARCHIVED_CONDITIONED_CHAIN_FRACTION_SEED0
    sigma = np.sqrt(p * (1 - p) / rep0["region_conditioned_samples"])
    for seed in (1, 2):
        r = ch.region_equivalence_report(1_000_000, seed, region)
        assert r["agreements"] == r["samples"]  # box comparison: full agreement
        assert abs(r["region_conditioned_chain_fraction"] - p) < 3 * sigma
    _ok(
        9,
        "witnesses agree; box agreement archived at 1.0; "
        f"region-conditioned chain fraction {p} stable across seeds (3 sigma)",
    )


def test_criterion_10_chart(engine, region):
    t0 = time.monotonic()
    g0 = engine.chart(ch.EulerPoint.zero())
    err0 = float(np.abs(g0 - np.eye(248)).max())
    assert err0 < 1e-12
    p = ch.random_euler_point(RANK_POINT_SEED, region, RANK_POINT_SPREAD)
    g = engine.chart(p)
    orth = float(np.abs(g.T @ g - np.eye(248)).max())
    assert orth < 1e-8
    kmat = -60.0 * np.eye(248)
    kerr = float(np.abs(g.T @ kmat @ g - kmat).max())
    assert kerr < 1e-8
    rank, svals, threshold = engine.chart_rank(p)
    gap = float(svals[247] / threshold)
    assert rank == 248
    assert gap >= 1e3
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _ok(
        10,
        f"chart(0)=I to {err0:.1e}; orthogonal {orth:.1e}; Killing {kerr:.1e}; "
        f"rank 248 with gap {gap:.0f} in {elapsed:.0f}s",
    )


def _run_cli(args, threads=None):
    env = dict(os.environ)
    if threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
    return subprocess.run(
        [sys.executable, "-m", "e8lie", *args], capture_output=True, env=env
    )


def test_criterion_11_reproducibility(tmp_path):
    payloads = {}
    for tag, threads in (("t1", 1), ("t2", 2), ("t1b", 1)):
        roots_path = str(tmp_path / f"roots-{tag}.json")
        verify_path = str(tmp_path / f"verify-{tag}.json")
        assert _run_cli(["roots", "--out", roots_path], threads=threads).returncode == 0
        assert (
            _run_cli(
                ["verify", "--suite", "spinor", "--out", verify_path], threads=threads
            ).returncode
            == 0
        )
        payloads[tag] = (
            open(roots_path, "rb").read(),
            open(verify_path, "rb").read(),
        )
    assert payloads["t1"] == payloads["t1b"] == payloads["t2"]
    _ok(11, "roots and verify artifacts byte-identical across runs and thread counts")
