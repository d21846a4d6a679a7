"""Generalized Euler chart of the group: S(x) . exp(sum y_a C_a) . S(z).

Provides the torus fundamental-domain predicates (both the nine root-form
inequalities built from the delivered simple/highest roots and the solved
chain form with its literal constants), their Monte-Carlo equivalence
report (run BLOCK points at a time, drawing the same stream as one draw of
all points, so its memory does not grow with the sample count), uniform
sampling of the region, a fast torus exponential through the root-plane
decomposition that `build_root_system` certifies (`RootSystem.q` and
`.rates`), the ordered product chart of the subgroup factor, and the exact
chart Jacobian with its rank.

Boundary convention everywhere: lower bounds inclusive, upper exclusive.

The y coordinates follow the root-system gauge: the a-th torus direction is
axis_sign[a] * ad(basis element axis_flats[a]), so the region rows are the
delivered simple roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import DIM, NV, AdjointRep
from .roots import PLANE_COLS, RANK, RootSystem

PI = math.pi
BLOCK = 1 << 16  # rows per block of region_equivalence_report


# ---------------------------------------------------------------------------
# torus region

@dataclass(frozen=True)
class TorusRegion:
    """The nine half-open inequalities 0 <= <row, y> < pi."""

    simple_rows: np.ndarray   # 8 x 8, true coordinates
    highest_row: np.ndarray   # 8, true coordinates
    marks: tuple[int, ...]

    @classmethod
    def from_root_system(cls, rs: RootSystem) -> "TorusRegion":
        return cls(simple_rows=rs.simples / 2, highest_row=rs.highest / 2, marks=rs.marks)

    def all_rows(self) -> np.ndarray:
        return np.vstack([self.simple_rows, self.highest_row[None, :]])


def in_region_roots(y, region: TorusRegion) -> bool:
    """True iff all nine constraints 0 <= <row, y> < pi hold."""
    return bool(in_region_roots_batch(np.asarray(y, dtype=np.float64)[None, :], region)[0])


def in_region_roots_batch(ys: np.ndarray, region: TorusRegion) -> np.ndarray:
    vals = np.asarray(ys, dtype=np.float64) @ region.all_rows().T
    return np.logical_and((vals >= 0.0).all(axis=1), (vals < PI).all(axis=1))


def in_region_solved(y) -> bool:
    """The solved chain form, with its bounds exactly as conventionally printed."""
    return bool(in_region_solved_batch(np.asarray(y, dtype=np.float64)[None, :])[0])


def in_region_solved_batch(ys: np.ndarray) -> np.ndarray:
    y1, y2, y3, y4, y5, y6, y7, y8 = np.asarray(ys, dtype=np.float64).T
    ok = (0.0 <= y1) & (y1 < PI / 6)
    ok &= (y1 <= y2) & (y2 < (PI + y1) / 7)
    ok &= (y2 <= y3) & (y3 < (PI + y1 - y2) / 6)
    ok &= (y3 <= y4) & (y4 < (PI + y1 - y2 - y3) / 5)
    ok &= (y4 <= y5) & (y5 < (PI + y1 - y2 - y3 - y4) / 4)
    ok &= (y5 <= y6) & (y6 < (PI + y1 - y2 - y3 - y4 - y5) / 3)
    ok &= (y6 <= y7) & (y7 < (PI + y1 - y2 - y3 - y4 - y5 - y6) / 2)
    ok &= (-y1 + y2 + y3 + y4 + y5 + y6 + y7 <= y8) & (y8 < PI - y7)
    return ok


def region_equivalence_report(n: int, seed: int, region: TorusRegion) -> dict:
    """Monte-Carlo comparison of the two membership predicates.

    Draws n >= 1 points from the chain-derived bounding box
    [0, pi/6) x [0, pi]^7 padded by 10% in both directions, evaluates both
    predicates, and reports agreement counts plus up to 100 disagreement
    witnesses.  Disagreement is report content, not failure.

    The points are drawn and tested BLOCK rows at a time, so memory does not
    grow with n; the generator yields the same stream as one draw of all n
    points, so the report is that of the one-shot comparison.
    """
    if n < 1:
        raise ValueError(f"the report needs at least one sample, got {n}")
    rng = np.random.default_rng(seed)
    hi = np.array([PI / 6] + [PI] * 7)
    pad = 0.1 * hi
    counts = np.zeros(4, dtype=np.int64)  # both, roots only, chain only, neither
    witnesses = []
    for lo in range(0, n, BLOCK):
        ys = rng.uniform(-pad, hi + pad, size=(min(BLOCK, n - lo), 8))
        a = in_region_roots_batch(ys, region)
        b = in_region_solved_batch(ys)
        counts += np.bincount(2 * ~a + ~b, minlength=4)
        if len(witnesses) < 100:
            witnesses += ys[a != b][:100 - len(witnesses)].tolist()
    both, roots_only, chain_only, neither = counts
    agreements = both + neither
    # the region fills ~1e-8 of the box, so the box comparison is nearly
    # vacuous; also compare on points drawn from the root-form region itself,
    # where the two systems genuinely differ (the chain adds 0 <= y1)
    cond = sample_region(rng, region, min(n, 100_000))
    cond_chain = in_region_solved_batch(cond)
    return {
        "samples": int(n),
        "seed": int(seed),
        "agreements": int(agreements),
        "agreement_fraction": float(agreements / n),
        "both_true": int(both),
        "roots_only": int(roots_only),
        "chain_only": int(chain_only),
        "region_conditioned_samples": int(cond.shape[0]),
        "region_conditioned_chain_fraction": float(cond_chain.mean()),
        "disagreement_witnesses": witnesses,
    }


def region_vertices(region: TorusRegion) -> np.ndarray:
    """The 9 vertices of the region simplex: 0 and pi * w_i / n_i.

    w_i is the dual basis to the simple rows (solve of an 8x8 system) and
    n_i the marks; each nonzero vertex saturates the highest-root facet.
    """
    dual = np.linalg.inv(region.simple_rows)  # columns are the dual basis
    verts = np.zeros((9, 8))
    verts[1:] = (PI * dual / region.marks).T
    return verts


def sample_region(seed_or_rng, region: TorusRegion, n: int | None = None) -> np.ndarray:
    """Uniform samples from the region, deterministic given the seed.

    The region is the simplex spanned by the 9 vertices of
    `region_vertices`, so exact uniform sampling uses Dirichlet(1,...,1)
    barycentric weights.  (Rejection from the bounding box is hopeless here:
    the simplex fills ~1e-8 of the box, so any practical rejection budget
    would essentially always be exhausted.)
    """
    rng = np.random.default_rng(seed_or_rng)  # a Generator passes through
    verts = region_vertices(region)
    m = 1 if n is None else int(n)
    # the first round is the output (the weights die after the product);
    # points numerically on a facet can evaluate a hair outside the
    # half-open constraints, so redraw those rows (a measure-zero event)
    out = rng.dirichlet(np.ones(9), size=m) @ verts
    pending = np.flatnonzero(~in_region_roots_batch(out, region))
    while pending.size:
        cand = rng.dirichlet(np.ones(9), size=pending.size) @ verts
        ok = in_region_roots_batch(cand, region)
        out[pending[ok]] = cand[ok]
        pending = pending[~ok]
    return out[0] if n is None else out


# ---------------------------------------------------------------------------
# torus and subgroup exponentials

def _rotate_rows(g: np.ndarray, i1, i2, theta) -> None:
    """g <- exp(A) @ g in place, where A is theta[p] at (i1[p], i2[p]),
    -theta[p] at (i2[p], i1[p]) and zero elsewhere (disjoint planes)."""
    ct = np.cos(theta)[:, None]
    st = np.sin(theta)[:, None]
    a1 = g[i1]
    a2 = g[i2]
    g[i1] = ct * a1 + st * a2
    g[i2] = -st * a1 + ct * a2


def torus_element(y, rs: RootSystem) -> np.ndarray:
    """exp(sum_a y_a C'_a) through plane rotations; exactly orthogonal blocks."""
    theta = rs.rates @ np.asarray(y, dtype=np.float64)
    w = rs.q.T.copy()
    _rotate_rows(w, *PLANE_COLS.T, theta)
    return rs.q @ w


# ---------------------------------------------------------------------------
# subgroup factor and the chart

@dataclass(frozen=True)
class EulerPoint:
    x: np.ndarray  # 120
    y: np.ndarray  # 8
    z: np.ndarray  # 120

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.float64))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.float64))
        object.__setattr__(self, "z", np.asarray(self.z, dtype=np.float64))
        if self.x.shape != (NV,) or self.y.shape != (RANK,) or self.z.shape != (NV,):
            raise ValueError("EulerPoint needs x[120], y[8], z[120]")

    @classmethod
    def zero(cls) -> "EulerPoint":
        return cls(np.zeros(NV), np.zeros(RANK), np.zeros(NV))


class ChartEngine:
    """Precomputed data for fast chart evaluation.

    Each vector generator decomposes the space into disjoint rotation
    2-planes (rate 1 on the 28 paired vector directions, rate 1/2 on the 64
    paired spinor directions), so every one-parameter factor exp(x ad(J)) is
    applied as an exact plane-rotation row mix instead of a dense matrix
    exponential.
    """

    def __init__(self, rep: AdjointRep, rs: RootSystem):
        self.root_system = rs
        self._gen_planes = []
        for k in range(NV):
            rows, cols, vals = rep.entries(k)
            up = rows < cols
            # ad[row, col] = m, the true coefficient, and ad[col, row] = -m
            self._gen_planes.append((rows[up], cols[up], vals[up] / 2.0))

    def _subgroup_sweep(self, x: np.ndarray, g: np.ndarray, seen=None) -> np.ndarray:
        """g <- S(x) @ g in place, one factor exp(x_k ad(J_k)) at a time from
        the right.  If given, seen[k] receives row k of g just before factor
        k is applied, i.e. of the factors to its right times the input g."""
        for k in range(NV - 1, -1, -1):
            if seen is not None:
                seen[k] = g[k]
            if x[k] != 0.0:
                rows, cols, m = self._gen_planes[k]
                _rotate_rows(g, rows, cols, m * float(x[k]))
        return g

    def subgroup_element(self, x) -> np.ndarray:
        """Ordered product prod_k exp(x_k ad(J_k)) over the lexicographic pairs."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (NV,):
            raise ValueError("subgroup factor needs 120 coordinates")
        return self._subgroup_sweep(x, np.eye(DIM))

    def torus_element(self, y) -> np.ndarray:
        return torus_element(y, self.root_system)

    def chart(self, p: EulerPoint) -> np.ndarray:
        """S(x) @ exp(sum y_a C'_a) @ S(z)."""
        return self.subgroup_element(p.x) @ self.torus_element(p.y) @ self.subgroup_element(p.z)

    def chart_jacobian(self, p: EulerPoint) -> np.ndarray:
        """Exact left-trivialised Jacobian g^-1 dg of the chart, times sqrt(60).

        Column j (coordinates x, y, z in that order) is the algebra vector of
        g^-1 dg/dc_j.  For a factor exp(t ad(b_k)) followed by the product R
        of the factors to its right it is R^T e_k, row k of R; a torus axis
        commutes with its own factor, so its R is S(z).  One backward sweep
        (the z factors, the torus, the x factors) builds every R.  With the
        Killing form -60 I, |g ad(v)|_F = sqrt(60) |v|: the singular values
        are those of the derivative of the 248 x 248 entries of the chart.
        """
        rs = self.root_system
        cols = np.empty((DIM, DIM))  # row j is column j
        r = self._subgroup_sweep(p.z, np.eye(DIM), cols[NV + RANK:])
        cols[NV:NV + RANK] = rs.axis_sign[:, None] * r[list(rs.axis_flats)]
        self._subgroup_sweep(p.x, self.torus_element(p.y) @ r, cols[:NV])
        return math.sqrt(60.0) * cols.T

    def chart_rank(self, p: EulerPoint):
        """Numerical rank with threshold (largest singular value) * 1e-6.

        Returns (rank, singular values, threshold).
        """
        svals = np.linalg.svd(self.chart_jacobian(p), compute_uv=False)
        threshold = svals[0] * 1e-6
        rank = int((svals > threshold).sum())
        return rank, svals, threshold


def random_euler_point(seed: int, region: TorusRegion, spread: float = 0.6) -> EulerPoint:
    """A generic chart point: uniform subgroup coordinates, in-region y."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-spread, spread, NV)
    z = rng.uniform(-spread, spread, NV)
    y = sample_region(rng, region)
    return EulerPoint(x, y, z)
