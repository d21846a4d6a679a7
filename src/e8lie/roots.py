"""Root system of the algebra relative to the spinor Cartan set.

A generic combination A(t) = sum_a t_a ad(C_a) is diagonalized in floating
point (via the Hermitian matrix i*A) to find the 120 torus planes.  One
sparse apply of each Cartan axis gives the 8 rates of every plane, snapped
to exact half-integers after a small rational scale search, and everything
downstream is derived in exact integer arithmetic from one table: the
240 x 8 int64 array of snapped doubled roots.  Each row is also one integer
key (base 9), so positivity, simple roots, the highest root and its marks,
the Cartan matrix and root membership tests are array steps on that table.

One gauge: the snapped root set is always the standard E8 pattern, 112
integer roots with two entries +-1 plus 128 all-half-integer roots of a
fixed sign parity.  `build_root_system` fixes the delivered gauge once, on
the raw table: an optional sign flip of the last raw axis normalizes the
parity class, and the axes are then reversed.  Every result is an int64
array of doubled rows in that gauge; the simple roots take the
conventional rows

    a1 = 1/2 (1,-1,-1,-1,-1,-1,-1,1),  a2 = e1+e2,  a3 = e2-e1,
    a4 = e3-e2, ..., a8 = e7-e6,  highest = e7+e8,

with marks (2, 3, 4, 6, 5, 4, 3, 2).  The same step gives the torus-axis
map: torus axis a is axis_sign[a] * ad(basis element axis_flats[a]).

The torus decomposition is q, 248 x 248 (plane p in columns 2p, 2p+1,
torus axis a in column 240 + a), with the 120 x 8 plane roots and rates.
Each plane is oriented by its positive root, so the root rows are exactly
the positive roots and, for y inside the Euler range, every plane angle
<root, y> lies in (0, pi).  The same sparse apply certifies q on every
build: q is orthogonal and C_a q = q B_a, B_a the plane rotation rates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import DIM, AdjointRep, CartanSet

RANK = 8

# positivity functional weights (delivered gauge: the last axis weighs most)
_POS_WEIGHTS = 8 ** np.arange(RANK, dtype=np.int64)

# conventional simple rows (doubled coordinates, conventional order)
CONVENTIONAL_SIMPLES_DOUBLED = (
    (1, -1, -1, -1, -1, -1, -1, 1),
    (2, 2, 0, 0, 0, 0, 0, 0),
    (-2, 2, 0, 0, 0, 0, 0, 0),
    (0, -2, 2, 0, 0, 0, 0, 0),
    (0, 0, -2, 2, 0, 0, 0, 0),
    (0, 0, 0, -2, 2, 0, 0, 0),
    (0, 0, 0, 0, -2, 2, 0, 0),
    (0, 0, 0, 0, 0, -2, 2, 0),
)
CONVENTIONAL_HIGHEST_DOUBLED = (0, 0, 0, 0, 0, 0, 2, 2)


class RootExtractionError(Exception):
    pass


@dataclass
class RootSystem:
    """Root data as int64 arrays of doubled rows, all in the delivered gauge."""

    roots: np.ndarray                 # 240 x 8
    scale: Fraction
    positives: np.ndarray             # 120 x 8
    simples: np.ndarray               # 8 x 8, conventional order when aligned
    highest: np.ndarray               # 8
    cartan_matrix: np.ndarray         # 8 x 8
    marks: tuple[int, ...]
    axis_flats: tuple[int, ...]       # Cartan flat of each torus axis
    axis_sign: np.ndarray             # 8, sign of each torus axis generator
    conventional_labeling: bool       # delivered rows match the conventional ones
    literal_raw_match: bool           # raw snapped set already contained them
    q: np.ndarray                     # 248 x 248 orthogonal: planes, then torus axes
    rates: np.ndarray                 # 120 x 8 true rates, scale * plane_roots / 2
    plane_roots: np.ndarray           # 120 x 8, positive
    snap_residual: float


def _key(rows) -> np.ndarray:
    """One integer per doubled row (last axis); exact for entries in [-4, 4],
    so also for sums and differences of two roots."""
    return ((np.asarray(rows, dtype=np.int64) + 4) * 9 ** np.arange(RANK, dtype=np.int64)).sum(axis=-1)


def _isin(keys, table) -> np.ndarray:
    """np.isin(keys, table) for integer keys, by sorted search (np.isin on
    wide keys goes through np.unique, which imports numpy.ma)."""
    table = np.sort(table, axis=None)
    return table[np.searchsorted(table, keys).clip(max=table.size - 1)] == keys


# q columns 2p, 2p+1 (row p) carry torus plane p; fancy indices, so that a
# row mix reads copies of the rows it overwrites
PLANE_COLS = np.arange(240).reshape(120, 2)


def _deterministic_t(retry: int) -> np.ndarray:
    # exactly representable rationals, shifted deterministically on retry
    return np.array([1.0 / (100 + 7 * (a + 1) + 97 * retry) for a in range(RANK)])


def _planes(rep: AdjointRep, cartan: CartanSet, retry: int):
    """(q, cq, rates) for the retry's generic t, or None on an eigenvalue
    collision.  Plane p of q is (sqrt2 Re v, sqrt2 Im v) for the positive-
    rate eigenvector v of i*A(t); cq[a] = C_a q and rates[p, a] =
    q_2p . (C_a q)_2p+1 for raw axis a."""
    t = _deterministic_t(retry)
    a = sum(t[i] * (rep.dense(f) / 2.0) for i, f in enumerate(cartan.flats))
    evals, evecs = np.linalg.eigh(1j * a)
    kernel = np.abs(evals) < 1e-8
    if int(kernel.sum()) != RANK:
        raise RootExtractionError(f"kernel multiplicity {int(kernel.sum())} != 8 for t retry {retry}")
    if np.min(np.abs(np.diff(np.sort(evals[~kernel])))) < 1e-8:
        return None
    pos = ~kernel & (evals > 0)
    if int(pos.sum()) != 120:
        raise RootExtractionError("expected 120 positive-rate eigenplanes")
    v, (c1, c2) = evecs[:, pos], PLANE_COLS.T
    q = np.zeros((DIM, DIM))
    q[:, c1] = np.sqrt(2.0) * np.real(v)
    q[:, c2] = np.sqrt(2.0) * np.imag(v)
    q[list(cartan.flats[::-1]), range(240, DIM)] = 1.0  # the delivered axes
    # C_a q is one gather of the rows of q that the entries of C_a read,
    # added into the rows they write
    cq = np.empty((RANK, DIM * DIM))
    for i, f in enumerate(cartan.flats):
        rows, cols, vals = rep.entries(f)
        terms = (vals / 2.0)[:, None] * q[cols]
        cq[i] = np.bincount((rows[:, None] * DIM + np.arange(DIM)).ravel(), terms.ravel(), DIM * DIM)
    cq = cq.reshape(RANK, DIM, DIM)
    rates = np.einsum("ip,aip->pa", q[:, c1], cq[:, :, c2])
    return q, cq, rates


def _snap(rates: np.ndarray, tol: float):
    """Smallest admissible scale from {1/4, 1/2, 1, 2, 4} and snapped coords.

    Admissibility requires both a snap residual below tol and components in
    {0, +-1/2, +-1}; without the component bound the smallest scale would
    snap everything onto even integers and break the root pattern.
    """
    for num, den in ((1, 4), (1, 2), (1, 1), (2, 1), (4, 1)):
        s = num / den
        dbl = np.rint(2.0 * rates / s)
        resid = float(np.abs(rates / s - dbl / 2.0).max())
        if resid < tol and np.isin(dbl, (-2, -1, 0, 1, 2)).all():
            return Fraction(num, den), dbl.astype(np.int64), resid
    raise RootExtractionError("no admissible snapping scale in {1/4,1/2,1,2,4}")


def _certify(q: np.ndarray, cq: np.ndarray, axis_sign: np.ndarray, rates: np.ndarray) -> None:
    """q orthogonal and C_a q = q B_a for each torus axis a, where C_a q is
    axis_sign[a] cq[a], column 2p+1 of q B_a is rates[p, a] q_2p and column
    2p is -rates[p, a] q_2p+1 (zero on the Cartan columns)."""
    err_orth = np.abs(q.T @ q - np.eye(DIM)).max()
    if err_orth > 1e-12:
        raise RootExtractionError(f"decomposition basis not orthogonal: {err_orth:.2e}")
    c1, c2 = PLANE_COLS.T
    qb = np.zeros((DIM, DIM))
    for a in range(RANK):
        qb[:, c2] = q[:, c1] * rates[:, a]
        qb[:, c1] = -q[:, c2] * rates[:, a]
        err = np.abs(axis_sign[a] * cq[a] - qb).max()
        if err > 1e-10:
            raise RootExtractionError(f"block validation failed for axis {a}: {err:.2e}")


def choose_positive_and_simple(roots):
    """Positives by the weight functional; simples are the positives that are
    no difference of two positives.  Both are int64 row arrays in input order."""
    r = np.asarray(roots, dtype=np.int64)
    vals = r @ _POS_WEIGHTS
    if not vals.all():
        raise RootExtractionError("positivity functional tie")
    positives = r[vals > 0]
    diffs = positives[:, None, :] - positives[None, :, :]
    simples = positives[~_isin(_key(diffs), _key(positives)).any(axis=1)]
    if len(simples) != RANK:
        raise RootExtractionError(f"expected 8 simple roots, found {len(simples)}")
    return positives, simples


def cartan_matrix_of(simples_dbl) -> np.ndarray:
    """2 (a_i, a_j) / (a_j, a_j) with the Euclidean pairing; exact integers."""
    s = np.asarray(simples_dbl, dtype=np.int64)
    num = 2 * (s @ s.T)  # 8x the true Gram
    norms4 = np.diagonal(num) // 2
    if (num % norms4).any():
        raise RootExtractionError("non-integer Cartan matrix entry")
    c = num // norms4
    if not (np.diagonal(c) == 2).all():
        raise RootExtractionError("Cartan matrix diagonal is not all 2")
    return c


# the standard E8 Cartan matrix (Bourbaki labeling)
E8_CARTAN = np.array(
    [
        [2, 0, -1, 0, 0, 0, 0, 0],
        [0, 2, 0, -1, 0, 0, 0, 0],
        [-1, 0, 2, -1, 0, 0, 0, 0],
        [0, -1, -1, 2, -1, 0, 0, 0],
        [0, 0, 0, -1, 2, -1, 0, 0],
        [0, 0, 0, 0, -1, 2, -1, 0],
        [0, 0, 0, 0, 0, -1, 2, -1],
        [0, 0, 0, 0, 0, 0, -1, 2],
    ],
    dtype=np.int64,
)


def permutation_equivalent(c: np.ndarray, target: np.ndarray = E8_CARTAN) -> bool:
    """Simultaneous row/column permutation equivalence.

    Tries every bijection that maps each vertex of the Dynkin graph of c to a
    vertex of equal degree in that of target (144 of them for E8).
    """
    c, target = np.asarray(c), np.asarray(target)
    cdeg, tdeg = (c != 0).sum(axis=1), (target != 0).sum(axis=1)
    if sorted(cdeg) != sorted(tdeg):
        return False
    degrees = sorted(set(cdeg.tolist()))
    perm = np.empty(len(cdeg), dtype=np.int64)
    for images in itertools.product(*(itertools.permutations(np.flatnonzero(tdeg == d)) for d in degrees)):
        for d, image in zip(degrees, images):
            perm[cdeg == d] = image
        if (target[np.ix_(perm, perm)] == c).all():
            return True
    return False


def highest_root_and_marks(positives, simples):
    """The unique positive root with r + a_i never a root, and its marks."""
    pos, s = np.asarray(positives, dtype=np.int64), np.asarray(simples, dtype=np.int64)
    root_keys = np.r_[_key(pos), _key(-pos)]
    tops = pos[~_isin(_key(pos[:, None, :] + s[None, :, :]), root_keys).any(axis=1)]
    if len(tops) != 1:
        raise RootExtractionError(f"highest root not unique: {len(tops)} candidates")
    high = tops[0]
    marks = np.rint(np.linalg.solve(s.T.astype(np.float64), high.astype(np.float64))).astype(np.int64)
    # exact verification of the solve
    if not np.array_equal(marks @ s, high):
        raise RootExtractionError("marks do not reproduce the highest root exactly")
    if (marks <= 0).any():
        raise RootExtractionError("marks must be positive")
    return high, tuple(int(m) for m in marks)


def weyl_reflection_closure(roots) -> bool:
    """s_a(b) = b - <a,b> a is a root for all pairs (full brute force)."""
    arr = np.asarray(roots, dtype=np.int64)
    pair4 = arr @ arr.T  # 4x true pairings
    if (pair4 % 4).any():
        return False
    # reflected[i, j] = s_{a_i}(a_j); all roots have norm 2 here
    reflected = arr[None, :, :] - (pair4 // 4)[:, :, None] * arr[:, None, :]
    # a row outside [-2, 2] is no root (and would leave the exact key range)
    return bool((np.abs(reflected) <= 2).all() and _isin(_key(reflected), _key(arr)).all())


def build_root_system(rep: AdjointRep, cartan: CartanSet, tol: float = 1e-9) -> RootSystem:
    """Full pipeline: planes, snap, orient, choose simples, align, certify."""
    for retry in range(8):
        got = _planes(rep, cartan, retry)
        if got is not None:
            break
    else:
        raise RootExtractionError("no non-degenerate generic t found")
    q, cq, raw_rates = got
    scale, plane_dbl, resid = _snap(raw_rates, tol)
    # the raw table in eigenvalue order: the conjugate planes, then the planes
    dbl = np.r_[-plane_dbl[::-1], plane_dbl]
    keys = _key(dbl)
    distinct = 1 + np.count_nonzero(np.diff(np.sort(keys)))
    if distinct != 240:
        raise RootExtractionError(f"expected 240 distinct roots, got {distinct}")
    if not _isin(_key(-dbl), keys).all():
        raise RootExtractionError("root set not closed under negation")

    # parity normalization: flip the last axis if the half-integer class is odd
    half = (np.abs(dbl) == 1).all(axis=1)
    if half.sum() != 128:
        raise RootExtractionError("expected 128 half-integer-type roots")
    parity = (dbl[half] < 0).sum(axis=1) % 2
    if (parity != parity[0]).any():
        raise RootExtractionError("half-integer roots are not a single parity class")
    signs = np.ones(RANK, dtype=np.int64)
    signs[-1] = 1 - 2 * parity[0]

    conventional = np.array(CONVENTIONAL_SIMPLES_DOUBLED, dtype=np.int64)
    literal_raw_match = bool(_isin(_key(conventional), _key(dbl)).all())

    # the one gauge step: parity signs on the raw axes, then the axes reversed
    roots = (dbl * signs)[:, ::-1]
    axis_flats, axis_sign = cartan.flats[::-1], signs[::-1]
    positives, simples = choose_positive_and_simple(roots)
    conventional_labeling = bool(_isin(_key(simples), _key(conventional)).all())
    if conventional_labeling:
        simples = conventional
    else:
        simples = simples[np.argsort(simples @ _POS_WEIGHTS)]
    high, marks = highest_root_and_marks(positives, simples)

    # where a plane's root is negative, negate its second column and its
    # root, so every plane carries its positive root; then certify q
    # against the true rates on the torus axes of the delivered gauge
    orient = np.where(roots[120:] @ _POS_WEIGHTS > 0, 1, -1)
    c2 = PLANE_COLS[:, 1]
    q[:, c2] *= orient
    cq[:, :, c2] *= orient
    plane_roots = orient[:, None] * roots[120:]
    rates = float(scale) * plane_roots.astype(np.float64) / 2.0
    _certify(q, cq[::-1], axis_sign, rates)

    return RootSystem(
        roots=roots,
        scale=scale,
        positives=positives,
        simples=simples,
        highest=high,
        cartan_matrix=cartan_matrix_of(simples),
        marks=marks,
        axis_flats=axis_flats,
        axis_sign=axis_sign,
        conventional_labeling=conventional_labeling,
        literal_raw_match=literal_raw_match,
        q=q,
        rates=rates,
        plane_roots=plane_roots,
        snap_residual=resid,
    )
