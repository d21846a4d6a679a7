"""Root system of the algebra relative to the spinor Cartan set.

A generic combination A(t) = sum_a t_a ad(C_a) is diagonalized in floating
point (via the Hermitian matrix i*A), the 8 Rayleigh rates of every root
vector are snapped to exact half-integers after a small rational scale
search, and everything downstream is derived in exact integer arithmetic
from one table: the 240 x 8 int64 array of snapped doubled roots.  Each row
is also one integer key (base 9), so positivity, simple roots, the highest
root and its marks, the Cartan matrix and root membership tests are array
steps on that table.

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

The 120 torus planes are two arrays: a 248 x 240 orthonormal basis (plane p
in columns 2p, 2p+1) and a 120 x 8 table of their roots.  Each plane is
oriented by its positive root, so the root rows are exactly the positive
roots and, for y inside the Euler range, every plane angle <root, y> lies
in (0, pi).
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
    plane_basis: np.ndarray           # 248 x 240, plane p in columns 2p, 2p+1
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


def _deterministic_t(retry: int) -> np.ndarray:
    # exactly representable rationals, shifted deterministically on retry
    return np.array([1.0 / (100 + 7 * (a + 1) + 97 * retry) for a in range(RANK)])


def _eigen_rates(cartan, tol, retry):
    """Joint eigenvalue rates of the Cartan action for one generic t.

    cartan holds the 8 Cartan generators (true values) as dense matrices.
    """
    t = _deterministic_t(retry)
    a = sum(t[i] * cartan[i] for i in range(RANK))
    evals, evecs = np.linalg.eigh(1j * a)
    kernel = np.abs(evals) < 1e-8
    if int(kernel.sum()) != RANK:
        raise RootExtractionError(f"kernel multiplicity {int(kernel.sum())} != 8 for t retry {retry}")
    nz = np.flatnonzero(~kernel)
    lam = evals[nz]
    gaps = np.diff(np.sort(lam))
    if np.min(np.abs(gaps)) < 1e-8:
        return None  # eigenvalue collision: caller retries with the next t
    # Rayleigh rates Im(v^H C_i v) of every eigenvector, one product per C_i
    v = evecs[:, nz]
    rates = np.stack([np.imag(np.sum(v.conj() * (c @ v), axis=0)) for c in cartan], axis=1)
    return rates, v, lam


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


def _extract(c: CartanSet, rep: AdjointRep, tol: float):
    cartan = [rep.dense(f) / 2.0 for f in c.flats]
    for retry in range(8):
        got = _eigen_rates(cartan, tol, retry)
        if got is not None:
            break
    else:
        raise RootExtractionError("no non-degenerate generic t found")
    rates, vecs, lam = got
    scale, dbl, resid = _snap(rates, tol)
    keys = _key(dbl)
    distinct = 1 + np.count_nonzero(np.diff(np.sort(keys)))
    if distinct != 240:
        raise RootExtractionError(f"expected 240 distinct roots, got {distinct}")
    if not _isin(_key(-dbl), keys).all():
        raise RootExtractionError("root set not closed under negation")
    return {"dbl": dbl, "scale": scale, "vecs": vecs, "lam": lam, "resid": resid}


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
    """Full pipeline: snap, orient, choose simples, align, certify."""
    data = _extract(cartan, rep, tol)
    dbl = data["dbl"]

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

    # torus planes: the positive-rate member v of each conjugate eigenvector
    # pair spans (sqrt2 Re v, sqrt2 Im v); where its root is negative, negate
    # the second column and the root, so every plane carries its positive root
    vecs, lam = data["vecs"], data["lam"]
    pos_cols = np.flatnonzero(lam > 0)
    if pos_cols.size != 120:
        raise RootExtractionError("expected 120 positive-rate eigenplanes")
    orient = np.where(roots[pos_cols] @ _POS_WEIGHTS > 0, 1, -1)
    v = vecs[:, pos_cols]
    plane_basis = np.empty((DIM, 240))
    plane_basis[:, 0::2] = np.sqrt(2.0) * np.real(v)
    plane_basis[:, 1::2] = orient * (np.sqrt(2.0) * np.imag(v))

    return RootSystem(
        roots=roots,
        scale=data["scale"],
        positives=positives,
        simples=simples,
        highest=high,
        cartan_matrix=cartan_matrix_of(simples),
        marks=marks,
        axis_flats=axis_flats,
        axis_sign=axis_sign,
        conventional_labeling=conventional_labeling,
        literal_raw_match=literal_raw_match,
        plane_basis=plane_basis,
        plane_roots=orient[:, None] * roots[pos_cols],
        snap_residual=data["resid"],
    )
