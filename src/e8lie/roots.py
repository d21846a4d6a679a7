"""Root system of the algebra relative to the spinor Cartan set.

A generic combination A(t) = sum_a t_a ad(C_a) is diagonalized in floating
point (via the Hermitian matrix i*A), the 8 Rayleigh rates of every root
vector are snapped to exact half-integers after a small rational scale
search, and all downstream structure (positivity, simple roots, Cartan
matrix, highest root, marks, Weyl closure) is recomputed and certified in
exact integer arithmetic on the snapped data.

Coordinate labeling: the snapped root set is always the standard E8
pattern, 112 integer roots with two entries +-1 plus 128 all-half-integer
roots of a fixed sign parity.  The module records a signed axis relabeling
(an optional single sign flip to normalize the parity class, followed by a
coordinate reversal) under which the simple roots delivered downstream
take the conventional rows

    a1 = 1/2 (1,-1,-1,-1,-1,-1,-1,1),  a2 = e1+e2,  a3 = e2-e1,
    a4 = e3-e2, ..., a8 = e7-e6,  highest = e7+e8,

with marks (2, 3, 4, 6, 5, 4, 3, 2).  The recorded labeling applies to the
Cartan basis order used by the torus chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import DIM, NV, NS, AdjointRep, CartanSet

RANK = 8

# positivity functional weights (applied to the working gauge)
_POS_WEIGHTS = tuple(8 ** (7 - a) for a in range(8))

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


@dataclass(frozen=True)
class Root:
    """An 8-vector of half-integers, stored doubled."""

    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != RANK:
            raise ValueError("root must have 8 components")
        if all(c == 0 for c in self.coords):
            raise ValueError("root cannot be zero")
        if any(c not in (-2, -1, 0, 1, 2) for c in self.coords):
            raise ValueError("root components must lie in {0, +-1/2, +-1}")

    def true(self) -> tuple[float, ...]:
        return tuple(c / 2.0 for c in self.coords)

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coords))

    def is_integer_type(self) -> bool:
        return all(c % 2 == 0 for c in self.coords)


@dataclass(frozen=True)
class Plane:
    """A rotation 2-plane of the torus action, carrying its root."""

    root: Root               # final-gauge coordinates
    basis: np.ndarray        # 248 x 2 real orthonormal columns


@dataclass
class RootSystem:
    roots: list[Root]                 # 240, final gauge
    scale: Fraction
    positives: list[Root]             # 120, final gauge
    simples: list[Root]               # 8, conventional order when aligned
    highest: Root
    cartan_matrix: np.ndarray         # 8 x 8 int
    marks: tuple[int, ...]
    axis_signs: tuple[int, ...]       # parity-normalizing signs per raw axis
    axis_reversed: bool               # recorded relabeling: coordinate reversal
    conventional_labeling: bool       # delivered rows match the conventional ones
    literal_raw_match: bool           # raw snapped set already contained them
    planes: list[Plane]               # 120 torus planes, final-gauge roots
    fixed_flats: tuple[int, ...]      # flat indices spanning the Cartan
    snap_residual: float


def _deterministic_t(retry: int) -> np.ndarray:
    # exactly representable rationals, shifted deterministically on retry
    return np.array([1.0 / (100 + 7 * (a + 1) + 97 * retry) for a in range(RANK)])


def _eigen_rates(cartan_floats, tol, retry):
    """Joint eigenvalue rates of the Cartan action for one generic t."""
    t = _deterministic_t(retry)
    a = sum(t[i] * cartan_floats[i] for i in range(RANK))
    evals, evecs = np.linalg.eigh(1j * a)
    kernel = np.abs(evals) < 1e-8
    if int(kernel.sum()) != RANK:
        raise RootExtractionError(
            f"kernel multiplicity {int(kernel.sum())} != 8 for t retry {retry}"
        )
    nz = np.flatnonzero(~kernel)
    lam = evals[nz]
    gaps = np.diff(np.sort(lam))
    if np.min(np.abs(gaps)) < 1e-8:
        return None  # eigenvalue collision: caller retries with the next t
    # Rayleigh rates Im(v^H C_i v) of every eigenvector, one product per C_i
    v = evecs[:, nz]
    rates = np.stack([np.imag(np.sum(v.conj() * (c @ v), axis=0)) for c in cartan_floats], axis=1)
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
    cartan_floats = [np.asarray(rep.mats[f].todense(), dtype=np.float64) / 2.0 for f in c.flats]
    got = None
    for retry in range(8):
        got = _eigen_rates(cartan_floats, tol, retry)
        if got is not None:
            break
    if got is None:
        raise RootExtractionError("no non-degenerate generic t found")
    rates, vecs, lam = got
    scale, dbl, resid = _snap(rates, tol)
    roots = {tuple(r) for r in dbl.tolist()}
    if len(roots) != 240:
        raise RootExtractionError(f"expected 240 distinct roots, got {len(roots)}")
    for r in roots:
        if tuple(-x for x in r) not in roots:
            raise RootExtractionError("root set not closed under negation")
    return {
        "dbl": dbl,
        "scale": scale,
        "vecs": vecs,
        "lam": lam,
        "resid": resid,
        "cartan_floats": cartan_floats,
    }


def positivity_value(dbl_coords) -> int:
    """Deterministic positivity functional on doubled coordinates (no ties)."""
    return sum(int(w) * int(x) for w, x in zip(_POS_WEIGHTS, dbl_coords))


def choose_positive_and_simple(roots: list[tuple[int, ...]]):
    """Positives by the weight functional; simples by two-sum elimination."""
    vals = {r: positivity_value(r) for r in roots}
    if any(v == 0 for v in vals.values()):
        raise RootExtractionError("positivity functional tie")
    positives = [r for r in roots if vals[r] > 0]
    pos_set = set(positives)
    simples = []
    for r in positives:
        ra = np.array(r)
        if not any(tuple(ra - np.array(p)) in pos_set for p in positives):
            simples.append(r)
    if len(simples) != RANK:
        raise RootExtractionError(f"expected 8 simple roots, found {len(simples)}")
    return positives, simples


def cartan_matrix_of(simples_dbl: list[tuple[int, ...]]) -> np.ndarray:
    """2 (a_i, a_j) / (a_j, a_j) with the Euclidean pairing; exact integers."""
    s = np.array(simples_dbl, dtype=np.int64)
    gram4 = s @ s.T  # 4x the true Gram
    norms4 = np.diagonal(gram4)
    c = np.empty((RANK, RANK), dtype=np.int64)
    for i in range(RANK):
        for j in range(RANK):
            num = 2 * int(gram4[i, j])
            if num % int(norms4[j]):
                raise RootExtractionError("non-integer Cartan matrix entry")
            c[i, j] = num // int(norms4[j])
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
    """Simultaneous row/column permutation equivalence by backtracking.

    Matches vertices of the two Dynkin graphs degree-first; the 8x8 case
    finishes instantly.
    """
    n = c.shape[0]

    def deg(m, i):
        return int((m[i] != 0).sum()) - 1

    cdeg = [deg(c, i) for i in range(n)]
    tdeg = [deg(target, i) for i in range(n)]
    if sorted(cdeg) != sorted(tdeg):
        return False

    assignment = [-1] * n
    used = [False] * n

    def ok(i, j):
        for i2 in range(n):
            j2 = assignment[i2]
            if j2 >= 0:
                if c[i, i2] != target[j, j2] or c[i2, i] != target[j2, j]:
                    return False
        return True

    def rec(i):
        if i == n:
            return True
        for j in range(n):
            if not used[j] and cdeg[i] == tdeg[j] and ok(i, j):
                assignment[i] = j
                used[j] = True
                if rec(i + 1):
                    return True
                assignment[i] = -1
                used[j] = False
        return False

    return rec(0)


def highest_root_and_marks(positives, simples):
    """The unique positive root with r + a_i never a root, and its marks."""
    pos_set = set(positives)
    all_roots = pos_set | {tuple(-np.array(r)) for r in positives}
    tops = [
        r
        for r in positives
        if all(tuple(np.array(r) + np.array(s)) not in all_roots for s in simples)
    ]
    if len(tops) != 1:
        raise RootExtractionError(f"highest root not unique: {len(tops)} candidates")
    high = tops[0]
    smat = np.array(simples, dtype=np.float64).T
    n = np.linalg.solve(smat, np.array(high, dtype=np.float64))
    marks = tuple(int(round(x)) for x in n)
    # exact verification of the solve
    recon = sum(m * np.array(s, dtype=np.int64) for m, s in zip(marks, simples))
    if not np.array_equal(recon, np.array(high, dtype=np.int64)):
        raise RootExtractionError("marks do not reproduce the highest root exactly")
    if any(m <= 0 for m in marks):
        raise RootExtractionError("marks must be positive")
    return high, marks


def decompose_in_simples(root_dbl, simples) -> tuple[int, ...]:
    """Exact integer coefficients of a root over the simple roots."""
    smat = np.array(simples, dtype=np.float64).T
    n = np.linalg.solve(smat, np.array(root_dbl, dtype=np.float64))
    coeff = tuple(int(round(x)) for x in n)
    recon = sum(m * np.array(s, dtype=np.int64) for m, s in zip(coeff, simples))
    if not np.array_equal(recon, np.array(root_dbl, dtype=np.int64)):
        raise RootExtractionError("root is not an integer combination of simples")
    return coeff


def weyl_reflection_closure(roots: list[tuple[int, ...]]) -> bool:
    """s_a(b) = b - <a,b> a is a root for all pairs (full brute force)."""
    arr = np.array(roots, dtype=np.int64)
    rset = {tuple(r) for r in roots}
    pair4 = arr @ arr.T  # 4x true pairings
    if (pair4 % 4).any():
        return False
    pair = pair4 // 4  # true pairings; all roots have norm 2 here
    for i in range(len(roots)):
        reflected = arr - pair[i][:, None] * arr[i][None, :]
        for row in reflected:
            if tuple(row) not in rset:
                return False
    return True


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


def build_root_system(rep: AdjointRep, cartan: CartanSet, tol: float = 1e-9) -> RootSystem:
    """Full pipeline: snap, orient, choose simples, align, certify."""
    data = _extract(cartan, rep, tol)
    dbl = data["dbl"]

    # parity normalization: flip the last axis if the half-integer class is odd
    half_rows = [r for r in dbl.tolist() if all(abs(x) == 1 for x in r)]
    if len(half_rows) != 128:
        raise RootExtractionError("expected 128 half-integer-type roots")
    parities = {sum(1 for x in r if x < 0) % 2 for r in half_rows}
    if len(parities) != 1:
        raise RootExtractionError("half-integer roots are not a single parity class")
    axis_signs = [1] * RANK
    if parities.pop() == 1:
        axis_signs[-1] = -1
    signs = np.array(axis_signs, dtype=np.int64)

    literal_raw_match = set(CONVENTIONAL_SIMPLES_DOUBLED) <= {
        tuple(r) for r in dbl.tolist()
    }

    fixed = [tuple(r) for r in (dbl * signs[None, :]).tolist()]
    positives, simples = choose_positive_and_simple(fixed)
    high, _ = highest_root_and_marks(positives, simples)

    # recorded relabeling: reverse the axis order
    rev = lambda r: tuple(reversed(r))
    delivered_set = {rev(r) for r in simples}
    conventional_labeling = delivered_set == set(CONVENTIONAL_SIMPLES_DOUBLED)
    if conventional_labeling:
        delivered_simples = [tuple(r) for r in CONVENTIONAL_SIMPLES_DOUBLED]
    else:
        delivered_simples = sorted(delivered_set, key=positivity_value)
    delivered_positives = [rev(r) for r in positives]
    delivered_roots = [rev(r) for r in fixed]
    delivered_high = rev(high)

    cmat = cartan_matrix_of(delivered_simples)
    high2, marks = highest_root_and_marks(delivered_positives, delivered_simples)
    if high2 != delivered_high:
        raise RootExtractionError("highest root changed under relabeling")

    # final-gauge plane data for the torus decomposition: keep the positive-rate
    # member of each conjugate eigenvector pair
    vecs, lam = data["vecs"], data["lam"]
    planes = []
    pos_cols = np.flatnonzero(lam > 0)
    if pos_cols.size != 120:
        raise RootExtractionError("expected 120 positive-rate eigenplanes")
    for col in pos_cols:
        v = vecs[:, col]
        raw = dbl[col]
        final = rev(tuple((raw * signs).tolist()))
        q = np.empty((DIM, 2))
        q[:, 0] = np.sqrt(2.0) * np.real(v)
        q[:, 1] = np.sqrt(2.0) * np.imag(v)
        planes.append(Plane(root=Root(final), basis=q))

    return RootSystem(
        roots=[Root(r) for r in delivered_roots],
        scale=data["scale"],
        positives=[Root(r) for r in delivered_positives],
        simples=[Root(r) for r in delivered_simples],
        highest=Root(delivered_high),
        cartan_matrix=cmat,
        marks=marks,
        axis_signs=tuple(int(s) for s in signs),
        axis_reversed=True,
        conventional_labeling=conventional_labeling,
        literal_raw_match=literal_raw_match,
        planes=planes,
        fixed_flats=cartan.flats,
        snap_residual=data["resid"],
    )
