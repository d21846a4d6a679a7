"""Gamma blocks of the Majorana-Weyl representation of Spin(16).

The sixteen 128x128 chirality blocks Sigma_i are built by tensoring two
copies of the octonionic Hurwitz family: octonion left multiplications give
seven anticommuting antisymmetric complex structures on R^8, those extend
to the eight symmetric 16x16 gamma matrices of the 8-dimensional Clifford
algebra, and two such systems combine into sixteen symmetric 256x256 gamma
matrices whose chirality splitting is diagonal in the tensor basis.

All factors are signed permutations, so the blocks and the generators
Delta_ij are built and checked as permutation arrays: int64 pairs
(perm, sign) with M[r, perm[r]] = sign[r], stacked along leading axes.
perm_decode is the one decoder from dense arrays.  Sigma_i and Delta_ij
are both kept only as arrays and made dense HalfIntMatrix on first access;
the dense halfint kernel is the independent oracle of the tests.

Correctness is defined by the machine-checked invariants (signed
permutation shape and the two anticommutation families), not by any
particular convention; `build_gamma_system` verifies them and aborts with
the first failing pair on any violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .halfint import HalfIntMatrix, InexactDivision

N_VECTOR = 16
SPINOR_DIM = 128

# Fano-plane triples (a,b,c): e_a e_b = e_c cyclically, anticommuting otherwise.
_FANO_TRIPLES = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3))


class GammaConstructionError(Exception):
    """A construction self-check failed; the message names the first bad pair."""


def _octonion_left_mults() -> list[np.ndarray]:
    """Left-multiplication matrices of the seven imaginary octonion units."""
    mats = [np.zeros((8, 8), dtype=np.int64) for _ in range(8)]
    for i in range(1, 8):
        mats[i][i, 0] = 1   # e_i * 1 = e_i
        mats[i][0, i] = -1  # e_i * e_i = -1
    for (a, b, c) in _FANO_TRIPLES:
        for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
            mats[x][z, y] = 1   # e_x e_y = +e_z
            mats[y][z, x] = -1  # e_y e_x = -e_z
    return mats[1:]


def _cl8_gammas() -> list[np.ndarray]:
    """Eight symmetric anticommuting 16x16 signed permutations squaring to I."""
    ls = _octonion_left_mults()
    blocks = ls + [np.eye(8, dtype=np.int64)]
    gammas = []
    for b in blocks:
        g = np.zeros((16, 16), dtype=np.int64)
        g[:8, 8:] = b
        g[8:, :8] = b.T
        gammas.append(g)
    return gammas


def perm_decode(m) -> tuple[np.ndarray, np.ndarray]:
    """(perm, sign) of dense signed permutation matrices stacked on leading axes.

    Raises ValueError unless every entry is -1, 0 or 1 with exactly one
    nonzero in each row and in each column.
    """
    m = np.asarray(m)
    if not np.isin(m, (-1, 0, 1)).all():
        raise ValueError("not a signed permutation matrix")
    a = np.abs(m)
    if (a.sum(axis=-1) != 1).any() or (a.sum(axis=-2) != 1).any():
        raise ValueError("rows/columns are not 1-sparse")
    perm = a.argmax(axis=-1)
    sign = np.take_along_axis(m, perm[..., None], axis=-1)[..., 0]
    return perm.astype(np.int64), sign.astype(np.int64)


def perm_compose(x, y):
    """The product x @ y; leading axes broadcast."""
    p, s, q, t = np.broadcast_arrays(*x, *y)
    return np.take_along_axis(q, p, axis=-1), s * np.take_along_axis(t, p, axis=-1)


def perm_transpose(x):
    """The transpose (= inverse) of x."""
    p, s = x
    inv = np.argsort(p, axis=-1)
    return inv, np.take_along_axis(s, inv, axis=-1)


def perm_kron(x, y):
    """The Kronecker product np.kron(x, y); leading axes broadcast."""
    (p, s), (q, t) = x, y
    perm = p[..., :, None] * q.shape[-1] + q[..., None, :]
    sign = s[..., :, None] * t[..., None, :]
    return perm.reshape(*perm.shape[:-2], -1), sign.reshape(*sign.shape[:-2], -1)


def perm_dense(x) -> np.ndarray:
    """The dense int64 matrices of x (a zero sign gives a zero row)."""
    p, s = x
    out = np.zeros(p.shape + p.shape[-1:], dtype=np.int64)
    np.put_along_axis(out, p[..., None], s[..., None], axis=-1)
    return out


def _pair_products(x):
    """x_i x_j^T for every ordered pair (i, j) of the stack x."""
    p, s = x
    q, t = perm_transpose(x)
    return perm_compose((p[:, None], s[:, None]), (q[None], t[None]))


def anticommutation_failures(x) -> np.ndarray:
    """fail[i, j]: x_i x_j^T + x_j x_i^T != 2 delta_ij I, for a stack x.

    Both products are formed: two signed permutations sum to zero exactly
    when their perms agree and their signs are opposite, and on the diagonal
    the sum 2 x_i x_i^T is 2I exactly when x_i x_i^T is the identity.
    """
    p, s = _pair_products(x)
    q, t = p.swapaxes(0, 1), s.swapaxes(0, 1)
    two_i = (p == np.arange(p.shape[-1])) & (s == 1)
    zero = (p == q) & (s == -t)
    return ~np.where(np.eye(len(p), dtype=bool)[..., None], two_i, zero).all(axis=-1)


def quarter_commutators(x):
    """(1/4)(x_i x_j^T - x_j x_i^T) for i < j in lexicographic pair order.

    Returned as the doubled (perm, sign) of 1/2 * signed permutation.  Raises
    InexactDivision where the nonzeros of the two terms differ (entries of
    1/4) and ValueError where they cancel on a row (a zero row).
    """
    p, s = _pair_products(x)
    i, j = np.triu_indices(len(p), 1)
    if (p[i, j] != p[j, i]).any():
        raise InexactDivision("division by 2 leaves the half-integer lattice")
    sign = (s[i, j] - s[j, i]) // 2
    if not sign.all():
        raise ValueError("the two terms cancel on a row: not 1/2 * a signed permutation")
    return p[i, j], sign


@dataclass(frozen=True, eq=False)  # array fields: compare by identity
class GammaSystem:
    """The sixteen chirality blocks mapping the positive to the negative spinors.

    Row i - 1 of the [16, 128] int64 arrays perm and sign is Sigma_i as
    (perm, sign).
    """

    perm: np.ndarray
    sign: np.ndarray

    def __post_init__(self):
        if self.perm.shape != (N_VECTOR, SPINOR_DIM) or self.sign.shape != self.perm.shape:
            raise GammaConstructionError("expected 16 blocks of 128 rows")

    @cached_property
    def sigma(self) -> tuple[HalfIntMatrix, ...]:
        """The dense Sigma_i, formed on first access."""
        return tuple(HalfIntMatrix.from_true_ints(s) for s in perm_dense((self.perm, self.sign)))


@dataclass(frozen=True, eq=False)  # array fields: compare by identity
class SpinorGenerators:
    """Antisymmetric so(16) generators on the positive-chirality spinors.

    Delta_ij = (1/4)(Sigma_i Sigma_j^T - Sigma_j Sigma_i^T), 1 <= i < j <= 16,
    is 1/2 * a signed permutation; row k of the [120, 128] int64 arrays perm
    and sign is its doubled (perm, sign), pairs (i, j) in lexicographic order.
    """

    perm: np.ndarray
    sign: np.ndarray

    @cached_property
    def delta(self) -> dict[tuple[int, int], HalfIntMatrix]:
        """(i, j) -> the dense Delta_ij, formed on first access."""
        pairs = zip(*np.triu_indices(N_VECTOR, 1))
        # pair by pair: one stacked dense copy would add 16 MB to peak memory
        return {
            (int(i) + 1, int(j) + 1): HalfIntMatrix(perm_dense((p, s)))
            for (i, j), p, s in zip(pairs, self.perm, self.sign)
        }


def build_gamma_system(self_check: bool = True) -> GammaSystem:
    """Construct the sixteen blocks and verify both anticommutation families."""
    try:
        alphas = perm_decode(np.stack(_cl8_gammas()))
    except ValueError:
        raise GammaConstructionError("the Cl(8) gammas are not signed permutations") from None
    omega8 = reduce(perm_compose, zip(*alphas))
    eye16 = (np.arange(16), np.ones(16, dtype=np.int64))
    gp, gs = map(np.concatenate, zip(perm_kron(alphas, eye16), perm_kron(omega8, alphas)))

    wp, chi = perm_kron(omega8, omega8)
    if (wp != np.arange(len(wp))).any():
        raise GammaConstructionError("chirality element is not diagonal")
    pos = np.flatnonzero(chi == 1)
    neg = np.flatnonzero(chi == -1)
    if len(pos) != SPINOR_DIM or len(neg) != SPINOR_DIM:
        raise GammaConstructionError("chirality eigenspaces are not 128 + 128")

    # Sigma_i is gamma_i restricted to positive rows and negative columns,
    # a signed permutation only if gamma_i exchanges the chiralities
    for i, p in enumerate(gp, start=1):
        if (chi[p] == chi).any():
            raise GammaConstructionError(f"gamma_{i} does not exchange chiralities")
    column = np.zeros(len(chi), dtype=np.int64)
    column[neg] = np.arange(SPINOR_DIM)
    sigma = column[gp[:, pos]], gs[:, pos]

    if self_check:
        fail = anticommutation_failures(sigma)
        fail_t = anticommutation_failures(perm_transpose(sigma))
        for i, j in zip(*np.triu_indices(N_VECTOR)):
            if fail[i, j]:
                raise GammaConstructionError(f"Sigma_{i + 1} Sigma_{j + 1}^T anticommutation failed")
            if fail_t[i, j]:
                raise GammaConstructionError(f"Sigma_{i + 1}^T Sigma_{j + 1} anticommutation failed")

    return GammaSystem(*sigma)


def spinor_generators(g: GammaSystem) -> SpinorGenerators:
    """Delta_ij = (1/4)(Sigma_i Sigma_j^T - Sigma_j Sigma_i^T) for i < j; raises
    ValueError or InexactDivision unless each is 1/2 * a signed permutation."""
    return SpinorGenerators(*quarter_commutators((g.perm, g.sign)))
