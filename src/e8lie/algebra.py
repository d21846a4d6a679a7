"""The 248-dimensional compact E8 algebra over so(16) + Majorana-Weyl spinors.

Basis ordering: the 120 vector generators J_ij (1 <= i < j <= 16, pairs in
lexicographic order) occupy flat indices 0..119, the 128 spinor generators
Q_alpha (alpha = 1..128) occupy flat indices 120..247.

Bracket conventions (exact, doubled-integer storage throughout):

    [J_ij, J_kl] = d_jk J_il - d_jl J_ik - d_ik J_jl + d_il J_jk
    [J_ij, Q_a]  = sum_b (Delta_ij)_{b,a} Q_b
    [Q_a, Q_b]   = -sum_{i<j} (Delta_ij)_{a,b} J_ij

The spinor indices on Delta in the mixed and spinor-spinor rules are read
column-first; this is the unique reading under which the canonical adjoint
is a homomorphism (equivalently: the Jacobi identity holds) and the Killing
form is negative definite, and it makes ad(J_ij) restrict to exactly
Delta_ij on the spinor block.

The structure constants exist once, as the bracket table of
StructureTensor: four aligned int64 arrays (a, b, c, v) with one entry per
nonzero doubled coefficient v of basis_c in [basis_a, basis_b], a < b,
sorted by (a, b, c).  The adjoint matrices and the Jacobi tables are read
off it by array operations.

The so(16) rule exists once, as the tables of _so16_structure, which both
the bracket table and the two so(16) spinor checks read; those checks
compare the permutation arrays of the generators and need numpy only.  The
defining relations and the Jacobi pair strata run through one exact sparse
engine, _pair_failures, against the stored bracket table: each row a is
one sparse step with a row operator, the right-hand side folded in, over
the window of b its strata select; reports are ordered by flat index.
The rep keeps one pair table per bracket table, which both suites share,
so each pair runs at most once, and only with b > a: b < a is read off by
antisymmetry.  Only this engine, the QQQ scan and the exact certificates
load scipy.sparse.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .clifford import (
    SpinorGenerators,
    anticommutation_failures,
    perm_compose,
    perm_transpose,
    quarter_commutators,
)
from .halfint import HalfIntMatrix

N_VECTOR = 16
NV = 120
NS = 128
DIM = 248

VECTOR_PAIRS = tuple(
    (i, j) for i in range(1, N_VECTOR + 1) for j in range(i + 1, N_VECTOR + 1)
)
PAIR_INDEX = {p: k for k, p in enumerate(VECTOR_PAIRS)}


def vector_flat(i: int, j: int) -> int:
    """Flat index of J_ij, 1 <= i < j <= 16."""
    return PAIR_INDEX[(i, j)]


def spinor_flat(alpha: int) -> int:
    """Flat index of Q_alpha, alpha = 1..128."""
    if not 1 <= alpha <= NS:
        raise ValueError(f"spinor index {alpha} out of range")
    return NV + alpha - 1


def flat_label(f: int) -> str:
    if f < NV:
        i, j = VECTOR_PAIRS[f]
        return f"J({i},{j})"
    return f"Q({f - NV + 1})"


def _so16_structure():
    """The so(16) rule as two [120, 120] int64 tables (target, coeff):
    [J_a, J_b] = (coeff[a, b] / 2) J_target[a, b], and coeff 0 means the
    pair commutes.

    [J_ij, J_kl] = d_jk J_il - d_jl J_ik - d_ik J_jl + d_il J_jk with
    J_qp = -J_pq has at most one term: a nonzero bracket shares exactly
    one index.
    """
    ij = np.array(VECTOR_PAIRS)
    flat = np.zeros((N_VECTOR + 1, N_VECTOR + 1), dtype=np.int64)
    flat[ij[:, 0], ij[:, 1]] = flat[ij[:, 1], ij[:, 0]] = np.arange(NV)
    (i, j), (k, l) = ij.T[:, :, None], ij.T[:, None, :]
    hits = (j == k, j == l, i == k, i == l)
    p, q = np.select(hits, (i, i, j, j)), np.select(hits, (l, k, l, k))
    v = np.select(hits, (2, -2, -2, 2))
    return flat[p, q], np.where(p == q, 0, np.where(p < q, v, -v))


class StructureTensor:
    """The bracket table: four aligned, read-only int64 arrays a, b, c, v.

    Entry n says that v[n] is the doubled coefficient of basis_c[n] in
    [basis_a[n], basis_b[n]], one entry per nonzero coefficient.  Only pairs
    with a < b are stored, so the table is antisymmetric by construction;
    it is sorted by (a, b, c).  pi and sg are the (perm, sign) arrays of
    the doubled Delta_ij, shared with SpinorGenerators, for the so(16)
    spinor check and the Cartan search.
    """

    def __init__(self, a, b, c, v, pi, sg):
        table = [np.array(x, dtype=np.int64) for x in (a, b, c, v)]
        for x in table:
            x.setflags(write=False)
        self.a, self.b, self.c, self.v = table
        self.pi = pi  # [120, 128] column of the nonzero in row alpha of 2*Delta_k
        self.sg = sg  # [120, 128] its sign
        self._pairs = self.a * DIM + self.b  # sorted search keys of bracket_basis

    @classmethod
    def build(cls, d: SpinorGenerators) -> "StructureTensor":
        pi, sg = d.perm, d.sign

        # vector-vector from the so(16) rule
        target, coeff = _so16_structure()
        va, vb = np.nonzero(np.triu(coeff))

        # vector-spinor: coeff of Q_beta in [J_k, Q_alpha] is (Delta_k)_{beta,alpha},
        # the entry (alpha, beta) of the transpose
        tp, ts = perm_transpose((pi, sg))
        k, alpha = np.divmod(np.arange(NV * NS), NS)

        # spinor-spinor: coeff of J_k in [Q_alpha, Q_beta] is -(Delta_k)_{alpha,beta};
        # each permutation is a fixed-point-free involution, so alpha < pi_k(alpha)
        # picks every (k, unordered pair) exactly once
        beta = pi.ravel()
        qq = alpha < beta

        a = np.concatenate([va, k, NV + alpha[qq]])
        b = np.concatenate([vb, NV + alpha, NV + beta[qq]])
        c = np.concatenate([target[va, vb], NV + tp.ravel(), k[qq]])
        v = np.concatenate([coeff[va, vb], ts.ravel(), -sg.ravel()[qq]])
        order = np.lexsort((c, b, a))
        return cls(a[order], b[order], c[order], v[order], pi, sg)

    def bracket_basis(self, a: int, b: int):
        """(targets, doubled coeffs) of [basis_a, basis_b] for any order of a, b."""
        key = min(a, b) * DIM + max(a, b)
        lo, hi = np.searchsorted(self._pairs, [key, key + 1])
        cs, vs = self.c[lo:hi], self.v[lo:hi]
        return (cs, vs) if a < b else (cs, -vs)


def _ad_stack(t: StructureTensor):
    """The adjoint matrices stacked as one CSR matrix: row A*248 + C, column
    B is the doubled coefficient of basis_C in [basis_A, basis_B]."""
    import scipy.sparse as sp
    rows = np.r_[t.a, t.b] * DIM + np.r_[t.c, t.c]
    return sp.csr_matrix((np.r_[t.v, -t.v], (rows, np.r_[t.b, t.a])), shape=(DIM * DIM, DIM))


class AdjointRep:
    """The 248 adjoint matrices, doubled: ad(basis_A) has entry (C, B) equal
    to the coefficient of basis_C in [basis_A, basis_B].

    build(t) keeps the bracket table t, which entries(A) and dense(A) read.
    mats, the 248 int64 CSR matrices of the exact engine, is built on first
    access; AdjointRep(mats) takes a given list instead.  The matrices are
    never edited in place: pair_table(t) keeps the pair results checked
    against each bracket table t, and a changed matrix needs a new rep.
    """

    def __init__(self, mats=None, t: StructureTensor | None = None):
        if mats is not None:
            self.mats = mats
        self.t = t
        self._pair_tables = weakref.WeakKeyDictionary()

    @classmethod
    def build(cls, t: StructureTensor) -> "AdjointRep":
        return cls(t=t)

    @cached_property
    def mats(self) -> list:
        m = _ad_stack(self.t)
        return [m[a * DIM:(a + 1) * DIM] for a in range(DIM)]

    def pair_table(self, t: StructureTensor) -> tuple[np.ndarray, np.ndarray]:
        """The [248, 248] bool grids (done, fail) of the pairs (a, b), b > a,
        checked so far against the bracket table t; kept while t lives."""
        return self._pair_tables.setdefault(t, np.zeros((2, DIM, DIM), dtype=bool))

    def entries(self, f: int):
        """(rows, cols, vals) of ad(basis_f): a table entry (f, b, c, v) is v
        at (c, b) and an entry (a, f, c, v) is -v at (c, a)."""
        t, fa, fb = self.t, self.t.a == f, self.t.b == f
        return np.r_[t.c[fa], t.c[fb]], np.r_[t.b[fa], t.a[fb]], np.r_[t.v[fa], -t.v[fb]]

    def dense(self, f: int) -> np.ndarray:
        """ad(basis_f) as a dense int64 matrix."""
        m = np.zeros((DIM, DIM), dtype=np.int64)
        rows, cols, vals = self.entries(f)
        m[rows, cols] = vals
        return m


# ---------------------------------------------------------------------------
# verification

@dataclass
class SuiteReport:
    name: str
    checked: int
    failures: int
    first_counterexample: str | None = None
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_dict(self, include_timing: bool = False):
        # timings are excluded by default so report artifacts stay
        # byte-identical across runs
        out = {
            "name": self.name,
            "checked": self.checked,
            "failures": self.failures,
            "passed": self.passed,
            "first_counterexample": self.first_counterexample,
        }
        if include_timing:
            out["elapsed_s"] = round(self.elapsed_s, 3)
        return out


def _pair_failures(mats, structure, rows, lo, hi) -> np.ndarray:
    """Exact check of [M_a, M_b] = sum_c T_a[c, b] M_c for a = rows[i] and
    every b in its window lo[i] <= b < hi[i].

    mats are n doubled d x d CSR matrices and rows a*n .. a*n + n - 1 of
    structure are the doubled n x n matrix T_a, so both sides are 4x true.
    Each row a is one sparse step over its window: with X the vertical
    stack of the M_b, the block of pair b is [M_a, M_b] in
    kron(I_n[lo:hi], M_a) @ X - X[lo*d:hi*d] @ M_a and the right-hand side
    in kron(T_a[:, lo:hi]^T, I_d) @ X.  So with the row operator
    L = kron(I_n[lo:hi], M_a) - kron(T_a[:, lo:hi]^T, I_d), the blocks of
    L @ X - X[lo*d:hi*d] @ M_a are zero exactly on the passing pairs.
    Returns mask[i, b], True where the pair (rows[i], b) fails; pairs
    outside the window read False.
    """
    import scipy.sparse as sp
    n, d = len(mats), mats[0].shape[0]
    x = sp.vstack(mats, format="csr")
    eye_n = sp.identity(n, dtype=np.int64, format="csr")
    eye_d = sp.identity(d, dtype=np.int64, format="csr")
    mask = np.zeros((len(rows), n), dtype=bool)
    for i, (a, b0, b1) in enumerate(zip(rows, lo, hi)):
        m = mats[a]
        op = (sp.kron(eye_n[b0:b1], m, format="csr")
              - sp.kron(structure[a * n:(a + 1) * n, b0:b1].T, eye_d, format="csr"))
        diff = op @ x - x[b0 * d:b1 * d] @ m
        diff.eliminate_zeros()
        mask[i, b0:b1] = np.diff(diff.indptr).reshape(b1 - b0, d).any(axis=1)
    return mask


def _pair_suites(mats, structure, strata, label, table) -> list[SuiteReport]:
    """One SuiteReport per (name, select) stratum from one engine pass.

    select(a, b) marks the pairs of a stratum on broadcast index grids.
    table holds the [n, n] bool grids (done, fail) of the pairs b > a
    computed so far (AdjointRep.pair_table) and is updated in place.  With
    Z_ab = [M_a, M_b] - sum_c T_a[c, b] M_c, a block-antisymmetric
    structure (T_b[c, a] = -T_a[c, b], checked exactly; ValueError if not)
    gives Z_ba = -Z_ab, so the engine runs only the pairs b > a, not yet
    done, that some stratum or its mirror needs, each row over the window
    from the first to the last of them; (b, a) fails exactly when (a, b)
    does, and (a, a) passes.  Failures are read off in flat-index order, so
    the first counterexample is the first failing pair (a, b) with a, then
    b, increasing; strata from one call share its elapsed time.
    """
    import scipy.sparse as sp
    t0 = time.perf_counter()
    n = len(mats)
    s = structure.tocoo()
    a, c = np.divmod(s.row, n)
    if (structure + sp.csr_matrix((s.data, (s.col * n + c, a)), shape=s.shape)).count_nonzero():
        raise ValueError("the stacked right-hand side is not block-antisymmetric")
    done, fail = table
    a, b = np.arange(n)[:, None], np.arange(n)[None, :]
    selects = [(name, select(a, b)) for name, select in strata]
    need = np.zeros((n, n), dtype=bool)
    for _, sel in selects:
        need |= sel
    need = np.triu(need | need.T, 1) & ~done
    rows = np.flatnonzero(need.any(axis=1))
    if len(rows):
        lo, hi = need[rows].argmax(axis=1), n - need[rows, ::-1].argmax(axis=1)
        window = (b >= lo[:, None]) & (b < hi[:, None])
        fail[rows] |= _pair_failures(mats, structure, rows, lo, hi) & window
        done[rows] |= window
    both = fail | fail.T
    elapsed = time.perf_counter() - t0
    reports = []
    for name, sel in selects:
        bad = np.argwhere(both & sel)
        first = label(*bad[0]) if len(bad) else None
        reports.append(SuiteReport(name, int(sel.sum()), len(bad), first, elapsed))
    return reports


_RELATION_STRATA = {
    "vector-vector": lambda a, b: (a < NV) & (b < NV),
    "vector-spinor": lambda a, b: (a < NV) & (b >= NV),
    "spinor-spinor": lambda a, b: (a >= NV) & (b > a),
}
ALL_RELATION_STRATA = tuple(_RELATION_STRATA)


def verify_defining_relations(
    rep: AdjointRep, t: StructureTensor, strata=ALL_RELATION_STRATA
) -> list[SuiteReport]:
    """Exhaustively check [ad_A, ad_B] = ad([A, B]) over the chosen strata.

    Strata: vector-vector (all 14400 ordered pairs), vector-spinor (all
    120 x 128 pairs), spinor-spinor (all 8128 unordered pairs).  Exact
    integer comparison; the first failing pair is reported by name.  The
    right-hand sides are read from the stored table of t; pairs already in
    rep.pair_table(t), which verify_jacobi shares, are not recomputed.
    """
    return _pair_suites(
        rep.mats,
        _ad_stack(t),
        [(name, _RELATION_STRATA[name]) for name in ALL_RELATION_STRATA if name in strata],
        lambda a, b: f"[{flat_label(a)}, {flat_label(b)}]",
        rep.pair_table(t),
    )


def _verify_eq1_family(pi: np.ndarray, sg: np.ndarray, name: str) -> SuiteReport:
    """Exhaustive so(16) commutation check for a 128x128 generator family.

    All 14400 ordered pairs of the doubled generators P_k = (pi[k], sg[k])
    against the so(16) rule, which doubled reads
    P_a P_b - P_b P_a = coeff[a, b] P_target[a, b].  Each of the three
    terms has one entry per row, so a row of their difference is zero
    exactly when its totals at the three columns of those entries are.
    One row a is checked at a time, against every b at once.
    """
    t0 = time.perf_counter()
    target, coeff = _so16_structure()
    fail = np.zeros((NV, NV), dtype=bool)
    for a in range(NV):
        yp, ys = perm_compose((pi, sg), (pi[a], sg[a]))
        terms = (perm_compose((pi[a], sg[a]), (pi, sg)), (yp, -ys),
                 (pi[target[a]], -coeff[a, :, None] * sg[target[a]]))
        fail[a] = np.any([sum(s * (p == col) for p, s in terms) for col, _ in terms], axis=(0, 2))
    bad = np.argwhere(fail)
    first = ("[Delta(%d,%d), Delta(%d,%d)]" % (*VECTOR_PAIRS[bad[0, 0]], *VECTOR_PAIRS[bad[0, 1]])
             if len(bad) else None)
    return SuiteReport(name, NV * NV, len(bad), first, time.perf_counter() - t0)


def verify_so16_on_spinors(t: StructureTensor) -> SuiteReport:
    """Eq-of-motion check for Delta on the positive chirality, all 14400 pairs."""
    return _verify_eq1_family(t.pi, t.sg, "so16-spinor-rep")


def verify_chirality_consistency(g) -> SuiteReport:
    """The paired generators on the negative chirality also satisfy so(16).

    Delta'_ij = (1/4)(Sigma_i^T Sigma_j - Sigma_j^T Sigma_i) must obey the
    same commutation rule, which pins the block convention down.  Delta' is
    formed from both terms on the permutation arrays of the blocks; a pair
    whose terms do not combine to 1/2 * signed permutation raises.
    """
    pi, sg = quarter_commutators(perm_transpose((g.perm, g.sign)))
    return _verify_eq1_family(pi, sg, "so16-spinor-rep-negative-chirality")


def verify_clifford_pairs(g) -> list[SuiteReport]:
    """Exact anticommutation over all 136 unordered pairs, both families,
    plus the signed-permutation shape of every block.

    A block is a signed permutation when its perm row is a permutation and
    every sign is +-1; one that is not fails the shape stratum and every
    pair of both families that contains it.
    """
    t0 = time.perf_counter()
    perm, sign = g.perm, g.sign
    bad = (np.sort(perm, axis=1) != np.arange(NS)).any(axis=1) | (np.abs(sign) != 1).any(axis=1)
    first = f"Sigma_{np.argmax(bad) + 1}" if bad.any() else None
    shape = SuiteReport(
        "clifford-signed-permutation", N_VECTOR, int(bad.sum()), first, time.perf_counter() - t0
    )

    iu = np.triu_indices(N_VECTOR)
    reports = []
    for name, x, label in (
        ("clifford-anticommutation", (perm, sign),
         "Sigma_{i} Sigma_{j}^T + Sigma_{j} Sigma_{i}^T"),
        ("clifford-anticommutation-transposed", perm_transpose((perm, sign)),
         "Sigma_{i}^T Sigma_{j} + Sigma_{j}^T Sigma_{i}"),
    ):
        t0 = time.perf_counter()
        fail = np.flatnonzero((anticommutation_failures(x) | bad[:, None] | bad[None, :])[iu])
        first = label.format(i=iu[0][fail[0]] + 1, j=iu[1][fail[0]] + 1) if len(fail) else None
        reports.append(SuiteReport(name, len(iu[0]), len(fail), first, time.perf_counter() - t0))
    return reports + [shape]


def verify_jacobi(
    rep: AdjointRep,
    t: StructureTensor,
    samples: int = 100_000,
    seed: int = 0,
    full_spinor: bool = False,
) -> list[SuiteReport]:
    """Jacobi identity checks.

    The JJ* and JQ* strata (covering every triple with at least one vector
    generator in the first two slots, i.e. the exhaustive JJJ, JJQ and JQQ
    strata) use the pair reduction: [[X,Y],Z] + cyc = 0 for all Z is
    equivalent to ad([X,Y]) = [ad X, ad Y] as 248x248 matrices, checked
    exactly per pair in rep.pair_table(t), which the relation strata share:
    after verify_defining_relations on the same rep and t they compute
    nothing.
    The QQQ stratum is always scanned exhaustively, all 8128 (alpha < beta)
    pairs against all 128 gamma simultaneously; the sampled report (n
    seeded triples) is read off the scan's failure table, and full_spinor
    also reports the scan itself.
    """
    import scipy.sparse as sp
    reports = _pair_suites(
        rep.mats,
        _ad_stack(t),
        [
            ("jacobi-JJ*-pairs", lambda a, b: (a < NV) & (b > a) & (b < NV)),
            ("jacobi-JQ*-pairs", _RELATION_STRATA["vector-spinor"]),
        ],
        lambda a, b: f"pair ({flat_label(a)}, {flat_label(b)})",
        rep.pair_table(t),
    )

    # per-entry tables read from the *stored* tensor coefficients, so a
    # corrupted tensor fails these strata
    jq = (t.a < NV) & (t.b >= NV)
    tb = t.c[jq].reshape(NV, NS) - NV  # [J_k, Q_a] target spinor
    tv = t.v[jq].reshape(NV, NS)  # and its doubled coefficient
    qq = t.a >= NV
    p, q, k, v = t.a[qq] - NV, t.b[qq] - NV, t.c[qq], t.v[qq]
    gk = np.zeros((NS, NV), dtype=np.int64)  # partner of a in [Q_a, .] for J_k
    fk = np.zeros((NS, NV), dtype=np.int64)  # and the stored doubled coefficient
    gk[p, k], fk[p, k] = q, v
    gk[q, k], fk[q, k] = p, -v

    # exhaustive QQQ scan: fail[al, be, g] (al < be) marks a nonzero
    # cyclic sum of [[Q_al, Q_be], Q_g] against the tensor.  For each al the
    # terms of every (be > al, g, d) go into one sparse matrix with row
    # be*128 + g and column d, which sums them exactly.
    t0 = time.perf_counter()
    fail = np.zeros((NS, NS, NS), dtype=bool)
    ar = np.arange(NS)
    for al in range(NS):
        be = np.arange(al + 1, NS)
        own = p == al
        terms = (
            # [[Q_al, Q_be], Q_g]_d = sum_k v_k [J_k, Q_g]_d over the stored (al, be, k, v)
            (q[own, None] * NS + ar, tb[k[own]], v[own, None] * tv[k[own]]),
            # [[Q_be, Q_g], Q_al]: nonzero at g = gk[be, k]
            (be[:, None] * NS + gk[be], np.broadcast_to(tb[:, al], (len(be), NV)),
             fk[be] * tv[:, al]),
            # [[Q_g, Q_al], Q_be]: nonzero at g = gk[al, k], coeff -fk[al, k]
            (be[:, None] * NS + gk[al], tb[:, be].T, -fk[al] * tv[:, be].T),
        )
        rows, cols, vals = (np.concatenate([x.ravel() for x in xs]) for xs in zip(*terms))
        tot = sp.csr_matrix((vals, (rows, cols)), shape=(NS * NS, NS))
        tot.sum_duplicates()
        tot.eliminate_zeros()
        fail[al] = np.diff(tot.indptr).reshape(NS, NS) > 0
    full_s = time.perf_counter() - t0

    # sampled QQQ triples, read off the scan: with the stored table
    # antisymmetric the cyclic sum is totally antisymmetric, so a triple
    # fails iff its sorted form does, and one with a repeated index sums to 0
    rng = np.random.default_rng(seed)
    triples = rng.integers(0, NS, size=(samples, 3))
    x, y, z = np.sort(triples, axis=1).T
    bad = np.flatnonzero((x < y) & (y < z) & fail[x, y, z])
    first = "triple (Q(%d), Q(%d), Q(%d))" % tuple(triples[bad[0]] + 1) if len(bad) else None
    reports.append(
        SuiteReport("jacobi-QQQ-sampled", samples, len(bad), first, time.perf_counter() - t0)
    )

    if full_spinor:
        bad = np.argwhere(fail.any(axis=2))
        first = "pair (Q(%d), Q(%d)) against all Q" % tuple(bad[0] + 1) if len(bad) else None
        reports.append(
            SuiteReport("jacobi-QQQ-full", NS * (NS - 1) // 2, len(bad), first, full_s)
        )
    return reports


def _vec_rows(rep: AdjointRep):
    """Row A is vec(ad_A) (row-major), as one 248 x 61504 CSR matrix."""
    import scipy.sparse as sp
    return sp.vstack(rep.mats).reshape(DIM, DIM * DIM).tocsr()


def killing_form(rep: AdjointRep) -> HalfIntMatrix:
    """K_AB = trace(ad_A ad_B), exact, as a HalfIntMatrix.

    trace(A @ B) = vec(A) . vec(B^T), so K is one sparse product of the
    rows vec(ad_A) with the rows vec(ad_B^T); doubled * doubled = 4x true.
    """
    vecs = _vec_rows(rep)
    vecs_t = vecs[:, np.arange(DIM * DIM).reshape(DIM, DIM).T.ravel()]
    quad = (vecs @ vecs_t.T).toarray()
    if (quad & 1).any():
        raise ValueError("killing entry outside (1/2)*Z")
    return HalfIntMatrix(quad >> 1)


# ---------------------------------------------------------------------------
# Cartan search and exact rank certificates

@dataclass(frozen=True)
class CartanSet:
    """Eight pairwise-commuting spinor generators spanning a Cartan subalgebra."""

    alphas: tuple[int, ...]          # 1-based spinor indices
    flats: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "flats", tuple(spinor_flat(a) for a in self.alphas))


def _spinor_commuting(t: StructureTensor) -> np.ndarray:
    """comm[a, b]: [Q_a, Q_b] == 0 and a != b, for 0-based spinor positions;
    the bracket has a J_k term exactly where b = pi[k, a]."""
    comm = np.ones((NS, NS), dtype=bool)
    comm[np.arange(NS), t.pi] = False
    np.fill_diagonal(comm, False)
    return comm


def find_cartan(rep: AdjointRep, t: StructureTensor) -> CartanSet:
    """The lexicographically first 8 pairwise-commuting spinor generators.

    A depth-first search over the commuting table in increasing index order:
    its first branch is the greedy lowest-index choice.
    """
    comm = _spinor_commuting(t)

    def extend(chosen):
        if len(chosen) == 8:
            return chosen
        fits = comm[chosen].all(axis=0)
        for cand in range(chosen[-1] + 1 if chosen else 0, NS):
            if fits[cand] and (found := extend(chosen + [cand])):
                return found
        return None

    chosen = extend([])
    if chosen is None:
        raise RuntimeError("no set of 8 pairwise-commuting spinor generators found")
    return CartanSet(alphas=tuple(c + 1 for c in chosen))


def no_ninth_commuting_spinor(t: StructureTensor, cartan: CartanSet) -> bool:
    """Scan: no spinor index outside the set commutes with all eight."""
    return not _spinor_commuting(t)[np.array(cartan.alphas) - 1].all(axis=0).any()


def modp_rank(mat: np.ndarray, p: int = 1_000_003) -> int:
    """Rank of an integer matrix over GF(p) by row elimination.

    For an integer matrix, rank over Q >= rank over GF(p); attaining the
    maximum possible rank mod p therefore certifies the exact rank.
    """
    a = np.ascontiguousarray(mat % p, dtype=np.int64)
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        below = np.flatnonzero(a[r + 1:, c]) + r + 1
        if below.size:
            a[below] = (a[below] - np.outer(a[below, c], a[r])) % p
        r += 1
    return r


def adjoint_rank(rep: AdjointRep, p: int = 1_000_003) -> int:
    """Exact rank of the 248 x 61504 flattened adjoint system F.

    Over the rationals rank(F F^T) = rank(F), and a rank over GF(p) is at
    most the rational one, so a full mod-p rank of the exact 248 x 248 Gram
    matrix F F^T certifies rank 248.
    """
    flat = _vec_rows(rep)
    return modp_rank((flat @ flat.T).toarray(), p)


def centralizer_dimension(rep: AdjointRep, cartan: CartanSet, p: int = 1_000_003) -> int:
    """Exact dimension of the centralizer of the Cartan set in the algebra.

    The stacked commutator maps X -> [C_a, X] give a 1984 x 248 integer
    matrix; its kernel contains the 8 chosen basis directions exactly, and
    a mod-p rank of 240 certifies the kernel is exactly 8-dimensional.
    """
    dense = np.vstack([rep.mats[f].toarray() for f in cartan.flats])
    # exact witnesses: the chosen basis directions are in the kernel
    for f in cartan.flats:
        if np.any(dense[:, f]):
            raise RuntimeError("cartan member does not commute with the set")
    rank = modp_rank(dense, p)
    return DIM - rank
