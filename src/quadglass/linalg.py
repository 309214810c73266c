"""The sparse linear algebra behind :class:`quadglass.model.Factorization`.

A realization's matrix A = I + 2*beta * V V^T is assembled here from the
clause matrix V, factored by a fill-reducing symmetric sparse LU, and its
inverse diagonal read off that factor by selected inversion.  This is the
one module of the package that imports scipy; ``model`` imports it at the
first factorization, so the fixed-point and limit routes, which never form
a matrix, run on numpy alone.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dpotri
from scipy.sparse import csc_matrix, csr_matrix, identity
from scipy.sparse.linalg import splu

from .model import FactorModel, NumericalError, _float_range

# entries of the Z[S_j, S_j] blocks that Factorization.inverse_diagonal
# gathers in one pass, at a peak of about 40 bytes each; a depth of the
# elimination tree with more is split into column chunks (a column never is)
INVERSE_DIAGONAL_PAIRS = 2**18
# SuperLU's panel width, in columns; _factorize gives the measurements
PANEL_SIZE = 8


def _clause_rows(model: FactorModel) -> csr_matrix:
    """V^T as an M x N CSR matrix: row k holds clause k's p weights at its p sites."""
    m, p = model.sites.shape
    return csr_matrix(
        (model.weights.ravel(), model.sites.ravel(), np.arange(0, m * p + 1, p)),
        shape=(m, model.n_sites),
    )


def _assemble(model: FactorModel) -> csc_matrix:
    """A = I + 2*beta * V V^T as a sparse CSC matrix with sorted rows.

    The sparse product forms each entry's sum of weight products once.
    No sum that is exactly zero is stored (+-1 clauses that cancel, and
    all of them at beta = 0), so none costs the factorization fill.  An
    entry past the float range raises :class:`NumericalError`.
    """
    rows = _clause_rows(model)
    gram = (rows.T.tocsr() @ rows).tocsc()                   # CSR to CSC sorts the rows
    with _float_range("assembly"):
        gram.data *= 2.0 * model.params.beta
    matrix = gram + identity(model.n_sites, format="csc")
    if not np.all(np.isfinite(matrix.data)):  # a sum of finite products overflowed
        raise NumericalError("assembly left the float range: a summed entry overflowed")
    return matrix


def _factorize(matrix):
    """Symmetric sparse LU of A, P A P^T = L U, and the pivots diag(U).

    ``SymmetricMode`` with no threshold pivoting keeps the pivots on the
    diagonal of the symmetrically permuted matrix, so U = D L^T with
    D = diag(U) and A = P^T L D L^T P.  The row and column permutations
    must agree and every pivot must be finite and positive.

    SuperLU factors ``PANEL_SIZE`` columns at a time, in work arrays of
    that many columns of length N that it allocates and clears per
    factorization.  Its default of 20 suits wide supernodes; this
    ensemble's tree-like factors put most columns in supernodes of 1-3
    columns (all at BASE N = 4000, 95% at MOMENT N = 16000, 80% on the
    Gaussian model below, beside one root supernode of 700-800), so a
    narrow panel saves time and memory and changes the factor only in
    its last bits.  ``splu`` time against the default panel (median
    ratio over 15 interleaved rounds, one thread of a 2-core x86-64
    machine; BASE and MOMENT are the acceptance models, Gaussian is
    p = 3, alpha 0.8, beta 0.5; the default took 1.1, 2.5, 98, 78 and
    499 ms):

        panel  BASE 4000  MOMENT 2000  MOMENT 16000  Gaussian 4000  8000
          1      -19%        -13%          +1%           +21%       +47%
          2      -20%        -14%          -1%           +11%       +18%
          4      -13%         -7%          -3%            +3%        +9%
          6      -13%         -9%          -4%            +2%        -0%
          8      -11%         -7%          -5%            +2%        +0%
         12       -8%         -3%          -1%            +1%        -1%
         16       -4%         -1%          -2%            +2%        -4%

    Below 8 the sparse factors gain little more and the fill-heavy
    Gaussian ones lose more.
    """
    try:
        # through the module global, which the tests and perfbench's
        # tracer wrap to count factorizations
        lu = splu(
            matrix,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            panel_size=PANEL_SIZE,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise NumericalError(f"sparse LU factorization failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NumericalError("sparse LU pivoted off the diagonal")
    pivots = lu.U.diagonal()
    if not np.all((pivots > 0) & (pivots < math.inf)):
        raise NumericalError("sparse LU produced a pivot that is not finite and positive")
    return lu, pivots


def _column_structure(pattern):
    """(ptr, rows, below, keys, parent) of a lower triangular CSC pattern with sorted rows.

    ``below`` is |S_j|, the number of rows under column j's diagonal;
    the entry (r, c) has key c*n + r, so ``keys`` is sorted; parent(j) =
    min S_j, or j itself at a root of the elimination forest.
    """
    n = pattern.shape[0]
    ptr = pattern.indptr.astype(np.int64)
    rows = pattern.indices.astype(np.int64)
    below = np.diff(ptr) - 1
    keys = np.repeat(np.arange(n, dtype=np.int64) * n, below + 1) + rows
    parent = np.where(below > 0, rows[np.minimum(ptr[:-1] + 1, ptr[1:] - 1)], np.arange(n))
    return ptr, rows, below, keys, parent


def _closed_pattern(lower):
    """L's values on its pattern closed under elimination, and that pattern's structure.

    In the closed pattern, given by :func:`_column_structure`, the rows
    below each column j's diagonal form a clique: (l, k) is stored for
    k < l both in S_j.  That holds exactly when every S_j without
    parent(j) lies in S_parent(j) (then S_j is a clique because
    S_parent(j) is, from the last column down), which one key search
    over the entries checks.  The entries it finds missing are added,
    with value 0, and the check is repeated; L is nearly always closed.
    """
    pattern = csc_matrix(lower, copy=True)
    pattern.sum_duplicates()
    n = pattern.shape[0]
    while True:
        ptr, rows, below, keys, parent = structure = _column_structure(pattern)
        cols = np.repeat(np.arange(n, dtype=np.int64), below + 1)
        past = rows > parent[cols]                            # S_j without parent(j)
        need_rows, need_cols = rows[past], parent[cols[past]]
        need = need_cols * n + need_rows
        at = np.minimum(np.searchsorted(keys, need), keys.size - 1)
        missing = keys[at] != need
        if not missing.any():
            return pattern.data, structure
        pattern = csc_matrix(
            (np.concatenate([pattern.data, np.zeros(np.count_nonzero(missing))]),
             (np.concatenate([rows, need_rows[missing]]),
              np.concatenate([cols, need_cols[missing]]))),
            shape=(n, n),
        )
        pattern.sum_duplicates()


def _root_clique(below: np.ndarray) -> int:
    """First column c0 of the root clique of a closed pattern with ``below`` = |S_j|.

    The root clique is the trailing columns c0..n-1 whose rows below the
    diagonal are every later column.  In a closed pattern a full column's
    parent j+1 is full too, so the full columns are exactly c0..n-1; the
    last column always is one.
    """
    return int(np.flatnonzero(below == np.arange(below.size - 1, -1, -1))[0])


def _clique_inverse(lval: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """Z22 = L22^{-T} D2^{-1} L22^{-1} on the lower triangle, column by column.

    ``lval`` holds the k x k unit lower triangular L22 the same way.
    Its transpose scaled by D2^{1/2} is the Cholesky factor R of
    L22 D2 L22^T = R^T R, so LAPACK's ``dpotri`` inverts it in k^3/3
    multiply-adds.  The upper triangle of a row-major array lists a
    column-major lower triangle in order, which is how both are read.
    """
    k = pivots.size
    upper = np.triu(np.ones((k, k), dtype=bool))
    factor = np.zeros((k, k))
    factor[upper] = lval
    factor *= np.sqrt(pivots)[:, None]
    inverse, info = dpotri(factor)
    if info:
        raise NumericalError(f"dense inverse of the root clique failed: dpotri info {info}")
    return inverse[upper]


def _tree_depth(parent: np.ndarray) -> np.ndarray:
    """Depth of every node of a forest given by ``parent`` (a root is its own).

    Pointer jumping: ``dist`` is the distance from each node to ``jump``,
    which moves twice as far up per pass, until every jump is a root.
    """
    dist = (parent != np.arange(parent.size)).astype(np.int64)
    jump = parent
    while True:
        further = jump[jump]
        if np.array_equal(further, jump):
            return dist
        dist = dist + dist[jump]
        jump = further


def _selected_inverse_diagonal(lower, pivots: np.ndarray) -> np.ndarray:
    """diag((L D L^T)^{-1}): the root clique densely, then Takahashi's recurrence.

    Z is held on the closed pattern of L, column by column in CSC order,
    so the entry (r, c), r >= c, sits at ``searchsorted(keys, c*n + r)``,
    or at ``ptr[c] + r - c`` when c is in the root clique, whose columns
    are full.  The clique's block of Z is filled in by LAPACK first.  A
    column whose parent lies in the clique then becomes a root, and the
    other columns follow one depth of that forest at a time.  Z[S_j, S_j] is
    symmetric, so each column gathers its lower triangle once, pair
    (a, b) with a < b adding to both Z[s_a, j] and Z[s_b, j].  Every
    per-entry index is set up once; a pass reads slices of them.
    """
    n = pivots.size
    lval, (ptr, rows, below, keys, parent) = _closed_pattern(lower)  # 0 where closure added
    z = np.zeros(rows.size)
    z[ptr[:-1]] = 1.0 / pivots                                # final at the roots
    clique = _root_clique(below)                              # its first column
    z[ptr[clique]:] = _clique_inverse(lval[ptr[clique]:], pivots[clique:])
    depth = _tree_depth(np.where(parent < clique, parent, np.arange(n)))
    todo = np.flatnonzero(below[:clique] > 0)
    order = todo[np.argsort(depth[todo], kind="stable")]
    # the other columns' below-diagonal entries, column by column in depth order
    count = below[order]
    col_bound = np.concatenate([[0], np.cumsum(count)])
    ent = np.arange(col_bound[-1]) + np.repeat(ptr[order] + 1 - col_bound[:-1], count)
    later = np.repeat(ptr[order + 1], count) - 1 - ent        # entries after it in S_j
    pair_bound = np.concatenate([[0], np.cumsum(later)])
    shift = np.arange(ent.size) + 1 - pair_bound[:-1]
    rent, lent = rows[ent], lval[ent]
    # a pass covers one depth, or a run of its columns within one pair chunk
    level = depth[order]
    gathered = count * (count + 1) // 2
    before = np.cumsum(gathered) - gathered
    piece = (before - before[np.searchsorted(level, level)]) // INVERSE_DIAGONAL_PAIRS
    cuts = np.append(
        np.flatnonzero(np.diff(level, prepend=0) | np.diff(piece, prepend=-1)), order.size
    )
    ecut = col_bound[cuts]
    pcut = pair_bound[ecut]
    for c0, c1, e0, e1, p0, p1 in zip(
        cuts[:-1], cuts[1:], ecut[:-1], ecut[1:], pcut[:-1], pcut[1:]
    ):
        ia = np.repeat(np.arange(e0, e1), later[e0:e1])
        ib = np.arange(p0, p1) + np.repeat(shift[e0:e1], later[e0:e1])
        sa, sb = rent[ia], rent[ib]
        at = ptr[sa] + sb - sa                                # Z[s_b, s_a] if s_a in the clique
        out = sa < clique
        at[out] = np.searchsorted(keys, sa[out] * n + sb[out])
        zab = z[at]
        x = -(
            z[ptr[rent[e0:e1]]] * lent[e0:e1]
            + np.bincount(ia - e0, zab * lent[ib], e1 - e0)
            + np.bincount(ib - e0, zab * lent[ia], e1 - e0)
        )
        z[ent[e0:e1]] = x
        z[ptr[order[c0:c1]]] -= np.add.reduceat(lent[e0:e1] * x, col_bound[c0:c1] - e0)
    return z[ptr[:-1]]

