"""Exact integer linear algebra: Smith and Hermite normal forms.

Everything here is integral, on python ints (object arrays); no floating
point.  Boundary matrices of simplicial complexes are handled by one sparse
elimination pass, ``_eliminate``, that consumes unit pivots (which dominate
such matrices) and hands any small residue to the dense Smith form;
``homology`` runs the same pass for group types (on coboundaries, with the
columns the previous degree paired cleared away) and, tracking column
combinations and keeping the pivot columns, for homology coordinates.  The
dense Smith form gives invariant factors and, on request, its row transform.
Every lattice question (kernels and preimages, membership, coordinates in a
basis) goes through one Hermite echelon, ``column_hnf``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import BudgetExceededError

KERNEL_DENSE_LIMIT = 4000


@dataclass
class SNF:
    diag: list[int]  # positive invariant factors, divisibility chain
    rank: int
    U: np.ndarray | None = None  # U @ A @ V == D for some unimodular V
    Uinv: np.ndarray | None = None


def _as_int_matrix(a) -> np.ndarray:
    m = np.array(a, dtype=object)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    return m


def smith_normal_form(a, want_u: bool = False) -> SNF:
    """Diagonalize over the integers: U @ A @ V = diag(d1..dr), d1|d2|...

    With ``want_u`` the row transform U and its inverse are tracked (Uinv
    incrementally, so no integer matrix inversion is ever needed); column
    operations act on A alone.
    """
    A = _as_int_matrix(a).copy()
    m, n = A.shape
    U = np.eye(m, dtype=object) if want_u else None
    Uinv = np.eye(m, dtype=object) if want_u else None

    def swap_rows(i, j):
        if i == j:
            return
        A[[i, j]] = A[[j, i]]
        if want_u:
            U[[i, j]] = U[[j, i]]
            Uinv[:, [i, j]] = Uinv[:, [j, i]]

    def negate_row(i):
        A[i] = -A[i]
        if want_u:
            U[i] = -U[i]
            Uinv[:, i] = -Uinv[:, i]

    def rows_axpy(q, k):
        # rows k+1.. minus q * row k
        A[k + 1 :] -= np.outer(q, A[k])
        if want_u:
            U[k + 1 :] -= np.outer(q, U[k])
            Uinv[:, k] += Uinv[:, k + 1 :] @ q

    def row_pair_op(i, j, mat2):
        # rows (i,j) <- mat2 @ rows (i,j); mat2 unimodular
        (a11, a12), (a21, a22) = mat2
        for M in (A, U) if want_u else (A,):
            ri, rj = M[i].copy(), M[j].copy()
            M[i] = a11 * ri + a12 * rj
            M[j] = a21 * ri + a22 * rj
        if want_u:
            # inverse of [[a,b],[c,d]] with det 1 is [[d,-b],[-c,a]]
            det = a11 * a22 - a12 * a21
            assert det in (1, -1)
            b11, b12, b21, b22 = a22 * det, -a12 * det, -a21 * det, a11 * det
            ci, cj = Uinv[:, i].copy(), Uinv[:, j].copy()
            Uinv[:, i] = ci * b11 + cj * b21
            Uinv[:, j] = ci * b12 + cj * b22

    k = 0
    limit = min(m, n)
    while k < limit:
        nz_rows, nz_cols = np.nonzero(A[k:, k:])
        if len(nz_rows) == 0:
            break
        t = min(range(len(nz_rows)), key=lambda t: abs(A[k + nz_rows[t], k + nz_cols[t]]))
        swap_rows(k, k + int(nz_rows[t]))
        j = k + int(nz_cols[t])
        A[:, [k, j]] = A[:, [j, k]]
        while True:
            if A[k, k] < 0:
                negate_row(k)
            col = A[k + 1 :, k]
            if col.any():
                rows_axpy(col // A[k, k], k)
                nzc = [i for i, x in enumerate(A[k + 1 :, k]) if x != 0]
                if nzc:
                    i = min(nzc, key=lambda i: abs(A[k + 1 + i, k]))
                    swap_rows(k, k + 1 + i)
                    continue
            row = A[k, k + 1 :]
            if row.any():
                # cols k+1.. minus q_j * col k
                A[:, k + 1 :] -= np.outer(A[:, k], row // A[k, k])
                nzr = [j for j, x in enumerate(A[k, k + 1 :]) if x != 0]
                if nzr:
                    j = k + 1 + min(nzr, key=lambda j: abs(A[k, k + 1 + j]))
                    A[:, [k, j]] = A[:, [j, k]]
                continue  # column may have been refilled by the swap path
            break
        k += 1

    rank = k
    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            a, b = int(A[i, i]), int(A[i + 1, i + 1])
            if b % a == 0:
                continue
            changed = True
            # col i += col i+1, then a unimodular row pair brings gcd up front
            A[:, i] += A[:, i + 1]
            g = gcd(a, b)
            s, t = _bezout(a, b)
            row_pair_op(i, i + 1, ((s, t), (-(b // g), a // g)))
            # clear the leftover entry in row i, col i+1
            A[:, i + 1] -= (A[i, i + 1] // A[i, i]) * A[:, i]

    return SNF(diag=[int(A[i, i]) for i in range(rank)], rank=rank, U=U, Uinv=Uinv)


def _bezout(a: int, b: int) -> tuple[int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_s, old_t


# -- sparse elimination ----------------------------------------------------


def _eliminate(columns, track: bool = False, freeze: bool = False):
    """Unit-pivot column elimination of a sparse integer matrix.

    Each pivot (row r, column c) has entry +-1; column operations clear row r
    from every other column, and the pair leaves the matrix.  A pivot column
    is zero on the pivot rows of every earlier pivot, so the pivots form an
    acyclic matching and whatever survives is zero on every pivot row.  Unit
    pivots are taken in a fill-aware order.

    Returns ``(pivot_rows, residue, chains, frozen)``: the pivot rows in
    elimination order; the surviving nonzero columns by input index; with
    ``track``, every unpivoted input column (zero or not) as its combination
    ``{input index: coeff}`` of input columns, which is itself plus pivot
    columns only; with ``freeze``, ``{pivot row: (elimination step, column at
    that step)}`` for ``_clear_pivot_rows``.  Untracked and unfrozen, pivot
    columns are dropped as soon as they are used.

    The pivot rows are what clearing needs when the input is a coboundary
    (de Silva, Morozov and Vejdemo-Johansson, "Dualities in persistent
    (co)homology", 2011; Chen and Kerber, "Persistent homology computation
    with a twist", EuroCG 2011).  Each pivot column is an integer combination
    of input columns, and the pivot columns restricted to their pivot rows
    form a unit-triangular, hence unimodular, block T.  If the input is
    d_p^T and B = d_{p+1}^T, then B kills every pivot column (B d_p^T = 0),
    so B's columns on the pivot rows are B's other columns times an integer
    matrix (T^-1 is integral) and may be dropped without changing B's Smith
    form (``homology._boundary_type``).
    """
    cols: dict[int, dict[int, int]] = {}
    rows: dict[int, set[int]] = {}
    chains: dict[int, dict[int, int]] | None = {} if track else None
    for ci, col in enumerate(columns):
        entries = {r: int(v) for r, v in col.items() if v}
        if track:
            chains[ci] = {ci: 1}
        if entries:
            cols[ci] = entries
            for r in entries:
                rows.setdefault(r, set()).add(ci)

    heap: list[tuple[int, int, int]] = []

    def push_units(ci):
        col = cols.get(ci)
        if not col:
            return
        for r, v in col.items():
            if v in (1, -1):
                score = (len(col) - 1) * (len(rows.get(r, ())) - 1)
                heapq.heappush(heap, (score, r, ci))
                break  # one candidate per column is plenty

    for ci in list(cols):
        push_units(ci)

    pivot_rows: list[int] = []
    frozen: dict[int, tuple[int, dict[int, int]]] | None = {} if freeze else None
    while heap:
        _, r, c = heapq.heappop(heap)
        col = cols.get(c)
        if col is None or r not in col or col[r] not in (1, -1):
            continue
        v = col[r]
        chain = chains.pop(c) if track else None
        # column ops clear row r everywhere else
        for c2 in list(rows.get(r, ())):
            if c2 == c:
                continue
            col2 = cols[c2]
            factor = col2[r] * v  # v in {1,-1} so this is col2[r]/v
            for rr, vv in col.items():
                cur = col2.get(rr, 0) - factor * vv
                if cur:
                    col2[rr] = cur
                    rows.setdefault(rr, set()).add(c2)
                else:
                    if rr in col2:
                        del col2[rr]
                        rows[rr].discard(c2)
            if track:
                chain2 = chains[c2]
                for k, x in chain.items():
                    cur = chain2.get(k, 0) - factor * x
                    if cur:
                        chain2[k] = cur
                    else:
                        chain2.pop(k, None)
            if not col2:
                del cols[c2]
            else:
                push_units(c2)
        # row r is now supported on column c only; remove the pivot pair
        for rr in col:
            rows[rr].discard(c)
            if not rows[rr]:
                del rows[rr]
        del cols[c]
        if freeze:
            frozen[r] = (len(pivot_rows), col)
        pivot_rows.append(r)
    return pivot_rows, cols, chains, frozen


def _clear_pivot_rows(vec: dict[int, int], pivots) -> dict[int, int]:
    """Subtract frozen pivot columns (``_eliminate(freeze=True)``) from the
    sparse vector, in elimination order, until it is zero on every pivot
    row; the result is congruent to ``vec`` modulo the columns' span."""
    heap = [(pivots[r][0], r) for r in vec if r in pivots]
    heapq.heapify(heap)
    while heap:
        _, r = heapq.heappop(heap)
        q = vec.get(r)
        if not q:
            continue
        col = pivots[r][1]
        q *= col[r]  # col[r] is a unit
        # a later pivot column is zero here, so row r is cleared for good
        for rr, v in col.items():
            cur = vec.get(rr, 0) - q * v
            if cur:
                if rr not in vec and rr in pivots:
                    heapq.heappush(heap, (pivots[rr][0], rr))
                vec[rr] = cur
            else:
                vec.pop(rr, None)
    return vec


def _dense(cols: dict[int, dict[int, int]], rows=None) -> np.ndarray:
    """Sparse columns (in index order) as a dense matrix over ``rows``,
    by default the rows they touch, in increasing order."""
    if rows is None:
        rows = sorted({r for col in cols.values() for r in col})
    rmap = {r: i for i, r in enumerate(rows)}
    dense = np.zeros((len(rows), len(cols)), dtype=object)
    for j, ci in enumerate(sorted(cols)):
        for r, v in cols[ci].items():
            dense[rmap[r], j] = v
    return dense


def sparse_diagonal(columns, nrows: int, pivot_rows: list[int] | None = None
                    ) -> tuple[list[int], int]:
    """Invariant factors of a sparse integer matrix given as column dicts.

    Unit pivots are consumed without transform tracking; whatever survives
    is finished densely.  Returns the positive diagonal
    (divisibility-chained) and the rank.  With ``pivot_rows`` (a list), the
    rows of the unit pivots are appended to it, in elimination order, for
    clearing the next degree.  The benchmark's tracer wraps this function
    and unpacks its ``(diag, rank)`` result, so both stay as they are.
    """
    pivots, residue, _, _ = _eliminate(columns)
    if pivot_rows is not None:
        pivot_rows.extend(pivots)
    diag = [1] * len(pivots)
    if residue:
        diag.extend(smith_normal_form(_dense(residue)).diag)
    return diag, len(diag)


# -- lattices ----------------------------------------------------------------


def column_hnf(mat) -> np.ndarray:
    """Canonical column-style Hermite form: pivot rows increasing, positive
    pivots, entries left of a pivot reduced modulo it.  Zero columns dropped.

    The echelon basis comes from ``LazyLattice``; the form is unique per
    lattice, so only its normalisation happens here."""
    A = _as_int_matrix(mat)
    lattice = LazyLattice(A.shape[0])
    for j in range(A.shape[1]):
        lattice._absorb(A[:, j])
    H = lattice.basis_matrix()
    pivots = sorted(lattice._basis)
    for j, p in enumerate(pivots):
        if H[p, j] < 0:
            H[:, j] = -H[:, j]
    for j, p in enumerate(pivots):
        for j2 in range(j):
            q = H[p, j2] // H[p, j]
            if q:
                H[:, j2] -= q * H[:, j]
    return H


def kernel_lattice(mat, relations=None) -> np.ndarray:
    """Canonical HNF of the preimage {x : mat @ x in the span of the
    ``relations`` columns}: the integer kernel when there are none.

    The columns of [[mat, -relations], [I, 0]] span the pairs
    (mat x - relations y, x); in column echelon form, those with no pivot in
    the top rows span the pairs with top part zero, and their bottom parts
    are the preimage's HNF (H. Cohen, A Course in Computational Algebraic
    Number Theory, 2.4).  Budgeted on the columns of that matrix."""
    M = _as_int_matrix(mat)
    t, s = M.shape
    rel = np.zeros((t, 0), dtype=object) if relations is None else relations
    width = s + rel.shape[1]
    if width > KERNEL_DENSE_LIMIT:
        raise BudgetExceededError(
            f"snf: kernel lattice of {width} columns is over the cap of "
            f"{KERNEL_DENSE_LIMIT} columns"
        )
    graph = np.zeros((t + s, width), dtype=object)
    graph[:t, :s] = M
    graph[:t, s:] = -rel
    graph[t:, :s] = np.eye(s, dtype=object)
    h = column_hnf(graph)
    return h[t:, [j for j in range(h.shape[1]) if not h[:t, j].any()]]


def lattice_coords(hnf: np.ndarray, vec) -> list[int] | None:
    """Integer coordinates of ``vec`` in the basis of canonical HNF columns,
    or None when it is not in their lattice.  Each column is zero above its
    pivot row, so the coordinates come one pivot row at a time."""
    v = [int(x) for x in vec]
    coords = []
    for j in range(hnf.shape[1]):
        col = hnf[:, j]
        p = next(i for i, x in enumerate(col) if x)
        q = v[p] // col[p]  # a remainder stays on row p and fails the end test
        coords.append(q)
        if q:
            for i in range(p, len(v)):
                v[i] -= q * col[i]
    return None if any(v) else coords


def lattice_equal(h1: np.ndarray, h2: np.ndarray) -> bool:
    if h1.shape != h2.shape:
        return False
    return bool(np.equal(h1, h2).all())


def lattice_sum(*mats) -> np.ndarray:
    cols = [m for m in mats if m.size]
    if not cols:
        return column_hnf(mats[0])
    stacked = np.concatenate([np.array(m, dtype=object) for m in cols], axis=1)
    return column_hnf(stacked)


class LazyLattice:
    """Incremental column lattice in echelon form: ``column_hnf``'s basis.

    Columns live as sparse {row: value} dicts keyed by their pivot row.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._basis: dict[int, dict[int, int]] = {}  # pivot row -> column

    def _absorb(self, col):
        v = {i: int(x) for i, x in enumerate(col) if x}
        while v:
            p = min(v)
            b = self._basis.get(p)
            if b is None:
                if v[p] < 0:
                    v = {i: -x for i, x in v.items()}
                self._basis[p] = v
                return
            g = gcd(b[p], v[p])
            s, t = _bezout(b[p], v[p])
            bp_g, vp_g = b[p] // g, v[p] // g
            support = set(b) | set(v)
            nb, nv = {}, {}
            for i in support:
                bi, vi = b.get(i, 0), v.get(i, 0)
                x = s * bi + t * vi
                y = bp_g * vi - vp_g * bi
                if x:
                    nb[i] = x
                if y:
                    nv[i] = y
            self._basis[p] = nb
            v = nv

    def basis_matrix(self) -> np.ndarray:
        """Echelon basis as a dense column matrix (pivot rows increasing)."""
        cols = [self._basis[p] for p in sorted(self._basis)]
        out = np.zeros((self.dim, len(cols)), dtype=object)
        for j, col in enumerate(cols):
            for i, x in col.items():
                out[i, j] = x
        return out
