"""Exact integer linear algebra: Smith and Hermite normal forms.

Everything here is integral; no floating point.  The dense routine works on
int64 numpy arrays and silently upgrades to python-int (object dtype) arrays
when entries approach the overflow guard.  Boundary matrices of simplicial
complexes are handled by one sparse elimination pass, ``_eliminate``, that
consumes unit pivots (which dominate such matrices) and hands any small
residue to the dense code; ``homology`` runs the same pass for group types
and, tracking column combinations and keeping the pivot columns, for
homology coordinates.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import BudgetExceededError

_INT64_GUARD = 1 << 62  # ceiling for projected op results in int64 mode
KERNEL_DENSE_LIMIT = 4000


@dataclass
class SNF:
    diag: list[int]  # positive invariant factors, divisibility chain
    rank: int
    U: np.ndarray | None = None  # U @ A @ V == D
    Uinv: np.ndarray | None = None
    V: np.ndarray | None = None
    Vinv: np.ndarray | None = None


def _as_int_matrix(a) -> np.ndarray:
    m = np.array(a, dtype=object)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.size == 0:
        return np.zeros(m.shape, dtype=np.int64)
    try:
        return m.astype(np.int64)
    except (OverflowError, TypeError):
        return m


def smith_normal_form(
    a,
    want_u: bool = False,
    want_uinv: bool = False,
    want_v: bool = False,
    want_vinv: bool = False,
) -> SNF:
    """Diagonalize over the integers: U @ A @ V = diag(d1..dr), d1|d2|...

    Transform matrices are tracked only on request; Uinv/Vinv are maintained
    incrementally so no integer matrix inversion is ever needed.
    """
    A = _as_int_matrix(a).copy()
    m, n = A.shape
    track_u = want_u or want_uinv
    track_v = want_v or want_vinv
    U = np.eye(m, dtype=A.dtype) if track_u else None
    Uinv = np.eye(m, dtype=A.dtype) if want_uinv else None
    V = np.eye(n, dtype=A.dtype) if track_v else None
    Vinv = np.eye(n, dtype=A.dtype) if want_vinv else None

    state = {"A": A, "U": U, "Uinv": Uinv, "V": V, "Vinv": Vinv}

    def to_object():
        for key, mat in state.items():
            if mat is not None and hasattr(mat, "dtype") and mat.dtype != object:
                state[key] = mat.astype(object)

    def real_max() -> int:
        mx = 1
        for key in ("A", "U", "Uinv", "V", "Vinv"):
            t = state[key]
            if t is not None and t.size:
                mx = max(mx, int(np.abs(t).max()))
        return mx

    # conservative running bound on the largest absolute entry anywhere;
    # each elementary operation multiplies it by a factor computed from its
    # coefficients, and a real scan happens only when the bound gets close
    # to the int64 ceiling (tightening it back down or switching to
    # python-int arrays)
    state["bound"] = real_max() if A.size else 1

    def ensure(factor: int):
        if state["A"].dtype == object:
            return
        factor = max(int(factor), 1)
        projected = state["bound"] * factor
        if projected > _INT64_GUARD:
            state["bound"] = real_max()
            projected = state["bound"] * factor
            if projected > _INT64_GUARD:
                to_object()
                return
        state["bound"] = projected

    def swap_rows(i, j):
        if i == j:
            return
        A = state["A"]
        A[[i, j]] = A[[j, i]]
        if state["U"] is not None:
            state["U"][[i, j]] = state["U"][[j, i]]
        if state["Uinv"] is not None:
            state["Uinv"][:, [i, j]] = state["Uinv"][:, [j, i]]

    def swap_cols(i, j):
        if i == j:
            return
        A = state["A"]
        A[:, [i, j]] = A[:, [j, i]]
        if state["V"] is not None:
            state["V"][:, [i, j]] = state["V"][:, [j, i]]
        if state["Vinv"] is not None:
            state["Vinv"][[i, j]] = state["Vinv"][[j, i]]

    def negate_row(i):
        state["A"][i] = -state["A"][i]
        if state["U"] is not None:
            state["U"][i] = -state["U"][i]
        if state["Uinv"] is not None:
            state["Uinv"][:, i] = -state["Uinv"][:, i]

    def rows_axpy(q, k):
        # rows k+1.. minus q * row k
        ensure(1 + int(np.abs(q).sum()) if len(q) else 1)
        A = state["A"]
        A[k + 1 :] -= np.outer(q, A[k])
        if state["U"] is not None:
            state["U"][k + 1 :] -= np.outer(q, state["U"][k])
        if state["Uinv"] is not None:
            state["Uinv"][:, k] += state["Uinv"][:, k + 1 :] @ q

    def cols_axpy(q, k):
        # cols k+1.. minus q_j * col k
        ensure(1 + int(np.abs(q).sum()) if len(q) else 1)
        A = state["A"]
        A[:, k + 1 :] -= np.outer(A[:, k], q)
        if state["V"] is not None:
            state["V"][:, k + 1 :] -= np.outer(state["V"][:, k], q)
        if state["Vinv"] is not None:
            state["Vinv"][k] += q @ state["Vinv"][k + 1 :]

    def row_pair_op(i, j, mat2):
        # rows (i,j) <- mat2 @ rows (i,j); mat2 unimodular
        ensure(sum(abs(int(x)) for row in mat2 for x in row))
        A = state["A"]
        (a11, a12), (a21, a22) = mat2
        ri, rj = A[i].copy(), A[j].copy()
        A[i] = a11 * ri + a12 * rj
        A[j] = a21 * ri + a22 * rj
        if state["U"] is not None:
            ui, uj = state["U"][i].copy(), state["U"][j].copy()
            state["U"][i] = a11 * ui + a12 * uj
            state["U"][j] = a21 * ui + a22 * uj
        if state["Uinv"] is not None:
            # inverse of [[a,b],[c,d]] with det 1 is [[d,-b],[-c,a]]
            det = a11 * a22 - a12 * a21
            assert det in (1, -1)
            b11, b12, b21, b22 = a22 * det, -a12 * det, -a21 * det, a11 * det
            ci, cj = state["Uinv"][:, i].copy(), state["Uinv"][:, j].copy()
            state["Uinv"][:, i] = ci * b11 + cj * b21
            state["Uinv"][:, j] = ci * b12 + cj * b22

    def col_axpy_single(dst, src, q):
        # col dst -= q * col src
        ensure(1 + abs(int(q)))
        A = state["A"]
        A[:, dst] -= q * A[:, src]
        if state["V"] is not None:
            state["V"][:, dst] -= q * state["V"][:, src]
        if state["Vinv"] is not None:
            state["Vinv"][src] += q * state["Vinv"][dst]

    k = 0
    limit = min(m, n)
    while k < limit:
        A = state["A"]
        sub = A[k:, k:]
        nz = np.nonzero(sub)
        if len(nz[0]) == 0:
            break
        if sub.dtype == object:
            vals = [abs(sub[i, j]) for i, j in zip(nz[0], nz[1])]
            t = min(range(len(vals)), key=vals.__getitem__)
        else:
            t = int(np.abs(sub[nz]).argmin())
        swap_rows(k, int(nz[0][t]) + k)
        swap_cols(k, int(nz[1][t]) + k)
        while True:
            A = state["A"]
            if A[k, k] < 0:
                negate_row(k)
            col = A[k + 1 :, k]
            if col.any() if col.dtype != object else any(x != 0 for x in col):
                q = col // A[k, k]
                rows_axpy(q, k)
                A = state["A"]
                col = A[k + 1 :, k]
                nzc = [i for i, x in enumerate(col) if x != 0]
                if nzc:
                    i = min(nzc, key=lambda i: abs(col[i]))
                    swap_rows(k, k + 1 + i)
                    continue
            row = A[k, k + 1 :]
            if row.any() if row.dtype != object else any(x != 0 for x in row):
                q = row // A[k, k]
                cols_axpy(q, k)
                A = state["A"]
                row = A[k, k + 1 :]
                nzr = [j for j, x in enumerate(row) if x != 0]
                if nzr:
                    j = min(nzr, key=lambda j: abs(row[j]))
                    swap_cols(k, k + 1 + j)
                    continue
                continue  # column may have been refilled by the swap path
            break
        k += 1

    rank = k
    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        A = state["A"]
        for i in range(rank - 1):
            a, b = int(A[i, i]), int(A[i + 1, i + 1])
            if b % a == 0:
                continue
            changed = True
            # col i += col i+1, then a unimodular row pair brings gcd up front
            col_axpy_single(i, i + 1, -1)  # col_i -= (-1) * col_{i+1}
            g = gcd(a, b)
            s, t = _bezout(a, b)
            row_pair_op(i, i + 1, ((s, t), (-(b // g), a // g)))
            # clear the leftover entry in row i, col i+1
            A = state["A"]
            q = A[i, i + 1] // A[i, i]
            col_axpy_single(i + 1, i, q)

    diag = [int(state["A"][i, i]) for i in range(rank)]
    return SNF(
        diag=diag,
        rank=rank,
        U=state["U"] if want_u else None,
        Uinv=state["Uinv"],
        V=state["V"] if want_v else None,
        Vinv=state["Vinv"],
    )


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


def kernel_basis(a) -> np.ndarray:
    """Basis of the integer kernel as columns of a (primitive) matrix."""
    A = _as_int_matrix(a)
    if A.shape[1] > KERNEL_DENSE_LIMIT:
        raise BudgetExceededError(
            f"dense kernel refused for {A.shape[1]} columns > {KERNEL_DENSE_LIMIT}"
        )
    res = smith_normal_form(A, want_v=True)
    return res.V[:, res.rank :]


def solve_columns(b, x):
    """Integer solution u of B @ u = x (x a vector or matrix), or None."""
    B = _as_int_matrix(b)
    X = _as_int_matrix(x)
    vector = np.array(x, dtype=object).ndim == 1
    if vector:
        X = X.reshape(-1, 1)
    res = smith_normal_form(B, want_u=True, want_v=True)
    Y = res.U @ X
    m, n = B.shape
    W = np.zeros((n, X.shape[1]), dtype=object)
    for i in range(m):
        for j in range(X.shape[1]):
            y = int(Y[i, j])
            if i < res.rank:
                d = res.diag[i]
                if y % d:
                    return None
                W[i, j] = y // d
            elif y != 0:
                return None
    out = res.V @ W
    return out[:, 0] if vector else out


# -- sparse elimination ----------------------------------------------------


def _eliminate(columns, track: bool = False, freeze: bool = False):
    """Unit-pivot column elimination of a sparse integer matrix.

    Each pivot (row r, column c) has entry +-1; column operations clear row r
    from every other column, and the pair leaves the matrix.  A pivot column
    is zero on the pivot rows of every earlier pivot, so the pivots form an
    acyclic matching and whatever survives is zero on every pivot row.  Unit
    pivots are taken in a fill-aware order.

    Returns ``(units, residue, chains, pivots)``: the number of pivots; the
    surviving nonzero columns by input index; with ``track``, every unpivoted
    input column (zero or not) as its combination ``{input index: coeff}`` of
    input columns, which is itself plus pivot columns only; with ``freeze``,
    ``{pivot row: (elimination step, column at that step)}`` for
    ``_clear_pivot_rows``.  Untracked and unfrozen, pivot columns are dropped
    as soon as they are used.
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

    units = 0
    pivots: dict[int, tuple[int, dict[int, int]]] | None = {} if freeze else None
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
            pivots[r] = (units, col)
        units += 1
    return units, cols, chains, pivots


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


def sparse_diagonal(columns, nrows: int) -> tuple[list[int], int]:
    """Invariant factors of a sparse integer matrix given as column dicts.

    Unit pivots are consumed without transform tracking; whatever survives
    is finished densely.  Returns the positive diagonal
    (divisibility-chained) and the rank.
    """
    units, residue, _, _ = _eliminate(columns)
    diag = [1] * units
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


def _first_nonzero(col):
    for i, v in enumerate(col):
        if v != 0:
            return i
    return None


def lattice_contains(hnf: np.ndarray, vec) -> bool:
    """Membership of a vector in the lattice spanned by canonical HNF columns."""
    v = list(np.array(vec, dtype=object))
    m, r = hnf.shape
    for j in range(r):
        col = hnf[:, j]
        p = _first_nonzero(list(col))
        if v[p] == 0:
            continue
        if v[p] % col[p]:
            return False
        q = v[p] // col[p]
        for i in range(m):
            v[i] -= q * col[i]
    return all(x == 0 for x in v)


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
