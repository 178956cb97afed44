"""Exact integer linear algebra: Smith and Hermite normal forms.

Everything here is integral, on python ints (object arrays); no floating
point.  Boundary matrices of simplicial complexes are handled by one sparse
elimination pass, ``_eliminate``, that consumes unit pivots (which dominate
such matrices) and hands any small residue to the dense Smith form;
``homology`` runs the same pass for group types (on coboundaries, with the
columns the previous degree paired cleared away) and, tracking column
combinations and keeping the pivot columns, for homology coordinates.  The
dense Smith form gives invariant factors and, on request, its row transform.
A lattice is its canonical column Hermite form, ``{pivot row: {row: value}}``
with pivots increasing, built only by ``column_hnf`` from sparse columns:
equal lattices have equal forms, a sum is the form of the chained columns,
``kernel_lattice`` gives kernels and preimages and ``lattice_coords``
membership and coordinates, walking each pivot once.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain
from math import gcd

import numpy as np

from .errors import BudgetExceededError

KERNEL_DENSE_LIMIT = 4000
# matrix entries gathered at once by a round of ``_peel``: from 1 << 14 to
# 1 << 18 the rg=3 whole nerve's degree-2 homology peaked within 45.3 to
# 48.1 MB, rising past 1 << 16, and took the same time within the noise
_PEEL_ENTRIES = 1 << 16


@dataclass
class SNF:
    diag: list[int]  # positive invariant factors, divisibility chain
    rank: int
    U: np.ndarray | None  # U @ A @ V == D for some unimodular V
    Uinv: np.ndarray | None


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


@dataclass
class CSC:
    """A sparse integer matrix in compressed sparse columns: column c holds
    the rows ``rows[indptr[c]:indptr[c + 1]]`` (nonnegative, distinct), with
    the values in the same slice of ``values``.  ``rows`` are int32 or int64:
    the peel's per-row counts and sums pick their own dtypes, and
    ``ufunc.at`` keeps numpy's fast path whatever the index dtype, as long as
    its target, values and scalar share one dtype."""

    indptr: np.ndarray
    rows: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.indptr) - 1


def csc_columns(columns) -> CSC:
    """Column dicts {row: value} as CSC, each column in its dict order."""
    columns = list(columns)
    indptr = np.zeros(len(columns) + 1, dtype=np.int64)
    np.cumsum([len(col) for col in columns], out=indptr[1:])
    rows = np.fromiter(chain.from_iterable(columns), dtype=np.int64, count=int(indptr[-1]))
    values = np.array([v for col in columns for v in col.values()], dtype=object)
    return CSC(indptr, rows, values)


def _eliminate(matrix: CSC, track: bool = False, freeze: bool = False):
    """Unit-pivot column elimination of a sparse integer matrix.

    Each pivot (row r, column c) has entry +-1; column operations clear row r
    from every other column, and the pair leaves the matrix.  A pivot column
    is zero on the pivot rows of every earlier pivot, so the pivots form an
    acyclic matching and whatever survives is zero on every pivot row.

    Pivots come in two passes.  First ``_peel`` takes every unit entry alone
    in its row: such a pivot needs no column operation, and removing its
    column may leave further rows with a lone entry (coreduction: Mrozek and
    Batko, "Coreduction homology algorithm", DCG 2009; the reduction before
    Smith form of Kaczynski, Mrozek and Slusarek, 1998).  The peel works in
    rounds on the CSC arrays.  Each row keeps, as numpy arrays, its count of
    live columns, the sum of their indices and the sum of the signs of its
    live unit entries, so a row at count one names its column, and that
    column's entry is a unit iff the sign sum is nonzero.  A round takes the
    queued rows at count one with a unit entry, keeps for each column the
    first such row in queue order, and removes every entry of those columns
    at once (in chunks of bounded size, with the same result); the next
    queue is the rows the round left at count one, ordered by their last
    decrement.  That is the order of a queue read one row at a time:
    within a round each queued row has one live column, so only
    peeling that column changes it, and such a loop peels, per column, the
    first unit row in queue order; a row joins the queue at the decrement
    that leaves it at one, its last of the round, and a row that falls to
    one and then to zero is skipped either way.  So the pivots, their order
    and every frozen step are the one-row-at-a-time loop's.  A peeled row is
    zero in every other live column, so the peeled pivots satisfy the
    acyclicity above.  A zero entry counts as an entry in the peel, which at
    worst leaves a pivot to the heap.  Each round costs a few numpy calls, so
    a long cascade is the worst case: the boundary of a path peels one pivot
    from each end per round (about 0.5 s for 20,000 edges, where no verdict
    needs more than a few dozen rounds).  Only the columns left become dicts,
    normalised, with their unit pivots taken in a fill-aware order from a
    heap.

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
    form (``homology._boundary_type``).  Both arguments hold for peeled
    pivots, and ``_clear_pivot_rows`` relies on the same elimination order.
    """
    peeled_rows, peeled_cols = _peel(matrix)
    pivot_rows: list[int] = peeled_rows.tolist()
    frozen: dict[int, tuple[int, dict[int, int]]] | None = None
    if freeze:
        frozen = dict(zip(pivot_rows, enumerate(_column_dicts(matrix, peeled_cols))))
    live = np.ones(len(matrix), dtype=bool)
    live[peeled_cols] = False
    kept = np.flatnonzero(live)

    cols: dict[int, dict[int, int]] = {}
    rows_of: dict[int, set[int]] = {}
    chains: dict[int, dict[int, int]] | None = {} if track else None
    for ci, entries in zip(kept.tolist(), _column_dicts(matrix, kept)):
        if track:
            chains[ci] = {ci: 1}
        if entries:
            cols[ci] = entries
            for r in entries:
                rows_of.setdefault(r, set()).add(ci)

    heap: list[tuple[int, int, int]] = []

    def push_units(ci):
        col = cols.get(ci)
        if not col:
            return
        for r, v in col.items():
            if v in (1, -1):
                score = (len(col) - 1) * (len(rows_of.get(r, ())) - 1)
                heapq.heappush(heap, (score, r, ci))
                break  # one candidate per column is plenty

    for ci in list(cols):
        push_units(ci)

    while heap:
        _, r, c = heapq.heappop(heap)
        col = cols.get(c)
        if col is None or r not in col or col[r] not in (1, -1):
            continue
        v = col[r]
        combo = chains.pop(c) if track else None
        # column ops clear row r everywhere else
        for c2 in list(rows_of.get(r, ())):
            if c2 == c:
                continue
            col2 = cols[c2]
            factor = col2[r] * v  # v in {1,-1} so this is col2[r]/v
            for rr, vv in col.items():
                cur = col2.get(rr, 0) - factor * vv
                if cur:
                    col2[rr] = cur
                    rows_of.setdefault(rr, set()).add(c2)
                else:
                    if rr in col2:
                        del col2[rr]
                        rows_of[rr].discard(c2)
            if track:
                chain2 = chains[c2]
                for k, x in combo.items():
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
            rows_of[rr].discard(c)
            if not rows_of[rr]:
                del rows_of[rr]
        del cols[c]
        if freeze:
            frozen[r] = (len(pivot_rows), col)
        pivot_rows.append(r)
    return pivot_rows, cols, chains, frozen


def _peel(matrix: CSC) -> tuple[np.ndarray, np.ndarray]:
    """The lone unit pivots of ``_eliminate``, in rounds: their rows, in the
    dtype of the matrix's rows, and their columns, in that of the per-row
    sums, in peel order.

    A round's entry arrays are bounded: the entries of its columns are
    gathered in chunks of at most ``_PEEL_ENTRIES`` (a column at least), in
    column order, and so are all entries when the per-row sums are first
    taken.  The removals add up to the round's whichever the chunks, and
    the order of last decrements is carried across them: each chunk lists,
    in order, its decrements of the rows it leaves at count one.  A row
    that ends the round at one was left at one by the last chunk that hit
    it, and at more than one by the chunks before, so all its decrements in
    that chunk are listed, its last decrement among them, and the lists, in
    turn, keep the round's order of decrements.  So the next queue, the
    listed rows still at one at the round's end ordered by their last
    listed decrement, is the one an unchunked round would give."""
    indptr, rows, values = matrix.indptr, matrix.rows, matrix.values
    lengths = np.diff(indptr)
    starts = indptr[:-1].astype(_int_dtype(len(rows)))  # a round's positions are as narrow

    # per row: live entries (at most one per column), the sum of their
    # columns (below count times columns), the sum of their unit signs; the
    # count and the signs are below the largest count, in as few bytes
    count = np.zeros(int(rows.max(initial=-1)) + 1, dtype=_int_dtype(len(lengths)))
    np.add.at(count, rows, count.dtype.type(1))
    most = int(count.max(initial=0))
    dtype = _int_dtype(most * len(lengths))
    count = count.astype(np.min_scalar_type(-most - 1))  # signed
    one = count.dtype.type(1)  # each ufunc.at below has target, values and scalar of one dtype
    total = np.zeros(len(count), dtype=dtype)
    signs = np.zeros_like(count)

    def chunks(cols):
        """The entries of the given columns, in turn, in chunks: (columns,
        their lengths, the entries' rows, the entries' values)."""
        lens = lengths[cols]
        ends = np.cumsum(lens)
        lo = 0
        while lo < len(lens):
            hi = max(int(np.searchsorted(ends, ends[lo] - lens[lo] + _PEEL_ENTRIES, "right")),
                     lo + 1)
            at = _spans(starts[cols[lo:hi]], lens[lo:hi])
            yield cols[lo:hi], lens[lo:hi], rows[at], values[at]
            lo = hi

    for cols, lens, hit, hit_values in chunks(np.arange(len(lengths), dtype=dtype)):
        np.add.at(total, hit, np.repeat(cols, lens))
        _add_unit_signs(signs, hit, hit_values, one)
    peeled_rows, peeled_cols = [rows[:0]], [total[:0]]
    queue = np.flatnonzero(count == 1).astype(rows.dtype)
    while len(queue):
        ready = queue[(count[queue] == 1) & (signs[queue] != 0)]
        # per column, the first such row in queue order
        first = np.unique(total[ready], return_index=True)[1]
        first.sort()
        ready = ready[first]
        cols = total[ready]
        ones = [rows[:0]]
        for chunk, lens, hit, hit_values in chunks(cols):
            _add_unit_signs(signs, hit, hit_values, -one)
            np.subtract.at(count, hit, one)
            np.subtract.at(total, hit, np.repeat(chunk, lens))
            ones.append(hit[count[hit] == 1])  # each decrement leaving a row at one
        # the rows left at count one, each at its last decrement, in order
        ones = np.concatenate(ones)
        last = np.flatnonzero(count[ones] == 1)[::-1]
        last = last[np.unique(ones[last], return_index=True)[1]]
        last.sort()
        queue = ones[last]
        peeled_rows.append(ready)
        peeled_cols.append(cols)
    return np.concatenate(peeled_rows), np.concatenate(peeled_cols)


def _int_dtype(bound: int) -> type:
    """int32 for integers of at most ``bound`` when it is below 2^31, else
    int64: the peel's positions, counts and sums each take the narrowest."""
    return np.int32 if bound < 2**31 else np.int64


def _add_unit_signs(signs: np.ndarray, rows: np.ndarray, values: np.ndarray, scale):
    """Add ``scale`` (of the dtype of ``signs``) times the sign of each unit
    entry to its row's sum."""
    np.add.at(signs, rows[values == 1], scale)
    np.add.at(signs, rows[values == -1], -scale)


def _spans(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The positions ``starts[k]:starts[k] + lens[k]`` for every k, in turn,
    in the dtype of ``starts``: steps of one, with the jump to each span's
    start at its head, summed in place, so no other array of that length."""
    nonempty = lens > 0
    starts, lens = starts[nonempty], lens[nonempty]
    at = np.ones(int(lens.sum()), dtype=starts.dtype)
    if len(at):
        at[0] = starts[0]
        at[np.cumsum(lens[:-1])] = starts[1:] - starts[:-1] - lens[:-1] + 1
        np.cumsum(at, out=at)
    return at


def _column_dicts(matrix: CSC, which: np.ndarray):
    """The given CSC columns, in turn, as dicts with zeros dropped."""
    lens = matrix.indptr[which + 1] - matrix.indptr[which]
    at = _spans(matrix.indptr[which], lens)
    rows, values = matrix.rows[at].tolist(), matrix.values[at].tolist()
    start = 0
    for length in lens.tolist():
        end = start + length
        yield {r: int(v) for r, v in zip(rows[start:end], values[start:end]) if v}
        start = end


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


def sparse_diagonal(matrix: CSC, pivot_rows: list[int] | None = None) -> tuple[list[int], int]:
    """Invariant factors of a sparse integer matrix in CSC form.

    Unit pivots are consumed without transform tracking; whatever survives
    is finished densely.  Returns the positive diagonal
    (divisibility-chained) and the rank.  With ``pivot_rows`` (a list), the
    rows of the unit pivots are appended to it, in elimination order, for
    clearing the next degree.  The benchmark's tracer wraps this function
    and unpacks its ``(diag, rank)`` result, so both stay as they are.
    """
    pivots, residue, _, _ = _eliminate(matrix)
    if pivot_rows is not None:
        pivot_rows.extend(pivots)
    diag = [1] * len(pivots)
    if residue:
        diag.extend(smith_normal_form(_dense(residue)).diag)
    return diag, len(diag)


# -- lattices ----------------------------------------------------------------


def column_hnf(columns) -> dict[int, dict[int, int]]:
    """Canonical column Hermite form of the lattice of sparse {row: value}
    columns, ``{pivot row: column}`` with pivots increasing and positive, each
    column zero above its pivot row and reduced modulo every later pivot.

    Each column is absorbed into an echelon basis keyed by pivot rows: a
    Bezout step against the basis column of its pivot row keeps their gcd
    there and leaves a rest with a later pivot.  Then the pivots are made
    positive, and the earlier columns reduced on each pivot row in turn."""
    basis: dict[int, dict[int, int]] = {}
    for col in columns:
        v = {i: int(x) for i, x in col.items() if x}
        while v:
            p = min(v)
            b = basis.get(p)
            if b is None:
                basis[p] = v
                break
            g = gcd(b[p], v[p])
            s, t = _bezout(b[p], v[p])
            bp_g, vp_g = b[p] // g, v[p] // g
            nb, nv = {}, {}
            for i in set(b) | set(v):
                bi, vi = b.get(i, 0), v.get(i, 0)
                x, y = s * bi + t * vi, bp_g * vi - vp_g * bi
                if x:
                    nb[i] = x
                if y:
                    nv[i] = y
            basis[p], v = nb, nv
    pivots = sorted(basis)
    hnf = {p: basis[p] if basis[p][p] > 0 else {i: -x for i, x in basis[p].items()}
           for p in pivots}
    for k, p in enumerate(pivots):
        col = hnf[p]
        for p2 in pivots[:k]:
            q = hnf[p2].get(p, 0) // col[p]
            if q:
                earlier = hnf[p2]
                hnf[p2] = {i: y for i in earlier.keys() | col.keys()
                           if (y := earlier.get(i, 0) - q * col.get(i, 0))}
    return hnf


def kernel_budget(width: int) -> None:
    """Refuse a kernel lattice of more than ``KERNEL_DENSE_LIMIT`` columns."""
    if width > KERNEL_DENSE_LIMIT:
        raise BudgetExceededError(
            f"snf: kernel lattice of {width} columns is over the cap of "
            f"{KERNEL_DENSE_LIMIT} columns"
        )


def kernel_lattice(columns: list, rows: int, relations: list) -> dict[int, dict[int, int]]:
    """Canonical HNF of the preimage {x : M x in the span of the
    ``relations``}, where M has the given sparse columns over ``rows`` rows:
    the integer kernel of M when there are no relations.

    The columns of [[M, -relations], [I, 0]] span the pairs
    (M x - relations y, x); in column echelon form, those with no pivot in
    the top rows span the pairs with top part zero, and their bottom parts
    are the preimage's HNF (H. Cohen, A Course in Computational Algebraic
    Number Theory, 2.4).  Budgeted on the columns of that matrix."""
    kernel_budget(len(columns) + len(relations))
    graph = chain(({**col, rows + j: 1} for j, col in enumerate(columns)),
                  ({i: -x for i, x in rel.items()} for rel in relations))
    return {p - rows: {i - rows: x for i, x in col.items()}
            for p, col in column_hnf(graph).items() if p >= rows}


def lattice_coords(hnf: dict[int, dict[int, int]], vec) -> list[int] | None:
    """Integer coordinates of the sparse vector ``vec`` ({row: value}) in the
    columns of a canonical HNF, or None when it is not in their lattice.
    Each column is zero above its pivot row, so the coordinates come one
    pivot row at a time, each subtracting over that column's nonzeros."""
    v = dict(vec)
    coords = []
    for p, col in hnf.items():
        q = v.get(p, 0) // col[p]  # a remainder stays on row p and fails the end test
        coords.append(q)
        if q:
            for r, x in col.items():
                v[r] = v.get(r, 0) - q * x
    return None if any(v.values()) else coords
