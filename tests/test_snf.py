import time
from itertools import chain
from math import gcd, lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from horokit import snf
from horokit.complexes import SimplicialComplex
from horokit.errors import BudgetExceededError
from horokit.snf import (
    _clear_pivot_rows,
    _eliminate,
    column_hnf,
    csc_columns,
    kernel_lattice,
    lattice_coords,
    smith_normal_form,
    sparse_diagonal,
)
from oracles import columns, dense, dense_column_hnf, dense_kernel_lattice, dense_lattice_coords

small_matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


def _sympy_diag(a):
    """Nonzero invariant factors of an integer matrix, by sympy over ZZ."""
    m, n = a.shape
    if not m or not n:
        return []
    d = sympy_snf(Matrix(a.tolist()), domain=ZZ)
    return sorted(abs(int(d[i, i])) for i in range(min(m, n)) if d[i, i] != 0)


def _vec(v) -> dict[int, int]:
    """A dense vector as the sparse {row: value} vector that
    ``lattice_coords`` reads."""
    return {i: int(x) for i, x in enumerate(v) if x}


def _in_span(a, v) -> bool:
    """Oracle: v lies in the column lattice of a exactly when appending it
    changes neither the rank nor the product of the invariant factors."""
    before = _sympy_diag(a)
    after = _sympy_diag(np.concatenate([a, np.array(v, dtype=object).reshape(-1, 1)], axis=1))
    return len(after) == len(before) and prod(after) == prod(before)


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_snf_properties(rows):
    a = np.array(rows, dtype=object)
    res = smith_normal_form(a, want_u=True)
    m, n = a.shape
    assert res.diag == _sympy_diag(a)
    assert res.rank == len(res.diag)
    for x, y in zip(res.diag, res.diag[1:]):
        assert y % x == 0
    assert np.array_equal(res.U @ res.Uinv, np.eye(m, dtype=object))
    ua = res.U @ a
    assert not ua[res.rank :].any()
    # U @ A = D @ V^-1: row i is d_i times a row of a unimodular matrix
    quotient = np.zeros((res.rank, n), dtype=object)
    for i, d in enumerate(res.diag):
        assert all(x % d == 0 for x in ua[i])
        quotient[i] = ua[i] // d
    assert smith_normal_form(quotient).diag == [1] * res.rank


@settings(max_examples=100, deadline=None)
@given(small_matrices)
def test_sparse_matches_dense_diag(rows):
    a = np.array(rows, dtype=object)
    dense = smith_normal_form(a)
    cols = [
        {i: int(a[i, j]) for i in range(a.shape[0]) if a[i, j]}
        for j in range(a.shape[1])
    ]
    diag, rank = sparse_diagonal(csc_columns(cols))
    assert rank == dense.rank
    assert diag == dense.diag


@st.composite
def sparse_columns(draw):
    """Columns over m shared rows (units, non-units and the odd explicit
    zero, so column operations fill in), and for some columns a private row
    holding a lone unit, which the peel takes and which may free others."""
    m = draw(st.integers(1, 5))
    values = st.sampled_from([1, -1, 1, -1, 2, -2, 3, 0])
    cols = draw(st.lists(st.dictionaries(st.integers(0, m - 1), values, max_size=m),
                         min_size=1, max_size=7))
    for j, col in enumerate(cols):
        if draw(st.booleans()):
            col[m + j] = draw(st.sampled_from([1, -1]))
    return cols


def _dense_of(cols):
    nrows = 1 + max((r for col in cols for r in col), default=0)
    a = np.zeros((nrows, len(cols)), dtype=object)
    for j, col in enumerate(cols):
        for r, v in col.items():
            a[r, j] = v
    return a


def _combine(cols, combo):
    out = {}
    for i, x in combo.items():
        for r, v in cols[i].items():
            out[r] = out.get(r, 0) + x * v
    return {r: v for r, v in out.items() if v}


@settings(max_examples=200, deadline=None)
@given(sparse_columns(), st.data())
def test_eliminate_all_modes_match_oracles(cols, data):
    a = _dense_of(cols)
    matrix = csc_columns(cols)
    assert len(matrix) == len(cols)
    # group types: the invariant factors are sympy's
    assert sparse_diagonal(matrix)[0] == _sympy_diag(a)
    # track: each unpivoted column's combination gives its residue, or zero
    pivots, residue, chains, _ = _eliminate(matrix, track=True)
    assert len(pivots) + len(chains) == len(cols)
    for ci, combo in chains.items():
        assert combo[ci] == 1
        assert not (set(combo) - {ci}) & set(chains)  # the rest are pivot columns
        assert _combine(cols, combo) == residue.get(ci, {})
    for col in residue.values():
        assert not set(col) & set(pivots)
    # freeze: a vector is cleared off every pivot row, within its coset
    pivots, _, _, frozen = _eliminate(matrix, freeze=True)
    assert sorted(frozen) == sorted(pivots)
    # the pivots are an acyclic matching: each column is a unit on its row
    # and zero on the rows of every earlier pivot
    for k, r in enumerate(pivots):
        step, col = frozen[r]
        assert step == k and col[r] in (1, -1)
        assert not any(col.get(earlier) for earlier in pivots[:k])
    vec = data.draw(st.dictionaries(st.integers(0, a.shape[0] - 1),
                                    st.integers(-4, 4).filter(bool), max_size=a.shape[0]))
    cleared = _clear_pivot_rows(dict(vec), frozen)
    assert not set(cleared) & set(pivots)
    shift = [vec.get(r, 0) - cleared.get(r, 0) for r in range(a.shape[0])]
    assert lattice_coords(column_hnf(cols), _vec(shift)) is not None


def test_tracked_elimination_of_a_long_path_is_linear():
    # the boundary of a path: every edge pivots with no fill, and a pivot
    # order that grows each chain along the path is quadratic (tens of seconds)
    n = 20_000
    path = SimplicialComplex.from_faces(list(range(n + 1)), [(i, i + 1) for i in range(n)])
    start = time.perf_counter()
    pivots, residue, chains, _ = _eliminate(csc_columns(path.boundary_columns(1)), track=True)
    assert time.perf_counter() - start < 5
    assert len(pivots) == n and not residue and not chains


def _scalar_peel(matrix):
    """The reference for ``snf._peel``: the peel as a loop that reads a queue
    one row at a time.  Returns the pivot rows and columns in peel order, and
    each peeled row's frozen column."""
    indptr, rows, values = matrix.indptr.tolist(), matrix.rows.tolist(), matrix.values
    count = [0] * (1 + max(rows, default=-1))
    total = count.copy()
    for c in range(len(matrix)):
        for r in rows[indptr[c]:indptr[c + 1]]:
            count[r] += 1
            total[r] += c
    queue = [r for r, k in enumerate(count) if k == 1]
    pivot_rows, pivot_cols, frozen = [], [], {}
    for r in queue:  # the queue grows while it is read
        if count[r] != 1:
            continue
        c = total[r]
        start, end = indptr[c], indptr[c + 1]
        col = rows[start:end]
        if values[start + col.index(r)] not in (1, -1):
            continue
        for rr in col:
            count[rr] -= 1
            total[rr] -= c
            if count[rr] == 1:
                queue.append(rr)
        frozen[r] = {rr: int(v) for rr, v in zip(col, values[start:end].tolist()) if v}
        pivot_rows.append(r)
        pivot_cols.append(c)
    return pivot_rows, pivot_cols, frozen


def _csc(columns, dtype):
    """Column dicts as CSC arrays with values of the given dtype."""
    matrix = csc_columns(columns)
    return snf.CSC(matrix.indptr, matrix.rows, np.array(list(matrix.values), dtype=dtype))


def _check_peel_against_the_scalar_peel(matrix):
    want_rows, want_cols, want_frozen = _scalar_peel(matrix)
    got = _eliminate(matrix, track=True, freeze=True)
    # the same pivots in the same order whatever the dtype of the rows; the
    # peeled rows keep it, the columns take that of the (int32) row sums
    for dtype in (np.int32, np.int64):
        narrowed = snf.CSC(matrix.indptr, matrix.rows.astype(dtype), matrix.values)
        rows, cols = snf._peel(narrowed)
        assert rows.dtype == dtype and cols.dtype == np.int32
        assert rows.tolist() == want_rows and cols.tolist() == want_cols
        assert _eliminate(narrowed, track=True, freeze=True) == got
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(snf, "_peel", lambda m: tuple(np.array(x, dtype=np.int64)
                                                for x in _scalar_peel(m)[:2]))
        assert _eliminate(matrix, track=True, freeze=True) == got
    pivots, _, _, frozen = got
    assert pivots[: len(want_rows)] == want_rows
    assert {r: frozen[r] for r in want_rows} == {
        r: (k, want_frozen[r]) for k, r in enumerate(want_rows)
    }


@st.composite
def peel_matrices(draw):
    """Sparse integer CSC matrices, values int64, int8 or python ints: shared
    rows with units, non-units and explicit zeros, and private rows that start
    alone in their column, up to three per column, so one round may peel a
    column with several lone rows, and a shared row may fall to one and then
    to zero in the same round."""
    m = draw(st.integers(1, 8))
    values = st.sampled_from([1, -1, 1, -1, 2, -2, 3, 0])
    cols = draw(st.lists(st.dictionaries(st.integers(0, m - 1), values, max_size=m),
                         max_size=12))
    fresh = m
    for col in cols:
        for _ in range(draw(st.integers(0, 3))):
            col[fresh] = draw(values)
            fresh += 1
    for col in cols:  # keys in a drawn order, not by row
        keys = draw(st.permutations(list(col)))
        items = dict(col)
        col.clear()
        col.update((k, items[k]) for k in keys)
    return _csc(cols, draw(st.sampled_from([np.int64, np.int8, object])))


@settings(max_examples=400, deadline=None)
@given(peel_matrices())
def test_peel_rounds_match_the_scalar_peel(matrix):
    _check_peel_against_the_scalar_peel(matrix)


def test_peel_rounds_on_named_cases():
    # column 0 has three lone rows: 3 (a non-unit) is skipped, 4 peels it and
    # 5 finds it gone; row 0 sits in columns 0 and 1, both peeled in round
    # one, so it falls to one and then to zero; rows 2, 1 and 7 fall to one in
    # that order, so round two reads row 2 first, and it takes column 2
    cols = [{3: 2, 0: 1, 4: -1, 5: 1, 2: 1}, {0: -1, 6: 1, 1: 1}, {1: 1, 2: -1, 7: 3},
            {7: 1, 8: 1}]
    for dtype in (np.int64, object):
        matrix = _csc(cols, dtype)
        _check_peel_against_the_scalar_peel(matrix)
        rows, peeled = snf._peel(matrix)
        assert rows.tolist() == [4, 6, 8, 2] and peeled.tolist() == [0, 1, 3, 2]
    # python ints past int64: a lone one is no pivot, and peeling a column
    # that holds one frees the row it shares
    big = [{0: 2**70}, {1: 1, 2: -(2**70)}, {2: 1, 3: -1}, {3: 2}]
    _check_peel_against_the_scalar_peel(_csc(big, object))
    assert [x.tolist() for x in snf._peel(_csc(big, object))] == [[1, 2], [1, 2]]
    empty = _csc([], np.int64)
    assert [x.tolist() for x in snf._peel(empty)] == [[], []]
    assert _eliminate(_csc([{}, {}], object), track=True) == ([], {}, {0: {0: 1}, 1: {1: 1}}, None)


def test_peel_sums_fall_back_to_int64_past_the_int32_bound():
    # a row sum is below the row's count times the column count, so the
    # bound is read off the input, and no array near 2^31 is needed
    assert snf._int_dtype(2**31 - 1) is np.int32
    assert snf._int_dtype(2**31) is np.int64
    # row 0 in each of c columns, beside a lone unit per column: c * c
    # crosses 2^31 between c = 46,340 and c = 46,341
    cols = [{0: 2, c + 1: -1} for c in range(46_341)]
    for width, dtype in ((46_340, np.int32), (46_341, np.int64)):
        matrix = _csc(cols[:width], np.int8)
        rows, peeled = snf._peel(matrix)
        assert peeled.dtype == dtype and rows.dtype == np.int64
        assert (rows.tolist(), peeled.tolist()) == _scalar_peel(matrix)[:2]
        assert peeled.tolist() == list(range(width))


def test_peel_of_a_long_path_matches_the_scalar_peel():
    # the worst case for rounds: the boundary of a path peels one pivot from
    # each end per round, 10,000 rounds for 20,000 edges
    n = 20_000
    path = SimplicialComplex.from_faces(list(range(n + 1)), [(i, i + 1) for i in range(n)])
    matrix = csc_columns(path.boundary_columns(1))
    start = time.perf_counter()
    rows, cols = snf._peel(matrix)
    assert time.perf_counter() - start < 10
    want_rows, want_cols, _ = _scalar_peel(matrix)
    assert rows.tolist() == want_rows and cols.tolist() == want_cols
    assert len(rows) == n


def _check_chunked_peel(matrix):
    """The peel with its rounds gathered in chunks of 1, 7 and the default
    number of entries against one chunk per round: the same pivot rows and
    columns, in the same order, and the same frozen elimination."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(snf, "_PEEL_ENTRIES", len(matrix.rows) + 1)
        want_rows, want_cols = (x.tolist() for x in snf._peel(matrix))
        want = _eliminate(matrix, track=True, freeze=True)
    for bound in (1, 7, snf._PEEL_ENTRIES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(snf, "_PEEL_ENTRIES", bound)
            rows, cols = snf._peel(matrix)
            assert rows.tolist() == want_rows and cols.tolist() == want_cols
            assert _eliminate(matrix, track=True, freeze=True) == want


@settings(max_examples=200, deadline=None)
@given(peel_matrices())
def test_chunked_peel_rounds_match_one_chunk_per_round(matrix):
    _check_chunked_peel(matrix)


def test_chunked_peel_on_random_sparse_matrices_and_a_path():
    rng = np.random.default_rng(7)
    for _ in range(5):
        cols = []
        for _ in range(300):
            rows = rng.choice(200, size=rng.integers(1, 7), replace=False).tolist()
            cols.append(dict(zip(rows, rng.choice([1, -1, 1, -1, 2, 0], size=len(rows)).tolist())))
        _check_chunked_peel(_csc(cols, np.int8))
    # the long cascade: one pivot from each end of the path per round
    n = 2_000
    path = SimplicialComplex.from_faces(list(range(n + 1)), [(i, i + 1) for i in range(n)])
    _check_chunked_peel(csc_columns(path.boundary_columns(1)))


def test_snf_known_example():
    a = np.array([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert smith_normal_form(a).diag == [2, 2, 156]


def test_snf_zero_and_empty():
    assert smith_normal_form(np.zeros((2, 3), dtype=int)).diag == []
    assert smith_normal_form(np.zeros((0, 3), dtype=int)).rank == 0


@settings(max_examples=80, deadline=None)
@given(small_matrices)
def test_kernel_is_kernel(rows):
    a = np.array(rows, dtype=object)
    k = kernel_lattice(columns(a), a.shape[0], [])
    basis = dense(k, a.shape[1])
    assert not (a @ basis).any()
    assert basis.shape == (a.shape[1], a.shape[1] - smith_normal_form(a).rank)
    assert column_hnf(k.values()) == k


@settings(max_examples=80, deadline=None)
@given(small_matrices)
def test_kernel_lattice_is_saturated(rows):
    a = np.array(rows, dtype=object)
    k = kernel_lattice(columns(a), a.shape[0], [])
    for vec in Matrix(a.tolist()).nullspace():
        scale = lcm(*(int(x.q) for x in vec))
        ints = [int(x * scale) for x in vec]
        g = gcd(*ints)
        primitive = [x // g for x in ints]
        coords = lattice_coords(k, _vec(primitive))
        assert coords is not None
        assert list(dense(k, a.shape[1]) @ np.array(coords, dtype=object)) == primitive


@settings(max_examples=80, deadline=None)
@given(small_matrices, st.data())
def test_kernel_lattice_is_preimage_of_relations(rows, data):
    a = np.array(rows, dtype=object)
    m, n = a.shape
    rel = np.array(
        data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=m, max_size=m),
                           max_size=3)),
        dtype=object,
    ).reshape(-1, m).T
    pre = kernel_lattice(columns(a), m, columns(rel))
    span = column_hnf(columns(rel))
    for col in dense(pre, n).T:
        assert lattice_coords(span, _vec(a @ col)) is not None
    x = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    member = lattice_coords(pre, _vec(x)) is not None
    assert member == (lattice_coords(span, _vec(a @ np.array(x, dtype=object))) is not None)


def test_kernel_budget_names_layer_amount_and_cap(monkeypatch):
    monkeypatch.setattr(snf, "KERNEL_DENSE_LIMIT", 3)
    ones = columns(np.ones((2, 4), dtype=object))
    assert dense(kernel_lattice(ones[:3], 2, []), 3).shape == (3, 2)
    with pytest.raises(BudgetExceededError, match=r"^snf: .* 4 columns .* cap of 3 columns"):
        kernel_lattice(ones, 2, [])
    with pytest.raises(BudgetExceededError, match=r"^snf: .* 4 columns .* cap of 3 columns"):
        kernel_lattice(ones[:2], 2, columns(np.eye(2, dtype=object)))


def test_solve_columns():
    b = column_hnf(columns([[2, 0], [0, 3]]))
    assert lattice_coords(b, {0: 4, 1: 9}) == [2, 3]
    assert lattice_coords(b, {0: 1}) is None
    assert lattice_coords(b, {1: 1}) is None
    assert lattice_coords(column_hnf(columns([[1], [1]])), {0: 1}) is None


@settings(max_examples=150, deadline=None)
@given(small_matrices, st.data())
def test_lattice_coords(rows, data):
    a = np.array(rows, dtype=object)
    m, n = a.shape
    h = column_hnf(columns(a))
    basis = dense(h, m)
    combo = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    member = a @ np.array(combo, dtype=object)
    coords = lattice_coords(h, _vec(member))
    assert coords is not None
    assert list(basis @ np.array(coords, dtype=object).reshape(-1)) == list(member)
    v = data.draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m))
    coords = lattice_coords(h, _vec(v))
    assert (coords is not None) == _in_span(a, v)
    if coords is not None:
        assert list(basis @ np.array(coords, dtype=object).reshape(-1)) == v


def test_hnf_canonical_and_membership():
    h1 = column_hnf(columns([[2, 0], [0, 3]]))
    h2 = column_hnf(columns([[2, 2], [3, 0]]))
    # (2,3) and (4,3) span the same lattice as (2,0),(0,3)
    assert h1 == column_hnf(columns([[2, 4], [3, 3]]))
    # a genuinely different lattice
    assert h1 != column_hnf(columns([[2, 0], [0, 5]]))
    assert lattice_coords(h1, {0: 4, 1: 3}) is not None
    assert lattice_coords(h1, {0: 1}) is None
    assert lattice_coords(h2, {0: 2, 1: 3}) is not None


def test_hnf_is_canonical_for_equal_lattices():
    a = [[2, 0], [0, 4]]
    c = [[2, 2], [0, 4]]  # a column operation on a
    assert column_hnf(columns(a)) == column_hnf(columns(c))


@settings(max_examples=150, deadline=None)
@given(small_matrices, st.data())
def test_hnf_invariant_under_unimodular_column_ops(rows, data):
    a = np.array(rows, dtype=object)
    n = a.shape[1]
    u = np.eye(n, dtype=object)
    ops = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                       st.integers(-3, 3), st.booleans()), max_size=8))
    for src, dst, q, negate in ops:
        if src != dst:
            u[:, dst] += q * u[:, src]
        if negate:
            u[:, dst] = -u[:, dst]
    perm = data.draw(st.permutations(range(n)))
    h = column_hnf(columns(a))
    assert column_hnf(columns(a.dot(u)[:, perm])) == h
    # pivots increasing, each column zero above its pivot, pivots positive,
    # and entries on later pivot rows reduced modulo those pivots
    assert list(h) == sorted(h)
    assert all(min(col) == p and col[p] > 0 for p, col in h.items())
    assert all(0 <= col.get(p2, 0) < h[p2][p2] for p, col in h.items() for p2 in h if p2 > p)


def test_lattice_sum():
    s = column_hnf(chain(columns([[2], [0]]), columns([[0], [3]])))
    assert lattice_coords(s, {0: 2, 1: 3}) == [1, 1]
    assert lattice_coords(s, {0: 1}) is None


def test_snf_object_fallback_large_entries():
    a = np.array([[2**40, 1], [1, 2**40]], dtype=object)
    res = smith_normal_form(a, want_u=True)
    assert res.diag == [1, 2**80 - 1]
    assert np.array_equal(res.U @ res.Uinv, np.eye(2, dtype=object))
    assert (res.U @ a)[1, 0] % res.diag[1] == 0
    k = kernel_lattice(columns(np.array([[2**70, 3 * 2**70 + 1]], dtype=object)), 1, [])
    assert dense(k, 2).T.tolist() == [[3 * 2**70 + 1, -(2**70)]]


@st.composite
def lattice_matrices(draw):
    """Integer matrices with small, negative and 2^70-sized entries, some of
    their columns zero."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    entry = st.one_of(st.integers(-9, 9), st.sampled_from([0, 1, -1]),
                      st.integers(-(2**71), 2**71))
    a = np.zeros((m, n), dtype=object)
    for i in range(m):
        a[i] = draw(st.lists(entry, min_size=n, max_size=n))
    for j in draw(st.sets(st.integers(0, n - 1), max_size=n)) if n else ():
        a[:, j] = 0
    return a


@settings(max_examples=200, deadline=None)
@given(lattice_matrices(), st.data())
def test_sparse_lattices_agree_with_the_dense_oracle(a, data):
    m, n = a.shape
    h = column_hnf(columns(a))
    oracle = dense_column_hnf(a)
    assert np.array_equal(dense(h, m), oracle)
    # coordinates of a vector inside the lattice and of one most likely not
    combo = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    inside = [sum(x * c for x, c in zip(row, combo)) for row in a]
    outside = data.draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m))
    assert lattice_coords(h, _vec(inside)) == dense_lattice_coords(oracle, inside) is not None
    assert lattice_coords(h, _vec(outside)) == dense_lattice_coords(oracle, outside)
    # the preimage of torsion relations: one column d e_i per order d > 0
    orders = data.draw(st.lists(st.sampled_from([0, 0, 2, 3, 4, 6, 2**70]),
                                min_size=m, max_size=m))
    rel = np.zeros((m, 0), dtype=object)
    for i, d in enumerate(orders):
        if d:
            col = np.zeros((m, 1), dtype=object)
            col[i] = d
            rel = np.concatenate([rel, col], axis=1)
    ker = kernel_lattice(columns(a), m, columns(rel))
    want = dense_kernel_lattice(a, rel)
    assert np.array_equal(dense(ker, n), want)
