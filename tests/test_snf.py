from math import gcd, lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from horokit import snf
from horokit.errors import BudgetExceededError
from horokit.snf import (
    column_hnf,
    kernel_lattice,
    lattice_coords,
    lattice_equal,
    lattice_sum,
    smith_normal_form,
    sparse_diagonal,
)

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
    diag, rank = sparse_diagonal(cols, a.shape[0])
    assert rank == dense.rank
    assert diag == dense.diag


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
    k = kernel_lattice(a)
    assert not (a @ k).any()
    assert k.shape == (a.shape[1], a.shape[1] - smith_normal_form(a).rank)
    assert np.array_equal(column_hnf(k), k)


@settings(max_examples=80, deadline=None)
@given(small_matrices)
def test_kernel_lattice_is_saturated(rows):
    a = np.array(rows, dtype=object)
    k = kernel_lattice(a)
    for vec in Matrix(a.tolist()).nullspace():
        scale = lcm(*(int(x.q) for x in vec))
        ints = [int(x * scale) for x in vec]
        g = gcd(*ints)
        primitive = [x // g for x in ints]
        coords = lattice_coords(k, primitive)
        assert coords is not None
        assert list(k @ np.array(coords, dtype=object)) == primitive


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
    pre = kernel_lattice(a, rel)
    span = column_hnf(rel)
    for col in pre.T:
        assert lattice_coords(span, a @ col) is not None
    x = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    member = lattice_coords(pre, x) is not None
    assert member == (lattice_coords(span, a @ np.array(x, dtype=object)) is not None)


def test_kernel_budget_names_layer_amount_and_cap(monkeypatch):
    monkeypatch.setattr(snf, "KERNEL_DENSE_LIMIT", 3)
    a = np.ones((2, 2), dtype=object)
    assert kernel_lattice(np.ones((2, 3), dtype=object)).shape == (3, 2)
    with pytest.raises(BudgetExceededError, match=r"^snf: .* 4 columns .* cap of 3 columns"):
        kernel_lattice(np.ones((2, 4), dtype=object))
    with pytest.raises(BudgetExceededError, match=r"^snf: .* 4 columns .* cap of 3 columns"):
        kernel_lattice(a, np.eye(2, dtype=object))


def test_solve_columns():
    b = column_hnf(np.array([[2, 0], [0, 3]]))
    assert lattice_coords(b, [4, 9]) == [2, 3]
    assert lattice_coords(b, [1, 0]) is None
    assert lattice_coords(b, [0, 1]) is None
    assert lattice_coords(column_hnf(np.array([[1], [1]])), [1, 0]) is None


@settings(max_examples=150, deadline=None)
@given(small_matrices, st.data())
def test_lattice_coords(rows, data):
    a = np.array(rows, dtype=object)
    m, n = a.shape
    h = column_hnf(a)
    combo = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    member = a @ np.array(combo, dtype=object)
    coords = lattice_coords(h, member)
    assert coords is not None
    assert list(h @ np.array(coords, dtype=object).reshape(-1)) == list(member)
    v = data.draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m))
    coords = lattice_coords(h, v)
    assert (coords is not None) == _in_span(a, v)
    if coords is not None:
        assert list(h @ np.array(coords, dtype=object).reshape(-1)) == v


def test_hnf_canonical_and_membership():
    h1 = column_hnf(np.array([[2, 0], [0, 3]], dtype=object))
    h2 = column_hnf(np.array([[2, 2], [3, 0]], dtype=object))
    # (2,3) and (4,3) span the same lattice as (2,0),(0,3)
    assert lattice_equal(h1, column_hnf(np.array([[2, 4], [3, 3]], dtype=object)))
    # a genuinely different lattice
    assert not lattice_equal(h1, column_hnf(np.array([[2, 0], [0, 5]], dtype=object)))
    assert lattice_coords(h1, [4, 3]) is not None
    assert lattice_coords(h1, [1, 0]) is None
    assert lattice_coords(h2, [2, 3]) is not None


def test_hnf_is_canonical_for_equal_lattices():
    a = np.array([[2, 0], [0, 4]], dtype=object)
    b = np.array([[2, 2], [4, 8]], dtype=object)  # col ops of the same lattice
    # second lattice: cols (2,4),(2,8): span? (2,4),(0,4): hmm use explicit ops
    c = np.array([[2, 2], [0, 4]], dtype=object)
    assert lattice_equal(column_hnf(a), column_hnf(c))


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
    h = column_hnf(a)
    assert np.array_equal(column_hnf(a.dot(u)[:, perm]), h)
    assert all([x for x in h[:, j] if x][0] > 0 for j in range(h.shape[1]))  # positive pivots


def test_lattice_sum():
    a = np.array([[2], [0]], dtype=object)
    b = np.array([[0], [3]], dtype=object)
    s = lattice_sum(a, b)
    assert lattice_coords(s, [2, 3]) == [1, 1]
    assert lattice_coords(s, [1, 0]) is None


def test_snf_object_fallback_large_entries():
    a = np.array([[2**40, 1], [1, 2**40]], dtype=object)
    res = smith_normal_form(a, want_u=True)
    assert res.diag == [1, 2**80 - 1]
    assert np.array_equal(res.U @ res.Uinv, np.eye(2, dtype=object))
    assert (res.U @ a)[1, 0] % res.diag[1] == 0
    k = kernel_lattice(np.array([[2**70, 3 * 2**70 + 1]], dtype=object))
    assert k.T.tolist() == [[3 * 2**70 + 1, -(2**70)]]
