import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from horokit.complexes import (
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivision,
    full_simplex,
    push_faces,
    set_nerve,
)
from horokit.errors import NotSimplicialError
from horokit.snf import CSC
from oracles import as_sets


def test_downward_closure():
    c = SimplicialComplex.from_label_faces([(0, 1, 2)])
    assert c.n_faces(0) == 3
    assert c.n_faces(1) == 3
    assert c.n_faces(2) == 1


def test_boundary_squares_to_zero():
    c = SimplicialComplex.from_label_faces([(0, 1, 2), (1, 2, 3), (0, 2, 3)])
    for p in range(1, c.cap + 1):
        d_p = c.boundary_columns(p)
        for j, col in enumerate(d_p):
            assert c.chain_boundary(p, {j: 1}) == col
        if p + 1 <= c.cap:
            for col in c.boundary_columns(p + 1):
                total = {}
                for r, coeff in col.items():
                    for rr, v in d_p[r].items():
                        total[rr] = total.get(rr, 0) + coeff * v
                assert not any(total.values())
                assert c.chain_boundary(p, col) == {}


def test_has_face_and_spans():
    c = SimplicialComplex.from_label_faces([(0, 1, 2)])
    assert c.face_indices(np.array([[0, 1]])).tolist() == [0]
    assert c.face_indices(np.array([[0, 1, 2]])).tolist() == [0]
    assert c.face_indices(np.array([[0, 3]])).tolist() == [-1]


def test_verify_refuses_an_image_past_the_target_cap():
    # the target's face lists stop at its cap, so a face that lands past it
    # is refused (a ValueError, exit 2), although the target's vertices span
    # a triangle and the nerve's five columns all meet
    src = SimplicialComplex.from_label_faces([(0, 1, 2)])
    for tgt in (
        SimplicialComplex.from_label_faces([(0, 1, 2)], cap=1),
        set_nerve(range(5), as_sets([1] * 5), 1),
    ):
        with pytest.raises(NotSimplicialError) as exc:
            SimplicialMap(src, tgt, [0, 1, 2])
        assert exc.value.witness == (0, 1, 2)


def test_simplicial_map_checked():
    src = SimplicialComplex.from_label_faces([(0, 1)])
    tgt = SimplicialComplex.from_label_faces([(0,), (1,)], cap=1)  # two points, no edge
    with pytest.raises(NotSimplicialError) as exc:
        SimplicialMap(src, tgt, [0, 1])
    assert exc.value.witness == (0, 1)


def test_chain_map_signs_and_degeneracy():
    src = SimplicialComplex.from_label_faces([(0, 1)])
    tgt = SimplicialComplex.from_label_faces([(0, 1)])
    # orientation-reversing vertex swap picks up a sign
    f = SimplicialMap(src, tgt, [1, 0])
    col = f.chain_columns(1)[0]
    assert col == {0: -1}
    # collapse to a vertex kills the edge
    point = SimplicialComplex.from_label_faces([(0,)])
    g = SimplicialMap(src, point, [0, 0])
    assert g.chain_columns(1)[0] == {}


def _assert_canonical(c):
    for p, fs in enumerate(c.faces):
        rows = [tuple(f) for f in fs.tolist()]
        assert fs.dtype == np.int32 and fs.shape == (len(rows), p + 1)
        assert rows == sorted(set(rows))
        assert all(list(f) == sorted(set(f)) for f in rows)
        assert c.face_indices(fs).tolist() == list(range(len(rows)))


def test_from_faces_and_subdivision_canonicalise_their_input():
    # unsorted vertices, repeated faces and a repeated vertex
    c = SimplicialComplex.from_faces(range(5), [(2, 1, 0), (0, 1, 2), (3, 1), (1, 3, 3), (4,)])
    assert [fs.tolist() for fs in c.faces] == [
        [[0], [1], [2], [3], [4]],
        [[0, 1], [0, 2], [1, 2], [1, 3]],
        [[0, 1, 2]],
    ]
    _assert_canonical(c)
    assert [barycentric_subdivision(c, 1).n_faces(p) for p in range(3)] == [10, 14, 6]
    for times in (1, 2):
        sd = barycentric_subdivision(c, times)
        _assert_canonical(sd)
        # the same faces, reversed, through from_faces
        faces = [f for fs in sd.faces for f in fs.tolist()][::-1]
        again = SimplicialComplex.from_faces(sd.labels, faces)
        assert [fs.tolist() for fs in again.faces] == [fs.tolist() for fs in sd.faces]


def test_subdivision_counts_triangle():
    c = SimplicialComplex.from_label_faces([(0, 1, 2)])
    sd = barycentric_subdivision(c, 1)
    assert [sd.n_faces(p) for p in range(3)] == [7, 12, 6]


def test_subdivision_identity_at_zero():
    c = SimplicialComplex.from_label_faces([(0, 1, 2)])
    sd = barycentric_subdivision(c, 0)
    assert sd is c


def test_full_simplex_faces():
    c = full_simplex(4)
    assert [c.n_faces(p) for p in range(4)] == [4, 6, 4, 1]


def test_induced_subcomplex():
    c = SimplicialComplex.from_label_faces([(0, 1, 2), (2, 3)])
    sub, remap = c.induced([0, 1, 2])
    assert sub.n_faces(2) == 1
    assert sub.n_faces(0) == 3
    assert 3 not in remap


# -- the facet table and the CSC coboundary against tuple slicing ----------------


def _sliced_facets(c, p):
    """Each p-face's facets by tuple slicing and a {face: index} table."""
    index = {tuple(f): i for i, f in enumerate(c.faces[p - 1].tolist())}
    return [[index[f[:i] + f[i + 1 :]] for i in range(p + 1)]
            for f in map(tuple, c.faces[p].tolist())]


@st.composite
def complexes_up_to_cap_4(draw):
    n = draw(st.integers(1, 9))
    cap = draw(st.integers(1, 4))
    faces = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=6), max_size=8))
    return SimplicialComplex.from_faces(list(range(n)), [tuple(f) for f in faces], cap=cap)


def _check_coboundary(c, p, cleared):
    """The CSC coboundary against the transpose of ``boundary_columns``."""
    d_p = c.boundary_columns(p)
    kept = [r for r in range(c.n_faces(p - 1)) if r not in cleared]
    csc = c.coboundary_columns(p, cleared)
    assert isinstance(csc, CSC) and len(csc) == len(kept)
    assert csc.rows.dtype == np.int32 and csc.values.dtype == np.int8
    for k, r in enumerate(kept):
        start, end = csc.indptr[k], csc.indptr[k + 1]
        column = list(zip(csc.rows[start:end].tolist(), csc.values[start:end].tolist()))
        assert column == [(j, col[r]) for j, col in enumerate(d_p) if r in col]
    assert csc.indptr[-1] == len(csc.rows) == len(csc.values)


@settings(max_examples=150, deadline=None)
@given(complexes_up_to_cap_4(), st.data())
def test_csc_coboundary_is_the_transpose_of_the_boundary(c, data):
    for p in range(1, c.cap + 1):
        table = c.facets(p)
        assert table.dtype == np.int32 and table.shape == (c.n_faces(p), p + 1)
        assert table.tolist() == _sliced_facets(c, p)
        marks = data.draw(st.lists(st.booleans(), min_size=c.n_faces(p - 1),
                                   max_size=c.n_faces(p - 1)))
        _check_coboundary(c, p, frozenset(r for r, mark in enumerate(marks) if mark))


def test_facet_codes_do_not_overflow_at_the_vertex_budget():
    # cap-4 faces on the top vertices of 200,000, and faces from vertex 0 up
    # to them: a code in base n would need n^5 > 2^63, and a wrapped code
    # breaks the order between low and high faces; index * n + vertex stays
    # below 2^63
    n = 200_000
    faces = [tuple(range(n - 5, n)), (0, 1, n - 3, n - 2, n - 1), (0, n // 2, n - 1)]
    c = SimplicialComplex.from_faces(range(n), faces, cap=4)
    assert [c.n_faces(p) for p in range(5)] == [n, 19, 20, 10, 2]
    for p in range(1, 5):
        assert c.facets(p).tolist() == _sliced_facets(c, p)
        _check_coboundary(c, p, frozenset())


def test_facet_lookup_refuses_an_open_or_unsorted_face_list():
    missing = SimplicialComplex(range(3), [np.array([[0], [1]]), np.array([[0, 2]])], 1)
    with pytest.raises(ValueError):
        missing.facets(1)
    unsorted = SimplicialComplex(range(3), [np.arange(3).reshape(3, 1),
                                            np.array([[1, 2], [0, 1]])], 1)
    with pytest.raises(ValueError):
        unsorted.facets(1)
    for edges in ([[0, 2], [0, 1]], [[0, 1], [0, 1]]):  # within one prefix's run
        within = SimplicialComplex(range(3), [np.arange(3).reshape(3, 1), np.array(edges)], 1)
        with pytest.raises(ValueError):
            within.facets(1)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda w: st.tuples(
    st.just(w), st.lists(st.lists(st.integers(0, 5), min_size=w, max_size=w), max_size=20))))
def test_push_faces_signs_and_finds_each_image(case):
    # the oracle: bubble sort each image, counting swaps, then a tuple lookup
    target = full_simplex(6)
    index = {tuple(f): i for p in range(6) for i, f in enumerate(target.faces[p].tolist())}
    width, images = case
    rows = np.array(images, dtype=np.int64).reshape(len(images), width)
    found, sign = push_faces(target, rows)
    for image, k, s in zip(images, found.tolist(), sign.tolist()):
        row, swaps = list(image), 0
        for end in range(len(row) - 1, 0, -1):
            for i in range(end):
                if row[i] > row[i + 1]:
                    row[i], row[i + 1] = row[i + 1], row[i]
                    swaps += 1
        if len(set(row)) < len(row):
            assert (k, s) == (-1, 0)
        else:
            assert (k, s) == (index[tuple(row)], (-1) ** swaps)
