import pytest

from horokit.complexes import (
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivision,
    contiguous,
    full_simplex,
)
from horokit.errors import MapDomainMismatchError, NotSimplicialError


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
    assert c.has_face((0, 1))
    assert c.spans((0, 1, 2))
    assert not c.has_face((0, 3))


def test_spans_beyond_cap():
    # complete complex: absence of a bigger face is decisive
    c = SimplicialComplex.from_label_faces([(0, 1)], cap=1)
    assert not c.spans((0, 1, 2, 3))
    # cap-truncated complex without a span test cannot decide
    t = SimplicialComplex.from_label_faces([(0, 1, 2, 3)], cap=1)
    assert t.truncated_at_cap
    with pytest.raises(ValueError):
        t.spans((0, 1, 2))


def test_simplicial_map_checked():
    src = SimplicialComplex.from_label_faces([(0, 1)])
    tgt = SimplicialComplex.from_label_faces([(0,), (1,)])  # two points, no edge
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


def test_compose_and_domain_mismatch():
    a = SimplicialComplex.from_label_faces([(0, 1)])
    b = SimplicialComplex.from_label_faces([(0, 1)])
    c = SimplicialComplex.from_label_faces([(0, 1)])
    f = SimplicialMap(a, b, [0, 1])
    g = SimplicialMap(b, c, [1, 0])
    h = g.compose(f)
    assert h.vertex_images == (1, 0)
    with pytest.raises(MapDomainMismatchError):
        f.compose(g)


def test_contiguous_equal_maps():
    c = SimplicialComplex.from_label_faces([(0, 1, 2)])
    f = SimplicialMap(c, c, [0, 1, 2])
    ok, wit = contiguous(f, f)
    assert ok and wit is None


def test_contiguous_constant_maps_nonadjacent():
    src = SimplicialComplex.from_label_faces([(0, 1)])
    tgt = SimplicialComplex.from_label_faces([(0,), (1,)])
    f = SimplicialMap(src, tgt, [0, 0])
    g = SimplicialMap(src, tgt, [1, 1])
    ok, wit = contiguous(f, g)
    assert not ok
    assert wit is not None


def test_contiguous_adjacent_constants():
    src = SimplicialComplex.from_label_faces([(0, 1)])
    tgt = SimplicialComplex.from_label_faces([(0, 1)])
    f = SimplicialMap(src, tgt, [0, 0])
    g = SimplicialMap(src, tgt, [1, 1])
    ok, _ = contiguous(f, g)
    assert ok


def test_contiguity_domain_mismatch():
    a = SimplicialComplex.from_label_faces([(0, 1)])
    b = SimplicialComplex.from_label_faces([(0, 1, 2)])
    f = SimplicialMap(a, a, [0, 1])
    g = SimplicialMap(b, b, [0, 1, 2])
    with pytest.raises(MapDomainMismatchError):
        contiguous(f, g)


def _assert_canonical(c):
    for p, fs in enumerate(c.faces):
        assert fs == sorted(set(fs))
        assert all(len(f) == p + 1 and list(f) == sorted(set(f)) for f in fs)
        assert c.face_index[p] == {f: i for i, f in enumerate(fs)}


def test_from_faces_and_subdivision_canonicalise_their_input():
    # unsorted vertices, repeated faces and a repeated vertex
    c = SimplicialComplex.from_faces(range(5), [(2, 1, 0), (0, 1, 2), (3, 1), (1, 3, 3), (4,)])
    assert c.faces == [
        [(0,), (1,), (2,), (3,), (4,)],
        [(0, 1), (0, 2), (1, 2), (1, 3)],
        [(0, 1, 2)],
    ]
    _assert_canonical(c)
    assert [barycentric_subdivision(c, 1).n_faces(p) for p in range(3)] == [10, 14, 6]
    for times in (1, 2):
        sd = barycentric_subdivision(c, times)
        _assert_canonical(sd)
        # the same faces, reversed, through from_faces
        faces = [f for fs in sd.faces for f in fs][::-1]
        assert SimplicialComplex.from_faces(sd.labels, faces).faces == sd.faces


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
