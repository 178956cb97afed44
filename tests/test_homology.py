import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

from horokit.complexes import SimplicialComplex, SimplicialMap, barycentric_subdivision
from horokit.covers import PAPER_SCHEDULE, decompose, nerve
from horokit.homology import (
    AbelianGroup,
    DegreeCoordinates,
    GroupMap,
    OrdersGroup,
    _boundary_type,
    canonical_type,
    concat_maps,
    direct_sum_group,
    exactness_check,
    homology_type,
    identity_map,
    induced_map,
    stack_maps,
)
from horokit.instances import get_instance
from horokit.snf import CSC, csc_columns, sparse_diagonal

Z = AbelianGroup(1)
Z2 = AbelianGroup(0, (2,))


def _zero(source, target) -> GroupMap:
    return GroupMap(source, target, np.zeros((target.dim, source.dim), dtype=object))


def _is_zero(m: GroupMap) -> bool:
    """Whether every entry of m vanishes modulo its target coordinate's order."""
    return all(v % e == 0 if e else v == 0 for row, e in zip(m.matrix, m.target.orders) for v in row)

RP2_TRIANGLES = [
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
]


def hollow_triangle():
    return SimplicialComplex.from_label_faces([(0, 1), (1, 2), (0, 2)])


def test_homology_standard_fixtures():
    hollow = hollow_triangle()
    assert homology_type(hollow, 0) == AbelianGroup(1)
    assert homology_type(hollow, 1) == AbelianGroup(1)
    filled = SimplicialComplex.from_label_faces([(0, 1, 2)])
    assert homology_type(filled, 1) == AbelianGroup(0)
    rp2 = SimplicialComplex.from_label_faces(RP2_TRIANGLES)
    assert homology_type(rp2, 1) == AbelianGroup(0, (2,))
    assert homology_type(rp2, 0) == AbelianGroup(1)


def test_reduced_homology():
    two_points = SimplicialComplex.from_label_faces([(0,), (1,)])
    assert homology_type(two_points, 0) == AbelianGroup(2)
    assert homology_type(two_points, 0, reduced=True) == AbelianGroup(1)


def test_homology_invariant_under_subdivision():
    rp2 = SimplicialComplex.from_label_faces(RP2_TRIANGLES)
    sd = barycentric_subdivision(rp2, 1)
    for p in range(3):
        assert homology_type(sd, p) == homology_type(rp2, p)


def test_degree_out_of_cap():
    c = hollow_triangle()
    with pytest.raises(ValueError):
        homology_type(c, 5)


def test_induced_identity():
    c = hollow_triangle()
    f = SimplicialMap(c, c, [0, 1, 2])
    for p in (0, 1):
        coords = DegreeCoordinates(c, p)
        m = induced_map(f, p, coords, coords)
        assert np.equal(m.matrix, np.eye(m.matrix.shape[0], dtype=object)).all()


def test_induced_constant_map():
    c = hollow_triangle()
    point = SimplicialComplex.from_label_faces([(0,)])
    f = SimplicialMap(c, point, [0, 0, 0])
    m0 = induced_map(f, 0, DegreeCoordinates(c, 0), DegreeCoordinates(point, 0))
    assert m0.matrix.tolist() == [[1]]
    m1 = induced_map(f, 1, DegreeCoordinates(c, 1), DegreeCoordinates(point, 1))
    assert m1.matrix.shape == (0, 1)
    assert _is_zero(m1)


def test_induced_functorial():
    a = hollow_triangle()
    b = hollow_triangle()
    c = hollow_triangle()
    f = SimplicialMap(a, b, [1, 2, 0])
    g = SimplicialMap(b, c, [2, 0, 1])
    ca = DegreeCoordinates(a, 1)
    cb = DegreeCoordinates(b, 1)
    cc = DegreeCoordinates(c, 1)
    m_f = induced_map(f, 1, ca, cb)
    m_g = induced_map(g, 1, cb, cc)
    gf = SimplicialMap(a, c, [g.vertex_images[v] for v in f.vertex_images])
    m_gf = induced_map(gf, 1, ca, cc)
    assert np.equal(m_g.compose(m_f).matrix, m_gf.matrix).all()


def test_project_rejects_non_cycles():
    c = SimplicialComplex.from_label_faces([(0, 1), (1, 2)])
    coords = DegreeCoordinates(c, 1)
    with pytest.raises(ValueError):
        coords.project({0: 1})  # a single edge is not a cycle here


def test_exactness_identity():
    trivial = AbelianGroup(0)
    f = _zero(trivial, Z)
    g = identity_map(Z)
    res = exactness_check(f, g)
    # image 0, kernel of identity 0
    assert res.exact


def test_exactness_z_mod_two():
    f = GroupMap(Z, Z, np.array([[2]]))
    g = GroupMap(Z, Z2, np.array([[1]]))
    res = exactness_check(f, g)
    assert res.exact


def test_exactness_failure_flags_cokernel():
    # 0 -> Z --2--> Z -> 0 fails at the right slot: kernel of the zero map
    # out of Z is everything, the image is 2Z
    f = GroupMap(Z, Z, np.array([[2]]))
    g = _zero(Z, AbelianGroup(0))
    res = exactness_check(f, g)
    assert not res.exact
    assert res.image_in_kernel and not res.kernel_in_image


def test_exactness_0_A_A_0():
    f = _zero(AbelianGroup(0), Z)
    g = _zero(Z, AbelianGroup(0))
    res = exactness_check(f, g)
    assert not res.exact  # identity row would be needed; kernel is all of Z
    f2 = identity_map(Z)
    res2 = exactness_check(f2, g)
    assert res2.exact


def test_group_map_respects_torsion():
    with pytest.raises(ValueError):
        GroupMap(Z2, Z, np.array([[1]]))  # Z/2 cannot map onto Z by 1
    m = GroupMap(Z2, Z2, np.array([[1]]))
    assert not _is_zero(m)
    m2 = GroupMap(Z2, Z2, np.array([[2]]))
    assert _is_zero(m2)


def test_direct_sum_and_canonical_type():
    s = direct_sum_group(Z2, AbelianGroup(0, (3,)))
    assert canonical_type(s) == AbelianGroup(0, (6,))
    s2 = direct_sum_group(Z, Z2)
    assert canonical_type(s2) == AbelianGroup(1, (2,))


def test_stack_and_concat():
    f = identity_map(Z)
    stacked = stack_maps(f, f.negate())
    assert stacked.matrix.tolist() == [[1], [-1]]
    joined = concat_maps(f, f)
    assert joined.matrix.tolist() == [[1, 1]]
    composite = joined.compose(stacked)
    assert _is_zero(composite)


def test_orders_group():
    g = OrdersGroup((2, 0, 3))
    assert g.dim == 3
    assert canonical_type(g) == AbelianGroup(1, (6,))


# -- the chain reduction against sympy's Smith normal form -------------------


def _sympy_invariants(cx, p):
    """Nonzero invariant factors of the dense boundary C_p -> C_{p-1}."""
    rows, cols = cx.n_faces(p - 1), cx.n_faces(p)
    if p > cx.cap or not rows or not cols:
        return []
    mat = Matrix.zeros(rows, cols)
    for j, col in enumerate(cx.boundary_columns(p)):
        for r, v in col.items():
            mat[r, j] = v
    d = smith_normal_form(mat, domain=ZZ)
    return [abs(int(d[i, i])) for i in range(min(rows, cols)) if d[i, i] != 0]


def _check_reduction(cx):
    for p in range(1, cx.cap + 1):
        rank_dp = len(_sympy_invariants(cx, p))
        d_next = _sympy_invariants(cx, p + 1)
        oracle = AbelianGroup(
            cx.n_faces(p) - rank_dp - len(d_next), tuple(d for d in d_next if d > 1)
        )
        coords = DegreeCoordinates(cx, p)
        assert coords.group == homology_type(cx, p) == oracle
        # the cycle basis behind the coordinates spans Z_p
        basis = coords._basis
        assert len(basis) == cx.n_faces(p) - rank_dp
        assert all(cx.chain_boundary(p, z) == {} for z in basis)
        dim = coords.group.dim
        gens = coords.generator_cycles()
        assert len(gens) == dim
        for i, z in enumerate(gens):
            assert cx.chain_boundary(p, z) == {}
            assert coords.project(z) == tuple(int(i == j) for j in range(dim))
        for col in cx.boundary_columns(p + 1):
            assert coords.project(col) == (0,) * dim
        for r in range(cx.n_faces(p)):
            with pytest.raises(ValueError):
                coords.project({r: 1})  # one simplex has a nonzero boundary


@st.composite
def small_complexes(draw, max_vertices=8):
    n = draw(st.integers(1, max_vertices))
    cap = draw(st.integers(1, 3))
    faces = draw(
        st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=5), max_size=8)
    )
    return SimplicialComplex.from_faces(list(range(n)), [tuple(f) for f in faces], cap=cap)


def test_reduction_matches_sympy_on_torsion_fixtures():
    rp2 = SimplicialComplex.from_label_faces(RP2_TRIANGLES)
    _check_reduction(rp2)
    assert DegreeCoordinates(rp2, 1).group == Z2
    # its suspension moves the torsion up a degree
    suspension = SimplicialComplex.from_label_faces(
        [t + (a,) for t in RP2_TRIANGLES for a in (6, 7)]
    )
    _check_reduction(suspension)
    assert DegreeCoordinates(suspension, 2).group == Z2
    # a hollow tetrahedron glued on a triangle: its 2-cycle runs through the
    # non-unit residue of d_2, so the cycle basis needs the residue's kernel
    with_sphere = SimplicialComplex.from_label_faces(
        RP2_TRIANGLES + [(3, 4, 6), (3, 5, 6), (4, 5, 6)]
    )
    _check_reduction(with_sphere)
    assert DegreeCoordinates(with_sphere, 2).group == Z


@settings(max_examples=80, deadline=None)
@given(small_complexes())
def test_reduction_matches_sympy(cx):
    _check_reduction(cx)


@settings(max_examples=40, deadline=None)
@given(small_complexes(), st.data())
def test_induced_maps_compose(cx, data):
    def image_complex(src, images):
        extra = data.draw(
            st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=4), max_size=4)
        )
        faces = [tuple({images[v] for v in f}) for fs in src.faces for f in fs.tolist()]
        return SimplicialComplex.from_faces(
            list(range(8)), faces + [tuple(f) for f in extra], cap=src.cap
        )

    vertex_maps = st.lists(st.integers(0, 7), min_size=8, max_size=8)
    f_img = data.draw(vertex_maps)[: len(cx.labels)]
    mid = image_complex(cx, f_img)
    g_img = data.draw(vertex_maps)
    tgt = image_complex(mid, g_img)
    f, g = SimplicialMap(cx, mid, f_img), SimplicialMap(mid, tgt, g_img)
    gf = SimplicialMap(cx, tgt, [g_img[v] for v in f_img])
    for p in range(cx.cap + 1):
        ca, cb, cc = (DegreeCoordinates(c, p) for c in (cx, mid, tgt))
        composite = induced_map(g, p, cb, cc).compose(induced_map(f, p, ca, cb))
        direct = induced_map(gf, p, ca, cc)
        assert _is_zero(GroupMap(ca.group, cc.group, direct.matrix - composite.matrix))


# -- group types from the cleared coboundary -----------------------------------


def _check_cleared_types(cx, order):
    """``_boundary_type`` asked in ``order`` against sympy's Smith form of the
    untransposed d_p, and the number of coboundary columns it eliminated.
    d_1 is read off a spanning forest, so nothing is eliminated at p = 1."""
    built = {}
    build = SimplicialComplex.coboundary_columns

    def spy(self, p, cleared):
        cols = build(self, p, cleared)
        assert isinstance(cols, CSC)
        built[p] = len(cols)
        return cols

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SimplicialComplex, "coboundary_columns", spy)
        types = {p: _boundary_type(cx, p) for p in order}
    for p, (torsion, rank, pivots) in types.items():
        invariants = _sympy_invariants(cx, p)
        assert (torsion, rank) == (tuple(d for d in invariants if d > 1), len(invariants))
        assert len(pivots) <= rank
    assert 1 not in built
    for p in range(2, cx.cap + 1):
        if cx.n_faces(p):
            # every (p-1)-face but the unit pivot rows of d_{p-1}^T is a column
            assert built[p] == cx.n_faces(p - 1) - len(_boundary_type(cx, p - 1)[2])
    if cx.cap >= 1:
        _check_forest(cx, _boundary_type(cx, 1)[2])
    return built


def _check_forest(cx, forest):
    """The rows d_1 clears are the edges of a spanning forest: n_0 - c of
    them, acyclic, with the complex's c components (networkx)."""
    components = len(set(cx.components()))
    assert len(forest) == cx.n_faces(0) - components
    graph = nx.Graph()
    graph.add_nodes_from(range(cx.n_faces(0)))
    graph.add_edges_from(cx.faces[1][sorted(forest)].tolist())
    assert nx.is_forest(graph) and nx.number_connected_components(graph) == components


@settings(max_examples=80, deadline=None)
@given(small_complexes(), st.data())
def test_cleared_coboundary_types_match_sympy(cx, data):
    order = data.draw(st.permutations(range(1, cx.cap + 2)))
    _check_cleared_types(cx, order)


def test_cleared_coboundary_types_match_sympy_on_torsion_fixtures():
    rp2 = SimplicialComplex.from_label_faces(RP2_TRIANGLES)
    suspension = SimplicialComplex.from_label_faces(
        [t + (a,) for t in RP2_TRIANGLES for a in (6, 7)]
    )
    with_sphere = SimplicialComplex.from_label_faces(
        RP2_TRIANGLES + [(3, 4, 6), (3, 5, 6), (4, 5, 6)]
    )
    with_ball = SimplicialComplex.from_label_faces(RP2_TRIANGLES + [(3, 4, 5, 6)])
    for cx in (rp2, suspension, with_sphere, with_ball):
        for order in ([1, 2, 3, 4], [4, 3, 2, 1], [2, 4, 1, 3]):
            cx.boundary_types.clear()
            built = _check_cleared_types(cx, [p for p in order if p <= cx.cap + 1])
            # d_1^T has only unit pivots: n_1 - rank d_1 columns at p = 2
            assert built[2] == cx.n_faces(1) - _boundary_type(cx, 1)[1]
    assert _boundary_type(rp2, 2)[:2] == ((2,), 10)
    for p in (0, 3):
        with pytest.raises(ValueError):
            rp2.coboundary_columns(p, frozenset())
    assert _boundary_type(suspension, 3)[:2] == ((2,), 20)
    # d_2^T of RP^2 with a ball glued on keeps one non-unit pivot in its
    # residue; that row is not cleared, so d_3^T keeps one column more than
    # n_2 - rank d_2
    torsion, rank, pivots = _boundary_type(with_ball, 2)
    assert (torsion, rank, len(pivots)) == ((2,), 12, 11)
    assert _boundary_type(with_ball, 3)[:2] == ((), 1)
    assert built[3] == with_ball.n_faces(2) - rank + 1


def test_cleared_coboundary_types_at_scale():
    # the whole nerve of the shipped z2_free_z: 133 vertices, 2,146 edges and
    # 23,744 triangles; clearing drops the 132 edge columns d_1 paired
    cx = nerve(decompose(get_instance("z2_free_z"), 0, PAPER_SCHEDULE).whole, cap=2)
    assert [homology_type(cx, p) for p in range(3)] == [
        AbelianGroup(1), AbelianGroup(0), AbelianGroup(21730)
    ]
    for p in (1, 2):
        diag, rank = sparse_diagonal(csc_columns(cx.boundary_columns(p)))
        torsion, cleared_rank, pivots = _boundary_type(cx, p)
        assert (torsion, cleared_rank) == (tuple(d for d in diag if d > 1), rank)
        assert len(pivots) == rank
    d2t = cx.coboundary_columns(2, _boundary_type(cx, 1)[2])
    assert isinstance(d2t, CSC) and len(d2t) == 2146 - 132
