import pytest

from horokit.errors import BUDGET_ENV_VAR, BudgetExceededError, EmptyBaseError
from horokit.graphs import MetricGraph, Vertex
from horokit.groups import Atom, GroupSpec
from horokit.spaces import (
    Truncation,
    boundary_vertices,
    build_augmented,
    build_horoball,
    build_vertex_space,
    interior_window,
    interval_points,
)

ABS = lambda p, q: abs(p - q)


def test_horoball_single_point_is_path():
    g = build_horoball(["p"], lambda a, b: 0, (0, 2), lmax=2)
    assert len(g) == 3
    assert len(g.edges) == 2


def test_horoball_empty_base():
    with pytest.raises(EmptyBaseError):
        build_horoball([], ABS, (0, 1), lmax=1)


def test_horoball_budget(monkeypatch):
    # 17 base points at 4 levels
    monkeypatch.setenv(BUDGET_ENV_VAR, "68")
    assert len(build_horoball(interval_points(-8, 8), ABS, (0, 3), lmax=3)) == 68
    monkeypatch.setenv(BUDGET_ENV_VAR, "67")
    with pytest.raises(BudgetExceededError):
        build_horoball(interval_points(-8, 8), ABS, (0, 3), lmax=3)


def test_horoball_interval_vertex_count_and_shortcut():
    g = build_horoball(interval_points(-8, 8), ABS, (0, 3), lmax=3)
    assert len(g) == 17 * 4
    assert g.distance(Vertex(0, 0, 0), Vertex(8, 0, 0)) == 6


def test_horoball_edges_match_predicate_oracle():
    pts = interval_points(-8, 8)
    g = build_horoball(pts, ABS, (0, 3), lmax=3)
    # brute-force edge oracle straight off the defining predicate
    expected = set()
    index = {v: i for i, v in enumerate(g.vertices)}

    def vid(p, l):
        return index[Vertex(p, l, 0 if l == 0 else 1)]

    for l in range(4):
        for p in pts:
            for q in pts:
                if p < q and 0 < abs(p - q) <= 2**l:
                    expected.add(tuple(sorted((vid(p, l), vid(q, l)))))
    for l in range(3):
        for p in pts:
            expected.add(tuple(sorted((vid(p, l), vid(p, l + 1)))))
    assert set(g.edges) == expected


def test_horoball_level3_adjacency_threshold():
    g = build_horoball(interval_points(-8, 8), ABS, (0, 3), lmax=3)
    # at the top level pairs within 8 are adjacent, farther pairs are not
    assert g.distance(Vertex(-4, 3, 1), Vertex(4, 3, 1)) == 1
    assert g.distance(Vertex(-8, 3, 1), Vertex(8, 3, 1)) > 1


def test_horoball_edge_level_monotone():
    pts = interval_points(-4, 4)
    g = build_horoball(pts, ABS, (0, 3), lmax=3)
    for l in range(3):
        for p in pts:
            for q in pts:
                if p < q and g.distance(Vertex(p, l, 0 if l == 0 else 1), Vertex(q, l, 0 if l == 0 else 1)) == 1:
                    assert (
                        g.distance(Vertex(p, l + 1, 1), Vertex(q, l + 1, 1)) == 1
                    )


def test_horoball_distance_shrinks_up_the_cusp():
    pts = interval_points(-8, 8)
    g = build_horoball(pts, ABS, (0, 4), lmax=4)
    pairs = [(-8, 8), (-5, 3), (0, 7)]
    for p, q in pairs:
        prev = None
        for l in range(1, 5):
            d = g.distance(Vertex(p, l, 1), Vertex(q, l, 1))
            if prev is not None:
                assert d <= prev
            prev = d


def test_augmented_no_horoballs_is_cayley_ball():
    f2 = GroupSpec.free(2)
    sp = build_augmented(f2, (0,), Truncation(rg=2, lmax=3, mmax=0))
    assert len(sp.graph) == 17
    assert all(v.level == 0 for v in sp.graph.vertices)


def test_augmented_single_coset_matches_horoball():
    z = GroupSpec.free_abelian(1, names=("x",))
    sp = build_augmented(z, (0,), Truncation(rg=8, lmax=3, mmax=1))
    hb = build_horoball(interval_points(-8, 8), ABS, (0, 3), lmax=3)
    assert len(sp.graph) == len(hb)
    assert len(sp.graph.edges) == len(hb.edges)
    # identical distance profile through the glued cusp
    d_sp = sp.graph.distance(Vertex("", 0, 0), Vertex("xxxxxxxx", 0, 0))
    assert d_sp == 6


def test_augmented_matches_independent_builder():
    prod = GroupSpec.free_product(
        GroupSpec.free_abelian(2, names=("x", "y")), GroupSpec.free(1, names=("t",))
    )
    a = build_augmented(prod, (0,), Truncation(rg=3, lmax=2, mmax=None))
    b = build_vertex_space(prod, (0,), rg=3, lmax=2)
    assert set(a.graph.vertices) == set(b.vertices)
    ea = {tuple(sorted((a.graph.vertices[i], a.graph.vertices[j]))) for i, j in a.graph.edges}
    eb = {tuple(sorted((b.vertices[i], b.vertices[j]))) for i, j in b.edges}
    assert ea == eb


@pytest.mark.parametrize(
    "spec, peripherals, rg",
    [
        (GroupSpec.free(2), (0, 1), 3),
        (GroupSpec([Atom("free", ("a", "b")), Atom("abelian", ("x",))]), (0,), 3),
        (GroupSpec([Atom("free", ("a", "b")), Atom("abelian", ("x",))]), (1, 0), 2),
        (GroupSpec.free_abelian(3), (0,), 2),
        (
            GroupSpec([Atom("abelian", ("x", "y")), Atom("abelian", ("z",)), Atom("free", ("t",))]),
            (0, 1),
            2,
        ),
    ],
    ids=["F2-both", "F2*Z-rel-F2", "F2*Z-rel-both", "Z3", "Z2*Z*Z-rel-Z2-Z"],
)
def test_augmented_matches_independent_builder_across_atoms(spec, peripherals, rg):
    a = build_augmented(spec, peripherals, Truncation(rg=rg, lmax=3)).graph
    b = build_vertex_space(spec, peripherals, rg=rg, lmax=3)
    assert a.vertices == b.vertices
    assert a.edges == b.edges


def test_boundary_uses_attached_cosets_only():
    prod = GroupSpec.free_product(
        GroupSpec.free_abelian(2, names=("x", "y")), GroupSpec.free(1, names=("t",))
    )
    sp = build_augmented(prod, (0,), Truncation(rg=2, lmax=2, mmax=2))
    attached = {(e.atom, e.rep) for e in sp.attached}
    expected = {
        v
        for v in sp.graph.vertices
        if v.level == 2
        or (
            v.level == 0
            and (len(v.element) == 2 or (0, prod.coset_rep(v.element, 0)) not in attached)
        )
    }
    assert boundary_vertices(sp) == expected


def test_depth_zero_adds_no_vertical_edges():
    # lmax = 0 puts no horoball vertex over any coset, so both builders give
    # the Cayley ball of the build that attaches no horoball
    f2 = GroupSpec.free(2)

    def shape(g):
        edges = {tuple(sorted((g.vertices[i], g.vertices[j]))) for i, j in g.edges}
        return set(g.vertices), edges

    bare = build_augmented(f2, (0,), Truncation(rg=1, lmax=0, mmax=0)).graph
    assert shape(build_augmented(f2, (0,), Truncation(rg=1, lmax=0)).graph) == shape(bare)
    assert shape(build_vertex_space(f2, (0,), rg=1, lmax=0)) == shape(bare)


def test_gluing_identifies_level_zero_with_cayley():
    z = GroupSpec.free_abelian(1, names=("x",))
    sp = build_augmented(z, (0,), Truncation(rg=3, lmax=2, mmax=1))
    # (x, 0) is a Cayley vertex and has a vertical edge into the horoball
    assert sp.graph.distance(Vertex("x", 0, 0), Vertex("x", 1, 1)) == 1
    # no level-0 vertex carries a coset tag
    assert all(v.coset == 0 for v in sp.graph.vertices if v.level == 0)


def test_distinct_cosets_share_no_horoball_vertices():
    prod = GroupSpec.free_product(
        GroupSpec.free_abelian(2, names=("x", "y")), GroupSpec.free(1, names=("t",))
    )
    sp = build_augmented(prod, (0,), Truncation(rg=2, lmax=2, mmax=3))
    seen = {}
    for v in sp.graph.vertices:
        if v.level >= 1:
            key = (v.element, v.level)
            assert key not in seen or seen[key] == v.coset
            seen[key] = v.coset


def test_vertex_space_counts():
    f2 = GroupSpec.free(2)
    g = build_vertex_space(f2, (0,), rg=2, lmax=2)
    ball = f2.ball(2)
    coset_sizes = {}
    for x in ball:
        coset_sizes.setdefault(f2.coset_rep(x, 0), 0)
        coset_sizes[f2.coset_rep(x, 0)] += 1
    expected = len(ball) + sum(coset_sizes.values()) * 2
    assert len(g) == expected


def test_vertex_space_substructure_isometric():
    f2 = GroupSpec.free(2)
    big = build_vertex_space(f2, (0,), rg=3, lmax=2)
    small = build_vertex_space(GroupSpec.free(1, names=("a",)), (0,), rg=3, lmax=2)
    sub = [
        v
        for v in big.vertices
        if set(v.element) <= {"a", "A"} and (v.level == 0 or v.coset == 1)
    ]
    assert len(sub) == len(small)
    for i, u in enumerate(sub):
        for w in sub[i + 1 :]:
            su = Vertex(u.element, u.level, min(u.coset, 1))
            sw = Vertex(w.element, w.level, min(w.coset, 1))
            assert big.distance(u, w) == small.distance(su, sw)


def test_boundary_and_window():
    z = GroupSpec.free_abelian(1, names=("x",))
    sp = build_augmented(z, (0,), Truncation(rg=3, lmax=5, mmax=1))
    b = boundary_vertices(sp)
    assert Vertex("xxx", 0, 0) in b
    assert Vertex("", 5, 1) in b
    assert Vertex("", 0, 0) not in b
    win = interior_window(sp, 1)
    assert Vertex("", 0, 0) in win
    assert win.isdisjoint(b)


def test_window_shrinks_with_scale():
    z = GroupSpec.free_abelian(1, names=("x",))
    sp = build_augmented(z, (0,), Truncation(rg=3, lmax=5, mmax=1))
    w1 = interior_window(sp, 1)
    w3 = interior_window(sp, 3)
    assert w3 <= w1
