from itertools import combinations

import pytest

from horokit.complexes import barycentric_subdivision
from horokit.graphs import MetricGraph, Vertex
from horokit.groups import GroupSpec
from horokit.homology import AbelianGroup, homology_type
from horokit.rips import (
    LevelWindow,
    full_subcomplex,
    remark_decomposition_check,
    rips,
)
from horokit.spaces import Truncation, build_augmented, build_horoball, interval_points
from oracles import build_vertex_space


def path_graph(n):
    return MetricGraph([Vertex(i, 0, 0) for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def test_rips_path_d1():
    c = rips(path_graph(3), 1, cap=2)
    assert c.n_faces(1) == 2
    assert c.n_faces(2) == 0


def test_rips_full_simplex_when_d_exceeds_diameter():
    g = path_graph(4)
    c = rips(g, 3, cap=3)
    assert c.n_faces(3) == 1


def test_rips_faces_match_brute_force():
    hb = build_horoball(interval_points(-3, 3), lambda p, q: abs(p - q), (0, 2), lmax=2)
    c = rips(hb, 3, cap=3)
    d = hb.distance_matrix()
    for k in range(2, 5):
        expected = {
            sub
            for sub in combinations(range(len(hb)), k)
            if max(d[a, b] for a in sub for b in sub) <= 3
        }
        assert set(map(tuple, c.faces[k - 1].tolist())) == expected


def test_rips_monotone_in_d():
    g = path_graph(6)
    c1 = rips(g, 1, cap=3)
    c2 = rips(g, 2, cap=3)
    for p in range(4):
        assert set(map(tuple, c1.faces[p].tolist())) <= set(map(tuple, c2.faces[p].tolist()))


def test_window_validation():
    with pytest.raises(ValueError):
        LevelWindow(0, 2)
    with pytest.raises(ValueError):
        LevelWindow(3, 2)


def test_full_subcomplex_band_single_level():
    z = GroupSpec.free_abelian(1, names=("x",))
    vs = build_vertex_space(z, (0,), rg=2, lmax=3)
    c = rips(vs, 2, cap=2)
    band = full_subcomplex(c, LevelWindow(2, 2), "band")
    assert {v.level for v in band.labels} == {2}


def test_full_subcomplex_union_covers():
    z = GroupSpec.free_abelian(1, names=("x",))
    vs = build_vertex_space(z, (0,), rg=2, lmax=3)
    c = rips(vs, 1, cap=2)
    low = full_subcomplex(c, LevelWindow(1, 3), "lower")
    up = full_subcomplex(c, LevelWindow(1, 3), "upper")
    assert set(low.labels) | set(up.labels) == set(c.labels)


def test_full_subcomplex_faces_match_brute_force():
    z = GroupSpec.free_abelian(1, names=("x",))
    vs = build_vertex_space(z, (0,), rg=2, lmax=3)
    c = rips(vs, 2, cap=2)
    sub = full_subcomplex(c, LevelWindow(2, 3), "lower")
    keep = {v for v in c.labels if v.level >= 2}
    for p in range(3):
        expected = {
            tuple(sorted(sub.labels.index(c.labels[v]) for v in f))
            for f in c.faces[p].tolist()
            if all(c.labels[v] in keep for v in f)
        }
        assert set(map(tuple, sub.faces[p].tolist())) == expected


def test_remark_decomposition_holds_under_hypothesis():
    spaces = [
        build_vertex_space(GroupSpec.free_abelian(1, names=("x",)), (0,), rg=3, lmax=6),
        build_vertex_space(GroupSpec.free(2), (0,), rg=2, lmax=6),
    ]
    checked = 0
    for g in spaces:
        for d in (1, 2, 3):
            for r in (1, 2):
                for rr in (r + d, r + d + 1):
                    res = remark_decomposition_check(g, d, r, rr, cap=2)
                    assert res.ok, (d, r, rr, res.witnesses[:1])
                    checked += 1
    assert checked >= 20


def test_remark_decomposition_violation_fixture():
    # a hand-built space where an edge jumps two levels
    vs = [Vertex("p", 0, 0), Vertex("q", 2, 1)]
    bad = MetricGraph(vs, [(0, 1)])
    res = remark_decomposition_check(bad, 1, 1, 1, cap=2)
    assert not res.ok
    assert res.witnesses
    levels = sorted(v.level for v in res.witnesses[0])
    assert levels == [0, 2]


def test_remark_single_vertex():
    g = MetricGraph([Vertex("p", 1, 1)], [])
    res = remark_decomposition_check(g, 1, 1, 2, cap=2)
    assert res.ok


def test_subdivision_preserves_homology_on_rips_fixture():
    hb = build_horoball(interval_points(-2, 2), lambda p, q: abs(p - q), (0, 1), lmax=1)
    c = rips(hb, 1, cap=2)
    sd = barycentric_subdivision(c, 1)
    for p in (0, 1):
        assert homology_type(c, p) == homology_type(sd, p)


def _reduced_types(complex_, degrees):
    return [homology_type(complex_, p, reduced=True) for p in degrees]


def test_proxy_full_simplex():
    # vanishing reduced homology, the contractibility proxy, through the cap
    from horokit.complexes import full_simplex

    c = full_simplex(4)
    assert all(g.is_trivial for g in _reduced_types(c, range(c.cap + 1)))


def test_proxy_circle():
    hexagon = MetricGraph(
        [Vertex(i, 0, 0) for i in range(6)],
        [(i, (i + 1) % 6) for i in range(6)],
    )
    c = rips(hexagon, 1, cap=2)
    assert _reduced_types(c, (0, 1)) == [AbelianGroup(0), AbelianGroup(1)]


def test_proxy_tree_thickening():
    f2 = GroupSpec.free(2)
    ball = build_augmented(f2, (0,), Truncation(rg=3, lmax=0, mmax=0))
    for d in (1, 2):
        # degrees below the cap, where the cap-4 complex has the homology of
        # the whole Rips complex
        c = rips(ball.graph, d, cap=4)
        assert all(g.is_trivial for g in _reduced_types(c, range(4))), d
