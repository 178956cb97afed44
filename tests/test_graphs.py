import math

import pytest

from horokit.errors import DecompositionError, UnknownVertexError
from horokit.graphs import MetricGraph, Vertex, omega_excisive_check, pen


def path_graph(n):
    vs = [Vertex(i, 0, 0) for i in range(n)]
    return MetricGraph(vs, [(vs[i], vs[i + 1]) for i in range(n - 1)])


def line(lo, hi):
    vs = [Vertex(i, 0, 0) for i in range(lo, hi + 1)]
    return MetricGraph(vs, [(Vertex(i, 0, 0), Vertex(i + 1, 0, 0)) for i in range(lo, hi)])


def test_bfs_distance_path():
    g = path_graph(3)
    assert g.distance(Vertex(0, 0, 0), Vertex(2, 0, 0)) == 2


def test_bfs_disconnected_infinite():
    vs = [Vertex(0, 0, 0), Vertex(1, 0, 0)]
    g = MetricGraph(vs, [])
    assert g.distance(vs[0], vs[1]) == math.inf


def test_unknown_vertex():
    g = path_graph(2)
    with pytest.raises(UnknownVertexError):
        g.distance(Vertex(0, 0, 0), Vertex(99, 0, 0))


def test_no_self_loops_or_multi_edges():
    vs = [Vertex(0, 0, 0), Vertex(1, 0, 0)]
    with pytest.raises(ValueError):
        MetricGraph(vs, [(vs[0], vs[0])])
    g = MetricGraph(vs, [(vs[0], vs[1]), (vs[1], vs[0])])
    assert len(g.edges) == 1


def test_distance_one_iff_edge():
    g = path_graph(4)
    for a, b in g.edges:
        assert g.distance(g.vertices[a], g.vertices[b]) == 1
    assert g.distance(Vertex(0, 0, 0), Vertex(2, 0, 0)) != 1


def test_pen_basics():
    g = line(-5, 5)
    a = {Vertex(0, 0, 0)}
    assert pen(g, a, 0) == a
    assert pen(g, a, 2) == {Vertex(i, 0, 0) for i in range(-2, 3)}


def test_pen_monotone_and_composition_bound():
    g = line(-6, 6)
    a = {Vertex(-1, 0, 0), Vertex(3, 0, 0)}
    p1 = pen(g, a, 1)
    p2 = pen(g, a, 2)
    assert p1 <= p2
    assert pen(g, p1, 1) <= pen(g, a, 2)


def test_pen_properties_on_random_subsets():
    from hypothesis import given, settings, strategies as st

    from horokit.instances import get_instance

    g = get_instance("z_horoball").graph
    n = len(g)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=6),
        st.integers(0, 3),
        st.integers(0, 3),
    )
    def check(idxs, r1, r2):
        a = {g.vertices[i] for i in idxs}
        assert pen(g, a, r1) <= pen(g, a, r1 + r2)
        assert pen(g, pen(g, a, r1), r2) <= pen(g, a, r1 + r2)

    check()


def test_omega_excisive_interval():
    g = line(-10, 10)
    a = [Vertex(i, 0, 0) for i in range(-10, 1)]
    b = [Vertex(i, 0, 0) for i in range(0, 11)]
    out = omega_excisive_check(g, a, b, [1, 2, 3])
    assert out == [(1, 1), (2, 2), (3, 3)]


def test_omega_excisive_identical_parts():
    g = line(0, 4)
    a = list(g.vertices)
    out = omega_excisive_check(g, a, a, [1, 2])
    assert out == [(1, 0), (2, 0)]


def test_omega_excisive_requires_cover():
    g = line(0, 4)
    with pytest.raises(DecompositionError):
        omega_excisive_check(g, g.vertices[:2], g.vertices[1:3], [1])


def test_omega_excisive_failure_when_core_empty():
    # disjoint halves of a path: penumbras overlap but A&B is empty
    g = path_graph(4)
    a = [Vertex(0, 0, 0), Vertex(1, 0, 0)]
    b = [Vertex(2, 0, 0), Vertex(3, 0, 0)]
    out = omega_excisive_check(g, a, b, [1])
    assert out[0][1] is None


def test_monotone_s_in_r():
    g = line(-8, 8)
    a = [Vertex(i, 0, 0) for i in range(-8, 2)]
    b = [Vertex(i, 0, 0) for i in range(-1, 9)]
    out = omega_excisive_check(g, a, b, [1, 2, 3, 4])
    values = [s for _, s in out]
    assert values == sorted(values)


def test_json_roundtrip_and_dot():
    g = path_graph(3)
    back = MetricGraph.from_json(g.to_json())
    assert back.vertices == g.vertices
    assert back.edges == g.edges
    dot = g.to_dot()
    assert dot.startswith("graph") and dot.count("--") == 2


def test_distance_matrix_symmetric():
    g = path_graph(6)
    d = g.distance_matrix()
    assert (d == d.T).all()
    assert d.max() == 5
