import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from horokit import graphs
from horokit.errors import DecompositionError, UnknownVertexError
from horokit.graphs import MetricGraph, Vertex, omega_excisive_check, pen
from horokit.instances import BUILDERS, get_instance


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


# -- the bit-parallel BFS against networkx -------------------------------------


def networkx_rows(g, sources_list):
    """Distance rows from networkx's BFS (the least over the sources of
    ``single_source_shortest_path_length``), -1 where no source reaches."""
    import networkx as nx

    ng = nx.Graph()
    ng.add_nodes_from(range(len(g)))
    ng.add_edges_from(g.edges)
    rows = []
    for sources in sources_list:
        row = [-1] * len(g)
        for s in sources:
            for j, d in nx.single_source_shortest_path_length(ng, s).items():
                if row[j] < 0 or d < row[j]:
                    row[j] = d
        rows.append(row)
    return rows


@st.composite
def sparse_graphs(draw):
    # up to 150 vertices, so a bitset row spans three words; components,
    # isolated vertices and the empty edge set all occur
    n = draw(st.integers(1, 150))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    vs = [Vertex(i, 0, 0) for i in range(n)]
    return MetricGraph(vs, [(vs[a], vs[b]) for a, b in pairs if a != b])


@pytest.mark.parametrize("block", [None, 5, 70])
def test_distance_matrix_matches_networkx(block):
    # None keeps the module's block; 5 and 70 cross blocks, 70 also words
    from hypothesis import given, settings

    @settings(max_examples=40, deadline=None)
    @given(sparse_graphs())
    def check(g):
        with mock.patch.object(graphs, "SOURCE_BLOCK", block or graphs.SOURCE_BLOCK):
            d = g.distance_matrix()
        assert d.dtype == np.int32 and d.shape == (len(g), len(g))
        assert d.tolist() == networkx_rows(g, [[i] for i in range(len(g))])

    check()


def test_multi_source_distances_match_networkx():
    from hypothesis import given, settings

    @settings(max_examples=100, deadline=None)
    @given(sparse_graphs(), st.data())
    def check(g, data):
        idxs = data.draw(st.lists(st.integers(0, len(g) - 1), min_size=1, max_size=5))
        row = g.multi_source_distances(g.vertices[i] for i in idxs)
        assert all(type(d) is int for d in row)
        assert row == networkx_rows(g, [idxs])[0]

    check()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_instance_distances_match_networkx(name, monkeypatch):
    g = get_instance(name).graph
    expected = networkx_rows(g, [[i] for i in range(len(g))])
    assert g.distance_matrix().tolist() == expected
    monkeypatch.setattr(graphs, "SOURCE_BLOCK", 7)
    assert g.distance_matrix().tolist() == expected
    rng = random.Random(name)
    for size in range(1, 6):
        idxs = rng.sample(range(len(g)), size)
        assert g.multi_source_distances([g.vertices[i] for i in idxs]) == \
            networkx_rows(g, [idxs])[0]


def test_multi_source_distances_refuse_unknown_sources():
    g = path_graph(3)
    with pytest.raises(UnknownVertexError):
        g.multi_source_distances([Vertex(0, 0, 0), Vertex(7, 0, 0)])
    assert g.multi_source_distances([]) == [-1, -1, -1]
