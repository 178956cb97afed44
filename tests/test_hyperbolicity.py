import itertools
import json
import math
import pathlib

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from horokit import graphs, hyperbolicity
from horokit.errors import BudgetExceededError, DisconnectedGraphError
from horokit.graphs import MetricGraph, Vertex
from horokit.groups import GroupSpec
from horokit.hyperbolicity import DeltaEstimate, four_point_delta
from horokit.instances import get_instance
from horokit.spaces import Truncation, build_augmented, build_horoball, interval_points


def cycle(n):
    vs = [Vertex(i, 0, 0) for i in range(n)]
    return MetricGraph(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def path(n):
    vs = [Vertex(i, 0, 0) for i in range(n)]
    return MetricGraph(vs, [(vs[i], vs[i + 1]) for i in range(n - 1)])


def grid(rows, cols):
    vs = {(r, c): Vertex(r * cols + c, 0, 0) for r in range(rows) for c in range(cols)}
    edges = [(vs[r, c], vs[r, c + 1]) for r in range(rows) for c in range(cols - 1)]
    edges += [(vs[r, c], vs[r + 1, c]) for r in range(rows - 1) for c in range(cols)]
    return MetricGraph(vs.values(), edges)


def brute_force_delta(g):
    # independent oracle: scan all quadruples directly
    n = len(g.vertices)
    d = g.distance_matrix()
    best = 0
    for x, y, z, w in itertools.combinations(range(n), 4):
        sums = sorted([d[x, y] + d[z, w], d[x, z] + d[y, w], d[x, w] + d[y, z]])
        best = max(best, sums[2] - sums[1])
    return best / 2


def basepoint_delta(g):
    # independent oracle: the largest defect through each basepoint p, from the
    # (max,min) product of the doubled Gromov products at p; every quadruple
    # contains a basepoint, so the maximum over p is the constant
    d = g.distance_matrix().astype(np.int64)
    best = 0
    for p in range(len(g)):
        a = d[p][:, None] + d[p][None, :] - d
        maxmin = np.max(np.minimum(a[:, :, None], a[None, :, :]), axis=1)
        best = max(best, int((maxmin - a).max()))
    return best / 2


def test_delta_path_is_zero():
    assert four_point_delta(path(7)).delta == 0.0


def test_delta_c4_is_one():
    est = four_point_delta(cycle(4))
    assert est.delta == 1.0
    assert est.delta == brute_force_delta(cycle(4))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
def test_delta_cycles_match_brute_force(n):
    # cycles are full of distance ties; only the pairs at the diameter are far-apart
    est = four_point_delta(cycle(n))
    assert est.delta == brute_force_delta(cycle(n)) == basepoint_delta(cycle(n))
    assert est.method == "scan" and est.quadruples_checked == math.comb(n, 4)


@pytest.mark.parametrize("shape", [(2, 5), (3, 3), (3, 4), (4, 4)])
def test_delta_grids_match_brute_force(shape):
    g = grid(*shape)
    assert four_point_delta(g).delta == brute_force_delta(g) == basepoint_delta(g)


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(4, 14))
    # a random spanning tree plus random extra edges
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    pairs = list(itertools.combinations(range(n), 2))
    extra = draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
    vs = [Vertex(i, 0, 0) for i in range(n)]
    edges = [(vs[i], vs[p]) for i, p in enumerate(parents, start=1)]
    edges += [(vs[a], vs[b]) for a, b in extra]
    return MetricGraph(vs, edges)


@settings(max_examples=150, deadline=None)
@given(connected_graphs())
def test_delta_random_graphs_match_oracles(g):
    assert four_point_delta(g).delta == brute_force_delta(g) == basepoint_delta(g)


@pytest.mark.parametrize("lmax", [4, 5])
def test_delta_criterion_2_horoballs_match_basepoint_oracle(lmax):
    hb = build_horoball(interval_points(-8, 8), lambda p, q: abs(p - q), (0, lmax), lmax=lmax)
    assert four_point_delta(hb).delta == basepoint_delta(hb) == 1.5


def test_delta_budget_names_layer_amount_and_cap(monkeypatch):
    # C6 has 3 far-apart pairs (the antipodes), so 3 pair comparisons
    monkeypatch.setattr(hyperbolicity, "EXHAUSTIVE_CELL_LIMIT", 2)
    with pytest.raises(BudgetExceededError) as err:
        four_point_delta(cycle(6))
    msg = str(err.value)
    assert msg.startswith("hyperbolicity: ")
    assert "3 pair comparisons" in msg and "budget of 2" in msg
    monkeypatch.setattr(hyperbolicity, "EXHAUSTIVE_CELL_LIMIT", 3)
    assert four_point_delta(cycle(6)).delta == 1.0


def test_delta_tree_certificate():
    f2 = GroupSpec.free(2)
    sp = build_augmented(f2, (0,), Truncation(rg=3, lmax=0, mmax=0))
    est = four_point_delta(sp.graph)
    assert est.delta == 0.0
    assert est.method == "block-graph-certificate"
    assert est.quadruples_checked == math.comb(len(sp.graph), 4)


@st.composite
def trees_of_cliques(draw):
    # a clique (K_n alone when no more come), then pendant cliques glued on at
    # one existing vertex each: a block graph
    sizes = draw(st.lists(st.integers(2, 8), min_size=1, max_size=6))
    n, edges = sizes[0], list(itertools.combinations(range(sizes[0]), 2))
    for k in sizes[1:]:
        if n + k - 1 > 14:
            break
        cut = draw(st.integers(0, n - 1))
        members = [cut] + list(range(n, n + k - 1))
        edges += list(itertools.combinations(members, 2))
        n += k - 1
    vs = [Vertex(i, 0, 0) for i in range(n)]
    return MetricGraph(vs, [(vs[a], vs[b]) for a, b in edges])


def every_block_a_clique(g):
    nxg = nx.Graph(list(g.edges))
    return all(
        nxg.subgraph(c).number_of_edges() == len(c) * (len(c) - 1) // 2
        for c in nx.biconnected_components(nxg)
    )


@st.composite
def glued_blocks(draw):
    # cycles, grids, cliques and random connected pieces, each glued on at one
    # existing vertex: the constant is the largest of the pieces' blocks
    def piece():
        kind = draw(st.sampled_from(["cycle", "grid", "clique", "random"]))
        if kind == "cycle":
            k = draw(st.integers(4, 7))
            return k, [(i, (i + 1) % k) for i in range(k)]
        if kind == "grid":
            rows, cols = draw(st.integers(2, 3)), draw(st.integers(2, 3))
            k = rows * cols
            return k, [(i, i + 1) for i in range(k) if (i + 1) % cols] + [
                (i, i + cols) for i in range(k - cols)
            ]
        if kind == "clique":
            k = draw(st.integers(2, 5))
            return k, list(itertools.combinations(range(k), 2))
        k = draw(st.integers(2, 6))
        extra = draw(st.lists(st.sampled_from(list(itertools.combinations(range(k), 2))),
                              max_size=k))
        return k, [(i, draw(st.integers(0, i - 1))) for i in range(1, k)] + extra

    n, edges = 1, []
    for _ in range(draw(st.integers(1, 5))):
        k, piece_edges = piece()
        if n + k - 1 > 14:
            break
        ids = [draw(st.integers(0, n - 1))] + list(range(n, n + k - 1))
        edges += [(ids[a], ids[b]) for a, b in piece_edges]
        n += k - 1
    vs = [Vertex(i, 0, 0) for i in range(n)]
    return MetricGraph(vs, [(vs[a], vs[b]) for a, b in edges])


@settings(max_examples=200, deadline=None)
@given(st.one_of(trees_of_cliques(), connected_graphs(), glued_blocks()))
def test_block_graph_certificate_fires_iff_every_block_is_a_clique(g):
    est = four_point_delta(g)
    certified = est.method == "block-graph-certificate"
    assert certified == (len(g) >= 4 and every_block_a_clique(g))
    assert est.delta == brute_force_delta(g)


def test_long_path_is_certified_without_a_distance_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("distance matrix built")

    monkeypatch.setattr(MetricGraph, "distance_matrix", refuse)
    est = four_point_delta(path(100_000))
    assert (est.delta, est.method) == (0.0, "block-graph-certificate")
    assert est.quadruples_checked == math.comb(100_000, 4)


def test_chain_of_cycles_is_scanned_block_by_block(monkeypatch):
    # ten 4-cycles, each glued to the next at one vertex: 31 vertices, past
    # an all-pairs cap of 10, in blocks of 4
    monkeypatch.setattr(graphs, "ALL_PAIRS_LIMIT", 10)
    sizes, matrix = [], MetricGraph.distance_matrix

    def spy(self):
        sizes.append(len(self))
        return matrix(self)

    monkeypatch.setattr(MetricGraph, "distance_matrix", spy)
    vs = [Vertex(i, 0, 0) for i in range(31)]
    edges = [(vs[3 * c + i], vs[3 * c + (i + 1) % 4]) for c in range(10) for i in range(4)]
    est = four_point_delta(MetricGraph(vs, edges))
    assert (est.delta, est.method, est.quadruples_checked) == (1.0, "scan", math.comb(31, 4))
    assert sizes == [4] * 10


def test_delta_invariant_under_relabeling():
    g = cycle(5)
    relabeled = MetricGraph(
        [Vertex(v.element + 100, 0, 0) for v in g.vertices],
        [
            (Vertex(g.vertices[a].element + 100, 0, 0), Vertex(g.vertices[b].element + 100, 0, 0))
            for a, b in g.edges
        ],
    )
    assert four_point_delta(g).delta == four_point_delta(relabeled).delta


def test_delta_horoball_matches_brute_force():
    hb = build_horoball(interval_points(-4, 4), lambda p, q: abs(p - q), (0, 2), lmax=2)
    est = four_point_delta(hb)
    assert est.delta == brute_force_delta(hb)


def test_sampled_at_most_exhaustive():
    hb = build_horoball(interval_points(-6, 6), lambda p, q: abs(p - q), (0, 3), lmax=3)
    exact = four_point_delta(hb)
    sampled = four_point_delta(hb, mode="sampled", samples=2000, seed=7)
    assert sampled.delta <= exact.delta
    assert sampled.mode == "sampled" and sampled.seed == 7


def test_sampled_deterministic():
    g = cycle(6)
    a = four_point_delta(g, mode="sampled", samples=500, seed=3)
    b = four_point_delta(g, mode="sampled", samples=500, seed=3)
    assert a.delta == b.delta


def test_delta_disconnected_error():
    vs = [Vertex(0, 0, 0), Vertex(1, 0, 0), Vertex(2, 0, 0), Vertex(3, 0, 0), Vertex(4, 0, 0)]
    g = MetricGraph(vs, [(vs[0], vs[1]), (vs[2], vs[3])])
    with pytest.raises(DisconnectedGraphError):
        four_point_delta(g)


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_disconnected_forest_is_refused_in_both_modes(mode):
    # a forest: every block is a clique, but two trees and a lone vertex
    vs = [Vertex(i, 0, 0) for i in range(6)]
    g = MetricGraph(vs, [(vs[0], vs[1]), (vs[1], vs[2]), (vs[3], vs[4])])
    with pytest.raises(DisconnectedGraphError):
        four_point_delta(g, mode=mode, samples=100)


def test_sampled_budget_refuses_before_sampling(monkeypatch):
    def refuse(self):
        raise AssertionError("distance matrix built")

    monkeypatch.setattr(MetricGraph, "distance_matrix", refuse)
    limit = hyperbolicity.SAMPLE_LIMIT
    with pytest.raises(BudgetExceededError) as err:
        four_point_delta(cycle(6), mode="sampled", samples=limit + 1)
    msg = str(err.value)
    assert msg.startswith("hyperbolicity: ")
    assert f"{limit + 1} quadruples" in msg and f"budget of {limit}" in msg


def test_estimate_reports_truncation():
    est = four_point_delta(cycle(4), truncation={"note": "fixture"})
    assert est.truncation["note"] == "fixture"
    assert isinstance(est, DeltaEstimate)


def test_wide_horoball_delta_matches_golden():
    golden = json.loads(
        (pathlib.Path(__file__).parent / "goldens" / "horoball_delta.json").read_text()
    )
    hb = build_horoball(interval_points(-32, 32), lambda p, q: abs(p - q), (0, 5), lmax=5)
    est = four_point_delta(hb, truncation={"base": [-32, 32], "levels": [0, 5]})
    assert est.as_dict() == golden
    assert est.delta <= 2.0


def batched_int64_sampled_delta(g, samples, seed):
    """The sampled scan as it stood before the int32 blocks: an int64 copy of
    the matrix, quadruples in batches of 65,536, three-way defects."""
    dist = g.distance_matrix().astype(np.int64)
    rng = np.random.default_rng(seed)
    best, remaining = 0, samples
    while remaining > 0:
        m = min(65_536, remaining)
        remaining -= m
        x, y, z, w = rng.integers(0, len(g), size=(m, 4)).T
        s1 = dist[x, y] + dist[z, w]
        s2 = dist[x, z] + dist[y, w]
        s3 = dist[x, w] + dist[y, z]
        gap = s1 - np.maximum(s2, s3)
        np.maximum(gap, s2 - np.maximum(s1, s3), out=gap)
        np.maximum(gap, s3 - np.maximum(s1, s2), out=gap)
        best = max(best, int(gap.max()))
    return best / 2


def test_sampled_blocks_stay_inside_int32():
    # every intermediate of the int32 scan is at most 6*(n-1)
    assert 6 * graphs.ALL_PAIRS_LIMIT < 2**31


@pytest.mark.parametrize("samples", [1, 8191, 8192, 8193, 3 * 8192 + 5])
def test_sampled_scan_matches_the_batched_int64_scan(samples, monkeypatch):
    # the sample counts sit on and around the block size of 8,192
    shapes = [cycle(4), cycle(5), cycle(9), grid(3, 4), get_instance("z_horoball").graph]
    for g in shapes:
        for seed in range(4):
            est = four_point_delta(g, mode="sampled", samples=samples, seed=seed)
            assert est.delta == batched_int64_sampled_delta(g, samples, seed)
            assert (est.quadruples_checked, est.samples, est.seed) == (samples, samples, seed)
    # every quadruple is drawn and scanned, the last partial block too
    drawn, default_rng = [], np.random.default_rng

    class Spy:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def integers(self, low, high, size):
            drawn.append(size)
            return self.rng.integers(low, high, size=size)

    monkeypatch.setattr(np.random, "default_rng", Spy)
    four_point_delta(cycle(5), mode="sampled", samples=samples, seed=0)
    full, rest = divmod(samples, 8192)
    assert drawn == [(8192, 4)] * full + [(rest, 4)] * (rest > 0)
