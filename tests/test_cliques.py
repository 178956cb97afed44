"""The clique kernel against brute-force subset enumeration and against the
recursive kernel it replaced, lookups by face code, and face budgets."""

import gc
from array import array
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from horokit import complexes
from horokit.complexes import (
    SimplicialMap,
    clique_complex,
    set_adjacency,
    set_nerve,
)
from horokit.covers import PAPER_SCHEDULE, build_cover, decompose, nerve
from horokit.errors import BUDGET_ENV_VAR, BudgetExceededError, NotSimplicialError
from horokit.graphs import MetricGraph, Vertex
from horokit.groups import GroupSpec
from horokit.rips import rips
from horokit.spaces import Truncation, build_augmented
from oracles import as_masks, as_sets, upper_rows


def recursive_clique_faces(adj, cap, masks=None):
    """The oracle: the recursive clique kernel that ``clique_complex``
    replaced.  Each face grows from its prefix by the candidates above it,
    in preorder, kept while the running AND of the masks is nonzero; the
    faces of each dimension come out lexicographic.  Rows go to one flat
    int array per dimension, so a two-million-face nerve fits in memory.
    Returns the n_p x (p+1) arrays."""
    if masks is None:
        masks = [-1] * len(adj)
    flat = [array("i") for _ in range(cap + 1)]
    flat[0].extend(range(len(adj)))

    def extend(face, common, cand):
        while cand:
            j = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            nc = common & masks[j]
            if nc:
                grown = face + (j,)
                flat[len(face)].extend(grown)
                if len(grown) <= cap:
                    extend(grown, nc, cand & adj[j])

    if cap > 0:
        for i in range(len(adj)):
            extend((i,), masks[i], adj[i] & -(1 << (i + 1)))
    return [np.frombuffer(f, dtype=np.int32).reshape(-1, p + 1) for p, f in enumerate(flat)]


def assert_same_rows(cx, oracle):
    assert len(cx.faces) == len(oracle)
    for fs, expected in zip(cx.faces, oracle):
        assert fs.dtype == np.int32
        assert np.array_equal(fs, expected)


def assert_kernel_facets(cx, copy=None):
    """The facet table the kernel stored for each dimension it built
    against the lookup of a copy of the complex that has none stored, by
    default a ``from_faces`` copy."""
    if copy is None:
        copy = complexes.SimplicialComplex.from_faces(
            cx.labels, [f for fs in cx.faces for f in fs.tolist()], cap=cx.cap)
    assert not copy._facets
    for p in range(1, cx.cap + 1):
        assert np.array_equal(copy.faces[p], cx.faces[p])
        if cx.n_faces(p):
            table = cx._facets[p]
            assert table.dtype == np.int32
            assert np.array_equal(table, copy.facets(p))


def meet(masks, subset):
    common = -1
    for v in subset:
        common &= masks[v]
    return common != 0


@contextmanager
def face_budget(limit):
    """The face budget set to exactly ``limit`` faces: the vertex budget's
    environment variable at ``limit``, and one face per vertex."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(BUDGET_ENV_VAR, str(limit))
        mp.setattr(complexes, "FACES_PER_VERTEX", 1)
        yield


def nerve_oracle(masks, size):
    """Vertex subsets of the given size in the nerve, in lexicographic order;
    every single vertex is a face."""
    return [s for s in combinations(range(len(masks)), size) if size == 1 or meet(masks, s)]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 63), min_size=1, max_size=9), st.integers(1, 3))
def test_mask_nerve_matches_subset_oracle(masks, cap):
    by_size = [nerve_oracle(masks, k) for k in range(1, cap + 2)]
    kept = sum(map(len, by_size))
    with face_budget(kept):
        cx = set_nerve(list(range(len(masks))), as_sets(masks), cap)
    assert [fs.tolist() for fs in cx.faces] == [[list(f) for f in fs] for fs in by_size]
    with face_budget(kept - 1), pytest.raises(
        BudgetExceededError, match=f"nerve has at least {kept} faces"
    ):
        set_nerve(list(range(len(masks))), as_sets(masks), cap)
    assert_indices_round_trip(cx)
    # the face lists decide every vertex set of up to cap+1 vertices
    for k in range(2, cap + 2):
        for s in combinations(range(len(masks)), k):
            assert has_face(cx, s) == meet(masks, s)


def pairwise_adjacency(masks):
    """The oracle: one AND per pair of masks."""
    adj = [0] * len(masks)
    for i, j in combinations(range(len(masks)), 2):
        if masks[i] & masks[j]:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**70 - 1) | st.sampled_from([0, 1, 2**69, 2**70 - 1]),
                max_size=12))
@example([])
@example([0b101])  # one column meets only itself
@example([0, 0, 0b11])
@example([0b110, 0b110, 0b1])
def test_point_star_adjacency_matches_the_pairwise_and(masks):
    # wide masks, empty masks and repeats (equal masks meet unless empty)
    for family in (masks, masks + masks):
        starts, nbrs = set_adjacency(as_sets(family))
        expected = upper_rows(pairwise_adjacency(family))
        assert starts.tolist() == expected[0].tolist() and nbrs.tolist() == expected[1].tolist()


@st.composite
def nerve_maps(draw):
    """Source and target masks, and a target vertex per source vertex."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 5))
    return (
        draw(st.lists(st.integers(0, 31), min_size=n, max_size=n)),
        draw(st.lists(st.integers(0, 15), min_size=m, max_size=m)),
        draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)),
    )


@settings(max_examples=200, deadline=None)
@given(nerve_maps(), st.integers(1, 3))
def test_nerve_map_check_matches_the_mask_oracle(case, cap):
    # a vertex map of nerves is simplicial when the images of each source
    # face have masks with a nonzero AND (one image vertex is always a face);
    # the witness is the first failing face by dimension, then lexicographic
    source_masks, target_masks, images = case

    def fails(face):
        image = {images[v] for v in face}
        return len(image) > 1 and not meet(target_masks, image)

    faces = [f for k in range(1, cap + 2) for f in nerve_oracle(source_masks, k)]
    failing = next((f for f in faces if fails(f)), None)
    src = set_nerve(list(range(len(source_masks))), as_sets(source_masks), cap)
    tgt = set_nerve(list(range(len(target_masks))), as_sets(target_masks), cap)
    if failing is None:
        SimplicialMap(src, tgt, images, check=True)
    else:
        with pytest.raises(NotSimplicialError) as exc:
            SimplicialMap(src, tgt, images, check=True)
        assert exc.value.witness == failing


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))),
    st.integers(1, 3),
    st.integers(1, 3),
)
def test_rips_matches_diameter_oracle(graph, diameter, cap):
    n, pairs = graph
    vs = [Vertex(i, 0, 0) for i in range(n)]
    g = MetricGraph(vs, [(a, b) for a, b in pairs if a != b])
    dist = g.distance_matrix()
    cx = rips(g, diameter, cap=cap)

    def small(s):
        return all(0 <= dist[a][b] <= diameter for a, b in combinations(s, 2))

    for k in range(1, cap + 2):
        assert cx.faces[k - 1].tolist() == [list(s) for s in combinations(range(n), k) if small(s)]
    assert_indices_round_trip(cx)


def test_nerve_face_budget_counts_kept_faces():
    z = GroupSpec.free_abelian(1, names=("x",))
    sp = build_augmented(z, (0,), Truncation(rg=2, lmax=1, mmax=1))
    fam = build_cover(sp, 1).whole()
    kept = sum(len(fs) for fs in nerve(fam, cap=2).faces)
    with face_budget(kept):
        assert sum(len(fs) for fs in nerve(fam, cap=2).faces) == kept
    with face_budget(kept - 1), pytest.raises(BudgetExceededError, match="face budget"):
        nerve(fam, cap=2)


def test_rips_face_budget_counts_kept_faces():
    vs = [Vertex(i, 0, 0) for i in range(5)]
    g = MetricGraph(vs, [(i, i + 1) for i in range(4)])
    kept = sum(len(fs) for fs in rips(g, 2, cap=2).faces)
    with face_budget(kept):
        assert sum(len(fs) for fs in rips(g, 2, cap=2).faces) == kept
    with face_budget(kept - 1), pytest.raises(BudgetExceededError, match="face budget"):
        rips(g, 2, cap=2)


def test_nerve_build_leaves_no_garbage_cycle():
    # the face lists must be freed by reference counting alone: a reference
    # cycle through the enumeration would keep them until a full collection
    z = GroupSpec.free_abelian(1, names=("x",))
    fam = build_cover(build_augmented(z, (0,), Truncation(rg=3, lmax=2, mmax=1)), 1).whole()
    vs = [Vertex(i, 0, 0) for i in range(6)]
    g = MetricGraph(vs, [(i, i + 1) for i in range(5)])
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            assert nerve(fam, cap=3).n_faces(1) > 0
            assert set_nerve(list(range(5)), as_sets([7, 3, 6, 12, 9]), 2).n_faces(2) > 0
            assert rips(g, 2, cap=2).n_faces(2) > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def has_face(cx, vertices):
    """Whether a vertex set is a face, looked up by code as the map check
    does; a repeated vertex, one out of range and a set past the cap are not."""
    f = sorted(vertices)
    return bool(f) and cx.face_indices(np.array([f]))[0] >= 0


def assert_indices_round_trip(cx):
    """Every face's row finds its own index by code, and has_face agrees."""
    for p, fs in enumerate(cx.faces):
        assert cx.face_indices(fs).tolist() == list(range(len(fs)))
        for f in fs[:5].tolist():
            assert has_face(cx, f) and has_face(cx, reversed(f))


def test_lookups_refuse_what_the_tuple_dict_did_not_hold():
    # the tuple dict held exactly the faces; a lookup by code must not find
    # a repeated vertex, a vertex out of range, a set past the cap or an
    # absent face, although each of these makes a code
    cx = set_nerve(list(range(5)), as_sets([0b011, 0b110, 0b100, 0b001, 0]), 2)
    assert [fs.tolist() for fs in cx.faces] == [
        [[0], [1], [2], [3], [4]], [[0, 1], [0, 3], [1, 2]], []]
    assert_indices_round_trip(cx)
    for vertices in ([1, 1], [0, 0, 1], [0, 5], [-1, 0], [5], [-1], [3, 5], [0, 1, 2, 3],
                     [0, 2], [1, 3], [0, 1, 2], [], [0, 1, 3]):
        assert not has_face(cx, vertices)
    rows = np.array([[0, 1], [1, 1], [0, 5], [-1, 3], [0, 3], [2, 1], [4, 4], [1, 2]])
    assert cx.face_indices(rows).tolist() == [0, -1, -1, -1, 1, -1, -1, 2]
    # a vertex past the count would alias another face's code: (0, 7) has
    # index(0) * 5 + 7 = 7, the code index(1) * 5 + 2 of the face (1, 2)
    assert cx.face_indices(np.array([[0, 7], [0, 6], [0, 8]])).tolist() == [-1, -1, -1]
    assert cx.face_indices(np.zeros((0, 4), dtype=np.int64)).tolist() == []


def shifted_masks(points, shift, spread):
    """Masks over a few points, point k at bit shift + spread * k, so that
    masks span several 64-bit words and sit past a high lowest bit."""
    return [sum(1 << (shift + spread * k) for k in pts) for pts in points]


point_sets = st.lists(st.frozensets(st.integers(0, 9), max_size=5), max_size=12)


@settings(max_examples=200, deadline=None)
@given(point_sets, st.sampled_from([0, 5, 100_003]), st.sampled_from([1, 64, 997]),
       st.integers(1, 3), st.sampled_from([1, 2, 7, 1 << 16]))
@example([frozenset({0})] * 4, 100_003, 1, 3, 1)  # repeated masks
@example([frozenset(), frozenset({1}), frozenset(), frozenset({1, 2})], 0, 64, 2, 1)
def test_array_kernel_matches_the_recursive_kernel_on_nerves(points, shift, spread, cap, block):
    masks = shifted_masks(points, shift, spread)
    masks += masks[:2]  # equal masks meet, unless empty
    sets = as_sets(masks)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "_BLOCK", block)
        cx = clique_complex(range(len(masks)), set_adjacency(sets), cap, sets, what="nerve")
        bare = clique_complex(range(len(masks)), set_adjacency(sets), cap, sets, what="nerve",
                              facet_tables=False)
    assert_same_rows(cx, recursive_clique_faces(pairwise_adjacency(masks), cap, masks))
    assert_indices_round_trip(cx)
    assert_kernel_facets(cx)
    assert_kernel_facets(cx, bare)  # the same faces, and the lookup path's tables


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
           st.just(n), st.sets(st.tuples(st.integers(0, max(n - 1, 0)),
                                         st.integers(0, max(n - 1, 0)))))),
       st.integers(1, 3), st.sampled_from([1, 3, 1 << 16]))
def test_array_kernel_matches_the_recursive_kernel_on_cliques(graph, cap, block):
    # no masks: every clique of the graph is a face, as in a Rips complex
    n, pairs = graph
    adj = [0] * n
    for a, b in pairs:
        if a != b:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "_BLOCK", block)
        cx = clique_complex(range(n), upper_rows(adj), cap, what="rips complex")
        bare = clique_complex(range(n), upper_rows(adj), cap, what="rips complex",
                              facet_tables=False)
    assert_same_rows(cx, recursive_clique_faces(adj, cap))
    assert_kernel_facets(cx)
    assert_kernel_facets(cx, bare)


LADDER_GROUP = GroupSpec.free_product(
    GroupSpec.free_abelian(2, names=("x", "y")), GroupSpec.free(1, names=("t",))
)


def whole_cover_masks(rg, lmax):
    """The column masks of the stage-0 whole family of Z^2*Z rel Z^2, every
    peripheral coset given a horoball."""
    space = build_augmented(LADDER_GROUP, (0,), Truncation(rg=rg, lmax=lmax))
    return as_masks(decompose(space, 0, PAPER_SCHEDULE).whole.sets())


@pytest.mark.parametrize("rg, lmax", [(1, 4), (2, 4), (2, 5), (3, 4)])
def test_array_kernel_matches_the_recursive_kernel_on_ladder_nerves(rg, lmax):
    # the whole-cover nerves of the benchmark's nerve ladder; rg 3 has
    # 218,686 triangles, several numpy blocks
    masks = whole_cover_masks(rg, lmax)
    cx = set_nerve(range(len(masks)), as_sets(masks), 2)
    assert_same_rows(cx, recursive_clique_faces(pairwise_adjacency(masks), 2, masks))
    if rg == 3:
        assert [cx.n_faces(p) for p in range(3)] == [715, 13_414, 218_686]
        assert_kernel_facets(cx, complexes.SimplicialComplex(cx.labels, cx.faces, cx.cap))


def test_array_kernel_matches_the_recursive_kernel_at_cap_3(monkeypatch):
    # rg 3 at cap 3 is over the default face budget; raised, its tetrahedra
    # fill dozens of blocks, the common masks carried from the triangles
    masks = whole_cover_masks(3, 4)
    monkeypatch.setenv(BUDGET_ENV_VAR, "400000")
    cx = set_nerve(range(len(masks)), as_sets(masks), 3)
    assert_same_rows(cx, recursive_clique_faces(pairwise_adjacency(masks), 3, masks))
    assert sum(map(len, cx.faces)) > 10 * 200_000


def test_face_budget_refuses_within_one_block_of_the_limit():
    # the refusal comes on the block that passes the limit, before it is
    # stored: the count it names is at most one block past the limit
    masks = whole_cover_masks(3, 4)
    limit = complexes.FACES_PER_VERTEX * 200_000
    with pytest.raises(BudgetExceededError) as exc:
        set_nerve(range(len(masks)), as_sets(masks), 3)
    count = int(str(exc.value).split("at least ")[1].split()[0])
    assert limit < count <= limit + complexes._BLOCK
