"""The clique kernel against brute-force subset enumeration, and face budgets."""

import gc
from contextlib import contextmanager
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from horokit import complexes
from horokit.complexes import SimplicialMap, mask_adjacency, mask_nerve
from horokit.covers import build_cover, nerve
from horokit.errors import BUDGET_ENV_VAR, BudgetExceededError, NotSimplicialError
from horokit.graphs import MetricGraph, Vertex
from horokit.groups import GroupSpec
from horokit.rips import rips
from horokit.spaces import Truncation, build_augmented


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
        cx = mask_nerve(list(range(len(masks))), masks, cap)
    assert cx.faces == by_size
    with face_budget(kept - 1), pytest.raises(
        BudgetExceededError, match=f"nerve has at least {kept} faces"
    ):
        mask_nerve(list(range(len(masks))), masks, cap)
    for p, fs in enumerate(cx.faces):
        for i, f in enumerate(fs):
            assert cx.face_index(p)[f] == i
    # the face lists decide every vertex set of up to cap+1 vertices
    for k in range(2, cap + 2):
        for s in combinations(range(len(masks)), k):
            assert cx.has_face(s) == meet(masks, s)


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
    assert mask_adjacency(masks) == pairwise_adjacency(masks)
    assert mask_adjacency(masks + masks) == pairwise_adjacency(masks + masks)


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
    src = mask_nerve(list(range(len(source_masks))), source_masks, cap)
    tgt = mask_nerve(list(range(len(target_masks))), target_masks, cap)
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
    g = MetricGraph(vs, [(vs[a], vs[b]) for a, b in pairs if a != b])
    dist = g.distance_matrix()
    cx = rips(g, diameter, cap=cap)

    def small(s):
        return all(0 <= dist[a][b] <= diameter for a, b in combinations(s, 2))

    for k in range(1, cap + 2):
        assert cx.faces[k - 1] == [s for s in combinations(range(n), k) if small(s)]
    for p, fs in enumerate(cx.faces):
        for i, f in enumerate(fs):
            assert cx.face_index(p)[f] == i


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
    g = MetricGraph(vs, [(vs[i], vs[i + 1]) for i in range(4)])
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
    g = MetricGraph(vs, [(vs[i], vs[i + 1]) for i in range(5)])
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            assert nerve(fam, cap=3).n_faces(1) > 0
            assert mask_nerve(list(range(5)), [7, 3, 6, 12, 9], 2).n_faces(2) > 0
            assert rips(g, 2, cap=2).n_faces(2) > 0
        assert gc.collect() == 0
    finally:
        gc.enable()
