"""The dominated-column core of a mask family against its full nerve, and
``set_core`` (containment from point stars) against the pairwise scan.  The
oracles take int masks, which become point lists at the call."""

from functools import reduce
from itertools import combinations
from operator import and_

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

from horokit import complexes, mv, opencone
from horokit.complexes import SimplicialMap, set_core, set_core_nerve, set_nerve
from horokit.covers import PAPER_SCHEDULE, Cover, CoverMap, contiguous_cover_maps, decompose
from horokit.graphs import Vertex
from horokit.groups import GroupSpec
from horokit.homology import AbelianGroup, DegreeCoordinates, homology_type, induced_map
from horokit.instances import SHIPPED, get_instance
from horokit.spaces import Truncation, build_augmented, interior_window
from oracles import as_masks, as_sets
from test_covers import least_failing_face


# the functions under test on int-mask families, converted at the call
def mask_core(masks):
    return set_core(as_sets(masks))


def mask_core_nerve(labels, masks, cap):
    return set_core_nerve(labels, as_sets(masks), cap)


def mask_nerve(labels, masks, cap):
    return set_nerve(labels, as_sets(masks), cap)


RP2_TRIANGLES = [
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
]


def test_core_keeps_the_least_index_among_equal_masks():
    kept, retract = mask_core([0b011, 0b111, 0b111, 0b110, 0b100])
    assert kept == [1]
    assert retract == [1, 1, 1, 1, 1]
    # unrelated masks all stay, each its own retraction
    kept, retract = mask_core([0b01, 0b10, 0b01])
    assert kept == [0, 1] and retract == [0, 1, 0]


def test_core_retracts_to_the_first_container_of_the_scan():
    # column 2 lies in both kept columns; the scan meets the larger one first
    kept, retract = mask_core([0b0011, 0b1110, 0b0010])
    assert kept == [0, 1] and retract == [0, 1, 1]


def test_empty_masks_are_isolated_and_kept():
    kept, retract = mask_core([0, 0b1, 0, 0b11])
    assert kept == [0, 2, 3] and retract == [0, 3, 2, 3]
    cx, r = mask_core_nerve("abcd", [0, 0b1, 0, 0b11], cap=2)
    # the retraction names each label's core vertex by its index
    assert cx.labels == ("a", "c", "d") and r == {"a": 0, "b": 2, "c": 1, "d": 2}
    assert homology_type(cx, 0) == homology_type(mask_nerve("abcd", [0, 1, 0, 3], 2), 0)


masks_families = st.lists(st.integers(0, (1 << 7) - 1), min_size=1, max_size=10)


def scan_core(masks):
    """Oracle for ``set_core``: the pairwise scan.  Columns by decreasing
    popcount, ties by index; each nonempty one is tested against every
    column kept so far, in scan order, and retracts to the first that
    contains it, or is kept."""
    order = sorted(range(len(masks)), key=lambda i: (-masks[i].bit_count(), i))
    scanned = []
    retract = list(range(len(masks)))
    for i in order:
        m = masks[i]
        for k in scanned if m else ():
            if m & masks[k] == m:
                retract[i] = k
                break
        else:
            scanned.append(i)
    return sorted(scanned), retract


@st.composite
def related_masks(draw):
    """Mask families with empty, equal and nested masks, all shifted by one
    offset, which may put every bit past 100,000."""
    masks = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["fresh", "empty", "equal", "subset", "superset"]))
        bits = draw(st.integers(0, (1 << 9) - 1))
        if kind == "empty":
            masks.append(0)
        elif kind == "fresh" or not masks:
            masks.append(bits)
        else:
            prev = draw(st.sampled_from(masks))
            masks.append({"equal": prev, "subset": prev & bits, "superset": prev | bits}[kind])
    shift = draw(st.sampled_from([0, 5, 100_003]))
    return [m << shift for m in masks]


@settings(max_examples=400, deadline=None)
@given(related_masks())
def test_core_from_point_stars_equals_the_scan(masks):
    assert mask_core(masks) == scan_core(masks)


def test_points_past_100000_go_through_the_nerve_core_and_contiguity():
    # a hollow square of columns and a coned copy, on points past 100,000,
    # two in one 64-bit word, the rest words apart; then one column away
    # from the square's points
    at = [100_000, 100_002, 100_064, 100_130, 101_000]
    pts = ([0, 1], [1, 2], [2, 3], [3, 0], [0, 1, 2, 3], [4])
    masks = [sum(1 << at[k] for k in ks) for ks in pts]
    assert as_sets(masks).points.tolist() == [at[k] for ks in pts for k in sorted(ks)]
    labels = list(range(len(masks)))
    cx = mask_nerve(labels, masks, 3)
    for k in range(1, 5):
        assert cx.faces[k - 1].tolist() == [
            list(s) for s in combinations(labels, k)
            if k == 1 or reduce(and_, [masks[v] for v in s])]
    assert mask_core(masks) == scan_core(masks) == ([4, 5], [4, 4, 4, 4, 4, 5])
    _check_core(labels, masks, 2)
    src = Cover(None, 1, [Vertex(i, 0, 0) for i in labels[:4]], as_sets(masks[:4])).whole()
    tgt = Cover(None, 1, [Vertex(i, 1, 1) for i in labels], as_sets(masks)).whole()
    for cone, ok in ((4, True), (5, False)):
        f = CoverMap(src, tgt, lambda v: Vertex(v.element, 1, 1))
        g = CoverMap(src, tgt, lambda v, c=cone: Vertex(c, 1, 1))
        least = least_failing_face(masks[:4], masks, [0, 1, 2, 3], [cone] * 4, 2)
        assert (least is None) == ok
        assert contiguous_cover_maps(f, g, 2) == (
            (True, None) if ok else (False, tuple(Vertex(v, 0, 0) for v in least)))


def recorded_cores(monkeypatch):
    """The families of every ``set_core`` call, as int masks."""
    families = []
    real = complexes.set_core

    def record(sets):
        families.append(as_masks(sets))
        return real(sets)

    monkeypatch.setattr(complexes, "set_core", record)
    return families


def test_core_equals_the_scan_on_every_program_family(monkeypatch):
    # every family a stage-0 verdict takes a core of, on the shipped instances
    families = recorded_cores(monkeypatch)
    for name in SHIPPED:
        sp = get_instance(name)
        mv.assemble_mv(sp, 0, PAPER_SCHEDULE, cap=2)
        mv.cluster_check(sp, 0, PAPER_SCHEDULE, cap=2)
        mv.y_vanishing_check(sp, 0, PAPER_SCHEDULE)
    assert len(families) > 4 * len(SHIPPED)
    # and the interior-window whole family of Z^2*Z, ball radius 4, every
    # peripheral coset given a horoball
    spec = GroupSpec.free_product(
        GroupSpec.free_abelian(2, names=("x", "y")), GroupSpec.free(1, names=("t",))
    )
    sp = build_augmented(spec, (0,), Truncation(rg=4, lmax=4, mmax=None), name="rg4-all")
    window = interior_window(sp, PAPER_SCHEDULE.scale(0))
    whole = decompose(sp, 0, PAPER_SCHEDULE).whole.restrict_to_centers(window, "whole|win")
    assert len(whole) == 785
    families.append(as_masks(whole.sets()))
    for masks in families:
        assert mask_core(masks) == scan_core(masks)


def recorded_maps(monkeypatch, module):
    """The ``SimplicialMap``s that one module builds, as built."""
    built = []

    class Recorded(SimplicialMap):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(module, "SimplicialMap", Recorded)
    return built


def test_every_map_onto_a_core_is_simplicial(monkeypatch):
    # the program builds the MV inclusions and the tower piece maps unchecked
    maps = recorded_maps(monkeypatch, mv)
    for name in SHIPPED:
        sp = get_instance(name)
        stage = mv.assemble_mv(sp, 0, PAPER_SCHEDULE, cap=2)
        assert all(m in maps for m in stage.inclusions.values())
        mv.y_vanishing_check(sp, 0, PAPER_SCHEDULE)
    assert len(maps) == 4 * len(SHIPPED)
    # no source piece of a shipped instance has reduced homology, so no tower
    # piece map is built there; a hollow square of columns, sent by center
    # identity onto a square and onto a coned square, builds two
    centers = [Vertex(w, 1, 1) for w in "abcd"]
    square = [0b0011, 0b0110, 0b1100, 0b1001]
    src = Cover(None, 1, centers, as_sets(square)).whole()
    for masks in (square, [m | 0b10000 for m in square]):
        tgt = Cover(None, 1, centers, as_sets(masks)).whole()
        mv._cluster_vanishing(src, tgt, CoverMap(src, tgt, lambda v: v), 1, max_degree=1)
    assert [m.name for m in maps[4 * len(SHIPPED):]] == ["tower@1", "tower@1"]
    refinements = recorded_maps(monkeypatch, opencone)
    for fixture in ("two_rays", "circle4", "graph6"):
        cone = opencone.cone_fixture(fixture, levels=4)
        nets = [opencone.build_net(cone, level) for level in range(1, cone.levels + 1)]
        opencone.cone_cover_tower(cone, nets, 3)
    assert len(refinements) == 3 * 2
    for smap in maps + refinements:
        smap.verify()


@settings(max_examples=120, deadline=None)
@given(masks_families)
def test_every_column_retracts_into_a_kept_container(masks):
    kept, retract = mask_core(masks)
    assert kept == sorted(set(retract))
    scan = sorted(kept, key=lambda k: (-bin(masks[k]).count("1"), k))
    for i, r in enumerate(retract):
        assert masks[i] | masks[r] == masks[r]
        if masks[i]:
            # no kept column ahead of r in the scan holds column i
            ahead = scan[: scan.index(r)]
            assert all(masks[i] | masks[k] != masks[k] for k in ahead)
        else:
            assert r == i
    # equal masks keep their least index, and no kept mask holds another
    for a, b in combinations(kept, 2):
        if masks[a] and masks[b]:
            assert masks[a] | masks[b] not in (masks[a], masks[b])
    for k in kept:
        assert masks[k] not in masks[:k] or not masks[k]


def _sympy_type(cx, p) -> AbelianGroup:
    """H_p from sympy's Smith normal form of the dense boundaries."""

    def invariants(q):
        rows, cols = cx.n_faces(q - 1), cx.n_faces(q)
        if q > cx.cap or not rows or not cols:
            return []
        mat = Matrix.zeros(rows, cols)
        for j, col in enumerate(cx.boundary_columns(q)):
            for r, v in col.items():
                mat[r, j] = v
        d = smith_normal_form(mat, domain=ZZ)
        return [abs(int(d[i, i])) for i in range(min(rows, cols)) if d[i, i] != 0]

    rank_dp = len(invariants(p)) if p else 0
    d_next = invariants(p + 1)
    return AbelianGroup(
        cx.n_faces(p) - rank_dp - len(d_next), tuple(d for d in d_next if d > 1)
    )


def _check_core(labels, masks, cap):
    """The core's H_p against the full nerve's, p < cap, through r and j."""
    full = mask_nerve(labels, masks, cap)
    core, retract = mask_core_nerve(labels, masks, cap)
    fpos = {c: i for i, c in enumerate(full.labels)}
    r = SimplicialMap(full, core, [retract[c] for c in full.labels])
    j = SimplicialMap(core, full, [fpos[c] for c in core.labels])
    for p in range(cap):
        group = homology_type(full, p)
        assert homology_type(core, p) == group, (p, masks, cap)
        # j_* r_* is the identity on the full nerve's H_p (j r is contiguous
        # to the identity through (p+1)-faces, which the cap keeps)
        coords = DegreeCoordinates(full, p)
        j_r = SimplicialMap(full, full, [j.vertex_images[v] for v in r.vertex_images])
        jr = induced_map(j_r, p, coords, coords)
        diff = jr.matrix - np.eye(group.dim, dtype=object)
        assert all(v % e == 0 if e else v == 0 for row, e in zip(diff, group.orders) for v in row)
    return full, core


@settings(max_examples=150, deadline=None)
@given(masks_families, st.integers(1, 4))
def test_core_types_equal_the_full_nerve_below_the_cap(masks, cap):
    full, core = _check_core(list(range(len(masks))), masks, cap)
    if sum(map(len, full.faces)) <= 60:
        for p in range(cap):
            assert homology_type(core, p) == _sympy_type(full, p)


def _facet_masks(facets, extra=()):
    """Columns = vertices (then the given extra vertex sets), each with the
    mask of the facets that contain it: the nerve is the complex itself."""
    vertices = sorted({v for f in facets for v in f})
    sets = [(v,) for v in vertices] + list(extra)
    masks = [sum(1 << k for k, f in enumerate(facets) if set(s) <= set(f)) for s in sets]
    return sets, masks


@pytest.mark.parametrize("cap", [2, 3])
def test_rp2_as_a_mask_family(cap):
    # the edges are dominated columns: each lies in its end vertices' masks
    edges = sorted({e for t in RP2_TRIANGLES for e in combinations(t, 2)})
    labels, masks = _facet_masks(RP2_TRIANGLES, edges)
    full, core = _check_core(labels, masks, cap)
    assert core.labels == tuple((v,) for v in range(6))
    assert homology_type(core, 1) == AbelianGroup(0, (2,))


def test_suspended_rp2_as_a_mask_family():
    tetrahedra = [t + (a,) for t in RP2_TRIANGLES for a in (6, 7)]
    triangles = sorted({s for t in tetrahedra for s in combinations(t, 3)})
    labels, masks = _facet_masks(tetrahedra, triangles)
    full, core = _check_core(labels, masks, 3)
    assert len(core.labels) == 8
    assert homology_type(core, 1) == AbelianGroup(0)
    assert homology_type(core, 2) == AbelianGroup(0, (2,))
    assert homology_type(core, 2) == _sympy_type(core, 2)
