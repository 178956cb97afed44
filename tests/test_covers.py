from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from horokit.covers import (
    LINEAR_SCHEDULE,
    PAPER_SCHEDULE,
    CoverMap,
    build_cover,
    connecting_map,
    contiguous_cover_maps,
    decompose,
    nerve,
)
from horokit.complexes import SimplicialMap
from horokit.errors import ScheduleMismatchError
from horokit.graphs import Vertex
from horokit.groups import GroupSpec
from horokit.instances import SHIPPED, get_instance
from horokit.spaces import Truncation, build_augmented
from oracles import as_masks, mask_cover
from test_spaces import ACROSS_ATOMS


def z_instance(rg=4, lmax=2):
    z = GroupSpec.free_abelian(1, names=("x",))
    return build_augmented(z, (0,), Truncation(rg=rg, lmax=lmax, mmax=1))


def test_schedule_values():
    assert (PAPER_SCHEDULE.scale(0), PAPER_SCHEDULE.slice_level(0)) == (1, 2)
    assert (PAPER_SCHEDULE.scale(1), PAPER_SCHEDULE.slice_level(1)) == (3, 4)
    assert (PAPER_SCHEDULE.scale(2), PAPER_SCHEDULE.slice_level(2)) == (9, 10)
    assert (LINEAR_SCHEDULE.scale(0), LINEAR_SCHEDULE.slice_level(0)) == (1, 2)


def test_column_vertex_sets():
    sp = z_instance(rg=4, lmax=2)
    cover = build_cover(sp, 1)
    mask = as_masks(cover.whole().sets())[cover.pos[Vertex("", 1, 1)]]
    # same coset, distance <= 2^(1+1) = 4, levels 1..2: 9 elements x 2 levels
    assert mask.bit_count() == 18
    g = sp.graph
    members = {g.vertices[i] for i in range(len(g)) if (mask >> i) & 1}
    for v in members:
        assert v.coset == 1 and 1 <= v.level <= 2
        assert sp.spec.word_metric("", v.element) <= 4


def reference_masks(space, scale):
    """Column masks straight off the definition, from ``word_metric``."""
    g, spec = space.graph, space.spec
    dist = {}

    def d(x, y):
        if (x, y) not in dist:
            dist[x, y] = dist[y, x] = spec.word_metric(x, y)
        return dist[x, y]

    masks = []
    for v in g.vertices:
        if v.level == 0:
            lo, hi, reach = 0, scale, 2**scale
        else:
            lo, hi, reach = v.level, v.level + scale, 2 ** (v.level + scale)
        mask = 0
        for i, w in enumerate(g.vertices):
            if (v.level == 0 or w.coset == v.coset) and lo <= w.level <= hi:
                if d(v.element, w.element) <= reach:
                    mask |= 1 << i
        masks.append(mask)
    return masks


Z2_FREE_Z = GroupSpec.free_product(
    GroupSpec.free_abelian(2, names=("x", "y")), GroupSpec.free(1, names=("t",))
)


@pytest.mark.parametrize("name", SHIPPED + ("rg2", *ACROSS_ATOMS))
def test_cover_masks_match_word_metric_reference(name):
    # the cross-atom groups, at lmax 3, meet the Cayley columns' convexity
    # argument (groups.WordBall) on free rank-2, Z^3 and two-abelian-atom balls
    if name == "rg2":
        sp = build_augmented(Z2_FREE_Z, (0,), Truncation(rg=2, lmax=4))
    elif name in ACROSS_ATOMS:
        spec, peripherals, rg = ACROSS_ATOMS[name]
        sp = build_augmented(spec, peripherals, Truncation(rg=rg, lmax=3))
    else:
        sp = get_instance(name)
    for scale in (1, 3):
        cover = build_cover(sp, scale)
        assert list(cover.centers) == list(sp.graph.vertices)
        assert as_masks(cover.whole().sets()) == reference_masks(sp, scale)


@pytest.mark.parametrize("name", SHIPPED + ("rg2",))
def test_meeting_is_every_column_that_holds_a_point_of_the_region(name):
    # a Cayley column's meeting comes from a search seeded at the region, not
    # from its points: compare with the points on sparse to dense regions
    if name == "rg2":
        sp = build_augmented(Z2_FREE_Z, (0,), Truncation(rg=2, lmax=4))
    else:
        sp = get_instance(name)
    rng = np.random.default_rng(0)
    for scale in (1, 3):
        cover = build_cover(sp, scale)
        masks = as_masks(cover.whole().sets())
        for density in (0.005, 0.05, 0.3):
            region = rng.random(len(cover)) < density
            bits = sum(1 << int(i) for i in np.flatnonzero(region))
            held = tuple(i for i, mask in enumerate(masks) if mask & bits)
            assert cover.meeting(region, "region").positions == held


def test_build_and_cover_form_no_word_per_pair(monkeypatch):
    calls = {"word_metric": 0, "normal_form": 0}
    for method in calls:
        real = getattr(GroupSpec, method)

        def counted(self, *args, _real=real, _name=method):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(GroupSpec, method, counted)
    sp = build_augmented(Z2_FREE_Z, (0,), Truncation(rg=2, lmax=4))
    build_cover(sp, 1).whole().sets()
    assert calls["word_metric"] == 0
    assert 0 < calls["normal_form"] <= len(sp.ball) * len(Z2_FREE_Z.alphabet)


def test_cayley_column_dips_into_horoballs():
    f2 = GroupSpec.free(2)
    sp = build_augmented(f2, (0,), Truncation(rg=3, lmax=0, mmax=0))
    cover = build_cover(sp, 1)
    mask = as_masks(cover.whole().sets())[cover.pos[Vertex("", 0, 0)]]
    assert mask.bit_count() == 17  # ball of radius 2, level 0 only
    sp2 = z_instance(rg=4, lmax=2)
    cover2 = build_cover(sp2, 1)
    mask2 = as_masks(cover2.whole().sets())[cover2.pos[Vertex("", 0, 0)]]
    # |y| <= 2 at levels 0 and 1
    assert mask2.bit_count() == 10


def test_cover_is_covering():
    sp = get_instance("z_horoball")
    cover = build_cover(sp, 1)
    union = 0
    for mask in as_masks(cover.whole().sets()):
        union |= mask
    assert union == (1 << len(sp.graph)) - 1


def test_decompose_identities_and_clusters():
    sp = get_instance("z2_free_z")
    for n in (0, 1):
        dec = decompose(sp, n, PAPER_SCHEDULE)
        whole = set(dec.whole.positions)
        thick = set(dec.thick.positions)
        cusp = set(dec.cusp.positions)
        interface = set(dec.interface.positions)
        assert thick | cusp == whole
        assert thick & cusp == interface
        pieces = [set(f.positions) for f in dec.clusters.values()]
        assert set().union(*pieces) == interface
        for a, b in combinations(pieces, 2):
            assert not (a & b)


def test_decompose_schedule_guard():
    sp = z_instance()
    from horokit.covers import Schedule

    bad = Schedule("bad", lambda n: 2, lambda n: 2)
    with pytest.raises(ScheduleMismatchError):
        decompose(sp, 0, bad)


def test_refinement_preserves_sides():
    sp = get_instance("z2_free_z")
    d0 = decompose(sp, 0, PAPER_SCHEDULE)
    d1 = decompose(sp, 1, PAPER_SCHEDULE)
    c0 = build_cover(sp, PAPER_SCHEDULE.scale(0))
    c1 = build_cover(sp, PAPER_SCHEDULE.scale(1))
    thick_next = {c1.centers[p] for p in d1.thick.positions}
    cusp_next = {c1.centers[p] for p in d1.cusp.positions}
    for p in d0.thick.positions:
        assert c0.centers[p] in thick_next
    for p in d0.cusp.positions:
        assert c0.centers[p] in cusp_next


def test_nerve_small_line_cover_matches_brute_force():
    sp = z_instance(rg=2, lmax=1)
    cover = build_cover(sp, 1)
    fam = cover.whole()
    cx = nerve(fam, cap=3)
    masks = as_masks(fam.sets())
    for k in range(1, 5):
        expected = set()
        for sub in combinations(range(len(masks)), k):
            common = -1
            for i in sub:
                common &= masks[i]
            if common:
                expected.add(tuple(sub))
        assert set(map(tuple, cx.faces[k - 1].tolist())) == expected


def test_nerve_disjoint_columns():
    sp = z_instance(rg=4, lmax=1)
    cover = build_cover(sp, 1)
    fam = cover.family("pair", [cover.pos[Vertex("xxxx", 0, 0)], cover.pos[Vertex("XXXX", 0, 0)]])
    cx = nerve(fam, cap=2)
    assert cx.n_faces(0) == 2 and cx.n_faces(1) == 0


def test_nerve_single_column():
    sp = z_instance(rg=2, lmax=1)
    cover = build_cover(sp, 1)
    fam = cover.family("one", [0])
    cx = nerve(fam, cap=2)
    assert cx.n_faces(0) == 1 and cx.n_faces(1) == 0


def test_refine_map_is_columnwise_inclusion():
    sp = z_instance(rg=4, lmax=3)
    m = connecting_map(sp, "refine", 0, PAPER_SCHEDULE)
    small = build_cover(sp, 1)
    big = build_cover(sp, 3)
    big_masks = as_masks(big.whole().sets())
    for c, mask in zip(small.centers, as_masks(small.whole().sets())):
        assert mask & ~big_masks[big.pos[c]] == 0
    assert_simplicial(m, cap=2)


def assert_simplicial(m, cap):
    """The cover map is simplicial on the nerves up to the cap (the map
    check raises ``NotSimplicialError`` otherwise)."""
    src, tgt = nerve(m.source, cap=cap), nerve(m.target, cap=cap)
    pos = {c: i for i, c in enumerate(tgt.labels)}
    SimplicialMap(src, tgt, [pos[m.center_map(c)] for c in src.labels])


def test_floor_zero_is_plain_refinement():
    sp = get_instance("z_horoball")
    q0 = connecting_map(sp, "floor", 0, PAPER_SCHEDULE, s=0)
    for c in q0.source.centers:
        assert q0.center_map(c) == c


def test_floor_beyond_depth_rejected():
    sp = get_instance("z_horoball")
    with pytest.raises(ValueError):
        connecting_map(sp, "floor", 0, PAPER_SCHEDULE, s=sp.trunc.lmax + 1)


def test_connecting_maps_simplicial_and_contiguous():
    sp = get_instance("z_horoball")
    beta = connecting_map(sp, "collar", 0, PAPER_SCHEDULE)
    alpha1 = connecting_map(sp, "inclusion", 1, PAPER_SCHEDULE)
    gamma = connecting_map(sp, "stage-refine", 0, PAPER_SCHEDULE)
    for m in (beta, alpha1, gamma):
        assert_simplicial(m, cap=3)
    # alpha1 after beta, composed on centers
    composite = CoverMap(beta.source, alpha1.target,
                         lambda v: alpha1.center_map(beta.center_map(v)))
    ok, _ = contiguous_cover_maps(composite, gamma, 3)
    assert ok


def test_image_positions_name_a_missing_center():
    sp = get_instance("z_horoball")
    f = connecting_map(sp, "floor", 0, PAPER_SCHEDULE, s=0)
    assert f.image_positions() == [
        f.target.centers.index(f.center_map(v)) for v in f.source.centers
    ]
    nowhere = Vertex("nowhere", 0, 0)
    with pytest.raises(KeyError, match="no column centered at"):
        CoverMap(f.source, f.target, lambda v: nowhere).image_positions()
    outside = next(c for p, c in enumerate(f.target.cover.centers)
                   if p not in f.target.positions)
    with pytest.raises(KeyError, match=r"not in family 'cusp\[1\]'"):
        CoverMap(f.source, f.target, lambda v: outside).image_positions()


def test_refinement_composition_contiguity():
    # the two-step refinement agrees with the direct one on centers, hence
    # is trivially contiguous to it
    sp = get_instance("z_horoball")
    r01 = connecting_map(sp, "refine", 0, PAPER_SCHEDULE)
    r12 = connecting_map(sp, "refine", 1, PAPER_SCHEDULE)
    comp = CoverMap(r01.source, r12.target, lambda v: r12.center_map(r01.center_map(v)))
    direct = CoverMap(r01.source, r12.target, lambda v: v)
    assert_simplicial(direct, cap=2)
    assert [comp.center_map(c) for c in comp.source.centers] == [
        direct.center_map(c) for c in comp.source.centers
    ]
    ok, _ = contiguous_cover_maps(comp, direct, 2)
    assert ok


def test_floor_chain_contiguity_all_instances():
    for name in ("z_horoball", "z2_free_z_deep"):
        sp = get_instance(name)
        for s in range(sp.trunc.lmax):
            f = connecting_map(sp, "floor", 0, PAPER_SCHEDULE, s=s)
            g = connecting_map(sp, "floor", 0, PAPER_SCHEDULE, s=s + 1)
            ok, wit = contiguous_cover_maps(f, g, 3)
            assert ok, (name, s, wit)


def test_interface_columns_meet_slice_exactly():
    # membership oracle: a column is in the interface family iff its vertex
    # set contains a slice-level vertex of its horoball
    sp = z_instance(rg=4, lmax=3)
    dec = decompose(sp, 0, PAPER_SCHEDULE)
    g = sp.graph
    cover = dec.interface.cover
    slice_ids = {i for i, v in enumerate(g.vertices) if v.level == dec.slice_level}
    expected = {
        p
        for p, mask in enumerate(as_masks(cover.whole().sets()))
        if any((mask >> i) & 1 for i in slice_ids)
    }
    assert set(dec.interface.positions) == expected


def test_floor_maps_contiguous_as_simplicial_maps():
    # the mask check on the real floor maps agrees with the brute-force
    # search for a source face whose images fail to meet, at every floor
    sp = get_instance("z2_free_z_deep")
    for s in range(sp.trunc.lmax):
        f = connecting_map(sp, "floor", 0, PAPER_SCHEDULE, s=s)
        g = connecting_map(sp, "floor", 0, PAPER_SCHEDULE, s=s + 1)
        source_masks = as_masks(f.source.sets())
        target_masks = as_masks(f.target.sets())
        least = least_failing_face(
            source_masks, target_masks, f.image_positions(), g.image_positions(), 3
        )
        verdict = contiguous_cover_maps(f, g, 3)
        if least is None:
            assert verdict == (True, None)
        else:
            assert verdict == (False, tuple(f.source.centers[v] for v in least))
        assert verdict[0], (s, verdict)


def synthetic_maps(source_masks, target_masks, f_images, g_images):
    """Two cover maps from one family of source columns to one family of
    target columns, given by the target position of each source column."""
    source, target = mask_cover(source_masks).whole(), mask_cover(target_masks, 1, 1).whole()

    def cover_map(images):
        return CoverMap(source, target, lambda v: target.centers[images[v.element]])

    return cover_map(f_images), cover_map(g_images)


def least_failing_face(source_masks, target_masks, f_images, g_images, cap):
    """The first failing source face in lexicographic order, by brute force
    over ``itertools.combinations``."""
    def meets(masks):
        common = -1
        for m in masks:
            common &= m
        return common != 0

    failing = [
        s
        for k in range(1, cap + 2)
        for s in combinations(range(len(source_masks)), k)
        if (k == 1 or meets(source_masks[v] for v in s))
        and not meets(target_masks[i[v]] for v in s for i in (f_images, g_images))
    ]
    return min(failing, default=None)


@st.composite
def synthetic_cases(draw):
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 5))
    images = st.lists(st.integers(0, m - 1), min_size=n, max_size=n)
    return (
        draw(st.lists(st.integers(0, 31), min_size=n, max_size=n)),
        draw(st.lists(st.integers(0, 15), min_size=m, max_size=m)),
        draw(images),
        draw(images),
    )


# vertices 0 and 1 pass alone, the edge {0, 1} fails, and so does the later
# vertex 2: the edge comes first in lexicographic order
EDGE_BEFORE_VERTEX = ([1, 1, 1], [0b01, 0b10], [0, 1, 0], [0, 1, 1])
# column 1 has an empty mask, so no point's star holds it; it fails alone
EMPTY_COLUMN_FAILS = ([1, 0], [0b01, 0b10], [0, 0], [0, 1])


@settings(max_examples=200, deadline=None)
@given(synthetic_cases(), st.integers(1, 4))
@example(EDGE_BEFORE_VERTEX, 1)
@example(EDGE_BEFORE_VERTEX, 2)
@example(EDGE_BEFORE_VERTEX, 3)
@example(EMPTY_COLUMN_FAILS, 1)
def test_contiguity_reports_the_least_failing_face(case, cap):
    # the point-star verdict is the brute-force least failing face at caps 1
    # to 4, also when a source mask is empty (a column in no point's star)
    least = least_failing_face(*case, cap)
    f, g = synthetic_maps(*case)
    ok, witness = contiguous_cover_maps(f, g, cap)
    if least is None:
        assert (ok, witness) == (True, None)
    else:
        assert (ok, witness) == (False, tuple(f.source.centers[v] for v in least))
