import json

import numpy as np
import pytest

from horokit import covers, homology, mv, snf
from horokit.cli import run
from horokit.covers import PAPER_SCHEDULE, Schedule, build_cover, connecting_map
from horokit.errors import BudgetExceededError, EmptyWindowError, ScheduleMismatchError
from horokit.graphs import Vertex
from horokit.groups import GroupSpec
from horokit.homology import AbelianGroup
from horokit.instances import SHIPPED, get_instance
from horokit.mv import (
    assemble_mv,
    check_mv_exactness,
    cluster_check,
    milnor_counterexample_demo,
    y_vanishing_check,
)
from horokit.spaces import Truncation, build_augmented

Z = AbelianGroup(1)


def test_assemble_window_error_on_tiny_instance():
    z = GroupSpec.free_abelian(1, names=("x",))
    sp = build_augmented(z, (0,), Truncation(rg=1, lmax=2, mmax=1))
    with pytest.raises(EmptyWindowError):
        assemble_mv(sp, 0, PAPER_SCHEDULE, cap=2)


def test_assemble_window_error_at_stage_one():
    # the scale-3 margin empties the window on every shipped truncation
    with pytest.raises(EmptyWindowError):
        assemble_mv(get_instance("z_horoball"), 1, PAPER_SCHEDULE, cap=2)


def test_empty_window_is_refused_before_the_cover(monkeypatch):
    built = []
    real = covers.build_cover
    monkeypatch.setattr(covers, "build_cover", lambda *a, **k: built.append(a) or real(*a, **k))
    z = GroupSpec.free_abelian(1, names=("x",))
    sp = build_augmented(z, (0,), Truncation(rg=3, lmax=5, mmax=1))
    with pytest.raises(EmptyWindowError):
        assemble_mv(sp, 1, PAPER_SCHEDULE, cap=2)
    assert built == []
    # a schedule whose slice is not above its scale is refused first
    flat = Schedule("flat", lambda n: 3, lambda n: 3)
    with pytest.raises(ScheduleMismatchError):
        assemble_mv(sp, 1, flat, cap=2)
    assert built == []
    assemble_mv(sp, 0, PAPER_SCHEDULE, cap=2)
    assert len(built) == 1


def test_y_vanishing_stage_one_needs_depth():
    with pytest.raises(EmptyWindowError):
        y_vanishing_check(get_instance("z_horoball"), 1, PAPER_SCHEDULE)


def _unwindowed_stage(sp, cap=2):
    """Stage 0 on the four families of the whole cover, not cut to the
    interior window."""
    from horokit.covers import decompose
    from horokit.mv import _core_stage

    dec = decompose(sp, 0, PAPER_SCHEDULE)
    fams = {k: getattr(dec, k) for k in ("whole", "thick", "cusp", "interface")}
    return fams, _core_stage(fams, cap, 0, len(sp.graph))


def test_mv_degenerate_without_horoballs():
    # no cusp side: the sequence degenerates to thick == whole (with every
    # vertical neighbor clipped, the interior window is empty, so unwindowed)
    f2 = GroupSpec.free(2)
    sp = build_augmented(f2, (0,), Truncation(rg=2, lmax=0, mmax=0))
    fams, stage = _unwindowed_stage(sp)
    assert len(fams["cusp"]) == 0
    v = check_mv_exactness(stage)
    assert v.all_exact
    for p in (0, 1):
        assert (
            stage.coords[("thick", p)].group == stage.coords[("whole", p)].group
        )


@pytest.mark.parametrize("name", ["z_horoball", "z2_free_z", "z2_free_z_deep"])
def test_mv_stage0_exact_on_shipped_instances(name):
    sp = get_instance(name)
    stage = assemble_mv(sp, 0, PAPER_SCHEDULE, cap=2)
    v = check_mv_exactness(stage)
    assert v.composites_agree
    for p, entry in v.degrees.items():
        assert entry["middle"], (name, p, entry)
        if "whole_slot" in entry:
            assert entry["whole_slot"], (name, p)
        if "interface_slot" in entry:
            assert entry["interface_slot"], (name, p)


def test_mv_refuses_a_wide_kernel_before_any_induced_map(monkeypatch, tmp_path):
    # the widths are those of the kernel lattices the verdict takes, in turn,
    # here, on a square cut into two arcs, whose whole slot takes one, and on
    # four copies of the six-vertex projective plane, whose H_1 = Z/2 adds a
    # relation column to the slots with H_1 as target
    circle = _synthetic_stage(
        whole_faces=[(0, 1), (1, 2), (2, 3), (0, 3)],
        thick_faces=[(0, 1), (1, 2)],
        cusp_faces=[(2, 3), (0, 3)],
        iface_faces=[(0,), (2,)],
    )
    rp2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5), (1, 2, 4), (2, 3, 5),
           (1, 3, 4), (2, 4, 5), (1, 3, 5)]
    plane = _synthetic_stage(rp2, rp2, rp2, rp2, cap=3)
    assert plane.coords[("whole", 1)].group == AbelianGroup(0, (2,))
    stage = assemble_mv(get_instance("z2_free_z"), 0, PAPER_SCHEDULE, cap=2)
    kernel_lattice = homology.kernel_lattice
    taken, induced = [], []

    def spy(columns, rows, relations):
        taken.append(len(columns) + len(relations))
        return kernel_lattice(columns, rows, relations)

    for each, widths in ((circle, [2, 0, 1, 2]), (plane, [2, 3, 1, 0, 1, 1, 3]),
                         (stage, [8, 0, 0, 5])):
        taken.clear()
        with monkeypatch.context() as mp:
            mp.setattr(homology, "kernel_lattice", spy)
            check_mv_exactness(each)
        assert taken == list(mv._kernel_widths(each)) == widths
        # below each width: the late refusal's message, before any map
        for cap in sorted({w - 1 for w in widths if w}):
            with monkeypatch.context() as mp:
                mp.setattr(snf, "KERNEL_DENSE_LIMIT", cap)
                mp.setattr(mv, "kernel_budget", lambda width: None)
                with pytest.raises(BudgetExceededError) as late:
                    check_mv_exactness(each)
            with monkeypatch.context() as mp:
                mp.setattr(snf, "KERNEL_DENSE_LIMIT", cap)
                mp.setattr(mv, "induced_map", lambda *args: induced.append(args))
                with pytest.raises(BudgetExceededError) as early:
                    check_mv_exactness(each)
            assert str(early.value) == str(late.value) and not induced
    # and the CLI exits 3 on it
    argv = ["mv-verify", "--instance", "z2_free_z", "--stage", "0", "--out",
            str(tmp_path / "report.json")]
    with monkeypatch.context() as mp:
        mp.setattr(snf, "KERNEL_DENSE_LIMIT", 7)
        mp.setattr(mv, "induced_map", lambda *args: induced.append(args))
        assert run(argv) == 3 and not induced


def test_mv_unwindowed_also_exact_on_small_instance():
    _, stage = _unwindowed_stage(get_instance("z2_free_z_deep"))
    v = check_mv_exactness(stage)
    assert v.all_exact


def test_mv_interface_splits_by_coset():
    sp = get_instance("z2_free_z")
    from horokit.covers import decompose

    dec = decompose(sp, 0, PAPER_SCHEDULE)
    assert len(dec.clusters) == 5


def test_cluster_check_shipped():
    for name in ("z_horoball", "z2_free_z", "z2_free_z_deep"):
        verdict = cluster_check(get_instance(name), 0, PAPER_SCHEDULE, cap=2)
        assert verdict.ok, name


def test_cluster_rank_additivity_two_cosets():
    verdict = cluster_check(get_instance("z2_free_z_deep"), 0, PAPER_SCHEDULE, cap=2)
    whole_rank = verdict.types["whole"]["0"]["rank"]
    parts = sum(t["rank"] for t in verdict.types["clusters"]["0"])
    assert whole_rank == parts


def test_y_vanishing_shipped_instances():
    for name in ("z_horoball", "z2_free_z", "z2_free_z_deep"):
        rep = y_vanishing_check(get_instance(name), 0, PAPER_SCHEDULE)
        assert rep.all_zero, name
        assert all(ok for _, ok, _ in rep.contiguity_chain), name


def recorded_builds(monkeypatch) -> list:
    """Every complex built by the clique kernel from now on."""
    from horokit import complexes

    builds = []
    kernel = complexes.clique_complex

    def counted(*args, **kwargs):
        builds.append(kernel(*args, **kwargs))
        return builds[-1]

    monkeypatch.setattr(complexes, "clique_complex", counted)
    return builds


def test_y_vanishing_builds_each_nerve_once(monkeypatch):
    sp = get_instance("z2_free_z")
    builds = recorded_builds(monkeypatch)
    y_vanishing_check(sp, 0, PAPER_SCHEDULE)
    # each floor pair's contiguity builds the cusp family's nerve cut to the
    # points whose star fails; every star passes, so it holds only vertices
    cusp = tuple(connecting_map(sp, "floor", 0, PAPER_SCHEDULE, s=0).source.centers)
    cut = [cx for cx in builds if cx.labels == cusp]
    assert len(cut) == sp.trunc.lmax
    assert all(sum(map(len, cx.faces)) == len(cusp) for cx in cut)
    # then per horoball the source piece's core nerve and, when its homology
    # is nontrivial in some degree, the target piece's
    cores = [cx.labels for cx in builds if cx.labels != cusp]
    assert len(cores) == 5 and len(set(cores)) == 5


def core_centers(family) -> tuple:
    """The centers of the family's dominated-column core, in family order."""
    from horokit.complexes import set_core

    kept, _ = set_core(family.sets())
    return tuple(family.centers[i] for i in kept)


def test_cluster_check_builds_each_cluster_nerve_once(monkeypatch):
    # one core nerve for the interface's types and one per cluster; the
    # block structure needs no nerve at all
    from horokit.covers import decompose

    builds = recorded_builds(monkeypatch)
    for name in SHIPPED:
        sp = get_instance(name)
        builds.clear()
        cluster_check(sp, 0, PAPER_SCHEDULE, cap=2)
        dec = decompose(sp, 0, PAPER_SCHEDULE)
        clusters = [core_centers(f) for f in dec.clusters.values()]
        assert [cx.labels for cx in builds] == [core_centers(dec.interface), *clusters], name


def test_cluster_vanishing_builds_the_target_nerve_once(monkeypatch):
    # a hollow square of columns and a lone column, all sent to one target
    # column: the source has reduced homology in degrees 0 and 1
    from horokit.covers import CoverMap
    from horokit.mv import _cluster_vanishing
    from oracles import mask_cover

    src = mask_cover([0b0011, 0b0110, 0b1100, 0b1001, 0b10000])
    tgt = mask_cover([1], 1, 1)
    collapse = CoverMap(src.whole(), tgt.whole(), lambda v: tgt.centers[0])
    builds = recorded_builds(monkeypatch)
    entry = _cluster_vanishing(src.whole(), tgt.whole(), collapse, 1, max_degree=2)
    assert [d["source"]["rank"] for d in entry.degrees.values()] == [1, 1, 0]
    assert all(d["zero"] for d in entry.degrees.values())
    assert [cx.labels for cx in builds] == [tuple(src.pos), tuple(tgt.pos)]


def test_y_vanishing_window_error():
    z = GroupSpec.free_abelian(1, names=("x",))
    sp = build_augmented(z, (0,), Truncation(rg=8, lmax=3, mmax=1))
    with pytest.raises(EmptyWindowError):
        y_vanishing_check(sp, 0, PAPER_SCHEDULE)  # needs depth >= 4


def test_y_vanishing_vacuous_when_no_horoballs():
    f2 = GroupSpec.free(2)
    sp = build_augmented(f2, (0,), Truncation(rg=2, lmax=5, mmax=0))
    rep = y_vanishing_check(sp, 0, PAPER_SCHEDULE)
    assert rep.all_zero and rep.clusters == []


def test_vanishing_detects_component_merge():
    # a deliberately disconnected source piece: two level-1 columns too far
    # apart to intersect, merged by the connected coarser target
    from horokit.covers import connecting_map
    from horokit.mv import _cluster_vanishing

    z = GroupSpec.free_abelian(1, names=("x",))
    sp = build_augmented(z, (0,), Truncation(rg=6, lmax=4, mmax=1))
    tower = connecting_map(sp, "floor", 0, PAPER_SCHEDULE, s=0)
    far = {Vertex("xxxxxx", 1, 1), Vertex("XXXXXX", 1, 1)}
    src = tower.source.restrict_to_centers(far, "far-pair")
    tgt = tower.target.by_coset()[1]
    from horokit.covers import nerve as build_nerve

    pair_nerve = build_nerve(src, cap=2)
    assert pair_nerve.n_faces(1) == 0  # genuinely disconnected
    entry = _cluster_vanishing(src, tgt, tower, 1, max_degree=0)
    assert entry.degrees[0]["zero"]
    assert entry.degrees[0]["source"]["rank"] == 1


def test_push_cycles_into_target_coordinates():
    # the degree >= 1 mechanism on a hand fixture: a hollow square pushed
    # into a filled one must bound, i.e. have zero target coordinates
    from horokit.complexes import SimplicialComplex, SimplicialMap
    from horokit.homology import DegreeCoordinates, chain_image

    hollow = SimplicialComplex.from_label_faces([(0, 1), (1, 2), (2, 3), (0, 3)])
    filled = SimplicialComplex.from_label_faces([(0, 1, 2), (0, 2, 3)])
    f = SimplicialMap(hollow, filled, [0, 1, 2, 3])
    gens = DegreeCoordinates(hollow, 1).generator_cycles()
    assert len(gens) == 1  # one independent square cycle
    pushed = chain_image(f.chain_columns(1), gens[0])
    assert pushed and DegreeCoordinates(filled, 1).project(pushed) == ()
    # and a cycle that does not bound is rejected
    ring = SimplicialComplex.from_label_faces([(0, 1), (1, 2), (2, 3), (0, 3)], cap=2)
    ring_coords = DegreeCoordinates(ring, 1)
    assert any(ring_coords.project(ring_coords.generator_cycles()[0]))


def test_vanishing_pushes_degree_one_cycles():
    # a square of four columns (nerve: a hollow square, H_1 = Z) pushed by
    # the identity on centers into a square again (the cycle survives) and
    # into four columns with a common vertex (a full simplex: it bounds)
    from horokit.covers import Cover, CoverMap
    from horokit.mv import _cluster_vanishing
    from oracles import as_sets

    centers = [Vertex(w, 1, 1) for w in ("a", "b", "c", "d")]

    def family(masks, name):
        return Cover(None, 1, centers, as_sets(masks)).whole()

    square = [0b0011, 0b0110, 0b1100, 0b1001]
    src = family(square, "square")
    tower = CoverMap(src, src, lambda v: v)
    for masks, zero in ((square, False), ([m | 0b10000 for m in square], True)):
        entry = _cluster_vanishing(src, family(masks, "target"), tower, 1, max_degree=1)
        assert entry.degrees[1]["source"] == {"rank": 1, "torsion": []}
        assert entry.degrees[1]["zero"] is zero
        assert entry.degrees[1]["how"] == "pushed 1 cycle generators bound in target"


def _identity(cx):
    """The retraction of a nerve that is its own core: {label: its index}."""
    return {c: i for i, c in enumerate(cx.labels)}


def _vertex_map(src, tgt, f=lambda c: c):
    """The nerve map that sends each source center c to f(c), checked
    simplicial; by default the inclusion of a subfamily's nerve."""
    from horokit.complexes import SimplicialMap

    pos = _identity(tgt)
    return SimplicialMap(src, tgt, [pos[f(c)] for c in src.labels])


def _stage_on(nerves, cap):
    """A stage on the given nerves, each its own core, inclusions plain."""
    from horokit.homology import DegreeCoordinates
    from horokit.mv import _MAPS, MVStage

    retractions = {k: _identity(cx) for k, cx in nerves.items()}
    coords = {(k, p): DegreeCoordinates(cx, p) for k, cx in nerves.items() for p in range(cap)}
    inclusions = {(a, b): _vertex_map(nerves[a], nerves[b]) for a, b in _MAPS}
    return MVStage(0, cap, 0, nerves, coords, inclusions, retractions)


def _synthetic_stage(whole_faces, thick_faces, cusp_faces, iface_faces, cap=2):
    from horokit.complexes import SimplicialComplex

    faces = {"whole": whole_faces, "thick": thick_faces, "cusp": cusp_faces,
             "interface": iface_faces}
    return _stage_on(
        {k: SimplicialComplex.from_label_faces(fs, cap=cap) for k, fs in faces.items()}, cap
    )


def test_mv_line_split_into_half_lines():
    # the classic split of a path into two overlapping halves
    stage = _synthetic_stage(
        whole_faces=[(0, 1), (1, 2), (2, 3), (3, 4)],
        thick_faces=[(0, 1), (1, 2)],
        cusp_faces=[(2, 3), (3, 4)],
        iface_faces=[(2,)],
    )
    v = check_mv_exactness(stage)
    assert v.all_exact
    assert v.degrees[0]["middle"] and v.degrees[1]["middle"]


def test_mv_circle_split_has_nontrivial_snake():
    # a square cycle cut into two arcs: the degree-1 class of the whole maps
    # onto the difference of the two interface points
    from horokit.mv import _snake_matrix

    stage = _synthetic_stage(
        whole_faces=[(0, 1), (1, 2), (2, 3), (0, 3)],
        thick_faces=[(0, 1), (1, 2)],
        cusp_faces=[(2, 3), (0, 3)],
        iface_faces=[(0,), (2,)],
    )
    assert stage.coords[("whole", 1)].group == AbelianGroup(1)
    snake = _snake_matrix(stage, 1)
    assert sorted(int(x) for x in snake.matrix.flatten()) == [-1, 1]
    v = check_mv_exactness(stage)
    assert v.all_exact
    assert v.degrees[1]["whole_slot"] and v.degrees[0]["interface_slot"]


def test_composites_disagree_through_a_twisted_inclusion():
    # whole is two points; the interface point goes to the first through
    # thick and, by a twisted cusp -> whole map, to the second through cusp
    from horokit.complexes import SimplicialMap

    stage = _synthetic_stage(
        whole_faces=[(0,), (1,)], thick_faces=[(0,)], cusp_faces=[(0,)], iface_faces=[(0,)]
    )
    nerves = stage.nerves
    stage.inclusions[("cusp", "whole")] = SimplicialMap(nerves["cusp"], nerves["whole"], [1])
    v = check_mv_exactness(stage)
    assert not v.composites_agree and not v.all_exact
    assert not v.degrees[0]["middle_detail"]["image_in_kernel"]
    assert v.degrees[1]["middle_detail"]["image_in_kernel"]


def test_mv_exactness_on_random_window_restrictions():
    # restricting all four families to a common center subset preserves the
    # excision identities, so middle exactness must survive any restriction
    from hypothesis import given, settings, strategies as st

    from horokit.covers import decompose, nerve as build_nerve
    from horokit.homology import (
        DegreeCoordinates,
        concat_maps,
        exactness_check,
        induced_map,
        stack_maps,
    )
    sp = get_instance("z2_free_z_deep")
    dec = decompose(sp, 0, PAPER_SCHEDULE)
    all_centers = list(dec.whole.centers)

    @settings(max_examples=12, deadline=None)
    @given(st.sets(st.integers(0, len(all_centers) - 1), min_size=2, max_size=12))
    def check(idxs):
        window = {all_centers[i] for i in idxs}
        fams = {
            "whole": dec.whole.restrict_to_centers(window, "w"),
            "thick": dec.thick.restrict_to_centers(window, "t"),
            "cusp": dec.cusp.restrict_to_centers(window, "c"),
            "interface": dec.interface.restrict_to_centers(window, "i"),
        }
        nerves = {k: build_nerve(f, cap=2) for k, f in fams.items()}
        coords = {k: DegreeCoordinates(nerves[k], 0) for k in nerves}

        def induced(a, b):
            return induced_map(_vertex_map(nerves[a], nerves[b]), 0, coords[a], coords[b])

        i_map, j_map = induced("interface", "thick"), induced("interface", "cusp")
        k_map, l_map = induced("thick", "whole"), induced("cusp", "whole")
        res = exactness_check(stack_maps(i_map, j_map.negate()), concat_maps(k_map, l_map))
        assert res.exact

    check()


def test_refinement_induced_h0_matches_component_tracking():
    # degree-0 matrix of the refinement map against a component-fate oracle
    from horokit.covers import connecting_map, nerve as build_nerve
    from horokit.homology import DegreeCoordinates, induced_map

    sp = get_instance("z_horoball")
    m = connecting_map(sp, "refine", 0, PAPER_SCHEDULE)
    src_nerve = build_nerve(m.source, cap=2)
    tgt_nerve = build_nerve(m.target, cap=2)
    smap = _vertex_map(src_nerve, tgt_nerve, m.center_map)
    sc = DegreeCoordinates(src_nerve, 0)
    tc = DegreeCoordinates(tgt_nerve, 0)
    mat = induced_map(smap, 0, sc, tc).matrix
    src_comps = src_nerve.components()
    tgt_comps = tgt_nerve.components()
    tpos = {c: i for i, c in enumerate(tgt_nerve.labels)}
    oracle = {}
    for v, c in enumerate(src_nerve.labels):
        oracle[src_comps[v]] = tgt_comps[tpos[m.center_map(c)]]
    for j in range(mat.shape[1]):
        col = [int(x) for x in mat[:, j]]
        assert col.count(1) == 1 and col.count(0) == len(col) - 1
        assert col.index(1) == oracle[j]


def test_cusp_tower_eventual_images_vanish():
    # degree-0 tower of a disconnected cusp piece into its coarser stage:
    # the difference of the two source component classes, which spans the
    # reduced H_0, maps to zero
    from horokit.covers import connecting_map, nerve as build_nerve
    from horokit.homology import DegreeCoordinates, chain_image, induced_map

    z = GroupSpec.free_abelian(1, names=("x",))
    sp = build_augmented(z, (0,), Truncation(rg=6, lmax=4, mmax=1))
    tower_map = connecting_map(sp, "floor", 0, PAPER_SCHEDULE, s=0)
    far = {Vertex("xxxxxx", 1, 1), Vertex("XXXXXX", 1, 1)}
    src = tower_map.source.restrict_to_centers(far, "far-pair")
    tgt = tower_map.target.by_coset()[1]
    src_nerve = build_nerve(src, cap=2)
    tgt_nerve = build_nerve(tgt, cap=2)
    smap = _vertex_map(src_nerve, tgt_nerve, tower_map.center_map)
    sc = DegreeCoordinates(src_nerve, 0)
    tc = DegreeCoordinates(tgt_nerve, 0)
    assert sc.group.rank == 2  # two components upstairs
    assert tc.group.rank == 1  # connected downstairs
    m = induced_map(smap, 0, sc, tc)
    assert m.matrix.tolist() == [[1, 1]]
    first, second = sc.generator_cycles()
    difference = {**first, **{v: -c for v, c in second.items()}}
    assert tc.project(chain_image(smap.chain_columns(0), difference)) == (0,)


def test_milnor_demo_values():
    rep = milnor_counterexample_demo()
    assert all(s["h0"] == {"rank": 2, "torsion": []} for s in rep["stages"])
    assert rep["tower"]["maps_are_identity"] is True
    assert rep["tower"]["inverse_limit"] == {"rank": 2, "torsion": []}
    assert rep["tower"]["lim1"]["kind"] == "zero"
    assert rep["intersection"]["h0"] == {"rank": 0, "torsion": []}
    assert rep["naive_sequence_exact"] is False


def test_milnor_demo_deterministic():
    a = json.dumps(milnor_counterexample_demo(), sort_keys=True)
    b = json.dumps(milnor_counterexample_demo(), sort_keys=True)
    assert a == b


def test_snake_refuses_a_broken_excision_with_a_decomposition_error():
    from horokit.errors import DecompositionError
    from horokit.mv import _snake_matrix

    # the edge (0, 2) joins a thick-only and a cusp-only column
    stage = _synthetic_stage(
        whole_faces=[(0, 1), (1, 2), (0, 2)],
        thick_faces=[(0, 1)],
        cusp_faces=[(1, 2)],
        iface_faces=[(1,)],
    )
    with pytest.raises(DecompositionError, match="neither all-thick nor all-cusp"):
        _snake_matrix(stage, 1)
    # the thick arc ends at column 2, which the interface lacks
    stage = _synthetic_stage(
        whole_faces=[(0, 1), (1, 2), (2, 3), (0, 3)],
        thick_faces=[(0, 1), (1, 2)],
        cusp_faces=[(1, 2), (2, 3), (0, 3)],
        iface_faces=[(0,), (1,)],
    )
    with pytest.raises(DecompositionError, match="leaves the interface"):
        _snake_matrix(stage, 1)


# -- the stage on cores against a full-nerve reference ------------------------


def _full_stage(fams, cap):
    """The stage on the full nerves of the four families, inclusions plain."""
    from horokit.covers import nerve as build_nerve

    return _stage_on({k: build_nerve(f, cap=cap) for k, f in fams.items()}, cap)


def _map_ranks(stage):
    """Rank over Q of each inclusion's and snake's induced map, by degree."""
    import numpy as np
    from sympy import Matrix

    from horokit.homology import induced_map
    from horokit.mv import _snake_matrix

    def rank(m):
        rows = [i for i, d in enumerate(m.target.orders) if d == 0]
        cols = [j for j, d in enumerate(m.source.orders) if d == 0]
        if not rows or not cols:
            return 0
        return Matrix(m.matrix[np.ix_(rows, cols)].tolist()).rank()

    out = {}
    for p in stage.degrees():
        for (a, b), smap in stage.inclusions.items():
            out[(a, b, p)] = rank(
                induced_map(smap, p, stage.coords[(a, p)], stage.coords[(b, p)])
            )
        if p:
            out[("snake", p)] = rank(_snake_matrix(stage, p))
    return out


def _level_split_families(n_points, levels, masks):
    """A cover of points at levels 0 (thick only), 1 (the slice) and 2 (cusp
    only), split as ``decompose`` splits a stage; a column that meets levels
    0 and 2 is given the first slice point, so it lies in the interface."""
    from oracles import mask_cover

    low, mid, high = (
        sum(1 << k for k in range(n_points) if levels[k] == lv) for lv in (0, 1, 2)
    )
    masks = [m | (mid & -mid) if m & low and m & high else m for m in masks]
    cover = mask_cover(masks)
    level = np.array(levels)
    return {
        "whole": cover.whole(),
        "thick": cover.meeting(level <= 1, "thick"),
        "cusp": cover.meeting(level >= 1, "cusp"),
        "interface": cover.meeting(level == 1, "interface"),
    }


def test_stage_on_cores_matches_the_full_nerves_on_random_triples():
    from hypothesis import given, settings, strategies as st

    from horokit.mv import _core_stage

    @st.composite
    def triples(draw):
        # a ring of points: a slice run, a thick run, a slice run, a cusp run;
        # arcs of two points around it (one may be missing) give the whole
        # nerve a cycle through two interface components, so the snake is
        # often nonzero; a few random arcs and masks may fill the cycle in
        runs = [draw(st.integers(lo, lo + 1)) for lo in (1, 2, 1, 2)]
        levels = [lv for lv, r in zip((1, 0, 1, 2), runs) for _ in range(r)]
        n = len(levels)
        gap = draw(st.one_of(st.none(), st.integers(0, n - 1)))
        arcs = [(a, 2) for a in range(n) if a != gap] + draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 3)), max_size=4)
        )
        masks = [sum(1 << (a + k) % n for k in range(length)) for a, length in arcs]
        masks += draw(st.lists(st.integers(1, (1 << n) - 1), max_size=1))
        return n, levels, masks

    @settings(max_examples=60, deadline=None)
    @given(triples(), st.integers(2, 3))
    def check(triple, cap):
        fams = _level_split_families(*triple)
        core, full = _core_stage(fams, cap, 0, 0), _full_stage(fams, cap)
        verdict = check_mv_exactness(core)
        assert verdict.as_dict() == check_mv_exactness(full).as_dict()
        assert verdict.all_exact
        assert _map_ranks(core) == _map_ranks(full)

    check()
