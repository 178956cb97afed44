"""End-to-end acceptance suite: one test per criterion, exact tolerances.

Each test prints a single PASS line on success (run with -s to see them);
pytest's own failure output serves as the FAIL line.
"""

import json
import pathlib
from itertools import combinations

import pytest

from horokit.covers import (
    PAPER_SCHEDULE,
    CoverMap,
    connecting_map,
    contiguous_cover_maps,
    decompose,
)
from horokit.graphs import MetricGraph, Vertex, omega_excisive_check
from horokit.groups import GroupSpec
from horokit.hyperbolicity import four_point_delta
from horokit.instances import SHIPPED, get_instance
from horokit.mv import assemble_mv, check_mv_exactness, milnor_counterexample_demo, y_vanishing_check
from horokit.opencone import adversarial_net, band_cover_check, build_net, cone_fixture
from horokit.rips import remark_decomposition_check
from horokit.spaces import Truncation, build_augmented, build_horoball, interval_points
from oracles import build_vertex_space

GOLDENS = pathlib.Path(__file__).parent / "goldens"
ABS = lambda p, q: abs(p - q)


def test_criterion_1_horoball_construction_fidelity():
    pts = interval_points(-8, 8)
    g = build_horoball(pts, ABS, (0, 3), lmax=3)
    # brute-force edge oracle straight off the defining predicate
    index = {v: i for i, v in enumerate(g.vertices)}
    vid = lambda p, l: index[Vertex(p, l, 0 if l == 0 else 1)]
    expected = set()
    for l in range(4):
        for p in pts:
            for q in pts:
                if p < q and 0 < abs(p - q) <= 2**l:
                    expected.add(tuple(sorted((vid(p, l), vid(q, l)))))
    for l in range(3):
        for p in pts:
            expected.add(tuple(sorted((vid(p, l), vid(p, l + 1)))))
    assert g.edges.tolist() == sorted(map(list, expected))
    assert g.distance(Vertex(0, 0, 0), Vertex(8, 0, 0)) == 6
    print("criterion 1: PASS — horoball edge set exact, cusp distance 6")


def test_criterion_2_hyperbolicity_witnesses():
    f2 = GroupSpec.free(2)
    for radius in (2, 4, 6):
        ball = build_augmented(f2, (0,), Truncation(rg=radius, lmax=0, mmax=0))
        est = four_point_delta(ball.graph)
        assert est.delta == 0.0, (radius, est)
    c4 = MetricGraph(
        [Vertex(i, 0, 0) for i in range(4)],
        [(i, (i + 1) % 4) for i in range(4)],
    )
    assert four_point_delta(c4).delta == 1.0
    deltas = {}
    for lmax in (4, 5):
        hb = build_horoball(interval_points(-8, 8), ABS, (0, lmax), lmax=lmax)
        deltas[lmax] = four_point_delta(hb).delta
    assert deltas[4] == deltas[5] == 1.5
    print(
        "criterion 2: PASS — trees delta 0 through radius 6, cycle delta 1,"
        f" horoball delta {deltas[4]} stable across depths 4 and 5"
    )


def test_criterion_3_cover_decomposition_identities():
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
    assert (PAPER_SCHEDULE.scale(0), PAPER_SCHEDULE.slice_level(0)) == (1, 2)
    print("criterion 3: PASS — decomposition identities exact at stages 0 and 1")


def test_criterion_4_contiguity_assertions():
    for name in SHIPPED:
        sp = get_instance(name)
        beta = connecting_map(sp, "collar", 0, PAPER_SCHEDULE)
        alpha_next = connecting_map(sp, "inclusion", 1, PAPER_SCHEDULE)
        gamma = connecting_map(sp, "stage-refine", 0, PAPER_SCHEDULE)
        # alpha_next after beta, composed on centers
        composite = CoverMap(beta.source, alpha_next.target,
                             lambda v: alpha_next.center_map(beta.center_map(v)))
        ok, wit = contiguous_cover_maps(composite, gamma, 3)
        assert ok, (name, wit)
        for s in range(sp.trunc.lmax):
            f = connecting_map(sp, "floor", 0, PAPER_SCHEDULE, s=s)
            g = connecting_map(sp, "floor", 0, PAPER_SCHEDULE, s=s + 1)
            ok, wit = contiguous_cover_maps(f, g, 3)
            assert ok, (name, s, wit)
    print("criterion 4: PASS — stage and floor maps contiguous on all instances")


def test_criterion_5_mv_exactness():
    for name in SHIPPED:
        stage = assemble_mv(get_instance(name), 0, PAPER_SCHEDULE, cap=2)
        verdict = check_mv_exactness(stage)
        assert verdict.composites_agree, name
        for p in (0, 1):
            assert verdict.degrees[p]["middle"], (name, p)
    print("criterion 5: PASS — middle-slot exactness in the interior window")


def test_criterion_6_cusp_vanishing():
    for name in SHIPPED:
        rep = y_vanishing_check(get_instance(name), 0, PAPER_SCHEDULE)
        assert rep.all_zero, name
        for cluster in rep.clusters:
            for p in (0, 1, 2):
                assert cluster.degrees[p]["zero"], (name, cluster.coset, p)
    print("criterion 6: PASS — cusp tower maps induce zero through degree 2")


def test_criterion_7_window_decomposition():
    spaces = [
        build_vertex_space(GroupSpec.free_abelian(1, names=("x",)), (0,), rg=3, lmax=6),
        build_vertex_space(GroupSpec.free(2), (0,), rg=2, lmax=6),
        build_vertex_space(
            GroupSpec.free_product(
                GroupSpec.free_abelian(2, names=("x", "y")),
                GroupSpec.free(1, names=("t",)),
            ),
            (0,),
            rg=1,
            lmax=6,
        ),
    ]
    checked = 0
    for g in spaces:
        for d in (1, 2, 3):
            for r in (1, 2):
                for rr in (r + d, r + d + 1):
                    res = remark_decomposition_check(g, d, r, rr, cap=2)
                    assert res.ok, (d, r, rr)
                    checked += 1
    assert checked >= 20
    vs = [Vertex("p", 0, 0), Vertex("q", 2, 1)]
    bad = MetricGraph(vs, [(0, 1)])
    res = remark_decomposition_check(bad, 1, 1, 1, cap=2)
    assert not res.ok and res.witnesses
    print(f"criterion 7: PASS — {checked} window triples hold, violation caught")


def test_criterion_8_milnor_golden():
    report = milnor_counterexample_demo()
    rendered = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert rendered.encode() == (GOLDENS / "milnor_demo.json").read_bytes()
    assert report["tower"]["inverse_limit"] == {"rank": 2, "torsion": []}
    assert report["tower"]["lim1"]["kind"] == "zero"
    assert report["intersection"]["h0"]["rank"] == 0
    print("criterion 8: PASS — half-line tower report byte-identical to golden")


def test_criterion_9_open_cone_coverings():
    for name in ("two_rays", "circle4", "graph6"):
        cone = cone_fixture(name, levels=4)
        for n in range(1, 5):
            net = build_net(cone, n)
            assert net.covered, (name, n)
            assert band_cover_check(cone, net, n), (name, n)
    cone = cone_fixture("two_rays", levels=4)
    bad = adversarial_net(cone, 3)
    assert not band_cover_check(cone, bad, 3)
    print("criterion 9: PASS — net and band coverings exact, adversary fails")


def test_criterion_10_omega_excisive_tail():
    for name in SHIPPED:
        sp = get_instance(name)
        g = sp.graph
        first = min(e.index for e in sp.attached)
        tail = {v for v in g.vertices if v.coset == 0 or v.coset > first}
        horoball = {v for v in g.vertices if v.coset == first}
        base = {Vertex(v.element, 0, 0) for v in horoball}
        out = omega_excisive_check(g, tail, horoball | base, [1, 2, 4])
        values = [s for _, s in out]
        assert all(s is not None for s in values), name
        assert values == sorted(values), name
    print("criterion 10: PASS — tail decompositions omega-excisive for R in 1,2,4")
