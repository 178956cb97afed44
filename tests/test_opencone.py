from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from horokit import opencone
from horokit.errors import BudgetExceededError, EmbeddingError
from horokit.opencone import (
    adversarial_net,
    band_cover_check,
    build_net,
    ConedSpace,
    cone_cover_tower,
    cone_fixture,
    embed_and_cone,
)


def test_two_rays_exact_embedding():
    cone = cone_fixture("two_rays")
    assert cone.distortion == 1.0
    assert cone.base.shape == (2, 1)


def test_circle4_exact_embedding():
    cone = cone_fixture("circle4")
    assert cone.distortion == 1.0
    rays = {p.ray for p in cone.points}
    assert rays == {0, 1, 2, 3}


def test_graph6_distortion_reported():
    cone = cone_fixture("graph6")
    assert 1.0 < cone.distortion <= 4.0


def test_embedding_gate():
    dist = np.array([[min(abs(i - j), 6 - abs(i - j)) for j in range(6)] for i in range(6)])
    with pytest.raises(EmbeddingError):
        embed_and_cone(dist, 3, 2, max_distortion=1.01)


def test_grid_step_gate():
    with pytest.raises(ValueError):
        ConedSpace(np.array([[1.0], [-1.0]]), 2, Fraction(1, 2), 1.0)


def test_unit_norm_base_points():
    for name in ("two_rays", "circle4", "graph6"):
        cone = cone_fixture(name)
        norms = np.linalg.norm(cone.base, axis=1)
        assert np.allclose(norms, 1.0)


def test_net_single_center_when_diameter_small():
    cone = cone_fixture("two_rays", levels=1)
    # level below 1/2 distance apart would need one center; level 1 points
    # are 2 apart, so two centers
    net = build_net(cone, 1)
    assert len(net.centers) == 2 and net.covered


def test_two_ray_nets_every_level():
    cone = cone_fixture("two_rays", levels=4)
    for n in range(1, 5):
        net = build_net(cone, n)
        assert net.covered
        assert len(net.centers) == 2
        rays = {cone.points[c].ray for c in net.centers}
        assert rays == {0, 1}


def test_net_size_matches_brute_force_minimum():
    cone = cone_fixture("circle4", levels=3)
    net = build_net(cone, 3)
    pts = cone.level_points(3)
    best = None
    for k in range(1, len(pts) + 1):
        for centers in combinations(pts, k):
            if all(min(cone.dist2(p, c) for c in centers) <= 1.0 for p in pts):
                best = k
                break
        if best:
            break
    assert len(net.centers) == best


def test_band_cover_all_fixtures():
    for name in ("two_rays", "circle4", "graph6"):
        cone = cone_fixture(name, levels=4)
        for n in range(1, 5):
            net = build_net(cone, n)
            assert band_cover_check(cone, net, n), (name, n)


def test_adversarial_net_fails_band_check():
    cone = cone_fixture("two_rays", levels=4)
    bad = adversarial_net(cone, 3)
    assert not bad.covered
    assert not band_cover_check(cone, bad, 3)


def test_cone_cover_tower_two_rays():
    cone = cone_fixture("two_rays", levels=4)
    nets = [build_net(cone, n) for n in range(1, 5)]
    rep = cone_cover_tower(cone, nets, i_max=3)
    assert all(rep.covering)
    assert rep.pen_inclusion
    # rays merge near the apex: connected nerve at every scale
    assert all(g == {"rank": 1, "torsion": []} for g in rep.h0_tower["eventual_images"])
    assert rep.h0_tower["stabilized_at"] == 1


def test_cone_cover_tower_circle4_stabilizes():
    cone = cone_fixture("circle4", levels=4)
    nets = [build_net(cone, n) for n in range(1, 5)]
    rep = cone_cover_tower(cone, nets, i_max=3)
    assert rep.h0_tower["stabilized_at"] is not None
    assert rep.h0_tower["limit"] == {"rank": 1, "torsion": []}


def test_full_simplex_nerve_at_large_scale():
    cone = cone_fixture("circle4", levels=2)
    nets = [build_net(cone, n) for n in range(1, 3)]
    rep = cone_cover_tower(cone, nets, i_max=3)
    # at the top scale every ball covers everything: trivial reduced homology
    assert rep.h1_tower["eventual_images"][-1] == {"rank": 0, "torsion": []}


def test_cone_json_roundtrip():
    from horokit.opencone import cone_from_json, cone_to_json

    cone = cone_fixture("circle4", levels=3)
    back = cone_from_json(cone_to_json(cone))
    assert len(back.points) == len(cone.points)
    assert back.grid_step == cone.grid_step
    assert back.levels == cone.levels
    for i in range(0, len(cone.points), 7):
        assert back.dist2(0, i) == cone.dist2(0, i)


def test_cover_tower_refuses_before_any_mask(monkeypatch):
    # two_rays at 4 levels: 8 centers and 33 points, 264 distance tests a scale
    cone = cone_fixture("two_rays", levels=4)
    nets = [build_net(cone, n) for n in range(1, 5)]
    monkeypatch.setattr(opencone, "COVER_CELL_LIMIT", 527)

    def refuse(i, j):
        raise AssertionError("a mask was built")

    monkeypatch.setattr(cone, "dist2", refuse)
    with pytest.raises(BudgetExceededError, match="needs 528 distance tests"):
        cone_cover_tower(cone, nets, 2)


def test_cone_grid_is_counted_before_it_is_built(monkeypatch):
    monkeypatch.setenv("HOROKIT_VERTEX_BUDGET", "32")
    with pytest.raises(BudgetExceededError, match="cone grid of 33 points"):
        cone_fixture("two_rays", levels=4)
    monkeypatch.setenv("HOROKIT_VERTEX_BUDGET", "33")
    assert len(cone_fixture("two_rays", levels=4).points) == 33


def test_levels_are_refused_from_the_grid_before_any_net(monkeypatch, capsys):
    # 20,000 levels hold at least 20,000 centers over 160,001 points: far
    # over the budget at any imax, so no net and no band check is made, and
    # the points are counted, not built
    from horokit import cli

    def refuse(*args):
        raise AssertionError("a net was built")

    built = []
    point = opencone.ConePoint
    monkeypatch.setattr(opencone, "ConePoint", lambda *a: built.append(a) or point(*a))
    monkeypatch.setattr(cli, "build_net", refuse)
    monkeypatch.setattr(cli, "band_cover_check", refuse)
    assert cli.run(["opencone", "--fixture", "two_rays", "--levels", "20000"]) == 3
    assert capsys.readouterr().err == (
        "horokit: opencone: cover tower of at least 20000 centers, 160001 points"
        " and 3 scales needs 9600060000 distance tests, over the budget of 1000000\n"
    )
    assert built == []
    assert cli.run(["opencone", "--fixture", "two_rays", "--imax", "0"]) == 2
    assert len(cone_fixture("two_rays", levels=4).points) == len(built) == 33


@pytest.mark.parametrize(
    "fixture, levels, imax", [("two_rays", 4, 3), ("circle4", 3, 4), ("graph6", 4, 5)]
)
def test_tower_on_cores_matches_the_full_nerve_tower(monkeypatch, fixture, levels, imax):
    from horokit.complexes import set_nerve

    cone = cone_fixture(fixture, levels=levels)
    nets = [build_net(cone, n) for n in range(1, levels + 1)]
    on_cores = cone_cover_tower(cone, nets, imax).as_dict()

    def full_nerve(labels, sets, cap):
        return set_nerve(labels, sets, cap), {c: c for c in labels}

    monkeypatch.setattr(opencone, "set_core_nerve", full_nerve)
    assert on_cores == cone_cover_tower(cone, nets, imax).as_dict()
