import json

import pytest

import horokit.errors as errors
from horokit.covers import LINEAR_SCHEDULE, decompose
from horokit.graphs import Vertex, omega_excisive_check
from horokit.instances import BUILDERS, SHIPPED, get_instance, load_instance, resolve_instance


def test_registry_names():
    assert set(SHIPPED) <= set(BUILDERS)
    for name in SHIPPED:
        sp = get_instance(name)
        assert len(sp.graph) > 0
        assert sp.name == name


def test_instance_cache_identity():
    assert get_instance("z_horoball") is get_instance("z_horoball")


def test_unknown_instance():
    with pytest.raises(KeyError):
        get_instance("nope")


def test_load_instance_from_file(tmp_path):
    cfg = {
        "group": {"family": "free-abelian", "rank": 1, "names": ["x"]},
        "peripherals": [0],
        "rg": 2,
        "lmax": 2,
        "mmax": 1,
        "name": "little-line",
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(cfg))
    sp = load_instance(str(path))
    assert sp.name == "little-line"
    assert len(sp.graph) == 5 + 5 * 2
    assert resolve_instance(str(path)).name == "little-line"


def test_thick_cusp_split_is_omega_excisive():
    # the level split passes the excision check for R up to 4
    for name in SHIPPED:
        sp = get_instance(name)
        level = 2
        thick = {v for v in sp.graph.vertices if v.level <= level}
        cusp = {v for v in sp.graph.vertices if v.level >= level}
        out = omega_excisive_check(sp.graph, thick, cusp, [1, 2, 3, 4])
        values = [s for _, s in out]
        assert all(s is not None for s in values), name
        assert values == sorted(values), name


def test_linear_schedule_decomposition():
    sp = get_instance("z_horoball")
    dec = decompose(sp, 0, LINEAR_SCHEDULE)
    assert dec.scale == 1 and dec.slice_level == 2
    dec2 = decompose(sp, 2, LINEAR_SCHEDULE)
    assert dec2.scale == 3 and dec2.slice_level == 4


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv(errors.BUDGET_ENV_VAR, "7")
    assert errors.vertex_budget() == 7
    from horokit.groups import GroupSpec

    with pytest.raises(errors.BudgetExceededError):
        GroupSpec.free(2).ball(3)
    monkeypatch.delenv(errors.BUDGET_ENV_VAR)
    assert errors.vertex_budget() == errors.DEFAULT_VERTEX_BUDGET


def test_bfs_matches_networkx_oracle():
    nx = pytest.importorskip("networkx")
    sp = get_instance("z_horoball")
    g = sp.graph
    ng = nx.Graph()
    ng.add_nodes_from(range(len(g)))
    ng.add_edges_from(g.edges)
    lengths = dict(nx.all_pairs_shortest_path_length(ng))
    for i in range(0, len(g), 5):
        row = g.multi_source_distances([g.vertices[i]])
        for j in range(len(g)):
            assert row[j] == lengths[i].get(j, -1)
