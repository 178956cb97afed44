import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import re
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from horokit.cli import run

GOLDENS = pathlib.Path(__file__).parent / "goldens"


def test_unknown_subcommand_exits_2(capsys):
    assert run(["definitely-not-a-command"]) == 2
    capsys.readouterr()


def test_missing_required_flag_exits_2(capsys):
    assert run(["delta"]) == 2
    capsys.readouterr()


def test_milnor_demo_matches_golden(tmp_path):
    out = tmp_path / "milnor.json"
    assert run(["milnor-demo", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDENS / "milnor_demo.json").read_bytes()


def test_delta_on_tree_instance(tmp_path, capsys):
    out = tmp_path / "delta.json"
    code = run(["delta", "--instance", "z_horoball", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["command"] == "delta"
    assert rep["result"]["mode"] == "exhaustive"
    assert rep["result"]["delta"] >= 0


def test_delta_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert (
            run(
                [
                    "delta",
                    "--instance",
                    "z2_free_z_deep",
                    "--mode",
                    "sampled",
                    "--samples",
                    "1000",
                    "--seed",
                    "11",
                    "--out",
                    str(path),
                ]
            )
            == 0
        )
    assert a.read_bytes() == b.read_bytes()


def test_delta_on_graph_file(tmp_path):
    # a path graph is a tree: delta 0
    graph = {
        "format": "horokit-graph",
        "version": 1,
        "vertices": [[i, 0, 0] for i in range(5)],
        "edges": [[i, i + 1] for i in range(4)],
        "meta": {},
    }
    gpath = tmp_path / "tree.json"
    gpath.write_text(json.dumps(graph))
    out = tmp_path / "delta.json"
    assert run(["delta", "--instance", str(gpath), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["result"]["delta"] == 0.0


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        ([[0, 0, 0], [1, 0, 0]], [[0, 5]], "graph edge [0, 5] names no vertex of 2"),
        ([[0, 0, 0], [1, 0, 0]], [[0, "a"]], "graph edge [0, 'a'] names no vertex of 2"),
        ([[["a"], 0, 0], [1, 0, 0]], [[0, 1]], "graph vertex [['a'], 0, 0] is not [element,"),
        # a negative index would wrap to the last vertex
        ([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[-1, 0]], "graph edge [-1, 0] names no vertex of 3"),
        # a repeated row would shift every later edge index
        ([[0, 0, 0], [0, 0, 0], [1, 0, 0]], [[0, 2]], "graph vertex rows repeat"),
    ],
    ids=["index-past-the-end", "index-not-an-int", "element-a-list", "negative-index",
         "repeated-vertex"],
)
def test_bad_graph_file_exits_2(vertices, edges, message, tmp_path, capsys):
    graph = {"format": "horokit-graph", "version": 1, "vertices": vertices, "edges": edges}
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps(graph))
    assert run(["delta", "--instance", str(gpath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"horokit: {message}")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_build_augmented_exports(tmp_path):
    out = tmp_path / "graph.json"
    cosets = tmp_path / "cosets.csv"
    code = run(
        [
            "build-augmented",
            "--instance",
            "z_horoball",
            "--out",
            str(out),
            "--cosets-out",
            str(cosets),
        ]
    )
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["graph"]["format"] == "horokit-graph"
    assert cosets.read_text().startswith("index,representative,peripheral")


def test_build_augmented_dot(tmp_path):
    out = tmp_path / "graph.dot"
    assert (
        run(["build-augmented", "--instance", "z_horoball", "--format", "dot", "--out", str(out)])
        == 0
    )
    assert out.read_text().startswith("graph horokit {")


def test_build_augmented_from_group_config(tmp_path):
    cfg = tmp_path / "group.json"
    cfg.write_text(json.dumps({"family": "free-abelian", "rank": 1, "peripherals": [0]}))
    out = tmp_path / "g.json"
    code = run(
        ["build-augmented", "--group", str(cfg), "--rg", "2", "--lmax", "2", "--out", str(out)]
    )
    assert code == 0
    rep = json.loads(out.read_text())
    assert len(rep["graph"]["vertices"]) == 5 + 5 * 2


def test_build_augmented_depth_zero_instance(tmp_path):
    cfg = {"group": {"family": "free", "rank": 2, "peripherals": [0]}, "rg": 1, "lmax": 0}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "g.json"
    assert run(["build-augmented", "--instance", str(path), "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["graph"]["vertices"]) == 5


def test_mv_verify_exit_zero(tmp_path):
    out = tmp_path / "mv.json"
    code = run(["mv-verify", "--instance", "z2_free_z_deep", "--stage", "0", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["mv"]["all_exact"] is True
    assert rep["cluster"]["ok"] is True


def test_mv_verify_dimcap_3_exit_zero(tmp_path):
    # degree-2 coordinates on every nerve of the stage: the sparse reduction
    # finishes in seconds where a dense kernel did not
    out = tmp_path / "mv3.json"
    argv = ["mv-verify", "--instance", "z2_free_z", "--stage", "0", "--dimcap", "3"]
    assert run(argv + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["mv"]["all_exact"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["delta", "--instance", "z_horoball", "--dimcap", "3"],
        ["delta", "--instance", "z_horoball", "--schedule", "paper"],
        ["nerve", "--instance", "z_horoball", "--seed", "1"],
        ["homology", "--instance", "z_horoball", "--seed", "1"],
        ["mv-verify", "--instance", "z_horoball", "--seed", "1"],
        ["y-vanish", "--instance", "z_horoball", "--seed", "1"],
        ["y-vanish", "--instance", "z_horoball", "--dimcap", "3"],
        ["rips-check", "--instance", "z_horoball", "--diameter", "2", "--low", "1",
         "--high", "3", "--seed", "1"],
        ["rips-check", "--instance", "z_horoball", "--diameter", "2", "--low", "1",
         "--high", "3", "--schedule", "paper"],
    ],
)
def test_options_a_command_does_not_read_exit_2(argv, capsys):
    assert run(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_y_vanish_exit_zero(tmp_path):
    out = tmp_path / "y.json"
    code = run(["y-vanish", "--instance", "z2_free_z_deep", "--stage", "0", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["vanishing"]["all_zero"] is True


def test_y_vanish_rg4_contiguity_builds_no_cusp_nerve(tmp_path):
    # Z^2*Z rel Z^2 at rg 4, lmax 4, mmax 5: the full cap-3 nerve of the cusp
    # family runs past the 2,000,000 face budget; contiguity from point stars
    # never builds it
    group = {
        "family": "free-product",
        "atoms": [
            {"kind": "free-abelian", "rank": 2, "names": ["x", "y"]},
            {"kind": "free", "rank": 1, "names": ["t"]},
        ],
        "peripherals": [0],
    }
    cfg = tmp_path / "rg4.json"
    cfg.write_text(json.dumps({"group": group, "rg": 4, "lmax": 4, "mmax": 5}))
    out = tmp_path / "y.json"
    assert run(["y-vanish", "--instance", str(cfg), "--stage", "0", "--out", str(out)]) == 0
    chain = json.loads(out.read_text())["vanishing"]["contiguity_chain"]
    assert [(link["s"], link["contiguous"]) for link in chain] == [(s, True) for s in range(4)]


def test_rips_check_exit_codes(tmp_path):
    out = tmp_path / "r.json"
    code = run(
        [
            "rips-check",
            "--instance",
            "z_horoball",
            "--diameter",
            "2",
            "--low",
            "1",
            "--high",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    # violation fixture through a graph file
    bad = {
        "format": "horokit-graph",
        "version": 1,
        "vertices": [["p", 0, 0], ["q", 2, 1]],
        "edges": [[0, 1]],
        "meta": {},
    }
    bpath = tmp_path / "bad.json"
    bpath.write_text(json.dumps(bad))
    code = run(
        [
            "rips-check",
            "--instance",
            str(bpath),
            "--diameter",
            "1",
            "--low",
            "1",
            "--high",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 1


def test_opencone_exit_zero(tmp_path):
    out = tmp_path / "cone.json"
    assert run(["opencone", "--fixture", "circle4", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert all(rep["band_covering"])


def test_nerve_and_homology_reports(tmp_path):
    out = tmp_path / "n.json"
    assert (
        run(
            [
                "nerve",
                "--instance",
                "z2_free_z_deep",
                "--stage",
                "0",
                "--family",
                "interface",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    rep = json.loads(out.read_text())
    assert rep["face_counts"][0] == rep["columns"]
    out2 = tmp_path / "h.json"
    assert (
        run(
            [
                "homology",
                "--instance",
                "z2_free_z_deep",
                "--stage",
                "0",
                "--family",
                "interface",
                "--degree",
                "1",
                "--out",
                str(out2),
            ]
        )
        == 0
    )
    rep2 = json.loads(out2.read_text())
    assert rep2["homology"]["0"]["rank"] == 3  # three clusters


@pytest.mark.parametrize("family", ["whole", "cusp", "interface"])
def test_nerve_report_bytes_are_the_json_encoding(tmp_path, family):
    out = tmp_path / "n.json"
    argv = ["nerve", "--instance", "z_horoball", "--family", family, "--dimcap", "3"]
    assert run(argv + ["--out", str(out)]) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 40), max_size=4), min_size=1, max_size=6),
    st.sampled_from([1, 2, 3, 1 << 16]),
)
def test_face_lists_match_the_json_encoding(firsts, block):
    from horokit.cli import _FACES, _face_lists

    # dimension p holds faces of p+1 vertices, one per drawn first vertex
    faces = [[list(range(v, v + p + 1)) for v in vs] for p, vs in enumerate(firsts)]
    expected = json.dumps({"faces": faces}, indent=2)
    faces = [np.array(fs, dtype=np.int32).reshape(len(fs), p + 1) for p, fs in enumerate(faces)]
    with mock.patch("horokit.cli._FACE_BLOCK", block):
        lists = "".join(_face_lists(faces))
    fast = json.dumps({"faces": _FACES}, indent=2).replace(json.dumps(_FACES), lists)
    assert fast == expected


def _documented_exit_codes() -> dict[str, int]:
    """Exception name -> exit code, from the README's exit-code table."""
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| (\d) \|", readme, re.MULTILINE)
    return {name: int(code) for name, code in rows}


def _exception_classes():
    import horokit.errors as errors

    own = [c for c in vars(errors).values()
           if isinstance(c, type) and issubclass(c, Exception)
           and c.__module__ == errors.__name__]
    return [OSError, KeyError, *own]


_ERROR_ARGS = {"NotSimplicialError": ((0, 1), "boom"), "EmbeddingError": (2.0, 1.5)}


@pytest.mark.parametrize("cls", _exception_classes(), ids=lambda c: c.__name__)
def test_every_error_class_exits_with_its_documented_code(cls, monkeypatch, capsys):
    exc = cls(*_ERROR_ARGS.get(cls.__name__, ("boom",)))

    def handler(args):
        raise exc

    monkeypatch.setattr("horokit.cli._cmd_milnor_demo", handler)
    assert run(["milnor-demo"]) == _documented_exit_codes()[cls.__name__]
    out, err = capsys.readouterr()
    assert out == "" and err == f"horokit: {exc}\n"


def test_bad_instance_path_exits_2(capsys):
    assert run(["delta", "--instance", "/nonexistent/nope.json"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("where", ["instance", "out"])
def test_file_errors_exit_2_without_traceback(where, tmp_path, capsys):
    # a directory where a file is read or written: IsADirectoryError
    argv = ["delta", "--instance", "z_horoball", "--out", str(tmp_path)]
    if where == "instance":
        argv = ["delta", "--instance", str(tmp_path)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("horokit: ") and "Is a directory" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["delta", "--instance", "z_horoball", "--mode", "sampled", "--samples", "-3"],
         "samples"),
        (["delta", "--instance", "z_horoball", "--mode", "sampled", "--samples", "0"],
         "samples"),
        (["opencone", "--levels", "0"], "levels"),
        (["opencone", "--levels", "-2"], "levels"),
        (["opencone", "--imax", "0"], "i_max"),
    ],
)
def test_out_of_range_counts_exit_2(argv, name, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"horokit: {name} must be >= 1")
    assert captured.out == ""


def test_run_checks_reports_match_the_benchmark_pins(tmp_path):
    # every verdict of scripts/run_checks.py, in process: its exit code and
    # the sha256 of its report bytes as pinned for the benchmark's suite
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("run_checks", root / "scripts" / "run_checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    pins = json.loads((root / "perfbench" / "pins.json").read_text())["suite"]
    assert sorted(label for label, _ in checks.CHECKS) == sorted(pins)
    for label, argv in checks.CHECKS:
        out = tmp_path / f"{label}.json"
        code = run(argv + ["--out", str(out)])
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert {"exit": code, "sha256": digest} == pins[label], label


def test_opencone_from_json_fixture(tmp_path):
    from horokit.opencone import cone_fixture, cone_to_json

    data = cone_to_json(cone_fixture("two_rays", levels=3))
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "report.json"
    assert run(["opencone", "--fixture", str(path), "--imax", "2", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert all(rep["band_covering"])


@pytest.mark.parametrize(
    "argv, codes",
    [
        (["opencone", "--levels", "1000000000"], {3}),  # the grid is refused unbuilt
        (["opencone", "--imax", "400"], {0, 3}),  # 3**400 squared is past a float
    ],
)
def test_large_opencone_inputs_exit_without_traceback(argv, codes, tmp_path, capsys):
    assert run(argv + ["--out", str(tmp_path / "report.json")]) in codes
    err = capsys.readouterr().err
    assert "Traceback" not in err and (err == "" or "budget" in err)


def test_console_entry_point(tmp_path):
    import subprocess
    import sys

    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "horokit.cli", "milnor-demo", "--out", str(out)],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert out.read_bytes() == (GOLDENS / "milnor_demo.json").read_bytes()


def test_budget_exceeded_exits_3_without_traceback(tmp_path, monkeypatch, capsys):
    # a config file, since registered instances are cached per process
    cfg = {"group": {"family": "free-abelian", "rank": 1, "peripherals": [0]}, "rg": 12, "lmax": 3}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setenv("HOROKIT_VERTEX_BUDGET", "50")
    assert run(["delta", "--instance", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("horokit: ") and "budget" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["delta", "--instance", "z_horoball"],
        ["delta", "--instance", "z_horoball", "--mode", "sampled", "--samples", "100"],
        ["rips-check", "--instance", "z_horoball", "--diameter", "2", "--low", "1",
         "--high", "3"],
    ],
)
def test_all_pairs_refusal_exits_3_without_traceback(argv, monkeypatch, capsys):
    from horokit import graphs

    monkeypatch.setattr(graphs, "ALL_PAIRS_LIMIT", 10)
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("horokit: graphs: ") and "42 vertices" in err and "cap of 10" in err
    assert "Traceback" not in err


def test_tree_past_the_all_pairs_cap_is_certified(tmp_path, monkeypatch, capsys):
    # the F2 ball of radius 2 (no horoballs) is a tree of 17 vertices
    from horokit import graphs

    monkeypatch.setattr(graphs, "ALL_PAIRS_LIMIT", 10)
    cfg = {"group": {"family": "free", "rank": 2, "peripherals": [0]}, "rg": 2, "lmax": 0}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "delta.json"
    assert run(["delta", "--instance", str(path), "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert result["delta"] == 0.0 and result["method"] == "block-graph-certificate"
    assert result["truncation"]["vertices"] == 17


def test_sampled_delta_over_the_sample_cap_exits_3(capsys):
    argv = ["delta", "--instance", "z_horoball", "--mode", "sampled",
            "--samples", str(10**12)]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("horokit: hyperbolicity: ") and "1000000000000 quadruples" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("levels", 0, "levels must be >= 1"),
        # a zero step would grid the rays forever
        ("grid_step", [0, 1], "grid step must lie in (0, 1/2)"),
        ("grid_step", [1, 2], "grid step must lie in (0, 1/2)"),
        # a zero denominator, a float and a lone number are not fractions
        ("grid_step", [1, 0], "grid step must be [numerator, denominator]"),
        ("grid_step", [0.5, 4], "grid step must be [numerator, denominator]"),
        ("grid_step", [1], "grid step must be [numerator, denominator]"),
        ("levels", None, "levels must be an integer"),
        ("base", 5, "base must be a non-empty list of equal-length numeric rows"),
        ("base", None, "base must be a non-empty list of equal-length numeric rows"),
        ("base", [[1.0], [-1.0, 0.0]], "base must be a non-empty list of equal-length"),
    ],
)
def test_opencone_json_fixture_out_of_range_exits_2(key, value, message, tmp_path, capsys):
    from horokit.opencone import cone_fixture, cone_to_json

    data = dict(cone_to_json(cone_fixture("two_rays")), **{key: value})
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "report.json"
    assert run(["opencone", "--fixture", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"horokit: {message}")
    assert "Traceback" not in err and not out.exists()


def test_opencone_json_fixture_not_an_object_exits_2(tmp_path, capsys):
    path = tmp_path / "cone.json"
    path.write_text("[]")
    assert run(["opencone", "--fixture", str(path)]) == 2
    assert capsys.readouterr().err == "horokit: a cone file holds one JSON object\n"


FUZZ_GROUPS = {
    "free2": {"family": "free", "rank": 2, "peripherals": [0]},
    "z": {"family": "free-abelian", "rank": 1, "peripherals": [0]},
    "z2*z": {
        "family": "free-product",
        "atoms": [
            {"kind": "free-abelian", "rank": 2, "names": ["x", "y"]},
            {"kind": "free", "rank": 1, "names": ["t"]},
        ],
        "peripherals": [0],
    },
}


@st.composite
def small_invocations(draw):
    """A small instance config and a command line that reads it."""
    config = {
        "group": FUZZ_GROUPS[draw(st.sampled_from(sorted(FUZZ_GROUPS)))],
        "rg": draw(st.integers(0, 2)),
        "lmax": draw(st.integers(0, 3)),
    }
    commands = ["mv-verify", "y-vanish", "homology", "nerve", "build-augmented"]
    command = draw(st.sampled_from(commands))
    argv = [command]
    if command != "build-augmented":
        argv += ["--schedule", draw(st.sampled_from(["paper", "linear"]))]
        argv += ["--stage", str(draw(st.integers(0, 1)))]
    if command in ("mv-verify", "homology", "nerve"):
        argv += ["--dimcap", str(draw(st.integers(0, 3)))]
    return config, argv


@settings(max_examples=60, deadline=None)
@given(small_invocations())
def test_cli_fuzz_exits_with_a_documented_code(tmp_path_factory, invocation):
    config, argv = invocation
    path = tmp_path_factory.getbasetemp() / "fuzz-instance.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    start = time.perf_counter()
    # reports go nowhere: the dimcap-3 nerve of a stage-1 Z2*Z cover at rg 2
    # is a 100 MB report
    with contextlib.redirect_stderr(err):
        code = run(argv + ["--instance", str(path), "--out", os.devnull])
    assert time.perf_counter() - start < 5.0, (config, argv)
    assert code in (0, 1, 2, 3), (config, argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_rg3_nerve_at_cap_3_is_refused_at_the_default_budget(tmp_path, monkeypatch, capsys):
    # Z^2*Z rel Z^2 at rg 3, lmax 4, all cosets: the whole cap-3 nerve has
    # over 3,000,000 faces; the face budget refuses it block by block, before
    # the faces past the budget are stored or any report is written
    group = {
        "family": "free-product",
        "atoms": [
            {"kind": "free-abelian", "rank": 2, "names": ["x", "y"]},
            {"kind": "free", "rank": 1, "names": ["t"]},
        ],
        "peripherals": [0],
    }
    cfg = tmp_path / "rg3.json"
    cfg.write_text(json.dumps({"group": group, "rg": 3, "lmax": 4}))
    out = tmp_path / "nerve.json"
    monkeypatch.delenv("HOROKIT_VERTEX_BUDGET", raising=False)
    argv = ["nerve", "--instance", str(cfg), "--family", "whole", "--dimcap", "3",
            "--stage", "0", "--out", str(out)]
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("horokit: complexes: nerve has at least ")
    assert "over the face budget of 2000000" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, degree, dimcap", [
    (["--degree", "-1"], -1, 2),
    (["--degree", "5", "--dimcap", "2"], 5, 2),
])
def test_homology_refuses_a_degree_past_the_cap_before_any_build(argv, degree, dimcap,
                                                                 monkeypatch, capsys):
    from horokit import cli

    def refuse(*args):
        raise AssertionError("a space was built")

    monkeypatch.setattr(cli, "resolve_instance", refuse)
    assert run(["homology", "--instance", "z_horoball", *argv]) == 2
    assert capsys.readouterr().err == (
        f"horokit: homology --degree {degree} is outside 0..{dimcap}, the nerve's --dimcap\n")


def test_paper_stage_40_ends_with_the_faces_of_stage_4(tmp_path):
    # scale 3^40 is past 2^63: the Cayley search stops at the ball size and
    # the horoball levels and reach are clamped, so the columns, and the
    # nerve, are those of any stage past the space's depth
    faces = []
    for stage in ("4", "40"):
        out = tmp_path / f"nerve-{stage}.json"
        started = time.perf_counter()
        assert run(["nerve", "--instance", "z_horoball", "--stage", stage,
                    "--out", str(out)]) == 0
        assert time.perf_counter() - started < 10
        faces.append(json.loads(out.read_text())["faces"])
    assert faces[0] == faces[1] and len(faces[0][2]) > 0
