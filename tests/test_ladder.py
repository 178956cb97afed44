"""The scale-ladder runner, on its smallest rung only."""

import hashlib
import importlib.util
import json
import pathlib
import subprocess
import sys

from horokit.cli import run

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "ladder.py"


def _ladder_module():
    spec = importlib.util.spec_from_file_location("ladder", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_rg1_runs(verdicts, tmp_path, monkeypatch, *depth):
    argv = ["--rg", "1", "--cosets", "m5", "all", "--verdict", *verdicts, *depth]
    out = subprocess.run([sys.executable, str(SCRIPT), *argv], capture_output=True,
                         text=True, check=True, timeout=600)
    result = json.loads(out.stdout)
    assert result["schema"] == "horokit-ladder/1"
    sources = (SCRIPT.parent.parent / "src" / "horokit").glob("*.py")
    assert result["src_lines"] == sum(len(p.read_text().splitlines()) for p in sources) > 0
    runs = result["runs"]
    assert [(r["verdict"], r["rg"], r["cosets"]) for r in runs] == [
        (v, 1, c) for v in verdicts for c in ("m5", "all")]
    # each digest is that of the report the CLI writes in-process for the
    # same config, under the same bare file name
    ladder = _ladder_module()
    monkeypatch.chdir(tmp_path)
    for r in runs:
        assert r["exit"] == 0 and r["stderr"] == ""
        assert r["wall_s"] > 0 and r["peak_rss_mb"] > 0
        name = ladder.write_config(tmp_path, 1, r["cosets"], r["lmax"])
        assert r["argv"].endswith(f"--instance {name}")
        assert run([*r["argv"].split(), "--out", "report.json"]) == 0
        assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == \
            r["report_sha256"]
    return runs


def test_ladder_runs_rg1_and_digests_each_report(tmp_path, monkeypatch):
    runs = check_rg1_runs(("homology", "nerve"), tmp_path, monkeypatch)
    # stage 0 and lmax 4 by default, with the argv the digests were taken of
    assert all((r["stage"], r["lmax"]) == (0, 4) and "--stage 0 --instance" in r["argv"]
               for r in runs)


def test_ladder_runs_both_delta_verdicts_on_rg1(tmp_path, monkeypatch):
    check_rg1_runs(("delta", "delta-sampled"), tmp_path, monkeypatch)
    assert _ladder_module().VERDICTS["delta-sampled"] == [
        "delta", "--mode", "sampled", "--samples", "2000000", "--seed", "0"]


def test_ladder_runs_rg1_at_stage_1(tmp_path, monkeypatch):
    # stage 1 (scale 3) of y-vanish reaches the stage-2 slice, level 10
    runs = check_rg1_runs(("nerve", "y-vanish"), tmp_path, monkeypatch,
                          "--stage", "1", "--lmax", "10")
    assert all((r["stage"], r["lmax"]) == (1, 10) for r in runs)
    assert all("--stage 1 --instance" in r["argv"] for r in runs)


def test_ladder_repeat_reports_the_median_of_each_rung(tmp_path, monkeypatch):
    runs = check_rg1_runs(("homology",), tmp_path, monkeypatch, "--repeat", "3")
    for r in runs:
        assert len(r["wall_s_runs"]) == len(r["peak_rss_mb_runs"]) == 3
        assert r["wall_s"] == sorted(r["wall_s_runs"])[1]
        assert r["peak_rss_mb"] == sorted(r["peak_rss_mb_runs"])[1]


def test_ladder_exits_1_when_the_repeats_of_a_rung_disagree(monkeypatch, capsys):
    ladder = _ladder_module()
    calls = []

    def fake(argv, cwd, env):
        calls.append(argv[-1])
        # the m5 rung's report changes on its second run
        digest = "b" if calls.count(argv[-1]) == 2 and "m5" in argv[-1] else "a"
        return {"argv": " ".join(argv), "exit": 0, "wall_s": len(calls) / 10,
                "peak_rss_mb": 40.0 + len(calls), "report_sha256": digest, "stderr": ""}

    monkeypatch.setattr(ladder, "run_verdict", fake)
    argv = ["--rg", "1", "--cosets", "m5", "all", "--repeat", "3"]
    assert ladder.main(argv) == 1
    assert calls == ["rg1_m5.json", "rg1_all.json"] * 3  # interleaved
    captured = capsys.readouterr()
    assert captured.err == "ladder: the repeats of homology rg1 m5 disagree\n"
    out = json.loads(captured.out)
    assert out["repeat"] == 3
    m5, every = out["runs"]
    assert (m5["wall_s_runs"], m5["wall_s"], m5["peak_rss_mb"]) == ([0.1, 0.3, 0.5], 0.3, 43.0)
    assert every["peak_rss_mb_runs"] == [42.0, 44.0, 46.0]
    monkeypatch.setattr(ladder, "run_verdict", lambda argv, cwd, env: {
        **fake(argv, cwd, env), "report_sha256": "a"})
    calls.clear()
    assert ladder.main(argv) == 0
