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


def test_ladder_runs_rg1_and_digests_each_report(tmp_path, monkeypatch):
    argv = ["--rg", "1", "--cosets", "m5", "all", "--verdict", "homology", "nerve"]
    out = subprocess.run([sys.executable, str(SCRIPT), *argv], capture_output=True,
                         text=True, check=True, timeout=600)
    result = json.loads(out.stdout)
    assert result["schema"] == "horokit-ladder/1"
    sources = (SCRIPT.parent.parent / "src" / "horokit").glob("*.py")
    assert result["src_lines"] == sum(len(p.read_text().splitlines()) for p in sources) > 0
    runs = result["runs"]
    assert [(r["verdict"], r["rg"], r["cosets"]) for r in runs] == [
        (v, 1, c) for v in ("homology", "nerve") for c in ("m5", "all")]
    # each digest is that of the report the CLI writes in-process for the
    # same config, under the same bare file name
    ladder = _ladder_module()
    monkeypatch.chdir(tmp_path)
    for r in runs:
        assert r["exit"] == 0 and r["stderr"] == ""
        assert r["wall_s"] > 0 and r["peak_rss_mb"] > 0
        assert r["argv"].endswith(f"--instance {ladder.write_config(tmp_path, 1, r['cosets'])}")
        assert run([*r["argv"].split(), "--out", "report.json"]) == 0
        assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == \
            r["report_sha256"]
