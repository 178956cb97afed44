#!/usr/bin/env python3
"""The scale ladder: CLI verdicts on growing truncations, one process each.

    python scripts/ladder.py [--rg R ...] [--cosets m5|all ...]
                             [--verdict NAME ...] [--stage N] [--lmax L]
                             [--repeat N]

"rgR" is Z^2*Z relative to Z^2 with ball radius R and horoball depth L
(``--lmax``, 4 by default); "m5" attaches five horoballs (mmax 5), "all" one
to every coset that meets the ball.  The verdicts that take a stage run at
``--stage`` (0 by default).  The configs are written to a temporary
directory and every (verdict, rg, cosets) of the product runs as a fresh
``python -m horokit.cli`` process against this checkout's ``src/``, one at
a time.  The runs inherit the environment, so
``HOROKIT_VERTEX_BUDGET=N python scripts/ladder.py ...`` sets their budget.

With ``--repeat N`` every (verdict, rg, cosets) runs N times, interleaved:
the whole product once, then again, so that a drift of the machine falls on
every rung alike.

Standard output is one JSON object.  Its ``src_lines`` is the line count
of ``src/horokit/*.py`` (as ``wc -l`` counts them), and its ``runs`` give
per (verdict, rg, cosets) the rung, the stage and lmax, the argv, the exit
code, the median wall time and the median peak RSS (``ru_maxrss`` from
``os.wait4``) over the repeats, each repeat's wall time and peak RSS, and
the sha256 of the report, which the CLI writes to standard output.  Reports
embed the ``--instance`` argument, so each run gets a bare config file name
and the digests do not depend on the directory.  A verdict's exit code is
data here: the script exits 0 once every run has finished, 1 when the
repeats of one rung disagree on the exit code or the report digest (each
such rung is named on standard error), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy

ROOT = pathlib.Path(__file__).resolve().parents[1]

GROUP = {
    "family": "free-product",
    "atoms": [
        {"kind": "free-abelian", "rank": 2, "names": ["x", "y"]},
        {"kind": "free", "rank": 1, "names": ["t"]},
    ],
    "peripherals": [0],
}
MMAX = {"m5": 5, "all": None}

# the verdicts that take a stage get ``--stage`` next
VERDICTS = {
    "homology": ["homology", "--family", "whole", "--degree", "2", "--dimcap", "2"],
    "nerve": ["nerve", "--family", "whole", "--dimcap", "3"],
    "mv-verify": ["mv-verify"],
    "y-vanish": ["y-vanish"],
    "delta": ["delta"],
    "delta-sampled": ["delta", "--mode", "sampled", "--samples", "2000000", "--seed", "0"],
}


STAGED = {"homology", "nerve", "mv-verify", "y-vanish"}


def write_config(directory: pathlib.Path, rg: int, cosets: str, lmax: int) -> str:
    """Write the rgR config with the given cosets and depth; return its file
    name."""
    cfg = {"name": f"rg{rg}-{cosets}", "group": GROUP, "rg": rg, "lmax": lmax}
    if MMAX[cosets] is not None:
        cfg["mmax"] = MMAX[cosets]
    name = f"rg{rg}_{cosets}.json"
    (directory / name).write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return name


def src_lines() -> int:
    """The lines of ``src/horokit/*.py``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (ROOT / "src" / "horokit").glob("*.py"))


def run_verdict(argv: list[str], cwd: pathlib.Path, env: dict) -> dict:
    """One CLI process: its exit code, wall time, peak RSS and report digest."""
    digest = hashlib.sha256()
    with tempfile.TemporaryFile() as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "horokit.cli", *argv], cwd=cwd,
                                env=env, stdout=subprocess.PIPE, stderr=err)
        for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
            digest.update(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.stdout.close()
        err.seek(0)
        lines = err.read().decode(errors="replace").strip().splitlines()
    return {
        "argv": " ".join(argv),
        "exit": os.waitstatus_to_exitcode(status),
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "report_sha256": digest.hexdigest(),
        "stderr": lines[-1] if lines else "",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rg", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--cosets", nargs="+", choices=sorted(MMAX), default=["all"])
    ap.add_argument("--verdict", nargs="+", choices=sorted(VERDICTS), default=["homology"])
    ap.add_argument("--stage", type=int, default=0)
    ap.add_argument("--lmax", type=int, default=4)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per rung, interleaved; medians are reported")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    rungs = [(verdict, rg, cosets) for verdict in args.verdict
             for rg in args.rg for cosets in args.cosets]
    results: dict[tuple, list[dict]] = {rung: [] for rung in rungs}
    with tempfile.TemporaryDirectory(prefix="horokit-ladder-") as tmp:
        work = pathlib.Path(tmp)
        for _ in range(args.repeat):
            for verdict, rg, cosets in rungs:
                name = write_config(work, rg, cosets, args.lmax)
                stage = ["--stage", str(args.stage)] if verdict in STAGED else []
                results[verdict, rg, cosets].append(
                    run_verdict([*VERDICTS[verdict], *stage, "--instance", name], work, env))
    runs, status = [], 0
    for (verdict, rg, cosets), repeats in results.items():
        first = repeats[0]
        if any((r["exit"], r["report_sha256"]) != (first["exit"], first["report_sha256"])
               for r in repeats):
            print(f"ladder: the repeats of {verdict} rg{rg} {cosets} disagree", file=sys.stderr)
            status = 1
        walls = [r["wall_s"] for r in repeats]
        peaks = [r["peak_rss_mb"] for r in repeats]
        runs.append({"verdict": verdict, "rg": rg, "cosets": cosets,
                     "stage": args.stage, "lmax": args.lmax, **first,
                     "wall_s": round(statistics.median(walls), 3),
                     "peak_rss_mb": round(statistics.median(peaks), 1),
                     "wall_s_runs": walls, "peak_rss_mb_runs": peaks})
    print(json.dumps({
        "schema": "horokit-ladder/1",
        "budget": env.get("HOROKIT_VERTEX_BUDGET"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
        "repeat": args.repeat,
        "runs": runs,
    }, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
