#!/usr/bin/env python3
"""Self-test of the benchmark on the seconds-long ``tiny`` workload.

    python3 perfbench/selftest.py

Checks that:
- every metric named in BENCHMARK.json is emitted, with its unit, by
  ``run.py`` under ``--trace 0`` and ``--trace 1``, and the gate passes;
- a corrupted pinned digest raises the failed-op fraction;
- in a traced op, spans nest, and self times plus ``unattributed`` add up
  to the op's wall time;
- the ``suite`` workload runs exactly the checks of ``scripts/run_checks.py``;
- names re-imported with ``from .x import y`` are wrapped too;
- in a directory holding only BENCHMARK.json and the benchmark's files, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys

import run as bench
import tracer

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def result_line(args: list[str], cwd) -> tuple[int, dict | None]:
    p = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                       capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return p.returncode, last if isinstance(last, dict) else None


def check_emitted_metrics() -> None:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, res = result_line(["--workload", "tiny", "--seed", "7", "--seconds", "1",
                                 "--trace", str(trace)], bench.ROOT)
        check(code == 0 and res is not None and res["correct"] and res["failed"] == 0,
              f"tiny --trace {trace}: exit 0, gate passes")
        if res is None:
            continue
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        check(got == want, f"tiny --trace {trace}: emits exactly the {key} metrics with their units")
        check(all(math.isfinite(v["value"]) for v in res["metrics"].values()),
              f"tiny --trace {trace}: every value is a finite number")


def check_corrupted_pin() -> None:
    pins = bench.load_pins()
    label = next(op.label for op in bench.WORKLOADS["tiny"].ops if op.sampled_of is None)
    pins["tiny"][label]["sha256"] = "0" * 64
    res = bench.measure(bench.WORKLOADS["tiny"], 7, 1, False, pins)
    run = res["run"]
    check(run.failed > 0 and run.failed / run.attempted > 0,
          f"corrupted pin for {label}: fail_frac {run.failed}/{run.attempted} > 0")


def check_self_time_identity() -> None:
    res = bench.measure(bench.WORKLOADS["tiny"], 7, 1, True, bench.load_pins())
    ops = [o for p in res["traced"] for o in p["ops"]]
    check(bool(ops) and None not in ops and res["run"].failed == 0,
          "traced ops give readable traces and the same report bytes as untraced ops")
    for o in ops:
        m = o["metrics"]
        total = sum(m["self"].values()) + m["unattributed"]
        check(abs(total - m["wall"]) < 1e-6 and m["unattributed"] > 0,
              f"{o['label']}: self {sum(m['self'].values()):.4f} s + unattributed "
              f"{m['unattributed']:.4f} s = wall {m['wall']:.4f} s")
    for path in sorted((bench.WORK / "trace").glob("*.trace"))[:4]:
        spans = tracer.load(str(path))["spans"]
        nested = all(
            s[1] <= s[2] and (s[3] < 0 or (spans[s[3]][1] <= s[1] and s[2] <= spans[s[3]][2]))
            for s in spans
        )
        check(nested, f"{path.name}: every span lies inside its parent")


def check_suite_matches_run_checks() -> None:
    path = bench.ROOT / "scripts" / "run_checks.py"
    spec = importlib.util.spec_from_file_location("run_checks", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    ours = [(op.label, list(op.argv)) for op in bench.WORKLOADS["suite"].ops]
    check(ours == [(label, list(argv)) for label, argv in mod.CHECKS],
          "suite ops equal scripts/run_checks.py CHECKS")


def check_reimported_names_wrapped() -> None:
    sys.path.insert(0, str(bench.SRC))
    importlib.import_module("horokit.cli")
    names = [("covers", "iter_faces"), ("mv", "iter_faces"),
             ("snf", "sparse_diagonal"), ("homology", "sparse_diagonal"),
             ("covers", "nerve"), ("cli", "nerve")]
    originals = {(m, n): getattr(sys.modules[f"horokit.{m}"], n) for m, n in names}
    tracer.install(tracer.Tracer("selftest"))
    for (m, n), orig in originals.items():
        now = getattr(sys.modules[f"horokit.{m}"], n)
        check(now is not orig and getattr(now, "__wrapped__", None) is orig,
              f"horokit.{m}.{n} is wrapped")


def check_bare_directory() -> None:
    bare = bench.ROOT / bench.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(bench.BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, res = result_line(["--workload", "suite", "--seed", "1", "--seconds", "1",
                             "--trace", "0"], bare)
    check(code != 0 and res is None, f"bare directory: exit {code}, no result line")
    shutil.rmtree(bare)


def main() -> int:
    os.chdir(bench.ROOT)
    bench.WORK.mkdir(exist_ok=True)
    check_emitted_metrics()
    check_corrupted_pin()
    check_self_time_identity()
    check_suite_matches_run_checks()
    check_bare_directory()
    check_reimported_names_wrapped()  # last: it rebinds horokit in this process
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
