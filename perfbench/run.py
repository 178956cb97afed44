#!/usr/bin/env python3
"""horokit benchmark: cold CLI verdicts, one process per op, one op at a time.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each op is a fresh ``python perfbench/child.py ... <cli args>`` process that
runs ``horokit.cli.run`` against the checkout's ``src/`` (closed loop, one
client: the next op starts when the previous one has exited).  A pass is one
run of the workload's op list.  A run first times ``SETUP_REPEATS`` fresh
set-up processes (import the CLI, build every instance and fixture the
workload uses), then repeats passes while the next one is expected to end
within ``--seconds`` (at least ``MIN_PASSES``), and gates every op on its pinned exit code and report
digest (``pins.json``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics from the traced
ones (see ``tracer.py``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 when every op passed its gate, 1 when one did not, 2 on a usage
error or a checkout without ``src/horokit``.  Without ``--workload`` the
three benchmark workloads run in turn, each printing its own result line.

Waiting time is zero by construction (one client, one process and one
thread per op), so it is recorded in the provenance, not measured.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINS = BENCH / "pins.json"
# work files live under the checkout; instance paths are relative to ROOT
# because reports embed the --instance argument
WORK = Path(".bench_work")
INSTANCE_DIR = WORK / "instances"

SETUP_REPEATS = 7
MIN_PASSES = 2  # so the ladder's median and wall time never rest on one pass
DEADLINE_S = 170.0  # a run must end within 180 s; ops past this are killed

Z2_FREE_Z = {
    "family": "free-product",
    "atoms": [
        {"kind": "free-abelian", "rank": 2, "names": ["x", "y"]},
        {"kind": "free", "rank": 1, "names": ["t"]},
    ],
    "peripherals": [0],
}
Z_LINE = {"family": "free-abelian", "rank": 1, "names": ["x"], "peripherals": [0]}


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]  # "{seed}" is replaced by the run's seed
    sampled_of: str | None = None  # label of the exhaustive delta on the same graph


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]
    instances: dict  # file stem -> config written under INSTANCE_DIR
    fixtures: tuple  # (kind, name) pairs the set-up builds
    # highest percentile with >= 10 op samples beyond it at this size;
    # 100 (the maximum) when a run holds too few ops for such a tail
    tail_pct: int


def _instance(stem: str, group: dict, rg: int, lmax: int, mmax: int | None = None):
    cfg = {"name": stem, "group": group, "rg": rg, "lmax": lmax}
    if mmax is not None:
        cfg["mmax"] = mmax
    return stem, cfg


def _path(stem: str) -> str:
    return str(INSTANCE_DIR / f"{stem}.json")


def _homology(label: str, stem: str) -> Op:
    argv = ("homology", "--instance", _path(stem), "--family", "whole",
            "--degree", "2", "--dimcap", "2", "--stage", "0")
    return Op(label, argv)


def _delta_pair(stem: str, samples: int) -> tuple[Op, Op]:
    exhaustive = Op(f"delta-{stem}", ("delta", "--instance", _path(stem)))
    sampled = Op(
        f"delta-sampled-{stem}",
        ("delta", "--instance", _path(stem), "--mode", "sampled",
         "--samples", str(samples), "--seed", "{seed}"),
        sampled_of=exhaustive.label,
    )
    return exhaustive, sampled


def _suite() -> Workload:
    # the verdicts of scripts/run_checks.py, in its order
    shipped = ("z_horoball", "z2_free_z", "z2_free_z_deep", "free2_rel_a")
    ops = []
    for name in shipped:
        ops.append(Op(f"mv-{name}", ("mv-verify", "--instance", name, "--stage", "0")))
        ops.append(Op(f"y-{name}", ("y-vanish", "--instance", name, "--stage", "0")))
        ops.append(Op(f"delta-{name}", ("delta", "--instance", name)))
    ops.append(Op("rips-z_horoball", ("rips-check", "--instance", "z_horoball",
                                      "--diameter", "2", "--low", "1", "--high", "3")))
    cones = ("two_rays", "circle4", "graph6")
    ops.extend(Op(f"cone-{f}", ("opencone", "--fixture", f)) for f in cones)
    ops.append(Op("milnor", ("milnor-demo",)))
    return Workload(
        "suite",
        "the 17 verdicts of scripts/run_checks.py: many small problems where "
        "interpreter start and import dominate",
        tuple(ops),
        {},
        tuple(("instance", n) for n in shipped) + tuple(("cone", f) for f in cones),
        85,
    )


def _nerve_ladder() -> Workload:
    # rg=2 at two lmax values: the median op falls inside that pair of
    # similar ops instead of resting on the samples of a single op
    sizes = [(1, 4), (2, 4), (2, 5), (3, 4)]
    rungs = dict(_instance(f"ladder_rg{rg}_l{lmax}", Z2_FREE_Z, rg, lmax)
                 for rg, lmax in sizes)
    return Workload(
        "nerve-ladder",
        "degree-2 homology of whole-cover nerves from rg=1 to rg=3: nerve "
        "enumeration and sparse elimination do nearly all the work",
        tuple(_homology(f"homology-{s}", s) for s in rungs),
        rungs,
        tuple(("instance", _path(s)) for s in rungs),
        100,
    )


def _mv_delta() -> Workload:
    instances = dict([
        _instance("mv_rg2_l6", Z2_FREE_Z, 2, 6, 5),
        _instance("z_wide_rg26", Z_LINE, 26, 3, 1),
    ])
    exhaustive, sampled = _delta_pair("z_wide_rg26", 2_000_000)
    ops = (
        Op("mv-mv_rg2_l6", ("mv-verify", "--instance", _path("mv_rg2_l6"), "--stage", "0")),
        exhaustive,
        sampled,
    )
    return Workload(
        "mv-delta",
        "exact verdicts off the nerve path: Smith normal form inside homology "
        "coordinates, and the four-point scan exhaustive and sampled",
        ops,
        instances,
        tuple(("instance", _path(s)) for s in instances),
        100,
    )


def _tiny() -> Workload:
    """Seconds-long pass for the self-test; not a benchmark workload."""
    instances = dict([
        _instance("tiny_rg1", Z2_FREE_Z, 1, 4),
        _instance("tiny_mv_rg1", Z2_FREE_Z, 1, 4, 3),
        _instance("tiny_z_rg6", Z_LINE, 6, 3, 1),
    ])
    exhaustive, sampled = _delta_pair("tiny_z_rg6", 20_000)
    ops = (
        _homology("homology-tiny_rg1", "tiny_rg1"),
        Op("mv-tiny_mv_rg1", ("mv-verify", "--instance", _path("tiny_mv_rg1"), "--stage", "0")),
        exhaustive,
        sampled,
    )
    return Workload("tiny", "self-test only", ops, instances,
                    tuple(("instance", _path(s)) for s in instances), 100)


WORKLOADS = {w.name: w for w in (_suite(), _nerve_ladder(), _mv_delta(), _tiny())}
BENCHMARK_WORKLOADS = ("suite", "nerve-ladder", "mv-delta")

# -- metric definitions -------------------------------------------------------

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)

LAYERS = ("cli", "complexes", "covers", "errors", "graphs", "groups", "homology",
          "hyperbolicity", "instances", "mv", "opencone", "rips", "snf", "spaces",
          "towers")

# metric -> span names (a trailing "." matches a prefix); values are per pass
SELF_TIMES = {
    "spaces.build_augmented_s": ("spaces.build_augmented",),
    "spaces.interior_window_s": ("spaces.interior_window",),
    "graphs.bfs_s": ("graphs.MetricGraph._bfs_row", "graphs.MetricGraph.distance_matrix",
                     "graphs.MetricGraph.distances_from", "graphs.MetricGraph.distance",
                     "graphs.MetricGraph.multi_source_distances"),
    "covers.build_cover_s": ("covers.build_cover",),
    "covers.nerve_s": ("covers.nerve",),
    "covers.contiguity_s": ("covers.contiguous_cover_maps",),
    "complexes.boundary_s": ("complexes.SimplicialComplex.boundary_columns",
                             "complexes.SimplicialComplex.boundary_dense"),
    "snf.sparse_diagonal_s": ("snf.sparse_diagonal",),
    "snf.smith_s": ("snf.smith_normal_form",),
    "snf.lattice_s": ("snf.LazyLattice.", "snf.column_hnf", "snf.kernel_basis"),
    "homology.homology_type_s": ("homology.homology_type",),
    "homology.coordinates_s": ("homology.DegreeCoordinates.",),
    "homology.induced_map_s": ("homology.induced_map",),
    "homology.exactness_check_s": ("homology.exactness_check",),
    "hyperbolicity.four_point_delta_s": ("hyperbolicity.four_point_delta",),
    "rips.remark_decomposition_check_s": ("rips.remark_decomposition_check",),
    "opencone.cone_cover_tower_s": ("opencone.cone_cover_tower",),
    "opencone.build_net_s": ("opencone.build_net",),
    "towers.ml_lim1_s": ("towers.ml_lim1",),
}
INCLUSIVE_TIMES = {
    "instances.resolve_s": "instances.resolve_instance",
    "mv.assemble_mv_s": "mv.assemble_mv",
    "mv.check_mv_exactness_s": "mv.check_mv_exactness",
    "mv.cluster_check_s": "mv.cluster_check",
    "mv.y_vanishing_check_s": "mv.y_vanishing_check",
}
CALLS = {
    "groups.word_metric.calls": ("groups.GroupSpec.word_metric",),
    "complexes.boundary.calls": SELF_TIMES["complexes.boundary_s"],
    "snf.sparse_diagonal.calls": ("snf.sparse_diagonal",),
    "snf.smith.calls": ("snf.smith_normal_form",),
    "snf.lattice.absorbed": ("snf.LazyLattice._absorb",),
    "homology.homology_type.calls": ("homology.homology_type",),
    "homology.coordinates.calls": ("homology.DegreeCoordinates.__init__",),
}
COUNTERS = (
    ("spaces.vertices", "count"),
    ("graphs.bfs_rows", "count"),
    ("covers.columns", "count"),
    ("covers.faces_enumerated", "count"),
    ("covers.faces_kept", "count"),
    ("complexes.boundary.distinct", "count"),
    ("snf.unit_pivots", "count"),
    ("snf.residue_cells", "count"),
    ("snf.smith_cells", "count"),
    ("hyperbolicity.cells", "cells-computed"),
)

PER_LAYER = (
    (("cli.start_s", "s"), ("cli.report_bytes", "bytes"), ("unattributed_s", "s"))
    + tuple((f"{layer}.self_s", "s") for layer in LAYERS)
    + tuple((m, "s") for m in SELF_TIMES)
    + tuple((m, "s") for m in INCLUSIVE_TIMES)
    + tuple((m, "count") for m in CALLS)
    + COUNTERS
    + (("covers.face_yield", "ratio"),)
    + tuple((f"{layer}.errors", "count") for layer in LAYERS)
    + (("trace.spans", "count"), ("trace.overhead_pct", "%"))
)


def _matches(name: str, patterns) -> bool:
    return any(name == p or (p.endswith(".") and name.startswith(p)) for p in patterns)


def op_layer_values(m: dict) -> dict:
    """Per-layer values of one traced op, from ``tracer.op_metrics``."""
    out = {f"{layer}.self_s": m["layer_self"].get(layer, 0.0) for layer in LAYERS}
    for metric, names in SELF_TIMES.items():
        out[metric] = sum(t for n, t in m["self"].items() if _matches(n, names))
    for metric, name in INCLUSIVE_TIMES.items():
        out[metric] = m["incl"].get(name, 0.0)
    for metric, names in CALLS.items():
        out[metric] = sum(c for n, c in m["calls"].items() if _matches(n, names))
    for metric, _ in COUNTERS:
        out[metric] = m["counts"].get(metric, 0)
    for layer in LAYERS:
        out[f"{layer}.errors"] = m["counts"].get(f"{layer}.errors", 0)
    out["unattributed_s"] = m["unattributed"]
    out["trace.spans"] = m["spans"]
    return out


# -- running ops ---------------------------------------------------------------


def child_env() -> dict:
    """Environment of every child: this checkout's src, fixed hash seed,
    single-threaded numeric libraries, no horokit overrides."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "HOROKIT_"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Proc:
    code: int
    wall: float
    maxrss_kb: int
    timed_out: bool
    stdout: bytes
    stderr: bytes
    ok: bool = True


def spawn(args: list[str], env: dict, timeout: float) -> Proc:
    """Run one child to completion; its rusage comes from ``os.wait4``."""
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    fired = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(SRC), *args],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT,
        )

        def expire():
            fired.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.0), expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss, fired.is_set(),
                out_path.read_bytes(), err_path.read_bytes())


def load_pins() -> dict:
    with open(PINS) as fh:
        return json.load(fh)


def write_instances(wl: Workload) -> None:
    INSTANCE_DIR.mkdir(parents=True, exist_ok=True)
    for stem, cfg in wl.instances.items():
        (INSTANCE_DIR / f"{stem}.json").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")


def op_argv(op: Op, seed: int) -> list[str]:
    return [a.replace("{seed}", str(seed)) for a in op.argv]


class Run:
    """One benchmark run: its gate, its samples and its deadline."""

    def __init__(self, wl: Workload, seed: int, pins: dict, started: float):
        self.wl = wl
        self.seed = seed
        self.pins = pins.get(wl.name, {})
        self.deadline = started + DEADLINE_S
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.sampled_digest: dict[str, str] = {}
        self.maxrss_kb = 0
        self.expired = False
        order = list(wl.ops)
        k = seed % len(order)  # the seed rotates which op follows set-up
        self.ops = order[k:] + order[:k]

    def timeout(self) -> float:
        return self.deadline - time.perf_counter()

    def setup(self) -> float:
        """Median wall time of fresh set-up processes."""
        walls = []
        arg = json.dumps(list(map(list, self.wl.fixtures)))
        for _ in range(SETUP_REPEATS):
            p = spawn(["setup", arg], self.env, self.timeout())
            self.expired |= p.timed_out
            if p.code != 0 or p.timed_out:
                err = p.stderr.decode(errors="replace")[-400:]
                self.failures.append(f"setup: exit {p.code}: {err}")
                break
            walls.append(p.wall)
        return statistics.median(walls) if walls else float("nan")

    def gate(self, op: Op, p: Proc) -> str | None:
        """Why the op's output is wrong, or None."""
        if p.timed_out:
            return "timeout"
        if b"Traceback" in p.stderr:
            return "traceback on stderr"
        pin = self.pins.get(op.label)
        if pin is None:
            return "no pin"
        if p.code != pin["exit"]:
            return f"exit {p.code}, pinned {pin['exit']}"
        digest = hashlib.sha256(p.stdout).hexdigest()
        if op.sampled_of is None:
            return None if digest == pin["sha256"] else f"report sha256 {digest[:12]} != pin"
        ref = self.sampled_digest.setdefault(op.label, digest)
        if digest != ref:
            return "sampled report differs for the same seed"
        delta = json.loads(p.stdout)["result"]["delta"]
        if delta > pin["max_delta"]:
            return f"sampled delta {delta} above exhaustive {pin['max_delta']}"
        return None

    def run_op(self, op: Op, trace_path: str | None, op_id: str) -> Proc | None:
        if self.expired or self.timeout() <= 0:
            self.expired = True
            return None
        args = ["op", trace_path or "-", op_id, *op_argv(op, self.seed)]
        p = spawn(args, self.env, self.timeout())
        self.attempted += 1
        self.expired |= p.timed_out
        self.maxrss_kb = max(self.maxrss_kb, p.maxrss_kb)
        why = self.gate(op, p)
        if why is not None:
            p.ok = False
            self.failed += 1
            self.failures.append(f"{op.label}: {why}")
        return p

    def reference(self) -> None:
        """Untimed first run of each sampled op: the bytes later runs must repeat."""
        for op in self.ops:
            if op.sampled_of is not None:
                self.run_op(op, None, f"ref-{op.label}")

    def run_pass(self, n: int, traced: bool) -> dict | None:
        """One pass over the op list; None when the deadline cut it short."""
        t0 = time.perf_counter()
        done = []
        for i, op in enumerate(self.ops):
            op_id = f"{n}-{i}-{op.label}"
            trace_path = str(WORK / "trace" / f"{op_id}.trace") if traced else None
            p = self.run_op(op, trace_path, op_id)
            if p is None:
                return None
            done.append((op, p, trace_path))
        wall = time.perf_counter() - t0
        per_op = [self.traced_op(*d) for d in done] if traced else []
        return {"wall": wall, "lats": [p.wall for _, p, _ in done], "ops": per_op}

    def traced_op(self, op: Op, p: Proc, path: str) -> dict | None:
        try:
            m = tracer.op_metrics(tracer.load(path), p.wall)
        except (OSError, ValueError, KeyError) as e:
            if p.ok:
                self.failed += 1
            self.failures.append(f"{op.label}: unreadable trace: {e}")
            return None
        values = op_layer_values(m)
        # start-up as a user pays it: not the tracer's own set-up
        values["cli.start_s"] = (p.wall - m["incl"].get("cli.run", 0.0)
                                 - m["incl"].get("trace.install", 0.0))
        values["cli.report_bytes"] = len(p.stdout)
        return {"label": op.label, "values": values, "metrics": m}


def percentile(xs: list[float], pct: int) -> float:
    if pct >= 100 or len(xs) < 2:
        return max(xs)
    return statistics.quantiles(xs, n=100, method="inclusive")[pct - 1]


def measure(wl: Workload, seed: int, seconds: int, trace: bool, pins: dict) -> dict:
    run = Run(wl, seed, pins, time.perf_counter())
    write_instances(wl)
    shutil.rmtree(WORK / "trace", ignore_errors=True)
    (WORK / "trace").mkdir(parents=True)
    setup_s = None if trace else run.setup()
    run.reference()
    passes, traced_passes = [], []
    start = time.perf_counter()
    n = 0
    while not run.expired:
        t0 = time.perf_counter()
        plain = run.run_pass(n, traced=False)
        if plain is None:
            break
        passes.append(plain)
        n += 1
        if trace:
            traced = run.run_pass(n, traced=True)
            if traced is None:
                break
            traced_passes.append(traced)
            n += 1
        # stop unless another round of the same length still ends in time
        now = time.perf_counter()
        enough = len(passes) + len(traced_passes) >= MIN_PASSES
        if enough and now - start + (now - t0) > seconds:
            break
    return {"run": run, "setup_s": setup_s, "passes": passes, "traced": traced_passes,
            "measured_s": time.perf_counter() - start}


def end_to_end(res: dict) -> tuple[dict, dict]:
    run, passes = res["run"], res["passes"]
    lats = [x for p in passes for x in p["lats"]]
    values = {
        "setup_s": res["setup_s"],
        "wall_s": statistics.median(p["wall"] for p in passes),
        "op_p50_s": statistics.median(lats),
        "op_tail_s": percentile(lats, run.wl.tail_pct),
        "peak_rss_mb": run.maxrss_kb / 1024,
    }
    notes = {
        "passes": len(passes),
        "op_samples": len(lats),
        "tail": (f"p{run.wl.tail_pct}" if run.wl.tail_pct < 100 else "max")
        + f" of {len(lats)} op samples",
    }
    return values, notes


def per_layer(res: dict) -> tuple[dict, dict]:
    traced = res["traced"]
    ops = [o for p in traced for o in p["ops"] if o is not None]
    values = {}
    for name, _ in PER_LAYER:
        if name in ("cli.start_s", "covers.face_yield", "trace.overhead_pct"):
            continue
        values[name] = sum(o["values"][name] for o in ops) / len(traced)
    values["cli.start_s"] = statistics.median(o["values"]["cli.start_s"] for o in ops)
    enumerated = values["covers.faces_enumerated"]
    values["covers.face_yield"] = values["covers.faces_kept"] / enumerated if enumerated else 0.0
    plain = statistics.median(p["wall"] for p in res["passes"])
    values["trace.overhead_pct"] = 100 * (statistics.median(p["wall"] for p in traced) / plain - 1)
    # largest self times of each op, to show where each verdict's time went
    top = {}
    for o in ops:
        selfs = sorted(o["metrics"]["self"].items(), key=lambda kv: -kv[1])[:4]
        top.setdefault(o["label"], [[n, round(t, 4)] for n, t in selfs])
    notes = {
        "traced_passes": len(traced),
        "face_yield_bases": {"kept": values["covers.faces_kept"],
                             "enumerated": enumerated},
        "top_self_s": top,
    }
    return values, notes


# -- provenance ----------------------------------------------------------------


def provenance(wl: Workload, seed: int, seconds: int, trace: bool) -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "workload": wl.name,
        "why": wl.why,
        "load": "closed loop, 1 client, ops one at a time",
        "waiting_s": 0,
        "ops": [{"label": op.label, "argv": op_argv(op, seed)} for op in wl.ops],
        "instances": wl.instances,
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool, pins: dict) -> bool:
    wl = WORKLOADS[name]
    res = measure(wl, seed, seconds, trace, pins)
    run = res["run"]
    complete = bool(res["passes"]) and (not trace or bool(res["traced"]))
    correct = not run.failures and complete and not run.expired
    for why in run.failures[:20]:
        print(f"perfbench: {name}: FAIL {why}", file=sys.stderr)
    print(f"== {name}  seed {seed}  trace {int(trace)}  measured {res['measured_s']:.1f} s")
    metrics = {}
    if complete:
        if trace:
            values, notes = per_layer(res)
            units = dict(PER_LAYER)
        else:
            values, notes = end_to_end(res)
            units = dict(END_TO_END)
        for metric, value in values.items():
            print(f"  {metric:36s} {value:14.6g} {units[metric]}")
            metrics[metric] = {"value": value, "unit": units[metric]}
        if not all(math.isfinite(m["value"]) for m in metrics.values()):
            correct, metrics = False, {}  # a failed set-up leaves no median
        print(f"  fail_frac {run.failed}/{run.attempted} ops failed")
        print("notes " + json.dumps(notes, sort_keys=True))
    print("provenance " + json.dumps(provenance(wl, seed, seconds, trace), sort_keys=True))
    attempted = max(run.attempted, 1)
    failed = run.failed if correct else max(run.failed, 1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": min(failed, attempted), "metrics": metrics}))
    sys.stdout.flush()
    return correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                    help="one workload (default: suite, nerve-ladder and mv-delta)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "horokit" / "__init__.py").is_file():
        print(f"perfbench: no horokit sources under {SRC}", file=sys.stderr)
        return 2
    # on SIGTERM unwind normally, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.chdir(ROOT)
    WORK.mkdir(exist_ok=True)
    pins = load_pins()
    names = [args.workload] if args.workload else list(BENCHMARK_WORKLOADS)
    ok = True
    for name in names:
        ok &= run_workload(name, args.seed, args.seconds, bool(args.trace), pins)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
