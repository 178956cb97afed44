"""Command-line front end: build spaces, run checks, emit reports.

Reports are deterministic JSON (sorted keys, no timestamps) embedding the
full run configuration; identical configurations produce identical bytes.
Exit codes: 0 all verdicts pass, 1 some verdict failed, 2 usage or file
error, 3 a resource budget exceeded.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .covers import SCHEDULES, decompose, nerve
from .errors import BudgetExceededError, vertex_budget
from .graphs import MetricGraph
from .homology import homology_type
from .hyperbolicity import four_point_delta
from .instances import BUILDERS, resolve_instance
from .mv import (
    assemble_mv,
    check_mv_exactness,
    cluster_check,
    milnor_counterexample_demo,
    y_vanishing_check,
)
from .opencone import band_cover_check, build_net, cone_cover_tower, cone_fixture, tower_budget
from .rips import remark_decomposition_check
from .spaces import Truncation, build_augmented
from .groups import GroupSpec

SCHEMA = "horokit-report/1"


def _write(chunks: Iterable[str], out: str | None) -> None:
    """Write the report's text, given in consecutive pieces."""
    fh = open(out, "w") if out else sys.stdout
    try:
        for chunk in chunks:
            fh.write(chunk)
    finally:
        if out:
            fh.close()


def _dump(report: dict, out: str | None) -> None:
    _write((json.dumps(report, indent=2, sort_keys=True) + "\n",), out)


# stands in for a nerve report's face lists while json encodes the rest
_FACES = "\0faces\0"
_FACE_BLOCK = 1 << 16  # faces formatted per written piece


def _face_lists(faces: list[np.ndarray]) -> Iterator[str]:
    """The face lists as ``json.dumps(..., indent=2)`` writes them one level
    into a report, in pieces of at most ``_FACE_BLOCK`` faces, each piece
    from one format string.  (The stdlib encoder indents in pure Python, one
    token at a time, and took most of the time and memory of exporting a
    nerve of a million faces; one piece at a time, the text never holds more
    than a block.)"""
    yield "[\n    "
    for p, fs in enumerate(faces):
        if p:
            yield ",\n    "
        if not len(fs):
            yield "[]"
            continue
        face = "[\n" + ",\n".join(["        %d"] * fs.shape[1]) + "\n      ]"
        for k in range(0, len(fs), _FACE_BLOCK):
            block = fs[k : k + _FACE_BLOCK]
            yield ("[\n      " if k == 0 else ",\n      ") + ",\n      ".join(
                [face] * len(block)
            ) % tuple(block.ravel().tolist())
        yield "\n    ]"
    yield "\n  ]"


def _report(command: str, config: dict, body: dict) -> dict:
    return {"schema": SCHEMA, "command": command, "config": config, **body}


def _load_graph_or_instance(args):
    """--instance accepts a registered name, an instance config, or a graph file."""
    name = args.instance
    if name in BUILDERS:
        return resolve_instance(name)
    with open(name) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and data.get("format") == "horokit-graph":
        return MetricGraph.from_json(data)
    return resolve_instance(name)


def _cmd_build_augmented(args) -> int:
    if args.group is None and args.instance is None:
        print("horokit: build-augmented needs --instance or --group", file=sys.stderr)
        return 2
    if args.group is None:
        space = resolve_instance(args.instance)
    else:
        spec, peripherals = GroupSpec.from_config(args.group)
        trunc = Truncation(rg=args.rg, lmax=args.lmax, mmax=args.mmax)
        space = build_augmented(spec, peripherals, trunc, name=args.group)
    if args.format == "dot":
        _write((space.graph.to_dot(),), args.out)
        return 0
    report = _report(
        "build-augmented",
        {"instance": space.describe(), "budget": vertex_budget()},
        {
            "graph": space.graph.to_json(),
            "cosets": [[e.index, e.rep, e.slot] for e in space.table.entries],
        },
    )
    _dump(report, args.out)
    if args.cosets_out:
        space.table.to_csv(args.cosets_out)
    return 0


def _cmd_delta(args) -> int:
    obj = _load_graph_or_instance(args)
    graph = obj if isinstance(obj, MetricGraph) else obj.graph
    trunc = dict(graph.meta) if isinstance(obj, MetricGraph) else obj.trunc.as_dict()
    est = four_point_delta(
        graph, mode=args.mode, samples=args.samples, seed=args.seed, truncation=trunc
    )
    report = _report(
        "delta",
        {"instance": args.instance, "mode": args.mode, "seed": args.seed},
        {"result": est.as_dict()},
    )
    _dump(report, args.out)
    return 0


def _family(args):
    """The --family of the stage decomposition."""
    space = resolve_instance(args.instance)
    dec = decompose(space, args.stage, SCHEDULES[args.schedule])
    return getattr(dec, args.family)


def _cmd_nerve(args) -> int:
    fam = _family(args)
    cx = nerve(fam, cap=args.dimcap, facet_tables=False)  # faces only
    report = _report(
        "nerve",
        {
            "instance": args.instance,
            "stage": args.stage,
            "schedule": args.schedule,
            "family": args.family,
            "dimcap": args.dimcap,
        },
        {
            "columns": len(fam),
            "faces": _FACES,
            "face_counts": [cx.n_faces(p) for p in range(args.dimcap + 1)],
        },
    )
    head, tail = (json.dumps(report, indent=2, sort_keys=True) + "\n").split(
        json.dumps(_FACES), 1
    )
    _write(itertools.chain((head,), _face_lists(cx.faces), (tail,)), args.out)
    return 0


def _cmd_homology(args) -> int:
    if not 0 <= args.degree <= args.dimcap:  # refused before any build
        raise ValueError(f"homology --degree {args.degree} is outside 0..{args.dimcap}, "
                         f"the nerve's --dimcap")
    cx = nerve(_family(args), cap=args.dimcap)
    groups = {
        str(p): homology_type(cx, p).as_dict() for p in range(args.degree + 1)
    }
    report = _report(
        "homology",
        {
            "instance": args.instance,
            "stage": args.stage,
            "schedule": args.schedule,
            "family": args.family,
            "dimcap": args.dimcap,
            "degree": args.degree,
        },
        {"homology": groups},
    )
    _dump(report, args.out)
    return 0


def _cmd_mv_verify(args) -> int:
    space = resolve_instance(args.instance)
    schedule = SCHEDULES[args.schedule]
    stage = assemble_mv(space, args.stage, schedule, cap=args.dimcap)
    verdict = check_mv_exactness(stage)
    cluster = cluster_check(space, args.stage, schedule, cap=args.dimcap)
    report = _report(
        "mv-verify",
        {
            "instance": args.instance,
            "stage": args.stage,
            "schedule": args.schedule,
            "dimcap": args.dimcap,
            "window": stage.window_size,
        },
        {"mv": verdict.as_dict(), "cluster": cluster.as_dict()},
    )
    _dump(report, args.out)
    return 0 if verdict.all_exact and cluster.ok else 1


def _cmd_y_vanish(args) -> int:
    space = resolve_instance(args.instance)
    schedule = SCHEDULES[args.schedule]
    rep = y_vanishing_check(space, args.stage, schedule)
    report = _report(
        "y-vanish",
        {"instance": args.instance, "stage": args.stage, "schedule": args.schedule},
        {"vanishing": rep.as_dict()},
    )
    _dump(report, args.out)
    return 0 if rep.all_zero else 1


def _cmd_rips_check(args) -> int:
    obj = _load_graph_or_instance(args)
    graph = obj if isinstance(obj, MetricGraph) else obj.graph
    res = remark_decomposition_check(
        graph, args.diameter, args.low, args.high, cap=args.dimcap
    )
    report = _report(
        "rips-check",
        {
            "instance": args.instance,
            "diameter": args.diameter,
            "low": args.low,
            "high": args.high,
            "dimcap": args.dimcap,
        },
        {"result": res.as_dict(), "hypothesis_holds": args.low + args.diameter <= args.high},
    )
    _dump(report, args.out)
    return 0 if res.ok else 1


def _cmd_opencone(args) -> int:
    if args.fixture.endswith(".json"):
        from .opencone import cone_from_json

        with open(args.fixture) as fh:
            cone = cone_from_json(json.load(fh))
    else:
        cone = cone_fixture(args.fixture, levels=args.levels)
    levels = cone.levels
    tower_budget(cone, args.imax)  # refused from the grid, before any net
    nets = [build_net(cone, n) for n in range(1, levels + 1)]
    bands = [band_cover_check(cone, nets[n - 1], n) for n in range(1, levels + 1)]
    tower = cone_cover_tower(cone, nets, args.imax)
    ok = all(n.covered for n in nets) and all(bands) and all(tower.covering)
    report = _report(
        "opencone",
        {"fixture": args.fixture, "levels": levels, "imax": args.imax},
        {
            "distortion": cone.distortion,
            "nets": [n.as_dict() for n in nets],
            "band_covering": bands,
            "tower": tower.as_dict(),
        },
    )
    _dump(report, args.out)
    return 0 if ok else 1


def _cmd_milnor_demo(args) -> int:
    report = milnor_counterexample_demo()
    _dump(report, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="horokit",
        description="horoball spaces, cover nerves, and homology-tower checks",
    )
    p.add_argument("--version", action="version", version=f"horokit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    shared = {
        "--schedule": {"choices": sorted(SCHEDULES), "default": "paper"},
        "--dimcap": {"type": int, "default": 2},
        "--seed": {"type": int, "default": 0},
    }

    def common(sp, *options):
        # --instance and --out, plus the shared options the handler reads
        sp.add_argument("--instance", required=True, help="name or config path")
        for opt in options:
            sp.add_argument(opt, **shared[opt])
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("build-augmented", help="build a truncated augmented space")
    sp.add_argument("--instance", default=None, help="registered name or config path")
    sp.add_argument("--group", default=None, help="group config path (with --rg/--lmax)")
    sp.add_argument("--rg", type=int, default=2)
    sp.add_argument("--lmax", type=int, default=3)
    sp.add_argument("--mmax", type=int, default=None)
    sp.add_argument("--format", choices=["json", "dot"], default="json")
    sp.add_argument("--cosets-out", default=None, help="write the coset table as CSV")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_build_augmented)

    sp = sub.add_parser("delta", help="four-point hyperbolicity constant")
    common(sp, "--seed")
    sp.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    sp.add_argument("--samples", type=int, default=100_000)
    sp.set_defaults(func=_cmd_delta)

    sp = sub.add_parser("nerve", help="export a cover-family nerve")
    common(sp, "--schedule", "--dimcap")
    sp.add_argument("--stage", type=int, default=0)
    sp.add_argument(
        "--family", choices=["whole", "thick", "cusp", "interface"], default="whole"
    )
    sp.set_defaults(func=_cmd_nerve)

    sp = sub.add_parser("homology", help="homology of a cover-family nerve")
    common(sp, "--schedule", "--dimcap")
    sp.add_argument("--stage", type=int, default=0)
    sp.add_argument(
        "--family", choices=["whole", "thick", "cusp", "interface"], default="whole"
    )
    sp.add_argument("--degree", type=int, default=1)
    sp.set_defaults(func=_cmd_homology)

    sp = sub.add_parser("mv-verify", help="stage exactness and cluster verdicts")
    common(sp, "--schedule", "--dimcap")
    sp.add_argument("--stage", type=int, default=0)
    sp.set_defaults(func=_cmd_mv_verify)

    sp = sub.add_parser("y-vanish", help="cusp tower vanishing verdict")
    common(sp, "--schedule")
    sp.add_argument("--stage", type=int, default=0)
    sp.set_defaults(func=_cmd_y_vanish)

    sp = sub.add_parser("rips-check", help="window decomposition of a Rips complex")
    common(sp, "--dimcap")
    sp.add_argument("--diameter", type=int, required=True)
    sp.add_argument("--low", type=int, required=True)
    sp.add_argument("--high", type=int, required=True)
    sp.set_defaults(func=_cmd_rips_check)

    sp = sub.add_parser("opencone", help="cone nets, band covers, nerve tower")
    sp.add_argument("--fixture", default="two_rays")
    sp.add_argument("--levels", type=int, default=4)
    sp.add_argument("--imax", type=int, default=3)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_opencone)

    sp = sub.add_parser("milnor-demo", help="half-line tower demonstration report")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_milnor_demo)

    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0,) else 0
    try:
        return args.func(args)
    except (OSError, KeyError, ValueError) as e:
        print(f"horokit: {e}", file=sys.stderr)
        return 2
    except BudgetExceededError as e:
        print(f"horokit: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
