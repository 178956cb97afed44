#!/usr/bin/env python3
"""Write ``pins.json``: each op's exit code and report sha256 at this commit.

    python3 perfbench/pin.py

Every pinned op runs twice, under ``PYTHONHASHSEED`` 0 and 1, and must give
the same bytes both times.  A sampled delta depends on the run's seed, so it
pins no digest; it pins the exhaustive delta of the same graph, which the
sampled value may not exceed.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import run as bench


def main() -> int:
    os.chdir(bench.ROOT)
    bench.WORK.mkdir(exist_ok=True)
    pins: dict = {}
    for wl in bench.WORKLOADS.values():
        bench.write_instances(wl)
        wl_pins = pins[wl.name] = {}
        reports = {}
        for op in wl.ops:
            if op.sampled_of is not None:
                continue
            runs = []
            for hash_seed in ("0", "1"):
                env = dict(bench.child_env(), PYTHONHASHSEED=hash_seed)
                p = bench.spawn(["op", "-", "pin", *bench.op_argv(op, 0)], env, 600)
                if p.timed_out or b"Traceback" in p.stderr:
                    print(f"{op.label}: failed\n{p.stderr.decode()}", file=sys.stderr)
                    return 1
                runs.append((p.code, hashlib.sha256(p.stdout).hexdigest()))
            if runs[0] != runs[1]:
                print(f"{op.label}: report depends on PYTHONHASHSEED", file=sys.stderr)
                return 1
            code, digest = runs[0]
            wl_pins[op.label] = {"exit": code, "sha256": digest}
            reports[op.label] = p.stdout
            print(f"{wl.name:14s} {op.label:28s} exit {code} {digest[:16]} {p.wall:.2f} s")
        for op in wl.ops:
            if op.sampled_of is not None:
                delta = json.loads(reports[op.sampled_of])["result"]["delta"]
                wl_pins[op.label] = {"exit": 0, "max_delta": delta}
    with open(bench.PINS, "w") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
