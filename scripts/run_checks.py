#!/usr/bin/env python3
"""Drive the full verdict suite through the CLI, one line per check.

Exit code is 0 when every check passes, 1 otherwise — the same contract as
the individual subcommands.  Reports land in the directory given by --out
(default: ./reports).
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from horokit.cli import run
from horokit.instances import SHIPPED

CHECKS = []
for name in SHIPPED:
    CHECKS.append((f"mv-{name}", ["mv-verify", "--instance", name, "--stage", "0"]))
    CHECKS.append((f"y-{name}", ["y-vanish", "--instance", name, "--stage", "0"]))
    CHECKS.append((f"delta-{name}", ["delta", "--instance", name]))
CHECKS.append(
    (
        "rips-z_horoball",
        ["rips-check", "--instance", "z_horoball", "--diameter", "2", "--low", "1", "--high", "3"],
    )
)
for fixture in ("two_rays", "circle4", "graph6"):
    CHECKS.append((f"cone-{fixture}", ["opencone", "--fixture", fixture]))
CHECKS.append(("milnor", ["milnor-demo"]))

# the CLI's exit codes
STATUS = {0: "pass", 1: "FAIL", 2: "usage-error", 3: "budget-exceeded"}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="reports")
    args = ap.parse_args()
    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    worst = 0
    for label, argv in CHECKS:
        code = run(argv + ["--out", str(outdir / f"{label}.json")])
        status = STATUS.get(code, f"exit {code}")
        print(f"{label:24s} {status}")
        worst = max(worst, code)
    return 0 if worst == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
