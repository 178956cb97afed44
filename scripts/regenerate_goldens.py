#!/usr/bin/env python3
"""Regenerate the golden report files under tests/goldens/.

Run from the repository root after an intentional report-format change:

    python3 scripts/regenerate_goldens.py

It rewrites the half-line tower report and the wide-horoball delta report;
both take well under a second.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from horokit.hyperbolicity import four_point_delta
from horokit.mv import milnor_counterexample_demo
from horokit.spaces import build_horoball, interval_points

GOLDENS = pathlib.Path(__file__).resolve().parents[1] / "tests" / "goldens"


def write(path: pathlib.Path, report: dict) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def main() -> int:
    GOLDENS.mkdir(parents=True, exist_ok=True)

    write(GOLDENS / "milnor_demo.json", milnor_counterexample_demo())

    hb = build_horoball(interval_points(-32, 32), lambda p, q: abs(p - q), (0, 5), lmax=5)
    est = four_point_delta(hb, truncation={"base": [-32, 32], "levels": [0, 5]})
    write(GOLDENS / "horoball_delta.json", est.as_dict())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
