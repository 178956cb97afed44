"""Every public function, class and method in ``src/horokit`` is reached by
the program, not only by the tests.

The guard walks ``src/horokit/*.py`` with ``ast``, collecting top-level
functions and classes and the methods of those classes, and fails on a name
that occurs, as a whole word, nowhere in ``src/`` or ``scripts/`` apart from
its own ``def`` or ``class`` line.  The search is by name alone, so names
shared between classes hide each other: one caller of ``MetricGraph.to_json``
counts for every other ``to_json``, and a local variable or a word in a
docstring counts as a use too.  The guard catches test-only code that
nothing in the program names, not every test-only method.

The allow-list holds the labelled oracles and test constructors that stay on
purpose; each entry says why.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "horokit"

ALLOWED = {
    "build_vertex_space": "oracle for spaces.build_augmented",
    "word_metric": "oracle for groups.WordBall's syllable metric",
    "barycentric_subdivision": "test constructor: homology invariance",
    "from_label_faces": "test constructor for complexes",
    "full_simplex": "test constructor for complexes",
    "adversarial_net": "a deliberately broken net for the covering check",
    "cone_to_json": "writes the cone files that cone_from_json reads",
    "omega_excisive_check": "the excision check of the thick/cusp level split",
    "distance": "pairwise oracle for MetricGraph.multi_source_distances",
}


def _definitions(path: pathlib.Path):
    """(name, line) of the public top-level functions and classes of one
    module and of the methods of its classes."""
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield sub.name, sub.lineno


def unreached_names(root: pathlib.Path = ROOT) -> list[str]:
    """The public names defined under ``root/src/horokit`` that nothing in
    ``src/`` or ``scripts/`` names, allow-list aside, as ``module.name``."""
    package = root / "src" / "horokit"
    modules = sorted(package.glob("*.py"))
    defs = {p: list(_definitions(p)) for p in modules}
    lines = {
        p: p.read_text().splitlines()
        for p in modules + sorted((root / "scripts").glob("*.py"))
    }
    out = []
    for path, names in defs.items():
        for name, lineno in names:
            if name.startswith("_") or name in ALLOWED:
                continue
            word = re.compile(rf"\b{name}\b")
            own = {(q, n) for q, ds in defs.items() for m, n in ds if m == name}
            if not any(
                (q, n) not in own and word.search(line)
                for q, text in lines.items()
                for n, line in enumerate(text, 1)
            ):
                out.append(f"{path.stem}.{name}")
    return out


def test_every_public_name_is_reached_outside_the_tests():
    assert unreached_names() == []


def test_allow_list_names_are_still_defined():
    defined = {n for p in PACKAGE.glob("*.py") for n, _ in _definitions(p)}
    assert sorted(set(ALLOWED) - defined) == []


def test_guard_flags_a_helper_only_the_tests_call(tmp_path):
    # a copy of the package with one test-only helper added back
    (tmp_path / "src").mkdir()
    copy = tmp_path / "src" / "horokit"
    copy.mkdir()
    for p in PACKAGE.glob("*.py"):
        (copy / p.name).write_text(p.read_text())
    (tmp_path / "scripts").mkdir()
    for p in (ROOT / "scripts").glob("*.py"):
        (tmp_path / "scripts" / p.name).write_text(p.read_text())
    with open(copy / "graphs.py", "a") as fh:
        fh.write("\n\ndef distances_from(graph, v):\n"
                 "    return graph.multi_source_distances([v])\n")
    assert unreached_names(tmp_path) == ["graphs.distances_from"]
