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

A second guard does the same for parameters: it fails on a defaulted
parameter of a public function, method or class that no call in ``src/`` or
``scripts/`` passes, by keyword or by position, since such a parameter is a
knob only the tests turn.  Calls are matched by the called name alone, as
above; a call to a class counts for its ``__init__``, or for the fields of a
dataclass.  A third fails on the converse: a defaulted parameter that every
such call passes, so that no program call relies on its default.
"""

import ast
import math
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "horokit"

ALLOWED = {
    "build_vertex_space": "oracle for spaces.build_augmented",
    "word_metric": "oracle for the ball's BFS metric",
    "barycentric_subdivision": "test constructor: homology invariance",
    "from_label_faces": "test constructor for complexes",
    "full_simplex": "test constructor for complexes",
    "adversarial_net": "a deliberately broken net for the covering check",
    "cone_to_json": "writes the cone files that cone_from_json reads",
    "omega_excisive_check": "the excision check of the thick/cusp level split",
    "distance": "pairwise oracle for MetricGraph.multi_source_distances",
}


DEFAULTS_ALLOWED = {
    "complexes.SimplicialComplex.from_label_faces(cap)":
        "test constructor: a cap below the top face",
    "complexes.barycentric_subdivision(times)": "test constructor: iterated subdivision",
}


OVERRIDDEN_ALLOWED = {
    "complexes.SimplicialMap.__init__(name)": "tests build unnamed maps",
    "covers.connecting_map(s)": "only the floor kind takes a floor level",
    "groups.GroupSpec.free_abelian(names)": "test constructor: default generator names",
    "opencone.cone_fixture(levels)": "the benchmark's set-up builds the default fixtures",
    "snf.sparse_diagonal(pivot_rows)": "tests ask for the factors alone",
    "spaces.Truncation(mmax)": "test constructor: a horoball on every coset",
    "spaces.build_augmented(name)": "test constructor: an unnamed space",
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


def _defaulted(fn: ast.FunctionDef, bound: int):
    """(name, position) of each defaulted parameter of a def, the position
    as a call counts it (``bound`` leaves out self) and None for a
    keyword-only one."""
    args = fn.args
    pos = args.posonlyargs + args.args
    first = len(pos) - len(args.defaults)
    out = [(a.arg, i - bound) for i, a in enumerate(pos) if i >= first]
    return out + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]


def _defaulted_fields(cls: ast.ClassDef):
    """(name, position) of each defaulted init field of a dataclass."""
    out, position = [], 0
    for st in cls.body:
        if not (isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)):
            continue
        value = st.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            kw = {k.arg: k.value for k in value.keywords}
            if getattr(kw.get("init"), "value", True) is False:
                continue
            if "default" in kw or "default_factory" in kw:
                out.append((st.target.id, position))
        elif value is not None:
            out.append((st.target.id, position))
        position += 1
    return out


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in cls.decorator_list
    )


def _parameters(path: pathlib.Path):
    """(qualified name, name a call uses, defaulted parameters) of each
    public function, public method and class constructor of one module."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, _defaulted(node, 0)
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        for sub in node.body:
            if isinstance(sub, ast.FunctionDef) and (
                sub.name == "__init__" or not sub.name.startswith("_")
            ):
                static = any(getattr(d, "id", None) == "staticmethod" for d in sub.decorator_list)
                called = node.name if sub.name == "__init__" else sub.name
                yield f"{node.name}.{sub.name}", called, _defaulted(sub, 0 if static else 1)
        if _is_dataclass(node):
            yield node.name, node.name, _defaulted_fields(node)


def _calls(root: pathlib.Path) -> dict[str, list[tuple[float, set]]]:
    """{called name: [(positional arguments, keywords) per call]} over the
    calls in ``src/`` and ``scripts/``; a starred argument stands for every
    position and a ``**`` argument for every keyword (None)."""
    out: dict[str, list[tuple[float, set]]] = {}
    for path in sorted((root / "src" / "horokit").glob("*.py")) + sorted(
        (root / "scripts").glob("*.py")
    ):
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if name is None:
                continue
            n = math.inf if any(isinstance(a, ast.Starred) for a in call.args) else len(call.args)
            out.setdefault(name, []).append((n, {k.arg for k in call.keywords}))
    return out


def _defaults_by_use(root: pathlib.Path, used) -> list[str]:
    """The defaulted parameters under ``root/src/horokit`` for which
    ``used(calls passing it, calls)`` holds, as
    ``module.function(parameter)``."""
    calls = _calls(root)
    out = []
    for path in sorted((root / "src" / "horokit").glob("*.py")):
        for qualified, called, params in _parameters(path):
            each = calls.get(called, [])
            for name, position in params:
                passing = sum(
                    name in keywords or None in keywords
                    or (position is not None and position < n)
                    for n, keywords in each
                )
                if used(passing, len(each)):
                    out.append(f"{path.stem}.{qualified}({name})")
    return sorted(out)


def unset_defaults(root: pathlib.Path = ROOT) -> list[str]:
    """The defaulted parameters that no call in ``src/`` or ``scripts/``
    passes."""
    return _defaults_by_use(root, lambda passing, calls: passing == 0)


def overridden_defaults(root: pathlib.Path = ROOT) -> list[str]:
    """The defaulted parameters that every call in ``src/`` or ``scripts/``
    passes, of functions that some call there reaches."""
    return _defaults_by_use(root, lambda passing, calls: 0 < passing == calls)


def _copy_tree(tmp_path: pathlib.Path) -> pathlib.Path:
    """A copy of ``src/horokit`` and ``scripts/`` under tmp_path; returns the
    package copy."""
    (tmp_path / "src").mkdir()
    copy = tmp_path / "src" / "horokit"
    copy.mkdir()
    for p in PACKAGE.glob("*.py"):
        (copy / p.name).write_text(p.read_text())
    (tmp_path / "scripts").mkdir()
    for p in (ROOT / "scripts").glob("*.py"):
        (tmp_path / "scripts" / p.name).write_text(p.read_text())
    return copy


def test_every_public_name_is_reached_outside_the_tests():
    assert unreached_names() == []


def test_allow_list_names_are_still_defined():
    defined = {n for p in PACKAGE.glob("*.py") for n, _ in _definitions(p)}
    assert sorted(set(ALLOWED) - defined) == []


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    # the allow-listed ones, and no others, are still defaulted and unpassed
    assert unset_defaults() == sorted(DEFAULTS_ALLOWED)


def test_every_defaulted_parameter_is_left_out_by_some_program_call():
    # the allow-listed ones, and no others, are passed by every program call
    assert overridden_defaults() == sorted(OVERRIDDEN_ALLOWED)


def test_guard_flags_a_helper_only_the_tests_call(tmp_path):
    # a copy of the package with one test-only helper added back
    copy = _copy_tree(tmp_path)
    with open(copy / "graphs.py", "a") as fh:
        fh.write("\n\ndef distances_from(graph, v):\n"
                 "    return graph.multi_source_distances([v])\n")
    assert unreached_names(tmp_path) == ["graphs.distances_from"]


def test_guard_flags_a_parameter_only_the_tests_pass(tmp_path):
    # a copy of the package with a per-call vertex budget put back on
    # build_cover, where no program call passes it
    copy = _copy_tree(tmp_path)
    covers = copy / "covers.py"
    head = "def build_cover(space: AugmentedSpace, scale: int"
    text = covers.read_text()
    assert text.count(head + ")") == 1
    covers.write_text(text.replace(head + ")", head + ", budget: int | None = None)"))
    assert unset_defaults(tmp_path) == sorted([*DEFAULTS_ALLOWED, "covers.build_cover(budget)"])


def test_guard_flags_a_default_every_program_call_overrides(tmp_path):
    # a copy of the package with the nerve cap's default put back on
    # covers.nerve, where its one program call passes the cap
    copy = _copy_tree(tmp_path)
    covers = copy / "covers.py"
    head = "def nerve(family: Family, cap: int"
    text = covers.read_text()
    assert text.count(head + ",") == 1
    covers.write_text(text.replace(head + ",", head + " = 3,"))
    assert overridden_defaults(tmp_path) == sorted([*OVERRIDDEN_ALLOWED, "covers.nerve(cap)"])
