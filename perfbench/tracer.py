"""Span tracing of horokit from outside the package, and the analysis of its traces.

The child side (``Tracer`` and ``install``) rebinds the public functions of
every ``horokit.*`` module, in every module namespace that holds them (so
names re-imported with ``from .x import y`` are covered too), plus the public
methods, and the ``__init__`` of non-dataclasses, of the classes those modules
define.  Each call becomes a span ``(name id, start, end, parent span)``;
spans stay in memory and are written once, after the verdict, with the op id.  Generators get no span (their work interleaves
with the caller's); ``covers.iter_faces`` is counted per yield instead.

The parent side (``op_metrics``) turns one op's trace into self times,
inclusive times and counts.  This module owns the trace format: nothing else
reads or writes it.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import pkgutil
import time
from array import array
from collections import Counter, defaultdict

SCHEMA = "perfbench-trace/1"

# private methods that carry a layer's work and get a span anyway
PRIVATE_SPANS = {"graphs.MetricGraph._bfs_row", "snf.LazyLattice._absorb"}
# generators counted per yield instead of spanned
YIELD_COUNTERS = {"covers.iter_faces": "covers.faces_enumerated"}


class Tracer:
    """In-memory span store for one op (one child process).

    Spans live in four parallel arrays (name id, start, end, parent index);
    ``perf_counter`` is the monotonic clock the parent times ops with.
    """

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.nids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stack: list[int] = [-1]
        self.counts: Counter = Counter()
        self.boundary_pairs: set = set()
        self.residue_rank = 0

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int, start: float | None = None) -> int:
        idx = len(self.starts)
        self.nids.append(nid)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter() if start is None else start)
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def parent_name(self) -> str | None:
        """Name of the span enclosing the innermost open span."""
        if len(self.stack) < 3:
            return None
        return self.names[self.nids[self.stack[-2]]]

    def write(self, path: str) -> None:
        """One JSON header line, then the four span arrays in native layout."""
        counts = dict(self.counts)
        counts["complexes.boundary.distinct"] = len(self.boundary_pairs)
        header = {"schema": SCHEMA, "op": self.op_id, "names": self.names,
                  "counts": counts, "spans": len(self.starts)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.nids, self.starts, self.ends, self.parents):
                arr.tofile(fh)


# -- counting hooks -----------------------------------------------------------
# A hook sees the call's arguments (pre) or its result (post).  Hooks only
# read; a hook that raises is counted and ignored, so a later change to a
# function's signature cannot change what the program does under tracing.


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _shape_cells(a) -> int:
    shape = getattr(a, "shape", None)
    if shape is None:
        rows = len(a)
        return rows * (len(a[0]) if rows else 0)
    cells = 1
    for s in shape:
        cells *= s
    return cells


def _pre_bfs_row(tr, fn, args, kwargs):
    graph, src = args[0], args[1]
    if src not in graph._rows:
        tr.counts["graphs.bfs_rows"] += 1


def _pre_boundary(tr, fn, args, kwargs):
    tr.boundary_pairs.add((id(args[0]), _bind(fn, args, kwargs)["p"]))


def _pre_sparse_diagonal(tr, fn, args, kwargs):
    tr.residue_rank = 0


def _post_sparse_diagonal(tr, fn, args, kwargs, result):
    diag, rank = result
    tr.counts["snf.unit_pivots"] += rank - tr.residue_rank


def _post_smith(tr, fn, args, kwargs, result):
    cells = _shape_cells(args[0])
    tr.counts["snf.smith_cells"] += cells
    if tr.parent_name() == "snf.sparse_diagonal":
        tr.counts["snf.residue_cells"] += cells
        tr.residue_rank = len(result.diag)


def _post_build_augmented(tr, fn, args, kwargs, result):
    tr.counts["spaces.vertices"] += len(result.graph)


def _post_build_cover(tr, fn, args, kwargs, result):
    tr.counts["covers.columns"] += len(result)


def _post_nerve(tr, fn, args, kwargs, result):
    tr.counts["covers.faces_kept"] += sum(len(fs) for fs in result.faces)


def _post_four_point_delta(tr, fn, args, kwargs, result):
    bound = _bind(fn, args, kwargs)
    if bound["mode"] == "sampled":
        tr.counts["hyperbolicity.cells"] += int(bound["samples"])
    else:
        tr.counts["hyperbolicity.cells"] += len(bound["graph"]) ** 4


PRE_HOOKS = {
    "graphs.MetricGraph._bfs_row": _pre_bfs_row,
    "complexes.SimplicialComplex.boundary_columns": _pre_boundary,
    "complexes.SimplicialComplex.boundary_dense": _pre_boundary,
    "snf.sparse_diagonal": _pre_sparse_diagonal,
}
POST_HOOKS = {
    "snf.sparse_diagonal": _post_sparse_diagonal,
    "snf.smith_normal_form": _post_smith,
    "spaces.build_augmented": _post_build_augmented,
    "covers.build_cover": _post_build_cover,
    "covers.nerve": _post_nerve,
    "hyperbolicity.four_point_delta": _post_four_point_delta,
}


# -- wrappers -------------------------------------------------------------------


def _span_wrapper(tr: Tracer, name: str, fn):
    layer = name.split(".", 1)[0]
    pre, post = PRE_HOOKS.get(name), POST_HOOKS.get(name)
    begin, end, counts = tr.begin, tr.end, tr.counts
    nid = tr.name_id(name)
    errors_key = f"{layer}.errors"

    def run_hook(hook, *extra):
        try:
            hook(tr, fn, *extra)
        except Exception:
            counts["trace.hook_errors"] += 1

    if pre is None and post is None:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = begin(nid)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                counts[errors_key] += 1
                raise
            finally:
                end(rec)

        return wrapper

    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        rec = begin(nid)
        try:
            if pre is not None:
                run_hook(pre, args, kwargs)
            result = fn(*args, **kwargs)
            if post is not None:
                run_hook(post, args, kwargs, result)
            return result
        except BaseException:
            counts[errors_key] += 1
            raise
        finally:
            end(rec)

    return hooked


def _yield_counter(tr: Tracer, key: str, fn):
    counts = tr.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        n = 0
        try:
            for item in fn(*args, **kwargs):
                n += 1
                yield item
        finally:
            counts[key] += n

    return wrapper


def _wrap(tr: Tracer, name: str, fn):
    if name in YIELD_COUNTERS:
        return _yield_counter(tr, YIELD_COUNTERS[name], fn)
    if inspect.isgeneratorfunction(fn):
        return None
    return _span_wrapper(tr, name, fn)


def _wrap_class(tr: Tracer, layer: str, cls) -> None:
    is_data = dataclasses.is_dataclass(cls)
    for attr, val in list(vars(cls).items()):
        name = f"{layer}.{cls.__name__}.{attr}"
        if attr == "__init__":
            wanted = not is_data and inspect.isfunction(val)
        else:
            wanted = not attr.startswith("_") or name in PRIVATE_SPANS
        if not wanted:
            continue
        if isinstance(val, (staticmethod, classmethod)):
            w = _wrap(tr, name, val.__func__)
            if w is not None:
                setattr(cls, attr, type(val)(w))
        elif inspect.isfunction(val):
            w = _wrap(tr, name, val)
            if w is not None:
                setattr(cls, attr, w)


def install(tr: Tracer) -> None:
    """Import every horokit module and rebind its public callables to spans."""
    import horokit

    modules = [
        importlib.import_module(f"horokit.{info.name}")
        for info in pkgutil.iter_modules(horokit.__path__)
    ]
    wrappers: dict[int, object] = {}  # id of original -> wrapper (which holds it)
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                _wrap_class(tr, layer, obj)
            elif inspect.isfunction(obj) and not attr.startswith("_"):
                w = _wrap(tr, f"{layer}.{attr}", obj)
                if w is not None:
                    wrappers[id(obj)] = w
    for mod in [horokit, *modules]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])


# -- parent side: one op's trace to metrics -------------------------------------


def load(path: str) -> dict:
    """A trace as ``names``, ``counts`` and ``spans``: a list of
    ``(name id, start, end, parent index)``, parent -1 at the top."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        if header.get("schema") != SCHEMA:
            raise ValueError(f"{path}: not a {SCHEMA} trace")
        n = header["spans"]
        arrays = []
        for code in ("i", "d", "d", "i"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    header["spans"] = list(zip(*arrays))
    return header


def op_metrics(trace: dict, wall: float) -> dict:
    """Self time per span name and per layer, outermost-inclusive time per
    span name, call counts, the program's counters, and ``unattributed``:
    the op's wall time not inside any span."""
    names = trace["names"]
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_by_name: dict[str, float] = defaultdict(float)
    incl_by_name: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    top = 0.0
    for i, (nid, start, end, parent) in enumerate(spans):
        name = names[nid]
        dur = end - start
        self_by_name[name] += dur - child[i]
        calls[name] += 1
        if parent < 0:
            top += dur
        # inclusive time counts only the outermost span of a recursive name
        p = parent
        while p >= 0 and spans[p][0] != nid:
            p = spans[p][3]
        if p < 0:
            incl_by_name[name] += dur
    self_by_layer: dict[str, float] = defaultdict(float)
    for name, t in self_by_name.items():
        self_by_layer[name.split(".", 1)[0]] += t
    return {
        "wall": wall,
        "self": dict(self_by_name),
        "incl": dict(incl_by_name),
        "layer_self": dict(self_by_layer),
        "calls": dict(calls),
        "counts": dict(trace["counts"]),
        "unattributed": wall - top,
        "spans": len(spans),
    }
