"""One benchmark process: a CLI verdict, or the set-up of a workload's instances.

    python child.py SRC op TRACE_PATH|- OP_ID CLI_ARG...
    python child.py SRC setup FIXTURES_JSON

``SRC`` is the checkout's ``src`` directory; the child refuses to run against
any other copy of horokit.  An op runs ``horokit.cli.run`` on the arguments,
as ``python -m horokit.cli`` would, and exits with its code.  With a trace
path it first wraps every horokit module (see ``tracer.py``) and writes the
spans there when the verdict is done.  Set-up imports the CLI and builds
every instance and cone fixture the workload names.
"""

import importlib.util
import json
import os
import sys
import time


def _check_source(src: str) -> None:
    """Locate horokit without importing it, so the import is timed with the op."""
    spec = importlib.util.find_spec("horokit")
    if spec is None or spec.origin is None:
        raise SystemExit(f"perfbench child: horokit not importable, expected under {src}")
    where = os.path.dirname(os.path.realpath(spec.origin))
    if where != os.path.join(os.path.realpath(src), "horokit"):
        raise SystemExit(f"perfbench child: horokit found in {where}, not under {src}")


def _op(trace_path: str, op_id: str, argv: list[str]) -> int:
    if trace_path == "-":
        import horokit.cli

        return horokit.cli.run(argv)
    started = time.perf_counter()
    from tracer import Tracer, install  # the tracer's own import is tracing cost

    tr = Tracer(op_id)
    tr.end(tr.begin(tr.name_id("trace.install"), started))
    rec = tr.begin(tr.name_id("cli.import"))
    import horokit.cli

    tr.end(rec)
    rec = tr.begin(tr.name_id("trace.install"))
    install(tr)
    tr.end(rec)

    try:
        return horokit.cli.run(argv)
    finally:
        sys.stdout.flush()
        tr.write(trace_path)


def _setup(fixtures: list) -> int:
    import horokit.cli  # noqa: F401  (every op pays this import)
    from horokit.instances import resolve_instance
    from horokit.opencone import cone_fixture

    for kind, name in fixtures:
        if kind == "instance":
            resolve_instance(name)
        elif kind == "cone":
            cone_fixture(name)
        else:
            raise SystemExit(f"perfbench child: unknown fixture kind {kind!r}")
    return 0


def main() -> int:
    src, mode = sys.argv[1], sys.argv[2]
    _check_source(src)
    if mode == "op":
        return _op(sys.argv[3], sys.argv[4], sys.argv[5:])
    if mode == "setup":
        return _setup(json.loads(sys.argv[3]))
    raise SystemExit(f"perfbench child: unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
