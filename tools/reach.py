"""Which functions of src/kleppner the shipped paths reach.

Under a ``sys.setprofile`` hook this runs, in one process:

* the shipped fixtures through ``kleppner.cli.main``, in ``json`` and in
  ``text``;
* every demo under ``demos/``;
* one seed-1 pass of each perfbench workload: its set-up, then ``run``,
  ``canon``, ``check`` and ``queries`` on every item, as the first pass of
  ``perfbench/run.py`` does.

It then prints how many functions ``src/kleppner`` defines, how many were
never entered, the lines those span, and one line per unreached function.
A function counts as reached when its code object was entered at least once.

    python3 tools/reach.py

It reads no file it writes and writes none.  No timed run calls it; the
tier-1 CI workflow runs it and fails when the ``unreached:`` count rises
above the ceiling that workflow step names.
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "kleppner"
SEED = 1


def defined_functions() -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line) -> (qualified name, lines) for every ``def`` in the
    package.  The first line is that of the first decorator, as in
    ``co_firstlineno``; the lines run from the ``def`` line to the end of
    the body.  A nested function is also counted on its own."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    name = f"{prefix}{child.name}"
                    out[str(path), first] = (f"{module}:{name}", child.end_lineno - child.lineno + 1)
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def shipped_paths() -> None:
    from kleppner import cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for fixture in sorted((ROOT / "fixtures").glob("*.tomlish")):
            for fmt in ("json", "text"):
                cli.main(["--input", str(fixture), "--format", fmt])
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for name, make in workloads.WORKLOADS.items():
        wl = make(ROOT, SEED)
        canons = []
        for i, item in enumerate(wl.items):
            raw = wl.run(item)
            canons.append(wl.canon(item, raw))
            problems = wl.check(i, item, raw, canons)
            if problems:
                raise SystemExit(f"{name} item {i}: {problems[0]}")
            wl.queries(item, raw)


def main() -> int:
    sys.path.insert(0, str(SRC))
    functions = defined_functions()
    entered = set()
    package = str(PACKAGE)

    def hook(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(package):
                entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(hook)
    try:
        shipped_paths()
    finally:
        sys.setprofile(None)

    unreached = sorted((key, functions[key]) for key in functions.keys() - entered)
    print(f"functions: {len(functions)}")
    print(f"unreached: {len(unreached)}")
    print(f"unreached lines: {sum(lines for _key, (_name, lines) in unreached)}")
    for (path, line), (name, lines) in unreached:
        print(f"  {Path(path).relative_to(ROOT)}:{line} {name} ({lines} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
