"""List the functions of ``src/smosim`` that no golden case and no CLI command enters.

    PYTHONPATH=src python tests/golden/reach.py

It runs every golden case and builds its pinned outputs, as ``repin.py``
does, then ``smosim run``, ``smosim compare`` and ``smosim validate`` on two
golden configs (``b_online_search`` and ``c_share_models``). ``sys.settrace``
records each function of ``src/smosim`` that any of them enters; it traces
calls only, so the runs stay fast and no package beyond the standard library
is needed. The smosim import is traced too, so a function that only the
import calls counts as reached.

It prints one ``path:line qualname`` per function (a method, a nested
function, but no lambda) that nothing entered, then a count. A function on
the list is one that only tests call, or nothing: a candidate to delete, or
a path to pin with a golden case. :data:`UNREACHED` names each function that
is expected on the list and why it stays; ``tests/test_golden.py`` checks
that the printed list is exactly that one.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path
from types import CodeType, FrameType

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "smosim"
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]

_LOG_REBUILD = "the log-rebuild API, which the golden rebuild check and the invariants read"

# (path, qualname) of each function that no golden case and no CLI command
# enters -> why it stays
UNREACHED: dict[tuple[str, str], str] = {
    ("src/smosim/config.py", "DerivedFeature.column_name"):
        "names a derived-feature option that no golden sets but users can",
    ("src/smosim/config.py", "_interfaces"):
        "parses the interface latency and overhead option that no golden sets but users can",
    ("src/smosim/errors.py", "ConfigError.__init__"): "raised only on bad configs",
    ("src/smosim/learn.py", "StumpParams.to_list"): "serialises a stump artifact",
    ("src/smosim/learn.py", "loss_gradient"): "the SGD kernel tests' reference",
    ("src/smosim/scenarios.py", "RunResult.registry"): "bench/rep.py reads it",
    ("src/smosim/topology.py", "ComponentId.__reduce__"):
        "only tests pickle an id; a candidate to delete",
    ("src/smosim/topology.py", "Event.from_json"): _LOG_REBUILD,
    ("src/smosim/topology.py", "EventLog.append"): _LOG_REBUILD,
    ("src/smosim/topology.py", "EventLog.of_type"): _LOG_REBUILD,
    ("src/smosim/topology.py", "_Entries.__iter__"): _LOG_REBUILD,
    ("src/smosim/topology.py", "_Entries.__eq__"): _LOG_REBUILD,
    ("src/smosim/topology.py", "Simulation.signaling_table"):
        "bench/tracing.py's TRACED wraps it, and Tracer.install raises KeyError without it",
}

_entered: set[tuple[str, str]] = set()  # (file, qualname) of each code object called


def _trace(frame: FrameType, event: str, arg: object) -> None:
    code: CodeType = frame.f_code
    if code.co_filename.startswith(str(SRC)):
        _entered.add((code.co_filename, code.co_qualname))
    return None  # no line events


def defined(path: Path) -> list[tuple[int, str]]:
    """(line, qualname) of each function and method that ``path`` defines."""
    found: list[tuple[int, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((child.lineno, prefix + child.name))
                visit(child, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def _exercise() -> None:
    """Every golden case, then the three CLI commands, with their output discarded."""
    from golden.cases import CASES, pinned, run_case
    from smosim import cli

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        work = Path(tmp)
        for name in CASES:
            case_dir = work / name
            case_dir.mkdir()
            pinned(run_case(name, case_dir))
            (case_dir / "config.json").write_text(json.dumps(CASES[name](case_dir)))
        first, second = (str(work / name / "config.json")
                         for name in ("b_online_search", "c_share_models"))
        cli.main(["run", "--config", first, "--out", str(work / "run")])
        cli.main(["compare", "--configs", first, second, "--out", str(work / "compare")])
        cli.main(["validate", "--config", first])


def main() -> int:
    sys.settrace(_trace)
    try:
        _exercise()
    finally:
        sys.settrace(None)
    missed = [(path, line, qualname) for path in sorted(SRC.glob("*.py"))
              for line, qualname in defined(path) if (str(path), qualname) not in _entered]
    for path, line, qualname in missed:
        print(f"{path.relative_to(ROOT)}:{line} {qualname}")
    print(f"{len(missed)} functions not entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
