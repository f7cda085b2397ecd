"""Reach audit: the statements of src/rotorkit that the test suite never runs.

Code that nothing reaches is either dead or untested; ROADMAP item 14 asks
that it be deleted or given a test that earns its keep.  This script runs
the tier-1 suite once under a line tracer and lists every statement of
``src/rotorkit`` that no test reached:

    PYTHONPATH=src python tests/reach.py            # the whole suite
    PYTHONPATH=src python tests/reach.py tests/test_cli.py -x   # pytest args

It is a standalone tool, not a test, and takes three to four times the
suite's own time.  How it traces:

* A temporary directory first on PYTHONPATH holds a ``sitecustomize``
  that every Python process of the run imports at startup, so the CLI
  and demo subprocesses that the tests start are traced too (they keep
  PYTHONPATH).  It records the lines each process runs in files under
  ``src/rotorkit`` and writes them to one JSON file per process at exit.
* The same directory holds a pytest plugin that re-arms the tracer
  before each test.  hypothesis calls ``sys.settrace(None)`` once its
  scrutineer has explained a failing example (the mutant tests in
  ``test_expressions.py`` fail examples on purpose), and without the
  re-arm every later test would run untraced.

A statement is one the interpreter can run: an ``ast`` statement that
owns a line with bytecode (a compound statement owns its header lines
only).  So ``nonlocal``, ``global`` and docstrings, which fire no line
event, are not counted.  A statement is reached when any line it owns
fired.  The listing is ``path:line  source`` for each unreached
statement, then the totals; the exit code is that of the pytest run.
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rotorkit"

_SITECUSTOMIZE = '''\
import atexit, json, os, sys, tempfile, threading

_SRC = os.environ["REACH_SRC"]
_OUT = os.environ["REACH_OUT"]
_lines = {}


def _local(frame, event, arg):
    if event == "line":
        _lines.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename.startswith(_SRC):
        return _local
    return None


def arm():
    sys.settrace(_global)
    threading.settrace(_global)


@atexit.register
def _write():
    fd, _ = tempfile.mkstemp(suffix=".json", dir=_OUT)  # pids are reused
    with os.fdopen(fd, "w") as fh:
        json.dump({f: sorted(v) for f, v in _lines.items()}, fh)


arm()
'''

_PLUGIN = '''\
import sitecustomize


def pytest_runtest_setup(item):
    sitecustomize.arm()
'''


def _code_lines(code):
    """Lines of ``code`` and every code object nested in it with bytecode."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _own_lines(stmt):
    """The lines a statement owns: a compound statement's header (with its
    decorators), a simple statement's whole span."""
    start = min([stmt.lineno] + [d.lineno for d in
                                 getattr(stmt, "decorator_list", [])])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(start, max(stmt.lineno, body[0].lineno - 1) + 1)
    return range(start, stmt.end_lineno + 1)


def statements(path):
    """{first line: lines with bytecode it owns} per runnable statement."""
    text = path.read_text()
    tree = ast.parse(text)
    owner = {}
    for node in ast.walk(tree):  # outer first, so inner statements win
        if isinstance(node, ast.stmt):
            for line in _own_lines(node):
                owner[line] = node.lineno
    found = {}
    for line in _code_lines(compile(text, str(path), "exec")):
        if line in owner:
            found.setdefault(owner[line], set()).add(line)
    return found


def main(pytest_args):
    with tempfile.TemporaryDirectory() as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "out")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(_SITECUSTOMIZE)
        (site / "reach_plugin.py").write_text(_PLUGIN)
        env = dict(os.environ, REACH_SRC=str(SRC), REACH_OUT=str(out),
                   PYTHONPATH=os.pathsep.join(
                       [str(site), str(ROOT / "src")]
                       + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-p", "reach_plugin",
             "-p", "no:cacheprovider", *(pytest_args or ["-q", "tests"])],
            cwd=ROOT, env=env).returncode
        fired = {}
        for record in out.glob("*.json"):
            for name, lines in json.loads(record.read_text()).items():
                fired.setdefault(os.path.realpath(name), set()).update(lines)
    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        ran = fired.get(os.path.realpath(path), set())
        source = path.read_text().splitlines()
        for first, lines in sorted(statements(path).items()):
            total += 1
            if not lines & ran:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}  "
                      f"{source[first - 1].strip()}")
    print(f"{missed} of {total} statements unreached")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
