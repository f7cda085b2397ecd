"""The package's public surface: every exported name resolves and has a use
outside the tests, each layer imports only what it runs, and every
narrative demo under demos/ runs to completion."""

import ast
import collections
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rotorkit"
MODULES = ["rotorkit"] + [f"rotorkit.{m}" for m in (
    "cli", "dynamics", "expressions", "geometry", "operators",
    "pathintegral", "quadrature", "spectra")]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    mod = importlib.import_module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    exec(f"from {name} import *", {})


def _src_reads():
    """How often each name is read in src/rotorkit, bare or as an attribute.

    Names are matched by spelling.  A top-level statement's reads of the
    names it defines are left out, so a definition (or a recursive call
    inside it) is not its own use; ``__all__`` entries are strings and
    never count.
    """
    reads = collections.Counter()
    for path in SRC.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined = {stmt.name}
            else:
                defined = {t.id for t in getattr(stmt, "targets", ())
                           if isinstance(t, ast.Name)}
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name not in defined:
                    reads[name] += 1
    return reads


def test_every_export_is_used_outside_tests():
    # a use: a read in src/rotorkit, or a mention in a demo, the README or
    # the [project.scripts] entry points; a name only tests reach belongs
    # in the tests
    pyproject = (ROOT / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    text = "\n".join([d.read_text() for d in DEMOS]
                     + [(ROOT / "README.md").read_text(), scripts])
    reads = _src_reads()
    unused = [f"{name}.{n}" for name in MODULES
              for n in importlib.import_module(name).__all__
              if not reads[n] and not re.search(rf"\b{re.escape(n)}\b", text)]
    assert unused == []


def _modules_loaded_by(module):
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}; print(*sorted(sys.modules), sep='\\n')"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_each_layer_imports_only_what_it_runs():
    # dynamics runs on geometry and expressions; geometry on numpy alone
    loaded = _modules_loaded_by("rotorkit.dynamics")
    assert sorted(loaded & {"rotorkit.spectra", "rotorkit.operators",
                            "rotorkit.quadrature", "rotorkit.pathintegral",
                            "scipy.linalg", "scipy.special"}) == []
    loaded = _modules_loaded_by("rotorkit.geometry")
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    # the operators build their harmonics in integer arithmetic, no LAPACK
    assert "scipy.linalg" not in _modules_loaded_by("rotorkit.operators")


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
