"""A command leaves no state behind in the library's modules.

Each CLI command runs in-process at small sizes, and every module-level
dict, list and set of every rotorkit module must hold what it held before.
A container that a command fills (a cache, a registry, a memo) would carry
results and memory from one in-process command into the next, so a
command's output and peak would depend on what ran before it.
"""

import contextlib
import copy
import importlib
import io
import pkgutil

import rotorkit
from rotorkit import cli

COMMANDS = [
    ["spectrum", "--res", "8,12,16"],
    ["spectrum", "--res", "16", "--method", "iterative"],
    ["check", "hermiticity", "--res", "8"],
    ["check", "chart-equivalence", "--lmax", "1", "--samples", "10"],
    ["classical", "--duration", "0.05"],
    ["pathintegral", "--nodes", "256", "--eps-list", "5.6e-2,2.8e-2,1.4e-2",
     "--r-min", "1", "--r-eval-min", "1", "--r-eval-max", "3"],
]


def _containers():
    """{(module, name): container} for every module-level dict, list and set.

    ``__builtins__`` is the interpreter's namespace, not the module's own.
    """
    mods = [rotorkit] + [importlib.import_module(f"rotorkit.{info.name}")
                         for info in pkgutil.iter_modules(rotorkit.__path__)]
    return {(mod.__name__, name): val for mod in mods
            for name, val in vars(mod).items()
            if isinstance(val, (dict, list, set)) and name != "__builtins__"}


def test_commands_leave_module_containers_unchanged():
    before = copy.deepcopy(_containers())
    for argv in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1), (argv, err.getvalue())  # the solvers ran
    after = _containers()
    assert after.keys() == before.keys()
    changed = sorted(f"{mod}.{name}" for (mod, name), val in after.items()
                     if val != before[mod, name])
    assert changed == []
