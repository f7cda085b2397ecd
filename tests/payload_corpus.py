"""The payload corpus: what each recorded CLI command prints, and its exit code.

``tests/payloads.json`` maps each command line to its exit code, the
SHA-256 of its stdout and the parsed payload, and records the environment
the hashes were taken in (Python, numpy, scipy and BLAS versions, and the
OpenBLAS core type).
``tests/test_payloads.py`` reruns every command in-process and compares.

The commands are the benchmark's workloads at ``--seed 0``, read from
``bench/workloads.py``, plus two chart-equivalence runs at an extreme
scale, where rounding is most likely to move, and three pathintegral runs
off the defaults: extraction radii that reach both ends of the grid, at
300 radii and at 2048 (1092 kept rows, several row blocks of the kernel
build), and the corrected prescription with the arithmetic midpoint as
CSV.  Two classical runs join them: one time unit as CSV, which carries
every state and its energy, and a start that leaves the chart margin
(exit 4).  One coarse spectrum fails on its level pattern alone (exit
1): its ground state passes.  Four checks run off their defaults at D = 4
and 5, where the blocks hold the most rows, and two at D = 2, where each
chart has one variable.  Two more hermiticity checks hold every row of
that suite: one at D = 4, and one at R = 1e-3, where rounding lifts the
worst defect to 3.0e-9, within the tolerance.  A third, at R = 1e-4, is a
false failure: rounding alone lifts the worst defect to 1.7e-7, past the
tolerance, and the check fails (exit 1).  One chart-equivalence check at 18000 samples is large enough that
its two widest blocks (degree 8, 454 plan steps, 17 rows, and degree 9,
507 steps, 19 rows) are evaluated in slices under the memory budget, so
the slice rule is held to the whole batch's bytes.  A CSV payload is
kept as its rows, each cell parsed as a float where it is one.

Rewrite the corpus after a change that moves a payload on purpose, and
name each moved value in CHANGES.md:

    PYTHONPATH=src python tests/payload_corpus.py
"""

import contextlib
import csv
import ctypes
import hashlib
import importlib.util
import io
import json
import platform
import re
import shlex
from pathlib import Path

import numpy as np
import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

from rotorkit import cli

ROOT = Path(__file__).resolve().parents[1]
CORPUS = Path(__file__).resolve().parent / "payloads.json"

_EXTREME = ["check", "chart-equivalence", "--radius", "1e30", "--lmax", "4",
            "--samples", "5"]
_PATHINTEGRAL = [
    ["pathintegral", "--r-eval-count", "300", "--r-eval-min", "0.1",
     "--r-eval-max", "8"],
    ["pathintegral", "--r-eval-count", "2048", "--r-eval-min", "0.1",
     "--r-eval-max", "8"],
    ["pathintegral", "--prescription", "corrected", "--midpoint-rule",
     "arithmetic", "--format", "csv"],
]
_SPECTRUM = [
    ["spectrum", "--res", "8,12,16", "--levels", "6", "--seed", "0"],
]
_CLASSICAL = [
    ["classical", "--duration", "1", "--format", "csv", "--seed", "0"],
    ["classical", "--q0", "0.9,0", "--p0", "0,2", "--seed", "0"],
]
_CHECKS = [
    ["check", "chart-equivalence", "--dim", "5", "--lmax", "4", "--seed", "0"],
    ["check", "angular-momentum", "--dim", "4", "--lmax", "5", "--samples",
     "37", "--seed", "0"],
    ["check", "hermiticity", "--dim", "5", "--res", "12", "--seed", "0"],
    ["check", "dirac-brackets", "--dim", "5", "--seed", "0"],
    ["check", "chart-equivalence", "--dim", "2", "--seed", "0"],
    ["check", "angular-momentum", "--dim", "2", "--seed", "0"],
    ["check", "hermiticity", "--dim", "4", "--res", "16", "--seed", "0"],
    ["check", "hermiticity", "--radius", "1e-3", "--seed", "0"],
    ["check", "hermiticity", "--radius", "1e-4", "--seed", "0"],
    ["check", "chart-equivalence", "--samples", "18000", "--seed", "0"],
]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def commands():
    """Every corpus command line, as argv lists."""
    workloads = _workloads()
    argvs = [argv for name in workloads.WORKLOADS
             for argv in workloads.commands(name, 0)]
    return (argvs + [_EXTREME, _EXTREME + ["--hbar", "1e-30"]] + _PATHINTEGRAL
            + _SPECTRUM + _CLASSICAL + _CHECKS)


def _openblas_configs():
    """The ``*_get_config`` string of each loaded OpenBLAS, in path order.

    It names the core type the kernels were picked for (SkylakeX, Haswell,
    ...), and the payload bits depend on it: SkylakeX kernels fuse
    multiply-adds where Haswell's do not.  The thread count is left out;
    the hashes match under one and two threads.  Empty where the process
    has no ``/proc/self/maps`` to list its libraries.
    """
    try:
        with open("/proc/self/maps") as fh:
            maps = fh.read()
    except OSError:
        return []
    names = [f"{prefix}_get_config{suffix}" for suffix in ("64_", "", "_64_")
             for prefix in ("scipy_openblas", "openblas")]
    configs = []
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        config = next((getattr(lib, n) for n in names if hasattr(lib, n)),
                      None)
        if config is not None:
            config.restype = ctypes.c_char_p
            configs.append(config().decode())
    return configs


def fingerprint():
    """The versions and BLAS kernels that decide whether payload bytes can
    be compared."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas.get('version', '?')}",
            "openblas": _openblas_configs()}


def run(argv):
    """(exit code, stdout) of one command, run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def parse(argv, text):
    """The payload a command printed: JSON, or CSV rows under ``--format csv``."""
    if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
        return [[_cell(c) for c in row] for row in csv.reader(io.StringIO(text))]
    return json.loads(text)


def record(argv):
    code, text = run(argv)
    return {"exit": code, "sha256": digest(text), "payload": parse(argv, text)}


def load():
    return json.loads(CORPUS.read_text())


def main():
    corpus = {"fingerprint": fingerprint(),
              "commands": {shlex.join(argv): record(argv)
                           for argv in commands()}}
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(corpus['commands'])} commands to {CORPUS}")


if __name__ == "__main__":
    main()
