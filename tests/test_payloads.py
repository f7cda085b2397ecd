"""Every corpus command still prints the payload it printed when recorded.

The corpus (``tests/payloads.json``, rewritten by ``tests/payload_corpus.py``)
holds each command's exit code, the SHA-256 of its stdout and the parsed
payload.  In the environment the corpus was recorded in, the stdout bytes
must hash the same.  Elsewhere a different BLAS or numpy may round
differently, so exit codes, keys, strings, integers and flags must match
exactly and floats to 1e-12 relative.  Each command is compared one way or
the other; none passes unchecked.
"""

import copy
import json
import math
import os
import platform
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import payload_corpus as corpus

RECORDED = corpus.load()
SAME_ENVIRONMENT = RECORDED["fingerprint"] == corpus.fingerprint()
RTOL = 1e-12


def _assert_close(got, want, path="payload"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{k}]")
    elif isinstance(want, float) and isinstance(got, float):
        if math.isnan(want):
            assert math.isnan(got), f"{path}: {got!r} != nan"
        else:
            assert got == want or abs(got - want) <= RTOL * max(
                abs(got), abs(want)), f"{path}: {got!r} != {want!r}"
    else:  # flags, strings, integers and nulls
        assert type(got) is type(want) and got == want, (
            f"{path}: {got!r} != {want!r}")


def test_corpus_lists_every_command():
    assert sorted(RECORDED["commands"]) == sorted(
        shlex.join(argv) for argv in corpus.commands())


@pytest.mark.parametrize("line", sorted(RECORDED["commands"]))
def test_payload_matches_the_corpus(line):
    want = RECORDED["commands"][line]
    argv = shlex.split(line)
    code, text = corpus.run(argv)
    assert code == want["exit"]
    if SAME_ENVIRONMENT:
        assert corpus.digest(text) == want["sha256"]
    else:
        _assert_close(corpus.parse(argv, text), want["payload"])


def test_the_fallback_comparison_catches_a_moved_value():
    # the comparison used away from the recorded environment: it accepts
    # each recorded payload and rejects it with one float moved past RTOL
    payloads = [entry["payload"] for entry in RECORDED["commands"].values()]
    for payload in payloads:
        _assert_close(copy.deepcopy(payload), payload)
    moved = copy.deepcopy(payloads[0])
    results = moved["results"]
    key = next(k for k, v in sorted(results.items()) if isinstance(v, float))
    results[key] *= 1 + 10 * RTOL
    with pytest.raises(AssertionError, match=key):
        _assert_close(moved, payloads[0])
    moved = copy.deepcopy(payloads[0])
    moved["pass"] = not moved["pass"]
    with pytest.raises(AssertionError, match="pass"):
        _assert_close(moved, payloads[0])


X86_64 = pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64")
    or not Path("/proc/self/maps").exists(),
    reason="Haswell kernels are x86-64 kernels; the configs are read from "
    "the loaded libraries /proc/self/maps lists")


def _under_haswell(code, *args):
    """The stdout of ``python -c code args`` run on OpenBLAS's Haswell
    kernels, with the package and ``payload_corpus`` importable."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


@X86_64
def test_the_fingerprint_names_the_blas_core_type():
    # payload bits depend on the OpenBLAS kernels (SkylakeX fuses
    # multiply-adds, Haswell does not), so a process made to pick Haswell
    # kernels must not share the recorded fingerprint of another core
    out = _under_haswell("import json, payload_corpus as c; "
                         "print(json.dumps(c.fingerprint()))")
    configs = json.loads(out)["openblas"]
    assert configs and all(" Haswell " in config for config in configs)
    here = corpus.fingerprint()["openblas"]
    assert (here == configs) == all(" Haswell " in c for c in here)


@X86_64
def test_harmonic_checks_print_the_same_bytes_under_haswell_kernels():
    # the harmonics are built in integer arithmetic and evaluated
    # elementwise, and classical's lift and energy are elementwise closed
    # forms, so no BLAS or LAPACK kernel can move these payloads
    commands = [["check", "chart-equivalence", "--dim", "2"],
                ["check", "angular-momentum", "--dim", "2"],
                ["check", "hermiticity"],
                ["classical", "--duration", "1", "--format", "csv"]]
    out = _under_haswell(
        "import json, sys, payload_corpus as c; "
        "print(json.dumps([c.run(a) for a in json.loads(sys.argv[1])]))",
        json.dumps(commands))
    assert json.loads(out) == [list(corpus.run(argv)) for argv in commands]
