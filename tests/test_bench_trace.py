"""Traced runs fire every span their workload's metrics read.

``bench/run.py --trace`` fails a workload whose metrics read spans that
never fired, so a refactor that routes a command around a wrapped binding
(``slice_step`` or ``effective_hamiltonian_action`` in the extraction,
``dirac_bracket_expr`` or ``harmonic_polynomials`` in the check suites,
say) would break the traced benchmark while every other test passes.
These tests trace the commands in-process the way ``bench/child.py``
does, importing ``bench/`` read-only as ``tests/test_bench_bindings.py``
does.
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import layers  # noqa: E402  (bench/ is not a package)
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from rotorkit import cli  # noqa: E402


def traced(argv):
    """(exit code, traced command record) of one in-process CLI run."""
    tracer, notes = Tracer(), layers.Notes()
    layers.install(tracer, layers.plan(layers.modules()), notes)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        restored = tracer.restore()
    assert restored
    return code, {"spans": tracer.spans, "notes": notes.summary(),
                  "payload_bytes": len(out.getvalue().encode())}


def test_traced_pathintegral_measures_every_slicing_metric():
    code, cmd = traced(["pathintegral"])
    assert code == 0
    vals, fired = layers.command_values(cmd)
    assert layers.unmeasured("slicing", fired) == []
    # one kernel per (prescription, mode, step), each built by its one call
    assert vals["pathintegral.kernel_calls"] == 12
    assert vals["pathintegral.kernel_builds"] == 12


def test_traced_identities_measures_every_metric():
    runs = [traced(argv) for argv in workloads.WORKLOADS["identities"]]
    assert [code for code, _ in runs] == [0] * 5
    vals, fired = layers.sequence_values([cmd for _, cmd in runs])
    assert layers.unmeasured("identities", fired) == []
    # one call per degree in chart-equivalence (10) and angular-momentum
    # (10), one per hermiticity chart lift (3) and one for every dirac
    # bracket
    assert vals["expressions.evaluate_calls"] == 24
