"""A traced ``pathintegral`` run fires every span the slicing metrics read.

``bench/run.py --trace`` fails a workload whose metrics read spans that
never fired, so a refactor that routes the extraction around a wrapped
binding (``slice_step`` or ``effective_hamiltonian_action``, say) would
break the traced benchmark while every other test passes.  This test
traces the command in-process the way ``bench/child.py`` does, importing
``bench/`` read-only as ``tests/test_bench_bindings.py`` does.
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import layers  # noqa: E402  (bench/ is not a package)
from tracer import Tracer  # noqa: E402

from rotorkit import cli  # noqa: E402


def test_traced_pathintegral_measures_every_slicing_metric():
    tracer, notes = Tracer(), layers.Notes()
    layers.install(tracer, layers.plan(layers.modules()), notes)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["pathintegral"])
    finally:
        restored = tracer.restore()
    assert restored
    assert code == 0
    vals, fired = layers.command_values({
        "spans": tracer.spans, "notes": notes.summary(),
        "payload_bytes": len(out.getvalue().encode())})
    assert layers.unmeasured("slicing", fired) == []
    # one kernel per (prescription, mode, step), each built by its one call
    assert vals["pathintegral.kernel_calls"] == 12
    assert vals["pathintegral.kernel_builds"] == 12
