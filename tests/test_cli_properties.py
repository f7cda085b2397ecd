"""Property test of the spectrum command's exit-code contract.

Draws argv over the whole input space of ``spectrum``, out-of-range and
non-finite values included, and checks what every run must hold: an exit
code from the documented set, no traceback, a rejected input (exit 2)
that prints nothing and enters no solver, and a payload whose ``pass``
matches the exit code.
"""

import contextlib
import io
import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, given, settings, strategies as st

from rotorkit import spectra
from rotorkit.cli import main

# R and hbar: in range half of the time, else zero, negative, past the
# [1e-30, 1e30] range or non-finite
scale = st.one_of(st.sampled_from(("0.5", "1.0", "2.1")),
                  st.sampled_from(("0", "-1", "1e200", "1e-200", "inf", "nan")))


def spectrum_argv(dim, res, levels, method, radius, hbar):
    return ["spectrum", f"--dim={dim}", f"--res={','.join(map(str, res))}",
            f"--levels={levels}", f"--method={method}", f"--radius={radius}",
            f"--hbar={hbar}"]


drawn_argv = st.builds(
    spectrum_argv,
    st.integers(2, 4),
    st.lists(st.integers(-2, 40), min_size=1, max_size=4),
    st.integers(0, 25),
    st.sampled_from(("auto", "sector", "dense", "iterative")),
    scale,
    scale,
)


@settings(max_examples=200)
@given(drawn_argv)
def test_spectrum_exit_code_contract(argv):
    entered = []

    def counted(real):
        def solver(*args, **kwargs):
            entered.append(real)
            return real(*args, **kwargs)
        return solver

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        for name in ("eigvalsh", "eigh", "eigh_tridiagonal"):
            mp.setattr(spectra, name, counted(getattr(spectra, name)))
        mp.setattr(spectra.GridOperator, "apply",
                   counted(spectra.GridOperator.apply))
        mp.setattr(np.linalg, "eig", counted(np.linalg.eig))
        # a full 2 GiB Lanczos basis takes minutes to fill; 1 MiB keeps
        # every drawn run short and still draws both sides of the rule
        mp.setattr(spectra, "LANCZOS_BUDGET", 2 ** 20)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)  # an exception here is a user's traceback
    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and not entered
    else:
        assert json.loads(out.getvalue())["pass"] == (code == 0)
