"""Property tests of the command line's exit-code contract.

Draws argv over the input space of each command, out-of-range and
non-finite values included, and checks what every run must hold: an exit
code from the documented set, no traceback, a rejected input (exit 2)
that prints nothing and enters no solver, and a payload whose ``pass``
matches the exit code and whose resolved config holds only finite
numbers.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, example, given, settings, strategies as st

from rotorkit import dynamics, expressions, operators, pathintegral, spectra
from rotorkit.cli import SCHEMAS, main

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


def _counted(real, entered):
    def solver(*args, **kwargs):
        entered.append(real)
        return real(*args, **kwargs)
    return solver


def _run(argv, mp, solvers):
    """Exit code, stdout and stderr of ``main(argv)``, and the solver calls
    it made; ``solvers`` lists (owner, attribute name) pairs to count."""
    entered = []
    for owner, name in solvers:
        mp.setattr(owner, name, _counted(getattr(owner, name), entered))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception here is a user's traceback
    event(f"exit {code}")
    return code, out.getvalue(), err.getvalue(), entered


@settings(max_examples=200)
@given(drawn_argv)
def test_spectrum_exit_code_contract(argv):
    with pytest.MonkeyPatch.context() as mp:
        # a full 2 GiB Lanczos basis takes minutes to fill; 1 MiB keeps
        # every drawn run short and still draws both sides of the rule
        mp.setattr(spectra, "MEMORY_BUDGET", 2 ** 20)
        code, out, err, entered = _run(argv, mp, [
            (spectra, "eigvalsh"), (spectra, "eigh"),
            (spectra, "eigh_tridiagonal"), (spectra.GridOperator, "apply"),
            (np.linalg, "eig")])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and not entered
    else:
        assert json.loads(out)["pass"] == (code == 0)


# Values drawn per schema key of the other three commands.  The first
# entry of each pool is valid, and a draw starts from those and replaces up
# to three keys with any entry of their pool, so each rule is also met
# alone, past all the others.  The other entries are out of range, zero,
# negative or non-finite.  Sizes stay small (lmax, samples, res,
# duration / dt, nodes), so a drawn run that passes every rule finishes in
# a fraction of a second.  None omits the flag.
_FLOAT_TOL = ("1e-6", "0", "-1", "nan", "inf")
_SCALE = ("1.0", "2.1", "0", "-1", "1e200", "inf", "nan")
_DIM = ("3", "4", "2", "1", "11")
_SEED = ("0", "7", "-1")

POOLS = {
    "check": {
        "suite": ("hermiticity", "chart-equivalence", "angular-momentum",
                  "dirac-brackets", None, "nonsense"),
        "dim": _DIM,
        "radius": _SCALE,
        "hbar": _SCALE,
        "lmax": ("2", "1", "0", "-1"),
        "samples": ("5", "auto", "0", "-3"),
        "res": ("8", "2", "1", "0", "-1"),
        "tolerance": ("1e-4", "auto", "0", "-1", "nan", "inf"),
        "seed": _SEED,
    },
    "classical": {
        "dim": _DIM,
        "radius": _SCALE,
        "q0": ("0.2,0", "0.2", "0.2,0,0", "2,0", "nan,0", "inf,0"),
        "p0": ("0,0.08", "0.08", "0,0.08,0", "0,0.9", "0,1e10", "inf,0",
               "nan,0"),
        "duration": ("0.05", "0", "-1", "1e300", "inf", "nan"),
        "dt": ("1e-3", "0.01", "0", "-1", "1e-300", "inf", "nan"),
        "margin": ("0.05", "0", "0.999", "1", "-1", "inf", "nan"),
        "sup_tol": _FLOAT_TOL,
        "conserve_tol": _FLOAT_TOL,
        "seed": _SEED,
    },
    "pathintegral": {
        "hbar": _SCALE,
        # 256 nodes resolve every step of the first list and 200 all but
        # its smallest, which only a width check of that step rejects
        "eps_list": ("5.6e-2,2.8e-2,1.4e-2", "1e-3,5e-4,2.5e-4",
                     "5.6e-2,2.8e-2", "5.6e-2,3e-2,1.4e-2", "4e-2,4e-2,4e-2",
                     "1,0.5,0.25", "-1,-0.5,-0.25", "inf,inf,inf",
                     "nan,nan,nan"),
        "r_min": ("1", "0.1", "5", "0", "-1", "inf", "nan"),
        "r_max": ("8", "4", "0.05", "0", "inf", "nan"),
        "nodes": ("256", "200", "16", "8", "0", "-1"),
        "r_eval_min": ("1", "6", "0", "nan", "inf"),
        "r_eval_max": ("3", "7.5", "9", "nan", "inf"),
        "r_eval_count": ("26", "1", "0", "-1"),
        "prescription": ("naive", "corrected", "exact"),
        "midpoint_rule": ("geometric", "arithmetic", "median"),
        "fit_tol": ("0.02", *_FLOAT_TOL),
        "corrected_tol": ("1e-3", *_FLOAT_TOL),
        "seed": _SEED,
    },
}

# a solver call: an integrator step, a slice kernel built, a harmonic
# basis solved, a zonal harmonic built or an expression evaluated
SOLVERS = [(dynamics, "_midpoint_step"), (pathintegral, "BandedKernel"),
           (expressions, "evaluate"), (operators, "harmonic_polynomials"),
           (operators, "_zonal_tree")]


def _argv(cmd, values):
    return [cmd] + [f"--{key.replace('_', '-')}={v}"
                    for key, v in values.items() if v is not None]


def _drawn(cmd):
    pools = POOLS[cmd]
    replaced = st.sampled_from(sorted(pools)).flatmap(
        lambda key: st.tuples(st.just(key), st.sampled_from(pools[key])))
    return st.lists(replaced, max_size=3).map(lambda pairs: _argv(
        cmd, {**{key: pool[0] for key, pool in pools.items()}, **dict(pairs)}))


def _finite_numbers(value):
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def _check_contract(argv):
    with pytest.MonkeyPatch.context() as mp:
        code, out, err, entered = _run(argv, mp, SOLVERS)
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and not entered
        return
    report = json.loads(out)
    assert report["pass"] == (code == 0)
    if code != 3:
        assert all(_finite_numbers(v)
                   for v in report["resolved_config"].values())


def test_pools_cover_every_schema_key():
    for cmd, pools in POOLS.items():
        assert set(pools) == set(SCHEMAS[cmd])


@settings(max_examples=100)
@given(_drawn("check"))
def test_check_exit_code_contract(argv):
    _check_contract(argv)


@settings(max_examples=150)
@given(_drawn("classical"))
@example(["classical", "--margin=nan"])
@example(["classical", "--margin=-1", "--p0=0,0.9"])
@example(["classical", "--dt=1e-300"])
def test_classical_exit_code_contract(argv):
    _check_contract(argv)


@settings(max_examples=60)
@given(_drawn("pathintegral"))
@example(["pathintegral", "--nodes=1500"])
def test_pathintegral_exit_code_contract(argv):
    _check_contract(argv)
