"""Self-checks of the benchmark: tracer, wrap plan, verdicts, workloads.

Run from the repository root:  python3 -m pytest -q bench
The traced-workload test runs each workload's command sequence once under
the tracer (about a minute on a 2-core machine).
"""

import io
import json
import math
import shutil
import subprocess
import sys
import time
import types
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import verdicts  # noqa: E402
from tracer import Tracer, nesting_errors, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _toy():
    mod = types.ModuleType("toy")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    def boom():
        raise ValueError("boom")

    class Box:
        @classmethod
        def make(cls, v):
            return mod.inner(v)

        def twice(self, v):
            return mod.outer(v)

    mod.inner, mod.outer, mod.boom, mod.Box = inner, outer, boom, Box
    mod.table = {"run": outer}
    return mod


def test_spans_nest_and_wrappers_are_restored():
    mod = _toy()
    originals = (mod.inner, mod.outer, mod.boom, mod.Box.__dict__["make"],
                 mod.Box.__dict__["twice"], mod.table["run"])
    tr = Tracer()
    tr.wrap(mod, "inner", "toy.inner")
    tr.wrap(mod, "outer", "toy.outer")
    tr.wrap(mod, "boom", "toy.boom")
    tr.wrap(mod.Box, "make", "toy.Box.make")
    tr.wrap(mod.Box, "twice", "toy.Box.twice")
    tr.wrap(mod.table, "run", "toy.run")
    assert mod.table["run"](1) == 4
    assert mod.Box.make(2) == 3
    assert mod.Box().twice(3) == 8
    with pytest.raises(ValueError):
        mod.boom()
    assert tr.restore() is True
    assert originals == (mod.inner, mod.outer, mod.boom, mod.Box.__dict__["make"],
                         mod.Box.__dict__["twice"], mod.table["run"])
    names = [s[0] for s in tr.spans]
    assert names == ["toy.run", "toy.inner", "toy.Box.make", "toy.inner",
                     "toy.Box.twice", "toy.outer", "toy.inner", "toy.boom"]
    parents = [s[3] for s in tr.spans]
    assert parents == [-1, 0, -1, 2, -1, 4, 5, -1]
    assert nesting_errors(tr.spans) == []
    assert min(self_times(tr.spans)) >= 0.0
    assert tr.spans[-1][2] >= tr.spans[-1][1]  # closed although it raised


def test_nesting_check_flags_a_child_outside_its_parent():
    spans = [["a", 0.0, 1.0, -1, 0, 0], ["b", 0.5, 1.5, 0, 0, 0]]
    assert nesting_errors(spans) == [(1, "outside parent 0")]


def test_plan_wraps_every_binding_the_metrics_read():
    targets = layers.plan(layers.modules())
    names = {name for _, _, name in targets}
    for m in layers.METRICS:
        assert any(layers.matches(n, m["spans"]) for n in names), m["name"]
    bound = {(getattr(c, "__name__", "runners"), k) for c, k, _ in targets}
    assert ("rotorkit.cli", "assemble") in bound
    assert ("rotorkit.spectra", "assemble") in bound
    assert ("rotorkit.spectra", "eigvalsh") in bound
    assert ("rotorkit.pathintegral", "ive") in bound
    assert "expressions.mul" not in names


def test_unmeasured_names_owned_metrics_whose_spans_never_fired():
    fired = {"cli.main", "spectra.assemble"}
    missing = layers.unmeasured("spectrum-dense", fired)
    assert "spectra.eigensolve_s" in missing
    assert "spectra.assemble_s" not in missing
    assert "operators.build_s" not in missing  # owned by identities


def test_counts_must_repeat_exactly():
    a = {m["name"]: 1 for m in layers.METRICS}
    b = dict(a, **{"spectra.eigensolve_calls": 2, "spectra.eigensolve_s": 3})
    values, mismatched = layers.combine([a, b])
    assert mismatched == ["spectra.eigensolve_calls"]
    assert values["spectra.eigensolve_s"] == 2


def test_expression_node_counts_separate_tree_and_dag():
    from rotorkit import expressions as ex
    x = ex.Var("x")
    shared = ex.mul(x, ex.sin(x))
    tree, dag = layers.expr_node_counts(ex.add(shared, shared))
    # add(shared, shared): 1 + 2 * (mul: 1 + x + sin(1 + x)) = 9; distinct: 4
    assert (tree, dag) == (9, 4)


def _payload(argv):
    from rotorkit import cli
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv + ["--quiet"])
    return code, buf.getvalue()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--dim", "3", "--res", "12", "--method", "sector"],
    ["check", "dirac-brackets", "--samples", "20"],
    ["check", "chart-equivalence", "--samples", "5", "--lmax", "2"],
    ["classical", "--duration", "0.05"],
])
def test_verdicts_pass_real_payloads_and_fail_on_nan(argv):
    code, payload = _payload(argv)
    assert verdicts.problems(code, payload) == []
    report = json.loads(payload)
    res = report["results"]
    if "clusters" in res:
        res["clusters"][1][0] = math.nan
    elif "families" in res:
        res["families"]["xp"]["max_deviation"] = math.nan
    elif "max_relative_deviation" in res:
        res["max_relative_deviation"] = math.nan
    else:
        res["conservation_drift"]["embedded_oracle"]["energy"] = math.nan
    assert verdicts.problems(0, json.dumps(report)) != []


def test_verdicts_fail_on_exit_code_and_on_a_false_pass_flag():
    code, payload = _payload(["check", "dirac-brackets", "--samples", "20"])
    assert verdicts.problems(1, payload) == ["exit code 1"]
    report = json.loads(payload)
    report["pass"] = False
    assert verdicts.problems(0, json.dumps(report)) == [
        "payload does not report pass"]


def test_pathintegral_verdict_reads_rows_against_echoed_tolerances():
    rows = [{"r": 1.0, "delta_v": 0.125, "predicted": 0.125,
             "relative_error": 1e-7, "spread": 0.0}]
    report = {"command": "pathintegral", "pass": True,
              "resolved_config": {"prescription": "naive", "fit_tol": 0.02,
                                  "corrected_tol": 1e-3},
              "results": {"rows": rows}}
    assert verdicts.problems(0, json.dumps(report)) == []
    rows[0]["relative_error"] = math.nan
    assert verdicts.problems(0, json.dumps(report)) != []
    report["resolved_config"]["prescription"] = "corrected"
    rows[0]["delta_v"] = 1e-9
    assert verdicts.problems(0, json.dumps(report)) == []
    rows[0]["delta_v"] = 0.01
    assert verdicts.problems(0, json.dumps(report)) != []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_workload_fires_every_owned_span(workload):
    session = run.Session(deadline=time.monotonic() + 600)
    seq = session.sequence(workload, 0, trace=True)
    for cmd in seq["commands"]:
        assert cmd["problems"] == [], cmd["argv"]
    cmds = [dict(c, payload_bytes=len(c["payload"].encode()))
            for c in seq["commands"]]
    values, fired = layers.sequence_values(cmds)
    assert layers.unmeasured(workload, fired) == []
    for m in layers.METRICS:
        if workload in m["owners"] and m["unit"] == "s":
            assert values[m["name"]] > 0.0, m["name"]


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "slicing", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
