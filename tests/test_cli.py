"""Command-line surface: config resolution, exit codes, payload formats,
and byte-level determinism of repeated runs."""

import csv
import json
import math

import numpy as np
import pytest

from rotorkit import cli, dynamics, expressions, operators, pathintegral, spectra
from rotorkit.cli import (
    ConfigError,
    SCHEMAS,
    main,
    parse_config_text,
    resolve_config,
)
from rotorkit.geometry import ModelParams
from rotorkit.spectra import NonConvergenceError


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def config_text(cfg):
    """Inverse of parse_config_text for a resolved config (round-trip).

    Keys resolved to None mean "derive at run time"; they have no written
    form, so they are omitted and resolution restores them as defaults.
    """
    lines = []
    for key in sorted(cfg):
        val = cfg[key]
        if val is None:
            continue
        if isinstance(val, (tuple, list)):
            text = ",".join(repr(v) if isinstance(v, float) else str(v)
                            for v in val)
        elif isinstance(val, float):
            text = repr(val)
        else:
            text = str(val)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


# -- config layer -------------------------------------------------------------

def test_defaults_then_file_then_flags():
    cfg = resolve_config("spectrum", {}, {})
    assert cfg["dim"] == 3 and cfg["levels"] == 4
    cfg = resolve_config("spectrum", {"dim": "2", "levels": "3"}, {"levels": "5"})
    assert cfg["dim"] == 2
    assert cfg["levels"] == 5  # flag wins over file
    # flags holding None mean "not given" and must not clobber the file value
    cfg = resolve_config("spectrum", {"dim": "4"}, {"dim": None})
    assert cfg["dim"] == 4


def test_unknown_and_invalid_keys_are_config_errors():
    with pytest.raises(ConfigError):
        resolve_config("spectrum", {"dims": "3"}, {})
    # the model accepts D in 2..10
    with pytest.raises(ValueError, match="D must be an integer"):
        cli.run_spectrum(resolve_config("spectrum", {}, {"dim": "11"}))
    with pytest.raises(ConfigError):
        resolve_config("classical", {}, {"dt": "-0.1"})
    with pytest.raises(ConfigError):
        resolve_config("spectrum", {}, {"method": "magic"})
    with pytest.raises(ConfigError):
        resolve_config("check", {"suite": "nonsense"}, {})


@pytest.mark.parametrize("cmd", sorted(SCHEMAS))
def test_config_text_round_trips(cmd):
    overrides = {"suite": "dirac-brackets"} if cmd == "check" else {}
    cfg = resolve_config(cmd, {}, overrides)
    text = config_text(cfg)
    assert parse_config_text(text) == {k: v for k, v in
                                       parse_config_text(text).items()}
    cfg2 = resolve_config(cmd, parse_config_text(text), {})
    assert cfg2 == cfg
    assert config_text(cfg2) == text  # byte-identical second pass


def test_parse_config_text_tolerates_comments_and_blanks():
    entries = parse_config_text("# comment\n\ndim = 2\nlevels=3\n")
    assert entries == {"dim": "2", "levels": "3"}
    with pytest.raises(ConfigError):
        parse_config_text("dim 2\n")  # missing separator


# -- exit codes ---------------------------------------------------------------

def test_exit_0_and_payload_shape(capsys):
    code, out, err = run(["spectrum", "--dim", "2", "--levels", "3",
                          "--res", "16"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["command"] == "spectrum"
    assert set(report) == {"tool_version", "command", "resolved_config",
                           "results", "max_deviations", "pass"}
    assert "pass" in err  # status line on stderr


def test_exit_1_when_tolerance_unreachable(capsys):
    code, out, err = run(["spectrum", "--dim", "2", "--levels", "3",
                          "--res", "16", "--tolerance", "1e-18"], capsys)
    assert code == 1
    assert json.loads(out)["pass"] is False
    assert "tolerance exceeded" in err


def plant_bracket_result(monkeypatch, key, value):
    """Run the real dirac-brackets suite, then overwrite one result."""
    suite = cli.suite_dirac_brackets

    def planted(*args):
        report, worst = suite(*args)
        return {**report, key: value}, worst
    monkeypatch.setattr(cli, "suite_dirac_brackets", planted)


def test_dirac_brackets_fail_without_exact_antisymmetry(monkeypatch, capsys):
    plant_bracket_result(monkeypatch, "antisymmetry_exact", False)
    code, out, err = run(["check", "dirac-brackets"], capsys)
    report = json.loads(out)
    assert code == 1 and report["pass"] is False
    assert report["results"]["antisymmetry_exact"] is False
    assert report["max_deviations"]["deviation"] is None
    assert err == "tolerance exceeded (antisymmetry_exact=false)\n"


def test_dirac_brackets_fail_on_the_jacobi_bound(monkeypatch, capsys):
    # the Jacobi deviation is not in max_deviations, so stderr names it;
    # stdout is the payload of the same failure without the stderr detail
    plant_bracket_result(monkeypatch, "jacobi_max_deviation", 2.5e-9)
    code, out, err = run(["check", "dirac-brackets"], capsys)
    report = json.loads(out)
    assert code == 1 and report["pass"] is False
    assert report["results"]["antisymmetry_exact"] is True
    assert report["results"]["jacobi_max_deviation"] == 2.5e-9
    deviation = report["max_deviations"]["deviation"]
    assert deviation < 1e-10
    assert err == f"tolerance exceeded (deviation={deviation:.3g}, jacobi=2.5e-09)\n"


@pytest.mark.parametrize("flags, code", [([], 0),
                                         (["--corrected-tol", "1e-12"], 1)])
def test_corrected_pathintegral_verdict(flags, code, capsys):
    # the counterterm-corrected kernel leaves a residual of about 3e-7 of
    # the hbar^2/(8 r^2) scale: inside the default 1e-3, outside 1e-12
    got, out, err = run(["pathintegral", "--prescription", "corrected"]
                        + flags, capsys)
    report = json.loads(out)
    assert got == code and report["pass"] is (code == 0)
    assert err.startswith("pass" if code == 0 else "tolerance exceeded")
    assert "residual_relative=" in err


def test_exit_2_on_config_errors(capsys):
    code, _, err = run(["spectrum", "--dim", "11"], capsys)
    assert code == 2 and "D must be an integer in [2, 10]" in err
    code, _, err = run(["check"], capsys)  # no suite selected
    assert code == 2 and "suite" in err
    code, _, err = run(["classical", "--dt", "-1"], capsys)
    assert code == 2


@pytest.mark.parametrize("dt", ["6", "100"])
def test_exit_2_when_the_duration_is_not_whole_steps(dt, monkeypatch, capsys):
    # rounding 10 / dt would run to t = 12 at dt = 6 and take no step at 100
    def solver(*args, **kwargs):
        raise AssertionError("an integrator step ran on a rejected input")
    monkeypatch.setattr(dynamics, "_midpoint_step", solver)
    code, out, err = run(["classical", "--dt", dt], capsys)
    assert code == 2 and out == ""
    assert "not a whole number" in err and "Traceback" not in err


@pytest.mark.parametrize("flags, needle", [
    (["--nodes", "8"], "radial nodes"),
    (["--eps-list", "1e-3,6e-4,2.5e-4"], "geometric"),
    (["--eps-list", "1e-3,5e-4"], "at least 3"),
    (["--eps-list", "1e-3,1e-3,1e-3"], "distinct"),
    (["--hbar", "1e200"], "hbar must lie in [1e-30, 1e30]"),
    (["--hbar", "1e-200"], "hbar must lie in [1e-30, 1e30]"),
    (["--nodes", "1500"], "under-resolved"),
    (["--eps-list", "nan,nan,nan"], "finite eps > 0"),
    (["--r-min", "5", "--r-max", "4"], "r_min < r_max"),
    (["--r-max", "4"], "outer tail"),
    (["--r-eval-min", "6", "--r-eval-max", "7.5"], "no extraction radius"),
    (["--fit-tol", "inf"], "'fit_tol' must be positive and finite"),
])
def test_exit_2_on_bad_pathintegral_config(flags, needle, monkeypatch, capsys):
    # every rule is checked before the first kernel is built
    def build(*args, **kwargs):
        raise AssertionError("a kernel was built for a rejected input")
    monkeypatch.setattr(pathintegral, "BandedKernel", build)
    code, out, err = run(["pathintegral", *flags], capsys)
    assert code == 2 and needle in err
    assert out == "" and "Traceback" not in err


@pytest.mark.parametrize("flags, nodes, radii", [
    (["--nodes", "2100"], 2100, 26),
    (["--r-eval-count", "1000"], 2048, 1000),
])
def test_exit_2_on_pathintegral_over_memory_budget(flags, nodes, radii,
                                                   monkeypatch, capsys):
    # the budget is set to the defaults' own estimate, so the defaults sit
    # exactly at it and a little more of either size is over; a missing
    # guard then costs megabytes, not the gigabytes --nodes 1000000000 asks
    p = ModelParams(D=2)
    eps = SCHEMAS["pathintegral"]["eps_list"]["default"]
    budget = pathintegral.extraction_peak_bytes(
        pathintegral.RadialGrid(), eps, p, 26)
    need = pathintegral.extraction_peak_bytes(
        pathintegral.RadialGrid(n=nodes), eps, p, radii)
    assert need > budget
    monkeypatch.setattr(pathintegral, "MEMORY_BUDGET", budget)

    def build(*args, **kwargs):
        raise AssertionError("probes or kernels were sized over the budget")
    monkeypatch.setattr(cli, "default_probe_family", build)
    monkeypatch.setattr(pathintegral, "BandedKernel", build)
    code, out, err = run(["pathintegral", *flags], capsys)
    assert code == 2 and f"estimated {need} bytes" in err
    assert f"over the {budget} byte budget" in err
    assert out == "" and "Traceback" not in err


def test_pathintegral_on_40000_nodes_fits_its_budget(capsys):
    # every step builds only the extraction rows, so a large grid costs its
    # held vectors and 26 row bands, an estimated 9.6 MB
    code, out, err = run(["pathintegral", "--nodes", "40000"], capsys)
    report = json.loads(out)
    assert code == 0 and report["pass"] is True
    assert report["max_deviations"]["coefficient"] <= SCHEMAS["pathintegral"][
        "fit_tol"]["default"]


def test_default_pathintegral_bessel_count(monkeypatch, capsys):
    # a default naive and a default corrected run each build the exact
    # kernels of modes 0 and 1 at 26 rows: 2 x 2 x 26 x (223 + 157 + 111)
    # Bessel values; a whole kernel, 2048 rows, would raise the count
    count, real = [], pathintegral.ive

    def ive(m, z):
        count.append(np.size(z))
        return real(m, z)
    monkeypatch.setattr(pathintegral, "ive", ive)
    for flags in ([], ["--prescription", "corrected"]):
        code, _, _ = run(["pathintegral", *flags], capsys)
        assert code == 0
    assert sum(count) == 51064


@pytest.mark.parametrize("argv, needle", [
    (["check", "dirac-brackets", "--dim", "2"], "dirac-brackets needs dim >= 3"),
    (["check", "chart-equivalence", "--samples", "0"], "samples"),
    (["check", "chart-equivalence", "--dim", "11"], "D must be an integer"),
    (["check", "hermiticity", "--res", "1"], "resolution >= 2"),
    (["check", "chart-equivalence", "--lmax", "-1"], "'lmax' must be positive"),
    (["check", "angular-momentum", "--lmax", "-1"], "'lmax' must be positive"),
    (["check", "chart-equivalence", "--lmax", "0"], "'lmax' must be positive"),
    (["check", "hermiticity", "--dim", "2"], "dim >= 3"),
    (["check", "chart-equivalence", "--radius", "1e200"], "R must lie in"),
    (["check", "chart-equivalence", "--radius", "1e-200"], "R must lie in"),
    (["check", "dirac-brackets", "--radius", "1e-200"], "R must lie in"),
    (["check", "hermiticity", "--radius", "1e200"], "R must lie in"),
    (["check", "angular-momentum", "--hbar", "inf"], "hbar must lie in"),
    (["check", "chart-equivalence", "--tolerance", "nan"],
     "'tolerance' must be positive"),
    (["check", "dirac-brackets", "--tolerance", "-1"],
     "'tolerance' must be positive"),
    (["classical", "--radius", "1e200"], "R must lie in"),
    (["classical", "--radius", "inf"], "R must lie in"),
    (["classical", "--margin", "nan"], "margin must lie in [0, 1)"),
    (["classical", "--margin", "-1", "--p0", "0,0.9"], "margin must lie in"),
    (["classical", "--q0", "nan,0"], "must be finite"),
    (["classical", "--p0", "inf,0"], "must be finite"),
    (["classical", "--duration", "inf"], "'duration' must be positive"),
    (["classical", "--dt", "1e-300"], "byte budget"),
    (["classical", "--duration", "1e300"], "byte budget"),
    (["check", "dirac-brackets", "--seed", "-1"], "non-negative"),
    (["check", "chart-equivalence", "--seed", "-1"], "non-negative"),
])
def test_exit_2_on_bad_check_config(argv, needle, monkeypatch, capsys):
    # every rule is checked before the first evaluation or integrator step
    def solver(*args, **kwargs):
        raise AssertionError("a solver ran on a rejected input")
    monkeypatch.setattr(operators, "harmonic_polynomials", solver)
    monkeypatch.setattr(expressions, "evaluate", solver)
    monkeypatch.setattr(dynamics, "_midpoint_step", solver)
    code, out, err = run(argv, capsys)
    assert code == 2 and needle in err
    assert out == "" and "Traceback" not in err


@pytest.mark.parametrize("target, needle", [
    ("missing/x.json", "does not exist"),
    (".", "is a directory"),
])
def test_exit_2_on_unwritable_out(target, needle, tmp_path, monkeypatch,
                                  capsys):
    # --out is checked before the suite runs, not when the payload is written
    def solver(*args, **kwargs):
        raise AssertionError("a solver ran on a rejected input")
    monkeypatch.setattr(operators, "harmonic_polynomials", solver)
    monkeypatch.setattr(expressions, "evaluate", solver)
    code, out, err = run(["check", "chart-equivalence", "--lmax", "1",
                          "--samples", "3", "--out", str(tmp_path / target)],
                         capsys)
    assert code == 2 and needle in err
    assert out == "" and "Traceback" not in err


@pytest.mark.parametrize("flags, needle", [
    (["--res", "3", "--method", "dense"], "resolution >= 4"),
    (["--res", "3", "--method", "iterative"], "resolution >= 4"),
    (["--res", "3,4,5"], "resolution >= 4"),
    (["--res", "-3"], "resolution >= 2"),
    (["--levels", "22"], "at most 21"),
    (["--res", "32,48"], "three or more"),
    (["--res", "4,5,6"], "strictly rise"),
    (["--res", "6,5,4"], "strictly rise"),
    (["--dim", "2", "--res", "4"], "7 eigenvalues"),
    (["--dim", "2", "--res", "4", "--method", "sector"], "7 eigenvalues"),
    (["--dim", "2", "--res", "4", "--method", "dense"], "7 eigenvalues"),
    (["--dim", "2", "--res", "4", "--method", "iterative"], "7 eigenvalues"),
    (["--res", "4", "--levels", "21", "--method", "dense"], "441 eigenvalues"),
    (["--dim", "10", "--res", "6", "--method", "iterative"], "byte budget"),
    (["--dim", "10", "--levels", "21"], "at most 100000"),
    (["--res", "3,64", "--method", "iterative"], "resolution >= 4"),
    (["--res", "1,32", "--method", "sector"], "resolution >= 2"),
    (["--radius", "1e-200"], "R must lie in [1e-30, 1e30]"),
    (["--radius", "1e-160"], "R must lie in"),
    (["--radius", "1e200"], "R must lie in"),
    (["--radius", "inf"], "R must lie in"),
    (["--radius", "nan"], "R must lie in"),
    (["--hbar", "1e200"], "hbar must lie in [1e-30, 1e30]"),
    (["--hbar", "1e-200"], "hbar must lie in"),
    (["--hbar", "inf"], "hbar must lie in"),
    (["--cluster-tol", "-1"], "'cluster_tol' must be positive"),
    (["--tolerance", "nan"], "'tolerance' must be positive"),
    (["--tolerance", "0"], "'tolerance' must be positive"),
])
def test_exit_2_on_bad_spectrum_config(flags, needle, monkeypatch, capsys):
    # every rule is checked before the first eigensolve or operator apply
    def solver(*args, **kwargs):
        raise AssertionError("a solver ran on a rejected input")
    for name in ("eigvalsh", "eigh", "eigh_tridiagonal"):
        monkeypatch.setattr(spectra, name, solver)
    monkeypatch.setattr(spectra.GridOperator, "apply", solver)
    monkeypatch.setattr(np.linalg, "eig", solver)
    code, out, err = run(["spectrum", *flags], capsys)
    assert code == 2 and needle in err
    assert out == "" and "Traceback" not in err


def test_iterative_route_solves_at_the_largest_resolution(capsys):
    # held to the raw-grid tolerance, since nothing is extrapolated
    code, listed, _ = run(["spectrum", "--res", "32,48,64", "--method",
                           "iterative", "--seed", "0"], capsys)
    assert code == 0
    code, single, _ = run(["spectrum", "--res", "64", "--method", "iterative",
                           "--seed", "0"], capsys)
    assert code == 0
    listed, single = json.loads(listed), json.loads(single)
    assert listed["resolved_config"].pop("res") == [32, 48, 64]
    assert single["resolved_config"].pop("res") == [64]
    assert listed == single
    assert listed["resolved_config"]["tolerance"] == 5e-2


def test_iterative_verdict_holds_each_value_to_its_nearest_level(capsys):
    # at res 16 the grid splits l=2 into 2.9715 and 3.0, further apart than
    # the 1e-2 cluster gap; the worst deviation is the l=3 value 5.9176,
    # not 3.0 paired by index with the level 6.0
    code, out, _ = run(["spectrum", "--res", "16", "--method", "iterative",
                        "--seed", "0"], capsys)
    report = json.loads(out)
    assert code == 1 and report["results"]["pattern_matches"] is True
    assert report["max_deviations"]["cluster_value"] == pytest.approx(
        0.0824, abs=1e-4)


def test_iterative_verdict_fails_on_a_value_between_levels(monkeypatch,
                                                           capsys):
    # a spurious distinct value halfway between the levels 1 and 3 lies a
    # whole unit from both, and the run that passes without it fails
    lanczos = spectra.lanczos_lowest

    def planted(op, k, seed=0):
        vals, resid, steps, tests = lanczos(op, k, seed=seed)
        return np.append(vals, 2.0), np.append(resid, 0.0), steps, tests
    monkeypatch.setattr(spectra, "lanczos_lowest", planted)
    code, out, _ = run(["spectrum", "--res", "32", "--method", "iterative"],
                       capsys)
    report = json.loads(out)
    assert code == 1 and report["results"]["pattern_matches"] is True
    assert report["max_deviations"]["cluster_value"] == pytest.approx(
        1.0, abs=1e-3)


@pytest.mark.parametrize("flags", [
    ["--radius", "1e30", "--res", "32", "--method", "iterative"],
    ["--hbar", "1e-30", "--res", "32,48,64"],
])
def test_spectrum_at_the_small_end_of_the_energy_scale(flags, capsys):
    # hbar^2 / R^2 = 1e-60: the Lanczos and extrapolation convergence
    # tests scale with the values, with no absolute floor above them
    code, out, _ = run(["spectrum", *flags], capsys)
    assert code == 0
    assert json.loads(out)["results"]["pattern_matches"] is True


@pytest.mark.parametrize("dim", [3, 6])
def test_sector_route_at_the_top_of_the_ladder(dim, capsys):
    # the blocks' non-real eigenvalues sit far above the reported ones
    code, out, _ = run(["spectrum", "--dim", str(dim), "--levels", "21",
                        "--res", "96", "--method", "sector"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["pattern_matches"] is True
    assert len(results["clusters"]) == 21


def _nan_sphere_defect(monkeypatch, hit):
    """Make operators._sphere_defect return NaN where ``hit`` says so."""
    real = operators._sphere_defect

    def patched(tag, h1, h2, p, grids, chart):
        if hit(tag, chart):
            return float("nan")
        return real(tag, h1, h2, p, grids, chart)
    monkeypatch.setattr(operators, "_sphere_defect", patched)


@pytest.mark.parametrize("chart", ["reduced", "hyperspherical"])
def test_nan_defect_fails_the_check(chart, monkeypatch, capsys):
    # NaN rows on one chart, with the displayed-convention control intact
    _nan_sphere_defect(monkeypatch, lambda tag, c: (
        c == chart and tag.convention != "displayed"))
    code, out, err = run(["check", "hermiticity", "--res", "16"], capsys)
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_nan_hermiticity_control_fails_the_check(monkeypatch, capsys):
    # a control that cannot be measured must not let the suite pass
    _nan_sphere_defect(monkeypatch, lambda tag, c: tag.convention == "displayed")
    code, out, err = run(["check", "hermiticity", "--res", "16"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert math.isnan(report["results"]["displayed_convention_defect"])


@pytest.mark.parametrize("flags, flagged", [
    (["--res", "32,48,64"], 0),
    ([], 4),
])
def test_spectrum_reports_extrapolation_flags(flags, flagged, capsys):
    code, out, err = run(["spectrum", *flags], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["route"] == "dense+extrapolation"
    assert results["extrapolation_flagged"] == flagged


@pytest.mark.parametrize("dim", range(2, 11))
def test_spectrum_sector_route_at_every_dim(dim, capsys):
    code, out, _ = run(["spectrum", "--dim", str(dim), "--method", "sector"],
                       capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["pattern_matches"] is True
    assert abs(results["ground_state"]) < 1e-8


@pytest.mark.parametrize("dim", [4, 7])
def test_dirac_brackets_above_d3(dim, capsys):
    code, out, _ = run(["check", "dirac-brackets", "--dim", str(dim)], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["antisymmetry_exact"] is True
    assert len(results["families"]) == 3


def test_spectrum_dim_4_at_defaults(capsys):
    code, out, err = run(["spectrum", "--dim", "4"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["route"] == "dense+extrapolation"
    assert [m for _, m in report["results"]["clusters"]] == [1, 4, 9, 16]


def test_exit_2_on_unknown_config_file_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("dims = 3\n")
    code, _, err = run(["spectrum", "--config", str(cfg)], capsys)
    assert code == 2 and "unknown config key" in err
    code, _, err = run(["spectrum", "--config", str(tmp_path / "missing.cfg")],
                       capsys)
    assert code == 2 and "cannot read config file" in err


def test_auto_resolves_to_the_suite_defaults(tmp_path, capsys):
    # "auto" for samples and tolerance, from flags or from a config file,
    # gives the payload of a run that leaves both keys unset
    want = run(["check", "dirac-brackets"], capsys)
    got = run(["check", "dirac-brackets", "--samples", "auto",
               "--tolerance", "auto"], capsys)
    cfg = tmp_path / "auto.cfg"
    cfg.write_text("samples = auto\ntolerance = auto\n")
    filed = run(["check", "dirac-brackets", "--config", str(cfg)], capsys)
    assert want[0] == 0 and got == want and filed == want


def test_exit_3_on_non_convergence(monkeypatch, capsys):
    def boom(cfg):
        raise NonConvergenceError("lanczos stalled")
    monkeypatch.setitem(cli._RUNNERS, "spectrum", boom)
    code, out, err = run(["spectrum"], capsys)
    assert code == 3
    payload = json.loads(out)
    assert payload["error_kind"] == "non_convergence"
    assert payload["pass"] is False


def test_exit_4_when_trajectory_leaves_chart(capsys):
    code, out, err = run(["classical", "--p0", "0,0.3"], capsys)
    assert code == 4
    report = json.loads(out)
    assert abs(report["results"]["chart_margin_exit_time"] - 4.155) < 1e-6
    assert "chart margin exceeded" in err


def test_invalid_positional_suite_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "nonsense"])
    assert exc.value.code == 2


# -- output handling ----------------------------------------------------------

def test_out_file_and_quiet(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, err = run(["spectrum", "--dim", "2", "--levels", "2",
                          "--res", "12", "--quiet", "--out", str(out_path)],
                         capsys)
    assert code == 0
    assert out == "" and err == ""
    assert json.loads(out_path.read_text())["pass"] is True


def test_csv_formats(capsys):
    code, out, _ = run(["spectrum", "--dim", "2", "--levels", "3",
                        "--res", "16", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "index,eigenvalue,residual"
    code, out, _ = run(["classical", "--duration", "0.02", "--format", "csv"],
                       capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,q1,q2,p1,p2,H,constraint_radial,constraint_tangent"
    assert len(lines) == 22  # header + 21 steps of 1e-3 over 0.02
    code, out, _ = run(["check", "dirac-brackets", "--samples", "20",
                        "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "metric,value"


def _csv_rows(text):
    return list(csv.reader(text.splitlines()))


def test_spectrum_csv_lists_every_eigenvalue(capsys):
    argv = ["spectrum", "--dim", "3", "--levels", "3", "--res", "32",
            "--method", "sector"]
    _, out, _ = run(argv, capsys)
    eigenvalues = json.loads(out)["results"]["eigenvalues"]
    text = _payload(argv + ["--format", "csv"], capsys)
    rows = _csv_rows(text)
    assert rows[0] == ["index", "eigenvalue", "residual"]
    assert len(rows) == 1 + len(eigenvalues)
    assert [float(r[1]) for r in rows[1:]] == eigenvalues
    assert _payload(argv + ["--format", "csv"], capsys) == text


def test_classical_csv_rows_carry_the_reduced_energy(capsys):
    text = _payload(["classical", "--duration", "0.02", "--format", "csv"],
                    capsys)
    rows = _csv_rows(text)
    assert rows[0] == ["t", "q1", "q2", "p1", "p2", "H",
                       "constraint_radial", "constraint_tangent"]
    table = np.array(rows[1:], dtype=float)
    p = ModelParams(D=3, R=1.0)
    traj = dynamics.integrate_reduced(
        dynamics.PhaseState(chart=dynamics.PHASE_REDUCED,
                            q=np.array([0.2, 0.0]), p=np.array([0.0, 0.08])),
        0.02, 1e-3, p)
    assert table.shape == (len(traj), 8)
    assert np.array_equal(table[:, 5], dynamics.hamiltonian_value(traj, p))
    assert np.max(np.abs(table[:, 6:])) < 1e-13


def test_hermiticity_csv_rows_have_two_fields(capsys):
    text = _payload(["check", "hermiticity", "--res", "16", "--format", "csv"],
                    capsys)
    rows = _csv_rows(text)
    assert all(len(row) == 2 for row in rows)
    assert ["rows[0].pair", "l1,l2"] in rows


@pytest.mark.parametrize("argv", [
    ["classical", "--duration", "0.02"],
    ["check", "dirac-brackets", "--samples", "20"],
    ["spectrum", "--dim", "2", "--levels", "3", "--res", "16"],
    ["pathintegral"],
], ids=["classical", "check", "spectrum", "pathintegral"])
def test_json_output_builds_no_csv(argv, monkeypatch, capsys):
    def boom(*args):
        raise AssertionError("csv_text called for --format json")
    monkeypatch.setattr(cli, "csv_text", boom)
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.filterwarnings("error")
def test_diverging_classical_step_exits_3_without_warnings(capsys):
    # the midpoint iteration overflows to inf and NaN before it gives up
    code, out, err = run(["classical", "--p0", "0,1e10", "--duration", "0.01"],
                         capsys)
    assert code == 3
    assert json.loads(out)["error_kind"] == "non_convergence"
    assert "Warning" not in err


def test_config_file_plus_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim = 2\nlevels = 3\nres = 16\ntolerance = 1e-18\n")
    code, out, _ = run(["spectrum", "--config", str(cfg)], capsys)
    assert code == 1  # file tolerance is unreachable
    code, out, _ = run(["spectrum", "--config", str(cfg),
                        "--tolerance", "1e-6"], capsys)
    assert code == 0  # flag relaxes it


# -- determinism --------------------------------------------------------------

def _payload(argv, capsys):
    code, out, _ = run(argv, capsys)
    assert code == 0
    return out


def test_repeated_runs_are_byte_identical(capsys):
    for argv in (
        ["spectrum", "--dim", "3", "--levels", "3", "--res", "24"],
        ["check", "dirac-brackets", "--samples", "50"],
        ["check", "chart-equivalence", "--samples", "10", "--lmax", "3"],
        ["classical", "--duration", "0.1", "--format", "csv"],
    ):
        assert _payload(argv, capsys) == _payload(argv, capsys)


def test_seed_changes_the_sampled_report(capsys):
    a = _payload(["check", "dirac-brackets", "--samples", "50"], capsys)
    b = _payload(["check", "dirac-brackets", "--samples", "50",
                  "--seed", "8"], capsys)
    assert json.loads(a)["results"]["max_deviation"] != \
        json.loads(b)["results"]["max_deviation"]
