"""Command-line front end: spectrum, check, classical, pathintegral.

Every run resolves a flat key=value configuration (file < flags, flags win),
validates it against a per-command schema with unknown-key rejection, and
emits a report whose payload is a pure function of the resolved config:
deterministic JSON (sorted keys) or a CSV table, never wall-clock state.
The resolved config is embedded in the report, so re-running from it
reproduces the report byte for byte.

This module only parses, resolves configuration, dispatches and formats
reports.  The layers return data and this module alone formats it:
``json_text`` writes the JSON payload, with each non-finite float as
null, and ``csv_text``, the one CSV writer, turns the rows each runner
builds from that data into the CSV table.  The check suites live with the operators they check:
``operators.suite_chart_equivalence``, ``suite_angular_momentum`` and
``suite_hermiticity``, and ``dynamics.suite_dirac_brackets``.

Exit codes:
  0  every pass criterion held; stderr names each numeric one's value
  1  a criterion failed; the report is still written, with pass: false,
     and stderr names only the failing criteria.  Each runner lists its
     criteria once, as (name, value, bound) records, and ``_verdict``
     alone turns them into ``pass``, exit code 0 or 1 and that line
  2  rejected input, before any solver runs.  This module rejects bad
     keys and values (positive keys must also be finite, and a seed
     must not be negative) and holds the rules of keys only it has: a
     check suite must be selected, the pathintegral evaluation window
     must sit inside [r_min, r_max], a spectrum lists at most 100000
     eigenvalues, a classical run with its payload in the requested
     format fits geometry.MEMORY_BUDGET (``_classical_peak_bytes``), and
     ``--out`` names a writable file: not a directory, in a directory
     that exists and is writable.  Every other rule lives
     once, in the layer that owns it,
     and the layer checks it at entry, before its first solve:
     geometry.ModelParams (dim, radius, hbar), spectra.route_spectrum,
     the check suites in operators and dynamics,
     dynamics.integrate_reduced (its start state included), and
     pathintegral.extract_effective_potential with RadialGrid, whose
     size rules, check_extraction_sizes (memory included), also run before
     the probes and radii are sized.  ``main`` maps every ValueError to
     exit 2, so exit 2 never follows a solver call
  3  an iterative scheme failed to converge
  4  classical trajectory left the chart margin (exit time in the report)
"""

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .geometry import MEMORY_BUDGET, ModelParams
from .operators import (suite_angular_momentum, suite_chart_equivalence,
                        suite_hermiticity)
from .spectra import (NonConvergenceError, cluster_eigenvalues,
                      reference_eigenvalues, reference_spectrum, route_spectrum)
from .dynamics import (ChartMarginError, StepConvergenceError, _step_count,
                       conserved_series, constraint_residuals,
                       embedded_from_reduced, hamiltonian_value,
                       integrate_embedded_oracle, integrate_reduced,
                       suite_dirac_brackets)
from .pathintegral import (CORRECTED_POLAR, NAIVE_POLAR, RadialGrid,
                           check_extraction_sizes, default_probe_family,
                           extract_effective_potential)

__all__ = ["main", "build_parser", "resolve_config", "ConfigError", "SCHEMAS",
           "CHECK_SUITES"]


class ConfigError(ValueError):
    """Configuration rejected; maps to exit code 2."""


# ---------------------------------------------------------------------------
# configuration schema and parsing

# field spec: type, default, help, optional choices, optional positivity
# (positive and finite); ModelParams alone bounds radius and hbar
def _f(typ, default, help_, choices=None, positive=False):
    return {"type": typ, "default": default, "help": help_,
            "choices": choices, "positive": positive}


CHECK_SUITES = ("chart-equivalence", "hermiticity", "angular-momentum",
                "dirac-brackets")

SCHEMAS = {
    "spectrum": {
        "dim": _f("int", 3, "embedding dimension, 2 to 10"),
        "radius": _f("float", 1.0, "sphere radius R"),
        "hbar": _f("float", 1.0, "Planck constant"),
        "levels": _f("int", 4, "exact levels l = 0..levels-1 to compare",
                     positive=True),
        "res": _f("ints", (48, 64, 96),
                  "resolutions; sector and iterative solve at the largest "
                  "only, dense takes one or three or more (extrapolated)"),
        "method": _f("str", "auto", "eigenvalue route",
                     choices=("auto", "sector", "dense", "iterative")),
        "tolerance": _f("float", None,
                        "max |cluster value - exact| accepted", positive=True),
        "cluster_tol": _f("float", None,
                          "gap below which eigenvalues share a cluster",
                          positive=True),
        "e0_tol": _f("float", 1e-8, "ground state |E0| bound", positive=True),
        "seed": _f("int", 0, "start-vector seed for the iterative route"),
    },
    "check": {
        "suite": _f("str", None, "which invariant family to verify",
                    choices=CHECK_SUITES),
        "dim": _f("int", 3, "embedding dimension"),
        "radius": _f("float", 1.0, "sphere radius R"),
        "hbar": _f("float", 1.0, "Planck constant"),
        "lmax": _f("int", 9, "largest harmonic degree in the test family",
                   positive=True),
        "samples": _f("int", None,
                      "evaluation points (brackets: phase-space samples)",
                      positive=True),
        "res": _f("int", 64, "quadrature resolution for hermiticity",
                  positive=True),
        "tolerance": _f("float", None, "pass threshold", positive=True),
        "seed": _f("int", 7, "sampling seed; hermiticity ignores it"),
    },
    "classical": {
        "dim": _f("int", 3, "embedding dimension"),
        "radius": _f("float", 1.0, "sphere radius R"),
        "q0": _f("floats", (0.2, 0.0), "initial reduced position"),
        "p0": _f("floats", (0.0, 0.08), "initial reduced momentum"),
        "duration": _f("float", 10.0, "integration time", positive=True),
        "dt": _f("float", 1e-3, "time step", positive=True),
        "margin": _f("float", 0.05, "chart margin fraction of R"),
        "sup_tol": _f("float", 1e-6,
                      "sup-norm bound between the two integrators",
                      positive=True),
        "conserve_tol": _f("float", 1e-8, "drift bound for E and L_ab",
                           positive=True),
        "seed": _f("int", 0, "unused; recorded for config uniformity"),
    },
    "pathintegral": {
        "hbar": _f("float", 1.0, "Planck constant"),
        "eps_list": _f("floats", (1e-3, 5e-4, 2.5e-4),
                       "descending Euclidean slice widths"),
        "r_min": _f("float", 0.1, "inner radial cutoff", positive=True),
        "r_max": _f("float", 8.0, "outer radial cutoff", positive=True),
        "nodes": _f("int", 2048, "radial grid nodes", positive=True),
        "r_eval_min": _f("float", 0.5, "first extraction radius",
                         positive=True),
        "r_eval_max": _f("float", 3.0, "last extraction radius",
                         positive=True),
        "r_eval_count": _f("int", 26, "extraction radii count",
                           positive=True),
        "prescription": _f("str", "naive", "polar slice kernel variant",
                           choices=("naive", "corrected")),
        "midpoint_rule": _f("str", "geometric",
                            "radius entering the angular width",
                            choices=("geometric", "arithmetic")),
        "fit_tol": _f("float", 0.02,
                      "bound on |8 r^2 dV / hbar^2 - 1| (naive)",
                      positive=True),
        "corrected_tol": _f("float", 1e-3,
                            "relative residual bound (corrected)",
                            positive=True),
        "seed": _f("int", 0, "unused; recorded for config uniformity"),
    },
}


# each schema type's parser; config-file and flag values arrive as strings
_PARSERS = {"int": int, "float": float, "str": str,
            "ints": lambda raw: tuple(int(t) for t in raw.split(",")),
            "floats": lambda raw: tuple(float(t) for t in raw.split(","))}


def _coerce(key, raw, spec):
    """Parse a config-file or flag string as the schema's type.  A numeric
    key whose default is None, chosen by the command, takes 'auto' too."""
    typ = spec["type"]
    if raw == "auto" and spec["default"] is None and typ in ("int", "float"):
        return None
    try:
        val = _PARSERS[typ](raw)
    except ValueError:
        raise ConfigError(f"key '{key}' expects {typ}, got {raw!r}") from None
    if spec["choices"] is not None and val not in spec["choices"]:
        raise ConfigError(
            f"key '{key}' must be one of {', '.join(spec['choices'])}; "
            f"got {val!r}")
    if key == "seed" and val < 0:  # one rule for every command, used or not
        raise ConfigError(f"key 'seed' must be a non-negative integer, got {val}")
    if spec["positive"] and not 0 < val < math.inf:
        raise ConfigError(
            f"key '{key}' must be positive and finite, got {val!r}")
    return val


def parse_config_text(text):
    """key = value lines; '#' comments and blank lines ignored."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, _, value = body.partition("=")
        out[key.strip()] = value.strip()
    return out


def resolve_config(cmd, file_entries, flag_entries):
    """defaults < config file < flags; unknown keys are errors."""
    schema = SCHEMAS[cmd]
    cfg = {k: spec["default"] for k, spec in schema.items()}
    for key, raw in file_entries.items():
        if key not in schema:
            raise ConfigError(f"unknown config key '{key}'")
        cfg[key] = _coerce(key, raw, schema[key])
    for key, raw in flag_entries.items():
        if raw is None:
            continue
        cfg[key] = _coerce(key, raw, schema[key])
    return cfg


def _report(cmd, cfg, results, max_deviations, passed):
    return {
        "tool_version": __version__,
        "command": cmd,
        "resolved_config": cfg,
        "results": results,
        "max_deviations": max_deviations,
        "pass": passed,
    }


def _holds(value, bound):
    """A flag record (bound True) must be True; a numeric one must not
    exceed its bound, so a NaN or None value fails."""
    if bound is True:
        return value is True
    return value is not None and value <= bound


def _verdict(cmd, cfg, results, max_deviations, criteria):
    """(exit code, report, stderr line) of a finished run, decided by its
    ``criteria``: (name, value, bound) records, in the order stderr names
    them.  A failing run names only its failing records; a passing run
    names every numeric record."""
    failed = [(n, v) for n, v, b in criteria if not _holds(v, b)]
    shown = failed or [(n, v) for n, v, b in criteria if b is not True]
    named = ", ".join(f"{n}={v:.3g}" if isinstance(v, float)
                      else f"{n}={json.dumps(v)}" for n, v in shown)
    status = f"{'tolerance exceeded' if failed else 'pass'} ({named})"
    return ((1 if failed else 0),
            _report(cmd, cfg, results, max_deviations, not failed), status)


def _strict(obj):
    """``obj`` as JSON data: tuples as lists and each non-finite float as
    None, since JSON has no NaN or infinity."""
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def json_text(report):
    return json.dumps(_strict(report), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def csv_text(header, rows):
    """The one CSV writer: a header row, then one line per row.

    Python floats are written as their repr; text fields holding a comma
    or a quote are quoted.
    """
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(header)
    wr.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# spectrum

# payloads list all k values and the sector route holds up to res * k; D=4
# at levels 21 needs 3311, D=10 at levels 10 needs 72930
_MAX_EIGENVALUES = 100_000


def run_spectrum(cfg, fmt):
    p = ModelParams(D=cfg["dim"], R=cfg["radius"], hbar=cfg["hbar"])
    method = cfg["method"]
    if method == "auto":
        method = "dense" if len(cfg["res"]) > 1 else "sector"
    scale = p.hbar ** 2 / p.R ** 2
    cluster_tol = cfg["cluster_tol"]
    if cluster_tol is None:
        cluster_tol = (1e-6 if method == "sector" else 1e-2) * scale
    ref_clusters = reference_spectrum(p, cfg["levels"] - 1)
    k = sum(m for _, m in ref_clusters)
    if k > _MAX_EIGENVALUES:
        raise ConfigError(f"levels {cfg['levels']} at dim {p.D} need {k} "
                          f"eigenvalues; a run lists at most {_MAX_EIGENVALUES}")
    result = route_spectrum(p, cfg["res"], k, method, seed=cfg["seed"])
    meta = result.meta
    tol = cfg["tolerance"]
    # sector values are exact; raw grid values keep the discretization
    # error that extrapolation removes
    if tol is None:
        tol = (1e-8 if method == "sector" else
               1e-4 if meta["route"] == "dense+extrapolation" else 5e-2) * scale
    cfg = dict(cfg, method=method, tolerance=float(tol),
               cluster_tol=float(cluster_tol))

    clusters = cluster_eigenvalues(result.eigenvalues, cluster_tol)
    distinct_only = bool(meta.get("distinct_only", False))
    if distinct_only:
        # a level the grid splits into two clusters must not shift the
        # levels above it: each cluster up to the top level plus tol is held
        # to its nearest level, and each level to its nearest cluster
        pattern_ok = len(clusters) >= len(ref_clusters)
        found = np.array([v for v, _ in clusters])
        levels = np.array([v for v, _ in ref_clusters])
        gaps = np.abs(found[:, None] - levels[None, :])
        near = gaps.min(axis=1)[found <= levels[-1] + tol]
        value_dev = float(np.max([gaps.min(axis=0).max(), near.max(initial=0.0)]))
        clusters = clusters[: len(ref_clusters)]
    else:
        pattern_ok = (len(clusters) == len(ref_clusters)
                      and all(c[1] == rc[1]
                              for c, rc in zip(clusters, ref_clusters)))
        value_dev = float(np.max([abs(c[0] - rc[0])
                                  for c, rc in zip(clusters, ref_clusters)]))
    e0 = float(result.eigenvalues[0])

    results = {
        "route": meta["route"],
        "eigenvalues": [float(v) for v in result.eigenvalues],
        "clusters": [[float(v), int(m)] for v, m in clusters],
        "reference_clusters": [[float(v), int(m)] for v, m in ref_clusters],
        "pattern_matches": bool(pattern_ok),
        "distinct_only": distinct_only,
        "ground_state": e0,
    }
    if "raw" in meta:
        ref_eigs = reference_eigenvalues(p, cfg["levels"] - 1)
        results["per_res"] = [
            {"res": r, "max_raw_deviation": float(np.max(np.abs(raw - ref_eigs)))}
            for r, raw in zip(meta["res"], meta["raw"])]
    results.update({key: meta[key] for key in meta if key.startswith("extrapolation")})
    # against a pattern that does not match, no cluster value is measured
    max_dev = {"cluster_value": value_dev if pattern_ok else None,
               "ground_state": abs(e0)}
    criteria = [("pattern_matches", pattern_ok, True)]
    if pattern_ok:
        criteria.append(("cluster_value", value_dev, tol))
    criteria.append(("ground_state", abs(e0),
                     cfg["e0_tol"] * p.hbar ** 2 / p.R ** 2))
    resid = result.residual_norms  # None where a route computes none
    return (*_verdict("spectrum", cfg, results, max_dev, criteria),
            lambda: csv_text(("index", "eigenvalue", "residual"), (
                (i, float(v), "" if resid is None else float(resid[i]))
                for i, v in enumerate(result.eigenvalues))))


# ---------------------------------------------------------------------------
# check

_SUITE_DEFAULTS = {
    # suite -> (default samples, default tolerance)
    "chart-equivalence": (100, 1e-10),
    "angular-momentum": (100, 1e-10),
    "hermiticity": (None, 1e-8),
    "dirac-brackets": (1000, 1e-10),
}


def run_check(cfg, fmt):
    suite = cfg["suite"]
    if suite is None:
        raise ConfigError("no suite selected (positional argument or 'suite' "
                          f"config key; one of {', '.join(CHECK_SUITES)})")
    default_samples, default_tol = _SUITE_DEFAULTS[suite]
    samples = cfg["samples"] if cfg["samples"] is not None else default_samples
    tol = cfg["tolerance"] if cfg["tolerance"] is not None else default_tol
    cfg = dict(cfg, samples=samples, tolerance=tol)
    p = ModelParams(D=cfg["dim"], R=cfg["radius"], hbar=cfg["hbar"])
    if suite == "chart-equivalence":
        results, worst = suite_chart_equivalence(p, cfg["lmax"], samples,
                                                 cfg["seed"])
    elif suite == "angular-momentum":
        results, worst = suite_angular_momentum(p, cfg["lmax"], samples,
                                                cfg["seed"])
    elif suite == "hermiticity":
        results, worst = suite_hermiticity(p, cfg["res"])
    else:
        results, worst = suite_dirac_brackets(p, samples, cfg["seed"])
    criteria = [("deviation", worst, tol)]
    max_deviations = {"deviation": float(worst)}
    if "max_eigenvalue_deviation" in results:
        # the closed-form eigenvalue, a third route, under the same bound
        eigen = results["max_eigenvalue_deviation"]
        criteria.append(("eigenvalue", eigen, tol))
        max_deviations["eigenvalue"] = eigen
    if suite == "dirac-brackets":
        criteria = [("antisymmetry_exact", results["antisymmetry_exact"], True),
                    *criteria,  # a fixed Jacobi bound, not a config key
                    ("jacobi", results["jacobi_max_deviation"], 1e-9)]
    results["suite"] = suite
    return (*_verdict("check", cfg, results, max_deviations, criteria),
            lambda: csv_text(("metric", "value"), _scalar_leaves(results)))


def _scalar_leaves(obj, path=""):
    """(path, value) for each bool, number and string leaf of a results dict."""
    if isinstance(obj, dict):
        for key in obj:
            yield from _scalar_leaves(obj[key],
                                      f"{path}.{key}" if path else str(key))
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from _scalar_leaves(item, f"{path}[{i}]")
    elif isinstance(obj, float):
        yield path, float(obj)  # numpy floats are written as plain floats
    elif isinstance(obj, (int, str)):
        yield path, obj


# ---------------------------------------------------------------------------
# classical

def _classical_peak_bytes(D, steps, fmt):
    """Estimated peak bytes of a ``classical`` run of steps + 1 rows.

    The run holds 3 D (D-1)/2 + 6 D + 8 doubles a row: both trajectories,
    the lift, and both routes' conserved series while the second route's
    L columns are stacked.  A CSV payload then holds the row's 2 D + 2
    cells at 104 bytes each: the stacked double, the Python float and its
    pointer, and up to 25 characters of text, twice.  Add 256 KiB for the
    rest of the command.  tracemalloc measured 161 to 1597 bytes a row as
    JSON (D = 2 to 10), about 90 bytes a cell as CSV, and 0.1 to 0.2 MB
    besides.
    """
    row = 8 * (3 * D * (D - 1) // 2 + 6 * D + 8)
    if fmt == "csv":
        row = max(row, 104 * (2 * D + 2))
    return row * (steps + 1.0) + 2 ** 18


def run_classical(cfg, fmt):
    p = ModelParams(D=cfg["dim"], R=cfg["radius"])
    q0, p0 = np.array(cfg["q0"]), np.array(cfg["p0"])
    T, dt = cfg["duration"], cfg["dt"]
    steps = _step_count(T, dt)
    need = _classical_peak_bytes(p.D, steps, fmt)
    if need > MEMORY_BUDGET:
        raise ValueError(f"{steps:.3g} steps as {fmt} need an estimated "
                         f"{need:.3g} bytes, over the {MEMORY_BUDGET} byte "
                         "budget")
    try:
        traj = integrate_reduced(q0, p0, T, dt, p, margin=cfg["margin"])
    except ChartMarginError as err:
        results = {"chart_margin_exit_time": float(err.time),
                   "margin": cfg["margin"]}
        return (4, _report("classical", cfg, results, {"deviation": None}, False),
                f"chart margin exceeded at t = {err.time:.6g}", None)

    x0, v0 = embedded_from_reduced(q0, p0, p)
    oracle = integrate_embedded_oracle(x0, v0, T, dt, p)

    lift_x, lift_v = embedded_from_reduced(traj.q, traj.p, p)
    sup = float(np.max(np.abs(lift_x - oracle.q)))

    drift = {}
    for name, x, v in (("reduced_lifted", lift_x, lift_v),
                       ("embedded_oracle", oracle.q, oracle.p)):
        series = conserved_series(x, v, p)
        drift[name] = {key: float(np.max(np.abs(s - s[0]))) for key, s in (
            ("energy", series["energy"]), ("angular_momentum", series["L"]))}
    worst_drift = float(np.max([v for d in drift.values() for v in d.values()]))

    radial, tangent = np.abs(constraint_residuals(oracle.q, oracle.p, p)).max(1)

    results = {
        "steps": len(traj) - 1,
        "sup_position_deviation": sup,
        "conservation_drift": drift,
        "oracle_constraint_max": {"radial": float(radial),
                                  "tangent": float(tangent)},
        "final_state": {"t": float(traj.times[-1]),
                        "q": [float(v) for v in traj.q[-1]],
                        "p": [float(v) for v in traj.p[-1]]},
    }
    max_dev = {"sup_position": sup, "conservation": worst_drift}
    criteria = [("sup_position", sup, cfg["sup_tol"]),
                ("conservation", worst_drift, cfg["conserve_tol"])]
    n = p.D - 1
    header = (["t"] + [f"q{i}" for i in range(1, n + 1)]
              + [f"p{i}" for i in range(1, n + 1)]
              + ["H", "constraint_radial", "constraint_tangent"])
    return (*_verdict("classical", cfg, results, max_dev, criteria),
            lambda: csv_text(header, np.column_stack([
                traj.times, traj.q, traj.p,
                hamiltonian_value(traj.q, traj.p, p),
                *constraint_residuals(lift_x, lift_v, p)]).tolist()))


# ---------------------------------------------------------------------------
# pathintegral

def run_pathintegral(cfg, fmt):
    p = ModelParams(D=2, R=1.0, hbar=cfg["hbar"])
    grid = RadialGrid(cfg["r_min"], cfg["r_max"], cfg["nodes"])
    if not (grid.r_min <= cfg["r_eval_min"] < cfg["r_eval_max"] <= grid.r_max):
        raise ConfigError("evaluation window must sit inside [r_min, r_max]")
    prescription = {"naive": NAIVE_POLAR,
                    "corrected": CORRECTED_POLAR}[cfg["prescription"]]
    # the extraction runs these rules at entry too, but only once its probes
    # and radii exist; here they run before those are sized from the input
    check_extraction_sizes(grid, cfg["eps_list"], p, cfg["r_eval_count"],
                           prescription, cfg["midpoint_rule"])
    r_samples = np.linspace(cfg["r_eval_min"], cfg["r_eval_max"],
                            cfg["r_eval_count"])
    table = extract_effective_potential(
        default_probe_family(grid), r_samples, cfg["eps_list"], p,
        midpoint_rule=cfg["midpoint_rule"], prescription=prescription)

    coeff = 1.0 + table.relative_error  # 8 r^2 dV / hbar^2
    columns = ("r", "delta_v", "predicted", "relative_error", "spread")
    rows = np.column_stack([table.r, table.delta_v, table.predicted,
                            table.relative_error, table.spread]).tolist()
    meta = table.meta
    results = {
        "midpoint_rule": meta["midpoint_rule"],
        "prescription": meta["prescription"],
        "eps_list": meta["eps_list"],
        "family_size": meta["family_size"],
        "rows": [dict(zip(columns, row)) for row in rows],
        "skipped": table.skipped,
        "richardson_flagged": dict(meta["richardson_flagged"]),
    }
    if prescription == NAIVE_POLAR:
        dev = float(np.max(np.abs(coeff - 1.0)))
        results["coefficient_fit"] = {
            "mean": float(np.mean(coeff)),
            "min": float(np.min(coeff)),
            "max": float(np.max(coeff)),
        }
        criteria = [("coefficient", dev, cfg["fit_tol"])]
    else:
        # corrected kernel: residual relative to the hbar^2/(8 r^2) scale
        rel = float(np.max(np.abs(table.delta_v / table.predicted)))
        results["residual_relative_max"] = rel
        criteria = [("residual_relative", rel, cfg["corrected_tol"])]
    return (*_verdict("pathintegral", cfg, results,
                      {n: v for n, v, _ in criteria}, criteria),
            lambda: csv_text(columns, rows))


# ---------------------------------------------------------------------------
# argument parsing and dispatch

# Each runner takes the resolved config and the payload format, json or
# csv, and returns (exit code, report, stderr line, csv): csv is None or
# a callable that builds the CSV text, so only a requested format is ever
# built.
_RUNNERS = {
    "spectrum": run_spectrum,
    "check": run_check,
    "classical": run_classical,
    "pathintegral": run_pathintegral,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rotorkit",
        description="Cross-validation toolkit for the quantized particle "
                    "on a (D-1)-sphere.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "spectrum": "eigenvalues of the sphere Hamiltonian vs the exact ladder",
        "check": "operator and bracket identity suites",
        "classical": "reduced vs embedded geodesic integration",
        "pathintegral": "time-slicing effective potential extraction",
    }
    for cmd, schema in SCHEMAS.items():
        sp = sub.add_parser(cmd, help=helps[cmd])
        if cmd == "check":
            sp.add_argument("suite_pos", nargs="?", metavar="SUITE",
                            choices=CHECK_SUITES,
                            help="one of: " + ", ".join(CHECK_SUITES))
        for key, spec in schema.items():
            sp.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}",
                            default=None, metavar="V", help=spec["help"])
        sp.add_argument("--config", default=None, metavar="PATH",
                        help="key = value file; flags override it")
        sp.add_argument("--out", default=None, metavar="PATH",
                        help="write the payload here instead of stdout")
        sp.add_argument("--format", default="json", choices=("json", "csv"),
                        help="payload format (errors always emit json)")
        sp.add_argument("--quiet", action="store_true",
                        help="suppress the stderr status line")
    return parser


def _check_out_path(path):
    """``--out`` must name a writable file, checked before any solve."""
    if os.path.isdir(path):
        raise ConfigError(f"--out {path} is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ConfigError(f"--out {path}: directory {parent} does not exist")
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise ConfigError(f"--out {path} is not writable")


def _emit(payload, out_path, quiet, status):
    if out_path is not None:
        with open(out_path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    if not quiet:
        print(status, file=sys.stderr)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    cmd = args.command
    try:
        if args.out is not None:
            _check_out_path(args.out)
        file_entries = {}
        if args.config is not None:
            try:
                with open(args.config) as fh:
                    text = fh.read()
            except OSError as err:
                raise ConfigError(f"cannot read config file: {err}") from None
            file_entries = parse_config_text(text)
        flag_entries = {k[len("cfg_"):]: v for k, v in vars(args).items()
                        if k.startswith("cfg_")}
        if cmd == "check" and getattr(args, "suite_pos", None) is not None:
            flag_entries["suite"] = args.suite_pos
        cfg = resolve_config(cmd, file_entries, flag_entries)
        code, report, status, csv_payload = _RUNNERS[cmd](cfg, args.format)
    except ValueError as err:  # ConfigError included: a rejected input
        print(f"error: {cmd}: {err}", file=sys.stderr)
        return 2
    except (NonConvergenceError, StepConvergenceError) as err:
        payload = json_text({"tool_version": __version__, "command": cmd,
                             "error": str(err),
                             "error_kind": "non_convergence", "pass": False})
        _emit(payload, args.out, args.quiet, f"non-convergence: {err}")
        return 3
    payload = (json_text(report) if args.format == "json" or csv_payload is None
               else csv_payload())
    _emit(payload, args.out, args.quiet, status)
    return code


if __name__ == "__main__":
    sys.exit(main())
