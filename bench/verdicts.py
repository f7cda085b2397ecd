"""Re-derive each command's pass/fail from the numbers in its payload.

The CLI's own ``pass`` flag is not trusted: the verdict is recomputed from
the reported values against the tolerances echoed in ``resolved_config``.
Every comparison is written as ``ok = value <= bound`` so that a NaN
(which compares false) fails, unlike the CLI's ``max(worst, d)``
reductions, which drop NaN.  The rotor reference levels are recomputed
here from the closed form, not read back from the payload.
"""

import json
import math

JACOBI_BOUND = 1e-9  # fixed in the CLI's dirac-brackets verdict, not in config


def _le(value, bound):
    return isinstance(value, (int, float)) and value <= bound


def _max_abs(values):
    """Largest |v|; NaN if any value is NaN or the list is empty."""
    out = -math.inf
    for v in values:
        if not isinstance(v, (int, float)) or math.isnan(v):
            return math.nan
        out = max(out, abs(v))
    return out if values else math.nan


def _reference_clusters(D, levels, R, hbar):
    out = []
    for l in range(levels):
        if l < 2:
            mult = 1 if l == 0 else D
        else:
            mult = math.comb(D + l - 1, l) - math.comb(D + l - 3, l - 2)
        out.append((hbar ** 2 * l * (l + D - 2) / (2.0 * R ** 2), mult))
    return out


def _spectrum(cfg, res):
    problems = []
    ref = _reference_clusters(cfg["dim"], cfg["levels"], cfg["radius"],
                              cfg["hbar"])
    clusters = res["clusters"]
    if len(clusters) != len(ref):
        return [f"{len(clusters)} clusters, expected {len(ref)}"]
    distinct_only = res["distinct_only"]
    for (v, m), (rv, rm) in zip(clusters, ref):
        if not distinct_only and m != rm:
            problems.append(f"multiplicity {m} at {rv}, expected {rm}")
    dev = _max_abs([v - rv for (v, _), (rv, _) in zip(clusters, ref)])
    if not _le(dev, cfg["tolerance"]):
        problems.append(f"cluster deviation {dev} > {cfg['tolerance']}")
    e0 = res["ground_state"]
    e0_bound = cfg["e0_tol"] * cfg["hbar"] ** 2 / cfg["radius"] ** 2
    if not _le(_max_abs([e0]), e0_bound):
        problems.append(f"|E0| = {e0} > {e0_bound}")
    if res["eigenvalues"][:1] != [e0]:
        problems.append("ground state is not the first eigenvalue")
    return problems


def _check(cfg, res):
    suite, tol = cfg["suite"], cfg["tolerance"]
    if suite in ("chart-equivalence", "angular-momentum"):
        worst = _max_abs([res["max_relative_deviation"]])
    elif suite == "hermiticity":
        worst = _max_abs([row["defect"] for row in res["rows"]])
    else:
        worst = _max_abs([f["max_deviation"] for f in res["families"].values()])
    problems = []
    if not _le(worst, tol):
        problems.append(f"{suite} deviation {worst} > {tol}")
    if suite == "dirac-brackets":
        if res["antisymmetry_exact"] is not True:
            problems.append("bracket antisymmetry is not exact")
        jac = _max_abs([res["jacobi_max_deviation"]])
        if not _le(jac, JACOBI_BOUND):
            problems.append(f"Jacobi deviation {jac} > {JACOBI_BOUND}")
    return problems


def _classical(cfg, res):
    problems = []
    sup = _max_abs([res["sup_position_deviation"]])
    if not _le(sup, cfg["sup_tol"]):
        problems.append(f"sup deviation {sup} > {cfg['sup_tol']}")
    drift = _max_abs([v for route in res["conservation_drift"].values()
                      for v in route.values()])
    if not _le(drift, cfg["conserve_tol"]):
        problems.append(f"conservation drift {drift} > {cfg['conserve_tol']}")
    return problems


def _pathintegral(cfg, res):
    rows = res["rows"]
    if not rows:
        return ["no extraction radii"]
    if cfg["prescription"] == "naive":
        worst = _max_abs([r["relative_error"] for r in rows])
        bound = cfg["fit_tol"]
    else:
        worst = _max_abs([r["delta_v"] / r["predicted"] for r in rows])
        bound = cfg["corrected_tol"]
    if not _le(worst, bound):
        return [f"{cfg['prescription']} deviation {worst} > {bound}"]
    return []


_RULES = {"spectrum": _spectrum, "check": _check, "classical": _classical,
          "pathintegral": _pathintegral}


def problems(code, payload):
    """Reasons this command run is a failure; empty when it passed."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        report = json.loads(payload)
        rule = _RULES[report["command"]]
        found = rule(report["resolved_config"], report["results"])
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as err:
        return [f"payload not readable: {type(err).__name__}: {err}"]
    if report.get("pass") is not True:
        found.append("payload does not report pass")
    return found
