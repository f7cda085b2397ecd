"""End-to-end acceptance checks, one test per shipped guarantee.

Every test exercises a full pipeline at its documented tolerance and time
budget and appends a single PASS/FAIL line (with the measured numbers) to
the summary block printed after the run.  The line is recorded before any
assertion fires so a red criterion still shows up in the report with its
actual margin.
"""

import json
import subprocess
import sys
from time import perf_counter

import numpy as np

from conftest import ACCEPTANCE_LINES

from rotorkit import cli, dynamics
from rotorkit.dynamics import (
    PHASE_EMBEDDED,
    PHASE_REDUCED,
    PhaseState,
    conserved_series,
    embedded_from_reduced,
    integrate_embedded_oracle,
    integrate_reduced,
)
from rotorkit.geometry import ModelParams, metric, metric_determinant
from rotorkit.pathintegral import (
    CORRECTED_POLAR,
    NAIVE_POLAR,
    RadialGrid,
    default_probe_family,
    extract_effective_potential,
)
from rotorkit.spectra import (
    SpectralGrid,
    assemble,
    cluster_eigenvalues,
    compute_spectrum,
    extrapolate,
    reference_spectrum,
    sector_spectrum,
)

P0 = ModelParams(D=3, R=1.0, hbar=1.0)


def _record(num, name, ok, detail, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(
        f"criterion {num} ({name}): {verdict} - {detail}; "
        f"{elapsed:.2f} s (budget {budget:g} s)")


def test_criterion_1_determinant_identity():
    # closed form R^2/(R^2-|x|^2) against a dense LU determinant at 1e4
    # random interior points for every embedding dimension 2..6
    rng = np.random.default_rng(11)
    n = 10_000
    t0 = perf_counter()
    worst = 0.0
    for D in (2, 3, 4, 5, 6):
        p = ModelParams(D=D, R=1.0 + 0.1 * D)
        m = D - 1  # chart dimension: the reduced ball lives in R^{D-1}
        u = rng.standard_normal((n, m))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        x = u * (p.R * 0.98 * rng.random((n, 1)) ** (1.0 / m))
        s = np.sum(x * x, axis=1)
        # batched metric: the same delta_ij + x_i x_j / (R^2 - |x|^2) the
        # scalar helper builds, assembled for all points at once
        g = np.eye(m)[None, :, :] + x[:, :, None] * x[:, None, :] \
            / (p.R ** 2 - s)[:, None, None]
        closed = np.array([metric_determinant(xi, p) for xi in x])
        dense = np.linalg.det(g)
        worst = max(worst, float(np.max(np.abs(dense - closed) / closed)))
        # the batch assembly must agree with the shipped per-point metric
        for i in range(0, n, n // 20):
            assert np.allclose(g[i], metric(x[i], p), rtol=0, atol=1e-15)
    dt = perf_counter() - t0
    ok = worst < 1e-12 and dt < 1.0
    _record(1, "determinant identity", ok,
            f"max rel err {worst:.2e} (tol 1e-12)", dt, 1)
    assert worst < 1e-12
    assert dt < 1.0


def test_criterion_2_chart_equivalence():
    # the reduced-chart Hamiltonian and the hyperspherical one must agree
    # pointwise on 100 pulled-back harmonics at 100 random ball points
    t0 = perf_counter()
    report, worst = cli.suite_chart_equivalence(P0, lmax=9, samples=100,
                                                seed=7)
    dt = perf_counter() - t0
    assert report["family_size"] >= 100
    ok = worst < 1e-10 and dt < 10.0
    _record(2, "chart equivalence", ok,
            f"{report['family_size']} harmonics x {report['points']} pts, "
            f"max rel dev {worst:.2e} (tol 1e-10)", dt, 10)
    assert worst < 1e-10
    assert dt < 10.0


def test_criterion_3_angular_momentum_identity():
    # sum_{a<b} L_ab^2 / (2 R^2) applied as an operator must reproduce H
    # on the same harmonic family
    t0 = perf_counter()
    report, worst = cli.suite_angular_momentum(P0, lmax=9, samples=100,
                                               seed=7)
    dt = perf_counter() - t0
    assert report["family_size"] >= 100
    ok = worst < 1e-10 and dt < 10.0
    _record(3, "angular momentum identity", ok,
            f"max rel dev {worst:.2e} (tol 1e-10)", dt, 10)
    assert worst < 1e-10
    assert dt < 10.0


def test_criterion_4_spectrum_no_curvature_term():
    # D=3 dense route at three resolutions with Richardson extrapolation:
    # clusters (0,1), (1,3), (3,5), (6,7); the ground state is the sharp
    # probe, since any curvature term in H would shift it by O(1)
    t0 = perf_counter()
    raws = [compute_spectrum(assemble(SpectralGrid.build(P0, r)), 16,
                             method="dense", cluster_tol=1e-2)
            for r in (48, 64, 96)]
    values, _, _ = extrapolate(raws)
    dt_dense = perf_counter() - t0

    clusters = cluster_eigenvalues(values, 1e-2)
    mults = [m for _, m in clusters]
    e0 = float(values[0])
    expect = [(0.5 * l * (l + 1), 2 * l + 1) for l in range(4)]
    cluster_dev = max(abs(c - e) for (c, _), (e, _) in zip(clusters, expect))

    # sector route cross-check, spectrally exact per sector: D=2 levels
    # m^2/2 with multiplicity 2, D=4 levels l(l+2)/2 with multiplicity
    # (l+1)^2, both through l=2
    t1 = perf_counter()
    sec_dev = 0.0
    sec_mults_ok = True
    for D in (2, 4):
        p = ModelParams(D=D, R=1.0, hbar=1.0)
        ref = reference_spectrum(D, 2, p)
        k = sum(m for _, m in ref)
        res = sector_spectrum(p, 64, k)
        for (val, mult), (rval, rmult) in zip(res.clusters, ref):
            sec_dev = max(sec_dev, abs(val - rval))
            sec_mults_ok = sec_mults_ok and mult == rmult
    dt_sector = perf_counter() - t1

    ok = (mults == [1, 3, 5, 7] and abs(e0) < 1e-8 and cluster_dev < 1e-4
          and sec_dev < 1e-8 and sec_mults_ok
          and dt_dense < 120.0 and dt_sector < 30.0)
    _record(4, "rotor spectrum, no curvature term", ok,
            f"D=3 mults {mults}, |E0| {abs(e0):.2e} (tol 1e-8), cluster dev "
            f"{cluster_dev:.2e}; D=2/4 sector dev {sec_dev:.2e}",
            dt_dense + dt_sector, 150)
    assert mults == [1, 3, 5, 7]
    assert abs(e0) < 1e-8
    assert cluster_dev < 1e-4
    assert sec_mults_ok and sec_dev < 1e-8
    assert dt_dense < 120.0
    assert dt_sector < 30.0


def test_criterion_5_hermiticity():
    # <f, T h> = <T f, h> under the sqrt(g) measure at resolution 64 for H
    # in both charts and every momentum component
    t0 = perf_counter()
    report, worst = cli.suite_hermiticity(P0, res=64)
    dt = perf_counter() - t0
    # the known-bad ordering is reported alongside as a control; it has to
    # stay loud or the defect metric itself is broken
    control = report["displayed_convention_defect"]
    ok = worst < 1e-8 and control > 0.1 and dt < 30.0
    _record(5, "hermiticity", ok,
            f"max defect {worst:.2e} (tol 1e-8) over {len(report['rows'])} "
            f"operator pairs, non-symmetric control {control:.2f}", dt, 30)
    assert worst < 1e-8
    assert control > 0.1
    assert dt < 30.0


def test_criterion_6_classical_equivalence():
    # reduced-chart integration lifted to the embedding vs a projected
    # geodesic oracle; both conserve energy and every angular momentum
    s0 = PhaseState(chart=PHASE_REDUCED, q=np.array([0.2, 0.0]),
                    p=np.array([0.0, 0.08])).validate(P0)
    T, step = 10.0, 1e-3
    t0 = perf_counter()
    traj = integrate_reduced(s0, T, step, P0)
    x0, v0 = embedded_from_reduced(s0, P0)
    oracle = integrate_embedded_oracle(x0, v0, T, step, P0)
    lift_x = np.empty((len(traj), P0.D))
    lift_v = np.empty((len(traj), P0.D))
    for i, s in enumerate(traj):
        lift_x[i], lift_v[i] = embedded_from_reduced(s, P0)
    sup = float(np.max(np.abs(lift_x - oracle.q)))
    drift = 0.0
    for q, v in ((lift_x, lift_v), (oracle.q, oracle.p)):
        series = conserved_series(
            dynamics.Trajectory(PHASE_EMBEDDED, traj.times, q, v), P0)
        drift = max(drift,
                    float(np.max(np.abs(series["energy"]
                                        - series["energy"][0]))),
                    float(np.max(np.abs(series["L"] - series["L"][0]))))
    dt = perf_counter() - t0
    ok = sup < 1e-6 and drift < 1e-8 and dt < 10.0
    _record(6, "classical equivalence", ok,
            f"sup dev {sup:.2e} (tol 1e-6), E/L drift {drift:.2e} "
            f"(tol 1e-8) over t in [0,10]", dt, 10)
    assert sup < 1e-6
    assert drift < 1e-8
    assert dt < 10.0


def test_criterion_7_dirac_brackets():
    # all three bracket families at 1000 random shell points, evaluated in
    # the canonical chart; antisymmetry bitwise; Jacobi on a mixed triple
    t0 = perf_counter()
    report, worst = cli.suite_dirac_brackets(P0, samples=1000, seed=7)
    dt = perf_counter() - t0
    anti = report["antisymmetry_exact"]
    jac = report["jacobi_max_deviation"]
    ok = worst < 1e-10 and anti and jac < 1e-9 and dt < 10.0
    _record(7, "Dirac brackets", ok,
            f"max dev {worst:.2e} (tol 1e-10), antisymmetry exact: {anti}, "
            f"Jacobi {jac:.2e} (tol 1e-9)", dt, 10)
    assert worst < 1e-10
    assert anti
    assert jac < 1e-9
    assert dt < 10.0


def test_criterion_8_time_slicing_correction():
    # naive polar slicing with the geometric midpoint must reproduce
    # 8 r^2 dV / hbar^2 = 1 within 2 percent across r in [0.5, 3]; the
    # corrected kernel must cancel dV to 1e-3 of that scale
    p = ModelParams(D=2, R=1.0, hbar=1.0)
    grid = RadialGrid(0.1, 8.0, 2048)
    family = default_probe_family(grid)
    radii = np.linspace(0.5, 3.0, 26)
    eps = (1e-3, 5e-4, 2.5e-4)
    t0 = perf_counter()
    naive = extract_effective_potential(family, radii, eps, p,
                                        midpoint_rule="geometric",
                                        prescription=NAIVE_POLAR)
    coeff_dev = float(np.max(np.abs(naive.relative_error)))
    corrected = extract_effective_potential(family, radii, eps, p,
                                            midpoint_rule="geometric",
                                            prescription=CORRECTED_POLAR)
    resid = float(np.max(np.abs(corrected.delta_v / corrected.predicted)))
    dt = perf_counter() - t0
    ok = coeff_dev < 0.02 and resid < 1e-3 and dt < 60.0
    _record(8, "time-slicing correction", ok,
            f"8r^2 dV/hbar^2 = 1 +/- {coeff_dev:.2e} (tol 0.02), corrected "
            f"residual {resid:.2e} (tol 1e-3)", dt, 60)
    assert coeff_dev < 0.02
    assert resid < 1e-3
    assert dt < 60.0


def test_criterion_9_cli_determinism():
    # two cold subprocess runs with the same seed must emit byte-identical
    # JSON payloads; the Monte Carlo suite is the one with real RNG use
    argv = [sys.executable, "-m", "rotorkit.cli",
            "check", "dirac-brackets", "--samples", "300", "--seed", "7"]
    t0 = perf_counter()
    runs = [subprocess.run(argv, capture_output=True) for _ in range(2)]
    dt = perf_counter() - t0
    codes = [r.returncode for r in runs]
    identical = runs[0].stdout == runs[1].stdout
    payload = json.loads(runs[0].stdout)
    ok = identical and codes == [0, 0] and payload["pass"] and dt < 5.0
    _record(9, "CLI determinism", ok,
            f"exit codes {codes}, payloads byte-identical: {identical} "
            f"({len(runs[0].stdout)} bytes)", dt, 5)
    assert codes == [0, 0]
    assert identical
    assert payload["pass"] is True
    assert dt < 5.0
