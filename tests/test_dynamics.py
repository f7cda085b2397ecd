"""Constrained classical dynamics: two independent integration routes, the
bracket algebra on the constraint shell, and the symplectic-form pullback.

The embedded oracle never touches the reduced chart machinery: it
integrates x'' = -(|x'|^2/R^2) x in ambient coordinates with per-step
projection, so agreement between the two routes cross-validates the
Lagrangian reduction end to end.
"""

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorkit import dynamics
from rotorkit import expressions as ex
from rotorkit.dynamics import (
    ChartMarginError,
    StepConvergenceError,
    canonical_chart_map,
    canonical_phase_vars,
    conserved_series,
    constraint_residuals,
    dirac_bracket_expr,
    embedded_from_reduced,
    embedded_phase_vars,
    fundamental_bracket_reference,
    hamiltonian_value,
    integrate_embedded_oracle,
    integrate_reduced,
    suite_dirac_brackets,
)
from rotorkit.geometry import ChartDomainError, ModelParams, metric
from sympy_bridge import to_sympy

P3 = ModelParams(D=3, R=1.0, hbar=1.0)
SLOW = (np.array([0.2, 0.0]), np.array([0.0, 0.08]))  # reduced (q0, p0)


def reduced_from_embedded(x, v, p):
    """Oracle: project an ambient tangent state off the chart equator to the
    reduced chart, q = x[:-1] and p = g qdot = v[:-1] - q v_D / x_D."""
    q = x[:-1]
    return q, v[:-1] - q * (v[-1] / x[-1])


def omega2_pullback_expr(p):
    """Oracle: the tangency constraint x.p pulled back to the canonical
    chart, identically zero in the angles and momenta."""
    mapping = canonical_chart_map(p)
    xnames, pnames = embedded_phase_vars(p)
    return ex.add(*[ex.mul(mapping[xn], mapping[pn])
                    for xn, pn in zip(xnames, pnames)])


def test_reduced_route_matches_embedded_oracle():
    traj = integrate_reduced(*SLOW, 5.0, 1e-3, P3)
    x0, v0 = embedded_from_reduced(*SLOW, P3)
    oracle = integrate_embedded_oracle(x0, v0, 5.0, 1e-3, P3)
    lifted = np.array([embedded_from_reduced(q, m, P3)[0]
                       for q, m in zip(traj.q, traj.p)])
    assert np.max(np.abs(lifted - oracle.q)) < 1e-7


def great_circle(times, x0, v0, R):
    """Oracle: the free rotor's exact flow x0 cos(w t) + (v0 / w) sin(w t),
    w = |v0| / R, at every D; it shares no code with either integrator."""
    w = np.linalg.norm(v0) / R
    return np.outer(np.cos(w * times), x0) + np.outer(np.sin(w * times), v0 / w)


def _circle_start(D):
    # the CLI default start at D = 3; elsewhere |q0| = 0.2 and |p0| = 0.08
    # in directions that spread over every coordinate
    if D == 3:
        return SLOW
    rng = np.random.default_rng(D)
    q0, p0 = rng.standard_normal((2, D - 1))
    return 0.2 * q0 / np.linalg.norm(q0), 0.08 * p0 / np.linalg.norm(p0)


def _circle_deviations(D):
    # each route's sup distance from the exact curve over t in [0, 10] at
    # dt = 1e-3, and the routes' distance from each other
    p = ModelParams(D=D)
    q0, p0 = _circle_start(D)
    traj = integrate_reduced(q0, p0, 10.0, 1e-3, p)
    x0, v0 = embedded_from_reduced(q0, p0, p)
    oracle = integrate_embedded_oracle(x0, v0, 10.0, 1e-3, p)
    lifted = embedded_from_reduced(traj.q, traj.p, p)[0]
    exact = great_circle(traj.times, x0, v0, p.R)
    return (np.max(np.abs(lifted - exact)), np.max(np.abs(oracle.q - exact)),
            np.max(np.abs(lifted - oracle.q)))


# twice each route's measured distance from the exact curve:
# (reduced, oracle) = (1.01e-9, 3.0e-10) at D = 3, (7.5e-10, 2.64e-10) at
# D = 5 and (1.0e-9, 2.99e-10) at D = 10
CIRCLE_BOUNDS = {3: (2.0e-9, 6.0e-10), 5: (1.5e-9, 5.3e-10),
                 10: (2.0e-9, 6.0e-10)}


@pytest.mark.parametrize("D", sorted(CIRCLE_BOUNDS))
def test_both_routes_follow_the_exact_great_circle(D):
    reduced, oracle, _ = _circle_deviations(D)
    assert reduced <= CIRCLE_BOUNDS[D][0]
    assert oracle <= CIRCLE_BOUNDS[D][1]


def test_a_clock_error_in_both_steps_leaves_the_great_circle(monkeypatch):
    # planted: h = dt / 2 scaled by 1 + 1e-4 in both step functions.  The
    # routes drift together, so their mutual gap stays 1.31e-9 at D = 3,
    # but each sits 5.6e-5 from the exact curve
    for name in ("_reduced_step", "_oracle_step"):
        def skewed(a, b, dt, p, step=getattr(dynamics, name)):
            return step(a, b, dt * (1.0 + 1e-4), p)
        monkeypatch.setattr(dynamics, name, skewed)
    for D, (reduced_bound, oracle_bound) in CIRCLE_BOUNDS.items():
        reduced, oracle, gap = _circle_deviations(D)
        assert reduced > 1e4 * reduced_bound and oracle > 1e4 * oracle_bound
        assert gap < 2e-9


def test_oracle_pins_constraints_and_invariants():
    x0, v0 = embedded_from_reduced(*SLOW, P3)
    oracle = integrate_embedded_oracle(x0, v0, 5.0, 1e-3, P3)
    c_rad, c_tan = constraint_residuals(oracle.q, oracle.p, P3)
    assert np.max(np.abs(c_rad)) < 1e-13
    assert np.max(np.abs(c_tan)) < 1e-13
    cs = conserved_series(oracle.q, oracle.p, P3)
    assert np.max(np.abs(cs["energy"] - cs["energy"][0])) < 1e-12
    assert np.max(np.abs(cs["L"] - cs["L"][0:1, :])) < 1e-12
    assert cs["pairs"] == [(0, 1), (0, 2), (1, 2)]


def test_reduced_route_conserves_energy_and_angular_momentum():
    traj = integrate_reduced(*SLOW, 5.0, 1e-3, P3)
    cs = conserved_series(*embedded_from_reduced(traj.q, traj.p, P3), P3)
    assert np.max(np.abs(cs["energy"] - cs["energy"][0])) < 1e-8
    assert np.max(np.abs(cs["L"] - cs["L"][0:1, :])) < 1e-8


@pytest.mark.parametrize("D", [2, 3, 4, 5])
def test_batched_lift_and_energy_equal_the_per_state_loop(D):
    p = ModelParams(D=D, R=1.3, hbar=1.0)
    rng = np.random.default_rng(D)
    q = rng.uniform(-0.5, 0.5, (200, D - 1))
    mom = rng.standard_normal((200, D - 1))
    x, v = embedded_from_reduced(q, mom, p)
    H = hamiltonian_value(q, mom, p)
    # the per-state loop is the reference; the batch must match it bitwise
    ref_x = np.empty((len(q), D))
    ref_v = np.empty((len(q), D))
    ref_H = np.empty(len(q))
    for i in range(len(q)):
        ref_x[i], ref_v[i] = embedded_from_reduced(q[i], mom[i], p)
        ref_H[i] = hamiltonian_value(q[i], mom[i], p)
    assert np.array_equal(x, ref_x)
    assert np.array_equal(v, ref_v)
    assert np.array_equal(H, ref_H)


@pytest.mark.parametrize("D", [2, 3, 4, 5])
def test_lift_and_energy_match_a_solve_with_the_metric(D):
    # the closed forms qdot = g^{ij} p_j = p - q (q.p)/R^2 and H = p.qdot/2
    # against a dense solve of g qdot = p with the reduced metric
    p = ModelParams(D=D, R=1.3, hbar=1.0)
    rng = np.random.default_rng(20 + D)
    q = rng.uniform(-0.5, 0.5, (50, D - 1))
    mom = rng.standard_normal((50, D - 1))
    qdot = np.linalg.solve(metric(q, p), mom[..., None])[..., 0]
    x, v = embedded_from_reduced(q, mom, p)
    assert np.max(np.abs(v[:, :-1] - qdot)) < 1e-13
    assert np.max(np.abs(np.sum(x * v, axis=1))) < 1e-13
    assert np.max(np.abs(hamiltonian_value(q, mom, p)
                         - 0.5 * np.sum(mom * qdot, axis=1))) < 1e-13


def test_batched_lift_rejects_other_charts():
    # ambient rows (x, v) carry D components where the reduced chart has D-1
    x, v = np.array([[0.0, 0.0, 1.0]]), np.array([[0.1, 0.0, 0.0]])
    with pytest.raises(ChartDomainError):
        embedded_from_reduced(x, v, P3)
    with pytest.raises(ChartDomainError):
        hamiltonian_value(x, v, P3)


def test_multiplier_elimination_identity_along_oracle():
    # eliminating the Lagrange multiplier uses x . xdd = -|xd|^2; check it
    # on the integrated flow with a central-difference second derivative
    x0, v0 = embedded_from_reduced(*SLOW, P3)
    oracle = integrate_embedded_oracle(x0, v0, 2.0, 1e-3, P3)
    dt = 1e-3
    x, v = oracle.q, oracle.p
    xdd = (x[2:] - 2.0 * x[1:-1] + x[:-2]) / dt ** 2
    resid = (np.einsum("ij,ij->i", x[1:-1], xdd)
             + np.einsum("ij,ij->i", v[1:-1], v[1:-1]))
    speed2 = float(np.max(np.einsum("ij,ij->i", v, v)))
    assert np.max(np.abs(resid)) < 1e-4 * speed2


def test_chart_margin_error_carries_exit_time():
    # every geodesic crosses the chart equator eventually; a faster start
    # reaches the margin inside the window
    with pytest.raises(ChartMarginError) as err:
        integrate_reduced(np.array([0.2, 0.0]), np.array([0.0, 0.3]), 10.0,
                          1e-3, P3)
    assert abs(err.value.time - 4.155) < 1e-6
    assert "margin limit" in str(err.value)


def test_integrate_reduced_sizes_its_trajectory_before_the_first_step(
        monkeypatch):
    # the classical command sizes more than this and rejects first; called
    # directly, the integrator still refuses arrays past the budget
    def step(*args, **kwargs):
        raise AssertionError("a step ran on a rejected input")
    monkeypatch.setattr(dynamics, "_midpoint_step", step)
    with pytest.raises(ValueError, match="1e\\+301 steps need .* byte budget"):
        integrate_reduced(np.array([0.2, 0.0]), np.array([0.0, 0.08]), 10.0,
                          1e-300, P3)
    # 1e308 steps: the byte count must not overflow a float conversion
    with pytest.raises(ValueError, match="need inf bytes"):
        integrate_reduced(np.array([0.2, 0.0]), np.array([0.0, 0.08]), 1e300,
                          1e-8, P3)


def test_step_convergence_error_on_absurd_step():
    with np.errstate(all="ignore"):  # the diverging iteration overflows first
        with pytest.raises(StepConvergenceError):
            integrate_reduced(np.array([0.9, 0.0]), np.array([0.0, 2.0]), 10.0,
                              5.0, P3, margin=0.0)
    # h s = 1 exactly at the first iterate (h = 1, s = q.p / R^2 = 1): the
    # scalar map divides by 1 - h s = 0, which Python floats raise
    with pytest.raises(StepConvergenceError):
        integrate_reduced(np.array([0.5]), np.array([2.0]), 10.0, 2.0,
                          ModelParams(D=2))


@pytest.mark.parametrize("where", [0, 1, 3])
def test_nan_residual_never_converges(where):
    # a map that would settle turns NaN at iteration `where`: NaN fails
    # every comparison, so the iteration can never accept it
    calls = []

    def scalar_map(s):
        calls.append(s)
        return math.nan if len(calls) > where else 0.5 * s + 1.0

    with pytest.raises(StepConvergenceError):
        dynamics._midpoint_step(scalar_map, 0.2, 1e-13)
    assert len(calls) == 100


def test_an_overflowing_scalar_never_converges():
    # inf is never accepted, and inf - inf is NaN
    with pytest.raises(StepConvergenceError):
        dynamics._midpoint_step(lambda s: 1e300 * s, 0.2, 1e-13)


def test_the_scalar_iteration_stops_at_its_tolerance():
    # s = s / 2 + 1 halves its distance to 2 each time: from 0 it settles
    # once an update is at most 1e-13 * max(1, |s|)
    seen = []

    def halving(s):
        seen.append(s)
        return 0.5 * s + 1.0
    s = dynamics._midpoint_step(halving, 0.0, 1e-13)
    assert abs(s - 2.0) <= 2e-13
    assert len(seen) == 44  # 2^-43 is the first update under 2e-13


def _reduced_residual(q0, p0, q1, p1, dt, R):
    # z1 - z0 - dt f(zbar) with qdot = p - s q, pdot = s p, s = q.p / R^2
    qb, pb = 0.5 * (q0 + q1), 0.5 * (p0 + p1)
    s = float(qb @ pb) / R ** 2
    return np.concatenate([q1 - q0 - dt * (pb - s * qb),
                           p1 - p0 - dt * s * pb])


def _oracle_residual(x0, v0, x1, v1, dt, R):
    # z1 - z0 - dt f(zbar) with xdot = v, vdot = -(|v|^2 / R^2) x
    xb, vb = 0.5 * (x0 + x1), 0.5 * (v0 + v1)
    c = float(vb @ vb) / R ** 2
    return np.concatenate([x1 - x0 - dt * vb, v1 - v0 + dt * c * xb])


@settings(max_examples=100, deadline=None)
@given(D=st.integers(2, 10), R=st.sampled_from((1.0, 2.5)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_each_step_solves_its_midpoint_equation(D, R, seed):
    # solved through its scalar unknown, each step meets z1 - z0 =
    # dt f((z0 + z1) / 2) to rounding, for |p| from 1e-3 to 10 and every D;
    # a componentwise fixed point that stops at 1e-13 missed this by up to
    # 9 eps near |p| = 6
    p = ModelParams(D=D, R=R)
    dt, eps = 1e-3, np.finfo(float).eps
    rng = np.random.default_rng(seed)
    for _ in range(50):
        d, e = rng.standard_normal((2, D))
        d /= np.linalg.norm(d)
        size = 10.0 ** rng.uniform(-3.0, 1.0)
        q = d[1:] * (0.9 * R * rng.random())
        mom = e[1:] * (size / np.linalg.norm(e[1:]))
        got = [np.array(z) for z in dynamics._reduced_step(
            q.tolist(), mom.tolist(), dt, p)]
        scale = max(1.0, float(np.max(np.abs(np.concatenate([q, mom])))))
        assert np.max(np.abs(_reduced_residual(q, mom, *got, dt, R))) \
            <= 8 * eps * scale
        x = R * d
        v = e - (e @ d) * d  # tangent at x
        v *= size / np.linalg.norm(v)
        got = [np.array(z) for z in dynamics._oracle_step(
            x.tolist(), v.tolist(), dt, p)]
        scale = max(1.0, float(np.max(np.abs(np.concatenate([x, v])))))
        assert np.max(np.abs(_oracle_residual(x, v, *got, dt, R))) \
            <= 8 * eps * scale


def test_phase_state_validation(monkeypatch):
    # integrate_reduced checks its start before the first step
    def solver(*args):
        raise AssertionError("an integrator step ran")
    monkeypatch.setattr(dynamics, "_midpoint_step", solver)
    with pytest.raises(ChartDomainError, match="outside the chart ball"):
        integrate_reduced(np.array([1.2, 0.0]), np.zeros(2), 1.0, 1e-3, P3)
    with pytest.raises(ChartDomainError, match="expects 2 coordinates"):
        integrate_reduced(np.zeros(3), np.zeros(3), 1.0, 1e-3, P3)
    with pytest.raises(ValueError, match="matching shapes"):
        integrate_reduced(np.zeros(2), np.zeros(3), 1.0, 1e-3, P3)
    with pytest.raises(ValueError, match="must be finite"):
        integrate_reduced(np.zeros(2), np.array([0.0, np.nan]), 1.0, 1e-3, P3)


def test_oracle_rejects_off_shell_starts():
    with pytest.raises(ChartDomainError, match="need 3 components"):
        integrate_embedded_oracle(np.array([0.0, 1.0]), np.zeros(2), 1.0, 1e-2, P3)
    with pytest.raises(ChartDomainError):
        integrate_embedded_oracle(np.array([1.1, 0, 0]), np.zeros(3), 1.0, 1e-2, P3)
    with pytest.raises(ChartDomainError):
        integrate_embedded_oracle(np.array([1.0, 0, 0]),
                                  np.array([0.5, 0, 0]), 1.0, 1e-2, P3)


@pytest.mark.parametrize("dt", [6.0, 100.0])
def test_a_duration_of_part_steps_is_rejected_before_any_step(dt, monkeypatch):
    # rounding T / dt would run T = 10 to t = 12 at dt = 6 and take no step
    # at dt = 100; both integrators refuse before their first step
    def solver(*args):
        raise AssertionError("an integrator step ran")
    monkeypatch.setattr(dynamics, "_midpoint_step", solver)
    x0, v0 = embedded_from_reduced(*SLOW, P3)
    with pytest.raises(ValueError, match="not a whole number"):
        integrate_reduced(*SLOW, 10.0, dt, P3)
    with pytest.raises(ValueError, match="not a whole number"):
        integrate_embedded_oracle(x0, v0, 10.0, dt, P3)


def test_step_count_accepts_whole_steps_up_to_rounding():
    assert dynamics._step_count(10.0, 1e-3) == 10_000  # 10 / 1e-3 is inexact
    assert dynamics._step_count(0.02, 1e-3) == 20
    assert dynamics._step_count(0.0, 0.5) == 0
    for T, dt in ((1.0, 0.0), (1.0, -1e-3), (1e300, 1e-310)):  # T / dt = inf
        with pytest.raises(ValueError):
            dynamics._step_count(T, dt)


def test_chart_round_trip_and_energy_agreement():
    x0, v0 = embedded_from_reduced(*SLOW, P3)
    q, mom = reduced_from_embedded(x0, v0, P3)
    assert np.max(np.abs(q - SLOW[0])) < 1e-14
    assert np.max(np.abs(mom - SLOW[1])) < 1e-14
    assert abs(hamiltonian_value(q, mom, P3) - 0.5 * float(v0 @ v0)) < 1e-14


def test_canonical_chart_lands_on_constraint_shell():
    qv, pv = canonical_phase_vars(P3)
    cmap = canonical_chart_map(P3)
    rng = np.random.default_rng(5)
    for _ in range(20):
        env = {qv[0]: rng.uniform(0.4, np.pi - 0.4),
               qv[1]: rng.uniform(0.0, 2 * np.pi),
               pv[0]: rng.normal(), pv[1]: rng.normal()}
        xs = np.array([ex.evaluate(cmap[f"x{i + 1}"], env) for i in range(3)])
        ps = np.array([ex.evaluate(cmap[f"p{i + 1}"], env) for i in range(3)])
        c1, c2 = constraint_residuals(xs, ps, P3)
        assert abs(float(c1)) < 1e-12 and abs(float(c2)) < 1e-12


def test_physical_hamiltonian_equals_shell_energy():
    # the chart map's ambient momenta carry the shell energy
    # (pi_1^2 + pi_2^2 / sin^2 phi_1) / (2 R^2)
    rng = np.random.default_rng(9)
    qv, pv = canonical_phase_vars(P3)
    cmap = canonical_chart_map(P3)
    for _ in range(10):
        q = np.array([rng.uniform(0.4, np.pi - 0.4), rng.uniform(0.0, 2 * np.pi)])
        mom = rng.normal(size=2)
        env = {qv[0]: q[0], qv[1]: q[1], pv[0]: mom[0], pv[1]: mom[1]}
        ps = np.array([ex.evaluate(cmap[f"p{i + 1}"], env) for i in range(3)])
        shell = (mom[0] ** 2 + mom[1] ** 2 / np.sin(q[0]) ** 2) / (2 * P3.R ** 2)
        assert abs(shell - 0.5 * float(ps @ ps)) < 1e-13


def test_fundamental_brackets_match_closed_forms():
    rng = np.random.default_rng(11)
    qv, pv = canonical_phase_vars(P3)
    cmap = canonical_chart_map(P3)
    xn, pn = embedded_phase_vars(P3)
    q = [rng.uniform(0.4, np.pi - 0.4), rng.uniform(0.0, 2 * np.pi)]
    mom = rng.normal(size=2)
    env = {qv[0]: q[0], qv[1]: q[1], pv[0]: mom[0], pv[1]: mom[1]}
    xs = np.array([ex.evaluate(cmap[f"x{i + 1}"], env) for i in range(3)])
    ps = np.array([ex.evaluate(cmap[f"p{i + 1}"], env) for i in range(3)])
    for a in range(3):
        for b in range(3):
            for kind, A, B in (("xx", ex.Var(xn[a]), ex.Var(xn[b])),
                               ("xp", ex.Var(xn[a]), ex.Var(pn[b])),
                               ("pp", ex.Var(pn[a]), ex.Var(pn[b]))):
                got = ex.evaluate(dirac_bracket_expr(
                    A.subs(cmap), B.subs(cmap), P3), env)
                want = fundamental_bracket_reference(xs, ps, P3.R)[kind][a, b]
                assert abs(got - want) < 1e-12


def test_batched_bracket_reference_equals_per_sample_tables():
    rng = np.random.default_rng(5)
    xs = rng.standard_normal((3, 40))
    ps = rng.standard_normal((3, 40))
    per_sample = {
        "xx": lambda x, p: np.zeros((3, 3)),
        "xp": lambda x, p: np.eye(3) - np.outer(x, x) / 1.7 ** 2,
        "pp": lambda x, p: -(np.outer(x, p) - np.outer(p, x)) / 1.7 ** 2,
    }
    tables = fundamental_bracket_reference(xs, ps, 1.7)
    assert sorted(tables) == sorted(per_sample)
    assert all(table.shape == (3, 3, 40) for table in tables.values())
    for j in range(40):
        single = fundamental_bracket_reference(xs[:, j], ps[:, j], 1.7)
        for kind, closed_form in per_sample.items():
            want = closed_form(xs[:, j], ps[:, j])
            assert np.array_equal(tables[kind][:, :, j], want)
            assert np.array_equal(single[kind], want)


def test_bracket_families_at_scale():
    report, worst = suite_dirac_brackets(P3, 100, 7)
    assert report["max_deviation"] == worst < 1e-12
    for fam in ("xx", "xp", "pp"):
        assert report["families"][fam]["max_deviation"] < 1e-12


def test_bracket_suite_evaluates_once(monkeypatch):
    # x, p, every family bracket, the antisymmetry pairs and the Jacobi sum
    # share the chart map's subtrees; one call computes each of them once
    evaluate = ex.evaluate
    roots = []

    def counted(exprs, env):
        roots.append(len(exprs))
        return evaluate(exprs, env)
    monkeypatch.setattr(ex, "evaluate", counted)
    suite_dirac_brackets(P3, 50, 7)
    assert roots == [2 * 3 + 3 * 3 * 3 + 6 + 1]


def test_bracket_report_keeps_nan(monkeypatch):
    # a NaN momentum poisons the pp family; the reported worst case must be
    # NaN, not the largest finite deviation (max(0.0, nan) == 0.0)
    sample = dynamics._random_canonical_points

    def poisoned(p, samples, seed):
        qs, ps = sample(p, samples, seed)
        ps[0, 0] = np.nan
        return qs, ps

    monkeypatch.setattr(dynamics, "_random_canonical_points", poisoned)
    report, worst = suite_dirac_brackets(P3, 20, 7)
    assert np.isnan(report["families"]["pp"]["max_deviation"])
    assert np.isnan(report["max_deviation"]) and np.isnan(worst)


def test_a_nan_in_the_last_sample_slice_reaches_the_report(monkeypatch):
    # one sample a call: the NaN momentum of the last sample must survive
    # the max folds over the slices before it (max(0.0, nan) == 0.0)
    sample = dynamics._random_canonical_points
    evaluate = ex.evaluate
    calls = []

    def poisoned(p, samples, seed):
        qs, ps = sample(p, samples, seed)
        ps[-1, 0] = np.nan
        return qs, ps

    def counted(exprs, env):
        calls.append(exprs)
        return evaluate(exprs, env)
    monkeypatch.setattr(dynamics, "_random_canonical_points", poisoned)
    monkeypatch.setattr(dynamics, "MEMORY_BUDGET", 1)
    monkeypatch.setattr(ex, "evaluate", counted)
    report, worst = suite_dirac_brackets(P3, 20, 7)
    assert len(calls) == 20
    assert np.isnan(report["families"]["pp"]["max_deviation"])
    assert np.isnan(report["max_deviation"]) and np.isnan(worst)


def test_bracket_antisymmetry_is_bitwise():
    xn, pn = embedded_phase_vars(P3)
    cmap = canonical_chart_map(P3)
    obs = [e.subs(cmap) for e in (ex.Var(xn[0]), ex.Var(pn[2]),
                                  ex.mul(ex.Var(xn[1]), ex.Var(pn[1])))]
    qs, ps = dynamics._random_canonical_points(P3, 200, seed=1)
    angles, moms = canonical_phase_vars(P3)
    env = {n: qs[:, i] for i, n in enumerate(angles)}
    env.update({n: ps[:, i] for i, n in enumerate(moms)})
    for a in range(3):
        for b in range(a + 1, 3):
            fwd = np.broadcast_to(
                ex.evaluate(dirac_bracket_expr(obs[a], obs[b], P3), env), 200)
            rev = np.broadcast_to(
                ex.evaluate(dirac_bracket_expr(obs[b], obs[a], P3), env), 200)
            assert np.all(fwd == -rev)  # exact, not approximate


def test_jacobi_identity():
    xn, pn = embedded_phase_vars(P3)
    cmap = canonical_chart_map(P3)
    A, B, C = (e.subs(cmap) for e in (ex.Var(xn[0]), ex.Var(pn[1]),
                                      ex.mul(ex.Var(xn[2]), ex.Var(pn[0]))))

    def nest(f, g, h):
        return dirac_bracket_expr(f, dirac_bracket_expr(g, h, P3), P3)

    total = ex.add(nest(A, B, C), nest(B, C, A), nest(C, A, B))
    qs, ps = dynamics._random_canonical_points(P3, 50, seed=2)
    angles, moms = canonical_phase_vars(P3)
    env = {n: qs[:, i] for i, n in enumerate(angles)}
    env.update({n: ps[:, i] for i, n in enumerate(moms)})
    vals = np.broadcast_to(ex.evaluate(total, env), 50)
    assert np.max(np.abs(vals)) < 1e-12


def test_symplectic_two_form_pullback_vanishes():
    w2 = omega2_pullback_expr(P3)
    qv, pv = canonical_phase_vars(P3)
    rng = np.random.default_rng(13)
    env = {qv[0]: rng.uniform(0.3, np.pi - 0.3, 50),
           qv[1]: rng.uniform(0.0, 2 * np.pi, 50),
           pv[0]: rng.normal(size=50), pv[1]: rng.normal(size=50)}
    vals = np.broadcast_to(ex.evaluate(w2, env), 50)
    assert np.max(np.abs(vals)) < 1e-12
    # and symbolically: the pullback is identically zero, not just small
    assert sp.simplify(to_sympy(w2)) == 0
