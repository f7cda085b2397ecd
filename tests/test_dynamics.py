"""Constrained classical dynamics: two independent integration routes, the
bracket algebra on the constraint shell, and the symplectic-form pullback.

The embedded oracle never touches the reduced chart machinery: it
integrates x'' = -(|x'|^2/R^2) x in ambient coordinates with per-step
projection, so agreement between the two routes cross-validates the
Lagrangian reduction end to end.
"""

import numpy as np
import pytest
import sympy as sp

from rotorkit import dynamics
from rotorkit import expressions as ex
from rotorkit.dynamics import (
    ChartMarginError,
    PHASE_EMBEDDED,
    PHASE_REDUCED,
    PhaseState,
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
from rotorkit.geometry import ChartDomainError, ModelParams
from sympy_bridge import to_sympy

P3 = ModelParams(D=3, R=1.0, hbar=1.0)
SLOW = PhaseState(PHASE_REDUCED, q=np.array([0.2, 0.0]), p=np.array([0.0, 0.08]))


def reduced_from_embedded(x, v, p):
    """Oracle: project an ambient tangent state off the chart equator to the
    reduced chart, q = x[:-1] and p = g qdot = v[:-1] - q v_D / x_D."""
    q = x[:-1]
    return PhaseState(PHASE_REDUCED, q=q, p=v[:-1] - q * (v[-1] / x[-1]))


def omega2_pullback_expr(p):
    """Oracle: the tangency constraint x.p pulled back to the canonical
    chart, identically zero in the angles and momenta."""
    mapping = canonical_chart_map(p)
    xnames, pnames = embedded_phase_vars(p)
    return ex.add(*[ex.mul(mapping[xn], mapping[pn])
                    for xn, pn in zip(xnames, pnames)])


def test_reduced_route_matches_embedded_oracle():
    traj = integrate_reduced(SLOW, 5.0, 1e-3, P3)
    x0, v0 = embedded_from_reduced(SLOW, P3)
    oracle = integrate_embedded_oracle(x0, v0, 5.0, 1e-3, P3)
    lifted = np.array([embedded_from_reduced(s, P3)[0] for s in traj])
    assert np.max(np.abs(lifted - oracle.q)) < 1e-7


def test_oracle_pins_constraints_and_invariants():
    x0, v0 = embedded_from_reduced(SLOW, P3)
    oracle = integrate_embedded_oracle(x0, v0, 5.0, 1e-3, P3)
    c_rad, c_tan = constraint_residuals(oracle.q, oracle.p, P3)
    assert np.max(np.abs(c_rad)) < 1e-13
    assert np.max(np.abs(c_tan)) < 1e-13
    cs = conserved_series(oracle, P3)
    assert np.max(np.abs(cs["energy"] - cs["energy"][0])) < 1e-12
    assert np.max(np.abs(cs["L"] - cs["L"][0:1, :])) < 1e-12
    assert cs["pairs"] == [(0, 1), (0, 2), (1, 2)]


def test_reduced_route_conserves_energy_and_angular_momentum():
    traj = integrate_reduced(SLOW, 5.0, 1e-3, P3)
    states = [embedded_from_reduced(s, P3) for s in traj]
    lifted = dynamics.Trajectory(PHASE_EMBEDDED, traj.times,
                                 np.array([x for x, _ in states]),
                                 np.array([v for _, v in states]))
    cs = conserved_series(lifted, P3)
    assert np.max(np.abs(cs["energy"] - cs["energy"][0])) < 1e-8
    assert np.max(np.abs(cs["L"] - cs["L"][0:1, :])) < 1e-8


@pytest.mark.parametrize("D", [2, 3, 4, 5])
def test_batched_lift_and_energy_equal_the_per_state_loop(D):
    p = ModelParams(D=D, R=1.3, hbar=1.0)
    rng = np.random.default_rng(D)
    q = rng.uniform(-0.5, 0.5, (200, D - 1))
    mom = rng.standard_normal((200, D - 1))
    traj = dynamics.Trajectory(PHASE_REDUCED, np.arange(200) * 0.01, q, mom)
    x, v = embedded_from_reduced(traj, p)
    H = hamiltonian_value(traj, p)
    # the per-state loop is the reference; the batch must match it bitwise
    ref_x = np.empty((len(traj), D))
    ref_v = np.empty((len(traj), D))
    ref_H = np.empty(len(traj))
    for i in range(len(traj)):
        ref_x[i], ref_v[i] = embedded_from_reduced(traj[i], p)
        ref_H[i] = hamiltonian_value(traj[i], p)
    assert np.array_equal(x, ref_x)
    assert np.array_equal(v, ref_v)
    assert np.array_equal(H, ref_H)


def test_batched_lift_rejects_other_charts():
    emb = dynamics.Trajectory(PHASE_EMBEDDED, [0.0], [[0.0, 0.0, 1.0]],
                              [[0.1, 0.0, 0.0]])
    with pytest.raises(ChartDomainError):
        embedded_from_reduced(emb, P3)
    with pytest.raises(ChartDomainError):
        hamiltonian_value(emb, P3)


def test_multiplier_elimination_identity_along_oracle():
    # eliminating the Lagrange multiplier uses x . xdd = -|xd|^2; check it
    # on the integrated flow with a central-difference second derivative
    x0, v0 = embedded_from_reduced(SLOW, P3)
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
    fast = PhaseState(PHASE_REDUCED, q=np.array([0.2, 0.0]), p=np.array([0.0, 0.3]))
    with pytest.raises(ChartMarginError) as err:
        integrate_reduced(fast, 10.0, 1e-3, P3)
    assert abs(err.value.time - 4.155) < 1e-6
    assert "margin limit" in str(err.value)


def test_step_convergence_error_on_absurd_step():
    bad = PhaseState(PHASE_REDUCED, q=np.array([0.9, 0.0]), p=np.array([0.0, 2.0]))
    with np.errstate(all="ignore"):  # the diverging iteration overflows first
        with pytest.raises(StepConvergenceError):
            integrate_reduced(bad, 10.0, 5.0, P3, margin=0.0)


@pytest.mark.parametrize("where", [0, 1, 3])
def test_nan_residual_never_converges(where):
    # one NaN component among settled ones: a plain max over the residual
    # could skip it and accept the step
    def rhs(z):
        out = np.zeros_like(z)
        out[where] = np.nan
        return out

    with pytest.raises(StepConvergenceError):
        dynamics._midpoint_step(rhs, np.array([0.2, 0.1, 0.0, 0.3]), 1e-3, 1e-13)


def test_midpoint_step_matches_the_array_residual_test():
    # the float step is bitwise the array step with numpy's dot, and it
    # accepts exactly when max|znext - znew| does
    rng = np.random.default_rng(4)
    for D in (2, 3, 5, 10):
        _check_float_step_against_arrays(ModelParams(D=D), rng)


def _check_float_step_against_arrays(p, rng):
    n = p.D - 1

    def array_rhs(z):
        q, mom = z[:n], z[n:]
        qp = float(q @ mom) / p.R ** 2
        return np.concatenate([mom - q * qp, mom * qp])

    rhs = lambda zz: dynamics._reduced_rhs(zz, p)
    for _ in range(200):
        z = np.concatenate([rng.uniform(-0.5, 0.5, n) / n ** 0.5,
                            rng.normal(size=n)])
        scale = max(1.0, float(np.max(np.abs(z))))
        znew = z + 1e-3 * array_rhs(z)
        for _ in range(100):
            znext = z + 1e-3 * array_rhs(0.5 * (z + znew))
            done = float(np.max(np.abs(znext - znew))) <= 1e-13 * scale
            znew = znext
            if done:
                break
        got = dynamics._midpoint_step(rhs, z.tolist(), 1e-3, 1e-13)
        assert np.array(got).tobytes() == znew.tobytes()


def test_phase_state_validation():
    with pytest.raises(ChartDomainError):
        PhaseState(PHASE_REDUCED, q=np.array([1.2, 0.0]),
                   p=np.zeros(2)).validate(P3)
    with pytest.raises(ChartDomainError):
        PhaseState(PHASE_REDUCED, q=np.zeros(3), p=np.zeros(3)).validate(P3)
    with pytest.raises(ValueError):
        PhaseState(PHASE_REDUCED, q=np.zeros(2), p=np.zeros(3))


def test_oracle_rejects_off_shell_starts():
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
    x0, v0 = embedded_from_reduced(SLOW, P3)
    with pytest.raises(ValueError, match="not a whole number"):
        integrate_reduced(SLOW, 10.0, dt, P3)
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
    x0, v0 = embedded_from_reduced(SLOW, P3)
    back = reduced_from_embedded(x0, v0, P3)
    assert np.max(np.abs(back.q - SLOW.q)) < 1e-14
    assert np.max(np.abs(back.p - SLOW.p)) < 1e-14
    assert abs(hamiltonian_value(back, P3) - 0.5 * float(v0 @ v0)) < 1e-14


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
                want = fundamental_bracket_reference(kind, xs, ps, P3.R)[a, b]
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
    for kind, closed_form in per_sample.items():
        table = fundamental_bracket_reference(kind, xs, ps, 1.7)
        assert table.shape == (3, 3, 40)
        for j in range(40):
            want = closed_form(xs[:, j], ps[:, j])
            assert np.array_equal(table[:, :, j], want)
            assert np.array_equal(
                fundamental_bracket_reference(kind, xs[:, j], ps[:, j], 1.7), want)


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
