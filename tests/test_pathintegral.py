"""Euclidean time-slicing on the plane in polar coordinates.

Independent oracles used here: the closed-form heat evolution of centered
Gaussians (the exact Cartesian kernel must reproduce it to rounding), the
analytic radial Hamiltonian action on Gaussian probes, Bessel-integral
quadrature for the angular factors, and the exact semigroup property
T_eps = T_{eps/2} T_{eps/2} which the polar prescriptions break at a
measurable, eps^2-scaling rate.
"""

import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from rotorkit import pathintegral
from rotorkit.geometry import ModelParams
from rotorkit.pathintegral import (
    CORRECTED_POLAR,
    EXACT_CARTESIAN,
    KernelWidthError,
    MIDPOINT_RULES,
    NAIVE_POLAR,
    PRESCRIPTIONS,
    RadialGrid,
    RadialWavefunction,
    SliceKernelSpec,
    SupportError,
    angular_factor_exact,
    default_probe_family,
    effective_hamiltonian_action,
    extract_effective_potential,
    gaussian_profile,
    mollifier_bump,
    naive_angular_factor,
    semigroup_defect,
    slice_kernel,
    slice_step,
)

P2 = ModelParams(D=2, R=1.0, hbar=1.0)
GRID = RadialGrid()  # [0.1, 8.0] with 2048 nodes
EPS_LIST = [1e-3, 5e-4, 2.5e-4]


class QuadratureConvergenceError(RuntimeError):
    """Adaptive doubling failed to stabilize the angular integral."""


def _doubling_trapezoid(sample_fn):
    """Integrate over theta in (-pi, pi] by uniform sums, doubling until stable.

    sample_fn(theta_array) -> integrand values with shape (..., ntheta);
    returns the integral along the last axis.  The integrands here are
    analytic and either periodic or exponentially small at the endpoints, so
    doubling converges geometrically.
    """
    n, tol, nmax = 256, 1e-10, 1 << 16
    prev = None
    while n <= nmax:
        theta = -math.pi + 2.0 * math.pi * (np.arange(n) + 0.5) / n
        cur = sample_fn(theta).sum(axis=-1) * (2.0 * math.pi / n)
        if prev is not None:
            scale = float(np.max(np.abs(cur))) or 1.0
            if float(np.max(np.abs(cur - prev))) <= tol * scale:
                return cur
        prev = cur
        n *= 2
    raise QuadratureConvergenceError(
        f"angular integral not stable to {tol:g} within {nmax} nodes")


def angular_factor_quadrature(z, m):
    """Oracle for E_m(z): (1/2pi) int exp(z(cos t - 1)) cos(m t) dt."""
    z = np.asarray(z, dtype=float)

    def fn(theta):
        return np.exp(z[..., None] * (np.cos(theta) - 1.0)) * np.cos(m * theta)

    return _doubling_trapezoid(fn) / (2.0 * math.pi)


def naive_angular_factor_quadrature(a, m):
    """Oracle for the naive factor: int exp(-a t^2) cos(m t) dt over (-pi, pi]."""
    a = np.asarray(a, dtype=float)

    def fn(theta):
        return np.exp(-a[..., None] * theta ** 2) * np.cos(m * theta)

    return _doubling_trapezoid(fn)


def l2_norm(psi):
    """2D L2 norm of psi(r) e^{i m phi}: sqrt(2 pi int |psi|^2 r dr)."""
    return math.sqrt(2.0 * math.pi * float(np.sum(psi.samples ** 2
                                                  * psi.grid.measure)))


def _step(psi, spec, p=P2):
    """One slice of psi with a kernel built for its mode and grid, as a profile."""
    return replace(psi, samples=slice_step(psi, slice_kernel(psi.m, spec, psi.grid, p)))


def _bump(m=0):
    power = m if m else 0
    return RadialWavefunction.from_callable(
        mollifier_bump(2.0, 1.2, scale_power=power), m, GRID)


def test_exact_kernel_reproduces_gaussian_heat_flow():
    # closed form: exp(-r^2/2s^2) -> s^2/(s^2+t) exp(-r^2/2(s^2+t)) with
    # t = hbar eps, and an extra (s^2/(s^2+t)) power for the m = 1 profile
    eps = 1e-2
    t = P2.hbar * eps
    r = GRID.nodes
    window = (r >= 1.0) & (r <= 4.0)  # keep clear of the truncated [0, r_min)
    for m, sig in ((0, 0.8), (1, 0.7)):
        prof = gaussian_profile(0.0, sig, power=m)
        psi = RadialWavefunction.from_callable(prof, m, GRID, open_inner=True)
        out = _step(psi, SliceKernelSpec(eps=eps, prescription=EXACT_CARTESIAN))
        s2 = sig ** 2
        shrink = s2 / (s2 + t)
        want = shrink ** (m + 1) * r ** m * np.exp(-r ** 2 / (2.0 * (s2 + t)))
        dev = np.max(np.abs(out.samples[window] - want[window]))
        assert dev < 1e-12 * np.max(np.abs(want[window]))


def test_slice_operator_approaches_identity():
    psi = _bump()
    devs = {}
    for eps in (2e-3, 1e-3):
        out = _step(psi, SliceKernelSpec(eps=eps, prescription=EXACT_CARTESIAN))
        devs[eps] = float(np.max(np.abs(out.samples - psi.samples)))
    assert devs[2e-3] < 1e-2
    assert devs[1e-3] < devs[2e-3]
    # leading deviation is eps |H psi| / hbar, so halving eps halves it
    assert 1.6 < devs[2e-3] / devs[1e-3] < 2.1


def test_effective_action_matches_analytic_hamiltonian():
    # H psi = -hbar^2/2 (psi'' + psi'/r - m^2 psi / r^2) for mode m
    r = GRID.nodes
    for m, c, s, pw in ((0, 2.0, 0.45, 0), (1, 1.8, 0.5, 1)):
        psi = RadialWavefunction.from_callable(
            gaussian_profile(c, s, power=pw), m, GRID, open_inner=True)
        act, = effective_hamiltonian_action([psi], EXACT_CARTESIAN, EPS_LIST, P2)
        g = np.exp(-((r - c) ** 2) / (2.0 * s ** 2))
        dg = -(r - c) / s ** 2 * g
        d2g = ((r - c) ** 2 / s ** 4 - 1.0 / s ** 2) * g
        fp = dg if pw == 0 else g + r * dg
        fpp = d2g if pw == 0 else 2.0 * dg + r * d2g
        Hf = -0.5 * P2.hbar ** 2 * (fpp + fp / r - m ** 2 * psi.samples / r ** 2)
        sel = (np.abs(psi.samples) > 1e-3 * np.max(np.abs(psi.samples)))
        sel &= (r > 0.8) & (r < 4.0)
        dev = np.max(np.abs(act.values[sel] - Hf[sel]))
        assert dev < 1e-6 * np.max(np.abs(Hf[sel]))


def test_kernel_width_preconditions():
    with pytest.raises(KernelWidthError):  # width below 4 grid spacings
        slice_kernel(0, SliceKernelSpec(eps=1e-5, prescription=EXACT_CARTESIAN), GRID, P2)
    with pytest.raises(KernelWidthError):  # width comparable to the domain
        slice_kernel(0, SliceKernelSpec(eps=2.0, prescription=EXACT_CARTESIAN), GRID, P2)
    with pytest.raises(KernelWidthError):  # angular tail too heavy at r_min
        slice_kernel(0, SliceKernelSpec(eps=2e-3, prescription=NAIVE_POLAR), GRID, P2)


def test_semigroup_exact_kernel():
    spec = SliceKernelSpec(eps=1e-3, prescription=EXACT_CARTESIAN)
    assert semigroup_defect(_bump(1), spec, P2) < 1e-12


def test_semigroup_naive_m0_geometric_is_exact():
    # for m = 0 the geometric-midpoint naive kernel telescopes exactly:
    # its angular factor depends on r r' alone, so composition reproduces
    # one double-width slice to rounding
    spec = SliceKernelSpec(eps=1e-3, prescription=NAIVE_POLAR,
                           midpoint_rule="geometric")
    assert semigroup_defect(_bump(0), spec, P2) < 1e-12


def test_semigroup_naive_m1_defect_scales_like_eps_squared():
    psi = _bump(1)
    defects = {}
    for eps in (1e-3, 5e-4):
        spec = SliceKernelSpec(eps=eps, prescription=NAIVE_POLAR,
                               midpoint_rule="geometric")
        defects[eps] = semigroup_defect(psi, spec, P2)
    # a real eps^2 object: visibly above rounding, well below the probe scale
    assert 1e-9 < defects[1e-3] < 1e-7
    assert 3.4 < defects[1e-3] / defects[5e-4] < 4.6


def test_norm_consistency_and_monotonicity():
    psi = _bump(1)
    spec = SliceKernelSpec(eps=1e-3, prescription=EXACT_CARTESIAN)
    out = _step(psi, spec)
    # <T psi, T psi> = <psi, T_2eps psi> for the exact self-adjoint kernel
    out2 = _step(psi, SliceKernelSpec(eps=2e-3, prescription=EXACT_CARTESIAN))
    rw = GRID.measure
    lhs = 2.0 * math.pi * float(np.sum(out.samples ** 2 * rw))
    rhs = 2.0 * math.pi * float(np.sum(psi.samples * out2.samples * rw))
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)
    # heat flow contracts the L2 norm
    assert l2_norm(out) < l2_norm(psi)


@pytest.mark.parametrize("m", (0, 1, 3))
def test_angular_factor_closed_form_vs_quadrature(m):
    for z in (0.3, 2.0, 17.0, 40.0):
        a = angular_factor_exact(z, m)
        b = angular_factor_quadrature(z, m)
        assert abs(a - b) < 1e-10 * max(abs(a), 1e-300)
    # the naive closed form is the wrapped-Gaussian large-argument form;
    # compare only where the +-pi tail is below the tolerance (a pi^2/2 > 26)
    for a_ in (6.0, 17.0, 60.0):
        c = naive_angular_factor(a_, m)
        d = naive_angular_factor_quadrature(a_, m)
        assert abs(c - d) < 1e-10 * max(abs(c), 1e-300)


def _band_columns(rows, n, b):
    """Column index j = i + k - b of each band slot of grid rows i, and
    whether it is on the grid of n nodes."""
    cols = np.asarray(rows)[:, None] + np.arange(-b, b + 1)
    return cols, (cols >= 0) & (cols < n)


def _dense_from_band(kernel):
    """The n x n matrix a BandedKernel of every row stores; zeros outside
    the band."""
    n = kernel.band.shape[0]
    cols, inside = _band_columns(np.arange(n), n, kernel.half_width)
    dense = np.zeros((n, n))
    dense[np.nonzero(inside)[0], cols[inside]] = kernel.band[inside]
    return dense


def test_slice_kernel_symmetric_and_deterministic():
    # the exact and naive kernels are symmetric bit for bit; the corrected
    # kernel's row factor breaks the symmetry on purpose
    for prescription in (EXACT_CARTESIAN, NAIVE_POLAR):
        for rule in MIDPOINT_RULES:
            spec = SliceKernelSpec(eps=1e-3, prescription=prescription,
                                   midpoint_rule=rule)
            K = _dense_from_band(slice_kernel(0, spec, GRID, P2))
            assert np.array_equal(K, K.T)
    spec = SliceKernelSpec(eps=1e-3, prescription=EXACT_CARTESIAN)
    K1 = slice_kernel(0, spec, GRID, P2)
    K2 = slice_kernel(0, spec, GRID, P2)
    assert K1 is not K2 and K1.band is not K2.band  # each call builds anew
    assert np.array_equal(K1.band, K2.band)  # to the same bits


def _dense_kernel(m, spec, grid, p):
    """Full n x n kernel from the closed forms, and its Gaussian factor."""
    he = p.hbar * spec.eps
    r = grid.nodes[:, None]
    rp = grid.nodes[None, :]
    gauss = np.exp(-((r - rp) ** 2) / (2.0 * he))
    if spec.prescription == EXACT_CARTESIAN:
        return gauss * angular_factor_exact(r * rp / he, m) / he, gauss
    if spec.midpoint_rule == "geometric":
        rbar = np.sqrt(r * rp)
    else:
        rbar = 0.5 * (r + rp)
    K = gauss * naive_angular_factor(rbar ** 2 / (2.0 * he), m) / (2.0 * math.pi * he)
    if spec.prescription == CORRECTED_POLAR:
        K = np.exp(spec.eps * p.hbar / (8.0 * grid.nodes ** 2))[:, None] * K
    return K, gauss


def _assert_band_is_dense_oracle(kernel, dense):
    """Every on-grid band slot equals the dense kernel at the kernel's rows
    bit for bit, and every off-grid slot holds zero."""
    cols, inside = _band_columns(kernel.rows, dense.shape[0], kernel.half_width)
    rows = np.broadcast_to(kernel.rows[:, None], cols.shape)
    assert np.array_equal(kernel.band[inside], dense[rows[inside], cols[inside]])
    assert np.all(kernel.band[~inside] == 0.0)


@pytest.mark.parametrize("rule", MIDPOINT_RULES)
@pytest.mark.parametrize("prescription", PRESCRIPTIONS)
def test_banded_kernel_matches_dense_oracle(prescription, rule):
    # small grid on which the band (half-width 68 of 200 nodes) drops entries
    grid = RadialGrid(0.5, 3.0, 200)
    spec = SliceKernelSpec(eps=4e-3, prescription=prescription,
                           midpoint_rule=rule)
    bound = pathintegral._BAND_GAUSSIAN_BOUND
    m = 1
    kernel = slice_kernel(m, spec, grid, P2)
    dense, gauss = _dense_kernel(m, spec, grid, P2)
    b = kernel.half_width
    offset = np.abs(np.subtract.outer(np.arange(grid.n), np.arange(grid.n)))
    band = offset <= b
    assert 0 < b < grid.n - 1
    _assert_band_is_dense_oracle(kernel, dense)
    # b is the smallest half-width whose dropped Gaussian factors are all
    # below the bound, and the dropped entries are negligible row by row
    assert np.max(gauss[~band]) < bound <= np.max(gauss[offset == b])
    peak = np.max(np.abs(dense), axis=1, keepdims=True)
    assert np.all((np.abs(dense) < bound * peak)[~band])
    psi = RadialWavefunction.from_callable(
        mollifier_bump(1.75, 0.8, scale_power=m), m, grid)
    out = slice_step(psi, kernel)
    want = dense @ (psi.samples * grid.measure)
    assert np.max(np.abs(out - want)) <= 1e-14 * np.max(np.abs(want))


@settings(max_examples=120, deadline=None)
@given(prescription=st.sampled_from(PRESCRIPTIONS),
       rule=st.sampled_from(MIDPOINT_RULES),
       m=st.integers(0, 5),
       n=st.integers(16, 400),
       r_min=st.floats(0.1, 2.0),
       span=st.floats(1.0, 8.0),
       hbar=st.floats(0.25, 4.0),
       width_frac=st.floats(0.0, 1.0))
def test_band_equals_dense_oracle_bitwise(prescription, rule, m, n, r_min,
                                          span, hbar, width_frac):
    # the kernel width sqrt(hbar eps) is drawn between the grid's bounds,
    # 4 spacings and span/8, so most draws pass the width rules
    grid = RadialGrid(r_min, r_min + span, n)
    low, high = 4.0 * grid.spacing, span / 8.0
    eps = (low + width_frac * (high - low)) ** 2 / hbar
    spec = SliceKernelSpec(eps=eps, prescription=prescription,
                           midpoint_rule=rule)
    p = ModelParams(D=2, R=1.0, hbar=hbar)
    try:
        kernel = slice_kernel(m, spec, grid, p)
    except KernelWidthError:
        reject()
    _assert_band_is_dense_oracle(kernel, _dense_kernel(m, spec, grid, p)[0])


@settings(max_examples=120, deadline=None)
@given(prescription=st.sampled_from(PRESCRIPTIONS),
       rule=st.sampled_from(MIDPOINT_RULES),
       m=st.integers(0, 5),
       n=st.integers(16, 400),
       hbar=st.floats(0.25, 4.0),
       width_frac=st.floats(0.0, 1.0),
       data=st.data())
def test_row_kernel_equals_whole_kernel_rows_bitwise(prescription, rule, m, n,
                                                     hbar, width_frac, data):
    # any row set, in any order and with repeats, holds the dense oracle's
    # rows to the bit, and applies to the bits that the kernel of every
    # row gives at those rows
    grid = RadialGrid(1.0, 5.0, n)
    low, high = 4.0 * grid.spacing, 0.5
    eps = (low + width_frac * (high - low)) ** 2 / hbar
    spec = SliceKernelSpec(eps=eps, prescription=prescription,
                           midpoint_rule=rule)
    p = ModelParams(D=2, R=1.0, hbar=hbar)
    try:
        whole = slice_kernel(m, spec, grid, p)
    except KernelWidthError:
        reject()
    # up to 2 n rows, so a draw spans up to four blocks of the build
    count = data.draw(st.integers(0, 2 * n))
    picked = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    rows = np.concatenate([[0], picked.integers(0, n, count), [n - 1]])
    kernel = slice_kernel(m, spec, grid, p, rows=rows)
    assert np.array_equal(kernel.rows, rows)
    _assert_band_is_dense_oracle(kernel, _dense_kernel(m, spec, grid, p)[0])
    v = np.random.default_rng(n).standard_normal(n)
    assert (kernel @ v).tobytes() == (whole @ v)[rows].tobytes()


def test_row_kernel_takes_only_grid_rows():
    spec = SliceKernelSpec(eps=1e-3, prescription=EXACT_CARTESIAN)
    for rows in ([GRID.n], [-1], [[0, 1]]):
        with pytest.raises(ValueError, match="indices into 2048 nodes"):
            slice_kernel(0, spec, GRID, P2, rows=rows)


@pytest.mark.parametrize("prescription, rule", [
    (EXACT_CARTESIAN, "geometric"), (NAIVE_POLAR, "geometric"),
    (CORRECTED_POLAR, "arithmetic")])
def test_action_at_rows_equals_the_whole_grid_action_bitwise(prescription,
                                                             rule):
    family = default_probe_family(GRID)
    full = effective_hamiltonian_action(family, prescription, EPS_LIST, P2,
                                        midpoint_rule=rule)
    for rows in ([0, 5, 700, 701, 1024, 2047],
                 [2047, 700, 0, 700],       # any order, with repeats
                 np.arange(1900, 2048),     # the tails: the flag scale
                                            # reads the probe, not the rows
                 np.arange(0, 2048, 2),     # four blocks of the build
                 np.arange(2048)):          # every row, eight blocks
        rows = np.asarray(rows)
        at = effective_hamiltonian_action(family, prescription, EPS_LIST, P2,
                                          midpoint_rule=rule, rows=rows)
        for a, f in zip(at, full):
            assert np.array_equal(a.rows, rows)
            assert np.array_equal(f.rows, np.arange(GRID.n))
            assert a.values.tobytes() == f.values[rows].tobytes()
            assert a.flags.tobytes() == f.flags[rows].tobytes()


@pytest.mark.parametrize("hbar, eps_min", [(1.0, 2.5e-4), (0.5, 1e-3)])
def test_flags_scale_by_the_probe_peak_over_the_smallest_step(hbar, eps_min):
    # a planted sequence that does not settle (last difference above the
    # previous one) is flagged only once its last difference clears
    # 1e-12 hbar max|psi| / eps_min, whatever the quotients' own size
    psi = RadialWavefunction.from_callable(
        gaussian_profile(2.0, 0.45), 0, GRID, open_inner=True)
    floor = 1e-12 * hbar * float(np.max(np.abs(psi.samples))) / eps_min
    d_last = floor * np.array([1.0 - 1e-6, 1.0 + 1e-6])
    d_prev = 0.5 * d_last
    quotients = [np.zeros(2), d_prev, d_prev + d_last]
    rows = np.array([10, 11])
    assert psi.peak == float(np.max(np.abs(psi.samples)))
    act = pathintegral._extrapolate(psi.peak, quotients, 0.5, rows, hbar,
                                    eps_min)
    assert act.flags.tolist() == [False, True]
    assert np.array_equal(act.rows, rows)


def test_whole_grid_flags_match_the_rule_of_the_smallest_step_quotient():
    # before the flag scale read the probe, it was max|q| of the smallest
    # step's quotient over every node, which only a whole kernel gives; on
    # the default family the two scales flag the same nodes
    family = default_probe_family(GRID)
    for presc in PRESCRIPTIONS:
        acts = effective_hamiltonian_action(family, presc, EPS_LIST, P2)
        kernels = {}
        for psi, act in zip(family, acts):
            q = []
            for eps in EPS_LIST:
                key = (abs(psi.m), eps)
                if key not in kernels:
                    kernels[key] = slice_kernel(
                        psi.m, SliceKernelSpec(eps, presc), GRID, P2)
                q.append(P2.hbar * (psi.samples
                                    - slice_step(psi, kernels[key])) / eps)
            scale = float(np.max(np.abs(q[-1])))
            d_last = np.abs(q[-1] - q[-2])
            old = (d_last >= np.abs(q[-2] - q[-3])) & (d_last > 1e-12 * scale)
            assert np.count_nonzero(old) > 0
            assert act.flags.tobytes() == old.tobytes()


def test_extraction_builds_each_kernel_once_and_holds_one(monkeypatch):
    # a default extraction builds one kernel per (prescription, mode, step),
    # 2 x 2 x 3 = 12, and releases each before it builds the next; every
    # one holds the three kept rows
    built, bands, shapes = [], [], []
    alive_at_build = []
    real_kernel, real_build = pathintegral.BandedKernel, pathintegral.slice_kernel

    def build(m, spec, grid, p, rows=None):
        built.append((spec.prescription, abs(int(m)), spec.eps))
        return real_build(m, spec, grid, p, rows=rows)

    def kernel(band, rows):
        bands.append(weakref.ref(band))
        alive_at_build.append(sum(ref() is not None for ref in bands))
        shapes.append((built[-1][2], band.shape[0]))
        return real_kernel(band, rows)

    monkeypatch.setattr(pathintegral, "slice_kernel", build)
    monkeypatch.setattr(pathintegral, "BandedKernel", kernel)
    extract_effective_potential(default_probe_family(GRID), [1.5, 2.0, 2.5],
                                EPS_LIST, P2)
    assert len(bands) == len(built) == len(set(built)) == 12
    assert {key[:2] for key in built} == {
        (presc, m) for presc in (NAIVE_POLAR, EXACT_CARTESIAN) for m in (0, 1)}
    assert max(alive_at_build) == 1  # the previous band is already freed
    assert all(ref() is None for ref in bands)
    assert sorted(set(shapes)) == sorted((eps, 3) for eps in EPS_LIST)


def test_extraction_peak_stays_under_its_estimate():
    # the estimate is pure arithmetic on sizes, and it covers what one
    # extraction allocates at its peak: one band and one build's temporaries
    family = default_probe_family(GRID)
    need = pathintegral.extraction_peak_bytes(GRID, EPS_LIST, P2, 3)
    tracemalloc.start()
    try:
        extract_effective_potential(family, [1.5, 2.0, 2.5], EPS_LIST, P2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # every step builds the three kept rows; the largest of these bands is
    # the largest step's, b = 111 at eps = 1e-3
    band = 8 * 3 * (2 * 111 + 1)
    assert band < peak < need
    # an extraction radius and a node both add to the estimate
    assert pathintegral.extraction_peak_bytes(GRID, EPS_LIST, P2, 4) > need
    wider = RadialGrid(GRID.r_min, GRID.r_max, GRID.n + 1)
    assert pathintegral.extraction_peak_bytes(wider, EPS_LIST, P2, 3) > need


def test_extraction_at_every_node_stays_under_its_estimate():
    # radii at every node keep 1092 rows, several blocks of the build, so
    # the band outgrows one block's temporaries
    family = default_probe_family(GRID)
    radii = GRID.nodes
    need = pathintegral.extraction_peak_bytes(GRID, EPS_LIST, P2, len(radii))
    tracemalloc.start()
    try:
        table = extract_effective_potential(family, radii, EPS_LIST, P2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = len(table.r)
    assert kept == 1092 and kept > 4 * pathintegral._BLOCK_ROWS
    # the largest band and one block's build temporaries, at least 4
    # doubles per slot, b = 111 at eps = 1e-3
    rows = kept + 4 * pathintegral._BLOCK_ROWS
    assert 8 * rows * (2 * 111 + 1) < peak < need


def test_extraction_applies_kernels_in_build_blocks(monkeypatch):
    # K @ v gathers one block's windows at a time, as the build evaluates
    # one block's entries, so with small blocks an extraction at every
    # node holds little beside its largest band; gathering every row's
    # windows at once would hold a second band
    monkeypatch.setattr(pathintegral, "_BLOCK_ROWS", 16)
    tracemalloc.start()
    try:
        family = default_probe_family(GRID)
        table = extract_effective_potential(family, GRID.nodes, EPS_LIST, P2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.r) == 1092
    band = 8 * len(table.r) * (2 * 111 + 1)  # b = 111 at eps = 1e-3
    assert peak < 1.5 * band


def test_blocked_build_fits_22000_nodes_at_every_node(monkeypatch):
    # a build holds one block's temporaries, not every row's, so 22000
    # radii on 22000 nodes fit the budget; a build of all rows at once
    # would need an estimated 3.0 GB
    grid = RadialGrid(n=22000)
    args = (grid, EPS_LIST, P2, 22000, NAIVE_POLAR, "geometric")
    pathintegral.check_extraction_sizes(*args)
    assert pathintegral.extraction_peak_bytes(*args[:4]) < 1e9
    monkeypatch.setattr(pathintegral, "_BLOCK_ROWS", 22000)
    budget = pathintegral.MEMORY_BUDGET
    with pytest.raises(ValueError, match=f"over the {budget} byte budget"):
        pathintegral.check_extraction_sizes(*args)


def test_action_checks_support_before_any_kernel(monkeypatch):
    # a member whose outer tail shows is refused when it is built, so the
    # action never reaches the slice step of its mode after earlier
    # kernels were built
    def build(*args, **kwargs):
        raise AssertionError("a kernel was built for an unsupported profile")
    monkeypatch.setattr(pathintegral, "BandedKernel", build)
    with pytest.raises(SupportError, match="outer tail"):
        family = default_probe_family(GRID) + [
            RadialWavefunction.from_callable(
                gaussian_profile(7.0, 1.0), 0, GRID, open_inner=True)]
        effective_hamiltonian_action(family, NAIVE_POLAR, EPS_LIST, P2)


def test_extraction_over_memory_budget_rejected_before_any_kernel(monkeypatch):
    # a budget just under the estimate stands in for the 2 GiB one, so a
    # missing guard costs megabytes here rather than gigabytes
    family = default_probe_family(GRID)
    radii = [1.5, 2.0, 2.5]
    need = pathintegral.extraction_peak_bytes(GRID, EPS_LIST, P2, len(radii))

    def build(*args, **kwargs):
        raise AssertionError("a kernel was built over the memory budget")
    monkeypatch.setattr(pathintegral, "BandedKernel", build)
    monkeypatch.setattr(pathintegral, "MEMORY_BUDGET", need - 1)
    with pytest.raises(ValueError, match=f"estimated {need} bytes"):
        extract_effective_potential(family, radii, EPS_LIST, P2)
    # the estimate at exactly the budget passes the rule; the next one
    # that fails is the kernel build itself
    monkeypatch.setattr(pathintegral, "MEMORY_BUDGET", need)
    with pytest.raises(AssertionError, match="a kernel was built"):
        extract_effective_potential(family, radii, EPS_LIST, P2)


def test_extraction_coefficient_by_midpoint_rule():
    # geometric midpoint leaves the documented hbar^2/(8 r^2) term; the
    # arithmetic midpoint doubles it
    family = default_probe_family(GRID)
    radii = [1.5, 2.0, 2.5]
    geo = extract_effective_potential(family, radii, EPS_LIST, P2,
                                      midpoint_rule="geometric")
    coeff_geo = 8.0 * geo.r ** 2 * geo.delta_v / P2.hbar ** 2
    assert np.max(np.abs(coeff_geo - 1.0)) < 1e-4
    arith = extract_effective_potential(family, radii, EPS_LIST, P2,
                                        midpoint_rule="arithmetic")
    coeff_arith = 8.0 * arith.r ** 2 * arith.delta_v / P2.hbar ** 2
    assert np.max(np.abs(coeff_arith - 2.0)) < 1e-2
    # the corrected prescription removes the term to relative 1e-3
    corr = extract_effective_potential(family, radii, EPS_LIST, P2,
                                       prescription=CORRECTED_POLAR)
    assert np.max(np.abs(corr.delta_v / corr.predicted)) < 1e-3


def test_extraction_skips_radii_below_the_probe_floor():
    # 5.5 lies where every probe is below 1e-6 of its peak: it is reported
    # as skipped, and the kept rows are those of an extraction without it
    family = default_probe_family(GRID)
    table = extract_effective_potential(family, [2.0, 5.5, 2.5], EPS_LIST, P2)
    kept = extract_effective_potential(family, [2.0, 2.5], EPS_LIST, P2)
    assert table.skipped == [float(GRID.nodes[np.argmin(np.abs(GRID.nodes - 5.5))])]
    for name in ("r", "delta_v", "spread", "predicted", "relative_error"):
        assert getattr(table, name).tobytes() == getattr(kept, name).tobytes()


def test_extraction_counts_richardson_flags():
    # radii chosen where some probe's Richardson sequence does not settle
    family = default_probe_family(GRID)
    radii = [0.8487, 2.0, 2.3384, 3.0910]
    table = extract_effective_potential(family, radii, EPS_LIST, P2)
    idx = [int(np.argmin(np.abs(GRID.nodes - r))) for r in table.r]
    assert len(idx) == len(radii)
    want = {"polar": 0, "exact": 0}
    for route, presc in (("polar", NAIVE_POLAR), ("exact", EXACT_CARTESIAN)):
        for act in effective_hamiltonian_action(family, presc, EPS_LIST, P2):
            want[route] += int(np.count_nonzero(act.flags[idx]))
    assert want["polar"] > 0 and want["exact"] > 0
    assert table.meta["richardson_flagged"] == want


def test_extraction_guards():
    family = default_probe_family(GRID)
    with pytest.raises(ValueError):
        extract_effective_potential(family, [2.0], EPS_LIST, P2,
                                    prescription=EXACT_CARTESIAN)
    with pytest.raises(ValueError):
        extract_effective_potential(family[:2], [2.0], EPS_LIST, P2)
    with pytest.raises(ValueError):  # slice steps must be geometric
        effective_hamiltonian_action(family, NAIVE_POLAR,
                                     [1e-3, 6e-4, 2.5e-4], P2)
    with pytest.raises(ValueError):  # and at least three of them
        effective_hamiltonian_action(family, NAIVE_POLAR, [1e-3, 5e-4], P2)
    with pytest.raises(ValueError, match="at least one profile"):
        effective_hamiltonian_action([], NAIVE_POLAR, EPS_LIST, P2)
    coarse = default_probe_family(RadialGrid(GRID.r_min, GRID.r_max, 1024))
    with pytest.raises(ValueError, match="share one grid"):
        effective_hamiltonian_action([family[0], coarse[1]], NAIVE_POLAR,
                                     EPS_LIST, P2)


def test_support_validation():
    # the support rule runs when a profile is built, so a family with an
    # unsupported member cannot be built, let alone reach a kernel
    with pytest.raises(SupportError, match="outer tail"):  # visible at r_max
        default_probe_family(GRID) + [RadialWavefunction.from_callable(
            gaussian_profile(7.0, 1.0), 0, GRID, open_inner=True)]
    with pytest.raises(SupportError, match="inner tail"):
        RadialWavefunction.from_callable(
            gaussian_profile(0.0, 0.8), 0, GRID)  # open_inner not declared
    with pytest.raises(SupportError, match="non-finite"):
        RadialWavefunction(m=0, grid=GRID, samples=np.full(GRID.n, np.nan))
    assert RadialWavefunction(m=0, grid=GRID, samples=np.zeros(GRID.n)).peak == 0.0
    for psi in default_probe_family(GRID):  # clean by construction
        assert psi.peak == float(np.max(np.abs(psi.samples)))


def test_probe_and_grid_vectors_are_read_only():
    # the support check holds for a profile's whole life only if its
    # samples cannot change after it; every probe reads the grid's vectors
    grid = RadialGrid(n=64)
    raw = gaussian_profile(2.0, 0.45)(grid.nodes)
    psi = RadialWavefunction(m=0, grid=grid, samples=raw, open_inner=True)
    raw[-1] = 1.0  # the profile keeps a copy, not the caller's array
    assert psi.samples[-1] < 1e-12
    for vec in (psi.samples, grid.nodes, grid.measure):
        with pytest.raises(ValueError, match="read-only"):
            vec[0] = 1.0
    assert grid.nodes is grid.nodes and grid.measure is grid.measure
    w = np.full(grid.n, grid.spacing)
    w[[0, -1]] *= 0.5
    assert grid.measure.tobytes() == (grid.nodes * w).tobytes()
    # both are computed on first use, so sizing a grid allocates nothing
    huge = RadialGrid(n=10 ** 10)
    with pytest.raises(ValueError, match="byte budget"):
        pathintegral.check_extraction_sizes(huge, EPS_LIST, P2, 26,
                                            NAIVE_POLAR, "geometric")
    assert not {"nodes", "measure"} & set(vars(huge))


def test_mollifier_bump_compact_support():
    fn = mollifier_bump(2.0, 1.2)
    r = GRID.nodes
    vals = fn(r)
    outside = (r <= 0.8) | (r >= 3.2)
    assert np.all(vals[outside] == 0.0)  # exact zeros, not small numbers
    assert np.max(vals) > 0.1


def test_grid_and_wavefunction_guards():
    with pytest.raises(ValueError):
        RadialGrid(r_min=-0.1)
    with pytest.raises(ValueError):
        RadialGrid(r_min=2.0, r_max=1.0)
    with pytest.raises(ValueError):
        RadialGrid(n=8)
    with pytest.raises(ValueError):
        RadialWavefunction(m=0, grid=GRID, samples=np.zeros(7))
    with pytest.raises(ValueError):
        RadialWavefunction(m=0.5, grid=GRID, samples=np.zeros(GRID.n))
    with pytest.raises(ValueError):
        SliceKernelSpec(eps=1e-3, prescription="something")
    with pytest.raises(ValueError):
        SliceKernelSpec(eps=1e-3, prescription=NAIVE_POLAR, midpoint_rule="odd")


def test_nearest_nodes_pick_as_argmin_does():
    # the closed-form snap must reproduce argmin, first index on ties
    rng = np.random.default_rng(11)
    for grid in (GRID, RadialGrid(r_min=0.5, r_max=4.25, n=16)):
        nodes = grid.nodes
        mids = 0.5 * (nodes[:-1] + nodes[1:])  # planted ties
        radii = np.concatenate([
            rng.uniform(grid.r_min - 1.0, grid.r_max + 1.0, 2000),
            mids, np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf),
            nodes, [-1e300, 1e300, 3e15, -np.inf, np.inf, np.nan, 0.0]])
        want = [int(np.argmin(np.abs(nodes - r))) for r in radii]
        assert pathintegral._nearest_nodes(nodes, radii).tolist() == want
    # on the 16-node grid the midpoints are exact, so each is a true tie
    nodes = RadialGrid(r_min=0.5, r_max=4.25, n=16).nodes
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    assert np.array_equal(mids - nodes[:-1], nodes[1:] - mids)
    assert pathintegral._nearest_nodes(nodes, mids).tolist() == list(range(15))
