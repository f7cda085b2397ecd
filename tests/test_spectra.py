"""Spectral collocation of the rotor Hamiltonian against the closed-form
rotor spectrum l(l+D-2)/2 with multiplicities from the degeneracy formula.

The dense, sector-decomposed, and Lanczos routes are compared with each
other as well; they share the grid assembly but nothing downstream.  The
separable operator is checked against an explicit Kronecker-product
matrix, built here and only here, at small resolutions.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, eigvalsh

from rotorkit import spectra
from rotorkit.geometry import MEMORY_BUDGET, ModelParams
from rotorkit.quadrature import azimuth_nodes, polar_exponent, polar_nodes
from rotorkit.spectra import (
    NonConvergenceError,
    SpectralGrid,
    assemble,
    cluster_eigenvalues,
    diffmat,
    extrapolate,
    harmonic_multiplicity,
    lanczos_lowest,
    reference_eigenvalues,
    reference_spectrum,
    route_spectrum,
    sector_spectrum,
)
from rotorkit.spectra import _fourier_d2, _polar_block, _sector_block

# the sector route's default cluster gap in the CLI, hbar^2/R^2 = 1
SECTOR_GAP = 1e-6


def grid_of(p, res):
    """SpectralGrid.build for an int res.  A tuple gives each axis its own
    node count (polar axes, then the azimuth), so the oracle tests also
    cover factors of unequal order, which equal counts would not tell
    apart."""
    if np.ndim(res) == 0:
        return SpectralGrid.build(p, res)
    polar = [polar_nodes(n, polar_exponent(p.D, k))
             for k, n in enumerate(res[:-1], start=1)]
    _, wphi = azimuth_nodes(res[-1])
    return SpectralGrid(p=p, counts=tuple(res),
                        polar_u=tuple(u for u, _ in polar),
                        polar_w=tuple(w for _, w in polar),
                        azimuth_w=wphi)


def kron_oracle(grid):
    """The assembled operator as an explicit n x n matrix, symmetrized.

    A = scale (A_1 (x) I + diag(1/(1-u_1^2)) (x) inner), recursively down to
    the Fourier factor, then S = W^{1/2} A W^{-1/2} under the full product
    weights, symmetrized.
    """
    p = grid.p
    scale = 0.5 * p.hbar ** 2 / p.R ** 2
    A = -scale * _fourier_d2(grid.counts[-1])
    W = grid.azimuth_w
    for u, w in zip(reversed(grid.polar_u), reversed(grid.polar_w)):
        A = (scale * np.kron(_polar_block(u, w), np.eye(A.shape[0]))
             + np.kron(np.diag(1.0 / (1.0 - u * u)), A))
        W = np.kron(w, W)
    sw = np.sqrt(W * p.R ** (p.D - 1))
    S = (sw[:, None] * A) / sw[None, :]
    return 0.5 * (S + S.T)


def eager_symbols(op):
    """T's full ascending spectrum, every block of every level scanned."""
    return op.inner.lowest(op.inner.size)[0]


def eager_lowest(op, k):
    """The k lowest values from a block scan over T's full spectrum."""
    S = op.symmetric_matrix()[0]
    floor = eigvalsh(S, subset_by_index=(0, 0))[0]
    vals = np.empty(0)
    for s in eager_symbols(op):
        if len(vals) >= k and floor + min(s * op.c.min(), s * op.c.max()) > vals[k - 1]:
            break
        top = min(k, S.shape[0]) - 1
        vals = np.concatenate([vals, eigvalsh(S + np.diag(s * op.c),
                                              subset_by_index=(0, top))])
        vals = vals[np.argsort(vals, kind="stable")[:k]]
    return vals


ORACLE_GRIDS = [(2, 16), (2, 15), (3, 12), (3, (9, 14)), (4, 8), (4, (6, 7, 10)),
                (5, 4)]


def test_diffmat_differentiates_polynomials_exactly():
    rng = np.random.default_rng(0)
    x = np.sort(rng.uniform(-1, 1, 12))
    D = diffmat(x)
    for coeffs in rng.normal(size=(5, 11)):  # degree 10 < 12 nodes
        p = np.polynomial.Polynomial(coeffs)
        assert np.max(np.abs(D @ p(x) - p.deriv()(x))) < 1e-8 * max(
            np.max(np.abs(p.deriv()(x))), 1.0)


def test_reference_spectrum_closed_form():
    p = ModelParams(D=4, R=2.0, hbar=0.5)
    ref = reference_spectrum(p, 3)
    scale = p.hbar ** 2 / p.R ** 2
    for l, (val, mult) in enumerate(ref):
        assert abs(val - scale * l * (l + 2) / 2.0) < 1e-15 * max(val, scale)
        assert mult == harmonic_multiplicity(4, l) == (l + 1) ** 2
    flat = reference_eigenvalues(p, 3)
    assert len(flat) == sum(m for _, m in ref)
    assert np.all(np.diff(flat) >= 0)


@pytest.mark.parametrize("D,l_formula", [
    (2, lambda l: 1 if l == 0 else 2),
    (3, lambda l: 2 * l + 1),
    (4, lambda l: (l + 1) ** 2),
])
def test_degeneracy_formulas(D, l_formula):
    for l in range(6):
        assert harmonic_multiplicity(D, l) == l_formula(l)


@pytest.mark.parametrize("D", (2, 3, 4))
def test_sector_route_machine_precision(D):
    p = ModelParams(D=D, R=1.0, hbar=1.0)
    ref = reference_spectrum(p, 3)
    k = sum(m for _, m in ref)
    r = route_spectrum(p, [48], k, "sector")
    assert np.max(np.abs(r.eigenvalues - reference_eigenvalues(p, 3))) < 1e-8
    assert [m for _, m in cluster_eigenvalues(r.eigenvalues, SECTOR_GAP)] == [
        m for _, m in ref]


def test_dense_d2_fourier_is_exact():
    p = ModelParams(D=2, R=1.0, hbar=1.0)
    r = route_spectrum(p, [16], 5, "dense")
    want = np.array([0.0, 0.5, 0.5, 2.0, 2.0])
    assert np.max(np.abs(r.eigenvalues - want)) < 1e-10


def test_dense_converges_and_extrapolation_tightens():
    p = ModelParams(D=3, R=1.0, hbar=1.0)
    refe = reference_eigenvalues(p, 3)
    k = len(refe)
    results = []
    for res in (12, 16, 24):
        results.append(route_spectrum(p, [res], k, "dense").eigenvalues)
    raw_err = np.max(np.abs(results[-1] - refe))
    assert raw_err < 0.08  # res 24 raw accuracy on the l <= 3 block
    vals, err_est, flags = extrapolate(results, [12, 16, 24])
    ex_err = np.max(np.abs(vals - refe))
    assert ex_err < 5e-3
    assert ex_err < raw_err / 5.0  # extrapolation must actually help
    assert int(flags.sum()) <= 2
    # extrapolated values recover the exact cluster pattern
    cl = cluster_eigenvalues(vals, 1e-2)
    assert [m for _, m in cl] == [1, 3, 5, 7]


def test_extrapolation_flags_a_sequence_no_order_fits():
    # monotone and contracting, but the ratio d12/d23 = 5e6 lies above
    # 2^16, beyond every order in [0.25, 16] at counts 10, 20, 40; the
    # second value converges as n^-2 and is extrapolated as usual
    values = [np.array([1.0, 1.01]), np.array([0.5, 1.0025]),
              np.array([0.5 - 1e-7, 1.000625])]
    counts = [10, 20, 40]
    assert spectra._fit_order(1.0, 0.5, 0.5 - 1e-7, *counts) is None
    out, err, flags = extrapolate(values, counts)
    assert flags.tolist() == [True, False]
    assert out[0] == values[2][0]  # the finest raw value
    assert err[0] == abs(values[1][0] - values[2][0])
    assert abs(out[1] - 1.0) < 1e-12


@pytest.mark.parametrize("D,res", ORACLE_GRIDS)
def test_apply_matches_kron_oracle(D, res):
    p = ModelParams(D=D, R=1.3, hbar=0.7)
    grid = grid_of(p, res)
    op = assemble(grid)
    S = kron_oracle(grid)
    assert op.size == S.shape[0]
    V = np.random.default_rng(D).standard_normal((3, op.size))
    want = V @ S
    got = op.apply(V)  # a batch of rows, and each row on its own
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    for v, w in zip(V, want):
        assert np.linalg.norm(op.apply(v) - w) <= 1e-13 * np.linalg.norm(w)


@pytest.mark.parametrize("D,res", ORACLE_GRIDS)
def test_dense_route_matches_kron_oracle(D, res):
    p = ModelParams(D=D, R=1.3, hbar=0.7)
    grid = grid_of(p, res)
    op = assemble(grid)
    S = kron_oracle(grid)
    want = eigvalsh(S)
    top = np.max(np.abs(want))
    k = min(20, op.size)
    vals = op.lowest(k)[0]
    assert np.max(np.abs(vals - want[:k])) <= 1e-11 * top
    full, scanned = op.lowest(op.size)
    assert scanned == (1 if D == 2 else op.inner.size)
    assert np.max(np.abs(full - want)) <= 1e-11 * top
    assert op.symmetry_defect() < 1e-12 * top


@pytest.mark.parametrize("D,res", [g for g in ORACLE_GRIDS if g[0] > 2])
def test_block_scan_stops_early_with_the_full_scan_values(D, res):
    p = ModelParams(D=D, R=1.0, hbar=1.0)
    op = assemble(grid_of(p, res))
    S = op.symmetric_matrix()[0]
    symbols = eager_symbols(op)
    for k in (1, 4, 9, 16):
        top = min(k, S.shape[0]) - 1
        every_block = np.concatenate([
            eigvalsh(S + np.diag(s * op.c), subset_by_index=(0, top))
            for s in symbols])
        vals, scanned = op.lowest(k)
        assert np.array_equal(vals, np.sort(every_block)[:k])
        assert scanned < len(symbols)


@pytest.mark.parametrize("D,res", [g for g in ORACLE_GRIDS if g[0] > 2])
def test_lazy_symbols_match_the_eager_scan_bitwise(D, res):
    # lowest asks T for one block's worth of symbols and doubles from
    # there; every value must equal the scan over T's full spectrum
    op = assemble(grid_of(ModelParams(D=D, R=1.3, hbar=0.7), res))
    for k in (1, 4, 9, 16, 40, op.size):
        k = min(k, op.size)
        assert np.array_equal(op.lowest(k)[0], eager_lowest(op, k))


@pytest.mark.parametrize("D", range(2, 11))
def test_sector_multiplicities_match_the_reference(D):
    p = ModelParams(D=D, R=1.0, hbar=1.0)
    ref = reference_spectrum(p, 3)
    r = route_spectrum(p, [24], sum(m for _, m in ref), "sector")
    assert [m for _, m in cluster_eigenvalues(r.eigenvalues, SECTOR_GAP)] == [
        m for _, m in ref]
    assert np.max(np.abs(r.eigenvalues - reference_eigenvalues(p, 3))) < 1e-8


def loop_sector_scan(p, res, k):
    """The sector scan with each value copied mult times in a Python loop."""
    scale = 0.5 * p.hbar ** 2 / p.R ** 2
    collected, residuals, sector = [], [], 0
    while len(collected) < k or np.sort(collected)[k - 1] >= (
            sector * (sector + p.D - 2) * scale):
        B = _sector_block(p.D, sector, res)
        vals, vecs = np.linalg.eig(B)
        order = np.argsort(vals.real)
        vals, vecs = vals.real[order], vecs[:, order]
        norms = np.linalg.norm(B @ vecs - vecs * vals[None, :], axis=0) / np.linalg.norm(
            vecs, axis=0)
        for v, r in zip(vals, norms):
            for _ in range(harmonic_multiplicity(p.D - 1, sector)):
                collected.append(v * scale)
                residuals.append(r * scale)
        sector += 1
    order = np.argsort(collected)[:k]
    return np.asarray(collected)[order], np.asarray(residuals)[order]


@pytest.mark.parametrize("D,res,levels", [(3, 48, 6), (4, 24, 5), (7, 12, 4)])
def test_sector_route_matches_the_loop_scan_bitwise(D, res, levels):
    p = ModelParams(D=D, R=1.3, hbar=0.7)
    k = sum(m for _, m in reference_spectrum(p, levels - 1))
    r = sector_spectrum(p, res, k)
    vals, resid = loop_sector_scan(p, res, k)
    assert np.array_equal(r.eigenvalues, vals)
    assert np.array_equal(r.residual_norms, resid)


def test_d2_sector_route_solves_the_largest_grid_it_built(monkeypatch):
    # D=2 has no polar angle to peel: the sector route is the dense solve
    # on the largest grid, built once
    p = ModelParams(D=2)
    k = sum(m for _, m in reference_spectrum(p, 3))
    want = np.sort(assemble(SpectralGrid.build(p, 32)).lowest(k)[0])
    built = []
    build = SpectralGrid.build.__func__

    def counted(cls, p, res):
        built.append(res)
        return build(cls, p, res)
    monkeypatch.setattr(SpectralGrid, "build", classmethod(counted))
    r = route_spectrum(p, [16, 32], k, "sector")
    assert built == [16, 32]
    assert np.array_equal(r.eigenvalues, want)
    assert r.meta["route"] == "sector"


def test_route_spectrum_refuses_an_unknown_method_before_any_grid(monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("a grid was built for an unknown method")
    monkeypatch.setattr(SpectralGrid, "build", build)
    monkeypatch.setattr(spectra, "sector_spectrum", build)
    with pytest.raises(ValueError, match="unknown method 'lanczos'"):
        route_spectrum(ModelParams(D=3), [16], 4, "lanczos")


def test_the_resolution_estimate_bounds_a_measured_peak():
    # tracemalloc's peak of a whole solve stays within the estimate on each
    # route, at a resolution where the res x res matrices dominate
    for D, res, method in [(2, 300, "dense"), (3, 200, "sector"),
                           (4, 100, "dense"), (2, 300, "iterative")]:
        p = ModelParams(D=D)
        tracemalloc.start()
        route_spectrum(p, [res], 3, method)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= spectra._route_peak_bytes(p, res, method)


def test_grid_size_is_exact_past_int64():
    grid = SpectralGrid.build(ModelParams(D=10), 200)
    assert grid.size == 200 ** 9 and isinstance(grid.size, int)


def test_dense_route_at_d10_without_node_sized_arrays():
    # D=10 at res 48 has 1.35e15 nodes; the area check and the dense
    # route's lowest levels cost O(D res) memory, not O(n)
    p = ModelParams(D=10)
    vals = route_spectrum(p, [48], 11, "dense").eigenvalues
    assert abs(vals[0]) < 1e-8 and np.max(np.abs(vals[1:] - 4.5)) < 1e-2


@pytest.mark.parametrize("D,res", ORACLE_GRIDS)
def test_block_residuals_against_kron_oracle(D, res):
    p = ModelParams(D=D, R=1.3, hbar=0.7)
    grid = grid_of(p, res)
    op = assemble(grid)
    S = kron_oracle(grid)
    k = min(16, op.size)
    vals = op.lowest(k)[0]
    want = eigvalsh(S, subset_by_index=(0, k - 1))
    top = np.max(np.abs(eigvalsh(S)))
    assert vals.shape == (k,)
    assert np.max(np.abs(vals - want)) <= 1e-11 * top


def test_lanczos_matches_dense_on_distinct_values():
    # a single-vector Krylov space cannot split exact multiplicities, so the
    # iterative route reports each degenerate value once; compare distinct
    # cluster values, not multiplicities
    p = ModelParams(D=3, R=1.0, hbar=1.0)
    op = assemble(SpectralGrid.build(p, 16))
    _, defect = op.symmetric_matrix()
    assert defect < 1e-10
    k = 16
    vals, resid, *_ = lanczos_lowest(op, k, seed=3)
    assert np.max(resid) < 1e-7
    dense = route_spectrum(p, [16], k, "dense")
    dvals = [v for v, _ in cluster_eigenvalues(dense.eigenvalues, 1e-4)]
    lvals = [v for v, _ in cluster_eigenvalues(np.sort(vals), 1e-4)]
    assert len(lvals) >= len(dvals)
    assert np.max(np.abs(np.array(lvals[:len(dvals)]) - dvals)) < 1e-5


def test_lanczos_error_paths():
    p = ModelParams(D=3, R=1.0, hbar=1.0)
    op = assemble(SpectralGrid.build(p, 12))
    with pytest.raises(ValueError):
        lanczos_lowest(op, 6, maxiter=3)  # maxiter below k is a usage error
    with pytest.raises(NonConvergenceError):
        lanczos_lowest(op, 6, maxiter=8, tol=1e-12)
    with pytest.raises(ValueError):
        route_spectrum(p, [12], op.size + 1, "dense")


def test_lanczos_basis_growth_keeps_results(monkeypatch):
    p = ModelParams(D=3, R=1.0, hbar=1.0)
    op = assemble(SpectralGrid.build(p, 12))
    want = lanczos_lowest(op, 6, seed=1)
    monkeypatch.setattr(spectra, "_LANCZOS_BLOCK", 5)  # grows many times
    got = lanczos_lowest(op, 6, seed=1)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got[2:] == want[2:]


def test_lanczos_exhausted_krylov_space():
    # on 16 Fourier nodes the Krylov space closes before maxiter (at the 9
    # distinct values, or at all 16 once rounding splits the pairs) and the
    # tridiagonal matrix is exact; tol=0 leaves that as the only way out
    p = ModelParams(D=2, R=1.0, hbar=1.0)
    op = assemble(SpectralGrid.build(p, 16))
    vals, resid, *_ = lanczos_lowest(op, 5, seed=0, tol=0.0)
    spectrum = eigvalsh(op.symmetric_matrix()[0])
    assert len(vals) == 5 and np.all(np.diff(vals) >= 0)
    assert np.max(np.min(np.abs(vals[:, None] - spectrum[None, :]), axis=1)) < 1e-12
    assert np.all(resid == 0.0)


def every_step_lanczos(op, k, seed=0, tol=1e-10, maxiter=None):
    """lanczos_lowest with the Ritz test at every step, as it ran before
    the sparse cadence: (values, residual bounds, steps)."""
    n = op.size
    maxiter = min(n if maxiter is None else maxiter, n,
                  MEMORY_BUDGET // (8 * n) - 1)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    V = np.empty((min(maxiter + 1, spectra._LANCZOS_BLOCK), n))
    V[0] = v
    alphas, betas = [], []
    scale = None
    for j in range(maxiter):
        w = op.apply(V[j])
        a = float(V[j] @ w)
        alphas.append(a)
        w -= a * V[j]
        if j > 0:
            w -= betas[-1] * V[j - 1]
        b0 = np.linalg.norm(w)
        w -= V[: j + 1].T @ (V[: j + 1] @ w)
        b = float(np.linalg.norm(w))
        if b < spectra._DGKS_KEEP * b0:  # the first pass cancelled
            w -= V[: j + 1].T @ (V[: j + 1] @ w)
            b = float(np.linalg.norm(w))
        if scale is None:
            scale = max(abs(a), b, np.finfo(float).tiny)
        scale = max(scale, abs(a), b)
        if b <= 1e-14 * scale:
            vals = eigh_tridiagonal(alphas, betas, eigvals_only=True)
            return vals[:k], np.zeros(min(k, len(vals))), j + 1
        betas.append(b)
        if j + 1 == V.shape[0]:
            grow = min(V.shape[0], maxiter + 1 - V.shape[0])
            V = np.concatenate([V, np.empty((grow, n))])
        V[j + 1] = w / b
        if j + 1 >= k:
            vals, svecs = eigh_tridiagonal(alphas, betas[:-1], select="i",
                                           select_range=(0, k - 1))
            resid = b * np.abs(svecs[-1])
            if np.all(resid <= tol * scale):
                return vals, resid, j + 1
    raise NonConvergenceError("no convergence", residuals=resid)


@pytest.mark.parametrize("D,res,k,seed,kwargs", [
    *[(3, 12, 16, s, {}) for s in range(6)],
    *[(3, 16, 16, s, {}) for s in range(6)],
    (2, 64, 7, 0, {}),  # the bound drops about 2 decades per step
    (3, 24, 36, 4, {}),  # a passing run one step long
    (2, 16, 5, 0, {"tol": 0.0}),  # only the exhausted Krylov space returns
    (3, 12, 6, 0, {"maxiter": 8, "tol": 1e-12}),
    (3, 16, 16, 0, {"maxiter": 100}),  # sparse tests, then maxiter
    (3, 32, 16, 0, {}),  # the benchmark's own command
    (4, 10, 16, 1, {}),
])
def test_sparse_ritz_tests_stop_where_every_step_tests_stop(D, res, k, seed, kwargs):
    op = assemble(SpectralGrid.build(ModelParams(D=D), res))
    try:
        want = every_step_lanczos(op, k, seed, **kwargs)
    except NonConvergenceError as exc:
        with pytest.raises(NonConvergenceError) as got:
            lanczos_lowest(op, k, seed, **kwargs)
        assert np.array_equal(got.value.residuals, exc.residuals)
        return
    vals, resid, steps, *_ = lanczos_lowest(op, k, seed, **kwargs)
    assert np.array_equal(vals, want[0]) and np.array_equal(resid, want[1])
    assert steps == want[2]


class Diagonal:
    """diag(values) as an operator; ``lanczos_lowest`` reads only ``size``
    and ``apply``, and ``applies`` counts the Krylov steps it took."""

    def __init__(self, values):
        self.d = np.asarray(values, dtype=float)
        self.size = len(self.d)
        self.applies = 0

    def apply(self, v):
        self.applies += 1
        return self.d * v


def test_reorthogonalization_keeps_ghost_copies_out():
    # five isolated low values under 1,995 spread ones: once the lowest
    # converges, a basis that is not reorthogonalized turns it up again, and
    # the ghost copies crowd the next values out of the five lowest
    values = np.concatenate([np.arange(5.0), np.linspace(5.0, 100.0, 1995)])
    rows = []

    class Recorded(Diagonal):
        def apply(self, v):
            rows.append(v.copy())  # the basis rows, one per Krylov step
            return super().apply(v)
    vals, resid, steps, *_ = lanczos_lowest(Recorded(values), 5, 0)
    assert np.max(np.abs(vals - np.arange(5.0))) < 1e-12 * values.max()
    assert len(rows) == steps
    V = np.array(rows)
    assert np.max(np.abs(V @ V.T - np.eye(steps))) < 1e-13


def test_both_early_exits_rescan_the_untested_steps():
    # at n = 2061 the sparse Ritz test runs every isqrt(n) // 4 = 11 steps,
    # but the isolated lowest value converges at step 4, so every run that
    # gets there returns from a re-scan of the untested steps: after the
    # last of maxiter steps, or where the Krylov space is exhausted (four
    # distinct values; rounding keeps it open until step 8 here)
    values = np.resize([0.0, 1.0, 1.005, 1.01], 2061)
    taken = {}  # maxiter -> steps taken, for the runs that return
    for maxiter in range(1, 14):
        op = Diagonal(values)
        try:
            want = every_step_lanczos(op, 1, 0, maxiter=maxiter)
        except NonConvergenceError as exc:
            with pytest.raises(NonConvergenceError) as got:
                lanczos_lowest(op, 1, 0, maxiter=maxiter)
            assert np.array_equal(got.value.residuals, exc.residuals)
            continue
        op.applies = 0
        vals, resid, steps, solves, screens = lanczos_lowest(op, 1, 0,
                                                             maxiter=maxiter)
        assert np.array_equal(vals, want[0]) and np.array_equal(resid, want[1])
        assert steps == want[2] == 4
        assert solves == 4  # steps 1 to 4, all in the re-scan
        assert screens == 0  # at k = 1 the one-pair screen is the full solve
        taken[maxiter] = op.applies
    # the runs that stop short of maxiter find the exhausted space; every
    # smaller maxiter runs out first
    exhausted = min(n for m, n in taken.items() if n < m)
    assert min(taken) < exhausted


def counting_tridiagonal_solves(monkeypatch):
    """Wrap spectra.eigh_tridiagonal; the lists grow by one per call, the
    first for each full solve, the second for each one-pair screen."""
    full, screens = [], []
    solve = spectra.eigh_tridiagonal

    def counted(*args, **kwargs):
        pair = kwargs.get("select_range")
        one = pair is not None and pair[0] == pair[1]
        (screens if one else full).append(args)
        return solve(*args, **kwargs)
    monkeypatch.setattr(spectra, "eigh_tridiagonal", counted)
    return full, screens


def test_ritz_tests_run_at_most_every_third_step(monkeypatch):
    op = assemble(SpectralGrid.build(ModelParams(D=3), 16))
    full, screens = counting_tridiagonal_solves(monkeypatch)
    _, _, steps, solves, screened = lanczos_lowest(op, 16)
    assert solves == len(full) and screened == len(screens)
    assert 3 * solves <= steps


@pytest.mark.parametrize("seed", range(3))
def test_screens_keep_full_solves_few(monkeypatch, seed):
    # the benchmark's grid: testing every step at its cadence takes 69 to
    # 96 full solves a run (seeds 0 to 8); the one-pair screens leave 9, 13
    # and 13
    op = assemble(SpectralGrid.build(ModelParams(D=3), 32))
    full, screens = counting_tridiagonal_solves(monkeypatch)
    *_, solves, screened = lanczos_lowest(op, 16, seed)
    assert solves == len(full) <= 20
    assert screened == len(screens) > solves


def test_iterative_meta_carries_steps_and_ritz_tests(monkeypatch):
    p = ModelParams(D=3)
    op = assemble(SpectralGrid.build(p, 16))
    full, screens = counting_tridiagonal_solves(monkeypatch)
    meta = route_spectrum(p, [16], 16, "iterative", seed=3).meta
    assert meta["ritz_tests"] == len(full)
    assert meta["ritz_screens"] == len(screens)
    assert meta["lanczos_steps"] == every_step_lanczos(op, 16, seed=3)[2]


def test_cluster_eigenvalues_grouping():
    vals = np.array([0.0, 1.0 - 2e-7, 1.0, 1.0 + 2e-7, 3.0])
    assert cluster_eigenvalues(vals, 1e-6) == [(pytest.approx(0.0), 1),
                                               (pytest.approx(1.0), 3),
                                               (pytest.approx(3.0), 1)]
    tight = cluster_eigenvalues(vals, 1e-9)
    assert [m for _, m in tight] == [1, 1, 1, 1, 1]
