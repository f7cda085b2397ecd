"""Discretized rotor Hamiltonians and their low spectra.

``route_spectrum(p, res, k, method)`` is the one call from model
parameters to eigenvalues.  It checks every input rule before the first
eigensolve and then runs one of three routes; a closed-form reference
provides the oracle:

* ``dense``: ``assemble`` discretizes on a (Gauss nodes in cos phi_k) x
  (uniform azimuth) grid and keeps the operator in separable form,
  A (x) I + diag(1/(1-u^2)) (x) T: a polar factor A with one row per
  polar node, the coupling, and T, the operator of the sub-sphere one level
  down (the Fourier factor for D=3), for every D the model accepts.  Polar
  second derivatives use the weak form K = Dn^T V Dn with the diagonal
  quadrature mass matrix, which is an exact Galerkin restriction to
  polynomials (Gauss quadrature is exact through degree 2n-1) and is
  symmetric under the quadrature inner product by construction.
  Azimuthal derivatives use the exact Fourier differentiation matrix.
  In T's eigenbasis the operator is block diagonal, one polar block per
  eigenvalue of T (fast diagonalization, Lynch, Rice & Thomas 1964), so
  the dense route diagonalizes only the few blocks that can hold the
  lowest levels, asking T for only as many eigenvalues as those blocks
  need; its cost follows D, k and the resolution, not the node count.
  Three or more resolutions are Richardson-extrapolated (``extrapolate``).
* ``iterative``: Lanczos applies the same factors matrix-free within a
  byte budget for its basis; the n x n matrix is never formed.
* ``sector``: ``sector_spectrum`` peels off the leading angle's weight
  analytically: restricted to functions of the form
  sin^s(phi_1) v(cos phi_1) Y_s(rest), the operator becomes the
  polynomial-preserving tridiagonal-similar form
      B v = -(1-u^2) v'' + (2s+d) u v' + s(s+d-1) v,   d = D-1,
  whose collocation matrix on any n distinct nodes carries the *exact*
  eigenvalues L(L+d-1), L = s..s+n-1 (B is triangular in the monomial
  basis).  This route resolves eigenvalue clusters to machine precision.
  At D=2 the sector route is the dense solve on the largest grid, where
  the Fourier factor is exact.

The routes return values; grouping them into clusters is the caller's
choice of gap (``cluster_eigenvalues``).

The full tensor route converges spectrally for even azimuthal modes but only
algebraically (observed order ~2 in the node count) for odd ones, whose
eigenfunctions carry a sqrt(1-u^2) factor that polynomial collocation cannot
represent; Richardson extrapolation with a fitted order recovers most of the
gap.  That limitation is intrinsic to the discretization, not a bug, and the
tests pin the honest tolerances for each route.

No curvature offset is added anywhere: the smallest computed eigenvalue is
asserted to vanish, which is the falsifiable form of the claim that the
constrained quantization produces the bare Laplace-Beltrami spectrum
hbar^2 l(l+D-2) / (2 R^2).
"""

import math
from dataclasses import dataclass, field

import numpy as np
# eigh has no caller here, but bench/layers.py wraps spectra.eigh by name,
# so the binding stays while the benchmark reads it
from scipy.linalg import eigh, eigh_tridiagonal, eigvalsh

from .geometry import MEMORY_BUDGET, ModelParams, harmonic_multiplicity
from .quadrature import _sphere_rules, polar_nodes

__all__ = [
    "SpectralGrid", "GridOperator", "SpectrumResult", "NonConvergenceError",
    "diffmat", "assemble", "sector_spectrum",
    "reference_spectrum", "reference_eigenvalues", "cluster_eigenvalues",
    "extrapolate", "lanczos_lowest", "route_spectrum",
]


class NonConvergenceError(RuntimeError):
    """Iterative eigensolver ran out of iterations; carries residual bounds."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


def diffmat(x):
    """Barycentric differentiation matrix on arbitrary distinct nodes."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    X = x[:, None] - x[None, :]
    np.fill_diagonal(X, 1.0)
    w = 1.0 / X.prod(axis=1)
    D = (w[None, :] / w[:, None]) / X
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def _fourier_d2(n):
    """Second-derivative matrix of the uniform periodic grid (exact symbol -k^2)."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    F = np.fft.fft(np.eye(n), axis=0)
    return np.real(np.fft.ifft((-(k ** 2))[:, None] * F, axis=0))


@dataclass(frozen=True)
class SpectralGrid:
    """Tensor angular grid: Gauss nodes per polar angle, uniform azimuth."""

    p: ModelParams
    counts: tuple
    polar_u: tuple = field(repr=False)
    polar_w: tuple = field(repr=False)
    azimuth_w: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, p, res):
        """res Gauss nodes on every polar axis, res rounded up to even on
        the azimuth."""
        res = int(res)
        if res < 4:
            raise ValueError("a grid needs every resolution >= 4 nodes per "
                             f"axis, got {res}")
        polar, (_, wphi) = _sphere_rules(p, res, res)
        counts = (res,) * (p.D - 2) + (len(wphi),)
        return cls(p=p, counts=counts, polar_u=tuple(u for u, _ in polar),
                   polar_w=tuple(w for _, w in polar), azimuth_w=wphi)

    @property
    def size(self):
        return math.prod(self.counts)


@dataclass
class GridOperator:
    """Separable discretized operator A (x) I + diag(c) (x) T.

    ``A`` is the leading dense factor: the polar block on the first polar
    axis, or for D=2 the Fourier factor itself.  ``inner`` is T, the
    operator of the sub-sphere one level down (None for D=2) and ``c`` the
    coupling 1/(1-u^2) on the leading nodes; T's spectrum is computed only
    as far as ``lowest`` needs it.  ``w`` holds the leading axis's
    quadrature weights; the operator is symmetric under the product
    weights, and ``apply`` and ``lowest`` work on that symmetrized form.
    No method builds the full n x n matrix.
    """

    A: np.ndarray
    w: np.ndarray
    c: np.ndarray = None
    inner: "GridOperator" = None
    _symmetric: tuple = field(default=None, init=False, repr=False, compare=False)

    @property
    def size(self):
        return self.A.shape[0] * (1 if self.inner is None else self.inner.size)

    def symmetric_matrix(self):
        """The leading factor in quadrature-symmetric form, with its defect.

        Returns (S, defect): S = W^{1/2} A W^{-1/2} explicitly symmetrized,
        defect = max |S - S^T| before symmetrization (reported, must be tiny).
        """
        sw = np.sqrt(self.w)
        S = (sw[:, None] * self.A) / sw[None, :]
        defect = float(np.max(np.abs(S - S.T)))
        return 0.5 * (S + S.T), defect

    def _sym(self):
        """symmetric_matrix(), computed once per operator."""
        if self._symmetric is None:
            self._symmetric = self.symmetric_matrix()
        return self._symmetric

    def symmetry_defect(self):
        """Largest symmetrization defect over the factors of every level."""
        defect = self._sym()[1]
        if self.inner is None:
            return defect
        return max(defect, self.inner.symmetry_defect())

    def apply(self, v):
        """Symmetrized operator applied along the last axis of ``v``.

        On the vector reshaped to (leading nodes, rest) this is
        S @ X + c[:, None] * T(X), with T applied the same way one level
        down; D=2 is the Fourier factor alone.
        """
        S = self._sym()[0]
        if self.inner is None:
            return v @ S
        X = v.reshape(v.shape[:-1] + (S.shape[0], -1))
        out = S @ X + self.c[:, None] * self.inner.apply(X)
        return out.reshape(v.shape)

    def lowest(self, k):
        """The k lowest eigenvalues, ascending, from one block per symbol.

        In T's eigenbasis the symmetrized operator is block diagonal with
        blocks S + s diag(c), one per symbol s.  Blocks are visited in
        ascending s; by Weyl, a block's smallest eigenvalue is at least
        lambda_min(S) + min(s c), so the scan stops at the first block
        whose bound exceeds the current k-th value.  The symbols come from
        T's own ``lowest``: first max(k, one block of T) of them, doubling
        until the scan closes.  The first m symbols are the same numbers
        whatever m is asked, so the scan goes on where it stopped.
        Returns (values, blocks scanned).
        """
        S = self._sym()[0]
        if self.inner is None:
            return _block_eigs(S, k), 1
        c, T = self.c, self.inner
        floor = eigvalsh(S, subset_by_index=(0, 0))[0]
        vals = np.empty(0)
        scanned = 0
        symbols = T.lowest(min(max(k, T.A.shape[0]), T.size))[0]
        while scanned < T.size:
            if scanned == len(symbols):  # ask T for twice as many
                symbols = T.lowest(min(2 * scanned, T.size))[0]
            s = symbols[scanned]
            bound = floor + min(s * c.min(), s * c.max())
            if len(vals) >= k and bound > vals[k - 1]:
                break
            vals = np.concatenate([vals, _block_eigs(S + np.diag(s * c), k)])
            vals = vals[np.argsort(vals, kind="stable")[:k]]
            scanned += 1
        return vals, scanned


def _block_eigs(B, k):
    """Lowest min(k, order) eigenvalues of symmetric B."""
    return eigvalsh(B, subset_by_index=(0, min(k, B.shape[0]) - 1))


def _polar_block(u, w):
    """Weak-form polar factor W^{-1} Dn^T diag(w (1-u^2)) Dn (collocation form)."""
    Dm = diffmat(u)
    K = Dm.T @ ((w * (1.0 - u * u))[:, None] * Dm)
    K = 0.5 * (K + K.T)
    return (1.0 / w)[:, None] * K


def assemble(grid):
    """Discretize the curvilinear Hamiltonian on ``grid``, at any D.

    Builds the factors level by level from the azimuth outwards: the
    Fourier factor, then one polar factor per polar axis coupled to the
    level below it.  No eigenvalue is computed here.
    """
    p = grid.p
    scale = 0.5 * p.hbar ** 2 / p.R ** 2
    op = GridOperator(A=-scale * _fourier_d2(grid.counts[-1]), w=grid.azimuth_w)
    for axis in reversed(range(p.D - 2)):
        u, w = grid.polar_u[axis], grid.polar_w[axis]
        op = GridOperator(A=scale * _polar_block(u, w), w=w,
                          c=1.0 / (1.0 - u * u), inner=op)
    return op


@dataclass
class SpectrumResult:
    """Ascending eigenvalues with their provenance."""

    eigenvalues: np.ndarray
    meta: dict
    residual_norms: np.ndarray = None

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        scale = self.meta.get("scale", 1.0)
        if np.any(ev < -1e-8 * max(1.0, scale)):
            raise AssertionError("operator should be positive semidefinite")
        self.eigenvalues = ev


def cluster_eigenvalues(vals, tol):
    """Group ascending values whose consecutive gaps stay below tol."""
    vals = np.sort(np.asarray(vals, dtype=float))
    clusters = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > tol:
            clusters.append((float(np.mean(vals[start:i])), i - start))
            start = i
    return clusters


def _result(vals, p, meta, residuals=None):
    return SpectrumResult(eigenvalues=np.sort(vals),
                          meta=dict(meta, scale=p.hbar ** 2 / p.R ** 2),
                          residual_norms=residuals)


# rows of the Lanczos basis's first block; the basis doubles from there
# (capped at maxiter + 1 rows) and is never reserved for maxiter up front
_LANCZOS_BLOCK = 64
# a reorthogonalization pass that leaves less than this share of the norm
# has cancelled: repeat it once (Daniel, Gragg, Kaufman & Stewart, Math.
# Comp. 30, 772, 1976; Parlett, The Symmetric Eigenvalue Problem, 1980,
# sec. 6-9, "twice is enough")
_DGKS_KEEP = 1 / math.sqrt(2)
# Ritz-test cadence: every isqrt(n) // _RITZ_STRIDE_DIVISOR steps (8 at
# res 32, D=3) while the last test's largest residual bound is over
# _RITZ_NEAR times its tolerance, every step once it is within that factor
_RITZ_STRIDE_DIVISOR = 4
_RITZ_NEAR = 1e3
# a test whose screened bound is over this many tolerances fails unsolved
_RITZ_SCREEN_MARGIN = 2.0


def lanczos_lowest(op, k, seed=0, tol=1e-10, maxiter=None):
    """k smallest distinct eigenvalues of a symmetric operator by Lanczos.

    Shift-free Lanczos on ``op``, which needs ``size`` and ``apply(v)`` as a
    GridOperator has them; fixed seed makes runs bitwise reproducible.
    Each step reorthogonalizes against the whole basis with one classical
    Gram-Schmidt pass, and with a second only if the first left less than
    1/sqrt(2) of the vector's norm (``_DGKS_KEEP``, the DGKS test).  The
    first pass removes the rounding the three-term recurrence leaves, so
    it cancels only where the Krylov space closes: on every run measured
    the second pass fired only on a step that then returned as exhausted.
    The basis starts at ``_LANCZOS_BLOCK`` rows and doubles when full,
    never past maxiter + 1 rows, so MEMORY_BUDGET bounds it at any n: a
    budget below k + 1 rows of 8 n bytes is a ValueError, and ``maxiter``
    is capped at MEMORY_BUDGET // (8 n) - 1 steps.

    The Ritz test of step m passes when the standard residual bounds
    beta_m |s_{m,i}| of the k lowest Ritz pairs of T_m (Paige 1980) are
    all within tol * scale_m, the largest |alpha| or beta so far; only
    those k Ritz vectors are computed.  Each full test solves T_m anew, so
    testing every step costs O(k m^2) over a run, more than the Krylov
    work at res 32.  Two rules cut that cost without moving a bit.

    The screen: each test first solves T_m for one pair, the one with the
    largest bound at the last full test (the k-th before the first), at
    about a tenth of a full solve's cost (m = 420, k = 16).  If that bound
    is over ``_RITZ_SCREEN_MARGIN`` (2) times the tolerance the test
    fails; otherwise the full test runs and decides.  The margin keeps a
    rounding-level difference between the one-pair and the k-pair solve
    from flipping a decision, so every pass, and every value and bound
    returned, is a full test's.  At res 32 (k = 16, seeds 0 to 8) a run
    makes 7 to 15 full solves, where the cadence alone makes 69 to 96,
    and 97 to 146 screens.  At k = 1 the screen would be the full solve,
    so none is made.

    The cadence: the test runs every isqrt(n) // 4 steps
    (``_RITZ_STRIDE_DIVISOR``) while the last test's largest bound is
    over ``_RITZ_NEAR`` times the tolerance, and at every step once it is
    within that factor.  A screened test knows one bound, a lower bound on
    the largest, so it can only add tests.  When a sparse test passes, the
    untested steps since the previous test are tested in order and the
    first that passes is returned; the Krylov-exhausted return and the
    maxiter failure re-scan the untested steps the same way first.  The
    run then stops at the step, and with the bits, of a test at every
    step.

    That is empirical, not guaranteed.  The largest bound moves in a
    sawtooth: it dips below the tolerance and jumps back to about 1e7
    times it whenever a new Ritz value enters the lowest k, so a pass can
    last a single step.  A first passing run that starts and ends between
    two sparse tests is missed; the run then stops at a later passing
    step, with more steps and different values (still within tol).  The
    steps from the bound's last drop within ``_RITZ_NEAR`` to the end of
    the first passing run grow with the grid, from 2 (D=3, res 10) to
    55 (res 64).  A stride of isqrt(n) // 4 stayed inside them on all
    552 runs recorded with two reorthogonalization passes a step (D=2 to
    4, res 8 to 128, k 5 to 36), where 0.3 isqrt(n) missed one (D=3,
    res 10) and a fixed stride of 8 missed 75, and on all 414 runs
    recorded with the DGKS test (D=2 res 16 to 128, D=3 res 8 to 32, D=4
    res 6 to 10, k 5, 9, 16 and 36, seeds 0 to 8).

    Returns (values, residual bounds, steps, full solves, screens): the
    step m of the returned T_m, the number of k-pair (or Krylov-exhausted)
    ``eigh_tridiagonal`` calls and the number of one-pair calls.  Raises
    NonConvergenceError with all k residual bounds of the last step (solved
    in full if it was only screened) if maxiter steps are not enough.
    """
    n = op.size
    steps = MEMORY_BUDGET // (8 * n) - 1
    if steps < k:
        raise ValueError(f"a Lanczos basis of {k + 1} rows of {n} nodes needs "
                         f"{8 * n * (k + 1)} bytes, over the {MEMORY_BUDGET} "
                         "byte budget")
    maxiter = min(n if maxiter is None else maxiter, n, steps)
    if maxiter < k:
        raise ValueError("maxiter must be at least the number of requested eigenvalues")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    V = np.empty((min(maxiter + 1, _LANCZOS_BLOCK), n))
    V[0] = v
    alphas, betas, scales = [], [], []
    scale = None
    stride = max(1, math.isqrt(n) // _RITZ_STRIDE_DIVISOR)
    tested = k - 1  # the last step tested; T_m holds k Ritz pairs from m = k
    near = False
    solves = screens = 0
    worst = k - 1  # the pair with the largest bound at the last full solve
    last_resid = None  # all k bounds of the last test, None if only screened

    def ritz(m):
        """T_m's k lowest Ritz values, their residual bounds and tolerance."""
        nonlocal solves, last_resid
        solves += 1
        # T_m has off-diagonal betas[:m-1]; betas[m-1] bounds the residuals
        vals, svecs = eigh_tridiagonal(alphas[:m], betas[:m - 1], select="i",
                                       select_range=(0, k - 1))
        last_resid = betas[m - 1] * np.abs(svecs[-1])
        return vals, last_resid, tol * scales[m - 1]

    def test(m):
        """The Ritz test of step m: (values, bounds, m) if it passes."""
        nonlocal near, screens, worst, last_resid
        if k > 1:  # screen on one pair; at k = 1 that is the full solve
            screens += 1
            _, svec = eigh_tridiagonal(alphas[:m], betas[:m - 1], select="i",
                                       select_range=(worst, worst))
            one, bound = betas[m - 1] * abs(svec[-1, 0]), tol * scales[m - 1]
            if one > _RITZ_SCREEN_MARGIN * bound:
                last_resid = None
                near = one <= _RITZ_NEAR * bound
                return None
        vals, resid, bound = ritz(m)
        if np.all(resid <= bound):
            return vals, resid, m
        worst = int(np.argmax(resid))
        near = resid[worst] <= _RITZ_NEAR * bound
        return None

    def first_pass(last):
        """Test the untested steps up to ``last`` in order; the first pass."""
        nonlocal tested
        while tested < last:
            tested += 1
            passed = test(tested)
            if passed:
                return passed
        return None

    for j in range(maxiter):
        w = op.apply(V[j])
        a = float(V[j] @ w)
        alphas.append(a)
        w -= a * V[j]
        if j > 0:
            w -= betas[-1] * V[j - 1]
        # full reorthogonalization: one classical Gram-Schmidt pass, and a
        # second only if the first cancelled most of w (DGKS)
        b0 = np.linalg.norm(w)
        w -= V[: j + 1].T @ (V[: j + 1] @ w)
        b = float(np.linalg.norm(w))
        if b < _DGKS_KEEP * b0:
            w -= V[: j + 1].T @ (V[: j + 1] @ w)
            b = float(np.linalg.norm(w))
        if scale is None:
            scale = max(abs(a), b, np.finfo(float).tiny)
        scale = max(scale, abs(a), b)
        scales.append(scale)
        if b <= 1e-14 * scale:
            # Krylov space exhausted: the tridiagonal matrix is exact
            passed = first_pass(j)
            if passed:
                return (*passed, solves, screens)
            solves += 1
            vals = eigh_tridiagonal(alphas, betas, eigvals_only=True)
            return (vals[:k], np.zeros(min(k, len(vals))), j + 1, solves,
                    screens)
        betas.append(b)
        if j + 1 == V.shape[0]:
            grow = min(V.shape[0], maxiter + 1 - V.shape[0])
            V = np.concatenate([V, np.empty((grow, n))])
        V[j + 1] = w / b
        m = j + 1
        if near or m - tested >= stride:
            passed = test(m)
            if passed:
                return (*(first_pass(m - 1) or passed), solves, screens)
            tested = m
    passed = first_pass(maxiter)
    if passed is None:
        if last_resid is None:  # step maxiter was only screened
            ritz(maxiter)
        raise NonConvergenceError(
            f"Lanczos did not converge in {maxiter} iterations",
            residuals=last_resid)
    return (*passed, solves, screens)


def _sector_block(D, sector, n):
    """Collocation matrix of the peeled sector operator on n Gauss nodes."""
    d = D - 1
    u, _ = polar_nodes(n, 0)
    Dm = diffmat(u)
    B = (-(1.0 - u * u)[:, None] * (Dm @ Dm)
         + ((2 * sector + d) * u)[:, None] * Dm
         + sector * (sector + d - 1) * np.eye(n))
    return B


def sector_spectrum(p, res, k):
    """k smallest eigenvalues via the sector decomposition.

    Sector s is the degree s of the sub-sphere harmonic Y_s (the azimuthal
    mode |m| at D=3) and contributes each of its values with that level's
    multiplicity on the (D-2)-sphere, harmonic_multiplicity(D - 1, s).
    Sector s's smallest eigenvalue grows with s, so scanning stops as soon as
    the next sector can no longer land in the lowest k.  At D=2
    ``route_spectrum`` takes the sector route on its largest grid instead,
    where the Fourier factor is exact.
    """
    scale = 0.5 * p.hbar ** 2 / p.R ** 2
    collected = residuals = np.empty(0)
    sector = 0
    while True:
        B = _sector_block(p.D, sector, res)
        vals, vecs = np.linalg.eig(B)
        order = np.argsort(vals.real)
        vals, vecs = vals[order], vecs[:, order]
        res_norm = np.linalg.norm(B @ vecs - vecs * vals.real[None, :],
                                  axis=0) / np.linalg.norm(vecs, axis=0)
        mult = harmonic_multiplicity(p.D - 1, sector)
        collected = np.concatenate([collected, np.repeat(vals * scale, mult)])
        residuals = np.concatenate([residuals, np.repeat(res_norm * scale, mult)])
        sector += 1
        next_floor = sector * (sector + p.D - 2) * scale  # smallest value sector can hold
        if len(collected) >= k and np.sort(collected.real)[k - 1] < next_floor:
            break
        if sector > res + k:
            raise NonConvergenceError("sector scan failed to close", residuals=None)
    # the non-normal blocks turn complex far above the reported values
    # (index 77 of 96 at D=3, sector 20, res 96), so only those are checked
    order = np.argsort(collected.real)[:k]
    vals, resid = collected[order], residuals[order]
    if np.max(np.abs(vals.imag)) > 1e-6 * max(scale, np.max(np.abs(vals))):
        raise AssertionError("sector block produced non-real eigenvalues")
    return _result(vals.real, p, {"sectors_scanned": sector}, residuals=resid)


def reference_spectrum(p, l_max):
    """Closed-form rotor levels [(hbar^2 l(l+D-2)/(2R^2), multiplicity)].

    The eigenvalue follows from H = L^2/(2R^2) plus the standard harmonic
    Casimir; the multiplicity is the dimension of degree-l harmonics,
    C(D+l-1, l) - C(D+l-3, l-2).  Both facts are re-verified numerically in
    the tests (sector spectra and the count of an exact integer basis of
    harmonic polynomials) rather than assumed.
    """
    if not 0 <= l_max <= 20:
        raise ValueError("the reference ladder stops at l = 20, so levels must "
                         f"be at most 21, got l_max = {l_max}")
    return [(p.hbar ** 2 * l * (l + p.D - 2) / (2.0 * p.R ** 2),
             harmonic_multiplicity(p.D, l)) for l in range(l_max + 1)]


def reference_eigenvalues(p, l_max):
    """reference_spectrum flattened to a sorted array with multiplicities."""
    vals = []
    for v, m in reference_spectrum(p, l_max):
        vals.extend([v] * m)
    return np.array(vals)


def _fit_order(v1, v2, v3, n1, n2, n3):
    def gap(pw):
        return ((n1 ** -pw - n2 ** -pw) / (n2 ** -pw - n3 ** -pw)
                - (v1 - v2) / (v2 - v3))
    lo, hi = 0.25, 16.0
    g_lo = gap(lo)
    if g_lo * gap(hi) > 0:
        return None
    while hi - lo > 1e-12:  # bisection keeps the sign change inside [lo, hi]
        mid = 0.5 * (lo + hi)
        g_mid = gap(mid)
        if g_lo * g_mid > 0:
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _check_rising(ns):
    """Extrapolation fits against three or more strictly rising node counts."""
    if len(ns) < 3 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(
            "extrapolation takes three or more resolutions whose largest node "
            "counts strictly rise (the dense route also takes one); got node "
            f"counts {', '.join(map(str, ns))}")


def extrapolate(values, counts):
    """Richardson extrapolation over >= 3 rising resolutions.

    ``values`` holds each resolution's ascending eigenvalues and ``counts``
    its grid's largest node count, the n the error is fitted against.
    The convergence order is fitted per eigenvalue from the last three
    resolutions (no fixed ratio assumed), then the leading error term is
    removed.  Machine-converged sequences pass through unchanged, and
    non-monotone sequences are flagged and returned at the finest raw value.
    Returns (values, error_estimates, flags).
    """
    _check_rising(counts)
    k = min(len(v) for v in values)
    seq = np.stack([v[:k] for v in values])
    v1, v2, v3 = seq[-3], seq[-2], seq[-1]
    n1, n2, n3 = counts[-3], counts[-2], counts[-1]
    scale = max(np.max(np.abs(seq)), np.finfo(float).tiny)
    out = np.array(v3)
    err = np.zeros(k)
    flags = np.zeros(k, dtype=bool)
    for i in range(k):
        d12, d23 = v1[i] - v2[i], v2[i] - v3[i]
        if abs(d23) <= 1e-13 * scale:
            err[i] = max(abs(d23), np.finfo(float).eps * scale)
            continue
        if d12 * d23 <= 0 or abs(d23) >= abs(d12):
            flags[i] = True  # non-monotone or non-contracting: keep raw value
            err[i] = abs(d23)
            continue
        pw = _fit_order(v1[i], v2[i], v3[i], n1, n2, n3)
        if pw is None:
            flags[i] = True
            err[i] = abs(d23)
            continue
        C = d23 / (n2 ** -pw - n3 ** -pw)
        out[i] = v3[i] - C * n3 ** -pw
        err[i] = abs(out[i] - v3[i])
    return out, err, flags


def _route_peak_bytes(p, res, method):
    """Estimated peak bytes of a route's res x res matrices at resolution res.

    Each grid level keeps its factor and that factor's symmetric form, and
    a solve adds a few res x res temporaries: tracemalloc measured 6.0 to
    8.3 res^2 doubles at D = 2 to 4 (res 100 to 600) and 22 at D = 10
    (res 100), within 2D + 4.  The sector route holds one block and its
    complex eigenvectors at a time: 5.0 to 5.1 res^2 doubles at D = 3 to
    5, within 6.  Vectors of D res nodes add a term the estimate leaves
    out, which shows only at small res (28 res^2 doubles at D = 10, res
    48: half a megabyte, far below the budget).  The iterative route's
    basis has its own rule.
    """
    doubles = 6 if method == "sector" and p.D > 2 else 2 * p.D + 4
    return 8 * doubles * res * res


def route_spectrum(p, res, k, method, seed=0):
    """k lowest eigenvalues on the ``sector``, ``dense`` or ``iterative`` route.

    The one call from parameters to eigenvalues, and the one place that
    branches on the route.  Sector and iterative solve at the largest of
    the resolutions ``res``; dense solves at each and extrapolates three or
    more.  Every resolution is built (grid or sector nodes) and every rule
    checked before the first eigensolve, k within the size of every grid
    that is solved included, so a rejected input raises ValueError having
    solved nothing.  The first rule, before any node is computed, is the
    largest resolution's estimated peak (``_route_peak_bytes``) within
    MEMORY_BUDGET.  meta names the ``route``.  The grid routes add
    ``blocks_scanned`` (dense, one count per grid solved) or
    ``symmetry_defect``, ``lanczos_steps``, ``ritz_tests`` (full Ritz
    solves), ``ritz_screens`` (one-pair screens) and ``distinct_only``
    (iterative); the dense route also adds its ``res``, the ``raw`` values
    per resolution and any ``extrapolation_*`` results; the sector route
    adds ``sectors_scanned`` for D >= 3.
    """
    if method not in ("sector", "dense", "iterative"):
        raise ValueError(f"unknown method '{method}'")
    res = [int(r) for r in res]
    need = _route_peak_bytes(p, max(res), method)
    if need > MEMORY_BUDGET:
        raise ValueError(f"resolution {max(res)} needs an estimated {need} "
                         f"bytes of {max(res)} x {max(res)} matrices on the "
                         f"{method} route, over the {MEMORY_BUDGET} byte budget")
    if method == "sector" and p.D > 2:
        for r in res:
            polar_nodes(r, 0)  # every resolution must give a sector block
        out = sector_spectrum(p, max(res), k)
        out.meta["route"] = method
        return out
    grids = [SpectralGrid.build(p, r) for r in res]
    counts = [max(g.counts) for g in grids]
    if method == "dense" and len(grids) > 1:
        _check_rising(counts)
    else:  # the iterative route, and the sector route at D=2
        grids = [grids[res.index(max(res))]]
    for g in grids:
        if k > g.size:
            raise ValueError(f"requested {k} eigenvalues from an operator of "
                             f"size {g.size}")
    if method == "iterative":
        # single-vector Krylov resolves degenerate copies only through
        # rounding noise, so it reports distinct values (distinct_only)
        op = assemble(grids[0])
        meta = {"route": method, "symmetry_defect": op.symmetry_defect(),
                "distinct_only": True}
        (vals, resid, meta["lanczos_steps"], meta["ritz_tests"],
         meta["ritz_screens"]) = lanczos_lowest(op, k, seed=seed)
        return _result(vals, p, meta, residuals=resid)
    raws, blocks = [], []
    for g in grids:
        vals, scanned = assemble(g).lowest(k)
        raws.append(_result(vals, p, {}).eigenvalues)  # checked per grid
        blocks.append(scanned)
    meta = {"route": method, "blocks_scanned": blocks}
    if method == "dense":
        meta.update(res=res, raw=raws)
        if len(raws) >= 3:
            values, errs, flags = extrapolate(raws, counts)
            meta.update(route="dense+extrapolation",
                        extrapolation_error_estimates=[float(e) for e in errs],
                        extrapolation_flagged=int(np.sum(flags)))
            return _result(values, p, meta)
    return _result(raws[-1], p, meta)
